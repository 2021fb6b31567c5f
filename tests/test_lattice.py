from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nuframe import RejectedParameters, make_lattice, omega_cells
from nuframe.lattice import cell_index, coordinate, on_lattice, point_indices
from nuframe.errors import FrequencyOutOfRange


def test_valid_lattices():
    lat = make_lattice(2, 1)
    assert (lat.N, lat.r) == (2, 1)
    assert make_lattice(1, 1).N == 1
    assert make_lattice(5, 3).r == 3


@pytest.mark.parametrize(
    "N, r",
    [(2, 2), (2, 4), (3, 3), (4, 2), (2, 5), (3, 0), (1, 2), (0, 1), (3, -1)],
)
def test_rejected_parameters(N, r):
    with pytest.raises(RejectedParameters) as err:
        make_lattice(N, r)
    assert err.value.code == "E_LATTICE"


def test_lambda_values():
    # the value of a point is its integer coordinate over N
    lat = make_lattice(2, 1)
    assert Fraction(coordinate(lat, 1, 0), lat.N) == Fraction(1, 2)
    assert Fraction(coordinate(lat, 0, 2), lat.N) == 4
    assert Fraction(coordinate(lat, 1, 2), lat.N) == Fraction(9, 2)


def test_point_for_value_round_trip():
    lat = make_lattice(3, 1)
    for s in (0, 1):
        for l in range(-5, 6):
            k = coordinate(lat, s, l)
            assert on_lattice(lat, k)
            assert [int(v) for v in point_indices(lat, k)] == [s, l]
    assert [int(v) for v in point_indices(lat, 1)] == [1, 0]  # value 1/3
    assert not on_lattice(lat, 9)  # odd integer 3, r/N = 1/3
    # arrays decode elementwise
    s, l = point_indices(lat, np.array([-5, 0, 1, 6, 7]))
    assert s.tolist() == [1, 0, 1, 0, 1] and l.tolist() == [-1, 0, 0, 1, 1]


lattices = st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 1), (5, 3), (7, 5)])
ls = st.integers(min_value=-(10**6), max_value=10**6)


@given(lattices, st.integers(0, 1), ls, st.integers(0, 1), ls)
def test_lambda_injective(nr, s1, l1, s2, l2):
    lat = make_lattice(*nr)
    if (s1, l1) != (s2, l2):
        assert coordinate(lat, s1, l1) != coordinate(lat, s2, l2)


@given(lattices, st.integers(0, 1), ls, st.integers(0, 1), ls)
def test_shift_invariance(nr, s1, l1, s2, l2):
    # lambda(p) + 2N*lambda(q) lands on a unique lattice point with p's coset
    # bit, exactly: in coordinates, k(p) + 2N*k(q)
    lat = make_lattice(*nr)
    t = coordinate(lat, s2, l2)
    assert on_lattice(lat, t)
    moved = coordinate(lat, s1, l1) + 2 * lat.N * t
    assert Fraction(moved, lat.N) == Fraction(s1 * lat.r, lat.N) + 2 * l1 + 2 * lat.N * (
        Fraction(s2 * lat.r, lat.N) + 2 * l2
    )
    assert [int(v) for v in point_indices(lat, moved)] == [s1, l1 + t]
    # sorting by coordinate is sorting by (l, s)
    assert (coordinate(lat, s1, l1) < coordinate(lat, s2, l2)) == ((l1, s1) < (l2, s2))


def _edges(lat, K):
    """Left edges of the cells as exact fractions."""
    return [Fraction(int(c), 4 * lat.N * K) for c in omega_cells(lat, K)]


def test_omega_cells_n2():
    lat = make_lattice(2, 1)
    cells = _edges(lat, 1)
    assert len(cells) == 8
    assert [c < Fraction(1, 2) for c in cells] == [True] * 4 + [False] * 4
    assert cells[:4] == [Fraction(g, 8) for g in range(4)]
    assert cells[4] == 1 and cells[7] + Fraction(1, 8) == Fraction(3, 2)


def test_omega_cells_n1_and_refined():
    assert len(omega_cells(make_lattice(1, 1), 1)) == 4
    cells = _edges(make_lattice(2, 1), 2)
    assert len(cells) == 16
    assert cells[1] - cells[0] == Fraction(1, 16)


@given(lattices, st.integers(1, 5))
def test_omega_cells_tile_exactly(nr, K):
    lat = make_lattice(*nr)
    width = Fraction(1, 4 * lat.N * K)
    cells = _edges(lat, K)
    assert len(cells) * width == 1
    # each branch is tiled without gaps, starting at 0 and N/2
    per_branch = 2 * lat.N * K
    for start, branch in ((0, cells[:per_branch]), (Fraction(lat.N, 2), cells[per_branch:])):
        assert branch == [start + c * width for c in range(per_branch)]
        assert branch[-1] + width == start + Fraction(1, 2)


def test_cell_index():
    lat = make_lattice(2, 1)
    assert cell_index(lat, 1, 0.0) == 0
    assert cell_index(lat, 1, 0.49) == 3
    assert cell_index(lat, 1, 1.0) == 4
    assert cell_index(lat, 1, 1.49) == 7
    with pytest.raises(FrequencyOutOfRange):
        cell_index(lat, 1, 0.75)
    with pytest.raises(FrequencyOutOfRange):
        cell_index(lat, 1, -0.1)
    # arrays map elementwise and keep their shape; one bad entry (NaN too) raises
    got = cell_index(lat, 1, np.array([[0.0, 0.49], [1.0, 1.49]]))
    assert got.tolist() == [[0, 3], [4, 7]]
    for bad in (0.75, float("nan")):
        with pytest.raises(FrequencyOutOfRange):
            cell_index(lat, 1, np.array([0.1, bad]))

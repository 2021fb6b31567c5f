from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nuframe import (
    LatticePoint,
    RejectedParameters,
    lambda_value,
    make_lattice,
    omega_cells,
    point_for_value,
)
from nuframe.lattice import cell_index, shift_point
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
    lat = make_lattice(2, 1)
    assert lambda_value(LatticePoint(1, 0), lat) == Fraction(1, 2)
    assert lambda_value(LatticePoint(0, 2), lat) == 4
    assert lambda_value(LatticePoint(1, 2), lat) == Fraction(9, 2)


def test_point_for_value_round_trip():
    lat = make_lattice(3, 1)
    for s in (0, 1):
        for l in range(-5, 6):
            p = LatticePoint(s, l)
            assert point_for_value(lambda_value(p, lat), lat) == p
    assert point_for_value(Fraction(1, 3), lat) == LatticePoint(1, 0)
    assert point_for_value(Fraction(1, 2), lat) is None
    assert point_for_value(Fraction(3), lat) is None  # odd integer, r/N = 1/3


lattices = st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 1), (5, 3), (7, 5)])
ls = st.integers(min_value=-(10**6), max_value=10**6)


@given(lattices, st.integers(0, 1), ls, st.integers(0, 1), ls)
def test_lambda_injective(nr, s1, l1, s2, l2):
    lat = make_lattice(*nr)
    p1, p2 = LatticePoint(s1, l1), LatticePoint(s2, l2)
    if p1 != p2:
        assert lambda_value(p1, lat) != lambda_value(p2, lat)


@given(lattices, st.integers(0, 1), ls, st.integers(0, 1), ls)
def test_shift_invariance(nr, s1, l1, s2, l2):
    # lambda(p) + 2N*lambda(q) lands on a unique lattice point, exactly
    lat = make_lattice(*nr)
    p, q = LatticePoint(s1, l1), LatticePoint(s2, l2)
    target = lambda_value(p, lat) + 2 * lat.N * lambda_value(q, lat)
    moved = shift_point(p, q, lat)
    assert lambda_value(moved, lat) == target
    assert point_for_value(target, lat) == moved


def test_omega_cells_n2():
    lat = make_lattice(2, 1)
    cells = omega_cells(lat, 1)
    assert len(cells) == 8
    assert [c.branch for c in cells] == ["low"] * 4 + ["high"] * 4
    assert [c.left for c in cells[:4]] == [Fraction(g, 8) for g in range(4)]
    assert cells[4].left == 1 and cells[7].right == Fraction(3, 2)
    assert all(c.width == Fraction(1, 8) for c in cells)


def test_omega_cells_n1_and_refined():
    assert len(omega_cells(make_lattice(1, 1), 1)) == 4
    cells = omega_cells(make_lattice(2, 1), 2)
    assert len(cells) == 16
    assert all(c.width == Fraction(1, 16) for c in cells)


@given(lattices, st.integers(1, 5))
def test_omega_cells_tile_exactly(nr, K):
    lat = make_lattice(*nr)
    cells = omega_cells(lat, K)
    assert sum(c.width for c in cells) == 1
    # pairwise disjoint and ordered within each branch
    for a, b in zip(cells, cells[1:]):
        if a.branch == b.branch:
            assert a.right == b.left


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

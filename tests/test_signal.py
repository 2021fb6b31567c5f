import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuframe import (
    FrequencyOutOfRange,
    LatticePoint,
    MixedLattice,
    ShapeMismatch,
    displace,
    frobenius_norm,
    inner_time,
    make_lattice,
    matrix_seq,
    seq_equal,
    spectrum_grid,
    spectrum_step,
    step_inner,
)
from nuframe.fixtures import counterexample, exam1
from nuframe.signal import rebin

from .conftest import random_seq
from .oracles import (
    eval_spectrum,
    points,
    quad_inner_l2,
    quad_inner_step_step,
    step_on_grid,
)

LAT2 = make_lattice(2, 1)


def delta_seq(lat, n, s=0, l=0, value=None):
    m = np.eye(n) if value is None else value
    return matrix_seq(lat, n, {LatticePoint(s, l): m})


# --- construction ---------------------------------------------------------


def test_zero_matrices_pruned():
    f = matrix_seq(LAT2, 2, {LatticePoint(0, 0): np.zeros((2, 2)), LatticePoint(0, 1): np.eye(2)})
    assert [(s, l) for s, l, _ in points(f)] == [(0, 1)]


def test_entries_are_read_only():
    f = delta_seq(LAT2, 2)
    with pytest.raises(ValueError):
        f.mats[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        f.k[0] = 1


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        matrix_seq(LAT2, 2, {LatticePoint(0, 0): np.eye(3)})


# --- displacement ---------------------------------------------------------


def test_displace_identity():
    f = exam1().envelopes[0]
    assert seq_equal(displace(f, LatticePoint(0, 0)), f)


def test_displace_moves_support():
    f = exam1().envelopes[0]  # support values {0, 4}
    moved = displace(f, LatticePoint(0, 1))  # shift by 2N*lambda = 8
    values = sorted(l * 2 for _, l, _ in points(moved))
    assert values == [8, 12]
    assert len(moved.k) == len(f.k)


def test_displace_modulation_identity():
    f = exam1().envelopes[2]
    q = LatticePoint(1, -1)
    x = 0.3
    lam = 0.5 - 2  # value of q
    lhs = spectrum_grid(displace(f, q), x)
    rhs = cmath.exp(4j * math.pi * 2 * lam * x) * spectrum_grid(f, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_displace_composes_and_preserves_norm(rng):
    f = random_seq(LAT2, 2, rng)
    q1, q2 = LatticePoint(1, 2), LatticePoint(0, -3)
    q12 = LatticePoint(1, -1)  # values add: (1/2 + 4) + (-6) = 1/2 - 2
    twice = displace(displace(f, q1), q2)
    assert seq_equal(twice, displace(f, q12))
    assert twice.norm_sq() == pytest.approx(f.norm_sq(), abs=0)


# --- transform evaluation -------------------------------------------------


def test_fourier_first_envelope_formula():
    f1 = exam1().envelopes[0]
    for x in (0.0, 0.17, 0.42, 1.3):
        e = cmath.exp(8j * math.pi * x)
        expected = np.array([[1, e], [e, 1]])
        assert np.max(np.abs(spectrum_grid(f1, x) - expected)) < 1e-12


def test_fourier_at_zero_sums_entries():
    f1 = exam1().envelopes[0]
    f5 = exam1().envelopes[4]
    assert np.allclose(spectrum_grid(f1, 0.0), np.ones((2, 2)), atol=1e-15)
    assert np.allclose(spectrum_grid(f5, 0.0), np.ones((2, 2)), atol=1e-15)


def test_spectrum_grid_matches_oracles(rng):
    f = random_seq(LAT2, 2, rng)
    xs = np.linspace(0.0, 1.4, 7)
    grid = spectrum_grid(f, xs)
    assert grid.shape == (7, 2, 2)
    assert np.max(np.abs(grid - eval_spectrum(f, xs))) < 1e-12
    for i, x in enumerate(xs):
        assert np.max(np.abs(grid[i] - spectrum_grid(f, x))) < 1e-12
    # a 2-D grid keeps its shape, for both signal kinds
    xs2 = np.array([[0.0, 0.13, 0.37], [1.0, 1.21, 1.49]])
    got = spectrum_grid(f, xs2)
    assert got.shape == (2, 3, 2, 2)
    assert np.max(np.abs(got.reshape(6, 2, 2) - eval_spectrum(f, xs2.ravel()))) < 1e-12
    _, ft = counterexample(2, 1, 2.0)
    step = spectrum_grid(ft, xs2)
    assert step.shape == (2, 3, 2, 2)
    assert np.array_equal(step.reshape(6, 2, 2), step_on_grid(ft, xs2.ravel()))


# --- norms and inner products --------------------------------------------


def test_frobenius_norm_values():
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    f1 = exam1().envelopes[0]
    assert frobenius_norm(spectrum_grid(f1, 0.277)) == pytest.approx(2.0, abs=1e-12)


def test_inner_time_examples():
    env = exam1().envelopes
    assert inner_time(env[0], env[0]) == pytest.approx(4.0, abs=1e-15)
    zero = matrix_seq(LAT2, 2, {})
    assert inner_time(env[0], zero) == 0
    assert inner_time(env[0], env[2]) == pytest.approx(2.0, abs=1e-15)


def test_inner_time_matches_frequency_quadrature():
    env = exam1().envelopes
    direct = inner_time(env[0], env[2])
    quad = quad_inner_l2(env[0], env[2], nodes_per_cell=64)
    assert abs(direct - quad) < 1e-10


def test_inner_time_rejects_mixed_lattice():
    f = delta_seq(LAT2, 2)
    g = delta_seq(make_lattice(3, 1), 2)
    with pytest.raises(MixedLattice):
        inner_time(f, g)


# --- step-spectrum inner products ------------------------------------------


def one_cell_step(lat, n, cell=0, value=None):
    cells = 4 * lat.N
    vals = np.zeros((cells, n, n), dtype=complex)
    vals[cell] = np.eye(n) if value is None else value
    return spectrum_step(lat, n, 1, vals)


def test_step_inner_identical_and_disjoint():
    lat = LAT2
    v = np.array([[1, 2], [3j, 0]])
    S = one_cell_step(lat, 2, cell=1, value=v)
    got = step_inner(S, S, LatticePoint(0, 0))
    assert got == pytest.approx((1 + 4 + 9) / 8, abs=1e-14)
    T = one_cell_step(lat, 2, cell=2, value=v)
    assert step_inner(S, T, LatticePoint(0, 0)) == 0


def test_step_inner_rebins_mixed_refinements():
    lat = LAT2
    S = one_cell_step(lat, 2)
    fine = rebin(S, 3)
    assert step_inner(S, fine, LatticePoint(0, 2)) == pytest.approx(
        step_inner(S, S, LatticePoint(0, 2)), abs=1e-14
    )
    got = step_inner(fine, S, LatticePoint(1, 1))
    want = quad_inner_step_step(fine, S, 1, 1, nodes_per_cell=24, refinement=3)
    assert abs(got - want) < 1e-10


def test_step_partial_sums_trend_single_envelope():
    # against one envelope the shift coefficients of the witness spectrum
    # accumulate to 1/N
    N = 2
    system, ft = counterexample(N, 1, 1.0)
    env = system.envelopes[0]
    total = 0.0
    for s in (0, 1):
        for l in range(-50, 51):
            total += abs(step_inner(ft, env, LatticePoint(s, l))) ** 2
    assert total == pytest.approx(1 / N, abs=6e-4)
    assert total < 1 / N  # partial sums increase to the limit


def test_spectrum_grid_dispatch():
    system, ft = counterexample(2, 1, 2.0)
    assert np.allclose(spectrum_grid(ft, 0.01), np.ones((2, 2)))
    assert np.allclose(spectrum_grid(ft, 0.2), 0.5 * np.ones((2, 2)))
    assert np.allclose(spectrum_grid(ft, 0.3), np.zeros((2, 2)))
    f1 = exam1().envelopes[0]
    assert np.allclose(spectrum_grid(f1, 0.3), eval_spectrum(f1, [0.3])[0])
    with pytest.raises(TypeError):
        spectrum_grid(system, 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectrum_grid_rejects_non_finite_frequencies(bad):
    _, ft = counterexample(2, 1, 2.0)
    f1 = exam1().envelopes[0]
    for obj in (f1, ft):
        with pytest.raises(FrequencyOutOfRange):
            spectrum_grid(obj, bad)
        with pytest.raises(FrequencyOutOfRange):
            spectrum_grid(obj, [0.1, bad])


# --- identities as properties ----------------------------------------------

small_lattices = st.sampled_from([(1, 1), (2, 1), (3, 1)])


@st.composite
def signals(draw, n_max=3, support_max=6):
    N, r = draw(small_lattices)
    lat = make_lattice(N, r)
    n = draw(st.integers(1, n_max))
    count = draw(st.integers(1, support_max))
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(-5, 5)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    small = st.integers(-4, 4)
    entries = {}
    for s, l in points:
        data = draw(
            st.lists(st.tuples(small, small), min_size=n * n, max_size=n * n)
        )
        m = np.array([complex(a, b) / 2 for a, b in data]).reshape(n, n)
        entries[LatticePoint(s, l)] = m
    return matrix_seq(lat, n, entries)


@settings(max_examples=25, deadline=None)
@given(signals())
def test_plancherel_property(f):
    if not len(f.k):
        return
    quad = quad_inner_l2(f, f, nodes_per_cell=64)
    assert abs(f.norm_sq() - quad.real) <= 1e-8 * max(1.0, f.norm_sq())
    assert abs(quad.imag) <= 1e-10 * max(1.0, f.norm_sq())


@settings(max_examples=25, deadline=None)
@given(signals(), st.data())
def test_parseval_property(f, data):
    g = data.draw(signals())
    if f.lattice != g.lattice or f.n != g.n:
        return
    direct = inner_time(f, g)
    swapped = inner_time(g, f)
    assert abs(direct - swapped.conjugate()) <= 1e-12 * max(1.0, abs(direct))
    quad = quad_inner_l2(f, g, nodes_per_cell=64)
    scale = max(1.0, math.sqrt(f.norm_sq() * g.norm_sq()))
    assert abs(direct - quad) <= 1e-8 * scale


@settings(max_examples=30, deadline=None)
@given(signals(), st.integers(0, 1), st.integers(-3, 3), st.floats(0, 1.5))
def test_modulation_property(f, s, l, x):
    q = LatticePoint(s, l)
    lam = s * f.lattice.r / f.lattice.N + 2 * l
    lhs = spectrum_grid(displace(f, q), x)
    rhs = cmath.exp(4j * math.pi * f.lattice.N * lam * x) * spectrum_grid(f, x)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=10))
def test_squared_sum_bound(pairs):
    w = [complex(a, b) for a, b in pairs]
    t = len(w)
    assert abs(sum(w)) ** 2 <= 2 ** (t - 1) * sum(abs(z) ** 2 for z in w) + 1e-9

import math

import numpy as np
import pytest

from nuframe import (
    LatticePoint,
    InvalidParameter,
    bessel_necessary_bounds,
    bessel_sufficient_bound,
    envelope_sup_norm,
    feasibility,
    frame_bounds_gamma,
    frame_sum,
    make_lattice,
    matrix_seq,
)
from nuframe import gamma
from nuframe.bounds import SINGULAR_FLOOR, refine_bounds
from nuframe.fixtures import counterexample, exam1, onb_fixture
from nuframe.frame import frame_system

from .conftest import random_seq

LAT2 = make_lattice(2, 1)


def test_envelope_sup_norm_exam1():
    assert envelope_sup_norm(exam1(), 4096) == pytest.approx(2.0, abs=1e-9)


def test_envelope_sup_norm_delta():
    f = matrix_seq(LAT2, 2, {LatticePoint(0, 0): np.eye(2)})
    sys1 = frame_system(LAT2, 2, [f])
    assert envelope_sup_norm(sys1, 128) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_envelope_sup_norm_step_system():
    for N in (2, 3):
        system, _ = counterexample(N, 1, 1.0)
        assert envelope_sup_norm(system, 16) == pytest.approx(2 * math.sqrt(N), abs=1e-12)


def test_bessel_sufficient_bound_values():
    assert bessel_sufficient_bound(8, 2, 2.0) == 2048.0
    assert bessel_sufficient_bound(1, 1, 1.0) == 1.0
    assert bessel_sufficient_bound(2, 2, 2 * math.sqrt(2)) == pytest.approx(64.0)
    with pytest.raises(InvalidParameter):
        bessel_sufficient_bound(0, 2, 1.0)
    with pytest.raises(InvalidParameter):
        bessel_sufficient_bound(2, 2, 0.0)


def test_bessel_necessary_bounds_values():
    proof, stated = bessel_necessary_bounds(2, 2048.0)
    assert proof == pytest.approx(128.0) and stated == 2050.0
    assert bessel_necessary_bounds(1, 1.0) == (2.0, 2.0)


def test_feasibility():
    assert feasibility(2, 1, 1)       # 4 >= 4
    assert not feasibility(8, 2, 2)   # 16 < 32
    for N in (1, 2, 5):
        assert not feasibility(2, 2, N)


def test_onb_bounds_are_one():
    rep = frame_bounds_gamma(onb_fixture(), 256)
    assert rep.feasible and rep.verdict == "frame"
    assert rep.a_est == pytest.approx(1.0, abs=1e-9)
    assert rep.b_est == pytest.approx(1.0, abs=1e-9)
    assert rep.grid == 256 and len(rep.sigma_min_curve) == 256


def test_exam1_rank_deficient():
    rep = frame_bounds_gamma(exam1(), 64)
    assert not rep.feasible
    assert rep.verdict == "rank_deficient"
    assert rep.a_est == 0.0
    assert rep.b_est <= bessel_sufficient_bound(8, 2, envelope_sup_norm(exam1())) + 1e-9


def test_sup_norm_consistent_with_measured_bound():
    # any Bessel bound b admitted by the sweep must dominate the spectrum:
    # sup ||F(env)|| <= 2 sqrt(N b) <= N + b
    for sys1 in (onb_fixture(), exam1()):
        rep = frame_bounds_gamma(sys1, 128)
        sup = envelope_sup_norm(sys1, 512)
        proof, stated = bessel_necessary_bounds(sys1.lattice.N, rep.b_est)
        assert sup <= proof + 1e-6
        assert proof <= stated + 1e-12


def test_sandwich_on_random_signals(rng):
    for sys1 in (onb_fixture(), exam1()):
        rep = frame_bounds_gamma(sys1, 256)
        for _ in range(15):
            f = random_seq(sys1.lattice, sys1.n, rng, support=4, l_range=3)
            value = frame_sum(sys1, f)
            tol = 1e-6 * f.norm_sq()
            assert rep.a_est * f.norm_sq() - tol <= value
            assert value <= rep.b_est * f.norm_sq() + tol


def test_grid_refinement_monotone_on_nested_grids():
    # midpoint grids nest under tripling, so min/max are monotone exactly
    sys1 = exam1()
    r1 = frame_bounds_gamma(sys1, 24)
    r3 = frame_bounds_gamma(sys1, 72)
    assert set(np.round(r1.xs, 15)).issubset(set(np.round(r3.xs, 15)))
    assert r3.b_est >= r1.b_est - 1e-15
    assert r3.a_est <= r1.a_est + 1e-15


def test_refine_bounds_reports_sequence():
    reports = refine_bounds(onb_fixture(), 16, 2)
    assert [rep.grid for rep in reports] == [16, 32, 64]
    for rep in reports:
        assert rep.b_est == pytest.approx(1.0, abs=1e-12)


def test_verdict_bessel_only_for_singular_feasible_system():
    # p=2, n=1, N=1 is feasible, but identical envelopes leave a kernel
    lat = make_lattice(1, 1)
    f1 = matrix_seq(lat, 1, {LatticePoint(0, 0): [[1.0]]})
    sys1 = frame_system(lat, 1, [f1, f1])
    rep = frame_bounds_gamma(sys1, 32)
    assert rep.feasible
    assert rep.a_est <= SINGULAR_FLOOR
    assert rep.verdict == "bessel_only"


def test_grid_validation():
    with pytest.raises(InvalidParameter):
        frame_bounds_gamma(onb_fixture(), 4)
    with pytest.raises(InvalidParameter):
        envelope_sup_norm(exam1(), 1)


def test_sweep_is_deterministic(rng, monkeypatch):
    lat = make_lattice(3, 1)
    random_sys = frame_system(lat, 1, [random_seq(lat, 1, rng, support=4) for _ in range(7)])
    systems = (exam1(), random_sys)
    firsts = [frame_bounds_gamma(sys1, 96) for sys1 in systems]
    for sys1, first in zip(systems, firsts):
        second = frame_bounds_gamma(sys1, 96)
        assert first.sigma_min_curve == second.sigma_min_curve
        assert first.sigma_max_curve == second.sigma_max_curve
        assert (first.a_est, first.b_est) == (second.a_est, second.b_est)
    # splitting the grid into many operator chunks leaves the curves unchanged
    monkeypatch.setattr(gamma, "OPERATOR_BYTES", 10_000)
    for sys1, first in zip(systems, firsts):
        chunked = frame_bounds_gamma(sys1, 96)
        np.testing.assert_allclose(chunked.sigma_min_curve, first.sigma_min_curve, atol=1e-12)
        np.testing.assert_allclose(chunked.sigma_max_curve, first.sigma_max_curve, rtol=1e-12)


@pytest.mark.parametrize("N, r", [(1, 1), (2, 1), (3, 1), (5, 3)])
def test_counterexample_sweep_is_rank_deficient_with_bound_two(N, r):
    """The step-spectrum counterexample sweeps to ``a_est = 0``, ``b_est = 2``.

    Worked by hand: both envelopes live on cell 0 only, and of the 4N
    sample offsets only ``g = 0`` lands there.  So each envelope
    contributes two parallel rows to ``T(x)`` (the samples and their
    unimodular phase-modulated copy), each of squared norm ``2 * 2N``
    (two nonzero entries of modulus ``sqrt(2N)``).  Two parallel rows of
    squared norm ``4N`` have the rank-one Gram eigenvalue ``2 * 4N = 8N``;
    the two envelopes occupy disjoint entries, so their rows are
    orthogonal and ``sigma_max^2 = 8N``.  Dividing by ``4N`` gives 2.  With
    ``2p = 4 < 16N = 4N n^2`` the shape is rank deficient.
    """
    system, _ = counterexample(N, r, 1.0)
    rep = frame_bounds_gamma(system, 32)
    assert rep.verdict == "rank_deficient"
    assert rep.a_est == 0
    assert rep.b_est == pytest.approx(2.0, abs=1e-12)

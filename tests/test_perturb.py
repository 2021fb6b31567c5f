import math

import numpy as np
import pytest

from nuframe import (
    ShapeMismatch,
    VanishingEnvelopeSpectrum,
    absolute_bounds,
    check_absolute,
    check_relative,
    frame_bounds_gamma,
    MatrixSeq,
    make_lattice,
    relative_bounds,
)
from nuframe.fixtures import counterexample, exam1, exam1_perturbed, onb_fixture
from nuframe.frame import frame_system

LAT2 = make_lattice(2, 1)


def scaled_system(sys1, factor):
    envelopes = [
        MatrixSeq(sys1.lattice, sys1.n, e.k, factor * e.mats)
        for e in sys1.envelopes
    ]
    return frame_system(sys1.lattice, sys1.n, envelopes)


def test_exact_cancellation_returns_reference_bounds():
    sys1 = exam1()
    neg = scaled_system(sys1, -1.0)
    rep = check_absolute(sys1, neg, a0=1.0, b0=2048.0, grid=64)
    assert rep.epsilon_measured == 0.0
    assert rep.condition_holds
    assert rep.new_lower == 1.0
    assert rep.new_upper == 2 * 2048.0
    assert rep.epsilon_below_condition_value is False  # 0 < 0 fails, recorded literally


def test_published_perturbation_measured_epsilons():
    sys1 = exam1()
    printed = check_absolute(sys1, exam1_perturbed(), 1.0, 2048.0, grid=128)
    # the printed third envelope does not cancel: one entry has modulus 49/25
    assert printed.epsilon_measured == pytest.approx(math.sqrt(2402) / 25, abs=1e-12)
    assert not printed.condition_holds
    fixed = check_absolute(sys1, exam1_perturbed(g3_sign_fixed=True), 1.0, 2048.0, grid=128)
    # with the sign fixed every summed spectrum has two entries of modulus 1/25
    assert fixed.epsilon_measured == pytest.approx(math.sqrt(2) / 25, abs=1e-12)
    assert fixed.condition_value == pytest.approx(2**7 * 2 / 625 * 4, rel=1e-12)
    # still above a0 = 1, so the certificate is refused under this norm
    assert not fixed.condition_holds


def test_absolute_bounds_formula_reference_point():
    lower, upper = absolute_bounds(a0=1.0, b0=2048.0, eps=0.04, p=8, n=2)
    cond = 2**7 * 0.04**2 * 4
    assert cond == pytest.approx(0.8192, abs=1e-15)
    assert lower == pytest.approx((1 - math.sqrt(0.8192)) ** 2, abs=1e-15)
    assert upper == pytest.approx(2**8 * 0.04**2 * 4 + 2 * 2048.0, abs=1e-12)


def test_bounds_monotone_in_epsilon():
    # admissible range: 2^(p-1) eps^2 n^2 < a0, i.e. eps < 1/sqrt(512)
    lowers, uppers = [], []
    for eps in np.linspace(0.0, 0.044, 9):
        lo, up = absolute_bounds(1.0, 2048.0, eps, 8, 2)
        lowers.append(lo)
        uppers.append(up)
    assert all(a > b for a, b in zip(lowers, lowers[1:]))
    assert all(a < b for a, b in zip(uppers, uppers[1:]))
    lowers, uppers = [], []
    for eps in np.linspace(0.0, 0.001, 9):
        lo, up = relative_bounds(1.0, 2.0, eps, 8, 2, 2)
        lowers.append(lo)
        uppers.append(up)
    assert all(a > b for a, b in zip(lowers, lowers[1:]))
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def test_relative_self_is_zero():
    sys1 = exam1()
    rep = check_relative(sys1, sys1, 1.0, 2048.0, grid=64)
    assert rep.epsilon_measured == 0.0
    assert rep.condition_holds
    assert rep.new_lower == 1.0 and rep.new_upper == 2 * 2048.0
    assert rep.epsilon_below_condition_value is None


def test_relative_recovers_uniform_scaling():
    sys1 = exam1()
    delta = 1e-3
    rep = check_relative(sys1, scaled_system(sys1, 1 + delta), 1.0, 2048.0, grid=64)
    assert rep.epsilon_measured == pytest.approx(delta, abs=1e-9)


def test_relative_rejects_vanishing_spectrum():
    system, _ = counterexample(2, 1, 1.0)
    with pytest.raises(VanishingEnvelopeSpectrum):
        check_relative(system, system, 1.0, 32.0, grid=64)


def test_shape_mismatch_rejected():
    sys1 = exam1()
    smaller = frame_system(LAT2, 2, sys1.envelopes[:4])
    with pytest.raises(ShapeMismatch):
        check_absolute(sys1, smaller, 1.0, 2.0, 32)
    other = onb_fixture()
    with pytest.raises(ShapeMismatch):
        check_relative(sys1, other, 1.0, 2.0, 32)


def test_certified_bounds_respected_by_sweep():
    # perturb the calibration frame by scaling toward its negation; the
    # sweep on the perturbed system must respect the certified bounds
    sys1 = onb_fixture()
    ref = frame_bounds_gamma(sys1, 256)
    delta = 0.05
    pert = scaled_system(sys1, -(1 + delta))
    rep = check_absolute(sys1, pert, ref.a_est, ref.b_est, grid=256)
    assert rep.epsilon_measured == pytest.approx(delta, abs=1e-12)
    assert rep.condition_holds
    measured = frame_bounds_gamma(pert, 256)
    assert measured.a_est >= rep.new_lower - 1e-6
    assert measured.b_est <= rep.new_upper + 1e-6


def test_epsilon_grid_is_sup_estimate():
    # spectra of the bundled systems have x-independent norms, so any grid
    # returns the same epsilon
    sys1 = exam1()
    pert = exam1_perturbed(g3_sign_fixed=True)
    coarse = check_absolute(sys1, pert, 1.0, 2048.0, grid=16)
    fine = check_absolute(sys1, pert, 1.0, 2048.0, grid=512)
    assert coarse.epsilon_measured == pytest.approx(fine.epsilon_measured, abs=1e-12)

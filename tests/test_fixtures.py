import cmath
import math

import numpy as np
import pytest

from nuframe import (
    envelope_sup_norm,
    feasibility,
    frame_bounds_gamma,
    frame_sum,
    frame_sum_spectral,
    frame_sum_spectral_entrywise,
    spectrum_grid,
)
from nuframe.fixtures import (
    FIXTURE_NAMES,
    build_fixture,
    counterexample,
    exam1,
    exam1_perturbed,
    onb_fixture,
)
from nuframe.serialize import export_to_json, load_any
from nuframe.signal import seq_equal, step_equal

from .conftest import random_seq
from .oracles import points


def test_exam1_support_pattern():
    sys1 = exam1()
    assert sys1.p == 8 and sys1.n == 2
    assert (sys1.lattice.N, sys1.lattice.r) == (2, 1)
    for j, env in enumerate(sys1.envelopes, start=1):
        assert len(env.k) == 2
        values = sorted(s for s, _, _ in points(env))
        assert values == ([0, 0] if j <= 4 else [1, 1])


def test_exam1_second_envelope_spectrum():
    f2 = exam1().envelopes[1]
    for x in (0.0, 0.21, 0.77):
        e = cmath.exp(8j * math.pi * x)
        want = np.array([[1, -1j * e], [1j * e, -1]])
        assert np.max(np.abs(spectrum_grid(f2, x) - want)) < 1e-13


def test_exam1_sup_norm():
    assert envelope_sup_norm(exam1(), 1024) == pytest.approx(2.0, abs=1e-12)


def test_exam1_perturbed_first_envelope_spectrum():
    g1 = exam1_perturbed().envelopes[0]
    for x in (0.0, 0.4):
        e = cmath.exp(8j * math.pi * x)
        want = np.array([[-24 / 25, -e], [-e, -24 / 25]])
        assert np.max(np.abs(spectrum_grid(g1, x) - want)) < 1e-13


def test_exam1_perturbed_support_matches_exam1():
    ref = exam1()
    for variant in (exam1_perturbed(), exam1_perturbed(g3_sign_fixed=True)):
        for env_f, env_g in zip(ref.envelopes, variant.envelopes):
            assert np.array_equal(env_f.k, env_g.k)


def test_exam1_perturbed_sign_variants_differ_in_one_entry():
    printed = exam1_perturbed().envelopes[2]
    fixed = exam1_perturbed(g3_sign_fixed=True).envelopes[2]
    assert np.array_equal(printed.k, fixed.k)
    diffs = 0
    for m_printed, m_fixed in zip(printed.mats, fixed.mats):
        diffs += int(np.any(m_printed != m_fixed))
    assert diffs == 1


def test_counterexample_witness_values():
    for N, r in [(2, 1), (3, 1), (5, 3)]:
        for a0 in (0.5, 1.0, 2.0):
            system, ft = counterexample(N, r, a0)
            assert system.p == 2 and system.spectral
            assert ft.norm_sq() == pytest.approx((1 + 1 / a0**2) / N, rel=1e-13)
            measured = frame_sum_spectral(system, ft)
            assert measured == pytest.approx(2.0 / N, abs=1e-12)
            assert frame_sum_spectral_entrywise(system, ft) == pytest.approx(
                1.0 / N, abs=1e-12
            )
            # no lower frame bound can hold: a0 * ||f_t||^2 >= frame sum,
            # strictly unless a0 = 1, and the frame sum ignores the
            # second-cell amplitude entirely
            assert a0 * ft.norm_sq() >= measured - 1e-12
            assert a0 + 1 / a0 - 1 > 0
            assert not feasibility(system.p, system.n, N)


def test_counterexample_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        counterexample(2, 1, 0.0)


def test_onb_fixture_is_tight(rng):
    sys1 = onb_fixture()
    assert feasibility(sys1.p, sys1.n, sys1.lattice.N)
    for _ in range(25):
        f = random_seq(sys1.lattice, 1, rng, support=int(rng.integers(1, 9)))
        assert frame_sum(sys1, f) == pytest.approx(f.norm_sq(), rel=1e-12)
    rep = frame_bounds_gamma(sys1, 128)
    assert rep.a_est == pytest.approx(1.0, abs=1e-9)
    assert rep.b_est == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_export_round_trip(name):
    system, companions = build_fixture(name, N=3, r=1, a0=0.5)
    exported = export_to_json(name, system, companions)
    back_system, back_companions = load_any(exported)
    assert back_system.p == system.p and back_system.n == system.n
    assert back_system.lattice == system.lattice
    for a, b in zip(system.envelopes, back_system.envelopes):
        assert (step_equal if system.spectral else seq_equal)(a, b)
    assert set(companions) == set(back_companions)
    for key in companions:
        assert step_equal(companions[key], back_companions[key])


def test_build_fixture_unknown_name():
    with pytest.raises(ValueError):
        build_fixture("nope")

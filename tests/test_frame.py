import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nuframe import (
    DegenerateEnvelope,
    LatticePoint,
    MatrixSeq,
    MixedLattice,
    ShapeMismatch,
    analysis,
    frame_operator_apply,
    frame_sum,
    frame_sum_spectral,
    frame_sum_spectral_entrywise,
    frame_sum_spectral_truncated,
    frame_system,
    inner_time,
    make_lattice,
    matrix_seq,
    seq_equal,
    spectrum_step,
    synthesis,
)
from nuframe.frame import CoefficientTable
from nuframe.fixtures import counterexample, exam1, onb_fixture

from .conftest import random_seq
from .oracles import brute_frame_sum, entries

LAT2 = make_lattice(2, 1)


def test_rejects_degenerate_envelope():
    with pytest.raises(DegenerateEnvelope):
        frame_system(LAT2, 2, [matrix_seq(LAT2, 2, {})])
    with pytest.raises(DegenerateEnvelope):
        frame_system(LAT2, 2, [])


def test_rejects_mixed_forms_and_lattices():
    time_env = exam1().envelopes[0]
    step_env = counterexample(2, 1, 1.0)[0].envelopes[0]
    with pytest.raises(ShapeMismatch):
        frame_system(LAT2, 2, [time_env, step_env])
    other = matrix_seq(make_lattice(3, 1), 2, {LatticePoint(0, 0): np.eye(2)})
    with pytest.raises(MixedLattice):
        frame_system(LAT2, 2, [time_env, other])


def test_frame_sum_zero_signal():
    assert frame_sum(exam1(), matrix_seq(LAT2, 2, {})) == 0.0


def test_frame_sum_onb_is_norm(rng):
    sys1 = onb_fixture()
    for _ in range(20):
        f = random_seq(sys1.lattice, 1, rng, support=int(rng.integers(1, 8)))
        assert frame_sum(sys1, f) == pytest.approx(f.norm_sq(), rel=1e-13)


def test_frame_sum_matches_brute_force(rng):
    sys1 = exam1()
    for _ in range(10):
        f = random_seq(LAT2, 2, rng, support=int(rng.integers(1, 6)), l_range=3)
        assert frame_sum(sys1, f) == pytest.approx(
            brute_frame_sum(sys1, f, l_window=30), rel=1e-12
        )


def test_frame_sum_first_envelope_bessel_inequality():
    sys1 = exam1()
    f1 = sys1.envelopes[0]
    value = frame_sum(sys1, f1)
    assert value == pytest.approx(brute_frame_sum(sys1, f1), rel=1e-13)
    assert value <= 2**11 * f1.norm_sq()


def test_frame_sum_scales_quadratically(rng):
    sys1 = exam1()
    f = random_seq(LAT2, 2, rng)
    scaled = MatrixSeq(LAT2, 2, f.k, 2.5j * f.mats)
    assert frame_sum(sys1, scaled) == pytest.approx(6.25 * frame_sum(sys1, f), rel=1e-12)


# --- analysis / synthesis ---------------------------------------------------


def test_analysis_onb_delta():
    sys1 = onb_fixture()
    f = matrix_seq(sys1.lattice, 1, {LatticePoint(0, 0): [[1.0]]})
    table = analysis(sys1, f, 3)
    assert table.exact
    assert table.coeffs == {(LatticePoint(0, 0), 1): 1.0 + 0j}


def test_analysis_zero_signal():
    table = analysis(exam1(), matrix_seq(LAT2, 2, {}), 2)
    assert table.coeffs == {} and table.exact


def test_analysis_sum_of_squares_matches_frame_sum(rng):
    sys1 = exam1()
    f = random_seq(LAT2, 2, rng, support=4, l_range=3)
    table = analysis(sys1, f, 8)
    assert table.exact
    assert table.norm_sq() == pytest.approx(frame_sum(sys1, f), rel=1e-12)


def test_analysis_flags_short_window(rng):
    sys1 = exam1()
    f = random_seq(LAT2, 2, rng, support=4, l_range=6)
    assert not analysis(sys1, f, 0).exact


def test_synthesis_single_coefficient():
    sys1 = exam1()
    table = CoefficientTable(lattice=LAT2, p=sys1.p)
    table.coeffs[(LatticePoint(0, 0), 1)] = 1.0
    assert seq_equal(synthesis(sys1, table), sys1.envelopes[0])


def test_synthesis_analysis_round_trip_onb(rng):
    sys1 = onb_fixture()
    f = random_seq(sys1.lattice, 1, rng, support=5)
    back = frame_operator_apply(sys1, f, 12)
    assert np.array_equal(back.k, f.k)
    assert np.max(np.abs(back.mats - f.mats)) < 1e-14


def test_synthesis_linearity(rng):
    sys1 = exam1()
    t1 = CoefficientTable(lattice=LAT2, p=sys1.p)
    t2 = CoefficientTable(lattice=LAT2, p=sys1.p)
    for _ in range(6):
        key = (LatticePoint(int(rng.integers(0, 2)), int(rng.integers(-3, 4))), int(rng.integers(1, 9)))
        t1.coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
        key2 = (LatticePoint(int(rng.integers(0, 2)), int(rng.integers(-3, 4))), int(rng.integers(1, 9)))
        t2.coeffs[key2] = complex(rng.standard_normal(), rng.standard_normal())
    a, b = 1.5 - 0.5j, -2j
    combo = CoefficientTable(lattice=LAT2, p=sys1.p)
    for key in set(t1.coeffs) | set(t2.coeffs):
        combo.coeffs[key] = a * t1.coeffs.get(key, 0) + b * t2.coeffs.get(key, 0)
    lhs = synthesis(sys1, combo)
    s1, s2 = synthesis(sys1, t1), synthesis(sys1, t2)
    e, e1, e2 = entries(lhs), entries(s1), entries(s2)
    for p in set(e) | set(e1) | set(e2):
        want = a * e1.get(p, np.zeros((2, 2))) + b * e2.get(p, np.zeros((2, 2)))
        got = e.get(p, np.zeros((2, 2)))
        assert np.max(np.abs(got - want)) < 1e-12


def test_frame_operator_quadratic_form_and_symmetry(rng):
    sys1 = exam1()
    f = random_seq(LAT2, 2, rng, support=3, l_range=2)
    g = random_seq(LAT2, 2, rng, support=3, l_range=2)
    Sf = frame_operator_apply(sys1, f, 10)
    Sg = frame_operator_apply(sys1, g, 10)
    assert inner_time(Sf, f) == pytest.approx(frame_sum(sys1, f), rel=1e-10)
    assert inner_time(Sf, g) == pytest.approx(inner_time(f, Sg), rel=1e-10)


def test_frame_operator_is_identity_for_onb(rng):
    sys1 = onb_fixture()
    f = random_seq(sys1.lattice, 1, rng, support=4)
    assert seq_equal_close(frame_operator_apply(sys1, f, 10), f)


def random_table(sys1, rng, size=6, l_range=3):
    table = CoefficientTable(lattice=sys1.lattice, p=sys1.p)
    while len(table.coeffs) < size:
        key = (
            LatticePoint(int(rng.integers(0, 2)), int(rng.integers(-l_range, l_range + 1))),
            int(rng.integers(1, sys1.p + 1)),
        )
        table.coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    return table


def test_analysis_is_adjoint_of_synthesis(rng):
    # <analysis(f), c> over coefficient space equals <f, synthesis(c)>
    sys1 = exam1()
    for _ in range(8):
        f = random_seq(LAT2, 2, rng, support=4, l_range=3)
        c = random_table(sys1, rng)
        window = max(abs(q.l) for q, _ in c.coeffs) + 1
        table = analysis(sys1, f, max(window, 8))
        lhs = sum(
            table.coeffs.get(key, 0j) * value.conjugate() for key, value in c.coeffs.items()
        )
        rhs = inner_time(f, synthesis(sys1, c))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_synthesis_norm_respects_bessel_bound(rng):
    # ||synthesis(c)||^2 <= bessel bound * sum |c|^2 once the system passed
    # a Bessel check (here the sufficient bound 2048 for the 8-envelope fixture)
    sys1 = exam1()
    for _ in range(8):
        c = random_table(sys1, rng, size=int(rng.integers(1, 10)))
        out = synthesis(sys1, c)
        assert out.norm_sq() <= 2048.0 * c.norm_sq() * (1 + 1e-12)


def seq_equal_close(a, b, tol=1e-13):
    if not np.array_equal(a.k, b.k):
        return False
    return all(np.max(np.abs(ma - mb)) < tol for ma, mb in zip(a.mats, b.mats))


# --- spectral route ----------------------------------------------------------


def test_frame_sum_spectral_witness_value():
    # exact coset evaluation; the value is 2/N and does not depend on the
    # second-cell amplitude
    for N, r in [(2, 1), (3, 1), (5, 3)]:
        for a0 in (0.5, 1.0, 2.0):
            system, ft = counterexample(N, r, a0)
            assert frame_sum_spectral(system, ft) == pytest.approx(2.0 / N, abs=1e-12)
            assert frame_sum_spectral_entrywise(system, ft) == pytest.approx(
                1.0 / N, abs=1e-12
            )


def test_frame_sum_spectral_disjoint_support():
    system, ft = counterexample(2, 1, 1.0)
    vals = np.zeros((8, 2, 2), dtype=complex)
    vals[3] = np.ones((2, 2))  # off the envelopes' first cell
    far = spectrum_step(system.lattice, 2, 1, vals)
    assert frame_sum_spectral(system, far) == 0.0


def test_frame_sum_spectral_matches_truncated_sum():
    for N, r, a0 in [(2, 1, 1.0), (3, 1, 2.0)]:
        system, ft = counterexample(N, r, a0)
        exact = frame_sum_spectral(system, ft)
        partial, tail = frame_sum_spectral_truncated(system, ft, 200)
        assert partial <= exact + 1e-12
        assert exact - partial <= tail


def test_frame_sum_spectral_invariant_under_rebinning():
    from nuframe.signal import rebin

    system, ft = counterexample(2, 1, 0.5)
    base = frame_sum_spectral(system, ft)
    fine = rebin(ft, 3)
    assert frame_sum_spectral(system, fine) == pytest.approx(base, rel=1e-13)
    assert frame_sum_spectral_entrywise(system, fine) == pytest.approx(
        frame_sum_spectral_entrywise(system, ft), rel=1e-13
    )


def test_frame_sum_spectral_on_generic_step(rng):
    # a witness with different values in every entry and cell, cross-checked
    # against the truncated direct sum
    system, _ = counterexample(2, 1, 1.0)
    values = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    F = spectrum_step(system.lattice, 2, 1, values)
    exact = frame_sum_spectral(system, F)
    partial, tail = frame_sum_spectral_truncated(system, F, 250)
    assert 0 <= exact - partial <= tail


def test_frame_sum_spectral_requires_spectral_system():
    _, ft = counterexample(2, 1, 1.0)
    with pytest.raises(ShapeMismatch):
        frame_sum_spectral(exam1(), ft)
    system, _ = counterexample(2, 1, 1.0)
    with pytest.raises(ShapeMismatch):
        frame_sum(system, matrix_seq(LAT2, 2, {LatticePoint(0, 0): np.eye(2)}))


# --- generic systems against the brute oracle --------------------------------

small = st.integers(-3, 3)


@st.composite
def system_and_signal(draw):
    N, r = draw(st.sampled_from([(1, 1), (2, 1), (3, 5), (5, 3)]))
    lat = make_lattice(N, r)
    n = draw(st.integers(1, 2))

    def seq(min_pts):
        count = draw(st.integers(min_pts, 4))
        points = draw(
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(-3, 3)),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        entries = {}
        for s, l in points:
            data = draw(st.lists(st.tuples(small, small), min_size=n * n, max_size=n * n))
            entries[LatticePoint(s, l)] = np.array(
                [complex(a, b) for a, b in data]
            ).reshape(n, n)
        return matrix_seq(lat, n, entries)

    p = draw(st.integers(1, 2))
    envelopes = []
    while len(envelopes) < p:
        e = seq(1)
        if len(e.k):
            envelopes.append(e)
    return frame_system(lat, n, envelopes), seq(0)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.large_base_example],
)
@given(system_and_signal())
def test_frame_sum_matches_oracle_on_random_systems(pair):
    sys1, f = pair
    got = frame_sum(sys1, f)
    want = brute_frame_sum(sys1, f, l_window=25)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

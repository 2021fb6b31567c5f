"""Catalog of reference systems used by the CLI, the tests, and the audits.

``exam1`` is an eight-envelope system of two-point signals on the
``N=2, r=1`` lattice whose spectra all have constant Frobenius norm 2.
``exam1_perturbed`` is its published companion perturbation.  The printed
table for the third perturbed envelope is internally inconsistent with the
advertised smallness of the perturbation (one entry has the wrong sign and
is nowhere near cancelling); the fixture reproduces the table as printed,
and ``g3_sign_fixed=True`` flips that single sign to the evidently
intended value.  The audit tooling reports both readings.

``counterexample`` is the two-envelope step-spectrum system showing that a
uniform spectrum bound cannot force a lower frame bound, together with its
witness spectrum.  ``onb_fixture`` is a hand-checked tight frame (the
shifts enumerate the canonical orthonormal basis of square-summable
integer sequences) used to calibrate every estimator against known bounds
``a = b = 1``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .frame import FrameSystem, frame_system
from .lattice import LatticePoint, make_lattice
from .signal import SpectrumStep, matrix_seq, spectrum_step

_ID = np.eye(2, dtype=np.complex128)
_SWAP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGN = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_ROT = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def _two_point(lat, s, first, second):
    # support {s*r/N, s*r/N + 4}: l = 0 and l = 2
    return matrix_seq(lat, 2, {LatticePoint(s, 0): first, LatticePoint(s, 2): second})


def exam1() -> FrameSystem:
    """Eight two-point envelopes over the N=2, r=1 lattice (n=2, p=8)."""
    lat = make_lattice(2, 1)
    pairs = [
        (_ID, _SWAP),
        (_SIGN, _ROT),
        (-_ROT, _SWAP),
        (_SWAP, _SIGN),
    ]
    envelopes = [_two_point(lat, 0, a, b) for a, b in pairs]
    envelopes += [_two_point(lat, 1, a, b) for a, b in pairs]
    return frame_system(lat, 2, envelopes)


def exam1_perturbed(g3_sign_fixed: bool = False) -> FrameSystem:
    """Published perturbation companions of :func:`exam1`, as printed.

    With ``g3_sign_fixed`` the (2,1) entry of the third envelope's first
    matrix is negated, which is what the published smallness claim
    requires.
    """
    lat = make_lattice(2, 1)
    c = 24.0 / 25.0
    g3_first = np.array([[0, -c * 1j], [c * 1j if g3_sign_fixed else -c * 1j, 0]])
    firsts = [
        -c * _ID,
        np.array([[-c, 0], [0, c]]),
        g3_first,
        -c * _SWAP,
    ]
    seconds = [-_SWAP, np.array([[0, 1j], [-1j, 0]]), -_SWAP, np.array([[-1, 0], [0, 1]])]
    envelopes = [_two_point(lat, 0, a, b) for a, b in zip(firsts, seconds)]
    full_firsts = [-_ID, np.array([[-1, 0], [0, 1]]), np.array([[0, -1j], [1j, 0]]), -_SWAP]
    envelopes += [_two_point(lat, 1, a, b) for a, b in zip(full_firsts, seconds)]
    return frame_system(lat, 2, envelopes)


def counterexample(N: int, r: int, a0: float) -> tuple[FrameSystem, SpectrumStep]:
    """Step-spectrum system whose Bessel bound cannot be matched by any
    lower frame bound, plus the witness spectrum.

    The two envelopes occupy the first frequency cell with amplitude
    ``sqrt(2N)`` in diagonal and antidiagonal patterns.  The witness has
    every entry equal to 1 on the first cell and ``1/a0`` on the second;
    its frame sum is independent of the second-cell amplitude while its
    norm grows with it, which is the whole point.
    """
    if not a0 > 0:
        raise InvalidParameter(f"a0 must be positive, got {a0}")
    lat = make_lattice(N, r)
    cells = 4 * N
    amp = np.sqrt(2.0 * N)
    e1 = np.zeros((cells, 2, 2), dtype=np.complex128)
    e2 = np.zeros((cells, 2, 2), dtype=np.complex128)
    e1[0] = amp * _ID
    e2[0] = amp * _SWAP
    system = frame_system(
        lat, 2, [spectrum_step(lat, 2, 1, e1), spectrum_step(lat, 2, 1, e2)]
    )
    ft = np.zeros((cells, 2, 2), dtype=np.complex128)
    ft[0] = np.ones((2, 2))
    ft[1] = np.ones((2, 2)) / a0
    return system, spectrum_step(lat, 2, 1, ft)


def onb_fixture() -> FrameSystem:
    """Calibration frame: N=1, n=1, p=2 with unit impulses at 0 and 1.

    The shifted family enumerates the canonical orthonormal basis, so the
    frame sum of any signal equals its squared norm and both frame bounds
    are exactly 1.
    """
    lat = make_lattice(1, 1)
    one = np.array([[1.0]])
    f1 = matrix_seq(lat, 1, {LatticePoint(0, 0): one})
    f2 = matrix_seq(lat, 1, {LatticePoint(1, 0): one})
    return frame_system(lat, 1, [f1, f2])


FIXTURE_NAMES = ("exam1", "exam1-perturbed", "counterexample", "onb")


def build_fixture(name: str, N: int = 2, r: int = 1, a0: float = 1.0):
    """Fixture by CLI name; returns ``(system, companions_dict)``."""
    if name == "exam1":
        return exam1(), {}
    if name == "exam1-perturbed":
        return exam1_perturbed(), {}
    if name == "counterexample":
        system, ft = counterexample(N, r, a0)
        return system, {"f_t": ft}
    if name == "onb":
        return onb_fixture(), {}
    raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")

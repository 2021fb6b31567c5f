"""Frequency-side sampling machinery behind the ``gamma`` CLI subcommand.

For a base frequency ``x`` in ``[0, 1/(4N))`` the frequency domain is swept
by ``4N`` sample offsets: ``x + g/(4N)`` over the low branch and
``x + N/2 + g/(4N)`` over the high branch, ``g = 0..2N-1``.  Sampling one
matrix entry of every envelope spectrum at those offsets, together with a
phase-modulated copy of each sample vector, yields a ``4N x 2p`` matrix per
entry ``(m, k)``.  Stacking the conjugate transposes of those matrices over
all entries gives a ``2p x 4N n^2`` operator ``T(x)`` whose extremal
singular values encode frame bounds: the frame sum of any signal equals
``(1/4N) int ||T(x) G(x)||^2 dx`` with ``G(x)`` the stacked sample vector
of the signal's spectrum.  ``sampling_identity_residual`` verifies that
identity numerically; the sweep in :mod:`nuframe.bounds` turns it into
bound estimates.

Envelope and matrix-entry indices are 1-based throughout this module,
matching the row/column convention used in printed matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import FrequencyOutOfRange, InvalidParameter, ShapeMismatch
from .frame import FrameSystem, frame_sum, require_time_domain
from .lattice import SpectralLattice
from .signal import MatrixSeq, spectrum_grid

# Byte cap on the stacked operators built at once for a batch of base frequencies.
OPERATOR_BYTES = 4 << 20


def _check_x(lattice: SpectralLattice, x) -> None:
    xs = np.asarray(x, dtype=float)
    inside = (xs >= 0.0) & (xs < 1.0 / (4 * lattice.N))
    if not inside.all():
        raise FrequencyOutOfRange(
            f"x = {float(xs[~inside].flat[0])} outside the sampling interval "
            f"[0, {1.0 / (4 * lattice.N)})"
        )


def _check_mk(n: int, m: int, k: int) -> None:
    if not (1 <= m <= n and 1 <= k <= n):
        raise ShapeMismatch(f"entry indices ({m}, {k}) outside 1..{n}")


def sample_offsets(lattice: SpectralLattice, x) -> np.ndarray:
    """The 4N sample frequencies for base frequency ``x``, low branch first.

    An array ``x`` gives shape ``x.shape + (4N,)``.
    """
    N = lattice.N
    g = np.arange(2 * N)
    x = np.asarray(x, dtype=float)[..., None]
    low = x + g / (4 * N)
    high = x + N / 2 + g / (4 * N)
    return np.concatenate([low, high], axis=-1)


def phase_vector(lattice: SpectralLattice, x) -> np.ndarray:
    """Unimodular modulation vector of length 4N (per base frequency in ``x``).

    The low-branch block holds ``exp(4 pi i r (x + g/(4N)))``; the
    high-branch block repeats it verbatim.  (Evaluating the same formula at
    the high-branch offsets would give the identical values because ``rN``
    is an integer, but the duplicated block is the documented convention.)
    """
    N, r = lattice.N, lattice.r
    g = np.arange(2 * N)
    block = np.exp(4j * np.pi * r * (np.asarray(x, dtype=float)[..., None] + g / (4 * N)))
    return np.concatenate([block, block], axis=-1)


def sample_vector(signal, m: int, k: int, x: float) -> np.ndarray:
    """Entry ``(m, k)`` of the signal's spectrum at the 4N sample offsets."""
    _check_x(signal.lattice, x)
    _check_mk(signal.n, m, k)
    return spectrum_grid(signal, sample_offsets(signal.lattice, x))[..., m - 1, k - 1]


def _sampled_spectra(sys: FrameSystem, x) -> np.ndarray:
    """All envelope spectra at the sample offsets; shape ``x.shape + (p, 4N, n, n)``."""
    offsets = sample_offsets(sys.lattice, x)
    return np.stack([spectrum_grid(env, offsets) for env in sys.envelopes], axis=-4)


def _entry_major(samples: np.ndarray) -> np.ndarray:
    """Flatten ``(..., 4N, n, n)`` samples to ``(..., 4N*n^2)``: entries ``(m, k)``
    in lexicographic order, each holding its 4N offsets."""
    return np.moveaxis(samples, -3, -1).reshape(samples.shape[:-3] + (-1,))


def envelope_sample_vector(
    sys: FrameSystem, j: int, m: int, k: int, x: float
) -> np.ndarray:
    """Sample vector of envelope ``j`` (1-based)."""
    if not 1 <= j <= sys.p:
        raise ShapeMismatch(f"envelope index {j} outside 1..{sys.p}")
    return sample_vector(sys.envelopes[j - 1], m, k, x)


def sample_matrix(sys: FrameSystem, m: int, k: int, x: float) -> np.ndarray:
    """The ``4N x 2p`` matrix for entry ``(m, k)`` at base frequency ``x``.

    Odd columns are envelope sample vectors; each is followed by its
    Hadamard product with the phase vector.  This is the conjugate
    transpose of the ``(m, k)`` column block of :func:`stacked_operator`.
    """
    T = stacked_operator(sys, x)
    _check_mk(sys.n, m, k)
    rows = 4 * sys.lattice.N
    b = (m - 1) * sys.n + (k - 1)
    return T[:, b * rows : (b + 1) * rows].conj().T


def sample_gram(
    sys: FrameSystem, m: int, k: int, m2: int, k2: int, x: float
) -> np.ndarray:
    """Product ``A B^*`` of the (m,k) and (m2,k2) sample matrices, as computed.

    This is a reporting tool: it returns the measured 4N x 4N product and
    asserts nothing about its structure.
    """
    a = sample_matrix(sys, m, k, x)
    b = sample_matrix(sys, m2, k2, x)
    return a @ b.conj().T


def stacked_operator(sys: FrameSystem, x) -> np.ndarray:
    """The ``2p x 4N*n^2`` operator ``T(x)``; shape ``x.shape + (2p, 4N*n^2)``.

    Column blocks are the conjugate transposes of the per-entry sample
    matrices, ordered by ``(m, k)`` lexicographically with ``m`` outer.
    Row ``2j`` holds envelope ``j``'s conjugated samples, row ``2j+1`` the
    conjugated phase-modulated samples.
    """
    _check_x(sys.lattice, x)
    x = np.asarray(x, dtype=float)
    samples = _entry_major(_sampled_spectra(sys, x))  # (..., p, 4N n^2)
    phases = np.tile(phase_vector(sys.lattice, x), sys.n**2)[..., None, :]
    rows = np.stack([samples, phases * samples], axis=-2)  # (..., p, 2, 4N n^2)
    return rows.reshape(x.shape + (2 * sys.p, -1)).conj()


def signal_sample_stack(f, x) -> np.ndarray:
    """Stacked sample vectors of a signal's spectrum, ``(m, k)`` lex order;
    shape ``x.shape + (4N*n^2,)``."""
    _check_x(f.lattice, x)
    return _entry_major(spectrum_grid(f, sample_offsets(f.lattice, x)))


def operator_chunks(sys: FrameSystem, xs: np.ndarray):
    """Consecutive slices of the 1-D ``xs`` whose stacked operators together
    stay within :data:`OPERATOR_BYTES`."""
    per_point = 16 * 2 * sys.p * 4 * sys.lattice.N * sys.n**2
    step = max(1, OPERATOR_BYTES // per_point)
    for i in range(0, len(xs), step):
        yield xs[i : i + step]


def spectral_overlap(sys: FrameSystem, f, j: int, x: float) -> complex:
    """Two-branch overlap of the signal spectrum with envelope ``j``:

    ``sum_{m,k} F(f)_{m,k}(y) conj(F(env_j)_{m,k}(y))`` summed over the
    points ``y = x`` and ``y = x + N/2``.  Diagnostic building block of the
    sampling identity.
    """
    if not 1 <= j <= sys.p:
        raise ShapeMismatch(f"envelope index {j} outside 1..{sys.p}")
    if not 0.0 <= x < 0.5:
        raise FrequencyOutOfRange(f"x = {x} outside [0, 1/2)")
    env = sys.envelopes[j - 1]
    N = sys.lattice.N
    ys = np.array([x, x + N / 2.0])
    return complex(np.sum(spectrum_grid(f, ys) * np.conj(spectrum_grid(env, ys))))


def gauss_legendre_nodes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[a, b]``."""
    t, w = np.polynomial.legendre.leggauss(m)
    half = (b - a) / 2.0
    return a + half * (t + 1.0), w * half


def sampling_identity_residual(sys: FrameSystem, f: MatrixSeq, nodes: int = 128) -> float:
    """Relative residual of the sampling identity.

    Compares ``4N * frame_sum(sys, f)`` against the Gauss-Legendre value of
    ``int_0^{1/4N} ||T(x) G(x)||^2 dx`` with ``nodes`` quadrature points,
    normalized by ``max(1, 4N * frame_sum)``.
    """
    require_time_domain(sys)
    if nodes < 1:
        raise InvalidParameter(f"nodes must be >= 1, got {nodes}")
    lhs = 4 * sys.lattice.N * frame_sum(sys, f)
    xs, ws = gauss_legendre_nodes(nodes, 0.0, 1.0 / (4 * sys.lattice.N))
    energy = []
    for chunk in operator_chunks(sys, xs):
        v = np.einsum("gij,gj->gi", stacked_operator(sys, chunk), signal_sample_stack(f, chunk))
        energy.append(np.sum(v.real**2 + v.imag**2, axis=-1))
    integral = float(np.dot(ws, np.concatenate(energy)))
    return abs(lhs - integral) / max(1.0, lhs)

"""Matrix-valued signals on the lattice and their frequency-domain forms.

Two representations coexist:

* :class:`MatrixSeq` -- a finitely supported map from lattice points to
  ``n x n`` complex matrices (time domain).  Its transform at a frequency
  ``x`` is the entrywise exponential sum over the support, a trigonometric
  polynomial evaluated exactly.
* :class:`SpectrumStep` -- a piecewise-constant ``n x n``-matrix-valued
  function on the frequency-domain cells (frequency domain).  Inner
  products against modulated spectra reduce to cell-wise antiderivatives
  of complex exponentials, so nothing here is quadrature.

All shipped inner products are closed-form.  Quadrature only appears in
cross-checks and in the sampling-identity diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    FrequencyOutOfRange,
    InvalidParameter,
    RefinementMismatch,
    RejectedParameters,
    ShapeMismatch,
)
from .lattice import (
    LatticePoint,
    SpectralLattice,
    cell_index,
    coordinate,
    omega_cells,
    require_point,
    require_same_lattice,
)

# Modulation frequencies below this are treated as the constant integrand
# (removable singularity of the exponential antiderivative).
_FREQ_FLOOR = 1e-12

# Rebinned step grids above this cell count are refused rather than built.
_MAX_CELLS = 1_000_000

# Lattice coordinates beyond this are refused: lags and shifts of coordinates
# must not overflow int64, and k/N must stay exact as a float.
_MAX_COORDINATE = 2**52


@dataclass(frozen=True, eq=False)
class MatrixSeq:
    """Finitely supported lattice-indexed family of ``n x n`` complex matrices.

    ``k`` holds the integer coordinates ``s*r + 2N*l`` of the support in
    increasing order and ``mats`` the matching ``(len(k), n, n)`` matrices.
    Construction sorts by ``k``, drops all-zero matrices and makes both
    arrays read-only; ``k`` must not repeat.
    """

    lattice: SpectralLattice
    n: int
    k: np.ndarray
    mats: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.int64).reshape(-1)
        if k.size and np.max(np.abs(k)) > _MAX_COORDINATE:
            raise RejectedParameters(f"a support point has |s*r + 2N*l| > 2^52 on {self.lattice}")
        mats = np.asarray(self.mats, dtype=np.complex128).reshape(len(k), self.n, self.n)
        order = np.argsort(k, kind="stable")
        order = order[mats[order].any(axis=(1, 2))]
        k, mats = k[order], mats[order]  # fancy indexing copies
        k.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mats", mats)

    def norm_sq(self) -> float:
        return float(np.sum(self.mats.real**2 + self.mats.imag**2))


@dataclass(frozen=True, eq=False)
class SpectrumStep:
    """Piecewise-constant spectrum on ``omega_cells(lattice, refinement)``.

    ``values`` has shape ``(4*N*K, n, n)`` in cell order and is read-only.
    """

    lattice: SpectralLattice
    n: int
    refinement: int
    values: np.ndarray

    def norm_sq(self) -> float:
        width = 1.0 / (4 * self.lattice.N * self.refinement)
        return float(width * np.sum(self.values.real**2 + self.values.imag**2))


def matrix_seq(
    lattice: SpectralLattice, n: int, entries: Mapping[LatticePoint, object]
) -> MatrixSeq:
    """Build a validated MatrixSeq from ``{LatticePoint: matrix}``, pruning
    exact-zero matrices."""
    if n < 1:
        raise ShapeMismatch(f"matrix dimension must be >= 1, got {n}")
    k, mats = [], []
    for p, m in entries.items():
        require_point(p)
        arr = np.array(m, dtype=np.complex128)
        if arr.shape != (n, n):
            raise ShapeMismatch(f"expected a {n}x{n} matrix, got shape {arr.shape}")
        k.append(coordinate(lattice, p.s, p.l))
        mats.append(arr)
    return MatrixSeq(lattice, n, k, np.reshape(mats, (len(k), n, n)))


def spectrum_step(
    lattice: SpectralLattice, n: int, refinement: int, values
) -> SpectrumStep:
    if n < 1:
        raise ShapeMismatch(f"matrix dimension must be >= 1, got {n}")
    if refinement < 1:
        raise InvalidParameter(f"refinement must be >= 1, got {refinement}")
    arr = np.array(values, dtype=np.complex128)
    cells = 4 * lattice.N * refinement
    if arr.shape != (cells, n, n):
        raise ShapeMismatch(
            f"expected values of shape ({cells}, {n}, {n}), got {arr.shape}"
        )
    arr.setflags(write=False)
    return SpectrumStep(lattice=lattice, n=n, refinement=refinement, values=arr)


def seq_equal(a: MatrixSeq, b: MatrixSeq) -> bool:
    """Field-by-field exact equality (used by serialization round-trip checks)."""
    return (
        a.lattice == b.lattice
        and a.n == b.n
        and np.array_equal(a.k, b.k)
        and np.array_equal(a.mats, b.mats)
    )


def step_equal(a: SpectrumStep, b: SpectrumStep) -> bool:
    return (
        a.lattice == b.lattice
        and a.n == b.n
        and a.refinement == b.refinement
        and np.array_equal(a.values, b.values)
    )


# ---------------------------------------------------------------------------
# time-domain operations


def displace(f: MatrixSeq, q: LatticePoint) -> MatrixSeq:
    """Shift the argument of ``f`` by ``2N*lambda(q)``; support size is preserved."""
    require_point(q)
    shift = 2 * f.lattice.N * coordinate(f.lattice, q.s, q.l)
    return MatrixSeq(f.lattice, f.n, f.k + shift, f.mats)


def frobenius_norm(m):
    """Frobenius norm of a matrix (a float), or of each matrix in a stack
    over the last two axes (an array)."""
    m = np.asarray(m)
    norms = np.sqrt(np.sum(m.real**2 + m.imag**2, axis=(-2, -1)))
    return float(norms) if norms.ndim == 0 else norms


def inner_time(f: MatrixSeq, g: MatrixSeq) -> complex:
    """Inner product ``sum_p tr(f(p) g(p)^*)`` over the support intersection."""
    require_same_lattice(f.lattice, g.lattice)
    if f.n != g.n:
        raise ShapeMismatch(f"matrix dimensions differ: {f.n} vs {g.n}")
    _, i, j = np.intersect1d(f.k, g.k, assume_unique=True, return_indices=True)
    return complex(np.sum(f.mats[i] * np.conj(g.mats[j])))


# ---------------------------------------------------------------------------
# frequency-domain (step) operations


def spectrum_grid(obj, xs) -> np.ndarray:
    """Spectrum of a MatrixSeq or SpectrumStep at every frequency in ``xs``.

    Returns shape ``xs.shape + (n, n)``; a scalar ``xs`` gives one matrix.
    For a MatrixSeq this is the exact entrywise exponential sum over the
    support, entire in ``x`` (callers restrict to the frequency domain
    themselves); for a SpectrumStep it is the value of the cell holding
    each frequency.  NaN or infinite frequencies raise
    :class:`FrequencyOutOfRange`.  Results are deterministic for a fixed
    NumPy build.
    """
    xs = np.asarray(xs, dtype=float)
    finite = np.isfinite(xs)
    if not finite.all():
        raise FrequencyOutOfRange(f"x = {float(xs[~finite].flat[0])} is not finite")
    if isinstance(obj, MatrixSeq):
        lams = obj.k / obj.lattice.N
        return np.tensordot(np.exp(2j * np.pi * np.multiply.outer(xs, lams)), obj.mats, axes=1)
    if isinstance(obj, SpectrumStep):
        return obj.values[cell_index(obj.lattice, obj.refinement, xs)]
    raise TypeError(f"expected MatrixSeq or SpectrumStep, got {type(obj).__name__}")


def rebin(S: SpectrumStep, refinement: int) -> SpectrumStep:
    """Exact subdivision of the step onto a finer cell grid."""
    if refinement == S.refinement:
        return S
    if refinement % S.refinement != 0:
        raise RefinementMismatch(
            f"cannot rebin refinement {S.refinement} onto {refinement}"
        )
    if 4 * S.lattice.N * refinement > _MAX_CELLS:
        raise RefinementMismatch(f"common grid would exceed {_MAX_CELLS} cells")
    ratio = refinement // S.refinement
    return spectrum_step(
        S.lattice, S.n, refinement, np.repeat(S.values, ratio, axis=0)
    )


def common_refinement(steps: Iterable[SpectrumStep]) -> int:
    k = 1
    for s in steps:
        k = k * s.refinement // math.gcd(k, s.refinement)
    return k


def step_inner(S: SpectrumStep, T: SpectrumStep, q: LatticePoint) -> complex:
    """Inner product ``<S, e^{4 pi i N lambda(q) x} T>`` for two steps.

    Each cell contributes its overlap times the exact integral of the
    modulation over the cell; cells with zero overlap are skipped.
    """
    require_same_lattice(S.lattice, T.lattice)
    if S.n != T.n:
        raise ShapeMismatch(f"matrix dimensions differ: {S.n} vs {T.n}")
    require_point(q)
    K = common_refinement((S, T))
    S, T = rebin(S, K), rebin(T, K)
    overlap = np.sum(S.values * np.conj(T.values), axis=(1, 2))
    cells = np.flatnonzero(overlap)
    left = omega_cells(S.lattice, K)[cells]
    a, b = left / (4 * S.lattice.N * K), (left + 1) / (4 * S.lattice.N * K)
    # 2N*lambda(q) = 2 k(q), an integer
    nu = -2 * coordinate(S.lattice, q.s, q.l)
    if abs(nu) < _FREQ_FLOOR:
        phase = b - a
    else:
        w = 2j * math.pi * nu
        phase = (np.exp(w * b) - np.exp(w * a)) / w
    return complex(np.sum(overlap[cells] * phase))

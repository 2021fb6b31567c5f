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

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import FrequencyOutOfRange, RefinementMismatch, RejectedParameters, ShapeMismatch
from .lattice import (
    LatticePoint,
    SpectralLattice,
    cell_index,
    lambda_value,
    omega_cells,
    point_sort_key,
    require_point,
    require_same_lattice,
    shift_point,
)

# Modulation frequencies below this are treated as the constant integrand
# (removable singularity of the exponential antiderivative).
_FREQ_FLOOR = 1e-12

# Rebinned step grids above this cell count are refused rather than built.
_MAX_CELLS = 1_000_000


@dataclass(frozen=True, eq=False)
class MatrixSeq:
    """Finitely supported lattice-indexed family of ``n x n`` complex matrices.

    ``entries`` never stores an all-zero matrix; the arrays are read-only.
    """

    lattice: SpectralLattice
    n: int
    entries: Mapping[LatticePoint, np.ndarray]

    def support(self) -> list[LatticePoint]:
        return sorted(self.entries, key=point_sort_key)

    def norm_sq(self) -> float:
        total = 0.0
        for p in self.support():
            m = self.entries[p]
            total += float(np.sum(m.real**2 + m.imag**2))
        return total


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


def _as_locked_matrix(m, n: int) -> np.ndarray:
    arr = np.array(m, dtype=np.complex128)
    if arr.shape != (n, n):
        raise ShapeMismatch(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def matrix_seq(
    lattice: SpectralLattice, n: int, entries: Mapping[LatticePoint, object]
) -> MatrixSeq:
    """Build a validated MatrixSeq, pruning exact-zero matrices."""
    if n < 1:
        raise ShapeMismatch(f"matrix dimension must be >= 1, got {n}")
    clean: dict[LatticePoint, np.ndarray] = {}
    for p, m in entries.items():
        require_point(p)
        arr = _as_locked_matrix(m, n)
        if np.any(arr != 0):
            clean[p] = arr
    return MatrixSeq(lattice=lattice, n=n, entries=clean)


def spectrum_step(
    lattice: SpectralLattice, n: int, refinement: int, values
) -> SpectrumStep:
    if n < 1:
        raise ShapeMismatch(f"matrix dimension must be >= 1, got {n}")
    if refinement < 1:
        raise RejectedParameters(f"refinement must be >= 1, got {refinement}")
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
    if a.lattice != b.lattice or a.n != b.n or set(a.entries) != set(b.entries):
        return False
    return all(np.array_equal(a.entries[p], b.entries[p]) for p in a.entries)


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
    moved = {shift_point(p, q, f.lattice): m for p, m in f.entries.items()}
    return MatrixSeq(lattice=f.lattice, n=f.n, entries=moved)


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
    total = 0j
    for p in f.support():
        gm = g.entries.get(p)
        if gm is not None:
            total += complex(np.sum(f.entries[p] * np.conj(gm)))
    return total


# ---------------------------------------------------------------------------
# frequency-domain (step) operations


def _phase_integral(nu: float, a: float, b: float) -> complex:
    """Closed form of ``int_a^b exp(2 pi i nu x) dx`` with the nu -> 0 fallback."""
    if abs(nu) < _FREQ_FLOOR:
        return complex(b - a)
    w = 2j * math.pi * nu
    return (cmath.exp(w * b) - cmath.exp(w * a)) / w


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
        support = obj.support()
        lams = np.array([float(lambda_value(p, obj.lattice)) for p in support])
        mats = np.array([obj.entries[p] for p in support]).reshape(len(support), obj.n, obj.n)
        return np.tensordot(np.exp(2j * np.pi * np.multiply.outer(xs, lams)), mats, axes=1)
    if isinstance(obj, SpectrumStep):
        return obj.values[cell_index(obj.lattice, obj.refinement, xs)]
    raise TypeError(f"expected MatrixSeq or SpectrumStep, got {type(obj).__name__}")


def modulation_frequency(q: LatticePoint, lattice: SpectralLattice) -> int:
    """Integer value of ``2N*lambda(q)``."""
    require_point(q)
    return 2 * lattice.r * q.s + 4 * lattice.N * q.l


def inner_step_trig(S: SpectrumStep, f: MatrixSeq, q: LatticePoint) -> complex:
    """Inner product of ``S`` against the modulated transform of ``f``.

    Computes ``<S, e^{4 pi i N lambda(q) x} F(f)>`` over the frequency
    domain.  Each term is an exact exponential antiderivative over one
    cell; no quadrature is involved.
    """
    require_same_lattice(S.lattice, f.lattice)
    if S.n != f.n:
        raise ShapeMismatch(f"matrix dimensions differ: {S.n} vs {f.n}")
    base = modulation_frequency(q, S.lattice)
    cells = omega_cells(S.lattice, S.refinement)
    support = f.support()
    lams = [float(lambda_value(p, f.lattice)) for p in support]
    total = 0j
    for cell, value in zip(cells, S.values):
        if not value.any():
            continue
        a, b = float(cell.left), float(cell.right)
        for p, lam in zip(support, lams):
            overlap = complex(np.sum(value * np.conj(f.entries[p])))
            if overlap != 0:
                total += overlap * _phase_integral(-(base + lam), a, b)
    return total


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
    """Inner product ``<S, e^{4 pi i N lambda(q) x} T>`` for two steps."""
    require_same_lattice(S.lattice, T.lattice)
    if S.n != T.n:
        raise ShapeMismatch(f"matrix dimensions differ: {S.n} vs {T.n}")
    k = common_refinement((S, T))
    S, T = rebin(S, k), rebin(T, k)
    base = modulation_frequency(q, S.lattice)
    total = 0j
    for cell, sv, tv in zip(omega_cells(S.lattice, k), S.values, T.values):
        overlap = complex(np.sum(sv * np.conj(tv)))
        if overlap != 0:
            total += overlap * _phase_integral(-base, float(cell.left), float(cell.right))
    return total

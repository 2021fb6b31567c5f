"""Non-uniform translation lattice and its paired two-branch frequency domain.

The translation set is the union of two arithmetic progressions
``{0, r/N} + 2Z`` with ``r`` odd, coprime to ``N`` and ``1 <= r <= 2N-1``.
A point is addressed by a coset bit ``s`` and an integer index ``l``; its
real value is ``s*r/N + 2*l``.  The paired frequency domain is
``[0, 1/2) u [N/2, (N+1)/2)``, tiled into half-open cells of width
``1/(4*N*K)`` for step spectra and cell-wise integration.

Point values are kept as exact ``Fraction`` objects (denominator ``N``) so
support-set arithmetic never sees float drift; conversion to float happens
at evaluation sites only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FrequencyOutOfRange, MixedLattice, RejectedParameters


@dataclass(frozen=True)
class SpectralLattice:
    N: int
    r: int


@dataclass(frozen=True)
class LatticePoint:
    s: int
    l: int


@dataclass(frozen=True)
class OmegaCell:
    left: Fraction
    width: Fraction
    branch: str  # "low" or "high"

    @property
    def right(self) -> Fraction:
        return self.left + self.width


def make_lattice(N: int, r: int) -> SpectralLattice:
    """Validate ``(N, r)`` and return the lattice, or raise RejectedParameters."""
    if not isinstance(N, int) or isinstance(N, bool):
        raise RejectedParameters(f"N must be an integer, got {N!r}")
    if not isinstance(r, int) or isinstance(r, bool):
        raise RejectedParameters(f"r must be an integer, got {r!r}")
    if N < 1:
        raise RejectedParameters(f"N must be positive, got {N}")
    if r < 1 or r > 2 * N - 1:
        raise RejectedParameters(f"r must satisfy 1 <= r <= 2N-1 = {2 * N - 1}, got {r}")
    if r % 2 == 0:
        raise RejectedParameters(f"r must be odd, got {r}")
    if math.gcd(r, N) != 1:
        raise RejectedParameters(f"r and N must be coprime, got gcd({r}, {N}) = {math.gcd(r, N)}")
    return SpectralLattice(N=N, r=r)


def require_point(p: LatticePoint) -> None:
    if p.s not in (0, 1):
        raise RejectedParameters(f"coset bit must be 0 or 1, got {p.s}")


def lambda_value(p: LatticePoint, lattice: SpectralLattice) -> Fraction:
    """Exact real value ``s*r/N + 2*l`` of a lattice point."""
    require_point(p)
    return Fraction(p.s * lattice.r, lattice.N) + 2 * p.l


def point_for_value(value: Fraction, lattice: SpectralLattice) -> LatticePoint | None:
    """Inverse of :func:`lambda_value`; None when ``value`` is not on the lattice.

    The two cosets never overlap (``0 < r/N < 2`` is not an even integer),
    so the representation is unique when it exists.
    """
    value = Fraction(value)
    if value.denominator == 1 and value.numerator % 2 == 0:
        return LatticePoint(0, value.numerator // 2)
    rem = value - Fraction(lattice.r, lattice.N)
    if rem.denominator == 1 and rem.numerator % 2 == 0:
        return LatticePoint(1, rem.numerator // 2)
    return None


def shift_point(p: LatticePoint, q: LatticePoint, lattice: SpectralLattice) -> LatticePoint:
    """Point with value ``lambda(p) + 2N*lambda(q)``.

    ``2N*lambda(q) = 2*r*q.s + 4*N*q.l`` is an even integer, so the shift
    stays on the lattice and preserves the coset bit.
    """
    require_point(p)
    require_point(q)
    return LatticePoint(p.s, p.l + lattice.r * q.s + 2 * lattice.N * q.l)


def point_sort_key(p: LatticePoint) -> tuple[int, int]:
    # Deterministic summation order everywhere: sort by (l, s).
    return (p.l, p.s)


def omega_cells(lattice: SpectralLattice, refinement: int = 1) -> list[OmegaCell]:
    """Tile the frequency domain into ``4*N*K`` half-open cells, low branch first."""
    if refinement < 1:
        raise RejectedParameters(f"refinement must be >= 1, got {refinement}")
    N, K = lattice.N, refinement
    width = Fraction(1, 4 * N * K)
    low = [OmegaCell(c * width, width, "low") for c in range(2 * N * K)]
    high_start = Fraction(N, 2)
    high = [OmegaCell(high_start + c * width, width, "high") for c in range(2 * N * K)]
    return low + high


def branch_grid(N: int, m: int) -> np.ndarray:
    """Midpoints of ``m`` equal intervals per frequency branch, low branch first."""
    base = (np.arange(m) + 0.5) / (2.0 * m)
    return np.concatenate([base, base + N / 2.0])


def cell_index(lattice: SpectralLattice, refinement: int, x):
    """Index into :func:`omega_cells` of the cell containing frequency ``x``.

    ``x`` may be a scalar (an ``int`` is returned) or an array (an integer
    array of the same shape is returned).  Any frequency outside the domain,
    NaN included, raises :class:`FrequencyOutOfRange`.
    """
    N, K = lattice.N, refinement
    per_branch = 2 * N * K
    xs = np.asarray(x, dtype=float)
    # The branches are disjoint: the low one ends at 1/2 <= N/2.
    high = xs >= N / 2.0
    rel = np.where(high, xs - N / 2.0, xs)
    inside = (rel >= 0.0) & (rel < 0.5)
    if not inside.all():
        bad = float(xs[~inside].flat[0])
        raise FrequencyOutOfRange(f"x = {bad} lies outside the frequency domain for N = {N}")
    idx = np.minimum((rel * 4 * N * K).astype(np.int64), per_branch - 1) + per_branch * high
    return int(idx) if idx.ndim == 0 else idx


def require_same_lattice(a: SpectralLattice, b: SpectralLattice) -> None:
    if a != b:
        raise MixedLattice(f"lattices differ: (N={a.N}, r={a.r}) vs (N={b.N}, r={b.r})")

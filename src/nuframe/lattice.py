"""Non-uniform translation lattice and its paired two-branch frequency domain.

The translation set is the union of two arithmetic progressions
``{0, r/N} + 2Z`` with ``r`` odd, coprime to ``N`` and ``1 <= r <= 2N-1``.
A point is named, on input and output, by a coset bit ``s`` and an integer
index ``l`` (:class:`LatticePoint`); its real value is ``s*r/N + 2*l``.
Internally every point is the single integer coordinate

    k = s*r + 2N*l        (value k/N)

Because ``0 < r < 2N``, ``k mod 2N = s*r`` recovers ``s`` and
``floor(k / 2N) = l``, and sorting by ``k`` is sorting by ``(l, s)``.
Shifting by ``q`` adds ``2N * k(q)`` to ``k`` and keeps the coset bit.  The
shift set is not a group: an integer ``t`` is the coordinate of a point
only when ``t mod 2N`` is ``0`` or ``r``.

The paired frequency domain is ``[0, 1/2) u [N/2, (N+1)/2)``, tiled into
half-open cells of width ``1/(4*N*K)`` for step spectra and cell-wise
integration.  Cell edges are integers over ``4NK``, so they too are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyOutOfRange, InvalidParameter, MixedLattice, RejectedParameters


@dataclass(frozen=True)
class SpectralLattice:
    N: int
    r: int


@dataclass(frozen=True)
class LatticePoint:
    s: int
    l: int


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


def coordinate(lattice: SpectralLattice, s, l):
    """Integer coordinate ``s*r + 2N*l`` of the points ``(s, l)`` (scalars or arrays)."""
    return s * lattice.r + 2 * lattice.N * l


def point_indices(lattice: SpectralLattice, k) -> tuple[np.ndarray, np.ndarray]:
    """Coset bits and indices ``(s, l)`` of the integer coordinates ``k``."""
    k = np.asarray(k, dtype=np.int64)
    return (k % (2 * lattice.N) != 0).astype(np.int64), k // (2 * lattice.N)


def on_lattice(lattice: SpectralLattice, t) -> np.ndarray:
    """Whether each integer ``t`` is the coordinate of a lattice point."""
    rem = np.asarray(t, dtype=np.int64) % (2 * lattice.N)
    return (rem == 0) | (rem == lattice.r)


def omega_cells(lattice: SpectralLattice, refinement: int = 1) -> np.ndarray:
    """Left edges of the ``4*N*K`` half-open frequency cells, low branch first,
    as integer numerators over ``4*N*K``: ``c`` on the low branch and
    ``2*N^2*K + c`` (that is ``N/2 + c/(4NK)``) on the high branch."""
    if refinement < 1:
        raise InvalidParameter(f"refinement must be >= 1, got {refinement}")
    per_branch = 2 * lattice.N * refinement
    c = np.arange(per_branch, dtype=np.int64)
    return np.concatenate([c, lattice.N * per_branch + c])


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

"""Frame systems of non-uniform shifts and their frame sums.

A :class:`FrameSystem` bundles ``p`` envelope signals over one lattice.
The central quantity is the frame sum

    sum over j and lattice points q of |<f, shift_q(envelope_j)>|^2

which is finite and exactly computable for finitely supported signals:
only shifts whose translated support meets the signal's support
contribute.  In integer coordinates (see :mod:`nuframe.lattice`) a support
point ``a`` of the signal meets a point ``b`` of the shifted envelope
exactly when the lag ``k_a - k_b`` is ``2N * k(q)``, so all coefficients
come from one pass over the pairwise lags, grouped by shift.

For systems given as step spectra there is a second exact route.  The
shifted inner products are Fourier coefficients of the folded overlap
function, and summing their squares over the full lattice collapses, by
orthonormality of the modulation characters on one cell, to cell-wise
integrals of the folded overlap.  ``frame_sum_spectral`` implements that
closed form with no truncation; ``frame_sum_spectral_truncated`` is the
direct partial sum kept as an independent cross-check with an explicit
tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEnvelope, InvalidParameter, ShapeMismatch
from .lattice import (
    LatticePoint,
    SpectralLattice,
    coordinate,
    on_lattice,
    point_indices,
    require_point,
    require_same_lattice,
)
from .signal import MatrixSeq, SpectrumStep, common_refinement, rebin, step_inner


@dataclass(frozen=True, eq=False)
class FrameSystem:
    lattice: SpectralLattice
    n: int
    envelopes: tuple

    @property
    def p(self) -> int:
        return len(self.envelopes)

    @property
    def spectral(self) -> bool:
        return isinstance(self.envelopes[0], SpectrumStep)


@dataclass(eq=False)
class CoefficientTable:
    """Sparse analysis coefficients keyed by (lattice point, envelope index).

    Envelope indices are 1-based.  ``exact`` records whether the requested
    window covered every shift with support overlap, i.e. whether the
    table is the complete coefficient sequence.
    """

    lattice: SpectralLattice
    p: int
    coeffs: dict = field(default_factory=dict)
    exact: bool = True

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def sorted_items(self):
        return sorted(
            self.coeffs.items(), key=lambda kv: (kv[0][0].l, kv[0][0].s, kv[0][1])
        )


def frame_system(lattice: SpectralLattice, n: int, envelopes) -> FrameSystem:
    envelopes = tuple(envelopes)
    if not envelopes:
        raise DegenerateEnvelope("a frame system needs at least one envelope")
    spectral = isinstance(envelopes[0], SpectrumStep)
    for e in envelopes:
        if spectral != isinstance(e, SpectrumStep):
            raise ShapeMismatch("envelopes must be all time-domain or all spectral")
        require_same_lattice(e.lattice, lattice)
        if e.n != n:
            raise ShapeMismatch(f"envelope dimension {e.n} does not match n = {n}")
        degenerate = not (e.values.any() if spectral else len(e.k))
        if degenerate:
            raise DegenerateEnvelope("envelopes must be non-zero")
    return FrameSystem(lattice=lattice, n=n, envelopes=envelopes)


def require_time_domain(sys: FrameSystem) -> None:
    if sys.spectral:
        raise ShapeMismatch("operation needs time-domain envelopes; got step spectra")


def require_spectral(sys: FrameSystem) -> None:
    if not sys.spectral:
        raise ShapeMismatch("operation needs step-spectrum envelopes")


def _check_signal(sys: FrameSystem, f) -> None:
    require_same_lattice(sys.lattice, f.lattice)
    if f.n != sys.n:
        raise ShapeMismatch(f"signal dimension {f.n} does not match system n = {sys.n}")


def _shift_coefficients(f: MatrixSeq, g: MatrixSeq):
    """Every nonzero ``<f, shift_q(g)>`` as arrays ``(s, l, c)``, ordered by
    ``(s, l)`` of ``q``.

    The pairs of support points with lag ``k_f - k_g = 2N*t``, ``t`` a
    lattice coordinate, meet under the shift with ``k(q) = t``; each
    coefficient sums its pairs in the support order of ``f``.
    """
    lat = f.lattice
    t, rem = np.divmod(f.k[:, None] - g.k[None, :], 2 * lat.N)
    a, b = np.nonzero((rem == 0) & on_lattice(lat, t))
    shifts, group = np.unique(t[a, b], return_inverse=True)
    c = np.zeros(len(shifts), dtype=np.complex128)
    np.add.at(c, group, np.sum(f.mats[a] * np.conj(g.mats[b]), axis=(1, 2)))
    s, l = point_indices(lat, shifts)
    order = np.lexsort((l, s))
    order = order[c[order] != 0]
    return s[order], l[order], c[order]


def frame_sum(sys: FrameSystem, f: MatrixSeq) -> float:
    """Exact value of the frame sum of ``f`` against a time-domain system."""
    require_time_domain(sys)
    _check_signal(sys, f)
    total = 0.0
    for g in sys.envelopes:
        c = _shift_coefficients(f, g)[2]
        total += float(np.sum(c.real**2 + c.imag**2))
    return total


def analysis(sys: FrameSystem, f: MatrixSeq, window: int) -> CoefficientTable:
    """Every nonzero analysis coefficient; the table is flagged exact when
    ``|l| <= window`` covers, for each envelope and coset, every shift whose
    translated support span meets the span of ``f``."""
    require_time_domain(sys)
    _check_signal(sys, f)
    if window < 0:
        raise InvalidParameter(f"window must be >= 0, got {window}")
    table = CoefficientTable(lattice=sys.lattice, p=sys.p)
    if not len(f.k):
        return table
    N, r = sys.lattice.N, sys.lattice.r
    for j, g in enumerate(sys.envelopes, start=1):
        for s in (0, 1):
            # shifts (s, l) move k by 2N*r*s + 4N^2*l
            lo = -((int(g.k[-1] - f.k[0]) + 2 * N * r * s) // (4 * N * N))
            hi = (int(f.k[-1] - g.k[0]) - 2 * N * r * s) // (4 * N * N)
            if lo <= hi and (lo < -window or hi > window):
                table.exact = False
        for s, l, c in zip(*_shift_coefficients(f, g)):
            table.coeffs[(LatticePoint(int(s), int(l)), j)] = complex(c)
    return table


def synthesis(sys: FrameSystem, table: CoefficientTable) -> MatrixSeq:
    """Finite linear combination ``sum c_{q,j} shift_q(envelope_j)``."""
    require_time_domain(sys)
    require_same_lattice(sys.lattice, table.lattice)
    if table.p != sys.p:
        raise ShapeMismatch(f"table has p = {table.p}, system has p = {sys.p}")
    targets, parts = [np.zeros(0, dtype=np.int64)], [np.zeros((0, sys.n, sys.n))]
    for (q, j), c in table.sorted_items():
        if not 1 <= j <= sys.p:
            raise ShapeMismatch(f"envelope index {j} outside 1..{sys.p}")
        require_point(q)
        g = sys.envelopes[j - 1]
        targets.append(g.k + 2 * sys.lattice.N * coordinate(sys.lattice, q.s, q.l))
        parts.append(c * g.mats)
    k, slot = np.unique(np.concatenate(targets), return_inverse=True)
    mats = np.zeros((len(k), sys.n, sys.n), dtype=np.complex128)
    np.add.at(mats, slot, np.concatenate(parts))
    return MatrixSeq(sys.lattice, sys.n, k, mats)


def frame_operator_apply(sys: FrameSystem, f: MatrixSeq, window: int) -> MatrixSeq:
    """Synthesis of the analysis coefficients (the frame operator at ``f``)."""
    return synthesis(sys, analysis(sys, f, window))


# ---------------------------------------------------------------------------
# spectral (step) route


def _folded_overlaps(sys: FrameSystem, F: SpectrumStep):
    """Per-envelope folded overlap tables on the common grid.

    Returns ``(K, X)`` where ``X[j]`` has shape ``(2N, K)``: the overlap
    ``sum_{m,k} F_{m,k} conj(E_j_{m,k})`` with the two branches added, laid
    out by coarse interval ``g`` (rows) and sub-cell (columns).
    """
    require_spectral(sys)
    _check_signal(sys, F)
    k = common_refinement(list(sys.envelopes) + [F])
    F = rebin(F, k)
    N = sys.lattice.N
    per_branch = 2 * N * k
    tables = []
    for env in sys.envelopes:
        env = rebin(env, k)
        psi = np.sum(F.values * np.conj(env.values), axis=(1, 2))
        folded = psi[:per_branch] + psi[per_branch:]
        tables.append(folded.reshape(2 * N, k))
    return k, tables


def frame_sum_spectral(sys: FrameSystem, F: SpectrumStep) -> float:
    """Exact frame sum of a step spectrum against a step-spectrum system.

    The lattice splits into the integer coset and the shifted coset; on
    each, summing squared Fourier coefficients over all shifts equals a
    cell-wise integral of the folded overlap (Parseval on one cell).  Both
    coset contributions are exact; nothing is truncated.
    """
    k, tables = _folded_overlaps(sys, F)
    N, r = sys.lattice.N, sys.lattice.r
    width = 1.0 / (4 * N * k)
    # Character weights for the shifted coset, constant per coarse interval.
    phases = np.exp(-1j * np.pi * r * np.arange(2 * N) / N)
    total = 0.0
    for folded in tables:
        plain = np.sum(folded, axis=0)
        twisted = np.sum(phases[:, None] * folded, axis=0)
        cellwise = np.sum(np.abs(plain) ** 2 + np.abs(twisted) ** 2) * width
        total += cellwise / (4 * N)
    return float(total)


def frame_sum_spectral_entrywise(sys: FrameSystem, F: SpectrumStep) -> float:
    """Variant of :func:`frame_sum_spectral` with the ``n^2`` matrix entries
    treated as uncoupled scalar channels.

    This drops the interference between entries that share a shift
    coefficient, so it is NOT the frame sum whenever an envelope couples
    several entries; it is kept as a diagnostic because published reference
    values for the bundled counterexample fixture follow this convention.
    """
    require_spectral(sys)
    _check_signal(sys, F)
    k = common_refinement(list(sys.envelopes) + [F])
    F = rebin(F, k)
    N, r = sys.lattice.N, sys.lattice.r
    per_branch = 2 * N * k
    width = 1.0 / (4 * N * k)
    phases = np.exp(-1j * np.pi * r * np.arange(2 * N) / N)
    total = 0.0
    for env in sys.envelopes:
        env = rebin(env, k)
        psi = F.values * np.conj(env.values)  # (cells, n, n)
        folded = psi[:per_branch] + psi[per_branch:]
        folded = folded.reshape(2 * N, k, sys.n, sys.n)
        plain = np.sum(folded, axis=0)
        twisted = np.sum(phases[:, None, None, None] * folded, axis=0)
        cellwise = np.sum(np.abs(plain) ** 2 + np.abs(twisted) ** 2) * width
        total += cellwise / (4 * N)
    return float(total)


def frame_sum_spectral_truncated(
    sys: FrameSystem, F: SpectrumStep, window: int
) -> tuple[float, float]:
    """Direct partial frame sum over ``|l| <= window`` with a tail bound.

    Each coefficient is an exact cell-wise exponential integral; the tail
    uses ``|c_q| <= C_j / |lambda(q)|`` with ``C_j`` the summed cell
    magnitudes of the overlap divided by ``2 pi N``, and
    ``|lambda| >= 2|l| - 2`` off the window.  Requires ``window >= 2``.
    """
    require_spectral(sys)
    _check_signal(sys, F)
    if window < 2:
        raise InvalidParameter(f"window must be >= 2, got {window}")
    k = common_refinement(list(sys.envelopes) + [F])
    Fk = rebin(F, k)
    total = 0.0
    tail = 0.0
    for env in sys.envelopes:
        envk = rebin(env, k)
        for s in (0, 1):
            for l in range(-window, window + 1):
                c = step_inner(Fk, envk, LatticePoint(s, l))
                total += abs(c) ** 2
        psi = np.sum(Fk.values * np.conj(envk.values), axis=(1, 2))
        per_branch = 2 * sys.lattice.N * k
        pieces = _run_magnitude_sum(psi[:per_branch]) + _run_magnitude_sum(
            psi[per_branch:]
        )
        c_j = pieces / (2 * math.pi * sys.lattice.N)
        # sum over both cosets and signs of 1/lambda^2 <= 1/(window - 1)
        tail += c_j**2 / (window - 1)
    return float(total), float(tail)


def _run_magnitude_sum(values: np.ndarray) -> float:
    """Sum of |v| over maximal constant runs (refinement-independent)."""
    total = 0.0
    prev = None
    for v in values:
        if prev is None or v != prev:
            total += abs(v)
            prev = v
    return float(total)

"""Bessel and frame bound estimation.

Three independent levers:

* a sufficient Bessel bound ``2^(p-1) * b^2 * n^2`` from a spectrum sup
  norm ``b`` of the envelopes,
* a necessary spectrum bound for Bessel systems, reported both as the
  sharp constant ``2*sqrt(N*b0)`` and the weaker ``N + b0``,
* a grid sweep of the stacked sampling operator whose squared extremal
  singular values over ``4N`` estimate the frame bounds.

Grid extrema are lower estimates of essential sup / upper estimates of
essential inf; every report carries its grid size.  The sweep can never
certify a positive lower bound when ``2p < 4N n^2``: the stacked operator
is then wider than tall and has a kernel, so the verdict is
``rank_deficient`` regardless of the envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .frame import FrameSystem
from .gamma import operator_chunks, stacked_operator
from .lattice import branch_grid
from .signal import frobenius_norm, spectrum_grid

# a_est below this is reported as numerically singular (verdict bessel_only).
SINGULAR_FLOOR = 1e-10


@dataclass
class FrameBoundsReport:
    a_est: float
    b_est: float
    feasible: bool
    grid: int
    x_at_min: float
    x_at_max: float
    verdict: str  # "frame" | "bessel_only" | "rank_deficient"
    sigma_min_curve: list = field(default_factory=list)
    sigma_max_curve: list = field(default_factory=list)
    xs: list = field(default_factory=list)


def feasibility(p: int, n: int, N: int) -> bool:
    """Whether the stacked operator can have full column rank: ``2p >= 4N n^2``."""
    return 2 * p >= 4 * N * n * n


def bessel_sufficient_bound(p: int, n: int, b_sup: float) -> float:
    """Bessel bound ``2^(p-1) * b_sup^2 * n^2`` from an envelope sup norm."""
    if p < 1 or n < 1:
        raise InvalidParameter(f"p and n must be >= 1, got p={p}, n={n}")
    if not b_sup > 0:
        raise InvalidParameter(f"b_sup must be positive, got {b_sup}")
    return float(2 ** (p - 1) * b_sup * b_sup * n * n)


def bessel_necessary_bounds(N: int, b0: float) -> tuple[float, float]:
    """Spectrum bounds any Bessel system with bound ``b0`` must satisfy.

    Returns ``(2*sqrt(N*b0), N + b0)``; the first is the sharp constant,
    the second the conventionally stated (weaker) one.
    """
    if not b0 > 0:
        raise InvalidParameter(f"b0 must be positive, got {b0}")
    return 2.0 * math.sqrt(N * b0), float(N + b0)


def envelope_sup_norm(sys: FrameSystem, grid: int = 4096) -> float:
    """Grid maximum of the envelope spectrum norms over the frequency domain.

    A lower estimate of the essential sup.  For step spectra the cell
    maximum is exact and the grid is irrelevant.
    """
    if grid < 2:
        raise InvalidParameter(f"grid must be >= 2, got {grid}")
    xs = branch_grid(sys.lattice.N, grid)
    return max(
        float(np.max(frobenius_norm(env.values if sys.spectral else spectrum_grid(env, xs))))
        for env in sys.envelopes
    )


def frame_bounds_gamma(sys: FrameSystem, grid: int = 1024) -> FrameBoundsReport:
    """Sweep the stacked operator over a midpoint grid of the sampling interval.

    ``a_est = min sigma_min^2 / 4N`` and ``b_est = max sigma_max^2 / 4N``,
    with the squared extremal singular values read off the eigenvalues of
    the smaller Gram of ``T(x)`` (clamped at zero against round-off); when
    ``T(x)`` is wider than tall its smallest singular value over the domain
    is structurally zero.  Works for time-domain and step-spectrum envelopes
    alike.  The per-point curves are kept in the report so callers can
    export them.
    """
    if grid < 8:
        raise InvalidParameter(f"grid must be >= 8, got {grid}")
    N = sys.lattice.N
    feasible = feasibility(sys.p, sys.n, N)
    xs = (np.arange(grid) + 0.5) / (grid * 4.0 * N)
    lo, hi = [], []
    for chunk in operator_chunks(sys, xs):
        T = stacked_operator(sys, chunk)
        Th = T.conj().swapaxes(-1, -2)
        evals = np.linalg.eigvalsh(Th @ T if feasible else T @ Th)
        hi.append(np.maximum(evals[:, -1], 0.0))
        lo.append(np.maximum(evals[:, 0], 0.0) if feasible else np.zeros(len(chunk)))
    smin = np.concatenate(lo) / (4.0 * N)
    smax = np.concatenate(hi) / (4.0 * N)
    i_min = int(np.argmin(smin))
    i_max = int(np.argmax(smax))
    a_est = float(smin[i_min]) if feasible else 0.0
    b_est = float(smax[i_max])
    if not feasible:
        verdict = "rank_deficient"
    elif a_est < SINGULAR_FLOOR:
        verdict = "bessel_only"
    else:
        verdict = "frame"
    return FrameBoundsReport(
        a_est=a_est,
        b_est=b_est,
        feasible=feasible,
        grid=grid,
        x_at_min=float(xs[i_min]),
        x_at_max=float(xs[i_max]),
        verdict=verdict,
        sigma_min_curve=[float(v) for v in smin],
        sigma_max_curve=[float(v) for v in smax],
        xs=[float(v) for v in xs],
    )


def refine_bounds(
    sys: FrameSystem, grid: int, doublings: int
) -> list[FrameBoundsReport]:
    """Reports at grid, 2*grid, ... for a first-difference convergence check."""
    out = []
    m = grid
    for _ in range(doublings + 1):
        out.append(frame_bounds_gamma(sys, m))
        m *= 2
    return out

"""Perturbation checks with explicit replacement frame bounds.

Two modes.  The absolute mode measures ``eps = sup ||F(f_j + g_j)(x)||``
over a frequency grid (note the sum: admissible perturbations are near the
negated originals) and, when ``2^(p-1) eps^2 n^2 < a0``, certifies the
perturbed system as a frame with bounds

    lower = (sqrt(a0) - sqrt(2^(p-1) eps^2 n^2))^2
    upper = 2^p eps^2 n^2 + 2 b0.

The relative mode measures ``eps = sup ||F(g_j - f_j)|| / ||F(f_j)||`` and
uses the same shape with ``eps`` inflated by ``(N + b0)``.  Both are
conditional statements: the caller supplies ``(a0, b0)`` for the reference
system, the checker does not recompute them.

The admissibility chain for the absolute mode is conventionally written
``eps < 2^(p-1) eps^2 n^2 < a0``.  The left inequality fails for every
``eps < 1 / (2^(p-1) n^2)``, so it is recorded as a separate flag and the
operative condition is the right inequality alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ShapeMismatch, VanishingEnvelopeSpectrum
from .frame import FrameSystem
from .lattice import branch_grid
from .signal import frobenius_norm, spectrum_grid

# Relative-mode denominators below this raise rather than clamp.
DENOMINATOR_FLOOR = 1e-12


@dataclass
class PerturbationReport:
    mode: str  # "absolute" | "relative"
    epsilon_measured: float
    condition_value: float
    condition_holds: bool
    new_lower: float
    new_upper: float
    grid: int
    a0: float
    b0: float
    p: int
    n: int
    N: int
    # The literal left inequality of the absolute admissibility chain;
    # None in relative mode.
    epsilon_below_condition_value: bool | None = None


def absolute_bounds(a0: float, b0: float, eps: float, p: int, n: int) -> tuple[float, float]:
    """Replacement frame bounds of the absolute criterion (pure arithmetic)."""
    cond = 2 ** (p - 1) * eps * eps * n * n
    lower = (math.sqrt(a0) - math.sqrt(cond)) ** 2
    upper = 2**p * eps * eps * n * n + 2 * b0
    return lower, upper


def relative_bounds(
    a0: float, b0: float, eps: float, p: int, n: int, N: int
) -> tuple[float, float]:
    """Replacement frame bounds of the relative-error criterion."""
    inflated = eps * (N + b0)
    return absolute_bounds(a0, b0, inflated, p, n)


def _check_inputs(sysF: FrameSystem, sysG: FrameSystem, a0: float, b0: float, grid: int) -> None:
    if sysF.lattice != sysG.lattice:
        raise ShapeMismatch("systems live on different lattices")
    if sysF.n != sysG.n or sysF.p != sysG.p:
        raise ShapeMismatch(
            f"systems disagree in shape: (n={sysF.n}, p={sysF.p}) vs (n={sysG.n}, p={sysG.p})"
        )
    if not (a0 > 0 and b0 > 0):
        raise InvalidParameter(f"a0 and b0 must be positive, got {a0}, {b0}")
    if grid < 1:
        raise InvalidParameter(f"grid must be >= 1, got {grid}")


def check_absolute(
    sysF: FrameSystem,
    sysG: FrameSystem,
    a0: float,
    b0: float,
    grid: int = 4096,
) -> PerturbationReport:
    """Absolute-mode perturbation audit of ``sysG`` against ``sysF``."""
    _check_inputs(sysF, sysG, a0, b0, grid)
    xs = branch_grid(sysF.lattice.N, grid)
    eps = 0.0
    for fj, gj in zip(sysF.envelopes, sysG.envelopes):
        norms = frobenius_norm(spectrum_grid(fj, xs) + spectrum_grid(gj, xs))
        eps = max(eps, float(np.max(norms, initial=0.0)))
    cond = 2 ** (sysF.p - 1) * eps * eps * sysF.n * sysF.n
    lower, upper = absolute_bounds(a0, b0, eps, sysF.p, sysF.n)
    return PerturbationReport(
        mode="absolute",
        epsilon_measured=eps,
        condition_value=cond,
        condition_holds=cond < a0,
        new_lower=lower,
        new_upper=upper,
        grid=grid,
        a0=a0,
        b0=b0,
        p=sysF.p,
        n=sysF.n,
        N=sysF.lattice.N,
        epsilon_below_condition_value=eps < cond,
    )


def check_relative(
    sysF: FrameSystem,
    sysG: FrameSystem,
    a0: float,
    b0: float,
    grid: int = 4096,
) -> PerturbationReport:
    """Relative-error perturbation audit of ``sysG`` against ``sysF``."""
    _check_inputs(sysF, sysG, a0, b0, grid)
    xs = branch_grid(sysF.lattice.N, grid)
    eps = 0.0
    for fj, gj in zip(sysF.envelopes, sysG.envelopes):
        ref = spectrum_grid(fj, xs)
        denom = frobenius_norm(ref)
        vanishing = np.flatnonzero(denom <= DENOMINATOR_FLOOR)
        if vanishing.size:
            i = vanishing[0]
            raise VanishingEnvelopeSpectrum(
                f"reference spectrum norm {denom[i]} at x = {xs[i]} is below "
                f"{DENOMINATOR_FLOOR}; the relative criterion does not apply"
            )
        ratios = frobenius_norm(spectrum_grid(gj, xs) - ref) / denom
        eps = max(eps, float(np.max(ratios, initial=0.0)))
    n, p, N = sysF.n, sysF.p, sysF.lattice.N
    cond = 2 ** (p - 1) * eps * eps * (N + b0) ** 2 * n * n
    lower, upper = relative_bounds(a0, b0, eps, p, n, N)
    return PerturbationReport(
        mode="relative",
        epsilon_measured=eps,
        condition_value=cond,
        condition_holds=eps * eps < a0 / (2 ** (p - 1) * (N + b0) ** 2 * n * n),
        new_lower=lower,
        new_upper=upper,
        grid=grid,
        a0=a0,
        b0=b0,
        p=p,
        n=n,
        N=N,
        epsilon_below_condition_value=None,
    )

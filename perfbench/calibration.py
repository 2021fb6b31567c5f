"""Machine-speed calibration for timings on a shared machine.

Other tenants of a shared host change how fast this process runs by tens of
percent, over seconds to minutes.  A fixed kernel shaped like the library's
hot paths (exact fractions, complex exponentials, small NumPy updates) is
timed next to every measurement; dividing by its time removes most of that
drift.  Calibrated times are reported in seconds on a machine where the
kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 1.0e-3


def _kernel() -> float:
    m = np.eye(2, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    t0 = time.perf_counter()
    for k in range(300):
        lam = float(Fraction(k % 7, 3) + 2 * k)
        out += m * cmath.exp(2j * math.pi * lam * 0.1)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Wall time of the fixed kernel (about a millisecond), best of three so
    that a single interrupt does not skew it."""
    return min(_kernel() for _ in range(3))


def calibrated(wall: float, before: float, after: float) -> float:
    """``wall`` scaled by the kernel times measured just before and after it."""
    return wall * NOMINAL_S / (0.5 * (before + after))


def job_medians(records: list) -> dict:
    """Median calibrated time per job over its timed runs (round >= 0)."""
    times: dict = {}
    for jid, round_no, *_rest, cal_wall in records:
        if round_no >= 0:
            times.setdefault(jid, []).append(cal_wall)
    return {jid: statistics.median(v) for jid, v in times.items()}

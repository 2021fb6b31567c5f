"""Benchmark-side model of nuframe inputs, independent of the library.

Signals and systems are held as plain NumPy arrays so that the workload
generators and the reference computations never touch ``nuframe`` objects.
``write_*`` render them in the library's documented JSON wire format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Seq:
    """Finitely supported time-domain signal: points ``(s, l)`` and matrices."""

    N: int
    r: int
    n: int
    points: list  # [(s, l), ...] without repeats
    mats: np.ndarray  # (len(points), n, n) complex

    def lambdas(self) -> np.ndarray:
        return np.array([s * self.r / self.N + 2.0 * l for s, l in self.points])

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.mats) ** 2))


@dataclass
class Step:
    """Step spectrum with refinement 1: one ``n x n`` matrix per cell (4N cells)."""

    N: int
    r: int
    n: int
    cells: np.ndarray  # (4N, n, n) complex

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.cells) ** 2) / (4 * self.N))


@dataclass
class System:
    N: int
    r: int
    n: int
    envelopes: list  # all Seq or all Step
    companions: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return len(self.envelopes)

    @property
    def spectral(self) -> bool:
        return isinstance(self.envelopes[0], Step)


# ---------------------------------------------------------------------------
# wire format


def _cx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _matrix(m) -> list:
    return [[_cx(z) for z in row] for row in np.asarray(m)]


def _lattice(obj) -> dict:
    return {"N": obj.N, "r": obj.r}


def _entries(f: Seq) -> list:
    return [
        {"s": s, "l": l, "matrix": _matrix(m)} for (s, l), m in zip(f.points, f.mats)
    ]


def seq_json(f: Seq) -> dict:
    return {"lattice": _lattice(f), "n": f.n, "entries": _entries(f)}


def step_json(f: Step) -> dict:
    return {
        "lattice": _lattice(f),
        "n": f.n,
        "refinement": 1,
        "cells": [_matrix(c) for c in f.cells],
    }


def system_json(sys: System) -> dict:
    out = {"lattice": _lattice(sys), "n": sys.n}
    if sys.spectral:
        out["envelopes_spectral"] = [
            {"refinement": 1, "cells": [_matrix(c) for c in e.cells]} for e in sys.envelopes
        ]
    else:
        out["envelopes"] = [_entries(e) for e in sys.envelopes]
    if not sys.companions:
        return out
    return {
        "kind": "fixture",
        "name": "generated",
        "system": out,
        "companions": {
            k: {"kind": "spectrum_step", **step_json(v)} for k, v in sys.companions.items()
        },
    }


def write_json(path, obj) -> int:
    text = json.dumps(obj, indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# the bundled reference systems, transcribed from their definitions

_ID = np.eye(2, dtype=complex)
_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGN = np.array([[1, 0], [0, -1]], dtype=complex)
_ROT = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _two_point(s, first, second) -> Seq:
    return Seq(2, 1, 2, [(s, 0), (s, 2)], np.array([first, second], dtype=complex))


def exam1() -> System:
    pairs = [(_ID, _SWAP), (_SIGN, _ROT), (-_ROT, _SWAP), (_SWAP, _SIGN)]
    envs = [_two_point(0, a, b) for a, b in pairs] + [_two_point(1, a, b) for a, b in pairs]
    return System(2, 1, 2, envs)


def exam1_perturbed(g3_sign_fixed: bool) -> System:
    c = 24.0 / 25.0
    g3 = np.array([[0, -c * 1j], [c * 1j if g3_sign_fixed else -c * 1j, 0]])
    firsts = [-c * _ID, np.array([[-c, 0], [0, c]]), g3, -c * _SWAP]
    seconds = [-_SWAP, np.array([[0, 1j], [-1j, 0]]), -_SWAP, np.array([[-1, 0], [0, 1]])]
    full = [-_ID, np.array([[-1, 0], [0, 1]]), np.array([[0, -1j], [1j, 0]]), -_SWAP]
    envs = [_two_point(0, a, b) for a, b in zip(firsts, seconds)]
    envs += [_two_point(1, a, b) for a, b in zip(full, seconds)]
    return System(2, 1, 2, envs)


def onb() -> System:
    one = np.ones((1, 1, 1), dtype=complex)
    return System(1, 1, 1, [Seq(1, 1, 1, [(0, 0)], one), Seq(1, 1, 1, [(1, 0)], one.copy())])


def counterexample(N: int, r: int, a0: float) -> System:
    """Two-cell step system and its witness spectrum (companion ``f_t``)."""
    cells = 4 * N
    e1 = np.zeros((cells, 2, 2), dtype=complex)
    e2 = np.zeros((cells, 2, 2), dtype=complex)
    e1[0] = math.sqrt(2.0 * N) * _ID
    e2[0] = math.sqrt(2.0 * N) * _SWAP
    ft = np.zeros((cells, 2, 2), dtype=complex)
    ft[0] = 1.0
    ft[1] = 1.0 / a0
    return System(N, r, 2, [Step(N, r, 2, e1), Step(N, r, 2, e2)], {"f_t": Step(N, r, 2, ft)})


def admissible_r(N: int) -> list:
    return [r for r in range(1, 2 * N, 2) if math.gcd(r, N) == 1]


# ---------------------------------------------------------------------------
# seeded random objects


def random_matrices(rng, k: int, n: int) -> np.ndarray:
    return rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))


def random_seq(rng, N: int, r: int, n: int, support: int, l_span: int) -> Seq:
    """``support`` distinct points drawn from both cosets over ``l in [0, l_span)``.

    Both ends of the index range are always occupied so the support's extent,
    and with it the cost of every shift-window loop, depends on the shape only.
    """
    l_span = max(l_span, support // 2 + 2)
    pool = [(s, l) for l in range(1, l_span - 1) for s in (0, 1)]
    ends = [(0, 0), (1, l_span - 1)] if support > 1 else [(0, 0)]
    picks = rng.choice(len(pool), size=support - len(ends), replace=False)
    points = ends + [pool[i] for i in sorted(picks)]
    return Seq(N, r, n, points, random_matrices(rng, len(points), n))


def random_system(rng, N: int, n: int, p: int, support: tuple, l_span: int = 6) -> System:
    """Random time-domain system; support sizes spread evenly over ``support``
    so that the cost of a job depends on its shape, not on the seed."""
    r = int(rng.choice(admissible_r(N)))
    lo, hi = support
    sizes = [lo + (j * (hi - lo)) // max(p - 1, 1) for j in range(p)]
    return System(N, r, n, [random_seq(rng, N, r, n, k, l_span) for k in sizes])


def scaled_copy(f: Seq, c: complex) -> Seq:
    return Seq(f.N, f.r, f.n, list(f.points), c * f.mats)

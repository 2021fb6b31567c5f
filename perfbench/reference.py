"""Independent reference values for every benchmark job.

Nothing here imports ``nuframe``.  Spectra are direct NumPy exponential
sums, sweep extrema come from an explicit construction of ``T(x)`` and
``numpy.linalg.svd``, frame sums enumerate every pair of support points,
and step-spectrum coefficients are closed-form cell integrals.  Reports
are validated with ``jsonschema`` against the schema files the library
ships.  ``check`` compares one job's outputs with its reference and returns
the list of disagreements.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

from model import Seq, Step, System

RTOL = 1e-9


# ---------------------------------------------------------------------------
# spectra and sweeps


def spectrum(f: Seq, xs) -> np.ndarray:
    """``sum_p m_p exp(2 pi i lambda_p x)`` at every x; shape ``xs.shape + (n, n)``."""
    xs = np.asarray(xs, dtype=float)
    phase = np.exp(2j * np.pi * xs[..., None] * f.lambdas())
    return np.tensordot(phase, f.mats, axes=(-1, 0))


def branch_grid(N: int, grid: int) -> np.ndarray:
    base = (np.arange(grid) + 0.5) / (2.0 * grid)
    return np.concatenate([base, base + N / 2.0])


def fro(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def sample_offsets(N: int, xs) -> np.ndarray:
    g = np.arange(2 * N) / (4 * N)
    xs = np.asarray(xs, dtype=float)[..., None]
    return np.concatenate([xs + g, xs + N / 2 + g], axis=-1)


def phases(N: int, r: int, xs) -> np.ndarray:
    g = np.arange(2 * N) / (4 * N)
    block = np.exp(4j * np.pi * r * (np.asarray(xs, dtype=float)[..., None] + g))
    return np.concatenate([block, block], axis=-1)


def stacked_operator(sys: System, xs) -> np.ndarray:
    """``T(x)`` for every x: shape ``(len(xs), 2p, 4N n^2)``.

    Row ``2j`` holds the conjugated samples of envelope ``j`` and row
    ``2j+1`` the conjugated phase-modulated samples; columns run over the
    entries ``(m, k)`` (m outer) and, inside each, the 4N sample offsets.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    N, n, p = sys.N, sys.n, sys.p
    offs = sample_offsets(N, xs)  # (G, 4N)
    samples = np.stack([spectrum(e, offs) for e in sys.envelopes], axis=1)  # (G, p, 4N, n, n)
    blocks = samples.transpose(0, 1, 3, 4, 2).reshape(len(xs), p, n * n * 4 * N)
    ph = np.tile(phases(N, sys.r, xs), n * n)[:, None, :]
    T = np.stack([np.conj(blocks), np.conj(ph * blocks)], axis=2)
    return T.reshape(len(xs), 2 * p, n * n * 4 * N)


def sweep(sys: System, grid: int, chunk_bytes: int = 32 << 20) -> dict:
    """Squared extremal singular values of ``T(x)`` over 4N on the midpoint grid."""
    N, n, p = sys.N, sys.n, sys.p
    feasible = 2 * p >= 4 * N * n * n
    xs = (np.arange(grid) + 0.5) / (grid * 4.0 * N)
    per_point = 2 * p * 4 * N * n * n * 16
    step = max(1, chunk_bytes // per_point)
    lo, hi = [], []
    for i in range(0, grid, step):
        sv = np.linalg.svd(stacked_operator(sys, xs[i : i + step]), compute_uv=False)
        hi.append(sv[:, 0] ** 2)
        lo.append(sv[:, -1] ** 2 if feasible else np.zeros(len(sv)))
    smin = np.concatenate(lo) / (4.0 * N)
    smax = np.concatenate(hi) / (4.0 * N)
    a_est = float(smin.min()) if feasible else 0.0
    if not feasible:
        verdict = "rank_deficient"
    elif a_est < 1e-10:
        verdict = "bessel_only"
    else:
        verdict = "frame"
    return {
        "xs": xs,
        "smin": smin,
        "smax": smax,
        "a_est": a_est,
        "b_est": float(smax.max()),
        "feasible": feasible,
        "verdict": verdict,
    }


def envelope_sup(sys: System, grid: int) -> float:
    if sys.spectral:
        return float(max(fro(e.cells).max() for e in sys.envelopes))
    xs = branch_grid(sys.N, grid)
    return float(max(fro(spectrum(e, xs)).max() for e in sys.envelopes))


def epsilon(F: System, G: System, mode: str, grid: int) -> float:
    xs = branch_grid(F.N, grid)
    best = 0.0
    for f, g in zip(F.envelopes, G.envelopes):
        sf, sg = spectrum(f, xs), spectrum(g, xs)
        if mode == "absolute":
            value = fro(sf + sg).max()
        else:
            value = (fro(sg - sf) / fro(sf)).max()
        best = max(best, float(value))
    return best


def perturb_expected(F: System, G: System, mode: str, a0: float, b0: float, grid: int) -> dict:
    eps = epsilon(F, G, mode, grid)
    p, n, N = F.p, F.n, F.N
    e_eff = eps if mode == "absolute" else eps * (N + b0)
    cond = 2 ** (p - 1) * e_eff**2 * n * n
    return {
        "epsilon_measured": eps,
        "condition_value": cond,
        "condition_holds": cond < a0,
        "new_lower": (math.sqrt(a0) - math.sqrt(cond)) ** 2,
        "new_upper": 2**p * e_eff**2 * n * n + 2 * b0,
        "epsilon_below_condition_value": eps < cond if mode == "absolute" else None,
    }


# ---------------------------------------------------------------------------
# time-domain frame sums by enumeration of support pairs


def shift_coefficients(f: Seq, g: Seq) -> dict:
    """``<f, shift_q g>`` for every lattice shift ``q = (s, l)`` with support overlap.

    Every pair of same-coset support points ``(a, b)`` contributes
    ``sum f_a * conj(g_b)`` to the index offset ``d = l_a - l_b``; offsets
    of the form ``d = r*s + 2N*l`` are the lattice shifts.
    """
    N, r = f.N, f.r
    fs = np.array([s for s, _ in f.points])
    fl = np.array([l for _, l in f.points])
    gs = np.array([s for s, _ in g.points])
    gl = np.array([l for _, l in g.points])
    prod = np.einsum("aij,bij->ab", f.mats, np.conj(g.mats))
    same = fs[:, None] == gs[None, :]
    d = (fl[:, None] - gl[None, :])[same]
    keys, inverse = np.unique(d, return_inverse=True)
    coeffs = np.zeros(len(keys), dtype=complex)
    np.add.at(coeffs, inverse, prod[same])
    out = {}
    for key, c in zip(keys.tolist(), coeffs):
        if key % (2 * N) == 0:
            out[(0, key // (2 * N))] = complex(c)
        elif key % (2 * N) == r:
            out[(1, (key - r) // (2 * N))] = complex(c)
    return out


def frame_sum(sys: System, f: Seq) -> float:
    return float(
        sum(abs(c) ** 2 for g in sys.envelopes for c in shift_coefficients(f, g).values())
    )


def _value_range(f: Seq):
    values = [Fraction(s * f.r, f.N) + 2 * l for s, l in f.points]
    return min(values), max(values)


def analysis(sys: System, f: Seq, window: int) -> tuple:
    """Coefficient table ``{(s, l, j): c}`` and whether ``|l| <= window`` covers
    the documented overlap range ``[min f - max g, max f - min g]``."""
    table = {}
    exact = True
    fmin, fmax = _value_range(f)
    for j, g in enumerate(sys.envelopes, start=1):
        for (s, l), c in shift_coefficients(f, g).items():
            table[(s, l, j)] = c
        gmin, gmax = _value_range(g)
        for s in (0, 1):
            lo = math.ceil((fmin - gmax - 2 * sys.r * s) / (4 * sys.N))
            hi = math.floor((fmax - gmin - 2 * sys.r * s) / (4 * sys.N))
            if lo <= hi and (lo < -window or hi > window):
                exact = False
    return table, exact


# ---------------------------------------------------------------------------
# step spectra


def _cell_overlap(F: Step, E: Step) -> np.ndarray:
    return np.sum(F.cells * np.conj(E.cells), axis=(1, 2))


def step_truncated(sys: System, F: Step, window: int) -> tuple:
    """Partial frame sum over ``|l| <= window`` from closed-form cell integrals,
    and the documented tail bound."""
    N, r = sys.N, sys.r
    width = 1.0 / (4 * N)
    left = np.concatenate([np.arange(2 * N) * width, N / 2 + np.arange(2 * N) * width])
    ls = np.arange(-window, window + 1)
    total = 0.0
    tail = 0.0
    for E in sys.envelopes:
        psi = _cell_overlap(F, E)
        for s in (0, 1):
            nu = -(2 * r * s + 4 * N * ls).astype(float)  # (L,)
            w = 2j * np.pi * nu[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                integral = (np.exp(w * (left + width)) - np.exp(w * left)) / w
            integral[nu == 0] = width
            total += float(np.sum(np.abs(integral @ psi) ** 2))
        runs = sum(
            float(np.abs(half[np.r_[True, half[1:] != half[:-1]]]).sum())
            for half in (psi[: 2 * N], psi[2 * N :])
        )
        tail += (runs / (2 * math.pi * N)) ** 2 / (window - 1)
    return total, tail


# ---------------------------------------------------------------------------
# the sampling identity


def sample_matrix(sys: System, m: int, k: int, x: float) -> np.ndarray:
    offs = sample_offsets(sys.N, x)
    cols = np.stack([spectrum(e, offs)[:, m - 1, k - 1] for e in sys.envelopes], axis=1)
    ph = phases(sys.N, sys.r, x)[:, None]
    return np.stack([cols, ph * cols], axis=2).reshape(len(offs), 2 * sys.p)


def identity_residual(sys: System, f: Seq, nodes: int) -> float:
    lhs = 4 * sys.N * frame_sum(sys, f)
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 1.0 / (8 * sys.N)
    xs, ws = half * (t + 1.0), w * half
    T = stacked_operator(sys, xs)  # (nodes, 2p, 4N n^2)
    samples = spectrum(f, sample_offsets(sys.N, xs))  # (nodes, 4N, n, n)
    G = samples.transpose(0, 2, 3, 1).reshape(len(xs), -1)
    v = np.einsum("xrc,xc->xr", T, G)
    integral = float(np.sum(ws * np.sum(np.abs(v) ** 2, axis=1)))
    return abs(lhs - integral) / max(1.0, lhs)


# ---------------------------------------------------------------------------
# expected results per job kind


def expected(job) -> dict:
    """Reference values for one job, from its ``spec`` (benchmark-side objects)."""
    spec = job.spec
    kind = job.kind
    if kind == "bounds":
        ref = spec.get("sweep") or sweep(spec["system"], spec["grid"])
        ref["exit"] = {"frame": 0, "bessel_only": 2, "rank_deficient": 3}[ref["verdict"]]
        return ref
    if kind == "gamma":
        sys, sig, m, k, x = spec["system"], spec["signal"], spec["m"], spec["k"], spec["x"]
        A = sample_matrix(sys, m, k, x)
        return {
            "exit": 0,
            "sample_matrix": A,
            "gram": A @ A.conj().T,
            "singular_values": np.linalg.svd(stacked_operator(sys, [x])[0], compute_uv=False),
            "identity_residual": identity_residual(sys, sig, spec["nodes"]),
        }
    if kind == "perturb":
        ref = perturb_expected(
            spec["reference"], spec["candidate"], spec["mode"], spec["a0"], spec["b0"], spec["grid"]
        )
        ref["exit"] = 0 if ref["condition_holds"] else 4
        return ref
    if kind == "bessel":
        sys, b0 = spec["system"], spec["b0"]
        sup = envelope_sup(sys, spec["grid"])
        return {
            "exit": 0,
            "sup_norm": sup,
            "sufficient_bound": 2 ** (sys.p - 1) * sup * sup * sys.n**2,
            "proof_constant": 2.0 * math.sqrt(sys.N * b0),
            "stated_constant": float(sys.N + b0),
        }
    if kind == "framesum":
        sys, sig = spec["system"], spec["signal"]
        if spec["spectral"]:
            trunc, tail = step_truncated(sys, sig, spec["truncate"])
            return {
                "exit": 0,
                "value": 2.0 / sys.N,  # the witness frame sum, known in closed form
                "entrywise_value": 1.0 / sys.N,
                "signal_norm_sq": sig.norm_sq(),
                "truncated": trunc,
                "tail_bound": tail,
            }
        table, exact = analysis(sys, sig, spec["window"])
        return {
            "exit": 0,
            "value": frame_sum(sys, sig),
            "signal_norm_sq": sig.norm_sq(),
            "table": table,
            "exact": exact,
        }
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# comparison


class Problems(list):
    def close(self, label, got, want, scale=None):
        scale = abs(want) if scale is None else scale
        if got is None or not abs(got - want) <= RTOL * max(scale, 1e-300):
            self.append(f"{label}: got {got!r}, reference {want!r}")

    def equal(self, label, got, want):
        if got != want:
            self.append(f"{label}: got {got!r}, reference {want!r}")


def _matrix_from(obj) -> np.ndarray:
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in obj])


def _close_arrays(probs, label, got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
    if got.shape != want.shape:
        probs.append(f"{label}: shape {got.shape}, reference {want.shape}")
    elif not np.all(np.abs(got - want) <= RTOL * scale):
        probs.append(f"{label}: off by {float(np.max(np.abs(got - want))):.3g}")


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))[1:]


class SchemaSet:
    """Validators for the shipped ``schemas/*.schema.json`` files."""

    def __init__(self, schema_dir: Path):
        self.dir = Path(schema_dir)
        self.cache = {}

    def validate(self, report: dict, kind: str) -> None:
        if kind not in self.cache:
            schema = json.loads((self.dir / f"{kind}.schema.json").read_text(encoding="utf-8"))
            self.cache[kind] = jsonschema.Draft202012Validator(schema)
        self.cache[kind].validate(report)


def check(job, ref: dict, rc: int, files: dict, schemas: SchemaSet) -> list:
    """Disagreements between a job's exit code and output files and its reference."""
    probs = Problems()
    probs.equal("exit code", rc, ref["exit"])
    try:
        report = json.loads(files["json"])
        schemas.validate(report, job.kind)
    except (KeyError, ValueError, jsonschema.ValidationError) as exc:
        probs.append(f"report: {type(exc).__name__}: {str(exc)[:200]}")
        return probs
    kind, spec = job.kind, job.spec
    if kind == "bounds":
        scale = ref["b_est"]
        probs.equal("verdict", report["verdict"], ref["verdict"])
        probs.equal("feasible", report["feasible"], ref["feasible"])
        probs.equal("grid", report["grid"], spec["grid"])
        probs.close("a_est", report["a_est"], ref["a_est"], scale)
        probs.close("b_est", report["b_est"], ref["b_est"])
        known = spec.get("known")
        if known:
            for key, value in known.items():
                probs.close(f"known {key}", report[key], value, 1.0)
        rows = _rows(files["csv"])
        curve = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 3)
        _close_arrays(probs, "curve x", curve[:, 0], ref["xs"])
        _close_arrays(probs, "curve sigma_min", curve[:, 1], ref["smin"])
        _close_arrays(probs, "curve sigma_max", curve[:, 2], ref["smax"])
    elif kind == "gamma":
        _close_arrays(probs, "sample_matrix", _matrix_from(report["sample_matrix"]), ref["sample_matrix"])
        _close_arrays(probs, "gram", _matrix_from(report["gram"]), ref["gram"])
        _close_arrays(probs, "singular_values", report["singular_values"], ref["singular_values"])
        for label, value in (("identity_residual", report["identity_residual"]),
                             ("reference identity residual", ref["identity_residual"])):
            if value is None or not 0 <= value <= 1e-8:
                probs.append(f"{label}: {value!r} exceeds 1e-8")
    elif kind == "perturb":
        for key in ("epsilon_measured", "condition_value", "new_lower", "new_upper"):
            probs.close(key, report[key], ref[key])
        for key in ("condition_holds", "epsilon_below_condition_value"):
            probs.equal(key, report[key], ref[key])
    elif kind == "bessel":
        probs.close("sup_norm", report["sup_norm"], ref["sup_norm"])
        probs.close("sufficient_bound", report["sufficient_bound"], ref["sufficient_bound"])
        nec = report["necessary"] or {}
        probs.close("proof_constant", nec.get("proof_constant"), ref["proof_constant"])
        probs.close("stated_constant", nec.get("stated_constant"), ref["stated_constant"])
    elif kind == "framesum":
        probs.close("value", report["value"], ref["value"])
        probs.close("signal_norm_sq", report["signal_norm_sq"], ref["signal_norm_sq"])
        if spec["spectral"]:
            probs.close("entrywise_value", report["entrywise_value"], ref["entrywise_value"])
            trunc = report["truncated"] or {}
            probs.close("truncated value", trunc.get("value"), ref["truncated"], ref["value"])
            probs.close("tail_bound", trunc.get("tail_bound"), ref["tail_bound"])
            if not ref["value"] - ref["truncated"] <= ref["tail_bound"]:
                probs.append("reference tail bound does not cover the truncation gap")
        else:
            table = ref["table"]
            probs.equal("analysis_exact", report["analysis_exact"], ref["exact"])
            probs.equal("coefficient_count", report["coefficient_count"], len(table))
            probs.close("coefficient_norm_sq", report["coefficient_norm_sq"], ref["value"])
            got = {(int(s), int(l), int(j)): complex(float(re), float(im))
                   for s, l, j, re, im in _rows(files["coeffs"])}
            if set(got) != set(table):
                probs.append(f"coefficient keys differ: {len(got)} vs {len(table)} reference")
            else:
                scale = max((abs(c) for c in table.values()), default=1.0)
                _close_arrays(probs, "coefficients", [got[key] / scale for key in table],
                              [table[key] / scale for key in table])
    return probs

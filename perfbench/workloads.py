"""Seeded workloads: input files plus the CLI jobs that run on them.

A workload is a fixed list of job shapes.  The seed draws every matrix
entry, support position, lattice parameter ``r``, base frequency and
certificate constant, but never a size, so the cost of a round of jobs is
the same for every seed.  The program under test sees only the files
written here.

Why each workload exists, and which layers it loads, is documented in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import model
import reference
from model import System


@dataclass
class Job:
    id: int
    kind: str  # the CLI subcommand
    label: str  # shape summary, for reports
    argv: list
    inputs: dict  # role -> path relative to the work directory ("system" / "signal")
    outputs: dict  # "json" / "csv" / "coeffs" -> relative path
    spec: dict  # benchmark-side objects and parameters for the reference
    work: dict = field(default_factory=dict)  # counts computed from the shape


class Workload:
    """Writes a workload's input files and collects its jobs."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        (self.dir / "in").mkdir(parents=True, exist_ok=True)
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        self.jobs: list = []
        self.files = 0
        self.sizes: dict = {}

    def _write(self, prefix: str, obj) -> str:
        rel = f"in/{prefix}{self.files:03d}.json"
        self.files += 1
        self.sizes[rel] = model.write_json(self.dir / rel, obj)
        return rel

    def system_file(self, sys: System) -> str:
        return self._write("sys", model.system_json(sys))

    def signal_file(self, sig) -> str:
        obj = model.step_json(sig) if isinstance(sig, model.Step) else model.seq_json(sig)
        return self._write("sig", obj)

    def add(self, kind, label, args, inputs, outputs, spec, work=None) -> Job:
        """Register ``nuframe KIND ARGS`` plus one output flag per ``outputs`` entry;
        ``inputs`` maps each input file's role to its path."""
        jid = len(self.jobs)
        outs = {key: f"out/j{jid:03d}.{ext}" for key, ext in outputs.items()}
        argv = [kind, *args]
        for key, path in outs.items():
            argv += [f"--{key}", path]
        work = dict(work or {})
        work["serialize.bytes_in"] = sum(self.sizes[p] for p in inputs.values())
        job = Job(jid, kind, label, argv, dict(inputs), outs, spec, work)
        self.jobs.append(job)
        return job

    # -- job kinds ----------------------------------------------------------

    def bounds(self, sys: System, grid: int, label: str, known=None, path=None):
        path = path or self.system_file(sys)
        return self.add(
            "bounds", f"bounds {label} grid={grid}", [path, "--grid", str(grid)],
            {"system": path}, {"json": "json", "csv": "csv"},
            {"system": sys, "grid": grid, "known": known},
        )

    def gamma(self, sys: System, signal, label: str, nodes: int = 128):
        m = int(self.rng.integers(1, sys.n + 1))
        k = int(self.rng.integers(1, sys.n + 1))
        x = float(self.rng.uniform(0.0, 1.0 / (4 * sys.N)))
        sig_path = self.signal_file(signal)
        sys_path = self.system_file(sys)
        return self.add(
            "gamma", f"gamma {label}",
            [sys_path, "--x", repr(x), "--m", str(m), "--k", str(k), "--check-identity",
             "--signal", sig_path, "--nodes", str(nodes)],
            {"system": sys_path, "signal": sig_path}, {"json": "json"},
            {"system": sys, "signal": signal, "m": m, "k": k, "x": x, "nodes": nodes},
        )

    def perturb(self, ref_path, F, cand_path, G, mode, grid, label, holds: bool):
        """Certificate job whose constant ``a0`` puts the condition clearly on
        the side ``holds`` (a factor 2 to 4 away from the threshold)."""
        b0 = float(np.round(self.rng.uniform(2.0, 8.0), 6))
        cond = reference.perturb_expected(F, G, mode, 1.0, b0, grid)["condition_value"]
        factor = self.rng.uniform(2.0, 4.0)
        a0 = float(cond * factor if holds else cond / factor)
        return self.add(
            "perturb", f"perturb {mode} {label} grid={grid}",
            [ref_path, cand_path, "--mode", mode, "--a0", repr(a0), "--b0", repr(b0),
             "--grid", str(grid)],
            {"system": ref_path, "candidate": cand_path}, {"json": "json"},
            {"reference": F, "candidate": G, "mode": mode, "a0": a0, "b0": b0, "grid": grid},
            {"perturb.grid_points": 2 * grid * F.p},
        )

    def bessel(self, sys: System, grid: int, label: str):
        b0 = float(np.round(self.rng.uniform(1.0, 64.0), 6))
        path = self.system_file(sys)
        return self.add(
            "bessel", f"bessel {label} grid={grid}",
            [path, "--grid", str(grid), "--b0", repr(b0)],
            {"system": path}, {"json": "json"},
            {"system": sys, "grid": grid, "b0": b0},
        )

    def framesum(self, sys: System, signal, label: str, window=8, truncate=200):
        spectral = isinstance(signal, model.Step)
        sys_path, sig_path = self.system_file(sys), self.signal_file(signal)
        flags = ["--spectral", "--truncate", str(truncate)] if spectral else ["--window", str(window)]
        outputs = {"json": "json"} if spectral else {"json": "json", "coeffs": "csv"}
        return self.add(
            "framesum", f"framesum {label}", [sys_path, sig_path, *flags],
            {"system": sys_path, "signal": sig_path}, outputs,
            {"system": sys, "signal": signal, "spectral": spectral, "window": window,
             "truncate": truncate},
        )

    # -- systems ------------------------------------------------------------

    def random_bounds(self, N, n, p, support, grid, twins=False):
        """Sweep job on a seeded system.  With ``twins`` the envelopes come in
        scaled pairs, so ``T(x)`` has rank at most ``p`` and a feasible shape
        still sweeps to a singular minimum.  Systems whose reference minimum
        lies near the singular floor are redrawn, so the verdict never hangs
        on rounding."""
        while True:
            if twins:
                base = model.random_system(self.rng, N, n, p // 2, support)
                pairs = [model.scaled_copy(e, complex(*self.rng.standard_normal(2)))
                         for e in base.envelopes]
                sys = System(N, base.r, n, base.envelopes + pairs)
            else:
                sys = model.random_system(self.rng, N, n, p, support)
            ref = reference.sweep(sys, grid)
            if not 1e-14 < ref["a_est"] < 1e-6:
                break
        job = self.bounds(sys, grid, f"N={N} n={n} p={p}")
        job.spec["sweep"] = ref
        return job


# ---------------------------------------------------------------------------
# the three workloads


def sweep(w: Workload) -> None:
    """Singular-value sweeps (``bounds``) and sampling-identity checks (``gamma``)."""
    onb_path = w.system_file(model.onb())
    exam_path = w.system_file(model.exam1())
    for grid in (1024, 128, 32):
        w.bounds(model.onb(), grid, "onb", {"a_est": 1.0, "b_est": 1.0}, onb_path)
    for grid in (256, 64, 32):
        w.bounds(model.exam1(), grid, "exam1", {"a_est": 0.0, "b_est": 6.0}, exam_path)
    # (N, n, p, support, grid, twins).  2p >= 4N n^2 decides feasibility; the
    # shapes make verdicts 0 (frame), 2 (bessel_only) and 3 (rank_deficient)
    # all occur.
    shapes = [
        (1, 1, 3, (2, 8), 256, False),
        (1, 1, 2, (2, 8), 512, True),
        (2, 1, 6, (2, 8), 128, False),
        (2, 1, 8, (2, 8), 64, True),
        (5, 1, 12, (2, 8), 32, False),
        (11, 1, 6, (2, 8), 32, False),
        (1, 2, 10, (2, 8), 64, False),
        (2, 2, 16, (2, 6), 32, False),
        (2, 2, 32, (2, 4), 32, True),
        (5, 2, 20, (2, 4), 32, False),
        (11, 2, 4, (2, 8), 32, False),
        (1, 4, 32, (2, 6), 32, False),
        (2, 4, 64, (2, 8), 32, False),
        (5, 4, 16, (2, 4), 32, False),
        (1, 1, 2, (2, 8), 64, False),
        (1, 1, 4, (2, 8), 64, False),
        (1, 1, 2, (2, 4), 128, True),
        (2, 1, 4, (2, 8), 32, False),
        (2, 1, 2, (2, 8), 32, False),
        (1, 2, 8, (2, 4), 32, False),
        (1, 2, 4, (2, 6), 32, False),
        (2, 2, 8, (2, 4), 32, False),
        (5, 1, 10, (2, 4), 32, False),
        (1, 4, 8, (2, 3), 32, False),
    ]
    for N, n, p, support, grid, twins in shapes:
        w.random_bounds(N, n, p, support, grid, twins)
    # (N, n, p, signal support); envelope supports 2-8
    for N, n, p, sig_support in [(1, 1, 2, 5), (1, 1, 2, 30), (2, 1, 2, 10), (2, 2, 2, 20),
                                 (1, 2, 2, 30), (3, 1, 2, 15), (1, 1, 2, 10), (2, 1, 2, 5),
                                 (1, 2, 2, 10), (2, 2, 2, 5)]:
        sys = model.random_system(w.rng, N, n, p, (2, 8))
        sig = model.random_seq(w.rng, N, sys.r, n, sig_support, 2 * sig_support)
        w.gamma(sys, sig, f"N={N} n={n} p={p} support={sig_support}")


def audit(w: Workload) -> None:
    """Perturbation certificates (``perturb``) and Bessel bounds (``bessel``)."""
    exam = model.exam1()
    exam_path = w.system_file(exam)
    for fixed in (False, True):
        G = model.exam1_perturbed(fixed)
        g_path = w.system_file(G)
        for mode in ("absolute", "relative"):
            # only the sign-fixed reading is small enough to certify
            w.perturb(exam_path, exam, g_path, G, mode, 1024,
                      f"exam1 g3_sign_fixed={fixed}", holds=fixed and mode == "absolute")
    # (N, n, p, grid): seeded pairs near -F (absolute mode) and near F (relative
    # mode); the condition holds on half of them and fails on the other half.
    pairs = [(1, 1, 1, 4096), (2, 1, 2, 1024), (1, 2, 1, 2048), (5, 1, 1, 1024),
             (2, 2, 2, 1024), (1, 1, 2, 2048), (1, 1, 1, 1024), (2, 1, 1, 1024),
             (1, 2, 1, 1024), (3, 1, 1, 1024)]
    for i, (N, n, p, grid) in enumerate(pairs):
        F = model.random_system(w.rng, N, n, p, (1, 3))
        f_path = w.system_file(F)
        for mode in ("absolute", "relative"):
            sign = -1.0 if mode == "absolute" else 1.0
            G = System(N, F.r, n, [
                model.Seq(N, F.r, n, f.points,
                          sign * f.mats + 1e-2 * model.random_matrices(w.rng, len(f.points), n))
                for f in F.envelopes
            ])
            w.perturb(f_path, F, w.system_file(G), G, mode, grid,
                      f"N={N} n={n} p={p}", holds=(i + (mode == "relative")) % 2 == 0)
    for N, n, p in [(1, 1, 2), (2, 2, 8), (5, 1, 12), (11, 2, 16), (2, 4, 64), (11, 4, 8),
                    (1, 1, 4), (2, 1, 6), (3, 2, 4), (5, 2, 8), (1, 4, 16), (2, 2, 32)]:
        w.bessel(model.random_system(w.rng, N, n, p, (2, 8)), 4096, f"N={N} n={n} p={p}")
    w.bessel(exam, 4096, "exam1")
    for N in (2, 3, 5):
        r = int(w.rng.choice(model.admissible_r(N)))
        w.bessel(model.counterexample(N, r, 1.0), 4096, f"counterexample N={N}")


def framesum(w: Workload) -> None:
    """Exact frame sums: time-domain with analysis coefficients, and spectral."""
    shapes = [(1, 1, 2), (2, 2, 4), (3, 1, 3), (2, 1, 4)]
    for support, copies in [(10, 10), (20, 8), (40, 7), (60, 2), (80, 4), (160, 2), (300, 1)]:
        for c in range(copies):
            N, n, p = shapes[c % len(shapes)]
            sys = model.random_system(w.rng, N, n, p, (2, 8))
            sig = model.random_seq(w.rng, N, sys.r, n, support, 2 * support)
            w.framesum(sys, sig, f"support={support} N={N} n={n} p={p}")
    for N in (2, 3, 5, 2, 3, 5):
        r = int(w.rng.choice(model.admissible_r(N)))
        a0 = float(np.round(w.rng.uniform(0.25, 4.0), 6))
        ce = model.counterexample(N, r, a0)
        witness = ce.companions.pop("f_t")
        w.framesum(ce, witness, f"spectral counterexample N={N}")


FILLERS = {"sweep": sweep, "audit": audit, "framesum": framesum}
NAMES = tuple(FILLERS)


def generate(name: str, seed: int, workdir: Path) -> list:
    """Write workload ``name``'s inputs for ``seed`` under ``workdir``; return its jobs."""
    w = Workload(seed, workdir)
    FILLERS[name](w)
    return w.jobs

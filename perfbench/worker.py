"""Worker process: runs the CLI jobs of a plan in-process, in a closed loop.

    python3 worker.py PLAN RESULT

The parent starts it in a fresh interpreter with BLAS and OpenMP pinned to
one thread and the working directory set to the run's work directory.  One
client: the next job starts only when the previous one has returned.  A
round runs every job of the plan once, in plan order.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from calibration import calibrate, calibrated, job_medians
from setup_probe import import_cli
from tracer import LAYERS, Tracer


def run_job(cli, job: dict) -> tuple:
    """Run one CLI invocation; returns (wall seconds, exit code, output digests)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.run(job["argv"])
        wall = time.perf_counter() - t0
    digests = {}
    for key, path in job["outputs"].items():
        try:
            digests[key] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except FileNotFoundError:
            digests[key] = None
    return wall, rc, digests


class Loop:
    def __init__(self, cli, plan: dict):
        self.cli = cli
        self.plan = plan
        self.jobs = plan["jobs"]
        self.first: dict = {}  # job id -> digests of its first run; files kept under first/
        self.records: list = []  # [job id, round, wall, exit code, digests, calibrated wall]
        Path("first").mkdir(exist_ok=True)

    def execute(self, job: dict, round_no: int) -> float:
        before = calibrate()
        wall, rc, digests = run_job(self.cli, job)
        after = calibrate()
        if job["id"] not in self.first:
            self.first[job["id"]] = digests
            for path in job["outputs"].values():
                if Path(path).exists():
                    os.replace(path, f"first/{Path(path).name}")
        self.records.append([job["id"], round_no, wall, rc, digests,
                             calibrated(wall, before, after)])
        gc.collect()  # outside the timed region: each job starts on a clean heap
        return wall

    def rounds(self, seconds: float, min_rounds: int) -> int:
        """Whole rounds until ``seconds`` of job wall time and ``min_rounds``."""
        done = 0
        wall = 0.0
        while wall < seconds or done < min_rounds:
            for job in self.jobs:
                wall += self.execute(job, done)
            done += 1
        return done


def traced_rounds(loop: Loop, rounds: int) -> tuple:
    tracer = Tracer()
    start = len(loop.records)
    tracer.install()
    try:
        for r in range(rounds):
            for job in loop.jobs:
                tracer.job = len(loop.records) - start
                loop.execute(job, 1000 + r)  # traced rounds are numbered from 1000
                paths = [Path(p) for p in job["outputs"].values()]
                tracer.count("serialize.bytes_out", sum(p.stat().st_size for p in paths if p.exists()))
                if job["kind"] == "framesum":
                    report = json.loads(Path(job["outputs"]["json"]).read_text(encoding="utf-8"))
                    tracer.count("frame.coefficients", report["coefficient_count"] or 0)
    finally:
        tracer.uninstall()
    return tracer, loop.records[start:]


def summarize(tracer: Tracer, records: list, plan: dict) -> dict:
    """Per-layer metrics: medians over the traced job runs that touch each name."""
    jobs = len(records)
    calls, selfs = tracer.per_job(jobs)
    ids = tracer.name_ids
    out = {"metrics": {}, "absent": [], "layers": {}}

    def median_where(values, mask) -> float:
        return float(np.median(values[mask])) if mask.any() else 0.0

    def function(name: str, members: list) -> None:
        if not any(m in tracer.present for m in members):
            out["absent"].append(name)
        cols = [ids[m] for m in members if m in ids]
        c = calls[:, cols].sum(axis=1)
        s = selfs[:, cols].sum(axis=1)
        out["metrics"][f"{name}.calls"] = median_where(c, c > 0)
        out["metrics"][f"{name}.self_s"] = median_where(s, c > 0)

    for name in plan["trace_functions"]:
        function(name, [name])
    for name, members in plan["trace_groups"].items():
        function(name, members)
    counters: dict = {}
    for (job, counter), value in tracer.counts.items():
        counters.setdefault(counter, np.zeros(jobs))[job] += value
    work = {j["id"]: j["work"] for j in plan["jobs"]}
    for i, (jid, *_rest) in enumerate(records):
        for counter, value in work[jid].items():
            counters.setdefault(counter, np.zeros(jobs))[i] += value
    for counter in plan["trace_counters"]:
        values = counters.get(counter, np.zeros(jobs))
        out["metrics"][counter] = median_where(values, values > 0)
    job_wall = sum(rec[2] for rec in records) or 1.0
    for layer in LAYERS:
        cols = [i for name, i in ids.items() if name.split(".")[0] == layer]
        out["layers"][layer] = float(selfs[:, cols].sum()) / job_wall
    out["spans"] = len(tracer.start)
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nuframe_threads": os.environ.get("NUFRAME_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main_run(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cli = import_cli(plan["src"])
    loop = Loop(cli, plan)
    for jid in plan["warmup"]:
        loop.execute(plan["jobs"][jid], -1)
    result = {"environment": environment()}
    if plan["trace"]:
        # Untraced rounds, then at most two traced rounds (millions of spans
        # each); the ratio of their calibrated job times is the overhead.
        rounds = loop.rounds(plan["seconds"] / 2.0, 1)
        untraced = [rec for rec in loop.records if rec[1] >= 0]
        tracer, traced = traced_rounds(loop, min(rounds, 2))
        tracer.save(plan["spans"])
        result["trace"] = summarize(tracer, traced, plan)
        overhead = sum(job_medians(traced).values()) / sum(job_medians(untraced).values())
        result["trace"]["metrics"]["trace.overhead"] = overhead - 1.0
    else:
        loop.rounds(plan["seconds"], plan["min_rounds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = loop.records
    result["first"] = loop.first
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main_run(sys.argv[1], sys.argv[2])

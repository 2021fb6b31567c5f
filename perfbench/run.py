"""nuframe benchmark: seeded CLI workloads timed end to end, and traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  A run generates the workload's input files from the seed,
computes an independent reference for every job (untimed), and starts one
worker process that calls ``nuframe.cli.run(argv)`` in a closed loop with
one client, repeating the workload's jobs in rounds for ``--seconds``.
Fresh interpreters time the start-up before and after.  Every output is
checked against its reference.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Pin BLAS and OpenMP before NumPy loads, here and in every child process.
# NUFRAME_THREADS stays unset so the library runs its default serial sweep.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED)
os.environ.pop("NUFRAME_THREADS", None)

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import NOMINAL_S, calibrate, calibrated, job_medians  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs beyond it
SETUP_RUNS = 8  # fresh interpreters per run, half before and half after the timed rounds
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose per-job self time and call count the traced run reports.
TRACE_FUNCTIONS = [
    "signal.spectrum_value", "signal.fourier_eval", "lattice.lambda_value",
    "gamma.stacked_operator", "gamma.signal_sample_stack", "gamma.sampling_identity_residual",
    "bounds.eigvalsh", "bounds.frame_bounds_gamma",
    "perturb.check_absolute", "perturb.check_relative", "signal.frobenius_norm",
    "signal.fourier_eval_grid", "bounds.envelope_sup_norm",
    "frame.frame_sum", "frame.analysis",
    "signal.step_inner", "lattice.omega_cells",
    "frame.frame_sum_spectral_truncated", "frame.frame_sum_spectral",
    "reports.validate_report", "reports.provenance", "cli.run",
]
TRACE_GROUPS = {
    "serialize.load": ["serialize.load_any", "serialize.load_system", "serialize.load_signal"],
    "serialize.write": ["serialize.canonical_dumps", "serialize.coefficients_to_csv",
                        "serialize.curve_to_csv"],
}
TRACE_COUNTERS = {
    "bounds.eigvalsh.bytes": "bytes",
    "perturb.grid_points": "count",
    "frame.coefficients": "count",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
}


def per_layer_units() -> dict:
    units = {}
    for name in TRACE_FUNCTIONS + list(TRACE_GROUPS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(TRACE_COUNTERS)
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_times(plan_path: Path, workdir: Path, runs: int) -> list:
    """Calibrated wall times of fresh interpreters importing nuframe.cli and
    decoding every input."""
    times = []
    for _ in range(runs):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(plan_path)],
                                cwd=workdir)
        # Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the measurement; wait blocking and let a timer kill a hang.
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        times.append(calibrated(wall, before, calibrate()))
        if rc != 0:
            fail(f"setup probe exited with code {rc}")
    return times


def end_to_end(per_job: dict, setups: list, peak_rss_mb: float) -> tuple:
    """Metrics over the workload's jobs, each job timed by its median
    calibrated run; returns them with the tail percentile."""
    ordered = sorted(per_job.values())
    n = len(ordered)
    metrics = {
        "jobs_per_s": n / sum(ordered),
        "job_p50_s": statistics.median(ordered),
        "job_tail_s": ordered[n - TAIL_BEYOND - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, 100.0 * (n - TAIL_BEYOND) / n


def check_jobs(jobs: list, refs: dict, result: dict, workdir: Path) -> tuple:
    """Job ids of the failed runs, and notes on the first problems found.

    A run fails when its exit code differs from the reference, when its
    bytes differ from the job's first run, or when the first run's report
    fails its schema or is off the reference.
    """
    schemas = reference.SchemaSet(SRC / "nuframe" / "schemas")
    bad_content = {}
    for job in jobs:
        files = {}
        for key, path in job.outputs.items():
            kept = workdir / "first" / Path(path).name
            if kept.exists():
                files[key] = kept.read_text(encoding="utf-8")
        first_rc = next(rec[3] for rec in result["records"] if rec[0] == job.id)
        problems = reference.check(job, refs[job.id], first_rc, files, schemas)
        if problems:
            bad_content[job.id] = problems
    failures = []
    unstable = 0
    for jid, _round, _wall, rc, digests, *_ in result["records"]:
        if digests != result["first"][str(jid)] or rc != refs[jid]["exit"]:
            unstable += 1
            failures.append(jid)
        elif jid in bad_content:
            failures.append(jid)
    notes = [f"job {jid} ({jobs[jid].label}): {'; '.join(p[:3])}" for jid, p in bad_content.items()]
    if unstable:
        notes.append(f"{unstable} runs differ from their job's first run or reference exit code")
    return failures, notes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "nuframe" / "cli.py").is_file():
        fail(f"no library sources at {SRC / 'nuframe'}; run from a source checkout")
    out_root = ROOT / ".bench_build" / "perfbench"
    workdir = out_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        report(args, workdir, out_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workdir: Path, out_root: Path) -> None:
    t0 = time.perf_counter()
    jobs = workloads.generate(args.workload, args.seed, workdir)
    refs = {job.id: reference.expected(job) for job in jobs}
    prep_s = time.perf_counter() - t0

    first_of_kind = {}
    for job in jobs:
        first_of_kind.setdefault(job.kind, job.id)
    plan = {
        "src": str(SRC),
        "seconds": args.seconds,
        "min_rounds": MIN_ROUNDS,
        "trace": bool(args.trace),
        "spans": str(out_root / f"spans-{args.workload}.npz"),
        "warmup": sorted(first_of_kind.values()),
        "jobs": [{"id": j.id, "kind": j.kind, "argv": j.argv, "outputs": j.outputs,
                  "work": j.work} for j in jobs],
        "inputs": {path: ("signal" if role == "signal" else "system")
                   for j in jobs for role, path in j.inputs.items()},
        "trace_functions": TRACE_FUNCTIONS,
        "trace_groups": TRACE_GROUPS,
        "trace_counters": list(TRACE_COUNTERS),
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    probes = 0 if args.trace else SETUP_RUNS // 2
    setups = setup_times(plan_path, workdir, probes)
    result_path = workdir / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        cwd=workdir, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    setups += setup_times(plan_path, workdir, probes)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    failures, notes = check_jobs(jobs, refs, result, workdir)
    records = result["records"]
    attempted = len(records)
    env = result["environment"]
    rounds = len({rec[1] for rec in records if rec[1] >= 0})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs per round, {rounds} rounds, {attempted} runs, "
          f"{len(failures)} failed (inputs and references {prep_s:.2f} s)")
    print(f"environment: blas={env['blas']} threads={env['threads']} "
          f"NUFRAME_THREADS={env['nuframe_threads']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    for note in notes[:10]:
        print(f"FAIL {note}")

    if args.trace:
        trace = result["trace"]
        metrics = dict(trace["metrics"])
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = trace["layers"][layer]
        ranked = sorted(trace["layers"].items(), key=lambda kv: -kv[1])
        print("self-time share by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
        print(f"dominant layer: {ranked[0][0]}; {trace['spans']} spans; "
              f"trace.overhead {metrics['trace.overhead']:.3f}")
        if trace["absent"]:
            print("absent (reported as 0): " + ", ".join(trace["absent"]))
        units = per_layer_units()
    else:
        per_job = job_medians(records)
        metrics, pct = end_to_end(per_job, setups, result["peak_rss_mb"])
        n = len(per_job)
        error_rate = len(failures) / attempted
        print(f"  jobs_per_s   {metrics['jobs_per_s']:.4f} 1/s  "
              f"({n} jobs, each the median of {rounds} rounds)")
        print(f"  job_p50_s    {metrics['job_p50_s']:.6f} s    (n={n})")
        print(f"  job_tail_s   {metrics['job_tail_s']:.6f} s    "
              f"(p{pct:.0f}, n={n}, {TAIL_BEYOND} jobs beyond)")
        print(f"  setup_s      {metrics['setup_s']:.6f} s    "
              f"(median of {len(setups)} fresh interpreters)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   (worker process)")
        print(f"  error_rate   {error_rate:.4f}        ({len(failures)} of {attempted} runs)")
        print(f"  times are calibrated to a {NOMINAL_S * 1e3:g} ms kernel; raw job wall "
              f"time {sum(rec[2] for rec in records if rec[1] >= 0):.1f} s")
        units = END_TO_END

    (out_root / f"last-{args.workload}-t{args.trace}.json").write_text(json.dumps({
        "args": vars(args), "environment": env, "metrics": metrics, "failures": failures,
        "notes": notes, "setup_runs_s": setups,
        "jobs": [[j.id, j.label] for j in jobs], "records": records,
    }), encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark: its references, its tracer and its contract.

    python3 -m pytest perfbench/tests -q

The traced-run tests start the benchmark itself, one short run per
workload (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import model  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from nuframe import fixtures, serialize  # noqa: E402
from nuframe.signal import seq_equal, step_equal  # noqa: E402


def _decode(sys_model):
    return serialize.load_any(json.loads(json.dumps(model.system_json(sys_model))))


def _same_system(ours, theirs) -> bool:
    equal = step_equal if theirs.spectral else seq_equal
    return ours.lattice == theirs.lattice and all(
        equal(a, b) for a, b in zip(ours.envelopes, theirs.envelopes, strict=True)
    )


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", ["exam1", "exam1-perturbed", "onb", "counterexample"])
def test_transcribed_fixtures_match_the_library(name):
    theirs, companions = fixtures.build_fixture(name, N=3, r=5, a0=0.5)
    ours = {
        "exam1": model.exam1(),
        "exam1-perturbed": model.exam1_perturbed(False),
        "onb": model.onb(),
        "counterexample": model.counterexample(3, 5, 0.5),
    }[name]
    decoded, decoded_companions = _decode(ours)
    assert _same_system(decoded, theirs)
    for key, value in companions.items():
        assert step_equal(decoded_companions[key], value)


def test_sign_fixed_reading_matches_the_library():
    decoded, _ = _decode(model.exam1_perturbed(True))
    assert _same_system(decoded, fixtures.exam1_perturbed(g3_sign_fixed=True))


def test_reference_reproduces_known_values():
    onb = reference.sweep(model.onb(), 64)
    assert abs(onb["a_est"] - 1) < 1e-12 and abs(onb["b_est"] - 1) < 1e-12
    exam = reference.sweep(model.exam1(), 64)
    assert exam["verdict"] == "rank_deficient" and abs(exam["b_est"] - 6) < 1e-12
    for N in (2, 3, 5):
        ce = model.counterexample(N, model.admissible_r(N)[-1], 0.7)
        trunc, tail = reference.step_truncated(ce, ce.companions["f_t"], 200)
        assert 0 <= 2.0 / N - trunc <= tail
    rng = np.random.default_rng(7)
    f = model.random_seq(rng, 1, 1, 1, 12, 20)
    assert abs(reference.frame_sum(model.onb(), f) - f.norm_sq()) < 1e-9 * f.norm_sq()


def test_reference_frame_sum_agrees_with_the_test_suite_oracle():
    from tests.oracles import brute_frame_sum

    rng = np.random.default_rng(11)
    for N, n in ((1, 1), (2, 2), (3, 1)):
        sys_model = model.random_system(rng, N, n, 3, (2, 5))
        f = model.random_seq(rng, N, sys_model.r, n, 9, 12)
        system, _ = _decode(sys_model)
        signal = serialize.load_signal(json.loads(json.dumps(model.seq_json(f))))
        want = brute_frame_sum(system, signal, l_window=30)
        assert abs(reference.frame_sum(sys_model, f) - want) <= 1e-10 * want


def test_tracer_wraps_every_binding_and_restores_them():
    import nuframe.bounds
    import nuframe.cli
    import nuframe.gamma
    import nuframe.signal

    original = nuframe.signal.spectrum_value
    t = tracer.Tracer()
    t.install()
    try:
        assert nuframe.gamma.spectrum_value is nuframe.signal.spectrum_value
        assert nuframe.gamma.spectrum_value is not original
        assert nuframe.cli.frame_bounds_gamma is nuframe.bounds.frame_bounds_gamma
        t.job = 0
        nuframe.cli.frame_bounds_gamma(fixtures.onb_fixture(), 8)
        np.linalg.eigvalsh(np.eye(2))  # not from nuframe.bounds: no span
    finally:
        t.uninstall()
    assert nuframe.signal.spectrum_value is original
    assert nuframe.gamma.spectrum_value is original
    calls, _ = t.per_job(1)
    count = {name: int(calls[0, i]) for name, i in t.name_ids.items()}
    assert count["bounds.frame_bounds_gamma"] == 1
    assert count["gamma.stacked_operator"] == 8
    assert count["signal.spectrum_value"] == 8 * 2 * 4
    assert count["bounds.eigvalsh"] == 8
    # onb: T(x) is 4 x 4, so each call reads a 4 x 4 complex Gram, writes 4 floats
    assert t.counts[(0, "bounds.eigvalsh.bytes")] == 8 * (16 * 16 + 4 * 8)


def test_a_deleted_function_is_reported_absent(monkeypatch):
    import nuframe.signal

    monkeypatch.delattr(nuframe.signal, "spectrum_value")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    plan = {"trace_functions": ["signal.spectrum_value", "signal.fourier_eval"],
            "trace_groups": {}, "trace_counters": [], "jobs": []}
    out = worker.summarize(t, [], plan)
    assert out["absent"] == ["signal.spectrum_value"]
    assert out["metrics"]["signal.spectrum_value.calls"] == 0.0


# Each row of the per-layer table names the workload whose traced run must
# record its calls (or its computed count).
LAYER_ROWS = {
    "sweep": ["signal.spectrum_value.calls", "signal.fourier_eval.calls",
              "lattice.lambda_value.calls", "gamma.stacked_operator.calls",
              "gamma.signal_sample_stack.calls", "gamma.sampling_identity_residual.calls",
              "bounds.eigvalsh.calls", "bounds.eigvalsh.bytes",
              "bounds.frame_bounds_gamma.calls", "frame.frame_sum.calls"],
    "audit": ["signal.spectrum_value.calls", "signal.fourier_eval.calls",
              "lattice.lambda_value.calls", "perturb.check_absolute.calls",
              "perturb.check_relative.calls", "signal.frobenius_norm.calls",
              "perturb.grid_points", "signal.fourier_eval_grid.calls",
              "bounds.envelope_sup_norm.calls"],
    "framesum": ["frame.frame_sum.calls", "frame.analysis.calls", "frame.coefficients",
                 "signal.step_inner.calls", "lattice.omega_cells.calls",
                 "frame.frame_sum_spectral_truncated.calls", "frame.frame_sum_spectral.calls",
                 "serialize.load.calls", "serialize.bytes_in", "serialize.write.calls",
                 "serialize.bytes_out", "reports.validate_report.calls",
                 "reports.provenance.calls", "cli.run.calls"],
}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in LAYER_ROWS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", list(LAYER_ROWS))
def test_each_layer_records_calls_on_its_workload(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    silent = [m for m in LAYER_ROWS[workload] if not result["metrics"][m]["value"] > 0]
    assert not silent


def _share(result, layer):
    return result["metrics"][f"{layer}.self_share"]["value"]


def test_predicted_dominant_layers(traced):
    for workload, dominant in (("sweep", ("signal", "lattice")),
                               ("audit", ("signal", "lattice")),
                               ("framesum", ("frame", "signal"))):
        result = traced[workload]
        top = sum(_share(result, layer) for layer in dominant)
        others = [_share(result, layer) for layer in run.LAYERS if layer not in dominant]
        assert top > max(others), workload
    for workload in ("sweep", "audit"):
        assert _share(traced[workload], "cli") < 0.10


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

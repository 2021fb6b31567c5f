import csv
import json
import math

import pytest

from nuframe.cli import run
from nuframe.reports import validate_report
from nuframe.serialize import canonical_dumps, seq_to_json
from nuframe import make_lattice, matrix_seq, LatticePoint
import numpy as np


@pytest.fixture
def exports(tmp_path):
    paths = {}
    for name in ("exam1", "exam1-perturbed", "onb", "counterexample"):
        out = tmp_path / f"{name}.json"
        assert run(["examples", "export", name, "--out", str(out)]) == 0
        paths[name] = str(out)
    return paths


def _signal_file(tmp_path):
    lat = make_lattice(2, 1)
    f = matrix_seq(
        lat,
        2,
        {
            LatticePoint(0, 0): np.array([[1.0, 0.5j], [0.0, -1.0]]),
            LatticePoint(1, 1): np.array([[0.25, 0.0], [1.0, 2.0]]),
        },
    )
    path = tmp_path / "signal.json"
    path.write_text(canonical_dumps(seq_to_json(f)))
    return str(path)


def test_examples_list(capsys):
    assert run(["examples", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["exam1", "exam1-perturbed", "counterexample", "onb"]


def test_export_files_validate_and_are_deterministic(tmp_path, exports):
    for name, path in exports.items():
        payload = json.loads(open(path).read())
        validate_report(payload, "fixture")
    again = tmp_path / "again.json"
    assert run(["examples", "export", "exam1", "--out", str(again)]) == 0
    assert open(again, "rb").read() == open(exports["exam1"], "rb").read()


def test_info_subcommand(exports, tmp_path, capsys):
    out = tmp_path / "info.json"
    assert run(["info", exports["exam1"], "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report, "info")
    assert report["object"] == "frame_system"
    assert report["p"] == 8 and report["form"] == "time"
    assert "N=2" in capsys.readouterr().out


def test_info_on_spectral_fixture(exports, tmp_path):
    out = tmp_path / "info.json"
    assert run(["info", exports["counterexample"], "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["form"] == "spectral"


def test_fourier_subcommand(exports, tmp_path, capsys):
    out = tmp_path / "fourier.json"
    code = run(
        ["fourier", exports["exam1"], "--x", "0.0", "--x", "0.125", "--envelope", "1", "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    validate_report(report, "fourier")
    first = report["values"][0]["matrix"]
    assert first[0][0] == {"re": 1.0, "im": 0.0}
    assert report["values"][0]["frobenius_norm"] == pytest.approx(2.0, abs=1e-12)


def test_fourier_on_signal_file(tmp_path, capsys):
    signal = _signal_file(tmp_path)
    assert run(["fourier", signal, "--x", "0.25"]) == 0
    assert "frobenius norm" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_fourier_rejects_non_finite_frequency(exports, tmp_path, capsys, bad):
    out = tmp_path / "fourier.json"
    for target in ("onb", "counterexample"):
        argv = ["fourier", exports[target], "--envelope", "1", f"--x={bad}", "--json", str(out)]
        assert run(argv) == 1
        payload = json.loads(capsys.readouterr().err)
        validate_report(payload, "error")
        assert payload["error"] == "E_FREQUENCY"
        assert not out.exists()


def test_examples_export_to_stdout(capsys):
    assert run(["examples", "export", "onb"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "fixture" and payload["name"] == "onb"


def test_fourier_requires_envelope_for_system(exports, capsys):
    assert run(["fourier", exports["exam1"], "--x", "0.1"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "E_NUFRAME"


def test_bessel_subcommand(exports, tmp_path):
    out = tmp_path / "bessel.json"
    assert run(["bessel", exports["exam1"], "--grid", "512", "--b0", "2048", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report, "bessel")
    assert report["sup_norm"] == pytest.approx(2.0, abs=1e-9)
    assert report["sufficient_bound"] == pytest.approx(2048.0, abs=1e-6)
    assert report["necessary"]["proof_constant"] == pytest.approx(128.0)
    assert report["necessary"]["stated_constant"] == 2050.0


def test_gamma_subcommand_json_and_csv(exports, tmp_path):
    out = tmp_path / "gamma.json"
    csv_out = tmp_path / "gamma.csv"
    code = run(
        ["gamma", exports["exam1"], "--x", "0.05", "--m", "1", "--k", "1",
         "--json", str(out), "--csv", str(csv_out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    validate_report(report, "gamma")
    gram_diag = [report["gram"][i][i]["re"] for i in range(8)]
    assert gram_diag == pytest.approx([12.0] * 8, abs=1e-9)
    rows = list(csv.reader(open(csv_out)))
    assert rows[0] == ["table", "i", "j", "re", "im"]
    tables = {row[0] for row in rows[1:]}
    assert tables == {"gamma", "gram", "sigma"}
    values = [float(row[3]) for row in rows[1:]]  # every cell parses as a float
    assert max(abs(v) for v in values) > 0


def test_gamma_identity_check(exports, tmp_path):
    signal = _signal_file(tmp_path)
    out = tmp_path / "gamma.json"
    code = run(
        ["gamma", exports["exam1"], "--x", "0.02", "--check-identity",
         "--signal", signal, "--nodes", "96", "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["identity_residual"] <= 1e-8
    assert report["nodes"] == 96


def test_bounds_exit_codes_and_csv(exports, tmp_path):
    out = tmp_path / "bounds.json"
    csv_out = tmp_path / "curve.csv"
    code = run(["bounds", exports["onb"], "--grid", "256", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    validate_report(report, "bounds")
    assert report["a_est"] == pytest.approx(1.0, abs=1e-9)
    assert report["b_est"] == pytest.approx(1.0, abs=1e-9)
    assert report["verdict"] == "frame"

    code = run(["bounds", exports["exam1"], "--grid", "64", "--json", str(out), "--csv", str(csv_out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["verdict"] == "rank_deficient"
    assert report["feasible"] is False
    rows = list(csv.reader(open(csv_out)))
    assert rows[0] == ["x", "sigma_min_sq_over_4N", "sigma_max_sq_over_4N"]
    assert len(rows) == 65


def test_bounds_on_step_spectrum_system(exports, tmp_path):
    out = tmp_path / "bounds.json"
    assert run(["bounds", exports["counterexample"], "--grid", "32", "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    validate_report(report, "bounds")
    assert report["verdict"] == "rank_deficient"
    assert report["b_est"] == pytest.approx(2.0, abs=1e-12)


def test_bounds_refine_reports(exports, tmp_path):
    out = tmp_path / "bounds.json"
    assert run(["bounds", exports["onb"], "--grid", "16", "--refine", "2", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    grids = [entry["grid"] for entry in report["refinements"]]
    assert grids == [16, 32, 64]
    assert report["refinements"][1]["delta_b"] is not None


def test_framesum_time_domain(exports, tmp_path):
    signal = _signal_file(tmp_path)
    out = tmp_path / "framesum.json"
    coeffs = tmp_path / "coeffs.csv"
    code = run(
        ["framesum", exports["exam1"], signal, "--window", "6", "--coeffs", str(coeffs), "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    validate_report(report, "framesum")
    assert report["spectral"] is False
    assert report["analysis_exact"] is True
    assert report["coefficient_norm_sq"] == pytest.approx(report["value"], rel=1e-12)
    assert open(coeffs).readline().strip() == "s,l,j,re,im"


def test_framesum_spectral(exports, tmp_path):
    ft = json.loads(open(exports["counterexample"]).read())["companions"]["f_t"]
    ft_path = tmp_path / "ft.json"
    ft_path.write_text(canonical_dumps(ft))
    out = tmp_path / "framesum.json"
    code = run(
        ["framesum", exports["counterexample"], str(ft_path), "--spectral",
         "--truncate", "100", "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    validate_report(report, "framesum")
    assert report["value"] == pytest.approx(1.0, abs=1e-12)  # 2/N at N=2
    assert report["entrywise_value"] == pytest.approx(0.5, abs=1e-12)
    gap = report["value"] - report["truncated"]["value"]
    assert 0 <= gap <= report["truncated"]["tail_bound"]


def test_perturb_subcommand(exports, tmp_path):
    out = tmp_path / "perturb.json"
    code = run(
        ["perturb", exports["exam1"], exports["exam1-perturbed"], "--mode", "absolute",
         "--a0", "1", "--b0", "2048", "--grid", "256", "--json", str(out)]
    )
    assert code == 4  # measured epsilon fails the certificate
    report = json.loads(out.read_text())
    validate_report(report, "perturb")
    assert report["epsilon_measured"] == pytest.approx(math.sqrt(2402) / 25, abs=1e-9)
    assert report["condition_holds"] is False

    code = run(
        ["perturb", exports["exam1"], exports["exam1"], "--mode", "relative",
         "--a0", "1", "--b0", "2048", "--grid", "64", "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["epsilon_measured"] == 0.0


def test_reports_are_byte_identical(exports, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["bounds", exports["onb"], "--grid", "64", "--json", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_error_payload_on_bad_lattice(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lattice": {"N": 2, "r": 2}, "n": 1, "entries": []}))
    assert run(["info", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "E_LATTICE"


def test_error_payload_on_missing_file(capsys):
    assert run(["info", "does-not-exist.json"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "E_NUFRAME"


def test_usage_error_exit_code(capsys):
    assert run(["bounds"]) == 1  # missing input
    assert run(["--version"]) == 0


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _no_lattice(tmp_path, exports):
    payload = json.loads(open(exports["exam1"]).read())
    del payload["system"]["lattice"]
    return _write(tmp_path, "no_lattice.json", payload)


def _duplicate_point(tmp_path, exports):
    payload = json.loads(open(exports["onb"]).read())
    record = payload["system"]["envelopes"][0][0]
    payload["system"]["envelopes"][0].append(
        {**record, "matrix": [[{"re": 9.0, "im": 0.0}]]}
    )
    return _write(tmp_path, "duplicate.json", payload)


# one case per break of the error contract: each once ended in a traceback,
# argparse usage text, a wrong code or a silent answer
CONTRACT_BREAKS = {
    "missing lattice key": (lambda t, e: ["info", _no_lattice(t, e)], "E_FORMAT"),
    "duplicate support point": (lambda t, e: ["info", _duplicate_point(t, e)], "E_FORMAT"),
    "negative witness amplitude": (
        lambda t, e: ["examples", "export", "counterexample", "--a0", "-1"], "E_PARAMETER"
    ),
    "argparse error": (lambda t, e: ["fourier", e["onb"], "--envelope", "1", "--x", "-inf"], "E_USAGE"),
    "bounds grid too small": (lambda t, e: ["bounds", e["onb"], "--grid", "2"], "E_PARAMETER"),
    "empty perturbation grid": (
        lambda t, e: ["perturb", e["exam1"], e["exam1-perturbed"], "--mode", "absolute",
                      "--a0", "1", "--b0", "2048", "--grid", "0"],
        "E_PARAMETER",
    ),
    "no quadrature nodes": (
        lambda t, e: ["gamma", e["exam1"], "--x", "0.02", "--check-identity", "--signal",
                      _signal_file(t), "--nodes", "0"],
        "E_PARAMETER",
    ),
}


@pytest.mark.parametrize("case", list(CONTRACT_BREAKS))
def test_error_contract(case, exports, tmp_path, capsys):
    argv, code = CONTRACT_BREAKS[case]
    argv = argv(tmp_path, exports)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    validate_report(payload, "error")
    assert payload["error"] == code


def test_help_exits_zero(capsys):
    assert run(["bounds", "--help"]) == 0
    assert "usage: nuframe bounds" in capsys.readouterr().out

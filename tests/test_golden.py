"""Golden CLI outputs: fixture exports and JSON reports on stored inputs.

``tests/golden/`` holds the four fixture exports (plus the counterexample
on the (5, 3) lattice), input signals, a random system on the (3, 5)
lattice, and the expected output of every case below.  Fixture exports and
the ``fourier``/``bessel``/``bounds``/``perturb`` reports are compared byte
for byte: their numbers come from spectrum evaluation, whose arithmetic
does not depend on how the support is stored.  The ``info``, ``framesum``
and ``gamma`` reports and the coefficient tables hold sums over support
points, whose summation order may change; their numbers are compared at
1e-12 relative (complex numbers by modulus), and the sampling-identity
residual, itself a ratio normalised by ``max(1, 4N * frame sum)``, at 1e-12
absolute.  Like every report, the recorded bytes hold for a fixed NumPy
build.

Regenerate the expected files, only for an intended change of output, with

    PYTHONPATH=src python -m tests.test_golden
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from nuframe.cli import run

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12

# name -> (arguments, expected exit code, compared byte for byte); "{g}" is
# the golden directory and "{csv}" the coefficient table.  Each case writes
# its report (an export for "export_" cases) to "<name>.json".
CASES = {
    "export_exam1": ("examples export exam1", 0, True),
    "export_exam1-perturbed": ("examples export exam1-perturbed", 0, True),
    "export_counterexample": ("examples export counterexample", 0, True),
    "export_counterexample_5_3": ("examples export counterexample --N 5 --r 3 --a0 0.5", 0, True),
    "export_onb": ("examples export onb", 0, True),
    "info_exam1": ("info {g}/export_exam1.json", 0, False),
    "info_counterexample": ("info {g}/export_counterexample.json", 0, False),
    "info_onb": ("info {g}/export_onb.json", 0, False),
    "info_lat35_system": ("info {g}/lat35_system.json", 0, False),
    "info_exam1_signal": ("info {g}/exam1_signal.json", 0, False),
    "info_lat35_signal": ("info {g}/lat35_signal.json", 0, False),
    "info_ft": ("info {g}/ft.json", 0, False),
    "fourier_exam1": ("fourier {g}/export_exam1.json --envelope 3 --x 0.0 --x 0.137 --x 1.2", 0, True),
    "fourier_onb": ("fourier {g}/export_onb.json --envelope 2 --x 0.3", 0, True),
    "fourier_counterexample": (
        "fourier {g}/export_counterexample.json --envelope 1 --x 0.05 --x 1.01", 0, True
    ),
    "fourier_exam1_signal": ("fourier {g}/exam1_signal.json --x 0.21 --x 1.33", 0, True),
    "fourier_lat35_signal": ("fourier {g}/lat35_signal.json --x 0.1 --x 1.6", 0, True),
    "bessel_exam1": ("bessel {g}/export_exam1.json --grid 512 --b0 2048", 0, True),
    "bessel_counterexample": ("bessel {g}/export_counterexample.json", 0, True),
    "bessel_onb": ("bessel {g}/export_onb.json --grid 64", 0, True),
    "bessel_lat35": ("bessel {g}/lat35_system.json --grid 256", 0, True),
    "bounds_exam1": ("bounds {g}/export_exam1.json --grid 64", 3, True),
    "bounds_onb": ("bounds {g}/export_onb.json --grid 32 --refine 1", 0, True),
    "bounds_counterexample": ("bounds {g}/export_counterexample.json --grid 16", 3, True),
    "bounds_lat35": ("bounds {g}/lat35_system.json --grid 64", 3, True),
    "perturb_absolute": (
        "perturb {g}/export_exam1.json {g}/export_exam1-perturbed.json --mode absolute "
        "--a0 1 --b0 2048 --grid 256",
        4,
        True,
    ),
    "perturb_relative": (
        "perturb {g}/export_exam1.json {g}/export_exam1-perturbed.json --mode relative "
        "--a0 1 --b0 2048 --grid 64",
        4,
        True,
    ),
    "framesum_exam1": (
        "framesum {g}/export_exam1.json {g}/exam1_signal.json --window 4 --coeffs {csv}", 0, False
    ),
    "framesum_onb": ("framesum {g}/export_onb.json {g}/onb_signal.json --window 8 --coeffs {csv}", 0, False),
    "framesum_lat35": (
        "framesum {g}/lat35_system.json {g}/lat35_signal.json --window 3 --coeffs {csv}", 0, False
    ),
    "framesum_spectral": (
        "framesum {g}/export_counterexample.json {g}/ft.json --spectral --truncate 50", 0, False
    ),
    "framesum_spectral_5_3": (
        "framesum {g}/export_counterexample_5_3.json {g}/ft_5_3.json --spectral --truncate 50", 0, False
    ),
    "gamma_exam1": (
        "gamma {g}/export_exam1.json --x 0.02 --check-identity --signal {g}/exam1_signal.json --nodes 64",
        0,
        False,
    ),
    "gamma_onb": (
        "gamma {g}/export_onb.json --x 0.1 --check-identity --signal {g}/onb_signal.json --nodes 64",
        0,
        False,
    ),
    "gamma_lat35": (
        "gamma {g}/lat35_system.json --x 0.01 --check-identity --signal {g}/lat35_signal.json --nodes 64",
        0,
        False,
    ),
}


def _run_case(name, out_dir: Path) -> tuple[int, Path, Path]:
    out = out_dir / f"{name}.json"
    table = out_dir / f"{name}.csv"
    argv = [a.format(g=GOLDEN, csv=table) for a in CASES[name][0].split()]
    argv += ["--out" if name.startswith("export_") else "--json", str(out)]
    return run(argv), out, table


def _close_number(got: float, want: float, absolute: bool) -> bool:
    return abs(got - want) <= TOL * (1.0 if absolute else abs(want))


def _assert_close(got, want, path="", absolute=False):
    if isinstance(want, dict) and set(want) == {"re", "im"}:
        diff = abs(complex(got["re"], got["im"]) - complex(want["re"], want["im"]))
        assert set(got) == {"re", "im"} and diff <= TOL * abs(complex(want["re"], want["im"])), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}", absolute or key == "identity_residual")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", absolute)
    elif isinstance(want, float):
        assert isinstance(got, float) and _close_number(got, want, absolute), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _assert_close_table(got: Path, want: Path):
    got_rows = list(csv.reader(got.open(newline="", encoding="utf-8")))
    want_rows = list(csv.reader(want.open(newline="", encoding="utf-8")))
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert g[:3] == w[:3], (g, w)
        c_got, c_want = complex(float(g[3]), float(g[4])), complex(float(w[3]), float(w[4]))
        assert abs(c_got - c_want) <= TOL * abs(c_want), (g, w)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name, tmp_path):
    _, code, exact = CASES[name]
    got_code, out, table = _run_case(name, tmp_path)
    assert got_code == code
    want = GOLDEN / out.name
    if exact:
        assert out.read_bytes() == want.read_bytes()
    else:
        _assert_close(json.loads(out.read_text()), json.loads(want.read_text()))
    if (GOLDEN / table.name).exists():
        _assert_close_table(table, GOLDEN / table.name)


def regenerate() -> None:
    # exports first: the other cases read them
    for name in sorted(CASES, key=lambda n: not n.startswith("export_")):
        code, out, table = _run_case(name, GOLDEN)
        if code != CASES[name][1]:
            sys.exit(f"{name}: exit {code}, expected {CASES[name][1]}")
        print(f"{name}: exit {code}, wrote {out.name}" + (f", {table.name}" if table.exists() else ""))


if __name__ == "__main__":
    regenerate()

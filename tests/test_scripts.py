"""Smoke tests: every script in ``scripts/`` runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["audit_reference_values.py"],
        ["sweep_bounds.py", "onb", "--grid", "16", "--refine", "1"],
        ["sweep_bounds.py", "counterexample", "--grid", "16"],
        ["witness_contradiction.py", "--N", "3", "--r", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_script_runs(argv, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

"""Start-up probe: import ``nuframe.cli`` and decode every input file once.

    python3 setup_probe.py PLAN

The parent times a fresh interpreter running this file; that wall time is
the benchmark's ``setup_s``.  It imports nothing beyond the library and the
standard library.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def import_cli(src: str):
    """Import ``nuframe.cli`` from ``src`` and refuse any other installed copy."""
    sys.path.insert(0, src)
    import nuframe.cli

    if not Path(nuframe.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"nuframe was imported from {nuframe.cli.__file__}, not from {src}")
    return nuframe.cli


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import_cli(plan["src"])
    from nuframe import serialize

    for path, role in plan["inputs"].items():
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        (serialize.load_signal if role == "signal" else serialize.load_system)(obj)


if __name__ == "__main__":
    main(sys.argv[1])

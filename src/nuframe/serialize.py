"""JSON and CSV wire formats.

Complex numbers are ``{"re": float, "im": float}``.  Sequences are keyed
by coset bit and index; step spectra list their cells in
``omega_cells`` order.  Frame systems carry either ``envelopes`` (lists of
time-domain entries) or ``envelopes_spectral``.  Fixture exports wrap a
system with optional companion spectra.  ``json.dump`` round-trips floats
exactly, so re-imported objects compare field-by-field equal.
"""

from __future__ import annotations

import csv
import json
from typing import Any

import numpy as np

from .errors import FormatError, NuframeError
from .frame import CoefficientTable, FrameSystem, frame_system
from .lattice import LatticePoint, SpectralLattice, make_lattice, point_indices
from .signal import MatrixSeq, SpectrumStep, matrix_seq, spectrum_step


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, KeyError) as exc:
        raise FormatError(f"expected {{'re':, 'im':}}, got {obj!r}") from exc


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m)]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"expected a matrix as a list of rows, got {obj!r}")
    return np.array(
        [[complex_from_json(z) for z in row] for row in obj], dtype=np.complex128
    )


def lattice_to_json(lat: SpectralLattice) -> dict:
    return {"N": lat.N, "r": lat.r}


def lattice_from_json(obj) -> SpectralLattice:
    try:
        return make_lattice(int(obj["N"]), int(obj["r"]))
    except (TypeError, KeyError) as exc:
        raise FormatError(f"expected {{'N':, 'r':}}, got {obj!r}") from exc


def _entries_to_json(f: MatrixSeq) -> list:
    s, l = point_indices(f.lattice, f.k)
    return [
        {"s": int(si), "l": int(li), "matrix": matrix_to_json(m)}
        for si, li, m in zip(s, l, f.mats)
    ]


def _entries_from_json(obj, lat, n) -> MatrixSeq:
    if not isinstance(obj, list):
        raise FormatError("entries must be a list")
    entries = {}
    for item in obj:
        try:
            p = LatticePoint(int(item["s"]), int(item["l"]))
            m = matrix_from_json(item["matrix"])
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad entry record {item!r}") from exc
        if p in entries:
            raise FormatError(f"duplicate entry for (s, l) = ({p.s}, {p.l})")
        entries[p] = m
    return matrix_seq(lat, n, entries)


def seq_to_json(f: MatrixSeq) -> dict:
    return {
        "lattice": lattice_to_json(f.lattice),
        "n": f.n,
        "entries": _entries_to_json(f),
    }


def seq_from_json(obj) -> MatrixSeq:
    lat = lattice_from_json(obj["lattice"])
    return _entries_from_json(obj["entries"], lat, int(obj["n"]))


def step_to_json(s: SpectrumStep) -> dict:
    return {
        "lattice": lattice_to_json(s.lattice),
        "n": s.n,
        "refinement": s.refinement,
        "cells": [matrix_to_json(v) for v in s.values],
    }


def step_from_json(obj) -> SpectrumStep:
    lat = lattice_from_json(obj["lattice"])
    values = [matrix_from_json(v) for v in obj["cells"]]
    return spectrum_step(lat, int(obj["n"]), int(obj["refinement"]), values)


def system_to_json(sys: FrameSystem) -> dict:
    out: dict[str, Any] = {"lattice": lattice_to_json(sys.lattice), "n": sys.n}
    if sys.spectral:
        out["envelopes_spectral"] = [
            {"refinement": e.refinement, "cells": [matrix_to_json(v) for v in e.values]}
            for e in sys.envelopes
        ]
    else:
        out["envelopes"] = [_entries_to_json(e) for e in sys.envelopes]
    return out


def system_from_json(obj) -> FrameSystem:
    lat = lattice_from_json(obj["lattice"])
    n = int(obj["n"])
    if "envelopes" in obj:
        envelopes = [_entries_from_json(e, lat, n) for e in obj["envelopes"]]
    elif "envelopes_spectral" in obj:
        envelopes = [
            spectrum_step(
                lat, n, int(e["refinement"]), [matrix_from_json(v) for v in e["cells"]]
            )
            for e in obj["envelopes_spectral"]
        ]
    else:
        raise FormatError("frame system needs 'envelopes' or 'envelopes_spectral'")
    return frame_system(lat, n, envelopes)


def export_to_json(name: str, system: FrameSystem, companions: dict) -> dict:
    comp = {}
    for key, value in companions.items():
        if isinstance(value, SpectrumStep):
            comp[key] = {"kind": "spectrum_step", **step_to_json(value)}
        elif isinstance(value, MatrixSeq):
            comp[key] = {"kind": "matrix_seq", **seq_to_json(value)}
        else:
            raise FormatError(f"cannot export companion of type {type(value).__name__}")
    return {
        "kind": "fixture",
        "name": name,
        "system": system_to_json(system),
        "companions": comp,
    }


def load_any(obj):
    """Decode a JSON object into the value it describes.

    Accepts fixture exports (returns ``(system, companions)``), bare frame
    systems, matrix sequences and step spectra.  A layout that does not
    decode raises :class:`FormatError`; the library's own errors (lattice,
    parameter, shape) keep their codes.
    """
    try:
        return _decode(obj)
    except NuframeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed input ({type(exc).__name__}: {exc})") from exc


def _decode(obj):
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    if obj.get("kind") == "fixture":
        system = system_from_json(obj["system"])
        companions = {}
        for key, value in obj.get("companions", {}).items():
            if value.get("kind") == "spectrum_step":
                companions[key] = step_from_json(value)
            elif value.get("kind") == "matrix_seq":
                companions[key] = seq_from_json(value)
            else:
                raise FormatError(f"unknown companion kind in {key!r}")
        return system, companions
    if "envelopes" in obj or "envelopes_spectral" in obj:
        return system_from_json(obj), {}
    if "entries" in obj:
        return seq_from_json(obj), {}
    if "cells" in obj:
        return step_from_json(obj), {}
    raise FormatError("unrecognized JSON layout")


def load_system(obj) -> FrameSystem:
    value, _ = load_any(obj)
    if not isinstance(value, FrameSystem):
        raise FormatError("expected a frame system")
    return value


def load_signal(obj):
    value, _ = load_any(obj)
    if isinstance(value, (MatrixSeq, SpectrumStep)):
        return value
    raise FormatError("expected a matrix sequence or step spectrum")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: fixed separators, sorted keys, repr floats."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def coefficients_to_csv(table: CoefficientTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "l", "j", "re", "im"])
        for (point, j), c in table.sorted_items():
            writer.writerow([point.s, point.l, j, repr(c.real), repr(c.imag)])


def coefficients_from_csv(path: str, lattice: SpectralLattice, p: int) -> CoefficientTable:
    table = CoefficientTable(lattice=lattice, p=p)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                point = LatticePoint(int(row["s"]), int(row["l"]))
                j = int(row["j"])
                c = complex(float(row["re"]), float(row["im"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad coefficient row {row!r}") from exc
            table.coeffs[(point, j)] = c
    return table


def curve_to_csv(report, path: str) -> None:
    """Write a bounds sweep as ``x, sigma_min_sq_over_4N, sigma_max_sq_over_4N``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "sigma_min_sq_over_4N", "sigma_max_sq_over_4N"])
        for x, lo, hi in zip(report.xs, report.sigma_min_curve, report.sigma_max_curve):
            writer.writerow([repr(x), repr(lo), repr(hi)])

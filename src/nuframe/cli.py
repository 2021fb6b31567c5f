"""Command-line front end.

Subcommands: info, fourier, bessel, gamma, bounds, framesum, perturb,
examples.  Exit codes: 0 success (or verdict "frame"), 1 usage or input
error, 2 bessel_only, 3 rank_deficient, 4 perturbation condition failed.
Errors, argument-parser errors included, print a machine-readable JSON
object ``{"error": code, "message"}`` to stderr.  Text output rounds to 9
significant digits; JSON reports carry full doubles and are byte-stable
for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .bounds import (
    SINGULAR_FLOOR,
    bessel_necessary_bounds,
    bessel_sufficient_bound,
    envelope_sup_norm,
    frame_bounds_gamma,
    refine_bounds,
)
from .errors import NuframeError, UsageError
from .fixtures import FIXTURE_NAMES, build_fixture
from .frame import (
    FrameSystem,
    analysis,
    frame_sum,
    frame_sum_spectral,
    frame_sum_spectral_entrywise,
    frame_sum_spectral_truncated,
)
from .gamma import sample_gram, sample_matrix, sampling_identity_residual, stacked_operator
from .perturb import DENOMINATOR_FLOOR, check_absolute, check_relative
from .reports import provenance, sig9, validate_report
from .serialize import (
    canonical_dumps,
    coefficients_to_csv,
    curve_to_csv,
    export_to_json,
    lattice_to_json,
    load_any,
    load_signal,
    load_system,
    matrix_to_json,
)
from .signal import MatrixSeq, SpectrumStep, frobenius_norm, spectrum_grid

VERDICT_EXIT = {"frame": 0, "bessel_only": 2, "rank_deficient": 3}


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_report(report: dict, kind: str, path: str | None) -> None:
    validate_report(report, kind)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(report))


def _print_matrix(m, label):
    print(label)
    for row in np.asarray(m):
        print("  " + "  ".join(f"{z.real:+.9g}{z.imag:+.9g}j" for z in row))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_info(args) -> int:
    obj, companions = load_any(_read_json(args.input))
    prov = provenance({"input": args.input})
    if isinstance(obj, FrameSystem):
        report = {
            "kind": "info",
            "provenance": prov,
            "object": "frame_system",
            "lattice": lattice_to_json(obj.lattice),
            "n": obj.n,
            "p": obj.p,
            "form": "spectral" if obj.spectral else "time",
        }
        if not obj.spectral:
            report["support_sizes"] = [len(e.k) for e in obj.envelopes]
    elif isinstance(obj, MatrixSeq):
        report = {
            "kind": "info",
            "provenance": prov,
            "object": "matrix_seq",
            "lattice": lattice_to_json(obj.lattice),
            "n": obj.n,
            "support_sizes": [len(obj.k)],
            "norm_sq": obj.norm_sq(),
        }
    else:
        report = {
            "kind": "info",
            "provenance": prov,
            "object": "spectrum_step",
            "lattice": lattice_to_json(obj.lattice),
            "n": obj.n,
            "refinement": obj.refinement,
            "norm_sq": obj.norm_sq(),
        }
    _write_report(report, "info", args.json)
    print(f"{report['object']}  N={report['lattice']['N']} r={report['lattice']['r']} n={report['n']}")
    if "p" in report:
        print(f"envelopes: {report['p']} ({report['form']})")
    if "norm_sq" in report:
        print(f"norm_sq: {sig9(report['norm_sq'])}")
    if companions:
        print("companions: " + ", ".join(sorted(companions)))
    return 0


def _cmd_fourier(args) -> int:
    obj, _ = load_any(_read_json(args.input))
    if isinstance(obj, FrameSystem):
        if args.envelope is None:
            raise NuframeError("--envelope J is required for frame-system input")
        if not 1 <= args.envelope <= obj.p:
            raise NuframeError(f"envelope index {args.envelope} outside 1..{obj.p}")
        target = obj.envelopes[args.envelope - 1]
    else:
        target = obj
    values = []
    for x, m in zip(args.x, spectrum_grid(target, args.x)):
        values.append(
            {"x": x, "matrix": matrix_to_json(m), "frobenius_norm": frobenius_norm(m)}
        )
        _print_matrix(m, f"x = {sig9(x)}  (frobenius norm {sig9(frobenius_norm(m))})")
    report = {
        "kind": "fourier",
        "provenance": provenance({"input": args.input}),
        "envelope": args.envelope,
        "values": values,
    }
    _write_report(report, "fourier", args.json)
    return 0


def _cmd_bessel(args) -> int:
    system = load_system(_read_json(args.input))
    sup = envelope_sup_norm(system, args.grid)
    report = {
        "kind": "bessel",
        "provenance": provenance({"input": args.input}, grid=args.grid),
        "grid": args.grid,
        "sup_norm": sup,
        "sufficient_bound": bessel_sufficient_bound(system.p, system.n, sup),
        "p": system.p,
        "n": system.n,
        "N": system.lattice.N,
        "necessary": None,
    }
    if args.b0 is not None:
        proof, stated = bessel_necessary_bounds(system.lattice.N, args.b0)
        report["necessary"] = {
            "b0": args.b0,
            "proof_constant": proof,
            "stated_constant": stated,
        }
    _write_report(report, "bessel", args.json)
    print(f"spectrum sup norm (grid {args.grid}): {sig9(sup)}")
    print(f"sufficient Bessel bound 2^(p-1) b^2 n^2: {sig9(report['sufficient_bound'])}")
    if report["necessary"]:
        nec = report["necessary"]
        print(
            f"necessary spectrum bounds for b0={sig9(nec['b0'])}: "
            f"{sig9(nec['proof_constant'])} (sharp), {sig9(nec['stated_constant'])} (stated)"
        )
    return 0


def _cmd_gamma(args) -> int:
    system = load_system(_read_json(args.input))
    m2 = args.m2 if args.m2 is not None else args.m
    k2 = args.k2 if args.k2 is not None else args.k
    gamma = sample_matrix(system, args.m, args.k, args.x)
    gram = sample_gram(system, args.m, args.k, m2, k2, args.x)
    T = stacked_operator(system, args.x)
    svals = np.linalg.svd(T, compute_uv=False)
    residual = None
    if args.check_identity:
        if not args.signal:
            raise NuframeError("--check-identity needs --signal FILE")
        signal = load_signal(_read_json(args.signal))
        if not isinstance(signal, MatrixSeq):
            raise NuframeError("--check-identity needs a time-domain signal")
        residual = sampling_identity_residual(system, signal, args.nodes)
    inputs = {"input": args.input}
    if args.check_identity:
        inputs["signal"] = args.signal
    report = {
        "kind": "gamma",
        "provenance": provenance(inputs, nodes=args.nodes if args.check_identity else None),
        "x": args.x,
        "m": args.m,
        "k": args.k,
        "m2": m2,
        "k2": k2,
        "sample_matrix": matrix_to_json(gamma),
        "gram": matrix_to_json(gram),
        "singular_values": [float(s) for s in svals],
        "identity_residual": residual,
        "nodes": args.nodes if args.check_identity else None,
    }
    _write_report(report, "gamma", args.json)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["table", "i", "j", "re", "im"])
            for i, row in enumerate(gamma):
                for j, z in enumerate(row):
                    writer.writerow(["gamma", i, j, repr(float(z.real)), repr(float(z.imag))])
            for i, row in enumerate(gram):
                for j, z in enumerate(row):
                    writer.writerow(["gram", i, j, repr(float(z.real)), repr(float(z.imag))])
            for i, s in enumerate(svals):
                writer.writerow(["sigma", i, 0, repr(float(s)), "0.0"])
    else:
        _print_matrix(gamma, f"sample matrix (m={args.m}, k={args.k}) at x={sig9(args.x)}")
        _print_matrix(gram, f"gram against (m={m2}, k={k2})")
        print("singular values of the stacked operator:")
        print("  " + "  ".join(sig9(s) for s in svals))
    if residual is not None:
        print(f"sampling identity residual ({args.nodes} nodes): {sig9(residual)}")
    return 0


def _cmd_bounds(args) -> int:
    system = load_system(_read_json(args.input))
    if args.refine > 0:
        reports = refine_bounds(system, args.grid, args.refine)
    else:
        reports = [frame_bounds_gamma(system, args.grid)]
    final = reports[-1]
    refinements = []
    prev = None
    for rep in reports:
        refinements.append(
            {
                "grid": rep.grid,
                "a_est": rep.a_est,
                "b_est": rep.b_est,
                "delta_a": None if prev is None else rep.a_est - prev.a_est,
                "delta_b": None if prev is None else rep.b_est - prev.b_est,
            }
        )
        prev = rep
    report = {
        "kind": "bounds",
        "provenance": provenance(
            {"input": args.input},
            grid=args.grid,
            refine=args.refine,
            tolerances={"singular_floor": SINGULAR_FLOOR},
        ),
        "lattice": lattice_to_json(system.lattice),
        "n": system.n,
        "p": system.p,
        "grid": final.grid,
        "feasible": final.feasible,
        "verdict": final.verdict,
        "a_est": final.a_est,
        "b_est": final.b_est,
        "x_at_min": final.x_at_min,
        "x_at_max": final.x_at_max,
        "refinements": refinements,
    }
    _write_report(report, "bounds", args.json)
    if args.csv:
        curve_to_csv(final, args.csv)
    print(f"feasible (2p >= 4N n^2): {final.feasible}")
    print(f"verdict: {final.verdict}")
    print(f"a_est = {sig9(final.a_est)} at x = {sig9(final.x_at_min)}")
    print(f"b_est = {sig9(final.b_est)} at x = {sig9(final.x_at_max)}")
    for entry in refinements[1:]:
        print(
            f"grid {entry['grid']}: a_est {sig9(entry['a_est'])} "
            f"(delta {sig9(entry['delta_a'])}), b_est {sig9(entry['b_est'])} "
            f"(delta {sig9(entry['delta_b'])})"
        )
    return VERDICT_EXIT[final.verdict]


def _cmd_framesum(args) -> int:
    system = load_system(_read_json(args.system))
    signal = load_signal(_read_json(args.signal))
    prov = provenance({"system": args.system, "signal": args.signal})
    if args.spectral:
        if not isinstance(signal, SpectrumStep):
            raise NuframeError("--spectral needs a step-spectrum signal file")
        value = frame_sum_spectral(system, signal)
        trunc_value, tail = frame_sum_spectral_truncated(system, signal, args.truncate)
        report = {
            "kind": "framesum",
            "provenance": prov,
            "spectral": True,
            "value": value,
            "signal_norm_sq": signal.norm_sq(),
            "entrywise_value": frame_sum_spectral_entrywise(system, signal),
            "truncated": {"window": args.truncate, "value": trunc_value, "tail_bound": tail},
            "window": None,
            "analysis_exact": None,
            "coefficient_count": None,
            "coefficient_norm_sq": None,
        }
        print(f"frame sum (exact, spectral): {sig9(value)}")
        print(f"entrywise diagnostic value: {sig9(report['entrywise_value'])}")
        print(
            f"truncated cross-check (|l| <= {args.truncate}): {sig9(trunc_value)} "
            f"+ tail <= {sig9(tail)}"
        )
    else:
        if not isinstance(signal, MatrixSeq):
            raise NuframeError("time-domain frame sum needs a matrix-sequence signal")
        value = frame_sum(system, signal)
        table = analysis(system, signal, args.window)
        if args.coeffs:
            coefficients_to_csv(table, args.coeffs)
        report = {
            "kind": "framesum",
            "provenance": prov,
            "spectral": False,
            "value": value,
            "signal_norm_sq": signal.norm_sq(),
            "entrywise_value": None,
            "truncated": None,
            "window": args.window,
            "analysis_exact": table.exact,
            "coefficient_count": len(table.coeffs),
            "coefficient_norm_sq": table.norm_sq(),
        }
        print(f"frame sum (exact): {sig9(value)}")
        print(
            f"analysis window |l| <= {args.window}: {len(table.coeffs)} coefficients, "
            f"sum of squares {sig9(table.norm_sq())}, exact: {table.exact}"
        )
    _write_report(report, "framesum", args.json)
    return 0


def _cmd_perturb(args) -> int:
    sysF = load_system(_read_json(args.reference))
    sysG = load_system(_read_json(args.candidate))
    checker = check_absolute if args.mode == "absolute" else check_relative
    rep = checker(sysF, sysG, args.a0, args.b0, args.grid)
    report = {
        "kind": "perturb",
        "provenance": provenance(
            {"reference": args.reference, "candidate": args.candidate},
            grid=args.grid,
            mode=args.mode,
            tolerances={"denominator_floor": DENOMINATOR_FLOOR},
        ),
        "mode": rep.mode,
        "epsilon_measured": rep.epsilon_measured,
        "condition_value": rep.condition_value,
        "condition_holds": rep.condition_holds,
        "epsilon_below_condition_value": rep.epsilon_below_condition_value,
        "new_lower": rep.new_lower,
        "new_upper": rep.new_upper,
        "grid": rep.grid,
        "a0": rep.a0,
        "b0": rep.b0,
        "p": rep.p,
        "n": rep.n,
        "N": rep.N,
    }
    _write_report(report, "perturb", args.json)
    print(f"mode: {rep.mode}")
    print(f"epsilon (grid {rep.grid}): {sig9(rep.epsilon_measured)}")
    print(f"condition value: {sig9(rep.condition_value)}  holds: {rep.condition_holds}")
    if rep.epsilon_below_condition_value is not None:
        print(f"literal chain flag eps < condition_value: {rep.epsilon_below_condition_value}")
    print(f"replacement bounds: [{sig9(rep.new_lower)}, {sig9(rep.new_upper)}]")
    return 0 if rep.condition_holds else 4


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in FIXTURE_NAMES:
            print(name)
        return 0
    system, companions = build_fixture(args.name, N=args.N, r=args.r, a0=args.a0)
    export = export_to_json(args.name, system, companions)
    validate_report(export, "fixture")
    text = canonical_dumps(export)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.name} to {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # Subparsers inherit this class, so every parse error reaches the contract.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nuframe",
        description="Frame bounds and perturbation audits for matrix-valued "
        "sequences over non-uniform translation lattices.",
    )
    parser.add_argument("--version", action="version", version=f"nuframe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("info", help="validate an input file and summarize it")
    q.add_argument("input")
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_info)

    q = sub.add_parser("fourier", help="evaluate a spectrum at given frequencies")
    q.add_argument("input")
    q.add_argument("--x", type=float, action="append", required=True)
    q.add_argument("--envelope", type=int, help="1-based index for system input")
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_fourier)

    q = sub.add_parser("bessel", help="spectrum sup norm and Bessel bound arithmetic")
    q.add_argument("input")
    q.add_argument("--grid", type=int, default=4096)
    q.add_argument("--b0", type=float, help="report necessary bounds for this Bessel bound")
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_bessel)

    q = sub.add_parser("gamma", help="sample matrices, grams and singular values at one x")
    q.add_argument("input")
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--m", type=int, default=1)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--m2", type=int)
    q.add_argument("--k2", type=int)
    q.add_argument("--csv", metavar="OUT")
    q.add_argument("--json", metavar="OUT")
    q.add_argument("--check-identity", action="store_true")
    q.add_argument("--signal", metavar="FILE")
    q.add_argument("--nodes", type=int, default=128)
    q.set_defaults(handler=_cmd_gamma)

    q = sub.add_parser("bounds", help="frame-bound estimates from the singular-value sweep")
    q.add_argument("input")
    q.add_argument("--grid", type=int, default=1024)
    q.add_argument("--refine", type=int, default=0, help="number of grid doublings")
    q.add_argument("--csv", metavar="OUT")
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_bounds)

    q = sub.add_parser("framesum", help="exact frame sum of a signal")
    q.add_argument("system")
    q.add_argument("signal")
    q.add_argument("--spectral", action="store_true")
    q.add_argument("--window", type=int, default=8, help="analysis window (time domain)")
    q.add_argument("--truncate", type=int, default=200, help="cross-check window (spectral)")
    q.add_argument("--coeffs", metavar="OUT", help="write analysis coefficients CSV")
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_framesum)

    q = sub.add_parser("perturb", help="perturbation audit with replacement bounds")
    q.add_argument("reference")
    q.add_argument("candidate")
    q.add_argument("--mode", choices=["absolute", "relative"], required=True)
    q.add_argument("--a0", type=float, required=True)
    q.add_argument("--b0", type=float, required=True)
    q.add_argument("--grid", type=int, default=4096)
    q.add_argument("--json", metavar="OUT")
    q.set_defaults(handler=_cmd_perturb)

    q = sub.add_parser("examples", help="export bundled fixtures")
    q.add_argument("action", choices=["export", "list"])
    q.add_argument("name", nargs="?", choices=list(FIXTURE_NAMES))
    q.add_argument("--out", metavar="FILE")
    q.add_argument("--N", type=int, default=2, help="counterexample lattice N")
    q.add_argument("--r", type=int, default=1, help="counterexample lattice r")
    q.add_argument("--a0", type=float, default=1.0, help="counterexample witness amplitude")
    q.set_defaults(handler=_cmd_examples)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 1
    except UsageError as exc:
        _emit_error(exc)
        return 1
    try:
        if args.command == "examples" and args.action == "export" and not args.name:
            raise UsageError("examples export needs a fixture name")
        return args.handler(args)
    except NuframeError as exc:
        _emit_error(exc)
        return 1
    except FileNotFoundError as exc:
        _emit_error(NuframeError(f"cannot open {exc.filename}"))
        return 1
    except json.JSONDecodeError as exc:
        _emit_error(NuframeError(f"invalid JSON: {exc}"))
        return 1


def _emit_error(exc: NuframeError) -> None:
    payload = {"error": exc.code, "message": exc.message}
    validate_report(payload, "error")
    print(json.dumps(payload), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

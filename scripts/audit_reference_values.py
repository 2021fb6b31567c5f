#!/usr/bin/env python3
"""Recompute every stated reference value for the bundled fixtures.

Three findings are printed with their measured counterparts:

1. the per-entry sample-matrix gram of the eight-envelope fixture has
   diagonal 12, not 8, and the stacked operator is 16 x 32, so no positive
   lower frame bound exists for it;
2. the witness frame sum of the step-spectrum counterexample is 2/N, not
   1/N; the stated value matches only the entrywise-decoupled evaluation
   that ignores interference between matrix entries;
3. the perturbation fixture's measured size under the Frobenius norm is
   sqrt(2402)/25 as printed (one entry does not cancel) or sqrt(2)/25 with
   the evident sign slip fixed; the stated 1/25 is the spectral norm, and
   equally the largest entry modulus, of the sign-fixed difference.  The
   paper text in this repository does not say which norm its theorem uses.

Usage: python scripts/audit_reference_values.py [--json out.json]
"""

import argparse
import json
import math

import numpy as np

from nuframe import (
    check_absolute,
    frame_bounds_gamma,
    frame_sum_spectral,
    frame_sum_spectral_entrywise,
    frame_sum_spectral_truncated,
    sample_gram,
    spectrum_grid,
)
from nuframe.fixtures import counterexample, exam1, exam1_perturbed
from nuframe.lattice import branch_grid


def gram_audit():
    sys1 = exam1()
    rng = np.random.default_rng(1)
    diag = []
    for x in rng.uniform(0.0, 1 / 8, size=8):
        gram = sample_gram(sys1, 1, 1, 1, 1, float(x))
        diag.append(float(np.diag(gram).real.mean()))
    rep = frame_bounds_gamma(sys1, 256)
    return {
        "stated_gram_diagonal": 8.0,
        "measured_gram_diagonal": diag,
        "stacked_shape": [2 * sys1.p, 4 * sys1.lattice.N * sys1.n**2],
        "verdict": rep.verdict,
        "a_est": rep.a_est,
        "b_est": rep.b_est,
    }


def witness_audit():
    rows = []
    for N, r in [(2, 1), (3, 1), (5, 3)]:
        for a0 in (0.5, 1.0, 2.0):
            system, ft = counterexample(N, r, a0)
            exact = frame_sum_spectral(system, ft)
            partial, tail = frame_sum_spectral_truncated(system, ft, 300)
            rows.append(
                {
                    "N": N,
                    "r": r,
                    "a0": a0,
                    "stated": 1.0 / N,
                    "exact": exact,
                    "entrywise": frame_sum_spectral_entrywise(system, ft),
                    "truncated": partial,
                    "tail_bound": tail,
                    "witness_norm_sq": ft.norm_sq(),
                }
            )
    return rows


def perturbation_audit():
    sys1 = exam1()
    out = {}
    for label, fixture in (
        ("as_printed", exam1_perturbed()),
        ("sign_fixed", exam1_perturbed(g3_sign_fixed=True)),
    ):
        rep = check_absolute(sys1, fixture, 1.0, 2048.0, grid=1024)
        xs = branch_grid(sys1.lattice.N, 64)  # both frequency branches
        max_entry = spectral = 0.0
        for fj, gj in zip(sys1.envelopes, fixture.envelopes):
            summed = spectrum_grid(fj, xs) + spectrum_grid(gj, xs)
            max_entry = max(max_entry, float(np.max(np.abs(summed))))
            spectral = max(spectral, float(np.max(np.linalg.norm(summed, 2, axis=(-2, -1)))))
        out[label] = {
            "epsilon_frobenius": rep.epsilon_measured,
            "epsilon_spectral": spectral,
            "epsilon_max_entry": max_entry,
            "condition_value": rep.condition_value,
            "condition_holds": rep.condition_holds,
        }
    out["stated_epsilon"] = 1 / 25
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args()

    gram = gram_audit()
    witness = witness_audit()
    pert = perturbation_audit()

    print("== sample-matrix gram ==")
    print(f"stated diagonal: {gram['stated_gram_diagonal']}")
    print(f"measured diagonal (8 random x): {[round(d, 9) for d in gram['measured_gram_diagonal']]}")
    print(f"stacked operator shape: {gram['stacked_shape']}  verdict: {gram['verdict']}")
    print(f"a_est = {gram['a_est']}, b_est = {gram['b_est']:.9g}")

    print("\n== witness frame sum ==")
    for row in witness:
        print(
            f"N={row['N']} r={row['r']} a0={row['a0']:g}: stated {row['stated']:.6g}, "
            f"exact {row['exact']:.9g}, entrywise {row['entrywise']:.9g}, "
            f"truncated {row['truncated']:.9g} (+tail <= {row['tail_bound']:.2g})"
        )

    print("\n== perturbation size ==")
    print(f"stated: {pert['stated_epsilon']}")
    for label in ("as_printed", "sign_fixed"):
        row = pert[label]
        print(
            f"{label}: frobenius {row['epsilon_frobenius']:.9g} "
            f"(sqrt(2402)/25 = {math.sqrt(2402)/25:.9g}, sqrt(2)/25 = {math.sqrt(2)/25:.9g}), "
            f"spectral {row['epsilon_spectral']:.9g}, max entry {row['epsilon_max_entry']:.9g}, "
            f"certificate holds: {row['condition_holds']}"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"gram": gram, "witness": witness, "perturbation": pert}, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()

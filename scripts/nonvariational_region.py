#!/usr/bin/env python3
"""Map the (delta, mu) existence region of the equal-self-exponent system
(p = q = 2, s = m > 0): theorem predictions on a grid plus shooting verdicts
along the diagonal, and a positivity scan of the cubic barrier."""

import argparse
import csv
import os

from efdyn import (cubic_barrier, classify_region, nonvariational_params,
                   predict_existence, search_ground_state)
from efdyn.dynamics import linspace
from efdyn.energies import diagonal_crossings

FIELDS = ["delta", "mu", "verdict", "source"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=float, default=6.0)
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--lo", type=float, default=0.8)
    ap.add_argument("--hi", type=float, default=3.0)
    ap.add_argument("--grid", type=int, default=12)
    ap.add_argument("--angles", type=int, default=9)
    ap.add_argument("--out", default="results/nonvariational_region.csv")
    args = ap.parse_args()
    if args.angles < 1:
        ap.error(f"--angles must be >= 1, got {args.angles}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    print("diagonal crossings:", {k.value: round(v, 4) for k, v in
                                  diagonal_crossings(args.N, args.s).items()})

    rows = []
    for delta in linspace(args.lo, args.hi, args.grid):
        for mu in linspace(args.lo, args.hi, args.grid):
            P = nonvariational_params(args.N, args.s, delta, mu)
            if P.D <= 0:
                continue
            pred = predict_existence(P)
            rows.append({"delta": f"{delta:.6g}", "mu": f"{mu:.6g}",
                         "verdict": pred.verdict.value, "source": pred.source})
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} grid points)")

    for d in (1.2, 1.8, 2.5):
        P = nonvariational_params(args.N, args.s, d, d)
        res = search_ground_state(P, n_angles=args.angles)
        grid = linspace(0.0, args.N - 2, 30)[1:-1]
        bmin = min(cubic_barrier(P, X, Y) for X in grid for Y in grid)
        print(f"delta=mu={d}: found_gs={res.found}  barrier_min={bmin:.4g}  "
              f"region={{{', '.join(f'{k.value}:{v.value}' for k, v in classify_region(P).items() if v.value != 'not-applicable')}}}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sweep the potential-type system (delta = m+1, mu = s+1) across its critical
line in s = m and read the decay slope of the critical ground state."""

import argparse
import csv
import os

from efdyn import integrate_radial, potential_params, predict_existence, search_ground_state
from efdyn.cli import family_grid
from efdyn.errors import PreconditionViolated

FIELDS = ["s", "found_gs", "predicted"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=float, default=6.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--start", type=float, default=0.2)
    ap.add_argument("--stop", type=float, default=0.8)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--angles", type=int, default=9)
    ap.add_argument("--out", default="results/potential_line_sweep.csv")
    args = ap.parse_args()
    if args.angles < 1:
        ap.error(f"--angles must be >= 1, got {args.angles}")
    try:
        grid = family_grid(args.start, args.stop, args.step)
    except PreconditionViolated as exc:
        ap.error(f"--step: {exc}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    rows = []
    for v in grid:
        P = potential_params(args.N, args.p, args.q, v, v)
        res = search_ground_state(P, n_angles=args.angles)
        pred = predict_existence(P)
        rows.append({"s": round(v, 10), "found_gs": int(res.found),
                     "predicted": pred.verdict.value})
        print(f"s=m={v:.3f}  found={res.found}  prediction={pred.verdict.value}")

    # decay slope of the critical profile: s = m solving the line equation
    # N + a = (m+1)(N-q)/q + (s+1)(N-p)/p with a = 0
    sc = (args.N - (args.N - args.q) / args.q - (args.N - args.p) / args.p) \
        / ((args.N - args.q) / args.q + (args.N - args.p) / args.p)
    P = potential_params(args.N, args.p, args.q, sc, sc)
    # the slope of ln u against ln r is r u'/u, read at the last step below r = 1e3
    rad = integrate_radial(P, 1.0, 1.0, r_max=1e4)
    i = max(i for i, r in enumerate(rad.r) if r < 1e3)
    slope_u = rad.r[i] * rad.du[i] / rad.u[i]
    slope_v = rad.r[i] * rad.dv[i] / rad.v[i]
    print(f"\ncritical s = m = {sc:.4f}: decay slopes u: {slope_u:.4f}, "
          f"v: {slope_v:.4f} (theory: -(N-p)/(p-1) = {-(args.N - args.p) / (args.p - 1):.4f})")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sweep the coupled-Laplacian system along the diagonal delta = mu and locate
the ground-state existence threshold (the critical hyperbola crossing).

Writes delta, found-GS flag and the theorem prediction per grid value, plus
the Dirichlet radius on the subcritical side.
"""

import argparse
import csv
import os

from efdyn import (derive_exponents, hamiltonian_params, predict_existence,
                   search_dirichlet, search_ground_state)
from efdyn.cli import family_grid
from efdyn.errors import PreconditionViolated

FIELDS = ["delta", "found_gs", "predicted", "dirichlet_radius"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=float, default=6.0)
    ap.add_argument("--start", type=float, default=1.2)
    ap.add_argument("--stop", type=float, default=3.0)
    ap.add_argument("--step", type=float, default=0.1)
    ap.add_argument("--angles", type=int, default=9)
    ap.add_argument("--out", default="results/hamiltonian_dichotomy.csv")
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
        P = hamiltonian_params(args.N, v, v)
        res = search_ground_state(P, n_angles=args.angles)
        pred = predict_existence(P)
        row = {"delta": round(v, 10), "found_gs": int(res.found),
               "predicted": pred.verdict.value, "dirichlet_radius": ""}
        if not res.found:
            d = search_dirichlet(P, u0=1.0, n_angles=args.angles)
            if d.found:
                row["dirichlet_radius"] = f"{d.radius:.10g}"
        rows.append(row)
        print(f"delta=mu={v:.2f}  found={res.found}  prediction={pred.verdict.value}"
              + (f"  R={row['dirichlet_radius']}" if row["dirichlet_radius"] else ""))

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    crit = (args.N + 2) / (args.N - 2)
    print(f"\ncritical diagonal crossing: delta = {crit:.4f}; wrote {args.out}")


if __name__ == "__main__":
    main()

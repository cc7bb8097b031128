"""The answer ledger: efdyn's search answers at fixed points, next to the
theory's answer at each.

`tests/answers.json` holds one row per (point, search, n_angles):

- the point's parameters and the search run on it: `search_ground_state`
  ("ground-state") or `search_dirichlet` at `u0` ("dirichlet");
- `found`, and the boundaries as (kind, angle) pairs: every boundary of a
  ground-state search, the reported angle of a Dirichlet search;
- a Dirichlet search's zero radii `R_u` (its `radius`) and `R_v` (its
  `v_zero_radius`);
- `predicted`, the verdict of `predict_existence`, and `agrees`: whether the
  search's answer is the theory's (None where the theory gives none);
- for a row that disagrees, the ROADMAP item that owns the wrong answer.

Floats are written with `float.hex`, so a row is reproduced exactly or not at
all. The points: the shipped family-sweep config, the family grids of
perfbench's `family-sweep` seeds 1-10, the off-diagonal points of ROADMAP
items 1 and 12, the nonvariational points of items 4(f) and 10, and the seven
`bisect-dirichlet` points of perfbench seed 1.

Run from the repository root, on the standard library alone:

    PYTHONPATH=src python tests/answer_ledger.py           # rewrite tests/answers.json
    PYTHONPATH=src python tests/answer_ledger.py --check   # exit 1 if a row differs

A change that moves an answer rewrites the file and explains each changed row.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from efdyn.cli import family_grid
from efdyn.dynamics import search_dirichlet, search_ground_state
from efdyn.energies import Verdict, predict_existence
from efdyn.model import SystemParams, hamiltonian_params, nonvariational_params, potential_params

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "answers.json"
N_ANGLES = 9
DIRICHLET_LOG_GAP = 1e-6     # |ln(R_v / R_u)| of a Dirichlet solution: both vanish at one radius


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


# -- the points ---------------------------------------------------------------

def _sweep_config_points() -> list[tuple[str, SystemParams, str, float | None]]:
    cfg = json.loads((ROOT / "configs" / "sweep_hamiltonian_diagonal.json").read_text())
    P, sw = SystemParams.from_dict(cfg["params"]), cfg["sweep"]
    assert sw["parameter"] == "delta=mu" and sw["n_angles"] == N_ANGLES
    return [(f"sweep-config/delta=mu={v!r}", P.replace(delta=v, mu=v), "ground-state", None)
            for v in family_grid(sw["start"], sw["stop"], sw["step"])]


def _family_sweep_points(seed: int):
    # perfbench's family_sweep_inputs: the Hamiltonian diagonal around the
    # critical value (N+2)/(N-2), 19 values at step 0.1
    rng = random.Random(f"family-sweep:{seed}")
    N = round(rng.uniform(5.0, 7.0), 4)
    start = (N + 2) / (N - 2) - 0.9
    return [(f"family-sweep:{seed}/delta=mu={v!r}", hamiltonian_params(N, v, v),
             "ground-state", None)
            for v in family_grid(start, start + 1.85, 0.1)]


def _bisect_dirichlet_points(seed: int):
    # perfbench's bisect_dirichlet_inputs: off-diagonal Hamiltonian and
    # potential points below and above the critical set, the first one at
    # four values of u0
    rng = random.Random(f"bisect-dirichlet:{seed}")

    def hamiltonian(below: bool) -> SystemParams:
        while True:
            N = rng.uniform(5.8, 6.2)
            crit = (N + 2) / (N - 2)
            delta = crit + (-1 if below else 1) * rng.uniform(0.35, 0.5)
            mu = delta + rng.choice((-1, 1)) * rng.uniform(0.35, 0.45)
            side = N / (delta + 1) + N / (mu + 1) - (N - 2)
            if side > 0.15 if below else side < -0.15:
                return hamiltonian_params(N, delta, mu)

    def potential(below: bool) -> SystemParams:
        while True:
            N = rng.uniform(5.8, 6.2)
            p = rng.uniform(1.95, 2.05)
            q = p + rng.uniform(0.25, 0.3)
            s = rng.uniform(0.4, 0.6)
            m_line = (N - (s + 1) * (N - p) / p) * q / (N - q) - 1
            m = m_line + (-1 if below else 1) * rng.uniform(0.25, 0.3)
            D = (m + 1) * (s + 1) - (p - 1 - s) * (q - 1 - m)
            if m >= 0.0 and D >= 0.5:
                return potential_params(N, p, q, s, m)

    first = hamiltonian(True)
    points = [(first, u0) for u0 in (1.0, 0.5, 2.0, 4.0)]
    points += [(hamiltonian(False), 1.0), (potential(True), 1.0), (potential(False), 1.0)]
    return [(f"bisect-dirichlet:{seed}/point[{i}]", P, "dirichlet", u0)
            for i, (P, u0) in enumerate(points)]


def points():
    """Every ledger point as (id, params, search, u0), in ledger order."""
    pts = _sweep_config_points()
    for seed in range(1, 11):
        pts += _family_sweep_points(seed)
    # ROADMAP item 1: Dirichlet solutions off the diagonal, and the false
    # ground states below the critical hyperbola
    pts += [("item-1/hamiltonian-1.6-2.1", hamiltonian_params(6.0, 1.6, 2.1), "dirichlet", 1.0),
            ("item-1/hamiltonian-1.5-2.0", hamiltonian_params(6.0, 1.5, 2.0), "dirichlet", 1.0),
            ("item-1/potential-2-2.3-0.4-0.6", potential_params(6.0, 2.0, 2.3, 0.4, 0.6),
             "dirichlet", 1.0),
            ("item-1/hamiltonian-3.5-1.2", hamiltonian_params(6.0, 3.5, 1.2), "ground-state", None),
            ("item-1/hamiltonian-3.6-1.2", hamiltonian_params(6.0, 3.6, 1.2), "ground-state", None)]
    # ROADMAP item 12: a flip between the X face and the first grid angle
    pts.append(("item-12/potential-example",
                potential_params(6.0, 2.2092699244201954, 1.7124072587566603,
                                 0.6161452868609552, 0.9710089253968845),
                "ground-state", None))
    # ROADMAP items 4(f) and 10: the nonvariational diagonal point, and the
    # points just below M0's Hopf curve Hs = 27/14 at (s, mu) = (0.5, 1.2)
    pts.append(("item-4f/nonvariational-1.7-1.7", nonvariational_params(6.0, 0.5, 1.7, 1.7),
                "ground-state", None))
    for gap in (0.005, 0.01, 0.02, 0.03):
        P = nonvariational_params(6.0, 0.5, 27 / 14 - gap, 1.2)
        name = f"item-10/nonvariational-(Hs-{gap!r})-1.2"
        pts += [(name, P, "ground-state", None), (f"{name}/u0=1.0", P, "dirichlet", 1.0)]
    return pts + _bisect_dirichlet_points(1)


# -- the rows -------------------------------------------------------------------

def _owner(search: str, verdict, found: bool) -> str:
    """The ROADMAP item that owns a disagreeing row's answer."""
    if verdict.verdict is Verdict.NO_GS_DIRICHLET:
        # a one-face boundary called a ground state, or a Dirichlet answer
        # taken at the S-boundary, where the two zeros differ
        return "1"
    if any(position == "on" for _, position in verdict.conditions):
        return "4(a)"       # the corner A0 decides the diagonal shot by roundoff
    if search == "ground-state" and not found:
        return "12"         # a flip between a face and the grid's end angle
    raise ValueError(f"a {search} row with found={found} disagrees with "
                     f"{verdict.verdict.value}, and no ROADMAP item owns it")


def row(name: str, P: SystemParams, search: str, u0: float | None) -> dict:
    """One ledger row: the search's answer at P next to predict_existence's."""
    verdict = predict_existence(P)
    r_u = r_v = None
    if search == "ground-state":
        res = search_ground_state(P, n_angles=N_ANGLES)
        found = res.found
        boundaries = [[b.kind, _hex(b.angle)] for b in res.boundaries]
    else:
        res = search_dirichlet(P, u0=u0, n_angles=N_ANGLES)
        found = res.found
        boundaries = [] if res.angle is None else [["dirichlet", _hex(res.angle)]]
        r_u, r_v = res.radius, res.v_zero_radius
    has_gs = {Verdict.GS_EXISTS: True, Verdict.ALL_REGULAR_ARE_GS: True,
              Verdict.NO_GS_DIRICHLET: False}.get(verdict.verdict)
    if has_gs is None:
        agrees = None
    elif search == "ground-state":
        agrees = found == has_gs
    elif has_gs:
        agrees = not found
    else:
        agrees = (found and r_u is not None and r_v is not None
                  and abs(math.log(r_v / r_u)) < DIRICHLET_LOG_GAP)
    return {"id": name, "search": search, "n_angles": N_ANGLES, "u0": _hex(u0),
            "params": {k: (_hex(v) if isinstance(v, float) else v)
                       for k, v in P.to_dict().items()},
            "found": found, "boundaries": boundaries, "R_u": _hex(r_u), "R_v": _hex(r_v),
            "predicted": verdict.verdict.value, "agrees": agrees,
            "owner": None if agrees is not False else _owner(search, verdict, found)}


def rows() -> list[dict]:
    return [row(*pt) for pt in points()]


def load() -> list[dict]:
    return json.loads(LEDGER.read_text())["rows"]


def main(argv: list[str]) -> int:
    fresh = rows()
    if argv == ["--check"]:
        stored = {r["id"]: r for r in load()}
        changed = [r["id"] for r in fresh if stored.get(r["id"]) != r]
        changed += sorted(set(stored) - {r["id"] for r in fresh})
        for name in changed:
            print(f"changed: {name}")
        print(f"{len(fresh)} rows, {len(changed)} changed")
        return 1 if changed else 0
    if argv:
        print(__doc__)
        return 2
    LEDGER.write_text(json.dumps({"rows": fresh}, indent=1) + "\n")
    print(f"{len(fresh)} rows, {sum(r['agrees'] is False for r in fresh)} disagree, "
          f"written to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Output bits pinned in one place: `tests/test_dynamics.py` imports them in
tier-1, and the CI numpy-free job runs this module on every Python it tests.

- The shot of `TestSameBitsOnEveryPython`: its initial step moved with the
  summation of `sum()` (compensated from Python 3.12 on) before the kernel
  added its squares left to right. Its hit times are pinned.
- The radial oracle's points (`TestOracleEquivalence`): the float.hex of
  `oracle_compare` at each, at rho = ORACLE_RHO, and its bound.
- The kernel's work on two runs, as (n_accepted, n_rejected, nfev): the
  same-bits shot's run read to its end, and a radial run to r = 1e12. Equal
  output bits from more or fewer steps or RHS evaluations show here.

Run from the repository root, on the standard library alone:

    PYTHONPATH=src python tests/pinned_bits.py   # exit 1 if a value moved
"""

from __future__ import annotations

import sys

from efdyn import dop853
from efdyn.dynamics import _radial_problem, _seed, classify_shot, oracle_compare
from efdyn.model import hamiltonian_params, potential_params

SAME_BITS_PARAMS = hamiltonian_params(5.839542367582504, 2.02380529112265, 3.3015309574690765)
SAME_BITS_THETA = 1.4177383620827078
SAME_BITS_RHO = 1e-4
SAME_BITS_HITS = {"y-bound": "0x1.34259956bcff5p+2", "blow-up": "0x1.41d30b7c71031p+2"}
SAME_BITS_COUNTS = (129, 106, 2722)

# a radial run of `dop853.solve` from u0 = v0 = 1 to r = 1e12
RADIAL_PARAMS = hamiltonian_params(6.0, 1.6, 2.1)
RADIAL_COUNTS = (214, 10, 2686)

# the oracle's points, the seed (x, y) in units of rho
ORACLE_RHO = 1e-6
ORACLE_BOUND = 1e-5
ORACLE_POINTS = [
    (hamiltonian_params(6.0, 2.0, 2.0), (0.6, 0.4)),
    (hamiltonian_params(5.0, 2.4, 1.7, a=0.3, b=-0.4), (0.5, 0.5)),
    (potential_params(6.0, 2.0, 2.3, 0.4, 0.6), (0.4, 0.7)),
    # near D = 0 (here 0.032, 0.070 and -0.054) the initial data u0, v0
    # leave double range; only their logarithms are formed
    (potential_params(5.350404552187802, 2.345939444167901, 2.38074873144643,
                      0.20977012392888117, 0.16656921132007008,
                      0.14384398027404183), (0.5, 0.5)),
    (potential_params(4.883675070236009, 2.78114947700686, 1.974149213310221,
                      0.2972472837474833, 0.07838028640472636,
                      -0.12308269187401276), (0.5, 0.5)),
    (potential_params(4.675269347129845, 2.526885955901273, 2.583325213813164,
                      0.3754511934459322, 0.1557762313195418,
                      -0.14261052586043746), (0.5, 0.5)),
]
ORACLE_HEX = ["0x1.1d1de26148e0cp-21", "0x1.eb8e0959ad601p-26", "0x1.f8219bedfc91ap-25",
              "0x1.3e79bd59a5810p-27", "0x1.3a4244a03f4abp-22", "0x1.2d88ffc6949fbp-28"]


def _same_bits_shot():
    seed = _seed(SAME_BITS_THETA, SAME_BITS_RHO)
    return classify_shot(SAME_BITS_PARAMS, *seed, SAME_BITS_RHO)


def _counts(sol) -> tuple[int, int, int]:
    return sol.n_accepted, sol.n_rejected, sol.nfev


def same_bits_hits() -> dict[str, str]:
    """The pinned shot's hit times, as float.hex."""
    return {k: v.hex() for k, v in _same_bits_shot().hit_times.items()}


def same_bits_counts() -> tuple[int, int, int]:
    """The pinned shot's run, read to its end (a hit-times read): its counts."""
    shot = _same_bits_shot()
    shot.hit_times
    return _counts(shot._sol)


def radial_counts() -> tuple[int, int, int]:
    """The counts of the pinned radial run."""
    return _counts(dop853.solve(*_radial_problem(RADIAL_PARAMS, 1.0, 1.0, 1e12)))


def oracle_value(params, xy) -> float:
    """oracle_compare at the point's seed, at rho = ORACLE_RHO."""
    return oracle_compare(params, xy[0] * ORACLE_RHO, xy[1] * ORACLE_RHO, ORACLE_RHO)


def main() -> int:
    moved = []
    got = same_bits_hits()
    if got != SAME_BITS_HITS:
        moved.append(f"same-bits shot: hit times {got}, pinned {SAME_BITS_HITS}")
    for name, counts, pinned in (("same-bits shot", same_bits_counts(), SAME_BITS_COUNTS),
                                 ("radial run", radial_counts(), RADIAL_COUNTS)):
        if counts != pinned:
            moved.append(f"{name}: (n_accepted, n_rejected, nfev) {counts}, pinned {pinned}")
    for i, ((params, xy), pinned) in enumerate(zip(ORACLE_POINTS, ORACLE_HEX)):
        err = oracle_value(params, xy)
        if not (err < ORACLE_BOUND and err.hex() == pinned):
            moved.append(f"oracle point {i}: {err.hex()}, pinned {pinned} (bound {ORACLE_BOUND})")
    for line in moved:
        print(line)
    print(f"{3 + len(ORACLE_POINTS)} pins, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

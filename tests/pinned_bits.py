"""Output bits pinned in one place: `tests/test_dynamics.py` imports them in
tier-1, and the CI numpy-free job runs this module on every Python it tests.

- The shot of `TestSameBitsOnEveryPython`: its initial step moved with the
  summation of `sum()` (compensated from Python 3.12 on) before the kernel
  added its squares left to right. Its hit times are pinned.
- The radial oracle's points (`TestOracleEquivalence`): the float.hex of
  `oracle_compare` at each, at rho = ORACLE_RHO, and its bound.
- The kernel's work on three runs, as (n_accepted, n_rejected, nfev): the
  same-bits shot's run read to its end, a radial run to r = 1e12, and the
  diagonal shot of a supercritical point, which ends where it enters M0's
  certified basin (its run to T_END took (100, 4, 1246)). Equal output bits
  from more or fewer steps or RHS evaluations show here.
- The work of two searches on a 9-angle grid, as the shots they take and
  the steps their shots' runs attempt, next to the boundary angles they
  find, as float.hex: a Dirichlet search of a point below the critical
  hyperbola, and a ground-state search of a point above it. A change that
  finds the same angles from more shots or steps shows here.
- The phase field's written-out step (`_step_phase._phase_step`) against
  the generic step (`_step_generic._step`) on the same field: y_new, the
  eight stage derivatives and the error estimate, to the bit, on fixed states
  and step sizes, signed zeros and stages that overflow to inf and nan among
  them.
- The radial field's written-out step (`_step_radial._radial_step`) against
  the generic step on the same field, in the same way, or the error that a
  power raises; exponents that are exactly 1 or 0 and ones that are not.
- The diagonal step (`_step_diagonal._diagonal_step`) against the generic
  step on diagonal states (X, X, Z, Z) of exchange-symmetric phase fields, in
  the same way, and the stage states X and Z against the field's arguments at
  each stage of the generic step.

Run from the repository root, on the standard library alone:

    PYTHONPATH=src python tests/pinned_bits.py   # exit 1 if a value moved
"""

from __future__ import annotations

import math
import sys

from efdyn import _step_diagonal, _step_generic, _step_phase, _step_radial, dop853
from efdyn.dynamics import (_radial_problem, _radial_rhs, _seed, classify_shot, oracle_compare,
                            search_dirichlet, search_ground_state)
from efdyn.model import (SystemParams, hamiltonian_params, nonvariational_params, phase_rhs,
                         potential_params, symmetric_scalar_embedding)

SAME_BITS_PARAMS = hamiltonian_params(5.839542367582504, 2.02380529112265, 3.3015309574690765)
SAME_BITS_THETA = 1.4177383620827078
SAME_BITS_RHO = 1e-4
SAME_BITS_HITS = {"y-bound": "0x1.34259956bcff5p+2", "blow-up": "0x1.41d30b7c71031p+2"}
SAME_BITS_COUNTS = (129, 106, 2722)

# a radial run of `dop853.solve` from u0 = v0 = 1 to r = 1e12
RADIAL_PARAMS = hamiltonian_params(6.0, 1.6, 2.1)
RADIAL_COUNTS = (214, 10, 2686)

# the pi/4 shot at rho = 1e-4, ended by its m0-basin event
M0_BASIN_PARAMS = hamiltonian_params(6.0, 2.5, 2.5)
M0_BASIN_COUNTS = (42, 4, 553)

# search_dirichlet(u0 = 1, n_angles = 9) on a Dirichlet flip: its angle,
# shots and attempted steps. Bisection alone took 32 shots and 1379 steps.
DIRICHLET_WORK_PARAMS = hamiltonian_params(6.0, 1.6, 2.1)
DIRICHLET_WORK = ("0x1.b8dcbf2176894p-1", 30, 1290)

# search_ground_state(n_angles = 9) on a ground-state flip: its boundaries as
# (kind, angle), shots and attempted steps. Bisection alone took 40 shots and
# 2094 steps.
GROUND_STATE_WORK_PARAMS = hamiltonian_params(6.0, 3.5, 1.2)
GROUND_STATE_WORK = ((("ground-state", "0x1.f471e87adf69cp-2"),), 40, 2092)

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


# the states (params, t, y) on which the two steps of the phase field must
# agree, at each step size of FUSED_STEP_H: the phase cases of
# TestKernelBits, two states of no symmetry, where a regrouped sum rounds
# differently, and one whose stages overflow
FUSED_STEP_NONSYMMETRIC = SystemParams(N=5.0, p=2.2, q=1.8, a=0.3, b=0.1, s=0.2, m=0.4,
                                       delta=2.0, mu=1.5, eps2=-1)
FUSED_STEP_STATES = [
    (hamiltonian_params(6.0, 2.0, 2.0), 0.0, (0.6, 0.6, 2.2, 2.2)),
    (hamiltonian_params(6.0, 2.0, 2.0), 3.0, (1e-5, 1e-5, 5.9999, 5.9999)),
    (hamiltonian_params(6.0, 2.0, 2.0), 0.0, (0.0, 0.4, 3.0, 2.0)),
    (FUSED_STEP_NONSYMMETRIC, 1.0, (0.7, -0.0, 0.0, 2.5)),
    (FUSED_STEP_NONSYMMETRIC, 1.0, (-0.0, -0.0, 4.0, 0.0)),
    (FUSED_STEP_NONSYMMETRIC, 0.5, (0.31, 0.77, 1.3, 2.9)),
    (potential_params(6.0, 2.0, 2.3, 0.4, 0.6), 0.0, (0.9, 1.1, 2.4, 3.3)),
    (FUSED_STEP_NONSYMMETRIC, 0.0, (1e155, -1e155, 3.0, -0.0)),
]
FUSED_STEP_H = (0.03, -0.03, 1e-7, -2.5)

# the states (params, t, y) on which the two steps of the radial field must
# agree, at each step size of FUSED_STEP_H: Hamiltonian systems (s = m = 0,
# p = q = 2) with a = b = 0 and with a != b, potential systems with a = b
# (s, m != 0; p = 2 with q != 2, and both != 2), the system of no symmetry,
# and symmetric ones on the diagonal; signed zeros, u or v negative past a
# zero, subnormal fluxes, stages that overflow to inf and nan, and a power
# that overflows and raises
RADIAL_STEP_STATES = [
    (hamiltonian_params(6.0, 1.6, 2.1), -2.0, (0.9, 1.1, -0.05, -0.02)),
    (hamiltonian_params(5.0, 2.4, 1.7, a=0.3, b=-0.4), 0.5, (0.3, 0.2, -0.4, 0.1)),
    (potential_params(6.0, 2.0, 2.3, 0.4, 0.6), 0.0, (0.9, 1.1, -2.4, -3.3)),
    (potential_params(6.0, 2.4, 1.7, 0.3, 0.3, a=0.2), 1.0, (-0.3, 0.4, 0.1, -0.2)),
    (FUSED_STEP_NONSYMMETRIC, 0.5, (0.3, -0.0, -0.0, 0.1)),
    (FUSED_STEP_NONSYMMETRIC, 0.0, (0.0, -0.2, 4.547575581979385e-191, -5e-320)),
    (symmetric_scalar_embedding(3.5, 2.0, 4.0), -2.0, (0.9, 0.9, -0.05, -0.05)),
    (hamiltonian_params(6.0, 1.8, 1.8), 0.5, (0.2, 0.2, -0.0, -0.0)),
    # v < 0 keeps U' = 0: with h < 0 every stage of U is -0.0, and u' is +0.0
    (hamiltonian_params(6.0, 1.6, 2.1), 0.0, (0.3, -0.2, -0.0, 0.1)),
    (hamiltonian_params(6.0, 2.0, 2.0), 0.0, (1.0, 1.0, -1e308, -1e308)),
    (FUSED_STEP_NONSYMMETRIC, 0.0, (0.5, 0.5, 0.1, 1e240)),
]

# the diagonal states (params, t, y) on which the diagonal step and the
# generic step of the phase field must agree, at each step size of
# FUSED_STEP_H: exchange-symmetric systems, with s = m != 0 and with
# a = b != 0 among them; signed zeros, and a state whose stages overflow to
# inf and nan
DIAGONAL_STEP_STATES = [
    (hamiltonian_params(6.0, 2.5, 2.5), 0.0, (0.6, 0.6, 2.2, 2.2)),
    (potential_params(6.0, 2.0, 2.0, 0.3, 0.3), 3.0, (1e-5, 1e-5, 5.9999, 5.9999)),
    (nonvariational_params(6.0, 0.5, 1.7, 1.7), 0.0, (-0.0, -0.0, 5.0, 5.0)),
    (hamiltonian_params(6.0, 2.5, 2.5, a=0.4, b=0.4), 1.0, (0.7, 0.7, 0.0, 0.0)),
    (hamiltonian_params(6.0, 2.0, 2.0), 0.0, (1e155, 1e155, -3.0, -3.0)),
]


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


def m0_basin_counts() -> tuple[int, int, int]:
    """The counts of the pinned diagonal shot's run."""
    return _counts(classify_shot(M0_BASIN_PARAMS, *_seed(math.pi / 4, 1e-4), 1e-4)._sol)


def _search_work(search):
    """search(), the number of shots it takes and the steps that their runs
    attempt (n_accepted + n_rejected), counted on the `dop853.steps` runs
    that it starts: every shot's, and no other run."""
    runs, real = [], dop853.steps

    def counted(*args):
        sols = real(*args)
        sol = next(sols)
        runs.append(sol)
        yield sol
        yield from sols
    dop853.steps = counted
    try:
        res = search()
    finally:
        dop853.steps = real
    return res, len(runs), sum(sol.n_accepted + sol.n_rejected for sol in runs)


def dirichlet_work() -> tuple[str, int, int]:
    """The pinned Dirichlet search's angle, as float.hex, shots and steps."""
    res, shots, attempted = _search_work(
        lambda: search_dirichlet(DIRICHLET_WORK_PARAMS, u0=1.0, n_angles=9))
    return res.angle.hex(), shots, attempted


def ground_state_work() -> tuple[tuple, int, int]:
    """The pinned ground-state search's boundaries, as (kind, float.hex of
    the angle), shots and steps."""
    res, shots, attempted = _search_work(lambda: search_ground_state(GROUND_STATE_WORK_PARAMS, 9))
    return tuple((b.kind, b.angle.hex()) for b in res.boundaries), shots, attempted


def step_bits(out) -> list:
    """float.hex of every float of a step's output (y_new, stage derivatives,
    error estimate), so that signed zeros count."""
    return out.hex() if isinstance(out, float) else [step_bits(v) for v in out]


def fused_step_mismatches() -> list[str]:
    """The cases of FUSED_STEP_STATES and FUSED_STEP_H on which the phase
    field's written-out step and the generic step differ in a bit."""
    moved = []
    for params, t, y in FUSED_STEP_STATES:
        rhs = phase_rhs(params)
        k0 = rhs(t, y)
        for h in FUSED_STEP_H:
            fused = _step_phase._phase_step(rhs.phase_constants, t, y, k0, h)
            if step_bits(fused) != step_bits(_step_generic._step(rhs, t, y, k0, h)):
                moved.append(f"{params} at t = {t}, y = {y}, h = {h}")
    return moved


def step_outcome(step, arg, t, y, k0, h):
    """A step's output in float.hex, or the name of the error it raises (a
    power of the radial field that overflows)."""
    try:
        return step_bits(step(arg, t, y, k0, h))
    except ArithmeticError as exc:
        return type(exc).__name__


class Recorder(float):
    """A folded constant that records, in float.hex, the other operand of
    each operation it takes part in: a written-out step run on constants of
    this type shows the stage states it forms. The result is the float
    operation's, bit for bit."""

    def __new__(cls, value, log):
        self = super().__new__(cls, value)
        self.log = log
        return self

    def _record(self, other):
        self.log.append(other.hex())
        return float(self)

    def __rsub__(self, other):
        return other - self._record(other)

    def __rtruediv__(self, other):
        return other / self._record(other)

    def __mul__(self, other):
        return self._record(other) * other

    def __rpow__(self, other):
        return other ** self._record(other)


def generic_calls(fun, t, y, k0, h, states) -> list:
    """The generic step's output on `fun` and, in float.hex, what `states`
    reads off each of the field's calls (t, stage state)."""
    calls = []

    def logged(s, v):
        calls.extend(step_bits(list(states(s, v))))
        return fun(s, v)
    return [calls, step_outcome(_step_generic._step, logged, t, y, k0, h)]


def on_diagonal_states(s, v):
    """X and Z of a diagonal stage state (X, X, Z, Z); NaN in place of both
    where it is off the diagonal to the bit."""
    X, Y, Z, W = v
    if step_bits([X, Z]) != step_bits([Y, W]):
        return math.nan, math.nan
    return X, Z


def diagonal_calls(params, t, y, k0, h) -> list:
    """The diagonal step's output on the phase constants of `params` and the
    stage states it forms, X (from X - bx) and Z (from Z / p1), in float.hex."""
    bx, by, p1, *rest = phase_rhs(params).phase_constants
    log = []
    fold = (Recorder(bx, log), by, Recorder(p1, log), *rest)
    return [log, step_outcome(_step_diagonal._diagonal_step, fold, t, y, k0, h)]


def diagonal_step_mismatches() -> list[str]:
    """The cases of DIAGONAL_STEP_STATES and FUSED_STEP_H on which the
    diagonal step and the generic step differ in a bit, in their output or
    in the stage states: a stage state that differs only in the sign of a
    zero can leave the output as it is."""
    moved = []
    for i, (params, t, y) in enumerate(DIAGONAL_STEP_STATES):
        fun = phase_rhs(params)
        k0 = fun(t, y)
        for h in FUSED_STEP_H:
            if (diagonal_calls(params, t, y, k0, h)
                    != generic_calls(fun, t, y, k0, h, on_diagonal_states)):
                moved.append(f"state {i}: t = {t}, y = {y}, h = {h}")
    return moved


def radial_step_mismatches() -> list[str]:
    """The cases of RADIAL_STEP_STATES and FUSED_STEP_H on which the radial
    field's written-out step and the generic step differ in a bit, or in the
    error they raise."""
    moved = []
    for i, (params, t, y) in enumerate(RADIAL_STEP_STATES):
        fun = _radial_rhs(params)
        k0 = fun(t, y)
        for h in FUSED_STEP_H:
            if (step_outcome(_step_radial._radial_step, fun.radial_constants, t, y, k0, h)
                    != step_outcome(_step_generic._step, fun, t, y, k0, h)):
                moved.append(f"state {i}: t = {t}, y = {y}, h = {h}")
    return moved


def oracle_value(params, xy) -> float:
    """oracle_compare at the point's seed, at rho = ORACLE_RHO."""
    return oracle_compare(params, xy[0] * ORACLE_RHO, xy[1] * ORACLE_RHO, ORACLE_RHO)


def main() -> int:
    moved = []
    got = same_bits_hits()
    if got != SAME_BITS_HITS:
        moved.append(f"same-bits shot: hit times {got}, pinned {SAME_BITS_HITS}")
    for name, counts, pinned in (("same-bits shot", same_bits_counts(), SAME_BITS_COUNTS),
                                 ("radial run", radial_counts(), RADIAL_COUNTS),
                                 ("m0-basin shot", m0_basin_counts(), M0_BASIN_COUNTS)):
        if counts != pinned:
            moved.append(f"{name}: (n_accepted, n_rejected, nfev) {counts}, pinned {pinned}")
    for name, work, pinned in (("Dirichlet search", dirichlet_work(), DIRICHLET_WORK),
                               ("ground-state search", ground_state_work(),
                                GROUND_STATE_WORK)):
        if work != pinned:
            moved.append(f"{name}: (angles, shots, steps) {work}, pinned {pinned}")
    for i, ((params, xy), pinned) in enumerate(zip(ORACLE_POINTS, ORACLE_HEX)):
        err = oracle_value(params, xy)
        if not (err < ORACLE_BOUND and err.hex() == pinned):
            moved.append(f"oracle point {i}: {err.hex()}, pinned {pinned} (bound {ORACLE_BOUND})")
    moved += [f"fused phase step differs from _step: {case}"
              for case in fused_step_mismatches()]
    moved += [f"radial step differs from _step: {case}"
              for case in radial_step_mismatches()]
    moved += [f"diagonal step differs from _step: {case}"
              for case in diagonal_step_mismatches()]
    for line in moved:
        print(line)
    print(f"{9 + len(ORACLE_POINTS)} pins, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Trajectory integration and the shooting classification.

Regular solutions form a two-parameter family leaving N0 = (0, 0, N+a, N+b);
seeds are placed on the first-order unstable-manifold graph over the (X, Y)
chart. Forward integration classifies each seed by which face of the rectangle

    (0, (N-p)/(p-1)) x (0, (N-q)/(q-1))

the (X, Y) projection reaches first (S1 / S2 / S3) or whether it never leaves
(S). X blows up where u vanishes and Y where v does, so the larger of X and Y
at blow-up names the profile that vanishes first (M1 / M2), and an exact tie
has both vanish at one radius (M3, the Dirichlet case).
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import EfdynError, Inconclusive, NotApplicable, PreconditionViolated, SeriesInvalid
from .model import (PhaseState, RadialState, SystemParams, derive_exponents,
                    exchange_params, normalized_regular_data, phase_rhs,
                    regular_initial_values, to_phase)
from .numerics import ANGLE_TOL, BLOW_UP, MANIFOLD_RHO, RADIAL_R0, SIM_WINDOW, T_END

# Annotations stay strings (from __future__ import annotations), so their
# names are not imported: Callable and Sequence are collections.abc's,
# Solution is efdyn.dop853's.

# efdyn.dop853, the integrator, is imported by the functions that use it: a
# command that integrates nothing (analyze) does not load it. The
# fixed-point catalog (efdyn.equilibria) is imported by its one reader,
# _m0_basin: a radial or a scalar run does not load it. Every run is read
# straight off its kernel run, a dop853.Solution.


def _signed_root(x: float, e: float) -> float:
    """copysign(|x|^e, x), and 0 at x = 0: the derivative u' = |U|^(1/(p-1))
    sign(U) from the flux U = |u'|^(p-2) u' for e = 1/(p-1)."""
    return math.copysign(abs(x) ** e, x) if x != 0.0 else 0.0


def _radial_state(P: SystemParams, t: float, y) -> RadialState:
    """The radial state at t = ln r from the integrator's state (u, v, U, V)."""
    u, v, U, V = y
    return RadialState(math.exp(t), u, v, _signed_root(U, 1 / (P.p - 1)),
                       _signed_root(V, 1 / (P.q - 1)))


@record
class RadialTrajectory:
    """A radial run at the integrator's accepted steps, as tuples of floats:
    r = exp(t) and the profiles with their derivatives."""

    r: tuple[float, ...]
    u: tuple[float, ...]
    v: tuple[float, ...]
    du: tuple[float, ...]
    dv: tuple[float, ...]
    termination: str                             # its first event's name, or "max-time"
    events: tuple[tuple[float, str], ...] = ()   # times are t = ln r

    def first_event(self, name: str) -> float | None:
        for t, n in self.events:
            if n == name:
                return t
        return None


@record
class EventSpec:
    """A named event g(t, y) = 0: `direction` > 0 counts upward zero crossings
    only, < 0 downward only, 0 both; a `terminal` event ends the integration."""

    name: str
    fn: Callable[[float, Sequence[float]], float]
    terminal: bool = False
    direction: float = 0.0


def _first_times(events) -> dict:
    """The first time of each of a shot's events x-bound, y-bound and blow-up,
    in that order, among a run's (t, name) pairs in the order found, without
    the events it never reached."""
    first = {}
    for t, name in events:
        first.setdefault(name, t)
    return {name: first[name] for name in ("x-bound", "y-bound", "blow-up") if name in first}


def _blow_up() -> EventSpec:
    """The terminal event that ends every kernel run where its orbit goes to
    infinity: a coordinate beyond BLOW_UP, read when the run starts. On the
    phase chart X or Y blows up where u or v vanishes, and Z or W in the
    absorption quadrants; on the radial route u, v, U or V diverges."""
    blow_up = BLOW_UP           # bound once: the event function runs at every step

    def beyond(t, y):
        # max(abs(y[0]), ..., abs(y[3])) - blow_up, in the comparisons of max()
        a, b, c, d = y
        a = -a if a < 0.0 else a
        b = -b if b < 0.0 else b
        a = b if b > a else a
        c = -c if c < 0.0 else c
        a = c if c > a else a
        d = -d if d < 0.0 else d
        return (d if d > a else a) - blow_up
    return EventSpec(name="blow-up", fn=beyond, terminal=True, direction=1.0)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from start to stop, both included: the
    values of `numpy.linspace(start, stop, num)`, bit for bit."""
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    start, stop = float(start), float(stop)
    delta, div = stop - start, num - 1
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:     # a subnormal delta: divide the index first
        xs = [i / div * delta + start for i in range(num)]
    else:
        xs = [i * step + start for i in range(num)]
    xs[-1] = stop
    return xs


def _ended(sol: Solution) -> str:
    """How a phase run ended: the name of the terminal event that stopped it
    (`blow-up`, a caller's event, or a plane orbit's capture at a fixed point,
    `scalar.capture_events`), else `max-time`."""
    return sol.events[-1][1] if sol.status == 1 else "max-time"


def integrate_m(params: SystemParams, initial: PhaseState,
                horizon: tuple[float, float],
                events: Sequence[EventSpec] = ()) -> Solution:
    """Integrate the phase system with an adaptive embedded Runge-Kutta pair:
    the kernel run itself (`dop853.Solution`).

    A coordinate beyond BLOW_UP stops the run at its blow-up event
    (`_blow_up`), as a terminal one of `events` stops it; every event root is
    located by Brent's method on the step's interpolant (`dop853.find_root`).
    `_ended` reads how the run ended.
    """
    from . import dop853
    return dop853.solve(*_phase_problem(params, initial, horizon, events))


def _phase_problem(params, initial, horizon, events):
    """A phase run's arguments of the kernel, (rhs, t0, y0, t_bound, events):
    `events` and the blow-up event. integrate_m and every shot run it."""
    y0 = (initial.X, initial.Y, initial.Z, initial.W)
    if not all(math.isfinite(c) for c in y0):
        raise PreconditionViolated("initial state must be finite")
    return phase_rhs(params), horizon[0], y0, horizon[1], (*events, _blow_up())


# -- radial oracle ------------------------------------------------------------

def _radial_rhs(params: SystemParams):
    """The radial field in t = ln r, on y = (u, v, U, V) with the fluxes
    U = |u'|^{p-2} u', V = |v'|^{q-2} v'.

    The field carries its constants as `radial_constants`, from which
    `dop853` picks the step of a run (see its module docstring). On the
    diagonal u = v, U = V of an exchange-symmetric system with s = m != 0 the
    flux products c r^ka u^s v^delta and c r^kb u^mu v^m multiply their
    factors in another order and round apart: such a run leaves the
    diagonal."""
    P = params
    ep, eq = 1 / (P.p - 1), 1 / (P.q - 1)
    ka, kb = 1 + P.a, 1 + P.b
    c1, c2 = -P.eps1, -P.eps2
    s, m, delta, mu, n1 = P.s, P.m, P.delta, P.mu, P.N - 1
    exp, copysign = math.exp, math.copysign

    def rhs(t, y):
        u, v, U, V = y
        r = exp(t)
        du = copysign(abs(U) ** ep, U) if U != 0.0 else 0.0
        dv = copysign(abs(V) ** eq, V) if V != 0.0 else 0.0
        # powers only see the positive part: max(u, 0.0), without the call
        uu = 0.0 if u < 0.0 else u
        vv = 0.0 if v < 0.0 else v
        return (r * du, r * dv,
                c1 * r ** ka * uu ** s * vv ** delta - n1 * U,
                c2 * r ** kb * uu ** mu * vv ** m - n1 * V)
    rhs.radial_constants = (ep, eq, ka, kb, c1, c2, s, m, delta, mu, n1)
    return rhs


def integrate_radial(params: SystemParams, u0: float, v0: float,
                     r_max: float) -> RadialTrajectory:
    """Regular solution of the radial system with data (u0, v0), in log-radius.

    Startup at r0 = RADIAL_R0 uses the first-order series: the flux potentials
    start as U = -eps1 r^{1+a} u0^s v0^delta/(N+a) (and symmetrically for V),
    which is exact to the order needed at r0 ~ 1e-6 where the profiles start
    positive; a series that starts u or v at or below zero, as a small
    (p+a)/(p-1) can, raises SeriesInvalid. Integration stops once
    neither profile is positive, when |u|, |v|, |U| or |V| exceeds BLOW_UP
    (termination "blow-up"), or at r_max (termination "max-time"), which must
    be a finite radius above r0 (PreconditionViolated). A run that stops at
    its second zero records both zeros; its termination names the first.
    """
    from . import dop853
    sol = dop853.solve(*_radial_problem(params, u0, v0, r_max))
    events = sorted(ev for ev in sol.events if ev[1] != "both-zero")
    if len(events) < len(sol.events):
        # the run ended at its both-zero root, and the kernel drops a zero
        # whose root falls at or past it: that zero is the run's end
        seen = {name for _, name in events}
        events += [(sol.t[-1], zero) for zero in ("u-zero", "v-zero") if zero not in seen]
    u, v, U, V = zip(*sol.y)
    P = params
    ep, eq = 1 / (P.p - 1), 1 / (P.q - 1)
    return RadialTrajectory(r=tuple(math.exp(t) for t in sol.t), u=u, v=v,
                            du=tuple(_signed_root(x, ep) for x in U),
                            dv=tuple(_signed_root(x, eq) for x in V),
                            termination=events[0][1] if events else "max-time",
                            events=tuple(events))


def _radial_problem(params, u0, v0, r_max):
    """A radial run's arguments of the kernel, (rhs, t0, y0, t_bound, events):
    the startup series at RADIAL_R0, and the events u-zero, v-zero, both-zero
    and blow-up. integrate_radial and oracle_compare run it. The run goes
    outward from RADIAL_R0: an r_max that is not a finite radius above it,
    NaN included, raises PreconditionViolated. A series that starts a profile
    at or below zero raises SeriesInvalid, as min(p+a, q+b) <= 0 does."""
    P = params
    if min(P.p + P.a, P.q + P.b) <= 0.0:
        raise SeriesInvalid("startup series needs min(p+a, q+b) > 0")
    if not (0.0 < u0 < math.inf and 0.0 < v0 < math.inf):
        raise PreconditionViolated("u0 and v0 must be positive and finite")
    if not RADIAL_R0 < r_max < math.inf:
        raise PreconditionViolated(f"need RADIAL_R0 = {RADIAL_R0} < r_max < inf, "
                                   f"got r_max = {r_max!r}")
    r0 = RADIAL_R0
    try:
        cu = (u0 ** P.s * v0 ** P.delta / (P.N + P.a)) ** (1 / (P.p - 1))
        cv = (u0 ** P.mu * v0 ** P.m / (P.N + P.b)) ** (1 / (P.q - 1))
        u_init = u0 - P.eps1 * cu * (P.p - 1) / (P.p + P.a) * r0 ** ((P.p + P.a) / (P.p - 1))
        v_init = v0 - P.eps2 * cv * (P.q - 1) / (P.q + P.b) * r0 ** ((P.q + P.b) / (P.q - 1))
        U_init = -P.eps1 * r0 ** (1 + P.a) * u0 ** P.s * v0 ** P.delta / (P.N + P.a)
        V_init = -P.eps2 * r0 ** (1 + P.b) * u0 ** P.mu * v0 ** P.m / (P.N + P.b)
        y0 = [u_init, v_init, U_init, V_init]
    except ArithmeticError:     # a power that overflows raises; a product gives inf
        y0 = None
    if y0 is None or not all(isinstance(c, float) and math.isfinite(c) for c in y0):
        raise PreconditionViolated(f"u0 = {u0!r}, v0 = {v0!r}: the startup series at "
                                   f"r0 = {r0} has no finite initial state")
    if not (u_init > 0.0 and v_init > 0.0):
        raise SeriesInvalid(f"u0 = {u0!r}, v0 = {v0!r}: the startup series at r0 = {r0} "
                            f"starts at u = {u_init!r}, v = {v_init!r}, not both positive")

    # u-zero, v-zero: sign changes; both-zero: neither profile positive any
    # more; blow-up: a profile or a flux that diverges (absorption, or past a
    # zero), where the flux may outrun the profile
    evs = (EventSpec(name="u-zero", fn=lambda t, y: y[0], terminal=False, direction=-1.0),
           EventSpec(name="v-zero", fn=lambda t, y: y[1], terminal=False, direction=-1.0),
           EventSpec(name="both-zero", fn=lambda t, y: max(y[0], y[1]), terminal=True,
                     direction=-1.0),
           _blow_up())
    return _radial_rhs(params), math.log(r0), y0, math.log(r_max), evs


def oracle_compare(params: SystemParams, x: float, y: float,
                   rho: float = MANIFOLD_RHO) -> float:
    """Max relative deviation between the two routes to the regular trajectory:
    direct radial integration mapped through the chart, versus phase-space
    integration from the manifold seed.

    The radial route runs from scale-normalized data (the scaling law makes
    the curves agree up to a log-radius shift); the shift is pinned by matching
    X at the window end, then all four coordinates are compared at 25 points
    of the window. The window ends where the phase run first leaves 60% of the
    box, located by a terminal event of that run. A phase run that ends
    otherwise (it may settle near a saddle such as M0, where the two routes
    part) closes no window: Inconclusive names the seed and how it ended. The
    radial run (`integrate_radial`'s problem) ends at a terminal read-end
    event at t_read = ph.t[-1] - tau + 0.5 + 1e-6: no time that the comparison
    reads lies beyond ph.t[-1] - tau + 0.5, and past it the window, the shift
    bracket and the sample filter no longer depend on where the run stops.
    Every value read is the whole run's, bit for bit. A step underflow of
    either run before its stop raises StepSizeUnderflow; one after it is never
    reached. Outside 1 < p, q < N it raises NotApplicable, as a shot does
    (`check_shot_params`): the box has no window to compare on.
    """
    from . import dop853
    check_shot_params(params)
    u0h, v0h, tau = normalized_regular_data(params, x, y)
    seed = launch_regular(params, x, y, rho)
    xw, yw = 0.6 * params.x_bound, 0.6 * params.y_bound
    window = EventSpec(name="window-end", fn=lambda t, v: max(v[0] - xw, v[1] - yw),
                       terminal=True, direction=1.0)
    ph = integrate_m(params, seed, horizon=(0.0, T_END), events=(window,))
    ended = _ended(ph)
    if ended != "window-end":
        raise Inconclusive(f"seed {(x, y)}: the phase run ended by {ended} at t = {ph.t[-1]} "
                           f"inside 60% of the box: no oracle window")
    t_read = ph.t[-1] - tau + 0.5 + 1e-6
    read_end = EventSpec(name="read-end", fn=lambda t, v: t - t_read, terminal=True,
                         direction=1.0)
    rhs, t0, y0, t_bound, evs = _radial_problem(params, u0h, v0h, math.exp(T_END))
    rad = dop853.solve(rhs, t0, y0, t_bound, (*evs, read_end))

    def rad_phase(t):
        return to_phase(params, _radial_state(params, t, rad.at(t)))

    rad_lo, rad_hi = math.log(math.exp(rad.t[0])), math.log(math.exp(rad.t[-1]))
    t_lo = max(0.0, rad_lo + tau + 1e-9)
    t_hi = min(ph.t[-1], rad_hi + tau - 1e-9)
    if t_hi - t_lo < 1e-3:
        raise Inconclusive("no overlap window for the oracle comparison")

    # refine the shift so X agrees exactly at the end of the window
    x_target = float(ph.at(t_hi)[0])

    def shift_residual(dt):
        return float(rad_phase(t_hi - tau + dt).X) - x_target

    lo, hi = -0.5, 0.5
    lo = max(lo, rad_lo - (t_hi - tau) + 1e-9)
    hi = min(hi, rad_hi - (t_hi - tau) - 1e-9)
    d_tau = 0.0
    if shift_residual(lo) * shift_residual(hi) < 0:
        d_tau = dop853.find_root(shift_residual, lo, hi, xtol=1e-14)
    shift = tau - d_tau

    worst = 0.0
    for t in linspace(t_lo, t_hi, 25):
        if not rad_lo + 1e-9 <= t - shift <= rad_hi - 1e-9:
            continue
        ref = rad_phase(t - shift).coords
        devs = [abs(g - r) / (1.0 + abs(r)) for g, r in zip(ph.at(t), ref)]
        if all(d == d for d in devs):       # a sample with a NaN deviation is skipped
            worst = max(worst, *devs)
    return worst


# -- regular-manifold seeding --------------------------------------------------

def launch_regular(params: SystemParams, x: float, y: float,
                   rho: float = MANIFOLD_RHO) -> PhaseState:
    """Seed on the unstable manifold of N0 at chart point (x, y), first order.

    The linearization at N0 has unstable rates lam1 = (p+a)/(p-1) (X) and
    lam2 = (q+b)/(q-1) (Y); the manifold graph starts as

        Z = N + a - (N+a) [ s x/(lam1 + N + a) + delta y/(lam2 + N + a) ],
        W = N + b - (N+b) [ mu x/(lam1 + N + b) + m y/(lam2 + N + b) ].
    """
    P = params
    if x < 0 or y < 0 or (x == 0.0 and y == 0.0) or x * x + y * y > rho * rho * (1 + 1e-12):
        raise PreconditionViolated("need x, y >= 0, (x, y) != 0, x^2 + y^2 <= rho^2")
    lam1 = (P.p + P.a) / (P.p - 1)
    lam2 = (P.q + P.b) / (P.q - 1)
    Na, Nb = P.N + P.a, P.N + P.b
    Z = Na - Na * (P.s * x / (lam1 + Na) + P.delta * y / (lam2 + Na))
    W = Nb - Nb * (P.mu * x / (lam1 + Nb) + P.m * y / (lam2 + Nb))
    return PhaseState(0.0, x, y, Z, W)


# -- shot classification ---------------------------------------------------------

class SClass(str, Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S = "S"


class MClass(str, Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    GS = "GS"


def _s_class(hit: dict) -> SClass:
    """The face crossed first, from a shot's first x- and y-bound crossing
    times by name (at least one of them)."""
    t_x, t_y = hit.get("x-bound"), hit.get("y-bound")
    if t_x is not None and t_y is not None:
        return SClass.S3 if abs(t_x - t_y) <= SIM_WINDOW else \
            (SClass.S1 if t_x < t_y else SClass.S2)
    return SClass.S1 if t_y is None else SClass.S2


def _m0_basin(P: SystemParams):
    """M0's certified basin on the invariant diagonal X = Y, Z = W of an
    exchange-symmetric system: ((X0, Z0), (p11, p12, p22), c), the ellipse
    V(e) = p11 eX^2 + 2 p12 eX eZ + p22 eZ^2 < c in e = (X - X0, Z - Z0); None
    unless p > 1 and M0 is a sink strictly inside the box.

    There e' = J e + B(e, e), J = [[X0, k X0], [-sig Z0, -Z0]], B = (eX (eX +
    k eZ), -eZ (sig eX + eZ)), k = 1/(p-1), sig = s + delta, so |B| <= beta
    |e|^2 with beta^2 = 1 + max(k, |sig|)^2. With J^T P + P J = -I, V' = -|e|^2
    + 2 (P e).B <= |e|^2 (2 beta sqrt(|P| V) - 1) < 0 for V < 1/(4 beta^2 |P|).
    c is the smaller of that level and the largest inside X < x_bound, less
    1e-6 of it: an orbit that enters stays there and tends to M0, a ground
    state (Khalil, Nonlinear Systems, 3rd ed., sec. 8.2).
    """
    if not (P.p > 1.0 and P.D != 0.0 and exchange_params(P) == P):
        return None
    from .equilibria import m0_coords
    X0, _, Z0, _ = m0_coords(P)
    k, sig, xb = 1 / (P.p - 1), P.s + P.delta, P.x_bound
    j11, j12, j21, j22 = X0, k * X0, -sig * Z0, -Z0
    tr, det = j11 + j22, j11 * j22 - j12 * j21
    if not (0.0 < X0 < xb and Z0 > 0.0 and tr < 0.0 and det > 0.0):
        return None
    # P = -(det I + adj(J)^T adj(J)) / (2 tr det), adj(J) = [[j22, -j12], [-j21, j11]]
    den = -2 * tr * det
    p11, p22 = (det + j22 * j22 + j21 * j21) / den, (det + j11 * j11 + j12 * j12) / den
    p12 = -(j11 * j21 + j12 * j22) / den
    norm = (p11 + p22) / 2 + math.hypot((p11 - p22) / 2, p12)
    # the largest eX on the ellipse V = c is sqrt(c p22 / det P)
    c = min(1 / (4 * (1 + max(k, abs(sig)) ** 2) * norm),
            (xb - X0) ** 2 * (p11 * p22 - p12 * p12) / p22)
    return (X0, Z0), (p11, p12, p22), c * (1 - 1e-6)


# the exchange image of each class and face event: the faces and the
# profiles trade places
_EXCHANGED = {SClass.S1: SClass.S2, SClass.S2: SClass.S1,
              MClass.M1: MClass.M2, MClass.M2: MClass.M1,
              "x-bound": "y-bound", "y-bound": "x-bound"}


@record
class ShotOutcome:
    """One regular seed's S-decision (`classify_shot`): its seed, its S-class
    and its face gap.

    `gap` is the face gap ln((Y x_bound)/(X y_bound)) in the state at the
    first face crossing (the run's dense output there): < 0 on S1, > 0 on S2,
    0 where both faces are reached at once (S3). It crosses 0 continuously
    at a Dirichlet flip and jumps at a ground-state flip. A shot with no
    crossing state has gap None."""

    seed: tuple[float, float]
    s_class: SClass
    gap: float | None

    def exchanged(self) -> ShotOutcome:
        """The shot at the exchange image of the seed, for a system with
        exchange_params(P) == P: S1 and S2 trade places and the gap changes
        sign."""
        return ShotOutcome(self.seed[::-1], _EXCHANGED.get(self.s_class, self.s_class),
                           None if self.gap is None else -self.gap)


@record
class ShotReport:
    """One regular seed's shot run to its end (`read_shot`): its seed, its
    S-class, its M-class and the first time of each of its events x-bound,
    y-bound and blow-up that it reached, as (name, t) pairs in that order."""

    seed: tuple[float, float]
    s_class: SClass
    m_class: MClass
    hit_times: tuple[tuple[str, float], ...]

    def exchanged(self) -> ShotReport:
        """The report at the exchange image of the seed, for a system with
        exchange_params(P) == P: the faces and the profiles trade places."""
        swap = _EXCHANGED.get
        return ShotReport(self.seed[::-1], swap(self.s_class, self.s_class),
                          swap(self.m_class, self.m_class),
                          tuple(_first_times((t, swap(name, name))
                                             for name, t in self.hit_times).items()))

    def to_dict(self) -> dict:
        return {"seed": list(self.seed), "sClass": self.s_class.value,
                "mClass": self.m_class.value, "hitTimes": dict(self.hit_times)}


def check_shot_params(params: SystemParams) -> None:
    """NotApplicable, naming the failed condition, unless 1 < p, q < N and
    eps1 = eps2 = 1: else the box (0, x_bound) x (0, y_bound) that a shot
    leaves is empty, or the shot answers for another system. The phase field
    and the manifold seed read no sign: they are those of eps = (1, 1)."""
    for name, e in (("p", params.p), ("q", params.q)):
        if not 1.0 < e < params.N:
            raise NotApplicable(f"shots need 1 < {name} < N: {name} = {e!r}, N = {params.N!r}")
    if not params.eps1 == params.eps2 == 1:
        raise NotApplicable(f"shots need eps1 = eps2 = 1: eps1 = {params.eps1!r}, "
                            f"eps2 = {params.eps2!r}")


def _shot_problem(params, x, y, rho):
    """A shot's arguments of the kernel, (rhs, t0, y0, t_bound, events): the
    manifold seed at (x, y) on the horizon T_END, the face events x-bound and
    y-bound, the terminal m0-basin event of a diagonal seed (x == y) where
    `_m0_basin` finds a region, and the blow-up event. classify_shot and
    read_shot run it. Outside 1 < p, q < N it raises NotApplicable."""
    check_shot_params(params)
    # tiny hysteresis keeps asymptotic approaches to the face (X -> bound
    # from below, with integration noise) from registering as crossings
    cp = params.x_bound * (1 + 1e-9)
    cq = params.y_bound * (1 + 1e-9)
    events = (EventSpec(name="x-bound", fn=lambda t, v: v[0] - cp, terminal=False,
                        direction=1.0),
              EventSpec(name="y-bound", fn=lambda t, v: v[1] - cq, terminal=False,
                        direction=1.0))
    basin = _m0_basin(params) if x == y else None
    if basin is not None:
        (X0, Z0), (p11, p12, p22), c = basin

        def level(t, v):
            eX, eZ = v[0] - X0, v[2] - Z0
            return (p11 * eX + 2 * p12 * eZ) * eX + p22 * eZ * eZ - c
        events += (EventSpec(name="m0-basin", fn=level, terminal=True, direction=-1.0),)
    seed = launch_regular(params, x, y, rho)
    return _phase_problem(params, seed, (0.0, T_END), events)


def _read_end(seed, sol) -> tuple[SClass, MClass, dict]:
    """The S-class, M-class and hit times of the shot at `seed`, read off its
    ended run: its blow-up event, its m0-basin event (S, GS) or T_END. At
    blow-up the larger of X and Y names the M-class, M1 for X and M2 for Y,
    and an exact tie, as on the pi/4 shot of an exchange-symmetric system,
    M3."""
    hit = _first_times(sol.events)
    blew = "blow-up" in hit
    if "x-bound" not in hit and "y-bound" not in hit:
        if blew:
            raise Inconclusive(f"seed {seed}: left the box at t = {sol.t[-1]} "
                               f"without crossing a face")
        return SClass.S, MClass.GS, hit
    if not blew:
        raise Inconclusive(f"seed {seed}: crossed at t = {min(hit.values())} "
                           f"but no blow-up within t = {T_END}")
    # the larger of X and Y, the one that blew up, names the profile that
    # vanished first; an exact tie names both
    X_end, Y_end = sol.y[-1][:2]
    m_class = MClass.M1 if X_end > Y_end else MClass.M2 if X_end < Y_end else MClass.M3
    return _s_class(hit), m_class, hit


def classify_shot(params: SystemParams, x: float, y: float,
                  rho: float = MANIFOLD_RHO) -> ShotOutcome:
    """Classify one regular seed by the face its (X, Y) projection crosses
    first, or S if it stays in the box (or enters M0's certified basin on the
    diagonal, `_m0_basin`): its ShotOutcome, from one run on the horizon
    T_END that stops at the S-decision. That is an accepted step that ends
    SIM_WINDOW past the first face crossing, after which a later crossing of
    the other face cannot make the shot S3. A run that ends before it is read
    at once, as `read_shot` reads it, and raises as that does. Outside
    1 < p, q < N it raises NotApplicable.
    """
    from . import dop853
    first = math.inf
    for sol in dop853.steps(*_shot_problem(params, x, y, rho)):
        if first == math.inf and sol.events:
            # the first step with an event holds the first crossing
            first = min(t for t, _ in sol.events)
        if sol.status is None and sol.t[-1] > first + SIM_WINDOW:
            s_class = _s_class(_first_times(sol.events))
            break
    else:
        s_class = _read_end((x, y), sol)[0]
    # the face gap in the state at the first crossing
    t_face = min((t for t, name in sol.events if name in ("x-bound", "y-bound")), default=None)
    X, Y = (0.0, 0.0) if t_face is None else sol.at(t_face)[:2]
    gap = math.log(Y * params.x_bound / (X * params.y_bound)) if X > 0.0 and Y > 0.0 else None
    return ShotOutcome((x, y), s_class, gap)


def read_shot(params: SystemParams, x: float, y: float,
              rho: float = MANIFOLD_RHO) -> ShotReport:
    """One regular seed's ShotReport: the run of `classify_shot`, to its end
    at blow-up, at the m0-basin event or at T_END. Its S-class is the one
    that `classify_shot` gives. A run that leaves the box without crossing a
    face, or crosses one but does not blow up by T_END, raises Inconclusive
    naming the seed. Outside 1 < p, q < N it raises NotApplicable.
    """
    from . import dop853
    s_class, m_class, hit = _read_end((x, y), dop853.solve(*_shot_problem(params, x, y, rho)))
    return ShotReport((x, y), s_class, m_class, tuple(hit.items()))


# -- searches --------------------------------------------------------------------

@record
class BoundaryHit:
    """A boundary of `search_ground_state`: its angle, its kind and the shot
    that decides it. A grid S3 shot is its own hit. A flip's hit has the
    midpoint of the bisection's final bracket as its angle and the last shot
    taken as its outcome: where the bisection ends at an S or S3 shot, that
    shot is at `angle`; where it ends by width, it lies at an end of the
    final bracket, not at `angle`."""

    angle: float
    kind: str            # "ground-state" | "dirichlet"
    outcome: ShotOutcome


@record
class GroundStateSearch:
    found: bool
    boundaries: tuple[BoundaryHit, ...]
    outcomes: tuple[ShotOutcome, ...]
    angles: tuple[float, ...]


def _seed(theta: float, rho: float) -> tuple[float, float]:
    """The manifold seed at angle theta and radius rho. At theta = pi/4 it lies
    on the diagonal exactly: cos and sin of the rounded pi/4 differ by an ulp,
    which would seed a symmetric system off its invariant diagonal. At
    theta = pi/2 it lies on the invariant face X = 0 exactly, (0.0, rho): the
    cos of the rounded pi/2 is 6.1e-17."""
    x = 0.0 if theta == math.pi / 2 else rho * math.cos(theta)
    y = x if theta == math.pi / 4 else rho * math.sin(theta)
    return x, y


def _angle_grid(params, n_angles, shoot):
    """The uniform grid of n_angles angles over (0, pi/2) and `shoot(theta)`
    at each, ordered by angle.

    When exchange_params(params) == params, the swap X <-> Y, Z <-> W maps the
    shot at theta onto the shot at pi/2 - theta: only the first ceil(n/2)
    angles are shot, and the shot at each angle above them is the
    `exchanged()` image of its partner's.
    """
    if n_angles < 0:
        raise PreconditionViolated(f"need n_angles >= 0, got {n_angles}")
    thetas = tuple(linspace(0.0, math.pi / 2, n_angles + 2)[1:-1])
    shot = (n_angles + 1) // 2 if exchange_params(params) == params else n_angles
    shots = [shoot(th) for th in thetas[:shot]]
    shots += [shots[n_angles - 1 - i].exchanged() for i in range(shot, n_angles)]
    return thetas, shots


def sweep_angles(params: SystemParams,
                 n_angles: int = 33) -> tuple[tuple[float, ...], list[ShotOutcome]]:
    """Classify the seeds at MANIFOLD_RHO on a uniform angle grid over (0, pi/2),
    ordered by angle, mirrored on an exchange-symmetric system (`_angle_grid`).
    """
    return _angle_grid(params, n_angles,
                       lambda th: classify_shot(params, *_seed(th, MANIFOLD_RHO)))


class _Stop(Exception):
    """Ends the Brent phase of `_bisect_boundary`."""


def _bisect_boundary(params, th_lo, th_hi, out_lo, out_hi) -> BoundaryHit:
    """Shrink the S1/S2 flip interval between the grid shots out_lo at th_lo
    and out_hi at th_hi to ANGLE_TOL by bisection, and decide what sits on it.

    Brent's method on the face gap (`dop853.find_root`, started from the two
    grid shots' gaps) first closes in on the flip: each shot narrows the
    class bracket [a, b], with out_lo's class at a and the other one at b. It
    stops at an S or S3 shot, at a gap whose sign is not its class's, or
    after two shots in a row whose |gap| is not below 0.7 of the smallest so
    far: a jump, as at a ground-state flip, not a zero. The bisection then
    runs as it would alone, but a midpoint at or below a takes out_lo's class
    and one at or above b the other, unshot; a midpoint inside (a, b) and
    the last midpoint, whose shot is the hit's outcome, are shot. Where the
    S-class flips once on the interval, the hit is the plain bisection's, bit
    for bit, from fewer shots.
    """
    from . import dop853
    side_lo = out_lo.s_class
    shots = {th_lo: out_lo, th_hi: out_hi}
    a, b = th_lo, th_hi

    def shoot(th):
        nonlocal a, b
        out = shots.get(th) or classify_shot(params, *_seed(th, MANIFOLD_RHO))
        if out.s_class is side_lo:
            a = max(a, th)
        elif out.s_class is SClass.S1 or out.s_class is SClass.S2:
            b = min(b, th)
        return out

    def signed(out):
        g = out.gap
        return g is not None and (g < 0.0 if out.s_class is SClass.S1 else
                                  out.s_class is SClass.S2 and g > 0.0)

    if signed(out_lo) and signed(out_hi):
        least, misses = min(abs(out_lo.gap), abs(out_hi.gap)), 0

        def gap(th):
            nonlocal least, misses
            # kept: a bisection midpoint may fall on it
            out = shots[th] = shoot(th)
            if th == th_lo or th == th_hi:
                return out.gap
            if not signed(out):
                raise _Stop
            if abs(out.gap) < 0.7 * least:
                least, misses = abs(out.gap), 0
            else:
                misses += 1
                if misses == 2:
                    raise _Stop
            return out.gap
        try:
            dop853.find_root(gap, th_lo, th_hi, ANGLE_TOL)
        except (_Stop, EfdynError, RuntimeError):
            pass        # the bisection below is the answer in any case

    lo, hi = th_lo, th_hi
    mid_out = None
    while hi - lo > ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        below = mid <= a        # unshot: a's class at or below a, b's at or above b
        if a < mid < b or (hi - mid if below else mid - lo) <= ANGLE_TOL:
            mid_out = shoot(mid)
            if mid_out.s_class in (SClass.S, SClass.S3):
                break
            below = mid_out.s_class == side_lo
        if below:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if mid_out is None:
        mid_out = classify_shot(params, *_seed(mid, MANIFOLD_RHO))
    if mid_out.s_class is SClass.S3:
        # both faces at once at the limit: both profiles vanish at one radius
        return BoundaryHit(mid, "dirichlet", mid_out)
    # S, or S1 or S2 at the limit, is taken for a ground state
    return BoundaryHit(mid, "ground-state", mid_out)


def search_ground_state(params: SystemParams, n_angles: int = 33) -> GroundStateSearch:
    """Angle sweep plus bisection of every S1/S2 flip.

    A ground state is witnessed either by a grid seed that never leaves the
    rectangle, or by a flip boundary whose limiting shot stays in it or is S1
    or S2. The search reads S-classes only, so no shot runs past its
    S-decision. Deterministic for fixed grid and tolerances. Each flip is
    first bracketed by Brent's method on the shots' face gaps, which saves
    the bisection shots but not its answer (`_bisect_boundary`).
    """
    if n_angles < 1:
        # zero shots would report found=False as if it were an answer
        raise PreconditionViolated(f"need n_angles >= 1, got {n_angles}")
    thetas, outcomes = sweep_angles(params, n_angles)
    boundaries: list[BoundaryHit] = []
    for i in range(len(thetas) - 1):
        a, b = outcomes[i], outcomes[i + 1]
        if {a.s_class, b.s_class} == {SClass.S1, SClass.S2}:
            boundaries.append(_bisect_boundary(params, thetas[i], thetas[i + 1], a, b))
    for th, o in zip(thetas, outcomes):
        if o.s_class is SClass.S3:
            boundaries.append(BoundaryHit(th, "dirichlet", o))
    found = (any(o.s_class is SClass.S for o in outcomes)
             or any(b.kind == "ground-state" for b in boundaries))
    return GroundStateSearch(
        found=found,
        boundaries=tuple(boundaries),
        outcomes=tuple(outcomes),
        angles=thetas,
    )


@record
class DirichletSearch:
    found: bool
    radius: float | None = None
    v_zero_radius: float | None = None
    initial_values: tuple[float, float] | None = None
    angle: float | None = None

    def to_dict(self) -> dict:
        return {"found": self.found, "radius": self.radius,
                "v_zero_radius": self.v_zero_radius,
                "initial_values": list(self.initial_values) if self.initial_values else None,
                "angle": self.angle}


def search_dirichlet(params: SystemParams, u0: float | None = None,
                     n_angles: int = 33) -> DirichletSearch:
    """Find a positive radial solution vanishing at one radius.

    Locates a simultaneous-vanishing seed by the angle search, maps it to
    regular initial data, then integrates the radial system to read off the
    common zero radius. When u0 is given, the solution is rescaled by the
    exact scaling law (theta^gamma u(theta r), theta^xi v(theta r)) so that
    u(0) = u0, and the rescaled data is re-integrated. A u0 that is not
    positive and finite raises PreconditionViolated before any shot.
    """
    if u0 is not None and not 0.0 < u0 < math.inf:
        raise PreconditionViolated(f"need u0 > 0 and finite, got {u0!r}")
    res = search_ground_state(params, n_angles)
    # the smallest Dirichlet boundary: a grid S3 shot or a flip's S3 limit
    angle = min((b.angle for b in res.boundaries if b.kind == "dirichlet"), default=None)
    if angle is None:
        return DirichletSearch(found=False)
    x, y = _seed(angle, MANIFOLD_RHO)
    u0_star, v0_star = regular_initial_values(params, x, y)
    if u0 is not None:
        ex = derive_exponents(params)
        scale = (u0 / u0_star) ** (1.0 / ex.gamma)
        u0_star, v0_star = u0, v0_star * scale ** ex.xi
    # integrate far enough to capture both zeros
    rad = integrate_radial(params, u0_star, v0_star, r_max=1e12)
    tu = rad.first_event("u-zero")
    tv = rad.first_event("v-zero")
    if tu is None and tv is None:
        return DirichletSearch(found=False, initial_values=(u0_star, v0_star), angle=angle)
    r_u = math.exp(tu) if tu is not None else None
    r_v = math.exp(tv) if tv is not None else None
    return DirichletSearch(found=True, radius=r_u if r_u is not None else r_v,
                           v_zero_radius=r_v, initial_values=(u0_star, v0_star),
                           angle=angle)

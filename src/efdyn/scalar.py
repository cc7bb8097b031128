"""The scalar equation -Lap_p u = eps |x|^a |u|^{Q-1} u in its 2D phase plane.

With X = -r u'/u and Z = -eps r^{1+a} |u|^{Q-1} u u'/|u'|^p, t = ln r, both
signs eps = +/-1 share one system

    X_t = X [ X - (N-p)/(p-1) + Z/(p-1) ],
    Z_t = Z [ N + a - Q X - Z ],

the sign of X Z distinguishing them (source: quadrants 1 and 3; absorption:
2 and 4). Two exponent thresholds organize everything:

    Q1 = (N+a)(p-1)/(N-p),     Q2 = (N(p-1) + p + pa)/(N-p),

and at Q = Q2 the segment joining N0 = (0, N+a) to A0 = ((N-p)/(p-1), 0) is
invariant, carrying the explicit ground states.

The plane is the diagonal (X, X, Z, Z) of the symmetric system
`symmetric_scalar_embedding`, which `phase_rhs` keeps bitwise invariant;
scalar runs integrate that system (phase or radial) and read columns 0 and 2.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import Inconclusive, NotApplicable, PreconditionViolated, StepSizeUnderflow
from .model import PhaseState, SystemParams, symmetric_scalar_embedding
from .numerics import CAPTURE_DIST, MANIFOLD_RHO, SCALAR_R_MAX, T_END

# efdyn.dynamics, the integrator, is imported by the functions that use it:
# efdyn.energies reads only the closed forms of this module.
# Solution in the annotations is efdyn.dop853's class: a phase run is read
# straight off its kernel run.


def threshold_q1(N, p, a) -> float:
    """Q1 = (N+a)(p-1)/(N-p), the Serrin exponent."""
    return (N + a) * (p - 1) / (N - p)


def threshold_q2(N, p, a) -> float:
    """Q2 = (N(p-1) + p + pa)/(N-p), the critical (Sobolev) exponent."""
    return (N * (p - 1) + p + p * a) / (N - p)


@record
class ScalarParams:
    N: float
    p: float
    a: float
    Q: float
    eps: int = 1

    def __post_init__(self):
        if not 1.0 < self.p < self.N:
            raise PreconditionViolated("need 1 < p < N")
        if self.p + self.a <= 0.0:
            raise PreconditionViolated("need p + a > 0")
        if self.Q == self.p - 1.0:
            raise PreconditionViolated("need Q != p - 1")
        if self.eps not in (-1, 1):
            raise PreconditionViolated("eps must be +1 or -1")

    @property
    def Q1(self) -> float:
        return threshold_q1(self.N, self.p, self.a)

    @property
    def Q2(self) -> float:
        return threshold_q2(self.N, self.p, self.a)

    @property
    def gamma(self) -> float:
        return (self.p + self.a) / (self.Q + 1 - self.p)

    @property
    def x_bound(self) -> float:
        return (self.N - self.p) / (self.p - 1)

    @property
    def system(self) -> SystemParams:
        """The symmetric system whose diagonal solutions (u, u) solve this equation."""
        return symmetric_scalar_embedding(self.N, self.p, self.Q, self.a, self.eps)

    def to_dict(self) -> dict:
        return {"N": self.N, "p": self.p, "a": self.a, "Q": self.Q, "eps": self.eps}


def scalar_jacobian(sp: ScalarParams, coords) -> tuple[tuple[float, float], ...]:
    X, Z = coords
    return ((2 * X - sp.x_bound + Z / (sp.p - 1), X / (sp.p - 1)),
            (-sp.Q * Z, sp.N + sp.a - sp.Q * X - 2 * Z))


def scalar_fixed_points(sp: ScalarParams) -> dict[str, tuple[float, float]]:
    g = sp.gamma
    return {
        "M0": (g, sp.N - sp.p - (sp.p - 1) * g),
        "O": (0.0, 0.0),
        "N0": (0.0, sp.N + sp.a),
        "A0": (sp.x_bound, 0.0),
    }


def scalar_profile_from_phase(sp: ScalarParams, t: float, X: float, Z: float) -> float:
    """|u| at r = e^t from the phase point."""
    return math.exp(-sp.gamma * t
                    + (math.log(abs(Z)) + (sp.p - 1) * math.log(abs(X))) / (sp.Q + 1 - sp.p))


def line_quantity(sp: ScalarParams, X: float, Z: float) -> float:
    """X/p' + Z/(Q+1) - (N-p)/p; its zero set at Q = Q2 is the invariant segment."""
    return X * (sp.p - 1) / sp.p + Z / (sp.Q + 1) - (sp.N - sp.p) / sp.p


def particular_amplitude(sp: ScalarParams) -> float:
    """A with u = A r^{-gamma} an exact solution; needs eps * gamma^{p-1} (N-p-(p-1)gamma) > 0."""
    g = sp.gamma
    base = sp.eps * abs(g) ** (sp.p - 1) * math.copysign(1.0, g) * (sp.N - sp.p - (sp.p - 1) * g)
    if g <= 0 or base <= 0.0:
        raise NotApplicable(f"power-solution base {base} is not positive")
    return base ** (1.0 / (sp.Q - sp.p + 1))


def explicit_critical_solution(sp: ScalarParams, c: float = 1.0):
    """Closed-form ground state at Q = Q2 (source sign): returns (u, du) callables.

    u(r) = c (K^2 + r^{(p+a)/(p-1)})^{(p-N)/(p+a)},
    K^2 = c^{Q-p+1} (N+a)^{-1} ((N-p)/(p-1))^{1-p}.
    """
    if sp.eps != 1:
        raise NotApplicable("closed-form ground state is for the source sign")
    if abs(sp.Q - sp.Q2) > 1e-12 * (1 + abs(sp.Q2)):
        raise NotApplicable("explicit solution exists at Q = Q2 only")
    kappa = (sp.p + sp.a) / (sp.p - 1)
    nu = (sp.N - sp.p) / (sp.p + sp.a)
    K2 = c ** (sp.Q - sp.p + 1) / (sp.N + sp.a) * sp.x_bound ** (1 - sp.p)

    def u(r):
        return c * (K2 + r ** kappa) ** (-nu)

    def du(r):
        return -c * nu * (K2 + r ** kappa) ** (-nu - 1) * kappa * r ** (kappa - 1)

    return u, du


# -- integration on the diagonal ---------------------------------------------

def diagonal_trajectory(sp: ScalarParams, start, t_span, events=()) -> Solution:
    """The plane orbit from start = (X, Z), run as (X, X, Z, Z) in the symmetric
    system: integrate_m's kernel run, whose states `y` hold (X, Z) in
    columns 0 and 2. Its blow-up event stops it where X or Z (absorption
    quadrants) blows up."""
    from .dynamics import integrate_m
    X, Z = start
    return integrate_m(sp.system, PhaseState(t_span[0], X, X, Z, Z),
                       horizon=tuple(t_span), events=events)


def capture_events(sp: ScalarParams) -> list:
    """A plane orbit's terminal capture events, one per point of
    `scalar_fixed_points` in its order: `converged:<label>` fires where the
    orbit enters the point's max-norm CAPTURE_DIST ball, past which (at a
    saddle such as A0) roundoff would decide where it goes."""
    from .dynamics import EventSpec
    return [EventSpec(name=f"converged:{label}",
                      fn=lambda t, y, pt=pt: max(abs(y[0] - pt[0]), abs(y[2] - pt[1]))
                      - CAPTURE_DIST, terminal=True, direction=-1.0)
            for label, pt in scalar_fixed_points(sp).items()]


def regular_seed(sp: ScalarParams, rho: float) -> tuple[float, float]:
    """Point at parameter rho on the one-dimensional regular manifold leaving N0.

    The unstable eigendirection at N0 has slope dZ/dX = -Q(N+a)/(lam1 + N + a),
    lam1 = (p+a)/(p-1); the regular branch has sign(X) = eps.
    """
    lam1 = (sp.p + sp.a) / (sp.p - 1)
    slope = -sp.Q * (sp.N + sp.a) / (lam1 + sp.N + sp.a)
    x = sp.eps * rho
    return x, sp.N + sp.a + slope * x


# -- Poincare-return sampling (limit-cycle evidence) --------------------------

def poincare_returns(sp: ScalarParams, start_offset: float = 0.05) -> list[float]:
    """Signed section offsets of the first six returns, up to t = 200, to the
    half-line X = X0, Z > Z0.

    Strictly monotone |offsets| are evidence against a limit cycle around M0;
    at Q = Q2 (a center) the offsets stall instead.
    """
    from .dynamics import EventSpec
    X0, Z0 = scalar_fixed_points(sp)["M0"]
    section = EventSpec(name="section", fn=lambda t, y: y[0] - X0, terminal=False,
                        direction=1.0)
    traj = diagonal_trajectory(sp, (X0, Z0 + start_offset), (0.0, 200.0), events=[section])
    offsets = []
    for t_ev in (t for t, name in traj.events if name == "section"):
        z_ev = traj.at(t_ev)[2]
        if t_ev > 1e-9 and z_ev > Z0:
            offsets.append(float(z_ev - Z0))
        if len(offsets) >= 6:
            break
    return offsets


# -- behaviour catalog ---------------------------------------------------------

class ScalarBehavior(str, Enum):
    SIGN_CHANGING = "regular solutions change sign; no ground state"
    GROUND_STATE_ON_LINE = "ground state on the invariant line joining N0 and A0"
    ALL_REGULAR_ARE_GS = "regular solutions are ground states with r^gamma u -> A"
    THRESHOLD_Q1 = "boundary case Q = Q1"
    ABSORPTION_ALL_REGULAR = "all solutions near 0 regular; they blow up at finite radius"
    ABSORPTION_CONNECTION = "connecting solution u1 exists (r^{(N-p)/(p-1)} u -> alpha at 0, r^gamma u -> A at infinity)"


@record
class ScalarReport:
    params: ScalarParams
    Q1: float
    Q2: float
    gamma: float
    behavior: ScalarBehavior
    evidence: dict

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(), "Q1": self.Q1, "Q2": self.Q2,
                "gamma": self.gamma, "behavior": self.behavior.value,
                "evidence": self.evidence}


def _stable_direction(J) -> tuple[float, float]:
    """Unit eigenvector, first component <= 0, of the smaller eigenvalue of the
    real 2x2 matrix J; the branch of M0's stable manifold with X between
    (N-p)/(p-1) and X0 has X < X0. A complex pair has no such direction."""
    (a, b), (c, d) = J
    half_trace, disc = (a + d) / 2, ((a - d) / 2) ** 2 + b * c
    if disc < 0.0:
        raise NotApplicable(f"M0 has complex eigenvalues {half_trace} +/- {math.sqrt(-disc)}i")
    lam = half_trace - math.sqrt(disc)
    # orthogonal to the larger row of J - lam I, which the eigenvector annihilates
    vx, vz = (b, lam - a) if math.hypot(a - lam, b) >= math.hypot(c, d - lam) else (lam - d, c)
    norm = -math.hypot(vx, vz) if vx > 0 else math.hypot(vx, vz)
    return vx / norm, vz / norm


def scalar_classify(N: float, p: float, a: float, Q: float, eps: int = 1) -> ScalarReport:
    """Classify the scalar equation's regular solutions and back it numerically.

    The verdict is keyed by Q against the thresholds Q1, Q2 (source sign) or Q1
    (absorption sign); the evidence dict carries the integration findings:
    zero radii, amplitude fits, invariant-line drift, Poincare return offsets.
    A radial startup series that puts u at or below zero raises SeriesInvalid;
    for Q > Q2, a radial run that ends before 0.3 SCALAR_R_MAX leaves no
    amplitude to fit and raises Inconclusive. An absorption radial run (Q > Q1)
    whose step collapses records termination "step-underflow".
    """
    from .dynamics import EventSpec, _ended, integrate_radial
    sp = ScalarParams(N=N, p=p, a=a, Q=Q, eps=eps)
    tol = 1e-12 * (1 + abs(Q))
    evidence: dict = {}

    def radial():       # the regular solution with u(0) = 1
        return integrate_radial(sp.system, 1.0, 1.0, SCALAR_R_MAX)

    # Poincare-return sampling whenever M0 sits in the source quadrant
    if eps == 1 and Q > sp.Q1 + tol and abs(Q - sp.Q2) > tol:
        offs = poincare_returns(sp)
        evidence["poincare_offsets"] = offs
        diffs = [abs(b) - abs(a) for a, b in zip(offs, offs[1:])]
        evidence["poincare_monotone"] = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)

    if eps == 1:
        if abs(Q - sp.Q1) <= tol:
            return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma, ScalarBehavior.THRESHOLD_Q1, evidence)
        if Q < sp.Q2 - tol:
            rad = radial()
            t_zero = rad.first_event("u-zero")
            evidence["zero_radius"] = math.exp(t_zero) if t_zero is not None else None
            evidence["termination"] = rad.termination
            return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma,
                                ScalarBehavior.SIGN_CHANGING, evidence)
        if abs(Q - sp.Q2) <= tol:
            x0, z0 = regular_seed(sp, MANIFOLD_RHO)
            # the connecting trajectory runs along the invariant segment; stop
            # just short of its endpoint, where the outgoing axis direction
            # starts amplifying roundoff
            stop = EventSpec(name="stopped:x", fn=lambda t, y: y[0] - 0.98 * sp.x_bound,
                             terminal=True, direction=1.0)
            traj = diagonal_trajectory(sp, (x0, z0), (0.0, T_END), events=[stop])
            drift = max(abs(line_quantity(sp, X, Z)) for X, _, Z, _ in traj.y)
            evidence["line_drift"] = drift
            evidence["termination"] = _ended(traj)
            return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma,
                                ScalarBehavior.GROUND_STATE_ON_LINE, evidence)
        # Q > Q2: regular trajectory converges to the sink M0
        rad = radial()
        logs = [math.log(u) + sp.gamma * math.log(r)
                for r, u in zip(rad.r, rad.u) if r > 0.3 * SCALAR_R_MAX]
        if not logs:
            raise Inconclusive(f"the radial run ended by {rad.termination} at r = {rad.r[-1]!r}, "
                               f"before any sample beyond r = {0.3 * SCALAR_R_MAX!r}: "
                               f"no amplitude fit")
        evidence["amplitude_fit"] = math.exp(math.fsum(logs) / len(logs))
        try:
            evidence["amplitude_exact"] = particular_amplitude(sp)
        except NotApplicable:
            pass
        evidence["termination"] = rad.termination
        return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma,
                            ScalarBehavior.ALL_REGULAR_ARE_GS, evidence)

    # absorption sign
    if Q > sp.Q1 + tol:
        try:
            evidence["termination"] = radial().termination
        except StepSizeUnderflow:
            evidence["termination"] = "step-underflow"
        return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma,
                            ScalarBehavior.ABSORPTION_ALL_REGULAR, evidence)
    if abs(Q - sp.Q1) <= tol:
        return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma, ScalarBehavior.THRESHOLD_Q1, evidence)

    # Q < Q1: saddle connection A0 -> M0 found by integrating the stable
    # eigendirection of M0 backwards. M0 is a saddle iff det J(M0) =
    # -X0 Z0 (p - 1 - Q)/(p - 1) < 0, that is iff Q > p - 1
    if Q < p - 1:
        raise NotApplicable(f"Q = {Q} < p - 1 = {p - 1}: M0 is no saddle, "
                            "there is no connection to follow")
    X0, Z0 = scalar_fixed_points(sp)["M0"]
    v = _stable_direction(scalar_jacobian(sp, (X0, Z0)))
    eta = 1e-7 * (1 + abs(X0) + abs(Z0))
    traj = diagonal_trajectory(sp, (X0 + eta * v[0], Z0 + eta * v[1]), (0.0, -60.0),
                               events=capture_events(sp))
    # X = -r u'/u: the slope of ln u against ln r is -X, read at the run's
    # backward end (r -> 0) and at its start next to M0 (r -> infinity)
    evidence["slope_origin"] = -traj.y[-1][0]
    evidence["slope_infinity"] = -traj.y[0][0]
    evidence["termination"] = _ended(traj)
    return ScalarReport(sp, sp.Q1, sp.Q2, sp.gamma,
                        ScalarBehavior.ABSORPTION_CONNECTION, evidence)

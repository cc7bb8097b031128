"""Parameters, derived exponents and the quadratic phase-space model.

The radial quasilinear system

    -div(|grad u|^{p-2} grad u) = eps1 |x|^a u^s v^delta,
    -div(|grad v|^{q-2} grad v) = eps2 |x|^b u^mu v^m,

restricted to radial profiles (u(r), v(r)) maps, via

    X = -r u'/u,   Y = -r v'/v,
    Z = -eps1 r^{1+a} u^s v^delta u'/|u'|^p,
    W = -eps2 r^{1+b} u^mu v^m   v'/|v'|^q,      t = ln r,

onto the autonomous quadratic system of Kolmogorov type

    X_t = X [ X - (N-p)/(p-1) + Z/(p-1) ],
    Y_t = Y [ Y - (N-q)/(q-1) + W/(q-1) ],
    Z_t = Z [ N + a - s X - delta Y - Z ],
    W_t = W [ N + b - mu X - m Y - W ].

This module owns the parameter record, the decay exponents gamma, xi, the
record of a profile's decay exponents (`AsymptoticProfile`), the vector
field, and the bidirectional chart maps between radial-profile space and
phase space.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import DegeneratePoint, PreconditionViolated, ZeroCoordinate, ZeroDiscriminant

PARAM_KEYS = ("N", "p", "q", "a", "b", "s", "m", "delta", "mu", "eps1", "eps2")


@record
class SystemParams:
    """The nine real exponents plus the two signs defining the system.

    N is a real parameter; weighted systems reduce to non-integer effective
    dimensions (`effective_unweighted_dimension`).
    """

    N: float
    p: float
    q: float
    a: float = 0.0
    b: float = 0.0
    s: float = 0.0
    m: float = 0.0
    delta: float = 1.0
    mu: float = 1.0
    eps1: int = 1
    eps2: int = 1

    def __post_init__(self):
        if self.p == 1.0 or self.q == 1.0:
            raise PreconditionViolated("p and q must differ from 1")
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise PreconditionViolated("eps1 and eps2 must be +1 or -1")

    # -- derived scalars used everywhere -------------------------------
    @property
    def D(self) -> float:
        return self.delta * self.mu - (self.p - 1 - self.s) * (self.q - 1 - self.m)

    @property
    def x_bound(self) -> float:
        """Upper X face of the invariant box, (N-p)/(p-1)."""
        return (self.N - self.p) / (self.p - 1)

    @property
    def y_bound(self) -> float:
        return (self.N - self.q) / (self.q - 1)

    # -- the named families (see the constructors below) ---------------
    @property
    def is_hamiltonian(self) -> bool:
        """p = q = 2, s = m = 0 (`hamiltonian_params`)."""
        return self.p == 2.0 and self.q == 2.0 and self.s == 0.0 and self.m == 0.0

    @property
    def is_potential(self) -> bool:
        """delta = m+1, mu = s+1, a = b (`potential_params`)."""
        return self.delta == self.m + 1.0 and self.mu == self.s + 1.0 and self.a == self.b

    @property
    def is_nonvariational(self) -> bool:
        """p = q = 2, s = m > 0, a = b (`nonvariational_params`)."""
        return (self.p == 2.0 and self.q == 2.0 and self.s == self.m and self.s > 0.0
                and self.a == self.b)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in PARAM_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        return cls(**{k: d[k] for k in PARAM_KEYS if k in d})

    def replace(self, **kw) -> "SystemParams":
        return SystemParams(**{**self.to_dict(), **kw})


# -- named families --------------------------------------------------------

def hamiltonian_params(N, delta, mu, a=0.0, b=0.0) -> SystemParams:
    """p = q = 2, s = m = 0: the coupled-Laplacian system with pure powers."""
    return SystemParams(N=N, p=2.0, q=2.0, a=a, b=b, s=0.0, m=0.0, delta=delta, mu=mu)


def nonvariational_params(N, s, delta, mu, a=0.0) -> SystemParams:
    """p = q = 2, equal weights and equal self-exponents s = m > 0."""
    return SystemParams(N=N, p=2.0, q=2.0, a=a, b=a, s=s, m=s, delta=delta, mu=mu)


def potential_params(N, p, q, s, m, a=0.0) -> SystemParams:
    """delta = m+1, mu = s+1: the gradient system of the single potential u^{s+1} v^{m+1}."""
    return SystemParams(N=N, p=p, q=q, a=a, b=a, s=s, m=m, delta=m + 1.0, mu=s + 1.0)


def symmetric_scalar_embedding(N, p, Q, a=0.0, eps=1) -> SystemParams:
    """Symmetric system whose diagonal solutions (u, u) solve -Lap_p u = eps |x|^a u^Q."""
    return SystemParams(N=N, p=p, q=p, a=a, b=a, s=0.0, m=0.0, delta=Q, mu=Q,
                        eps1=eps, eps2=eps)


def exchange_params(params: SystemParams) -> SystemParams:
    """Swap the roles of the two equations: (p,delta,s,a,eps1) <-> (q,mu,m,b,eps2).

    Composed with the coordinate swap (X<->Y, Z<->W) this is a symmetry of the
    phase system; the fixed-point catalog and the local analysis respect it.
    """
    return SystemParams(N=params.N, p=params.q, q=params.p, a=params.b, b=params.a,
                        s=params.m, m=params.s, delta=params.mu, mu=params.delta,
                        eps1=params.eps2, eps2=params.eps1)


# -- validation -------------------------------------------------------------

@record
class ConstraintCheck:
    name: str
    ok: bool
    detail: str


@record
class ValidationReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                           for c in self.checks]}


def validate_params(params: SystemParams) -> ValidationReport:
    """Report-style check of the standing assumptions for the source system,
    1 < p, q < N, min(p+a, q+b) > 0, delta, mu > 0, s, m >= 0 and D > 0;
    names the violated inequality, never raises.
    """
    P = params
    return ValidationReport((
        ConstraintCheck("p != 1", P.p != 1.0, f"p = {P.p}"),
        ConstraintCheck("q != 1", P.q != 1.0, f"q = {P.q}"),
        ConstraintCheck("D != 0", P.D != 0.0, f"D = {P.D}"),
        ConstraintCheck("1 < p < N", 1.0 < P.p < P.N, f"p = {P.p}, N = {P.N}"),
        ConstraintCheck("1 < q < N", 1.0 < P.q < P.N, f"q = {P.q}, N = {P.N}"),
        ConstraintCheck("p + a > 0", P.p + P.a > 0.0, f"p + a = {P.p + P.a}"),
        ConstraintCheck("q + b > 0", P.q + P.b > 0.0, f"q + b = {P.q + P.b}"),
        ConstraintCheck("delta > 0", P.delta > 0.0, f"delta = {P.delta}"),
        ConstraintCheck("mu > 0", P.mu > 0.0, f"mu = {P.mu}"),
        ConstraintCheck("s >= 0", P.s >= 0.0, f"s = {P.s}"),
        ConstraintCheck("m >= 0", P.m >= 0.0, f"m = {P.m}"),
        ConstraintCheck("D > 0", P.D > 0.0, f"D = {P.D}"),
        ConstraintCheck("eps1 = eps2 = +1", P.eps1 == 1 and P.eps2 == 1,
                        f"eps = ({P.eps1}, {P.eps2})"),
    ))


# -- derived exponents ------------------------------------------------------

@record
class DerivedExponents:
    D: float
    gamma: float
    xi: float


def derive_exponents(params: SystemParams) -> DerivedExponents:
    """Decay exponents gamma, xi solving the coupled linear identities

        (p-1-s) gamma + p + a = delta xi,
        (q-1-m) xi  + q + b = mu gamma.
    """
    P = params
    D = P.D
    if D == 0.0:
        raise ZeroDiscriminant("delta*mu = (p-1-s)(q-1-m): exponents undefined")
    gamma = ((P.p + P.a) * (P.q - 1 - P.m) + (P.q + P.b) * P.delta) / D
    xi = ((P.q + P.b) * (P.p - 1 - P.s) + (P.p + P.a) * P.mu) / D
    return DerivedExponents(D=D, gamma=gamma, xi=xi)


@record
class AsymptoticProfile:
    """Decay exponents of (u, v): u ~ alpha r^{-u_exponent} (ln r)^{log_correction_power}."""

    u_exponent: float
    v_exponent: float
    log_correction_power: float = 0.0
    limits: tuple[str, str] = ("alpha", "beta")

    def to_dict(self) -> dict:
        return {"u_exponent": self.u_exponent, "v_exponent": self.v_exponent,
                "log_correction_power": self.log_correction_power,
                "limits": list(self.limits)}


# -- states -----------------------------------------------------------------

@record
class PhaseState:
    """A phase point (X, Y, Z, W) at log-radius t = ln r."""

    t: float
    X: float
    Y: float
    Z: float
    W: float

    @property
    def coords(self) -> tuple[float, float, float, float]:
        return (self.X, self.Y, self.Z, self.W)

    @property
    def r(self) -> float:
        return math.exp(self.t)


@record
class RadialState:
    """Profile values (u, v) and radial derivatives (du, dv) at radius r > 0."""

    r: float
    u: float
    v: float
    du: float
    dv: float


# -- vector field -----------------------------------------------------------

def phase_rhs(params: SystemParams):
    """Right-hand side f(t, y) of the phase system on Python floats, with the
    parameters folded into constants once; returns the tuple (X_t, Y_t, Z_t, W_t).

    The bilinear sums are grouped so that exchange-symmetric parameters acting
    on exchange-symmetric states produce bitwise-symmetric derivatives; the
    diagonal of a symmetric system is then exactly invariant in floating point.

    The field carries its constants as `phase_constants`, in exchange pairs,
    from which `dop853` picks the step of a run (see its module docstring).
    """
    P = params
    xb, yb = P.x_bound, P.y_bound
    p1, q1 = P.p - 1, P.q - 1
    na, nb = P.N + P.a, P.N + P.b
    s, m, delta, mu = P.s, P.m, P.delta, P.mu

    def rhs(t, y):
        X, Y, Z, W = y
        return (X * (X - xb + Z / p1),
                Y * (Y - yb + W / q1),
                Z * (na - (s * X + delta * Y) - Z),
                W * (nb - (mu * X + m * Y) - W))
    rhs.phase_constants = (xb, yb, p1, q1, na, nb, s, m, delta, mu)
    return rhs


# -- chart maps -------------------------------------------------------------

def to_phase(params: SystemParams, rstate: RadialState) -> PhaseState:
    """Map a radial state to phase space; the chart needs u, v > 0 and du, dv != 0.

    Powers of |du|, |dv| are taken on absolute values with the signs tracked
    separately, so no negative base is ever raised to a real power.
    """
    P = params
    r, u, v, du, dv = rstate.r, rstate.u, rstate.v, rstate.du, rstate.dv
    if u == 0.0 or v == 0.0 or du == 0.0 or dv == 0.0:
        raise DegeneratePoint("u, v, du, dv must all be nonzero on the chart")
    if r <= 0.0:
        raise DegeneratePoint("radius must be positive")
    X = -r * du / u
    Y = -r * dv / v
    Z = -P.eps1 * r ** (1 + P.a) * u ** P.s * v ** P.delta \
        * math.copysign(abs(du) ** (1 - P.p), du)
    W = -P.eps2 * r ** (1 + P.b) * u ** P.mu * v ** P.m \
        * math.copysign(abs(dv) ** (1 - P.q), dv)
    return PhaseState(math.log(r), X, Y, Z, W)


def from_phase(params: SystemParams, state: PhaseState) -> tuple[float, float]:
    """Recover (u, v) at r = e^t from a phase point with all coordinates nonzero.

    Computed in log space: the exponents (q-1-m)/D etc. can push the direct
    products far outside double range.
    """
    P = params
    D = P.D
    if D == 0.0:
        raise ZeroDiscriminant("D = 0: the chart inversion is undefined")
    X, Y, Z, W = state.X, state.Y, state.Z, state.W
    for name, val in (("X", X), ("Y", Y), ("Z", Z), ("W", W)):
        if val == 0.0:
            raise ZeroCoordinate(f"{name} = 0: state off the invertible chart")
    lx = (P.p - 1) * math.log(abs(X)) + math.log(abs(Z))
    ly = (P.q - 1) * math.log(abs(Y)) + math.log(abs(W))
    ln_u = -derive_exponents(P).gamma * state.t + ((P.q - 1 - P.m) * lx + P.delta * ly) / D
    ln_v = -derive_exponents(P).xi * state.t + (P.mu * lx + (P.p - 1 - P.s) * ly) / D
    return math.exp(ln_u), math.exp(ln_v)


def _regular_log_data(P: SystemParams, x: float, y: float) -> tuple[float, float]:
    """(ln u0, ln v0) of the regular solution through chart point (x, y) at t = 0;
    D != 0 is the caller's to check."""
    if x <= 0.0 or y <= 0.0:
        raise PreconditionViolated("x and y must be positive")
    lx = math.log(P.N + P.a) + (P.p - 1) * math.log(x)
    ly = math.log(P.N + P.b) + (P.q - 1) * math.log(y)
    return (((P.q - 1 - P.m) * lx + P.delta * ly) / P.D,
            (P.mu * lx + (P.p - 1 - P.s) * ly) / P.D)


def regular_initial_values(params: SystemParams, x: float, y: float) -> tuple[float, float]:
    """Initial data (u0, v0) of the regular solution whose trajectory passes,
    at t = 0, through the point of the regular manifold with X = x, Y = y.

    Inverts the startup asymptotics X ~ (u0^{s+1-p} v0^delta/(N+a))^{1/(p-1)} r^{(p+a)/(p-1)}
    (and its v-counterpart) at r = 1.
    """
    if params.D == 0.0:
        raise ZeroDiscriminant("D = 0")
    ln_u0, ln_v0 = _regular_log_data(params, x, y)
    return math.exp(ln_u0), math.exp(ln_v0)


def normalized_regular_data(params: SystemParams, x: float, y: float) -> tuple[float, float, float]:
    """Initial data with u0 = 1 on the scaling orbit of the seed (x, y) plus
    the log-radius shift tau.

    The solution from the returned data traces the same phase curve as the
    regular solution through chart point (x, y), time-shifted: a phase sample
    at log-radius t on the seed's curve sits at t - tau on the normalized one.
    Keeping the data at unit scale keeps the radial integration's absolute
    error control meaningful for arbitrarily small seeds. Works in log space
    throughout, since u0 and v0 themselves leave double range near D = 0.
    """
    ex = derive_exponents(params)
    ln_u0, ln_v0 = _regular_log_data(params, x, y)
    ln_theta = -ln_u0 / ex.gamma
    return 1.0, math.exp(ln_v0 + ex.xi * ln_theta), ln_theta


def effective_unweighted_dimension(params: SystemParams) -> float:
    """Dimension of the weightless system equivalent to (N, a): p(N+a)/(p+a)."""
    return params.p * (params.N + params.a) / (params.p + params.a)

"""Energy functionals, critical curves and the theorem-driven predictor.

Each functional exists in two algebraically different forms, a radial-profile
expression and a phase-space expression; their agreement is a nontrivial
identity exercised by the tests. The closed-form radial derivatives determine
monotonicity away from the critical curves and vanish exactly on them, which
is what powers the existence predictions.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import DegenerateState, NotCritical, PreconditionViolated
from .model import (AsymptoticProfile, PhaseState, RadialState, SystemParams, derive_exponents,
                    effective_unweighted_dimension, exchange_params, from_phase, to_phase)
from .numerics import IDENTITY_RTOL
from .scalar import ScalarParams, scalar_profile_from_phase, threshold_q1, threshold_q2


class EnergyKind(str, Enum):
    SCALAR_POHOZAEV = "scalar-pohozaev"
    HAMILTONIAN = "hamiltonian"
    NONVARIATIONAL = "nonvariational"
    NONVARIATIONAL_PHI = "nonvariational-phi"
    POTENTIAL = "potential"


@record
class ScalarRadialState:
    r: float
    u: float
    du: float


@record
class ScalarPhaseState:
    t: float
    X: float
    Z: float


@record
class EnergySpec:
    """An energy functional plus its free parameters.

    sigma applies to the scalar kind; alpha, beta, sigma, theta to the
    nonvariational kind. None means "resolve the canonical choice from the
    system parameters at evaluation time".
    """

    kind: EnergyKind
    sigma: float | None = None
    theta: float | None = None
    alpha: float | None = None
    beta: float | None = None

    @classmethod
    def hamiltonian(cls) -> "EnergySpec":
        return cls(EnergyKind.HAMILTONIAN)

    @classmethod
    def potential(cls) -> "EnergySpec":
        return cls(EnergyKind.POTENTIAL)

    @classmethod
    def scalar(cls, sigma: float | None = None) -> "EnergySpec":
        return cls(EnergyKind.SCALAR_POHOZAEV, sigma=sigma)

    @classmethod
    def nonvariational(cls, alpha=None, beta=None, sigma=None, theta=None) -> "EnergySpec":
        return cls(EnergyKind.NONVARIATIONAL, sigma=sigma, theta=theta,
                   alpha=alpha, beta=beta)

    @classmethod
    def nonvariational_lower(cls, params: SystemParams) -> "EnergySpec":
        """Weight choice that makes the derivative positive below the lower
        hyperbola: theta = (N-(N-2)s)/(mu+1), sigma = (N-(N-2)s)/(delta+1)."""
        c = params.N - (params.N - 2) * params.s
        return cls(EnergyKind.NONVARIATIONAL,
                   alpha=1 / (params.mu + 1), beta=1 / (params.delta + 1),
                   theta=c / (params.mu + 1), sigma=c / (params.delta + 1))

    @classmethod
    def phi(cls) -> "EnergySpec":
        return cls(EnergyKind.NONVARIATIONAL_PHI)


# -- family guards -----------------------------------------------------------

def _require_hamiltonian(P: SystemParams):
    if not P.is_hamiltonian:
        raise PreconditionViolated("hamiltonian energy needs p = q = 2, s = m = 0")


def _require_nonvariational(P: SystemParams):
    if not (P.p == 2.0 and P.q == 2.0 and P.s == P.m):
        raise PreconditionViolated("nonvariational energy needs p = q = 2, s = m")
    if P.a != 0.0 or P.b != 0.0:
        raise PreconditionViolated(
            "nonvariational energy is defined for a = b = 0; rescale the system first")


def _require_potential(P: SystemParams):
    if not P.is_potential:
        raise PreconditionViolated("potential energy needs delta = m+1, mu = s+1, a = b")


def _nv_weights(spec: EnergySpec, P: SystemParams):
    alpha = spec.alpha if spec.alpha is not None else 1.0 / (P.mu + 1)
    beta = spec.beta if spec.beta is not None else 1.0 / (P.delta + 1)
    theta = spec.theta if spec.theta is not None else P.N * alpha
    sigma = spec.sigma if spec.sigma is not None else P.N * beta
    return alpha, beta, sigma, theta


# -- values -------------------------------------------------------------------

def _hamiltonian_value_radial(P: SystemParams, st: RadialState) -> float:
    r, u, v, du, dv = st.r, st.u, st.v, st.du, st.dv
    return r ** P.N * (du * dv
                       + r ** P.b * abs(u) ** (P.mu + 1) / (P.mu + 1)
                       + r ** P.a * abs(v) ** (P.delta + 1) / (P.delta + 1)
                       + (P.N + P.a) / (P.delta + 1) * v * du / r
                       + (P.N + P.b) / (P.mu + 1) * u * dv / r)


def _hamiltonian_bracket(P: SystemParams, X, Y, Z, W) -> float:
    return X * Y - Y * (P.N + P.b - W) / (P.mu + 1) - (P.N + P.a - Z) * X / (P.delta + 1)


def _hamiltonian_value_phase(P: SystemParams, st: PhaseState) -> float:
    u, v = from_phase(P, st)
    return st.r ** (P.N - 2) * u * v * _hamiltonian_bracket(P, st.X, st.Y, st.Z, st.W)


def _mono(coef: float, pairs) -> float:
    """coef * prod val^e with the Kolmogorov zero rules: a zero base kills the
    monomial when its exponent is positive and makes it singular otherwise."""
    if coef == 0.0:
        return 0.0
    ln = 0.0
    for val, e in pairs:
        if e == 0.0:
            continue
        if val == 0.0:
            if e > 0.0:
                return 0.0
            raise DegenerateState("zero coordinate with nonpositive exponent")
        if val < 0.0:
            raise DegenerateState("negative coordinate under a real power")
        ln += e * math.log(val)
    return coef * math.exp(ln)


def _potential_value_phase(P: SystemParams, st: PhaseState) -> float:
    ex = derive_exponents(P)
    D = ex.D
    X, Y, Z, W = st.X, st.Y, st.Z, st.W
    N, p, q, s, m = P.N, P.p, P.q, P.s, P.m
    r_pow = st.r ** (N - (ex.gamma + 1) * p)
    ex_x = q * (s + 1) * (p - 1) / D
    ex_y = p * (m + 1) * (q - 1) / D
    t1 = _mono(1.0, [(X, ex_x), (Y, ex_y), (Z, q * (1 + s) / D), (W, p * (1 + m) / D)])
    t2 = _mono(-(s + 1) / p * (N - p - (p - 1) * X),
               [(X, ex_x), (Y, ex_y), (Z, p * (q - m - 1) / D), (W, p * (1 + m) / D)])
    t3 = _mono(-(m + 1) / q * (N - q - (q - 1) * Y),
               [(X, ex_x), (Y, ex_y), (Z, q * (1 + s) / D), (W, q * (p - s - 1) / D)])
    return r_pow * (t1 + t2 + t3)


def _potential_value_radial(P: SystemParams, st: RadialState) -> float:
    r, u, v, du, dv = st.r, st.u, st.v, st.du, st.dv
    N, p, q, s, m = P.N, P.p, P.q, P.s, P.m
    pc, qc = p / (p - 1), q / (q - 1)
    return r ** N * (
        (s + 1) * (abs(du) ** p / pc + (N - p) / p * u * abs(du) ** (p - 2) * du / r)
        + (m + 1) * (abs(dv) ** q / qc + (N - q) / q * v * abs(dv) ** (q - 2) * dv / r)
        + r ** P.a * u ** (s + 1) * v ** (m + 1))


def _nv_psi(P, alpha, beta, sigma, theta, X, Y, Z, W, with_squares: bool) -> float:
    psi = X * Y + alpha * W * Y + beta * Z * X - sigma * X - theta * Y
    if with_squares:
        psi += P.s / (2 * (P.delta + 1)) * X ** 2 + P.s / (2 * (P.mu + 1)) * Y ** 2
    return psi


def _nv_value_radial(P: SystemParams, st: RadialState, alpha, beta, sigma, theta,
                     with_squares: bool) -> float:
    r, u, v, du, dv = st.r, st.u, st.v, st.du, st.dv
    val = r ** P.N * (du * dv + alpha * u ** (P.mu + 1) * v ** P.s
                      + beta * v ** (P.delta + 1) * u ** P.s
                      + sigma / r * v * du + theta / r * u * dv)
    if with_squares:
        val += r ** P.N * (P.s / (2 * (P.delta + 1)) * v * du ** 2 / u
                           + P.s / (2 * (P.mu + 1)) * u * dv ** 2 / v)
    return val


def _scalar_value_radial(sp: ScalarParams, st: ScalarRadialState, sigma: float) -> float:
    r, u, du = st.r, st.u, st.du
    pc = sp.p / (sp.p - 1)
    return r ** sp.N * (abs(du) ** sp.p / pc
                        + sp.eps * r ** sp.a * abs(u) ** (sp.Q + 1) / (sp.Q + 1)
                        + sigma * u * abs(du) ** (sp.p - 2) * du / r)


def _scalar_value_phase(sp: ScalarParams, st: ScalarPhaseState, sigma: float) -> float:
    u = scalar_profile_from_phase(sp, st.t, st.X, st.Z)
    r = math.exp(st.t)
    pc = sp.p / (sp.p - 1)
    return r ** (sp.N - sp.p) * u ** sp.p * abs(st.X) ** (sp.p - 2) * st.X \
        * (st.X / pc + st.Z / (sp.Q + 1) - sigma)


def energy_value(spec: EnergySpec, params, state) -> float:
    """Evaluate the functional on a radial or phase state (they agree on the
    chart; the tests pin the agreement at 1e-9 relative)."""
    if spec.kind is EnergyKind.SCALAR_POHOZAEV:
        if not isinstance(params, ScalarParams):
            raise PreconditionViolated("scalar energy needs ScalarParams")
        sigma = spec.sigma if spec.sigma is not None else (params.N - params.p) / params.p
        if isinstance(state, ScalarRadialState):
            return _scalar_value_radial(params, state, sigma)
        if isinstance(state, ScalarPhaseState):
            return _scalar_value_phase(params, state, sigma)
        raise PreconditionViolated("scalar energy needs a scalar state")

    P: SystemParams = params
    if spec.kind is EnergyKind.HAMILTONIAN:
        _require_hamiltonian(P)
        if isinstance(state, RadialState):
            return _hamiltonian_value_radial(P, state)
        return _hamiltonian_value_phase(P, state)
    if spec.kind is EnergyKind.POTENTIAL:
        _require_potential(P)
        if isinstance(state, RadialState):
            return _potential_value_radial(P, state)
        return _potential_value_phase(P, state)
    if spec.kind in (EnergyKind.NONVARIATIONAL, EnergyKind.NONVARIATIONAL_PHI):
        _require_nonvariational(P)
        with_squares = spec.kind is EnergyKind.NONVARIATIONAL_PHI
        if with_squares:
            alpha, beta = 1 / (P.mu + 1), 1 / (P.delta + 1)
            sigma, theta = P.N * beta, P.N * alpha
        else:
            alpha, beta, sigma, theta = _nv_weights(spec, P)
        if isinstance(state, RadialState):
            return _nv_value_radial(P, state, alpha, beta, sigma, theta, with_squares)
        u, v = from_phase(P, state)
        psi = _nv_psi(P, alpha, beta, sigma, theta, state.X, state.Y, state.Z, state.W,
                      with_squares)
        return state.r ** (P.N - 2) * u * v * psi
    raise PreconditionViolated(f"unknown energy kind {spec.kind}")


# -- closed-form radial derivatives -------------------------------------------

def hamiltonian_derivative_coefficient(P: SystemParams) -> float:
    """E_H'(r) = coeff * r^{N-1} u' v'; zero exactly on the critical hyperbola."""
    return (P.N + P.a) / (P.delta + 1) + (P.N + P.b) / (P.mu + 1) - (P.N - 2)


def potential_derivative_coefficient(P: SystemParams) -> float:
    """E_P'(r) = coeff * r^{N-1+a} u^{s+1} v^{m+1}; zero exactly on the critical line."""
    return P.N + P.a - (P.s + 1) * (P.N - P.p) / P.p - (P.m + 1) * (P.N - P.q) / P.q


def cubic_barrier(params: SystemParams, X: float, Y: float) -> float:
    """The cubic whose positivity on the square [0, N-2]^2 blocks simultaneous
    vanishing for the equal-self-exponent family (p = q = 2, s = m > 0).

    B(X, Y) = beta X^2 (N-2-X) + alpha Y^2 (N-2-Y)
              + X Y [beta X + alpha Y + (2/s)(N - 2 - N alpha - N beta)],

    alpha = 1/(mu+1), beta = 1/(delta+1). Along trajectories,
    Phi'(r) = -(s/2) r^{N-3} u v B(X, Y). For a = b != 0 the formula is applied
    in the reduced chart with the effective dimension 2(N+a)/(2+a).
    """
    P = params
    if not P.is_nonvariational:
        raise PreconditionViolated("cubic barrier needs p = q = 2, s = m > 0, a = b")
    n = effective_unweighted_dimension(P) if P.a != 0.0 else P.N
    alpha, beta = 1.0 / (P.mu + 1), 1.0 / (P.delta + 1)
    return (beta * X ** 2 * (n - 2 - X) + alpha * Y ** 2 * (n - 2 - Y)
            + X * Y * (beta * X + alpha * Y
                       + 2.0 / P.s * (n - 2 - n * alpha - n * beta)))


def energy_derivative(spec: EnergySpec, params, state) -> float:
    """Closed-form dE/dr at the given state (radial or phase)."""
    if spec.kind is EnergyKind.SCALAR_POHOZAEV:
        sp: ScalarParams = params
        sigma = spec.sigma if spec.sigma is not None else (sp.N - sp.p) / sp.p
        if isinstance(state, ScalarPhaseState):
            u = scalar_profile_from_phase(sp, state.t, state.X, state.Z)
            r = math.exp(state.t)
            du = -state.X * u / r
        else:
            r, u, du = state.r, state.u, state.du
        return ((sigma - (sp.N - sp.p) / sp.p) * r ** (sp.N - 1) * abs(du) ** sp.p
                + sp.eps * ((sp.N + sp.a) / (sp.Q + 1) - sigma)
                * r ** (sp.N - 1 + sp.a) * abs(u) ** (sp.Q + 1))

    P: SystemParams = params
    if isinstance(state, RadialState):
        ph = to_phase(P, state)
        r, u, v, du, dv = state.r, state.u, state.v, state.du, state.dv
    else:
        ph = state
        u, v = from_phase(P, ph)
        r = ph.r
        du, dv = -ph.X * u / r, -ph.Y * v / r
    X, Y, Z, W = ph.X, ph.Y, ph.Z, ph.W

    if spec.kind is EnergyKind.HAMILTONIAN:
        _require_hamiltonian(P)
        return hamiltonian_derivative_coefficient(P) * r ** (P.N - 1) * du * dv
    if spec.kind is EnergyKind.POTENTIAL:
        _require_potential(P)
        return potential_derivative_coefficient(P) \
            * r ** (P.N - 1 + P.a) * u ** (P.s + 1) * v ** (P.m + 1)
    if spec.kind is EnergyKind.NONVARIATIONAL:
        _require_nonvariational(P)
        alpha, beta, sigma, theta = _nv_weights(spec, P)
        N, s = P.N, P.s
        bracket = ((sigma + theta - (N - 2)) * X * Y
                   + (N * alpha - theta) * Y * W + (N * beta - sigma) * X * Z
                   - (alpha * (P.mu + 1) - 1) * X * Y * W
                   - (beta * (P.delta + 1) - 1) * X * Y * Z
                   - alpha * s * Y ** 2 * W - beta * s * X ** 2 * Z)
        return r ** (P.N - 3) * u * v * bracket
    if spec.kind is EnergyKind.NONVARIATIONAL_PHI:
        _require_nonvariational(P)
        if P.s <= 0.0:
            raise PreconditionViolated("the quadratic-corrected energy needs s > 0")
        return -(P.s / 2) * r ** (P.N - 3) * u * v * cubic_barrier(P, X, Y)
    raise PreconditionViolated(f"unknown energy kind {spec.kind}")


# -- critical curves -----------------------------------------------------------

class CriticalCurve(str, Enum):
    H0 = "H0"
    HS = "Hs"
    ZS = "Zs"
    CS = "Cs"
    LS = "Ls"
    LINE_D = "lineD"
    SCALAR_Q1 = "scalarQ1"
    SCALAR_Q2 = "scalarQ2"


class Position(str, Enum):
    ABOVE = "above"
    ON = "on"
    BELOW = "below"
    NOT_APPLICABLE = "not-applicable"


def _position(diff: float, scale: float, above_negative: bool) -> Position:
    if abs(diff) <= IDENTITY_RTOL * (1.0 + scale):
        return Position.ON
    if above_negative:
        return Position.ABOVE if diff < 0 else Position.BELOW
    return Position.ABOVE if diff > 0 else Position.BELOW


def classify_region(params: SystemParams) -> dict[CriticalCurve, Position]:
    """Locate (delta, mu) (or (m, s), or Q) relative to every critical curve.

    "Above" always means the large-exponent side: for the hyperbolas the side
    where the reciprocal sums fall short of their threshold.
    """
    P = params
    out = {c: Position.NOT_APPLICABLE for c in CriticalCurve}
    two_lap = P.p == 2.0 and P.q == 2.0
    n_eff = effective_unweighted_dimension(P) if (P.p == P.q and P.a == P.b) else None

    if two_lap:
        lhs = (P.N + P.a) / (P.delta + 1) + (P.N + P.b) / (P.mu + 1)
        out[CriticalCurve.H0] = _position(lhs - (P.N - 2), abs(lhs) + P.N, True)

    if two_lap and P.s == P.m and P.a == P.b and P.D != 0.0:
        s, n = P.s, n_eff
        ex = derive_exponents(P)
        if n != 2 and s < n / (n - 2) and P.delta + 1 - s > 0 and P.mu + 1 - s > 0:
            diff = ex.gamma + ex.xi - (P.N - 2)
            out[CriticalCurve.HS] = _position(diff, abs(ex.gamma) + abs(ex.xi) + P.N, True)
            if min(P.delta, P.mu) > abs(s - 1):
                lhs = 1 / (P.delta + 1) + 1 / (P.mu + 1)
                rhs = (n - 2) / (n - (n - 2) * s)
                out[CriticalCurve.ZS] = _position(lhs - rhs, abs(lhs) + abs(rhs), True)
        if s > 0:
            lhs = n / (P.delta + 1) + n / (P.mu + 1)
            rhs = n - 2 + (n - 2) * s / 2 * min(1 / (P.delta + 1), 1 / (P.mu + 1))
            out[CriticalCurve.CS] = _position(lhs - rhs, abs(lhs) + abs(rhs), True)
            if n - (n - 2) * s / 2 > 0:
                lhs = 1 / (P.delta + 1) + 1 / (P.mu + 1)
                rhs = (n - 2) / (n - (n - 2) * s / 2)
                out[CriticalCurve.LS] = _position(lhs - rhs, abs(lhs) + abs(rhs), True)

    if P.is_potential:
        diff = (P.s + 1) * (P.N - P.p) / P.p + (P.m + 1) * (P.N - P.q) / P.q - (P.N + P.a)
        out[CriticalCurve.LINE_D] = _position(diff, P.N + abs(P.a), False)

    # the scalar thresholds divide by N - p
    if P.p == P.q != P.N and P.a == P.b and abs((P.s + P.delta) - (P.m + P.mu)) \
            <= IDENTITY_RTOL * (1 + abs(P.s + P.delta)):
        Q = P.s + P.delta
        q1 = threshold_q1(P.N, P.p, P.a)
        q2 = threshold_q2(P.N, P.p, P.a)
        out[CriticalCurve.SCALAR_Q1] = _position(Q - q1, abs(Q) + abs(q1), False)
        out[CriticalCurve.SCALAR_Q2] = _position(Q - q2, abs(Q) + abs(q2), False)
    return out


def diagonal_crossings(N: float, s: float) -> dict[CriticalCurve, float]:
    """delta = mu values where each curve meets the diagonal (a = 0 chart)."""
    c = (N + 2) / (N - 2)
    return {CriticalCurve.ZS: c - 2 * s, CriticalCurve.HS: c - s,
            CriticalCurve.CS: c - s / 2, CriticalCurve.H0: c}


# -- existence predictions -------------------------------------------------------

class Verdict(str, Enum):
    GS_EXISTS = "GS-exists"
    NO_GS_DIRICHLET = "no-GS(Dirichlet-exists)"
    NO_GS_NO_DIRICHLET = "no-GS-no-Dirichlet"
    ALL_REGULAR_ARE_GS = "all-regular-are-GS"
    UNKNOWN = "unknown"


@record
class ExistenceVerdict:
    verdict: Verdict
    source: str
    conditions: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {"verdict": self.verdict.value, "source": self.source,
                "conditions": [list(c) for c in self.conditions]}


def _monotonicity_blocks(P: SystemParams) -> tuple[bool, tuple]:
    """One-sided Pohozaev monotonicity obstruction (and its exchanged twin)."""
    for Q in (P, exchange_params(P)):
        if Q.N == Q.p:      # lhs and the threshold divide by N - p
            continue
        g = derive_exponents(Q).gamma
        cond1 = Q.s + 1 > Q.p or g > (Q.N - Q.p) / Q.p
        lhs = Q.s + Q.p * (Q.N - Q.q) / ((Q.q - 1) * (Q.N - Q.p)) * Q.delta
        if cond1 and lhs < threshold_q2(Q.N, Q.p, Q.a):
            return True, (("s+1>p or gamma>(N-p)/p", "true"),
                          ("s + p(N-q)delta/((q-1)(N-p)) < threshold",
                           f"{lhs} < {threshold_q2(Q.N, Q.p, Q.a)}"))
    return False, ()


def _comparison_blocks(P: SystemParams) -> tuple[bool, tuple]:
    """Asymptotic-comparison nonexistence cases for the general source system."""
    ex = derive_exponents(P)
    cp, cq = P.x_bound, P.y_bound
    l3 = P.s * cp + P.delta * cq - (P.N + P.a)
    l4 = P.mu * cp + P.m * cq - (P.N + P.b)
    gg, xx = ex.gamma - cp, ex.xi - cq
    # the first case and its exchanged twin, (p, s, l3, gg) <-> (q, m, l4, xx)
    if (P.p < P.s + 1 and P.q > P.m + 1 and (l3 <= 0 or gg > 0)) \
            or (P.q < P.m + 1 and P.p > P.s + 1 and (l4 <= 0 or xx > 0)):
        return True, (("p<s+1, q>m+1 with subcritical cross-decay", "true"),)
    if P.p < P.s + 1 and P.q < P.m + 1 and min(l3, l4) <= 0:
        return True, (("p<s+1, q<m+1, min(l3, l4) <= 0", f"min = {min(l3, l4)}"),)
    if P.p > P.s + 1 and P.q > P.m + 1 and max(gg, xx) >= 0:
        return True, (("p>s+1, q>m+1, max(gamma-(N-p)/(p-1), xi-(N-q)/(q-1)) >= 0",
                       f"max = {max(gg, xx)}"),)
    if P.p >= P.s + 1 and P.q >= P.m + 1 and max(gg, xx) > 0:
        return True, (("p>=s+1, q>=m+1, max(...) > 0", f"max = {max(gg, xx)}"),)
    return False, ()


def predict_existence(params: SystemParams) -> ExistenceVerdict:
    """Apply the strongest applicable existence/nonexistence criterion.

    Precedence: the signs, then the two if-and-only-if families (Hamiltonian
    hyperbola, potential line), then the sufficient conditions (cubic barrier,
    the nonvariational hyperbolas, asymptotic comparison, Pohozaev
    monotonicity), then the supercritical trap; unknown when nothing applies.
    """
    P = params
    # with eps1 = -1, (r^{N-1}|u'|^{p-2}u')' = r^{N-1+a} u^s v^delta > 0 while
    # u, v > 0, from a flux that vanishes at r = 0 if N + a > 0: u increases
    # and never vanishes (v likewise), so no ground state and no Dirichlet
    if P.eps1 != 1 or P.eps2 != 1:
        if P.N + P.a <= 0 or P.N + P.b <= 0:
            return ExistenceVerdict(Verdict.UNKNOWN, "none", (
                ("N + a > 0 and N + b > 0", f"{P.N + P.a} and {P.N + P.b}"),))
        return ExistenceVerdict(Verdict.NO_GS_NO_DIRICHLET, "sign-monotonicity", tuple(
            (f"eps{i} = -1", f"(r^(N-1)|{w}'|^({e}-2){w}')' > 0: {w} increases")
            for i, eps, w, e in ((1, P.eps1, "u", "p"), (2, P.eps2, "v", "q")) if eps == -1))
    region = classify_region(P)

    # the two iff theorems: a ground state on or above the critical curve, a
    # Dirichlet solution below it
    for family, curve, source, name in (
            (P.is_hamiltonian, CriticalCurve.H0, "hamiltonian-critical-hyperbola", "hyperbola"),
            (P.is_potential, CriticalCurve.LINE_D, "potential-critical-line", "line")):
        if family:
            pos = region[curve]
            verdict = (Verdict.GS_EXISTS if pos in (Position.ABOVE, Position.ON)
                       else Verdict.NO_GS_DIRICHLET)
            return ExistenceVerdict(verdict, source, ((f"position vs critical {name}", pos.value),))

    if P.is_nonvariational:
        pos = region[CriticalCurve.CS]
        if pos in (Position.ABOVE, Position.ON):
            return ExistenceVerdict(Verdict.GS_EXISTS, "nonvariational-cubic-barrier",
                                    (("position vs cubic-barrier curve", pos.value),))
        pos0 = region[CriticalCurve.H0]
        if pos0 is Position.ABOVE:
            return ExistenceVerdict(Verdict.GS_EXISTS, "nonvariational-upper-hyperbola",
                                    (("position vs upper hyperbola", pos0.value),))
        posz = region[CriticalCurve.ZS]
        if posz is Position.BELOW:
            return ExistenceVerdict(Verdict.NO_GS_DIRICHLET, "nonvariational-lower-hyperbola",
                                    (("position vs lower hyperbola", posz.value),))

    if P.D == 0.0:      # the rules below read the decay exponents gamma and xi
        return ExistenceVerdict(Verdict.UNKNOWN, "none",
                                (("D = delta*mu - (p-1-s)(q-1-m)", "0: gamma, xi undefined"),))
    blocked, cond = _comparison_blocks(P)
    if blocked:
        return ExistenceVerdict(Verdict.NO_GS_DIRICHLET, "asymptotic-comparison", cond)
    blocked, cond = _monotonicity_blocks(P)
    if blocked:
        return ExistenceVerdict(Verdict.NO_GS_DIRICHLET, "pohozaev-monotonicity", cond)

    if P.N in (P.p, P.q):       # the thresholds divide by N - p and N - q
        return ExistenceVerdict(Verdict.UNKNOWN, "none", ())
    thr_s = threshold_q2(P.N, P.p, P.a)
    thr_m = threshold_q2(P.N, P.q, P.b)
    if P.s >= thr_s and P.m >= thr_m:
        return ExistenceVerdict(Verdict.ALL_REGULAR_ARE_GS, "supercritical-trap",
                                (("s >= threshold", f"{P.s} >= {thr_s}"),
                                 ("m >= threshold", f"{P.m} >= {thr_m}")))
    return ExistenceVerdict(Verdict.UNKNOWN, "none", ())


def predict_asymptotics(params: SystemParams) -> AsymptoticProfile:
    """Decay profile of the critical-case ground state at infinity.

    Hamiltonian family on the critical hyperbola: each profile decays like
    r^{2-N} when its partner exponent exceeds (N+weight)/(N-2), like the
    cross-decay rate below it, with a logarithm exactly at it. Potential
    family on the critical line: u ~ r^{-(N-p)/(p-1)} (for q <= p) and the
    v-rate switches on the sign of lambda* = N+a-(s+1)(N-p)/(p-1)-m(N-q)/(q-1).
    """
    P = params
    region = classify_region(P)

    if P.is_hamiltonian:
        if region[CriticalCurve.H0] is not Position.ON:
            raise NotCritical("not on the critical hyperbola")
        def side(expo, weight):
            thr = (P.N + weight) / (P.N - 2)
            d = expo - thr
            if abs(d) <= IDENTITY_RTOL * (1 + abs(thr)):
                return P.N - 2.0, 1.0
            if d > 0:
                return P.N - 2.0, 0.0
            return (P.N - 2) * expo - (2 + weight), 0.0
        ue, ulog = side(P.delta, P.a)
        ve, vlog = side(P.mu, P.b)
        return AsymptoticProfile(u_exponent=ue, v_exponent=ve,
                                 log_correction_power=ulog if ulog else vlog)

    if P.is_potential:
        if region[CriticalCurve.LINE_D] is not Position.ON:
            raise NotCritical("not on the critical line")
        if P.q > P.p:
            pr = predict_asymptotics(exchange_params(P))
            return AsymptoticProfile(pr.v_exponent, pr.u_exponent, pr.log_correction_power,
                                     pr.limits[::-1])
        lam_star = P.N + P.a - (P.s + 1) * P.x_bound - P.m * P.y_bound
        ue = P.x_bound
        if abs(lam_star) <= IDENTITY_RTOL * (1 + P.N):
            return AsymptoticProfile(u_exponent=ue, v_exponent=P.y_bound,
                                     log_correction_power=1.0 / (P.q - 1 - P.m))
        if lam_star < 0:
            return AsymptoticProfile(u_exponent=ue, v_exponent=P.y_bound)
        kappa = (P.x_bound * P.mu - (P.q + P.b)) / (P.q - 1 - P.m)
        return AsymptoticProfile(u_exponent=ue, v_exponent=kappa)

    raise NotCritical("asymptotics are defined for the critical Hamiltonian "
                      "and potential families")

"""Linearization, eigenvalues and local trajectory analysis at the equilibria.

Closed-form spectra exist at every catalog point: the Jacobian is explicit,
and at M0 the characteristic polynomial is the quartic

    lambda^4 + E lambda^3 + F lambda^2 + G lambda - H,

whose coefficients are polynomial in the M0 coordinates. Roots are extracted
via the companion matrix rather than radicals; closed forms are cross-checked
against the numeric Jacobian in the test suite.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

from .equilibria import EXCHANGE_IMAGE, FixedPoint, FixedPointLabel, fixed_point, m0_coords
from .errors import UndefinedPoint
from .model import PhaseState, SystemParams, derive_exponents, exchange_params
from .numerics import CENTER_TOL, IDENTITY_RTOL


def jacobian_at(params: SystemParams, state) -> numpy.ndarray:
    """Analytic Jacobian of the vector field at a phase point (or raw coords)."""
    import numpy as np

    P = params
    coords = state.coords if isinstance(state, PhaseState) else np.asarray(state, dtype=float)
    X, Y, Z, W = coords
    return np.array([
        [2 * X - P.x_bound + Z / (P.p - 1), 0.0, X / (P.p - 1), 0.0],
        [0.0, 2 * Y - P.y_bound + W / (P.q - 1), 0.0, Y / (P.q - 1)],
        [-P.s * Z, -P.delta * Z, P.N + P.a - P.s * X - P.delta * Y - 2 * Z, 0.0],
        [-P.mu * W, -P.m * W, 0.0, P.N + P.b - P.mu * X - P.m * Y - 2 * W],
    ])


# -- polynomial machinery -----------------------------------------------------

def polynomial_roots(coeffs) -> numpy.ndarray:
    """Roots of a monic real quartic via companion-matrix eigenvalues.

    One Newton polish step tightens each root; output sorted by (Re, Im) so
    repeated calls are deterministic.
    """
    import numpy as np

    c = np.asarray(coeffs, dtype=float)
    if c[0] != 1.0:
        raise ValueError("leading coefficient must be 1")
    roots = np.roots(c).astype(complex)
    f = np.polyval(c, roots)
    df = np.polyval(np.polyder(c), roots)
    step = np.where(df != 0, f / np.where(df == 0, 1, df), 0)
    polished = roots - step
    better = np.abs(np.polyval(c, polished)) <= np.abs(f)
    roots = np.where(better, polished, roots)
    # collapse numerically-real roots onto the real axis
    scale = 1.0 + np.abs(roots)
    roots = np.where(np.abs(roots.imag) < 1e-12 * scale, roots.real + 0j, roots)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def sort_eigs(values) -> tuple[complex, ...]:
    import numpy as np

    vals = np.asarray(values, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    return tuple(vals[order])


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of lambda^4 + E lambda^3 + F lambda^2 + G lambda - H at M0."""

    E: float
    F: float
    G: float
    H: float

    def as_poly(self) -> numpy.ndarray:
        import numpy as np

        return np.array([1.0, self.E, self.F, self.G, -self.H])


def m0_characteristic(params: SystemParams) -> QuarticCoeffs:
    """Quartic coefficients at M0. Without the delta*mu part of the constant
    term H the quartic is the product of the two decoupled quadratics."""
    P = params
    if P.D == 0.0:
        raise UndefinedPoint("M0 undefined: D = 0")
    X0, Y0, Z0, W0 = m0_coords(P)
    p1, q1 = P.p - 1, P.q - 1
    E = Z0 - X0 + W0 - Y0
    F = (Z0 - X0) * (W0 - Y0) - (p1 - P.s) / p1 * X0 * Z0 - (q1 - P.m) / q1 * Y0 * W0
    G = -(q1 - P.m) / q1 * Y0 * W0 * (Z0 - X0) - (p1 - P.s) / p1 * X0 * Z0 * (W0 - Y0)
    H = P.D / (p1 * q1) * X0 * Y0 * Z0 * W0
    return QuarticCoeffs(E=E, F=F, G=G, H=H)


# -- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[complex, complex, complex, complex]
    stable_dim: int
    unstable_dim: int
    center_dim: int

    def to_dict(self) -> dict:
        return {"eigenvalues": [{"re": z.real, "im": z.imag} for z in self.eigenvalues],
                "dims": {"stable": self.stable_dim, "unstable": self.unstable_dim,
                         "center": self.center_dim}}


def _dims(values) -> tuple[int, int, int]:
    stable = unstable = center = 0
    for z in values:
        if abs(z.real) < CENTER_TOL * (1 + abs(z)):
            center += 1
        elif z.real < 0:
            stable += 1
        else:
            unstable += 1
    return stable, unstable, center


def _quad_roots(b, c) -> list[complex]:
    """Roots of lambda^2 + b lambda + c."""
    disc = complex(b * b - 4 * c)
    sq = cmath.sqrt(disc)
    return [(-b + sq) / 2, (-b - sq) / 2]


def closed_form_eigenvalues(params: SystemParams, label: FixedPointLabel) -> list[complex]:
    """Exact eigenvalues at a catalog point (symmetric labels via the exchange map)."""
    P = params
    if label in EXCHANGE_IMAGE:
        return closed_form_eigenvalues(exchange_params(P), EXCHANGE_IMAGE[label])
    N, p, q, a, b, s, m, delta, mu = (P.N, P.p, P.q, P.a, P.b, P.s, P.m, P.delta, P.mu)
    cp, cq = P.x_bound, P.y_bound
    if label is FixedPointLabel.O:
        return [-cp, -cq, N + a, N + b]
    if label is FixedPointLabel.N0:
        return [(p + a) / (p - 1), (q + b) / (q - 1), -(N + a), -(N + b)]
    if label is FixedPointLabel.A0:
        return [cp, cq, N + a - s * cp - delta * cq, N + b - mu * cp - m * cq]
    if label is FixedPointLabel.I0:
        return [cp, -cq, N + a - s * cp, N + b - mu * cp]
    if label is FixedPointLabel.K0:
        return [(p + a) / (p - 1), -cq, -(N + a), N + b]
    if label is FixedPointLabel.G0:
        return [cp, (q + b - cp * mu) / (q - 1), N + a - s * cp, cp * mu - (N + b)]
    if label is FixedPointLabel.M0:
        qc = m0_characteristic(P)
        return list(polynomial_roots(qc.as_poly()))
    pt = fixed_point(P, label)
    if not pt.defined:
        raise UndefinedPoint(f"{label} undefined for these parameters")
    X, Y, Z, W = pt.coords
    # P0, C0 and R0 share the (Y, W) block
    yw = _quad_roots(-(Y - W), (m + 1 - q) / (q - 1) * Y * W)
    if label is FixedPointLabel.P0:
        return [cp, P.D / (q - 1 - m) * (derive_exponents(P).gamma - cp)] + yw
    if label is FixedPointLabel.C0:
        return [-cp, N + a - delta * Y] + yw
    if label is FixedPointLabel.R0:
        return [(p + a - delta * (b + q) / (m + 1 - q)) / (p - 1), -Z] + yw
    raise UndefinedPoint(f"no closed form for {label}")


def spectrum_at(params: SystemParams, fp: FixedPoint) -> Spectrum:
    if not fp.defined:
        raise UndefinedPoint(f"{fp.label} is undefined for these parameters")
    vals = sort_eigs(closed_form_eigenvalues(params, fp.label))
    st, un, ce = _dims(vals)
    return Spectrum(eigenvalues=vals, stable_dim=st, unstable_dim=un, center_dim=ce)


# -- purely imaginary pair at M0 ---------------------------------------------

@dataclass(frozen=True)
class OscillationReport:
    imaginary_pair: bool
    branch: str | None        # "E=G=0 (i)", "E=G=0 (ii)" or "EG>0 resonance"
    on_hs: bool | None        # only meaningful for p = q = 2, s = m < N/(N-2)

    def to_dict(self) -> dict:
        return {"imaginary_pair": self.imaginary_pair, "branch": self.branch,
                "on_hs": self.on_hs}


def oscillation_condition(params: SystemParams) -> OscillationReport:
    """Detect a purely imaginary eigenvalue pair at M0 and name the algebraic branch.

    A quartic with real coefficients has a root c*i (c > 0) iff E c^2 = G and
    c^4 - F c^2 - H = 0; equivalently E = G = 0, or E G > 0 with
    G^2 - E F G - E^2 H = 0. The detection below checks actual roots, then
    matches them to a branch.
    """
    P = params
    qc = m0_characteristic(P)
    roots = polynomial_roots(qc.as_poly())
    imag = any(abs(z.real) < CENTER_TOL * (1 + abs(z)) and z.imag != 0.0 for z in roots)

    X0, Y0, Z0, W0 = m0_coords(P)
    scale = 1.0 + abs(X0) + abs(Y0) + abs(Z0) + abs(W0)
    tol = 1e-9
    branch = None
    if abs(qc.E) < tol * scale and abs(qc.G) < tol * scale ** 3:
        if abs(Z0 - X0) < tol * scale and abs(W0 - Y0) < tol * scale:
            branch = "E=G=0 (i)"
        else:
            branch = "E=G=0 (ii)"
    elif qc.E * qc.G > 0 and \
            abs(qc.G ** 2 - qc.E * qc.F * qc.G - qc.E ** 2 * qc.H) < tol * scale ** 6:
        branch = "EG>0 resonance"

    on_hs = None
    if P.p == 2.0 and P.q == 2.0 and P.s == P.m and P.s < P.N / (P.N - 2) \
            and P.delta + 1 - P.s > 0 and P.mu + 1 - P.s > 0:
        on_hs = abs(X0 + Y0 - (P.N - 2)) < IDENTITY_RTOL * (1 + abs(X0) + abs(Y0) + P.N)
    return OscillationReport(imaginary_pair=imag, branch=branch, on_hs=on_hs)


# -- local existence verdicts --------------------------------------------------

class Direction(str, Enum):
    TO_ZERO = "r->0"
    TO_INFINITY = "r->inf"


class Existence(str, Enum):
    YES = "yes"
    NO = "no"
    BOUNDARY = "boundary-case"


@dataclass(frozen=True)
class AsymptoticProfile:
    """Decay exponents of (u, v): u ~ alpha r^{-u_exponent} (ln r)^{log_correction_power}."""

    u_exponent: float
    v_exponent: float
    log_correction_power: float = 0.0
    limits: tuple[str, str] = ("alpha", "beta")

    def swapped(self) -> "AsymptoticProfile":
        return AsymptoticProfile(self.v_exponent, self.u_exponent,
                                 self.log_correction_power, self.limits[::-1])

    def to_dict(self) -> dict:
        return {"u_exponent": self.u_exponent, "v_exponent": self.v_exponent,
                "log_correction_power": self.log_correction_power,
                "limits": list(self.limits)}


@dataclass(frozen=True)
class LocalVerdict:
    point: FixedPointLabel
    direction: Direction
    exists: Existence
    profile: AsymptoticProfile | None = None

    def to_dict(self) -> dict:
        return {"point": self.point.value, "direction": self.direction.value,
                "exists": self.exists.value,
                "profile": self.profile.to_dict() if self.profile else None}


def _sgn(x: float, scale: float) -> int:
    """Sign with an equality band: 0 within 1e-12*(1+scale) of zero."""
    if abs(x) <= 1e-12 * (1.0 + scale):
        return 0
    return 1 if x > 0 else -1


def _sign_rule(s1: int, s2: int) -> tuple[Existence, Existence]:
    """(r -> inf, r -> 0) from the banded signs of the two eigenvalues
    transverse to a point's invariant hyperplanes: both negative admits
    trajectories toward infinity, both positive toward zero, a zero sign sits
    on an excluded equality, and mixed signs admit neither."""
    if s1 < 0 and s2 < 0:
        return Existence.YES, Existence.NO
    if s1 > 0 and s2 > 0:
        return Existence.NO, Existence.YES
    if s1 == 0 or s2 == 0:
        return Existence.BOUNDARY, Existence.BOUNDARY
    return Existence.NO, Existence.NO


def _verdict_pair(label, profile, to_inf: Existence, to_zero: Existence):
    return [
        LocalVerdict(label, Direction.TO_ZERO, to_zero,
                     profile if to_zero is Existence.YES else None),
        LocalVerdict(label, Direction.TO_INFINITY, to_inf,
                     profile if to_inf is Existence.YES else None),
    ]


def local_verdicts(params: SystemParams, fp: FixedPoint) -> list[LocalVerdict]:
    """Existence of admissible trajectories converging to `fp` in each direction,
    with the decay profile of the corresponding solutions.

    Inequalities that sit exactly on an excluded equality yield BOUNDARY.
    """
    if not fp.defined:
        raise UndefinedPoint(f"{fp.label} is undefined for these parameters")
    P = params
    label = fp.label
    if label in EXCHANGE_IMAGE:
        base_fp = fixed_point(exchange_params(P), EXCHANGE_IMAGE[label])
        out = []
        for v in local_verdicts(exchange_params(P), base_fp):
            out.append(LocalVerdict(label, v.direction, v.exists,
                                    v.profile.swapped() if v.profile else None))
        return out

    N, p, q, a, b, s, m, delta, mu = (P.N, P.p, P.q, P.a, P.b, P.s, P.m, P.delta, P.mu)
    cp, cq = P.x_bound, P.y_bound
    scale = abs(N) + abs(a) + abs(b) + abs(cp) + abs(cq)

    if label in (FixedPointLabel.O, FixedPointLabel.K0):
        # stable/unstable manifolds sit inside coordinate hyperplanes
        return _verdict_pair(label, None, Existence.NO, Existence.NO)

    if label is FixedPointLabel.N0:
        profile = AsymptoticProfile(0.0, 0.0, limits=("u0", "v0"))
        return _verdict_pair(label, profile, Existence.NO, Existence.YES)

    if label is FixedPointLabel.M0:
        ex = derive_exponents(P)
        g1 = _sgn(ex.gamma, scale)
        g2 = _sgn(cp - ex.gamma, scale)
        x1 = _sgn(ex.xi, scale)
        x2 = _sgn(cq - ex.xi, scale)
        profile = AsymptoticProfile(ex.gamma, ex.xi)
        if min(g1, g2, x1, x2) > 0:
            both = Existence.YES
        elif min(g1, g2, x1, x2) == 0:
            both = Existence.BOUNDARY
        else:
            both = Existence.NO
        return _verdict_pair(label, profile, both, both)

    if label is FixedPointLabel.A0:
        rule = _sign_rule(_sgn(N + a - s * cp - delta * cq, scale),
                          _sgn(N + b - mu * cp - m * cq, scale))
        return _verdict_pair(label, AsymptoticProfile(cp, cq), *rule)

    if label is FixedPointLabel.I0:
        to_inf, _ = _sign_rule(_sgn(N + a - s * cp, scale), _sgn(N + b - mu * cp, scale))
        return _verdict_pair(label, AsymptoticProfile(cp, 0.0), to_inf, Existence.NO)

    if label is FixedPointLabel.G0:
        adm = _sgn(N + b - cp * mu, scale)
        if adm <= 0:
            e = Existence.NO if adm < 0 else Existence.BOUNDARY
            return _verdict_pair(label, None, e, e)
        rule = _sign_rule(_sgn(q + b - cp * mu, scale),    # sign of (q-1) * lambda_2
                          _sgn(N + a - s * cp, scale))
        return _verdict_pair(label, AsymptoticProfile(cp, 0.0), *rule)

    if label is FixedPointLabel.P0:
        Ystar, Wstar = fp.coords[1], fp.coords[3]
        profile = AsymptoticProfile(cp, Ystar)
        sg = _sgn(derive_exponents(P).gamma - cp, scale)
        sq_m = _sgn(q - (m + 1), scale)
        lo = _sgn(cp * mu - (q + b), scale)
        hi = _sgn(N + b - m * cq - cp * mu, scale)
        if sq_m > 0 and lo > 0 and hi > 0:        # q > m+1, P0 interior
            return _verdict_pair(label, profile, *_sign_rule(sg, sg))
        if sq_m < 0 and lo < 0 and hi < 0:        # q < m+1 branch
            if _sgn(Ystar - Wstar, scale) == 0:   # implicit real/complex split unresolved
                return _verdict_pair(label, profile, Existence.BOUNDARY, Existence.BOUNDARY)
            return _verdict_pair(label, profile, *_sign_rule(-sg, -sg))
        if sq_m == 0 or lo == 0 or hi == 0:
            return _verdict_pair(label, profile, Existence.BOUNDARY, Existence.BOUNDARY)
        return _verdict_pair(label, None, Existence.NO, Existence.NO)

    if label in (FixedPointLabel.C0, FixedPointLabel.R0):
        pre = _sgn(m * cq - (N + b), scale)       # needs N+b < m (N-q)/(q-1)
        Ybar, Wbar = fp.coords[1], fp.coords[3]
        if pre <= 0:
            e = Existence.NO if pre < 0 else Existence.BOUNDARY
            return _verdict_pair(label, None, e, e)
        if _sgn(Ybar - Wbar, scale) == 0:         # excluded resonance of the quadratic
            return _verdict_pair(label, None, Existence.BOUNDARY, Existence.BOUNDARY)
        k = (q + b) / (m + 1 - q)
        profile = AsymptoticProfile(0.0, k)
        if label is FixedPointLabel.C0:
            sd = _sgn(delta - (N + a) * (m + 1 - q) / (q + b), scale)
            if sd > 0:
                return _verdict_pair(label, profile, Existence.YES, Existence.NO)
            if sd == 0:
                return _verdict_pair(label, profile, Existence.BOUNDARY, Existence.BOUNDARY)
            return _verdict_pair(label, None, Existence.NO, Existence.NO)
        # R0: admissible only under the complementary delta inequality
        sd = _sgn((N + a) * (m + 1 - q) / (q + b) - delta, scale)
        if sd <= 0:
            e = Existence.NO if sd < 0 else Existence.BOUNDARY
            return _verdict_pair(label, None, e, e)
        s1 = _sgn(delta - (p + a) * (m + 1 - q) / (q + b), scale)
        return _verdict_pair(label, profile, *_sign_rule(-s1, -s1))

    raise UndefinedPoint(f"no local analysis for {label}")

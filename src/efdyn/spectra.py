"""Linearization, eigenvalues and local trajectory analysis at the equilibria.

Closed-form spectra exist at every catalog point: the Jacobian is explicit,
and at M0 the characteristic polynomial is the quartic

    lambda^4 + E lambda^3 + F lambda^2 + G lambda - H,

whose coefficients are polynomial in the M0 coordinates. Its roots are found
in real arithmetic: Ferrari's resolvent cubic and Bairstow steps split it into
two real quadratics, so complex roots come in exact conjugate pairs. Closed
forms are cross-checked against the numeric Jacobian in the test suite.

The local existence verdicts are one rule on the linearization: the rates
transverse to a point's invariant hyperplanes (`local_verdicts`).
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .equilibria import EXCHANGE_IMAGE, FixedPoint, FixedPointLabel, fixed_point, m0_coords
from .errors import UndefinedPoint
from .model import AsymptoticProfile, PhaseState, SystemParams, derive_exponents, exchange_params
from .numerics import CENTER_TOL, IDENTITY_RTOL


def jacobian_at(params: SystemParams, state) -> tuple[tuple[float, ...], ...]:
    """Analytic Jacobian of the vector field at a phase point (or raw coords)."""
    P = params
    X, Y, Z, W = map(float, state.coords if isinstance(state, PhaseState) else state)
    return ((2 * X - P.x_bound + Z / (P.p - 1), 0.0, X / (P.p - 1), 0.0),
            (0.0, 2 * Y - P.y_bound + W / (P.q - 1), 0.0, Y / (P.q - 1)),
            (-P.s * Z, -P.delta * Z, P.N + P.a - P.s * X - P.delta * Y - 2 * Z, 0.0),
            (-P.mu * W, -P.m * W, 0.0, P.N + P.b - P.mu * X - P.m * Y - 2 * W))


# -- polynomial machinery -----------------------------------------------------

def _polyval(c, z):
    """c[0] z^n + ... + c[n] by Horner's rule, as `numpy.polyval` evaluates it."""
    y = 0j
    for a in c:
        y = y * z + a
    return y


def _real_quad_roots(b: float, c: float) -> list[complex]:
    """Roots of x^2 + b x + c without cancellation: a real pair as q and c/q,
    a complex pair as exact conjugates with a +0.0 real part when b = 0."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        re, im = -0.5 * b + 0.0, 0.5 * math.sqrt(-disc)
        return [complex(re, im), complex(re, -im)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [complex(q), complex(c / q)] if q != 0.0 else [0j, 0j]


def _largest_cubic_root(e2: float, e1: float, e0: float) -> float:
    """Largest real root of x^3 + e2 x^2 + e1 x + e0 (Cardano or the
    trigonometric form), refined by Newton steps while they shrink the value."""
    P = e1 - e2 * e2 / 3.0
    Q = 2.0 * e2 ** 3 / 27.0 - e2 * e1 / 3.0 + e0
    disc = 0.25 * Q * Q + P ** 3 / 27.0
    if disc > 0.0 or P >= 0.0:
        w = 0.5 * abs(Q) + math.sqrt(max(disc, 0.0))
        A = -math.copysign(w ** (1.0 / 3.0), Q)
        y = A - P / (3.0 * A) if A != 0.0 else 0.0
    else:
        k = math.sqrt(-P / 3.0)
        y = 2.0 * k * math.cos(math.acos(max(-1.0, min(1.0, -0.5 * Q / k ** 3))) / 3.0)
    x = y - e2 / 3.0
    f = ((x + e2) * x + e1) * x + e0
    for _ in range(4):
        df = (3.0 * x + 2.0 * e2) * x + e1
        if f == 0.0 or df == 0.0:
            break
        x_new = x - f / df
        f_new = ((x_new + e2) * x_new + e1) * x_new + e0
        if abs(f_new) >= abs(f):
            break
        x, f = x_new, f_new
    return x


def _quartic_factors(a3: float, a2: float, a1: float, a0: float):
    """x^4 + a3 x^3 + a2 x^2 + a1 x + a0 as two real quadratics (b1, c1),
    (b2, c2): Ferrari's resolvent cubic gives the start, Bairstow steps
    (Newton on the remainder of the division by the first factor) refine it,
    and the quotient is the second factor."""
    u = _largest_cubic_root(-a2, a3 * a1 - 4.0 * a0, 4.0 * a2 * a0 - a3 * a3 * a0 - a1 * a1)
    R = math.sqrt(max(0.25 * a3 * a3 - a2 + u, 0.0))
    D = math.copysign(math.sqrt(max(0.25 * u * u - a0, 0.0)), 0.5 * a3 * u - a1)
    b, c = 0.5 * a3 + R, 0.5 * u + D

    def divide(b, c):
        q1 = a3 - b
        q0 = a2 - b * q1 - c
        return q1, q0, a1 - b * q0 - c * q1, a0 - c * q0

    # Newton converges linearly where the two factors share a root, so allow
    # a few dozen steps; each one must shrink the remainder
    q1, q0, r1, r0 = divide(b, c)
    for _ in range(30):
        if r1 == 0.0 and r0 == 0.0:
            break
        j11, j12 = b * (q1 - b) + c - q0, b - q1
        j21, j22 = c * (q1 - b), c - q0
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        b_new = b - (r1 * j22 - r0 * j12) / det
        c_new = c - (r0 * j11 - r1 * j21) / det
        step = divide(b_new, c_new)
        if abs(step[2]) + abs(step[3]) >= abs(r1) + abs(r0):
            break
        b, c = b_new, c_new
        q1, q0, r1, r0 = step
    return (b, c), (q1, q0)


def _monic_roots(c: list[float]) -> list[complex]:
    """Roots of the monic real polynomial c (degree at most 4)."""
    n = len(c) - 1
    if n == 0:
        return []
    if n == 1:
        return [complex(-c[1])]
    if n == 2:
        return _real_quad_roots(c[1], c[2])
    if n == 3:
        r = _largest_cubic_root(c[1], c[2], c[3])
        return [complex(r)] + _real_quad_roots(c[1] + r, c[2] + r * (c[1] + r))
    (b1, c1), (b2, c2) = _quartic_factors(c[1], c[2], c[3], c[4])
    return _real_quad_roots(b1, c1) + _real_quad_roots(b2, c2)


def polynomial_roots(coeffs) -> tuple[complex, ...]:
    """Roots of a monic real polynomial of degree at most 4, in real arithmetic.

    Trailing zero coefficients give exact zero roots, as in `numpy.roots`; a
    quartic splits into two real quadratics (`_quartic_factors`), so complex
    roots come in exact conjugate pairs. One Newton polish step tightens each
    root; output sorted by (Re, Im) so repeated calls are deterministic.
    """
    c = [float(x) for x in coeffs]
    if c[0] != 1.0:
        raise ValueError("leading coefficient must be 1")
    if len(c) > 5:
        raise ValueError("degree above 4")
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    roots = _monic_roots(c[:n]) + [0j] * (len(c) - n)
    dc = [a * (len(c) - 1 - i) for i, a in enumerate(c[:-1])]
    out = []
    for z in roots:
        f, df = _polyval(c, z), _polyval(dc, z)
        polished = z - f / df if df != 0 else z
        if abs(_polyval(c, polished)) <= abs(f):
            z = polished
        # collapse numerically-real roots onto the real axis
        if abs(z.imag) < 1e-12 * (1.0 + abs(z)):
            z = complex(z.real + 0.0, 0.0)
        out.append(z)
    return sort_eigs(out)


def sort_eigs(values) -> tuple[complex, ...]:
    """The values as complex numbers, sorted by (Re, Im); stable."""
    return tuple(sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)))


@record
class QuarticCoeffs:
    """Coefficients of lambda^4 + E lambda^3 + F lambda^2 + G lambda - H at M0."""

    E: float
    F: float
    G: float
    H: float

    def as_poly(self) -> tuple[float, float, float, float, float]:
        return (1.0, self.E, self.F, self.G, -self.H)


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

@record
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
    yw = _real_quad_roots(-(Y - W), (m + 1 - q) / (q - 1) * Y * W)
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

@record
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
    if P.p == 2.0 and P.q == 2.0 and P.s == P.m and P.N != 2.0 and P.s < P.N / (P.N - 2) \
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


@record
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


# the coordinates that vanish by definition at each base label
_ZERO_COORDS = {FixedPointLabel[k]: tuple("XYZW".index(c) for c in v) for k, v in (
    ("O", "XYZW"), ("N0", "XY"), ("A0", "ZW"), ("I0", "YZW"), ("K0", "XYW"),
    ("G0", "YZ"), ("P0", "Z"), ("C0", "XZ"), ("R0", "X"), ("M0", ""))}


def local_verdicts(params: SystemParams, fp: FixedPoint,
                   spectrum: Spectrum | None = None) -> list[LocalVerdict]:
    """Existence of admissible trajectories converging to `fp` in each direction,
    with the decay profile of the corresponding solutions: the point's (X, Y).
    `spectrum` is the point's `spectrum_at`, if the caller holds it already:
    M0's verdicts read it instead of solving M0's quartic again.

    The field is of Kolmogorov type (X' = X f_X, and so on), so each coordinate
    that vanishes at `fp` spans an invariant hyperplane, with the transverse
    rate f_i = J_ii. Orbits of the open orthant tend to `fp` as r -> inf iff
    every transverse rate is negative, and as r -> 0 iff every one is
    positive; M0 has none, and needs a stable (unstable) eigenvalue instead.
    A negative coordinate admits nothing; a coordinate or rate inside
    `_sgn`'s band sits on an excluded equality and gives BOUNDARY.
    """
    if not fp.defined:
        raise UndefinedPoint(f"{fp.label} is undefined for these parameters")
    label = fp.label
    base = EXCHANGE_IMAGE.get(label, label)
    P, (X, Y, Z, W) = params, fp.coords
    if base is not label:                   # an image is read in its base's frame
        P, (X, Y, Z, W) = exchange_params(params), (Y, X, W, Z)
    scale = abs(P.N) + abs(P.a) + abs(P.b) + abs(P.x_bound) + abs(P.y_bound)
    zero = _ZERO_COORDS[base]
    J = jacobian_at(P, (X, Y, Z, W))
    rates = [_sgn(J[i][i], scale) for i in zero]
    least_coord = min((_sgn(c, scale) for i, c in enumerate((X, Y, Z, W)) if i not in zero),
                      default=1)
    if base in (FixedPointLabel.P0, FixedPointLabel.C0, FixedPointLabel.R0) and \
            P.q < P.m + 1 and _sgn(W, scale) > 0 and _sgn(Y - W, scale) == 0:
        # the (Y, W) face block of P0, C0 and R0 has trace Y - W and
        # determinant (m+1-q)/(q-1) Y W > 0: at Y = W a purely imaginary
        # pair, which no rate decides. Read before R0's Z coordinate
        to_inf = to_zero = Existence.BOUNDARY
    elif least_coord <= 0:
        to_inf = to_zero = Existence.NO if least_coord < 0 else Existence.BOUNDARY
    elif not zero:
        sp = spectrum or spectrum_at(params, fp)
        to_inf = Existence.YES if sp.stable_dim else Existence.NO
        to_zero = Existence.YES if sp.unstable_dim else Existence.NO
    else:
        band = Existence.BOUNDARY if 0 in rates else Existence.NO
        to_inf = Existence.YES if max(rates) < 0 else band
        to_zero = Existence.YES if min(rates) > 0 else band
        if base is FixedPointLabel.I0 and min(rates) < 0:
            # a negative rate rules r -> 0 out whatever the others are: at I0,
            # -y_bound < 0 keeps r -> 0 NO where another rate is in the band
            to_zero = Existence.NO
    limits = ("u0", "v0") if base is FixedPointLabel.N0 else \
        ("alpha", "beta") if base is label else ("beta", "alpha")
    profile = AsymptoticProfile(*fp.coords[:2], limits=limits)
    return [LocalVerdict(label, direction, exists, profile if exists is Existence.YES else None)
            for direction, exists in ((Direction.TO_ZERO, to_zero),
                                      (Direction.TO_INFINITY, to_inf))]

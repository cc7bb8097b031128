"""Fixed-point catalog of the phase system.

All equilibria are explicit because the system is of Kolmogorov type: on each
coordinate hyperplane the flow restricts to a lower-dimensional system of the
same family. The catalog below enumerates the sixteen candidates; a point is
`defined` when every denominator in its formula is nonzero and `admissible`
when it lies in the closure of the positive region (strictly inside for M0).
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import NotApplicable, UndefinedPoint
from .model import SystemParams, derive_exponents, exchange_params
from .numerics import DEGENERACY_BAND


class FixedPointLabel(str, Enum):
    """The sixteen catalog points, in catalog order."""

    M0 = "M0"
    O = "O"
    N0 = "N0"
    A0 = "A0"
    I0 = "I0"
    J0 = "J0"
    K0 = "K0"
    L0 = "L0"
    G0 = "G0"
    H0 = "H0"
    P0 = "P0"
    C0 = "C0"
    R0 = "R0"
    Q0 = "Q0"
    D0 = "D0"
    S0 = "S0"


# labels obtained from a base label by the (p,delta,s,a)<->(q,mu,m,b) exchange
# composed with the coordinate swap (X<->Y, Z<->W)
EXCHANGE_IMAGE = {
    FixedPointLabel.J0: FixedPointLabel.I0,
    FixedPointLabel.L0: FixedPointLabel.K0,
    FixedPointLabel.H0: FixedPointLabel.G0,
    FixedPointLabel.Q0: FixedPointLabel.P0,
    FixedPointLabel.D0: FixedPointLabel.C0,
    FixedPointLabel.S0: FixedPointLabel.R0,
}


@record
class FixedPoint:
    label: FixedPointLabel
    coords: tuple[float, float, float, float]
    defined: bool
    admissible: bool
    near_degenerate: bool = False   # a denominator inside the warning band

    def to_dict(self) -> dict:
        return {"label": self.label.value, "coords": list(self.coords),
                "defined": self.defined, "admissible": self.admissible,
                "notes": "near-degenerate denominator" if self.near_degenerate else ""}


@record
class PowerSolution:
    """Amplitudes of the exact power pair (A r^{-gamma}, B r^{-xi})."""

    A: float
    B: float
    gamma: float
    xi: float


def m0_coords(params: SystemParams) -> tuple[float, float, float, float]:
    """The interior point M0 = (gamma, xi, N-p-(p-1) gamma, N-q-(q-1) xi);
    raises ZeroDiscriminant at D = 0."""
    P = params
    ex = derive_exponents(P)
    return (ex.gamma, ex.xi, P.N - P.p - (P.p - 1) * ex.gamma,
            P.N - P.q - (P.q - 1) * ex.xi)


def _swapped(coords):
    X, Y, Z, W = coords
    return (Y, X, W, Z)


def _base_point(params: SystemParams, label: FixedPointLabel) -> FixedPoint:
    """Coordinates for the labels whose formulas are written out directly."""
    P = params
    N, p, q, a, b, s, m, delta, mu = (P.N, P.p, P.q, P.a, P.b, P.s, P.m, P.delta, P.mu)
    cp, cq = P.x_bound, P.y_bound
    near = False

    if label is FixedPointLabel.M0:
        D = P.D
        if D == 0.0:
            return FixedPoint(label, (math.nan,) * 4, False, False)
        near = abs(D) < DEGENERACY_BAND * (1 + abs(delta * mu))
        coords = m0_coords(P)
    elif label is FixedPointLabel.O:
        coords = (0.0, 0.0, 0.0, 0.0)
    elif label is FixedPointLabel.N0:
        coords = (0.0, 0.0, N + a, N + b)
    elif label is FixedPointLabel.A0:
        coords = (cp, cq, 0.0, 0.0)
    elif label is FixedPointLabel.I0:
        coords = (cp, 0.0, 0.0, 0.0)
    elif label is FixedPointLabel.K0:
        coords = (0.0, 0.0, N + a, 0.0)
    elif label is FixedPointLabel.G0:
        coords = (cp, 0.0, 0.0, N + b - cp * mu)
    elif label in (FixedPointLabel.P0, FixedPointLabel.C0, FixedPointLabel.R0):
        den = q - 1 - m
        if den == 0.0:
            return FixedPoint(label, (math.nan,) * 4, False, False)
        near = abs(den) < DEGENERACY_BAND * (1 + abs(q - 1) + abs(m))
        w_bar = ((N + b) * (q - 1) - m * (N - q)) / den
        if label is FixedPointLabel.P0:
            coords = (cp, (cp * mu - (q + b)) / den, 0.0,
                      ((q - 1) * (N + b - cp * mu) - m * (N - q)) / den)
        elif label is FixedPointLabel.C0:
            coords = (0.0, -(q + b) / den, 0.0, w_bar)
        else:
            coords = (0.0, -(q + b) / den, N + a + delta * (b + q) / den, w_bar)
    else:
        raise UndefinedPoint(f"{label} has no direct formula")
    coords = tuple(float(c) for c in coords)
    # admissible: every coordinate >= 0, and > 0 at M0
    strict = label is FixedPointLabel.M0
    return FixedPoint(label, coords, True, all(c > 0.0 if strict else c >= 0.0 for c in coords),
                      near)


def fixed_point(params: SystemParams, label: FixedPointLabel) -> FixedPoint:
    """One catalog entry; symmetric labels are derived from their exchange image."""
    if label in EXCHANGE_IMAGE:
        base = _base_point(exchange_params(params), EXCHANGE_IMAGE[label])
        return FixedPoint(label, _swapped(base.coords), base.defined, base.admissible,
                          base.near_degenerate)
    return _base_point(params, label)


def fixed_point_catalog(params: SystemParams) -> list[FixedPoint]:
    """All sixteen equilibria, in stable order."""
    return [fixed_point(params, label) for label in FixedPointLabel]


def particular_solution(params: SystemParams) -> PowerSolution:
    """Amplitudes A, B of the exact power solution attached to M0.

    A^D and B^D are products of powers of eps1 X0^{p-1} Z0 and eps2 Y0^{q-1} W0;
    both bases must be positive for a real solution with the given signs,
    otherwise NotApplicable is raised. The D-th roots are taken in log space.
    """
    P = params
    if P.D == 0.0:
        raise NotApplicable("D = 0: no power solution")
    gamma, xi, Z0, W0 = m0_coords(P)
    if gamma <= 0.0 or xi <= 0.0:
        raise NotApplicable(f"gamma = {gamma}, xi = {xi}: power bases need gamma, xi > 0")
    base1 = P.eps1 * gamma ** (P.p - 1) * Z0
    base2 = P.eps2 * xi ** (P.q - 1) * W0
    if base1 <= 0.0 or base2 <= 0.0:
        raise NotApplicable(
            f"sign mismatch: eps1*X0^(p-1)*Z0 = {base1}, eps2*Y0^(q-1)*W0 = {base2}")
    l1, l2 = math.log(base1), math.log(base2)
    A = math.exp(((P.q - 1 - P.m) * l1 + P.delta * l2) / P.D)
    B = math.exp((P.mu * l1 + (P.p - 1 - P.s) * l2) / P.D)
    return PowerSolution(A=A, B=B, gamma=gamma, xi=xi)


"""Fixed-point catalog of the phase system.

All equilibria are explicit because the system is of Kolmogorov type: on each
coordinate hyperplane the flow restricts to a lower-dimensional system of the
same family. The catalog below enumerates the sixteen candidates; a point is
`defined` when every denominator in its formula is nonzero and `admissible`
when it lies in the closure of the positive region (strictly inside for M0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotApplicable, UndefinedPoint
from .model import (SystemParams, derive_exponents, exchange_params, vector_field_arr)
from .numerics import DEGENERACY_BAND


class FixedPointLabel(str, Enum):
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

CATALOG_ORDER = [
    FixedPointLabel.M0, FixedPointLabel.O, FixedPointLabel.N0, FixedPointLabel.A0,
    FixedPointLabel.I0, FixedPointLabel.J0, FixedPointLabel.K0, FixedPointLabel.L0,
    FixedPointLabel.G0, FixedPointLabel.H0, FixedPointLabel.P0, FixedPointLabel.C0,
    FixedPointLabel.R0, FixedPointLabel.Q0, FixedPointLabel.D0, FixedPointLabel.S0,
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PowerSolution:
    """Amplitudes of the exact power pair (A r^{-gamma}, B r^{-xi})."""

    A: float
    B: float
    gamma: float
    xi: float

    def u(self, r: float) -> float:
        return self.A * r ** (-self.gamma)

    def v(self, r: float) -> float:
        return self.B * r ** (-self.xi)

    def radial_state(self, r: float):
        from .model import RadialState
        return RadialState(r=r, u=self.u(r), v=self.v(r),
                           du=-self.gamma * self.u(r) / r,
                           dv=-self.xi * self.v(r) / r)


def _swapped(coords):
    X, Y, Z, W = coords
    return (Y, X, W, Z)


def _base_point(params: SystemParams, label: FixedPointLabel) -> FixedPoint:
    """Coordinates for the labels whose formulas are written out directly."""
    P = params
    N, p, q, a, b, s, m, delta, mu = (P.N, P.p, P.q, P.a, P.b, P.s, P.m, P.delta, P.mu)
    cp, cq = P.x_bound, P.y_bound
    defined, near = True, False

    if label is FixedPointLabel.M0:
        D = P.D
        if D == 0.0:
            return FixedPoint(label, (math.nan,) * 4, False, False)
        near = abs(D) < DEGENERACY_BAND * (1 + abs(delta * mu))
        ex = derive_exponents(P)
        coords = (ex.gamma, ex.xi, N - p - (p - 1) * ex.gamma, N - q - (q - 1) * ex.xi)
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
    return FixedPoint(label, tuple(float(c) for c in coords), defined, _admissible(label, coords, params), near)


def _admissible(label: FixedPointLabel, coords, params: SystemParams) -> bool:
    if any(math.isnan(c) for c in coords):
        return False
    if label is FixedPointLabel.M0:
        # strictly inside the positive region: 0 < gamma < (N-p)/(p-1), 0 < xi < (N-q)/(q-1)
        X, Y, Z, W = coords
        return 0.0 < X < params.x_bound and 0.0 < Y < params.y_bound
    return all(c >= 0.0 for c in coords)


def fixed_point(params: SystemParams, label: FixedPointLabel) -> FixedPoint:
    """One catalog entry; symmetric labels are derived from their exchange image."""
    if label in EXCHANGE_IMAGE:
        base = _base_point(exchange_params(params), EXCHANGE_IMAGE[label])
        adm = base.defined and _admissible(label, _swapped(base.coords), params)
        return FixedPoint(label, _swapped(base.coords), base.defined, adm,
                          base.near_degenerate)
    return _base_point(params, label)


def fixed_point_catalog(params: SystemParams) -> list[FixedPoint]:
    """All sixteen equilibria, in stable order."""
    return [fixed_point(params, label) for label in CATALOG_ORDER]


@dataclass(frozen=True)
class AdmissibilityReport:
    label: FixedPointLabel
    admissible: bool
    boundary: bool                 # some coordinate sits exactly on a face
    violated: tuple[str, ...]      # human-readable violated inequalities

    def to_dict(self) -> dict:
        return {"label": self.label.value, "admissible": self.admissible,
                "boundary": self.boundary, "violated": list(self.violated)}


def admissibility(fp: FixedPoint, params: SystemParams) -> AdmissibilityReport:
    """Detailed admissibility check; for M0 this is exactly the strict box condition."""
    if not fp.defined:
        raise UndefinedPoint(f"{fp.label} is undefined for these parameters")
    names = ("X", "Y", "Z", "W")
    violated = []
    if fp.label is FixedPointLabel.M0:
        gamma, xi = fp.coords[0], fp.coords[1]
        if not 0.0 < gamma:
            violated.append(f"0 < gamma violated (gamma = {gamma})")
        if not gamma < params.x_bound:
            violated.append(f"gamma < (N-p)/(p-1) violated ({gamma} >= {params.x_bound})")
        if not 0.0 < xi:
            violated.append(f"0 < xi violated (xi = {xi})")
        if not xi < params.y_bound:
            violated.append(f"xi < (N-q)/(q-1) violated ({xi} >= {params.y_bound})")
        return AdmissibilityReport(fp.label, not violated, False, tuple(violated))
    for name, c in zip(names, fp.coords):
        if c < 0.0:
            violated.append(f"{name} >= 0 violated ({name} = {c})")
    boundary = not violated and any(c == 0.0 for c in fp.coords)
    return AdmissibilityReport(fp.label, not violated, boundary, tuple(violated))


def particular_solution(params: SystemParams) -> PowerSolution:
    """Amplitudes A, B of the exact power solution attached to M0.

    A^D and B^D are products of powers of eps1 X0^{p-1} Z0 and eps2 Y0^{q-1} W0;
    both bases must be positive for a real solution with the given signs,
    otherwise NotApplicable is raised. The D-th roots are taken in log space.
    """
    P = params
    if P.D == 0.0:
        raise NotApplicable("D = 0: no power solution")
    ex = derive_exponents(P)
    gamma, xi = ex.gamma, ex.xi
    Z0 = P.N - P.p - (P.p - 1) * gamma
    W0 = P.N - P.q - (P.q - 1) * xi
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


def catalog_residuals(params: SystemParams) -> dict[str, float]:
    """Max-norm of the vector field at every defined catalog point."""
    out = {}
    for fp in fixed_point_catalog(params):
        if fp.defined:
            out[fp.label.value] = float(np.max(np.abs(vector_field_arr(params, fp.coords))))
    return out

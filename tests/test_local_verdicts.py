"""`spectra.local_verdicts` against the case table it replaced and against the
closed-form spectra.

The table (`table_verdicts` below) wrote out one case per catalog point; the
rule reads each point's transverse rates off the Jacobian. Inside the
standing assumptions the two give the same verdict in both directions, and
the rule's profile is the point's (X, Y). On points built on each of the
table's excluded equalities BOUNDARY is compared too; the two differ only
where the table said BOUNDARY at a point outside the closed orthant
(`_table_was_wrong`). On every draw, inside the assumptions or not, a YES
verdict agrees with the signs of the point's closed-form transverse
eigenvalues.
"""

from __future__ import annotations

import collections
import random

import pytest

from efdyn.equilibria import EXCHANGE_IMAGE, FixedPointLabel, fixed_point, fixed_point_catalog
from efdyn.model import (SystemParams, derive_exponents, exchange_params, hamiltonian_params,
                         nonvariational_params, potential_params, validate_params)
from efdyn.spectra import (Direction, Existence, _sgn, closed_form_eigenvalues, local_verdicts,
                           spectrum_at)

L = FixedPointLabel
YES, NO, BOUNDARY = Existence.YES, Existence.NO, Existence.BOUNDARY


# -- the case table, kept as the oracle ------------------------------------------

def _sign_rule(s1, s2):
    if s1 < 0 and s2 < 0:
        return YES, NO
    if s1 > 0 and s2 > 0:
        return NO, YES
    if s1 == 0 or s2 == 0:
        return BOUNDARY, BOUNDARY
    return NO, NO


def _pair(profile, to_inf, to_zero):
    """{direction: (exists, profile)}, the profile as (u, v, limits) on YES."""
    return {Direction.TO_ZERO: (to_zero, profile if to_zero is YES else None),
            Direction.TO_INFINITY: (to_inf, profile if to_inf is YES else None)}


def table_verdicts(P, fp):
    """The case table of local verdicts, one case per catalog point."""
    label = fp.label
    if label in EXCHANGE_IMAGE:
        Px = exchange_params(P)
        base = table_verdicts(Px, fixed_point(Px, EXCHANGE_IMAGE[label]))
        return {d: (e, (pr[1], pr[0], pr[2][::-1]) if pr else None)
                for d, (e, pr) in base.items()}
    N, p, q, a, b, s, m, delta, mu = (P.N, P.p, P.q, P.a, P.b, P.s, P.m, P.delta, P.mu)
    cp, cq = P.x_bound, P.y_bound
    scale = abs(N) + abs(a) + abs(b) + abs(cp) + abs(cq)
    ab = ("alpha", "beta")

    if label in (L.O, L.K0):
        return _pair(None, NO, NO)
    if label is L.N0:
        return _pair((0.0, 0.0, ("u0", "v0")), NO, YES)
    if label is L.M0:
        ex = derive_exponents(P)
        g = min(_sgn(ex.gamma, scale), _sgn(cp - ex.gamma, scale),
                _sgn(ex.xi, scale), _sgn(cq - ex.xi, scale))
        both = YES if g > 0 else BOUNDARY if g == 0 else NO
        return _pair((ex.gamma, ex.xi, ab), both, both)
    if label is L.A0:
        return _pair((cp, cq, ab), *_sign_rule(_sgn(N + a - s * cp - delta * cq, scale),
                                               _sgn(N + b - mu * cp - m * cq, scale)))
    if label is L.I0:
        to_inf, _ = _sign_rule(_sgn(N + a - s * cp, scale), _sgn(N + b - mu * cp, scale))
        return _pair((cp, 0.0, ab), to_inf, NO)
    if label is L.G0:
        adm = _sgn(N + b - cp * mu, scale)
        if adm <= 0:
            e = NO if adm < 0 else BOUNDARY
            return _pair(None, e, e)
        return _pair((cp, 0.0, ab), *_sign_rule(_sgn(q + b - cp * mu, scale),
                                                _sgn(N + a - s * cp, scale)))
    if label is L.P0:
        Ystar, Wstar = fp.coords[1], fp.coords[3]
        profile = (cp, Ystar, ab)
        sg = _sgn(derive_exponents(P).gamma - cp, scale)
        sq_m = _sgn(q - (m + 1), scale)
        lo = _sgn(cp * mu - (q + b), scale)
        hi = _sgn(N + b - m * cq - cp * mu, scale)
        if sq_m > 0 and lo > 0 and hi > 0:
            return _pair(profile, *_sign_rule(sg, sg))
        if sq_m < 0 and lo < 0 and hi < 0:
            if _sgn(Ystar - Wstar, scale) == 0:
                return _pair(profile, BOUNDARY, BOUNDARY)
            return _pair(profile, *_sign_rule(-sg, -sg))
        if sq_m == 0 or lo == 0 or hi == 0:
            return _pair(profile, BOUNDARY, BOUNDARY)
        return _pair(None, NO, NO)
    # C0 and R0
    pre = _sgn(m * cq - (N + b), scale)
    Ybar, Wbar = fp.coords[1], fp.coords[3]
    if pre <= 0:
        e = NO if pre < 0 else BOUNDARY
        return _pair(None, e, e)
    if _sgn(Ybar - Wbar, scale) == 0:
        return _pair(None, BOUNDARY, BOUNDARY)
    profile = (0.0, (q + b) / (m + 1 - q), ab)
    if label is L.C0:
        sd = _sgn(delta - (N + a) * (m + 1 - q) / (q + b), scale)
        if sd > 0:
            return _pair(profile, YES, NO)
        if sd == 0:
            return _pair(profile, BOUNDARY, BOUNDARY)
        return _pair(None, NO, NO)
    sd = _sgn((N + a) * (m + 1 - q) / (q + b) - delta, scale)
    if sd <= 0:
        e = NO if sd < 0 else BOUNDARY
        return _pair(None, e, e)
    s1 = _sgn(delta - (p + a) * (m + 1 - q) / (q + b), scale)
    return _pair(profile, *_sign_rule(-s1, -s1))


# -- draws ---------------------------------------------------------------------

def _weighted_hamiltonian(rng):
    return hamiltonian_params(rng.uniform(3.5, 7.0), rng.uniform(0.3, 5.0),
                              rng.uniform(0.3, 5.0), rng.uniform(-0.5, 1.5),
                              rng.uniform(-0.5, 1.5))


def _potential(rng):
    N = rng.uniform(3.5, 7.0)
    return potential_params(N, rng.uniform(1.2, N - 0.3), rng.uniform(1.2, N - 0.3),
                            rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
                            rng.uniform(-0.5, 1.5))


def _nonvariational(rng):
    return nonvariational_params(rng.uniform(3.5, 7.0), rng.uniform(0.05, 2.0),
                                 rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0),
                                 rng.uniform(-0.5, 1.5))


def _general(rng):
    N = rng.uniform(3.5, 7.0)
    return SystemParams(N=N, p=rng.uniform(1.2, N - 0.3), q=rng.uniform(1.2, N - 0.3),
                        a=rng.uniform(-0.5, 1.5), b=rng.uniform(-0.5, 1.5),
                        s=rng.uniform(0.0, 2.0), m=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(0.3, 5.0), mu=rng.uniform(0.3, 5.0))


def _outside(rng):
    """A draw that may break any standing assumption: p or q below 1 or above
    N, N + a < 0, exponents of either sign."""
    N = rng.uniform(1.5, 7.0)
    return SystemParams(N=N, p=rng.choice((rng.uniform(0.2, 0.95), rng.uniform(1.05, N + 3.0))),
                        q=rng.choice((rng.uniform(0.2, 0.95), rng.uniform(1.05, N + 3.0))),
                        a=rng.uniform(-N - 2.0, 1.5), b=rng.uniform(-N - 2.0, 1.5),
                        s=rng.uniform(-1.0, 2.0), m=rng.uniform(-1.0, 2.0),
                        delta=rng.uniform(-3.0, 5.0), mu=rng.uniform(-3.0, 5.0))


def _valid(draw, rng, n):
    points = []
    while len(points) < n:
        P = draw(rng)
        if validate_params(P).ok:
            points.append(P)
    return points


FAMILIES = {"weighted-hamiltonian": (_weighted_hamiltonian, 2),
            "potential": (_potential, 5),
            "nonvariational": (_nonvariational, 11),
            "general": (_general, 1)}


# one excluded equality of the table per entry: the parameter it is solved
# for, and its value at P (None where the solve has no use). P0 is undefined
# at q = m + 1 exactly, so that one is met inside the band
def _p0_y_equals_w(P):
    N, q, b, m = P.N, P.q, P.b, P.m
    return "mu", (q + b + (q - 1) * (N + b) - m * (N - q)) / (q * P.x_bound)


def _gamma_at_x_bound(P):
    k = (P.p - 1 - P.s) * (P.q - 1 - P.m)
    den = P.x_bound * P.mu - (P.q + P.b)
    return "delta", (P.x_bound * k + (P.p + P.a) * (P.q - 1 - P.m)) / den if den else None


EQUALITIES = {
    "A0-Z-rate": lambda P: ("delta", (P.N + P.a - P.s * P.x_bound) / P.y_bound),
    "I0-Z-rate": lambda P: ("s", (P.N + P.a) / P.x_bound),
    "I0-W-rate=G0-W": lambda P: ("mu", (P.N + P.b) / P.x_bound),
    "G0-Y-rate=P0-Y": lambda P: ("mu", (P.q + P.b) / P.x_bound),
    "P0-W": lambda P: ("mu", (P.N + P.b - P.m * P.y_bound) / P.x_bound),
    "P0-Y=W": _p0_y_equals_w,
    "gamma=x_bound": _gamma_at_x_bound,
    "gamma=0": lambda P: ("delta", -(P.p + P.a) * (P.q - 1 - P.m) / (P.q + P.b)),
    "C0-W": lambda P: ("m", (P.N + P.b) / P.y_bound),
    "C0-Y=W": lambda P: ("m", ((P.N + P.b) * (P.q - 1) + P.q + P.b) / (P.N - P.q)),
    "C0-Z-rate=R0-Z": lambda P: ("delta", (P.N + P.a) * (P.m + 1 - P.q) / (P.q + P.b)),
    "R0-X-rate": lambda P: ("delta", (P.p + P.a) * (P.m + 1 - P.q) / (P.q + P.b)),
    "P0-q=m+1": lambda P: ("m", P.q - 1 + 1e-14),
}


def _on_equality(name, rng, n):
    """n valid points on the equality, half of them drawn as exchange images,
    so that each image label meets it too."""
    points = []
    while len(points) < n:
        P = _general(rng)
        key, value = EQUALITIES[name](P)
        if value is None:
            continue
        P = P.replace(**{key: value})
        if len(points) % 2:
            P = exchange_params(P)
        if validate_params(P).ok:
            points.append(P)
    return points


def _compare(P):
    """The verdicts where the rule and the table differ at P, and the count
    of the table's verdicts by answer."""
    diffs, counts = [], collections.Counter()
    for fp in fixed_point_catalog(P):
        if not fp.defined:
            continue
        table = table_verdicts(P, fp)
        for v in local_verdicts(P, fp):
            exists, profile = table[v.direction]
            counts[exists] += 1
            if v.exists is not exists:
                diffs.append((fp.label, v.direction, v.exists, exists))
                continue
            if v.exists is YES:
                X, Y = fp.coords[:2]
                assert (v.profile.u_exponent, v.profile.v_exponent) == (X, Y)
                assert v.profile.log_correction_power == 0.0
                assert v.profile.limits == profile[2]
                # C0 and R0 wrote Y as (q+b)/(m+1-q): an ulp from the catalog
                assert profile[:2] == pytest.approx((X, Y), rel=1e-15, abs=0.0)
            else:
                assert v.profile is None
    return diffs, counts


@pytest.mark.parametrize("family", FAMILIES)
def test_rule_gives_the_table_verdict_inside_the_assumptions(family):
    draw, seed = FAMILIES[family]
    counts = collections.Counter()
    for P in _valid(draw, random.Random(seed), 1000):
        diffs, at_p = _compare(P)
        assert not diffs, (P, diffs)
        counts += at_p
    assert counts[YES] and counts[NO]


# R0 and its image S0 meet H0 and G0 where their W (X on S0) vanishes
TWIN = {L.R0: L.H0, L.S0: L.G0}


def _table_was_wrong(P, label, direction):
    """Whether the table's BOUNDARY at a point where the rule says NO sat at
    a point outside the closed orthant, for one of two reasons:
    - R0 (S0) at its twin H0 (G0): the table read R0's W = 0 before its
      Z < 0, and answered NO at the same point as the twin;
    - P0 (Q0) inside the band of q = m + 1 (p = s + 1), where it is
      undefined: its Y or W is negative, of order 1e14, on both sides."""
    fp = fixed_point(P, label)
    if min(fp.coords) >= 0.0:
        return False
    if label in (L.P0, L.Q0):
        return fp.near_degenerate
    if label not in TWIN:
        return False
    twin = fixed_point(P, TWIN[label])
    band = 1e-12 * (1 + 2 * (abs(P.N) + abs(P.a) + abs(P.b) + abs(P.x_bound)
                             + abs(P.y_bound)))
    return (twin.defined
            and all(abs(c - d) <= band for c, d in zip(fp.coords, twin.coords))
            and {v.direction: v.exists for v in local_verdicts(P, twin)}[direction] is NO
            and table_verdicts(P, twin)[direction][0] is NO)


@pytest.mark.parametrize("equality", EQUALITIES)
def test_rule_gives_the_table_verdict_on_excluded_equalities(equality):
    boundaries = 0
    for P in _on_equality(equality, random.Random(equality), 40):
        diffs, counts = _compare(P)
        diffs = [d for d in diffs
                 if not (d[2:] == (NO, BOUNDARY) and _table_was_wrong(P, *d[:2]))]
        assert not diffs, (P, diffs)
        boundaries += counts[BOUNDARY]
    assert boundaries


# -- YES against the closed-form spectra ------------------------------------------

# positions in `closed_form_eigenvalues(P, label)` of the eigenvalues transverse
# to the point's zero coordinates; an exchange image lists its base's order
TRANSVERSE = {L.O: (0, 1, 2, 3), L.N0: (0, 1), L.A0: (2, 3), L.I0: (1, 2, 3),
              L.K0: (0, 1, 3), L.G0: (1, 2), L.P0: (1,), L.C0: (0, 1), L.R0: (0,)}


def _contradictions(P):
    """The YES verdicts at P that the signs of the closed-form transverse
    eigenvalues (at M0: the spectrum's dimensions) contradict, and the
    number of YES verdicts. A YES point is admissible."""
    bad, yes = [], 0
    for fp in fixed_point_catalog(P):
        if not fp.defined:
            continue
        for v in local_verdicts(P, fp):
            if v.exists is not YES:
                continue
            yes += 1
            assert fp.admissible
            sign = 1 if v.direction is Direction.TO_ZERO else -1
            if fp.label is L.M0:
                sp = spectrum_at(P, fp)
                ok = (sp.unstable_dim if sign > 0 else sp.stable_dim) > 0
            else:
                eigs = closed_form_eigenvalues(P, fp.label)
                base = EXCHANGE_IMAGE.get(fp.label, fp.label)
                ok = all(sign * eigs[i].real > 0 for i in TRANSVERSE[base])
            if not ok:
                bad.append((fp.label.value, v.direction.value))
    return bad, yes


@pytest.mark.parametrize("P,label,to_zero,to_inf", [
    # D = -0.6: P0's rate transverse to Z = 0 is D/(q-1-m) (gamma - x_bound)
    # = 5.4 > 0, so orbits leave P0 as r -> 0 and none reach it as r -> inf
    (hamiltonian_params(6.0, 0.5, 0.8), L.P0, YES, NO),
    # mu < 0, D = -7.86: M0's four coordinates are positive and its four
    # eigenvalues stable, so orbits reach it as r -> inf only
    (SystemParams(N=5.0, p=1.8, q=1.5, b=-1.3, s=1.8, m=1.4, delta=2.4, mu=-2.9), L.M0,
     NO, YES),
], ids=["P0-negative-D", "M0-all-stable"])
def test_yes_follows_the_spectrum_where_the_table_did_not(P, label, to_zero, to_inf):
    fp = fixed_point(P, label)
    vs = {v.direction: v.exists for v in local_verdicts(P, fp)}
    assert vs == {Direction.TO_ZERO: to_zero, Direction.TO_INFINITY: to_inf}
    assert {d: e for d, (e, _) in table_verdicts(P, fp).items()} != vs
    assert _contradictions(P)[0] == []


@pytest.mark.parametrize("draw,seed,valid", [
    (_general, 1, True), (_weighted_hamiltonian, 2, True), (_potential, 5, True),
    (_outside, 9, False)])
def test_every_yes_agrees_with_the_transverse_eigenvalues(draw, seed, valid):
    rng = random.Random(seed)
    n = yes = 0
    while n < 300:
        P = draw(rng)
        if P.D == 0.0 or (valid and not validate_params(P).ok):
            continue
        n += 1
        bad, at_p = _contradictions(P)
        assert bad == [], P
        yes += at_p
    assert yes

import math
import signal

import numpy as np
import pytest

from efdyn.equilibria import fixed_point_catalog
from efdyn.model import RadialState, SystemParams, phase_rhs
from efdyn.scalar import ScalarBehavior

# (N, p, a, Q, eps) of one scalar_classify per behaviour
SCALAR_CASES = {
    ScalarBehavior.SIGN_CHANGING: (3.0, 2.0, 0.0, 4.0, 1),
    ScalarBehavior.GROUND_STATE_ON_LINE: (3.0, 2.0, 0.0, 5.0, 1),
    ScalarBehavior.ALL_REGULAR_ARE_GS: (3.0, 2.0, 0.0, 6.0, 1),
    ScalarBehavior.THRESHOLD_Q1: (3.0, 2.0, 0.0, 3.0, 1),
    ScalarBehavior.ABSORPTION_ALL_REGULAR: (3.0, 2.0, 0.0, 4.0, -1),
    ScalarBehavior.ABSORPTION_CONNECTION: (3.0, 2.0, 0.0, 2.0, -1),
}


def draw_params(rng, eps1=1, eps2=1, max_coord=15.0, min_D=0.5,
                denominator_gap=0.1):
    """One random parameter set in the source regime, away from degeneracies.

    Keeps |D| bounded below and every defined catalog coordinate at desk scale
    so identity residuals stay at roundoff level.
    """
    while True:
        N = rng.uniform(3.5, 7.5)
        p = rng.uniform(1.4, min(3.0, N - 0.5))
        q = rng.uniform(1.4, min(3.0, N - 0.5))
        a = rng.uniform(-p + 0.4, 1.0)
        b = rng.uniform(-q + 0.4, 1.0)
        s = rng.uniform(0.0, 2.0)
        m = rng.uniform(0.0, 2.0)
        delta = rng.uniform(0.3, 3.0)
        mu = rng.uniform(0.3, 3.0)
        D = delta * mu - (p - 1 - s) * (q - 1 - m)
        if D < min_D:
            continue
        if abs(q - 1 - m) < denominator_gap or abs(p - 1 - s) < denominator_gap:
            continue
        P = SystemParams(N=N, p=p, q=q, a=a, b=b, s=s, m=m,
                         delta=delta, mu=mu, eps1=eps1, eps2=eps2)
        coords = [c for fp in fixed_point_catalog(P) if fp.defined for c in fp.coords]
        if max(abs(c) for c in coords) > max_coord:
            continue
        return P


def field(params, coords):
    """The phase vector field at raw coordinates [X, Y, Z, W], as an array."""
    return np.array(phase_rhs(params)(0.0, coords))


def catalog_residuals(params):
    """Max-norm of the vector field at every defined catalog point."""
    return {fp.label.value: float(np.max(np.abs(field(params, fp.coords))))
            for fp in fixed_point_catalog(params) if fp.defined}


def power_radial_state(ps, r):
    """Radial state at r of the exact power pair (A r^-gamma, B r^-xi)."""
    u, v = ps.A * r ** -ps.gamma, ps.B * r ** -ps.xi
    return RadialState(r=r, u=u, v=v, du=-ps.gamma * u / r, dv=-ps.xi * v / r)


def scalar_to_phase(sp, r, u, du):
    """Chart image (X, Z) of a scalar radial state (r, u, u')."""
    X = -r * du / u
    Z = -sp.eps * r ** (1 + sp.a) * abs(u) ** (sp.Q - 1) * u \
        * math.copysign(abs(du) ** (1 - sp.p), du)
    return X, Z


def fd_derivative(f, x, h):
    """Fourth-order central difference."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def radial_system_residual(params, u, du, v, dv, r):
    """Relative residual of (u, v) in the radial system at radius r, using a
    finite-difference oracle for the flux divergence.

    u, du, v, dv are callables of r. Independent of the phase-space machinery.
    """
    P = params

    def flux_u(rr):
        return rr ** (P.N - 1) * abs(du(rr)) ** (P.p - 2) * du(rr)

    def flux_v(rr):
        return rr ** (P.N - 1) * abs(dv(rr)) ** (P.q - 2) * dv(rr)

    h = 1e-3 * r
    lhs_u = fd_derivative(flux_u, r, h)
    rhs_u = -P.eps1 * r ** (P.N - 1 + P.a) * u(r) ** P.s * v(r) ** P.delta
    lhs_v = fd_derivative(flux_v, r, h)
    rhs_v = -P.eps2 * r ** (P.N - 1 + P.b) * u(r) ** P.mu * v(r) ** P.m
    scale_u = abs(rhs_u) + abs(flux_u(r)) / r
    scale_v = abs(rhs_v) + abs(flux_v(r)) / r
    return max(abs(lhs_u - rhs_u) / scale_u, abs(lhs_v - rhs_v) / scale_v)


@pytest.fixture
def deadline():
    """Ends a test that runs past 30 s with TimeoutError, so that a run that
    would never end fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 30 s deadline")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

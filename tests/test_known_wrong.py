"""Known wrong answers, pinned as strict xfails.

Each test asserts the right answer at a point where efdyn gives a wrong one
today, and names the ROADMAP item that will fix it. `xfail_strict` makes a
fix show up as an XPASS failure: the fixing change then turns the test into
a plain one.
"""

import math

import pytest

from efdyn import dynamics
from efdyn.dynamics import integrate_radial, search_dirichlet, search_ground_state
from efdyn.model import hamiltonian_params, potential_params
from efdyn.scalar import ScalarBehavior, scalar_classify

ONE_ULP_BELOW_HALF = math.nextafter(0.5, 0.0)


@pytest.mark.xfail(reason="ROADMAP item 1: a one-sided boundary counts as a ground "
                          "state off the diagonal")
@pytest.mark.parametrize("delta", [3.5, 3.6])
def test_no_ground_state_below_the_critical_hyperbola(delta):
    # (N+a)/(delta+1) + (N+b)/(mu+1) > N-2: the iff theorem rules a ground state out
    assert not search_ground_state(hamiltonian_params(6.0, delta, 1.2), n_angles=9).found


@pytest.mark.xfail(reason="ROADMAP item 1: a Dirichlet solution needs R_u = R_v; the "
                          "S-boundary shot gives two different zero radii")
@pytest.mark.parametrize("P", [hamiltonian_params(6.0, 1.6, 2.1),
                               hamiltonian_params(6.0, 1.5, 2.0),
                               potential_params(6.0, 2.0, 2.3, 0.4, 0.6)],
                         ids=["hamiltonian-1.6-2.1", "hamiltonian-1.5-2.0", "potential"])
def test_dirichlet_solution_vanishes_at_one_radius(P):
    d = search_dirichlet(P, u0=1.0, n_angles=9)
    assert d.radius is not None and d.v_zero_radius is not None
    assert abs(math.log(d.v_zero_radius / d.radius)) < 1e-6


@pytest.mark.xfail(reason="ROADMAP item 4(a): on the critical curve the diagonal seed "
                          "ends as an S3 boundary by roundoff near A0")
@pytest.mark.parametrize("P", [hamiltonian_params(6.0, 2.0, 2.0),
                               potential_params(6.0, 2.0, 2.0, 0.5, 0.5)],
                         ids=["hamiltonian", "potential"])
def test_ground_state_on_the_critical_curve(P):
    # both reduce to -Laplace u = u^2 on the diagonal, where the bubble is a ground state
    assert search_ground_state(P, n_angles=9).found


@pytest.mark.xfail(reason="ROADMAP item 4(b): a shot that has crossed no face by T_END "
                          "counts as a ground state")
def test_no_ground_state_from_a_short_horizon(monkeypatch):
    # below the critical hyperbola (delta = mu = 1.5 < 2) no ground state
    # exists; on the horizon 1.4 no shot has crossed a face yet
    monkeypatch.setattr(dynamics, "T_END", 1.4)
    assert not search_ground_state(hamiltonian_params(6.0, 1.5, 1.5), n_angles=9).found


@pytest.mark.xfail(reason="ROADMAP item 4(g): the initial step probes the right-hand side "
                          "at the span's far end, so the radial run depends on r_max "
                          "beyond its zero")
def test_radial_run_ends_where_u_vanishes_whatever_r_max():
    # the run ends at u's zero, near r = 5.415, for every r_max past it; at
    # r_max = 1e160 the probe overflows r^(1+a)
    P = hamiltonian_params(6.0, 2.0, 2.0, a=1.0, b=1.0)
    ends = [integrate_radial(P, 1.0, 1.0, r_max).r[-1] for r_max in (1e4, 1e12, 1e160)]
    assert ends[0] == ends[1] == ends[2]


def test_ground_state_one_ulp_below_the_critical_line():
    # the twin of the item 4(a) point one ulp off the line keeps its diagonal seed
    P = potential_params(6.0, 2.0, 2.0, ONE_ULP_BELOW_HALF, ONE_ULP_BELOW_HALF)
    assert search_ground_state(P, n_angles=9).found


def test_absorption_with_p_below_two_blows_up():
    # once a known wrong answer, ROADMAP item 4(d), since mended and pruned
    # from the ROADMAP: the flux U reaches BLOW_UP while u is near 4.4e3, so
    # the radial blow-up event watches the fluxes too
    rep = scalar_classify(3.5, 1.5, 0.0, 4.0, eps=-1)
    assert rep.behavior is ScalarBehavior.ABSORPTION_ALL_REGULAR
    assert rep.evidence["termination"] == "blow-up"


def test_absorption_connection_slope_at_the_origin():
    # u ~ r^{-(N-p)/(p-1)} = r^-1 at the origin, where X = -r u'/u reaches A0
    rep = scalar_classify(3.0, 2.0, 0.0, 1.8, eps=-1)
    assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
    assert abs(rep.evidence["slope_origin"] + 1.0) < 0.02


@pytest.mark.xfail(reason="ROADMAP item 4(e): near Q1 the backward run from M0 has not "
                          "reached A0 by t = -60, so -X at its end is not the origin "
                          "exponent")
def test_absorption_connection_slope_at_the_origin_near_q1():
    # Q1 = 3; the run ends by max-time with -X = -1.1089 against -1
    rep = scalar_classify(3.0, 2.0, 0.0, 2.8, eps=-1)
    assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
    assert abs(rep.evidence["slope_origin"] + 1.0) < 0.02

import ast
import hashlib
import itertools
import json
import math
import random
import re
import subprocess
import sys
from functools import reduce, wraps
from operator import add, mul
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import efdyn
from efdyn import _step_diagonal, _step_generic, _step_phase, _step_radial, dop853, dynamics
from efdyn.cli import main as cli_main
from efdyn.dynamics import (BoundaryHit, DirichletSearch, EventSpec, MClass, SClass,
                            ShotOutcome, classify_shot, integrate_m, integrate_radial,
                            launch_regular, oracle_compare, read_shot, search_dirichlet,
                            search_ground_state, sweep_angles)
from efdyn.equilibria import FixedPointLabel, fixed_point_catalog
from efdyn.errors import (Inconclusive, NotApplicable, PreconditionViolated, SeriesInvalid,
                          StepSizeUnderflow, ZeroDiscriminant)
from efdyn.model import (PhaseState, SystemParams, derive_exponents, hamiltonian_params,
                         nonvariational_params, normalized_regular_data, phase_rhs,
                         potential_params, regular_initial_values,
                         symmetric_scalar_embedding, to_phase)
from efdyn.numerics import BLOW_UP, ODE_ATOL, ODE_RTOL, RADIAL_R0
from efdyn.scalar import (ScalarBehavior, ScalarParams, diagonal_trajectory, regular_seed,
                          scalar_classify, scalar_fixed_points, scalar_jacobian)

from conftest import SCALAR_CASES, field
from pinned_bits import (DIAGONAL_STEP_STATES, DIRICHLET_WORK, FUSED_STEP_H,
                         FUSED_STEP_STATES, GROUND_STATE_WORK, M0_BASIN_COUNTS,
                         ORACLE_BOUND, ORACLE_HEX, ORACLE_POINTS, RADIAL_COUNTS,
                         RADIAL_PARAMS, RADIAL_STEP_STATES, SAME_BITS_COUNTS,
                         SAME_BITS_HITS, SAME_BITS_PARAMS, SAME_BITS_THETA, Recorder,
                         diagonal_calls, dirichlet_work, generic_calls, ground_state_work,
                         m0_basin_counts, on_diagonal_states, oracle_value, radial_counts,
                         same_bits_counts, same_bits_hits, shot_run, step_outcome)

HAM6 = hamiltonian_params(6.0, 2.0, 2.0)
RHO = 1e-4


def _first_event(traj, name):
    """The time of a phase run's first event called `name`, or None."""
    return next((t for t, n in traj.events if n == name), None)


def _squares(t, y):
    """y' = y^2 in each of the four components: y(0) = 1 blows up at t = 1."""
    return (y[0] ** 2, y[1] ** 2, y[2] ** 2, y[3] ** 2)


def _report_sweep(params, n_angles):
    """The angle sweep of `sweep kind=angle`: sweep_angles' grid and mirror,
    with each angle's ShotReport."""
    return dynamics._angle_grid(
        params, n_angles, lambda th: read_shot(params, *dynamics._seed(th, dynamics.MANIFOLD_RHO)))


# the first component blows up at t = 1, the others later or never
SQUARES_Y0 = [1.0, 0.5, -0.5, -0.0]


def _drained(run, sol=None):
    """The final Solution of the `dop853.steps` run `run`, drained from where
    it stands, `sol` its last yield if it has yielded; where its step size
    collapses, the failed run (status -1) that StepSizeUnderflow carries."""
    try:
        for sol in run:
            pass
    except StepSizeUnderflow as exc:
        return exc.run
    return sol


class TestIntegrateM:
    def test_equilibrium_stays_put(self):
        st = PhaseState(0.0, 4.0, 4.0, 0.0, 0.0)
        traj = integrate_m(HAM6, st, horizon=(0.0, 10.0))
        assert dynamics._ended(HAM6, traj).partition(":")[0] in ("max-time", "converged")
        assert np.max(np.abs(np.asarray(traj.y) - st.coords)) == 0.0

    def test_invariant_hyperplane_exact(self):
        seed = launch_regular(HAM6, RHO, 0.0)
        traj = integrate_m(HAM6, seed, horizon=(0.0, 30.0))
        assert np.max(np.abs(np.asarray(traj.y)[:, 1])) < 1e-12

    def test_blow_up_termination_consistent(self):
        seed = launch_regular(HAM6, RHO, 0.0)
        traj = integrate_m(HAM6, seed, horizon=(0.0, 30.0))
        assert dynamics._ended(HAM6, traj) == "blow-up"
        assert abs(np.asarray(traj.y)[-1, 0]) >= BLOW_UP * (1 - 1e-9)

    def test_event_detection(self):
        seed = launch_regular(HAM6, RHO, 0.0)
        ev = EventSpec("x-cross", lambda t, y: y[0] - 1.0, direction=1.0)
        traj = integrate_m(HAM6, seed, horizon=(0.0, 30.0), events=[ev])
        t_cross = _first_event(traj, "x-cross")
        assert t_cross is not None
        assert abs(float(traj.at(t_cross)[0]) - 1.0) < 1e-9

    def test_monotone_departure_from_regular_corner(self):
        seed = launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO)
        traj = integrate_m(HAM6, seed, horizon=(0.0, 2.0))
        head = np.asarray(traj.y[:6])
        assert np.all(np.diff(head[:, 0]) > 0)
        assert np.all(np.diff(head[:, 1]) > 0)
        assert np.all(np.diff(head[:, 2]) < 0)
        assert np.all(np.diff(head[:, 3]) < 0)

    def test_backward_integration_approaches_corner(self):
        # seed-quality check: the first-order manifold truncation decays going
        # backward while the off-manifold residue grows at rate N+a, so the
        # distance dips through 1e-6 before turning around
        rho = 1e-6
        seed = launch_regular(HAM6, 0.6 * rho, 0.4 * rho, rho)
        traj = integrate_m(HAM6, seed, horizon=(0.0, -4.0))
        corner = np.array([0.0, 0.0, 6.0, 6.0])
        d = np.max(np.abs(traj.y - corner), axis=1)
        i_min = int(np.argmin(d))
        assert d[i_min] < 1e-6
        assert np.all(np.diff(d[:i_min + 1]) < 1e-12)   # monotone shrink to the dip

    @pytest.mark.parametrize("N,p,Q,a,eps", [
        (3.0, 2.0, 5.0, 0.0, 1),      # critical: runs along the invariant line to A0
        (3.0, 2.0, 6.0, 0.0, 1),      # supercritical: spirals into M0
        (3.6, 2.1, 2.5, 0.1, 1),      # subcritical, p != 2, weighted: blows up
        (3.0, 2.0, 4.0, 0.0, -1),     # absorption: Z leaves through its own quadrant
    ])
    def test_symmetric_diagonal_is_bitwise_invariant(self, N, p, Q, a, eps):
        # the scalar plane is run as this diagonal, so it must hold exactly
        x, z = regular_seed(ScalarParams(N=N, p=p, a=a, Q=Q, eps=eps), RHO)
        traj = integrate_m(symmetric_scalar_embedding(N, p, Q, a, eps),
                           PhaseState(0.0, x, x, z, z), horizon=(0.0, 30.0))
        assert len(traj.t) > 10
        states = np.asarray(traj.y)
        assert np.array_equal(states[:, 0], states[:, 1])
        assert np.array_equal(states[:, 2], states[:, 3])

    def test_critical_diagonal_approaches_decay_corner(self):
        seed = launch_regular(HAM6, RHO / math.sqrt(2), RHO / math.sqrt(2))
        traj = integrate_m(HAM6, seed, horizon=(0.0, 12.0))
        corner = np.array([4.0, 4.0, 0.0, 0.0])
        assert np.min(np.max(np.abs(traj.y - corner), axis=1)) < 5e-3


class TestLaunch:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            launch_regular(HAM6, 0.0, 0.0)
        with pytest.raises(PreconditionViolated):
            launch_regular(HAM6, 2 * RHO, 2 * RHO, RHO)
        with pytest.raises(PreconditionViolated):
            launch_regular(HAM6, -RHO / 2, RHO / 2, RHO)

    def test_axis_seed_allowed(self):
        st = launch_regular(HAM6, RHO, 0.0)
        assert st.Y == 0.0
        assert st.Z == pytest.approx(6.0)           # s = 0: no X correction
        assert st.W == pytest.approx(6.0 * (1 - 2 * RHO / 8), rel=1e-12)

    def test_shrinking_radius_tends_to_corner(self):
        for rho in (1e-4, 1e-6, 1e-8):
            st = launch_regular(HAM6, rho / 2, rho / 2, rho)
            assert abs(st.Z - 6.0) < 3 * rho
            assert abs(st.W - 6.0) < 3 * rho


class TestRadialOracle:
    def test_series_guard(self):
        P = HAM6.replace(a=-2.5, b=0.0)
        with pytest.raises(SeriesInvalid):
            integrate_radial(P, 1.0, 1.0, 10.0)

    def test_critical_symmetric_profile_stays_positive(self):
        rad = integrate_radial(HAM6, 1.0, 1.0, r_max=1e4)
        assert rad.termination == "max-time"
        u, v = np.asarray(rad.u), np.asarray(rad.v)
        assert np.all(u > 0) and np.all(v > 0)
        assert np.max(np.abs(u - v)) < 1e-12   # symmetric data stays symmetric

    def test_consistency_with_phase_system(self):
        # chart image of the radial trajectory satisfies the phase ODE
        sol = dop853.solve(*dynamics._radial_problem(HAM6, 1.0, 1.0, 50.0))

        def phase_at(t):
            return to_phase(HAM6, dynamics._radial_state(HAM6, t, sol.at(t)))

        for t in np.linspace(-2.0, math.log(40.0), 10):
            st = phase_at(t)
            h = 1e-5
            fd = (np.asarray(phase_at(t + h).coords)
                  - np.asarray(phase_at(t - h).coords)) / (2 * h)
            assert fd == pytest.approx(field(HAM6, st.coords),
                                       rel=1e-6, abs=1e-7)

    def test_absorption_profile_stops_at_blow_up(self):
        P = symmetric_scalar_embedding(3.0, 2.0, 4.0, eps=-1)
        rad = integrate_radial(P, 1.0, 1.0, 1e5)
        assert rad.termination == "blow-up"
        # the flux U = u' (p = 2) diverges before u and ends the run: the
        # last state has crossed the event's threshold
        assert rad.du[-1] >= BLOW_UP * (1 - 1e-9) > rad.u[-1]
        assert np.all(np.diff(rad.u) > 0)    # the startup series carries the sign eps

    def test_subcritical_zero_detected(self):
        P = hamiltonian_params(6.0, 1.5, 1.5)
        rad = integrate_radial(P, 1.0, 1.0, r_max=1e4)
        tu = rad.first_event("u-zero")
        tv = rad.first_event("v-zero")
        assert tu is not None and tv is not None
        assert tu == pytest.approx(tv, abs=1e-10)   # symmetric: same radius

    def test_rhs_keeps_the_bits_of_max(self):
        # the RHS clamps u and v with a conditional instead of max(u, 0.0),
        # max(v, 0.0): held to that expression bit for bit, on signed zeros,
        # NaN, infinities and random states
        def max_rhs(P):
            ep, eq = 1 / (P.p - 1), 1 / (P.q - 1)

            def rhs(t, y):
                u, v, U, V = y
                r = math.exp(t)
                du = math.copysign(abs(U) ** ep, U) if U != 0.0 else 0.0
                dv = math.copysign(abs(V) ** eq, V) if V != 0.0 else 0.0
                uu, vv = max(u, 0.0), max(v, 0.0)
                return (r * du, r * dv,
                        -P.eps1 * r ** (1 + P.a) * uu ** P.s * vv ** P.delta - (P.N - 1) * U,
                        -P.eps2 * r ** (1 + P.b) * uu ** P.mu * vv ** P.m - (P.N - 1) * V)
            return rhs

        special = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.0, 1e-300)
        flux = (0.0, -0.0, math.nan, math.inf, -math.inf, 0.3, -0.7)
        rng = random.Random(33)
        states = [(u, v, U, V) for u in special for v in special for U in flux for V in flux]
        states += [tuple(rng.uniform(-3.0, 3.0) for _ in range(4)) for _ in range(1000)]
        # s = 1 passes the sign of a zero u on to the RHS
        for P in (HAM6, potential_params(6, 2, 2.3, 1.0, 0.6, a=0.3),
                  hamiltonian_params(5.0, 1.6, 2.1, a=-0.2, b=0.5).replace(eps2=-1)):
            new, old = dynamics._radial_rhs(P), max_rhs(P)
            for t in (-3.0, 2.5):
                for y in states:
                    assert ([x.hex() for x in new(t, y)]
                            == [x.hex() for x in old(t, y)]), (P, t, y)

    def test_exact_dirichlet_solution_keeps_both_zeros(self):
        # the potential point's Dirichlet solution: v vanishes in the step
        # where u does, at or past the terminal both-zero root, and the run
        # still records it, at its end; the termination names the first zero
        P = potential_params(6, 2, 2.3, 0.4, 0.6)
        rad = integrate_radial(P, 1, 1.2594088388540363, 1e12)
        tu, tv = rad.first_event("u-zero"), rad.first_event("v-zero")
        assert tu is not None and tv is not None
        assert math.exp(tv) == rad.r[-1]             # the run's end
        assert abs(tu - tv) < 1e-12                  # |ln(R_u/R_v)|
        assert abs(rad.u[-1]) < 1e-12 and abs(rad.v[-1]) < 1e-12
        assert rad.termination == "u-zero"


class TestClassification:
    def test_seed_on_axis_is_s1_side(self):
        # the one-sided comparison trajectory: X escapes through its face
        traj = integrate_m(HAM6, launch_regular(HAM6, RHO, 0.0),
                           horizon=(0.0, 30.0),
                           events=[EventSpec("x-bound", lambda t, y: y[0] - 4.0,
                                             direction=1.0)])
        assert _first_event(traj, "x-bound") is not None

    def test_face_seed_is_the_exchanged_axis_seed(self):
        # pi/2 seeds on the invariant face X = 0 exactly, as 0 seeds on Y = 0:
        # on an exchange-symmetric system the two runs are mirror images, bit
        # for bit
        assert dynamics._seed(math.pi / 2, RHO) == (0.0, RHO)
        assert dynamics._seed(0.0, RHO) == (RHO, 0.0)
        P = hamiltonian_params(6.0, 1.6, 1.6)
        seeds = [dynamics._seed(theta, RHO) for theta in (0.0, math.pi / 2)]
        axis, face = (read_shot(P, *seed, RHO) for seed in seeds)
        assert (face.s_class, face.m_class) == (SClass.S2, MClass.M2)
        assert (axis.s_class, axis.m_class) == (SClass.S1, MClass.M1)
        axis_hit = dict(axis.hit_times)
        assert face.hit_times == (("y-bound", axis_hit["x-bound"]),
                                  ("blow-up", axis_hit["blow-up"]))
        assert face == axis.exchanged()
        axis_run, face_run = (shot_run(P, *seed, RHO) for seed in seeds)
        assert face_run.t == axis_run.t
        assert face_run.y == [(X, Y, Z, W) for Y, X, W, Z in axis_run.y]

    def test_subcritical_diagonal_is_simultaneous(self):
        P = hamiltonian_params(6.0, 1.5, 1.5)
        out = read_shot(P, RHO / math.sqrt(2), RHO / math.sqrt(2), RHO)
        assert out.s_class is SClass.S3
        assert out.m_class is MClass.M3

    def test_supercritical_diagonal_stays(self):
        P = hamiltonian_params(6.0, 2.5, 2.5)
        out = read_shot(P, RHO / math.sqrt(2), RHO / math.sqrt(2), RHO)
        assert out.s_class is SClass.S
        assert out.m_class is MClass.GS

    def test_subcritical_off_diagonal_one_sided(self):
        P = hamiltonian_params(6.0, 1.5, 1.5)
        out = read_shot(P, 0.9 * RHO, 0.2 * RHO, RHO)
        assert out.s_class is SClass.S1
        assert out.m_class is MClass.M1
        out2 = read_shot(P, 0.2 * RHO, 0.9 * RHO, RHO)
        assert out2.s_class is SClass.S2
        assert out2.m_class is MClass.M2

    def test_simultaneous_shot_ends_on_an_exact_tie(self):
        # the pi/4 shot of an exchange-symmetric system stays on the
        # invariant diagonal: X and Y blow up together, bit for bit, and the
        # shot reads M3
        P = hamiltonian_params(6.0, 1.5, 1.5)
        traj = integrate_m(P, launch_regular(P, *dynamics._seed(math.pi / 4, RHO), RHO),
                           horizon=(0.0, 40.0))
        X, Y = traj.y[-1][:2]
        assert dynamics._ended(P, traj) == "blow-up" and X == Y

    def test_box_invariance_of_staying_shot(self):
        P = hamiltonian_params(6.0, 2.5, 2.5)
        seed = launch_regular(P, RHO / math.sqrt(2), RHO / math.sqrt(2), RHO)
        traj = integrate_m(P, seed, horizon=(0.0, 40.0))
        for X, Y, Z, W in traj.y:
            assert 0.0 < X < P.x_bound and 0.0 < Y < P.y_bound
            assert 0.0 < Z < P.N + P.a and 0.0 < W < P.N + P.b

    @pytest.mark.parametrize("changes,failed", [
        (dict(N=1.8), "1 < p < N: p = 2.0, N = 1.8"),
        (dict(q=0.5), "1 < q < N: q = 0.5, N = 6.0"),
        (dict(p=7.0), "1 < p < N: p = 7.0, N = 6.0")])
    def test_shots_need_both_exponents_in_one_to_n(self, changes, failed):
        # outside 1 < p, q < N the box (0, x_bound) x (0, y_bound) is empty:
        # every shot, and so every search, refuses the point by its inequality
        P = hamiltonian_params(6.0, 2.0, 2.0).replace(**changes)
        for run in (lambda: classify_shot(P, RHO, 0.0, RHO), lambda: read_shot(P, RHO, 0.0, RHO),
                    lambda: sweep_angles(P, 3), lambda: search_ground_state(P, 3)):
            with pytest.raises(NotApplicable, match=re.escape(f"shots need {failed}")):
                run()

    @pytest.mark.parametrize("eps1,eps2", [(-1, 1), (1, -1), (-1, -1)])
    def test_shots_need_the_source_signs(self, eps1, eps2):
        # the phase field and the manifold seed read no sign: a shot at
        # eps != (1, 1) would answer for eps = (1, 1). Every shot, search and
        # oracle comparison refuses the point; the radial route answers
        P = hamiltonian_params(6.0, 1.5, 1.5).replace(eps1=eps1, eps2=eps2)
        failed = f"shots need eps1 = eps2 = 1: eps1 = {eps1}, eps2 = {eps2}"
        for run in (lambda: classify_shot(P, *dynamics._seed(math.pi / 4, RHO), RHO),
                    lambda: read_shot(P, *dynamics._seed(math.pi / 4, RHO), RHO),
                    lambda: sweep_angles(P, 3), lambda: search_ground_state(P, 3),
                    lambda: search_dirichlet(P, n_angles=3),
                    lambda: oracle_compare(P, 0.6e-6, 0.4e-6, 1e-6)):
            with pytest.raises(NotApplicable, match=re.escape(failed)):
                run()
        rad = integrate_radial(P, 1.0, 1.0, 1e4)
        assert len(rad.r) > 10 and rad.termination in ("max-time", "u-zero", "v-zero", "blow-up")

    def test_derived_profile_bounds_along_global_solution(self):
        # u^{s-p+1} v^delta <= (N+a) ((N-p)/(p-1))^{p-1} r^{-(p+a)} pointwise
        P = hamiltonian_params(6.0, 2.5, 2.5)
        rad = integrate_radial(P, 1.0, 1.0, r_max=1e4)
        C1 = (P.N + P.a) * P.x_bound ** (P.p - 1)
        C2 = (P.N + P.b) * P.y_bound ** (P.q - 1)
        r, u, v = np.asarray(rad.r), np.asarray(rad.u), np.asarray(rad.v)
        lhs1 = u ** (P.s - P.p + 1) * v ** P.delta
        lhs2 = u ** P.mu * v ** (P.m - P.q + 1)
        assert np.all(lhs1 <= C1 * r ** (-(P.p + P.a)) * (1 + 1e-9))
        assert np.all(lhs2 <= C2 * r ** (-(P.q + P.b)) * (1 + 1e-9))


class TestSearches:
    def test_dichotomy_across_families(self):
        cases = [
            (hamiltonian_params(6.0, 2.5, 2.5), True),
            (hamiltonian_params(6.0, 3.0, 2.0), True),    # asymmetric, above
            (hamiltonian_params(6.0, 1.5, 1.5), False),
            (hamiltonian_params(6.0, 1.8, 1.2), False),   # asymmetric, below
            (nonvariational_params(6.0, 0.5, 2.5, 2.5), True),
            (potential_params(6.0, 2.0, 2.0, 0.7, 0.7), True),
            (potential_params(6.0, 2.0, 2.0, 0.3, 0.3), False),
        ]
        for P, expect in cases:
            res = search_ground_state(P, n_angles=9)
            assert res.found == expect, (P, res.found)

    def test_search_is_deterministic(self):
        P = hamiltonian_params(6.0, 1.8, 1.2)
        # two searches are two equal values: their grid shots and boundary
        # shots compare by seed, S-class and gap
        r1 = search_ground_state(P, n_angles=9)
        r2 = search_ground_state(P, n_angles=9)
        assert r1 is not r2 and r1 == r2 and hash(r1) == hash(r2)
        assert r1.boundaries

    def test_dirichlet_zero_radii_agree(self):
        P = hamiltonian_params(6.0, 1.5, 1.5)
        d = search_dirichlet(P, n_angles=9)
        assert d.found
        assert d.radius == pytest.approx(d.v_zero_radius, rel=1e-6)

    def test_dirichlet_scaling_law(self):
        P = hamiltonian_params(6.0, 1.5, 1.5)
        g = derive_exponents(P).gamma
        d1 = search_dirichlet(P, u0=1.0, n_angles=9)
        d2 = search_dirichlet(P, u0=0.5, n_angles=9)
        assert d2.radius / d1.radius == pytest.approx(2.0 ** (1.0 / g), rel=1e-6)

    def test_no_dirichlet_when_supercritical(self):
        d = search_dirichlet(hamiltonian_params(6.0, 2.5, 2.5), n_angles=9)
        assert not d.found

    def test_dirichlet_for_symmetric_scalar_embedding(self):
        # N=3, Q=4 sits between the scalar thresholds: regular profiles change
        # sign, so a vanishing radius exists for the symmetric system
        P = symmetric_scalar_embedding(3.0, 2.0, 4.0)
        d = search_dirichlet(P, n_angles=9)
        assert d.found and d.radius is not None
        assert d.radius == pytest.approx(d.v_zero_radius, rel=1e-6)

    @pytest.mark.parametrize("n_angles", [0, -1, -2, -3])
    @pytest.mark.parametrize("search", [search_ground_state, search_dirichlet])
    def test_zero_angles_refused(self, search, n_angles):
        # a search over no shots is no answer, even where a ground state exists
        with pytest.raises(PreconditionViolated, match="n_angles"):
            search(hamiltonian_params(6.0, 2.5, 2.5), n_angles=n_angles)

    @pytest.mark.parametrize("u0", [-1.0, 0.0, math.nan, math.inf])
    def test_dirichlet_refuses_u0_before_any_shot(self, monkeypatch, u0):
        # (1.5, 1.5) has a Dirichlet solution: u0 is refused before the search
        starts = _steps_reporting(monkeypatch, lambda events, states: None)
        with pytest.raises(PreconditionViolated,
                           match=re.escape(f"need u0 > 0 and finite, got {u0!r}")):
            search_dirichlet(hamiltonian_params(6.0, 1.5, 1.5), u0=u0, n_angles=9)
        assert starts == []

    def test_angle_sweep_shape(self):
        thetas, outs = sweep_angles(hamiltonian_params(6.0, 1.5, 1.5), n_angles=9)
        assert len(thetas) == 9 and len(outs) == 9
        assert all(o.s_class in SClass for o in outs)

    @pytest.mark.parametrize("n_angles", [-1, -2, -3])
    def test_negative_angle_count_refused(self, n_angles):
        # not an empty listing (-1, -2), nor linspace's "Number of samples" (-3)
        with pytest.raises(PreconditionViolated, match="n_angles"):
            sweep_angles(hamiltonian_params(6.0, 2.5, 2.5), n_angles=n_angles)


def _bisection_alone(params, th_lo, th_hi, side_lo, classify=classify_shot) -> BoundaryHit:
    """The flip search as plain bisection, one shot per midpoint: the answer
    that `dynamics._bisect_boundary` gives from fewer shots."""
    lo, hi = th_lo, th_hi
    mid_out = None
    while hi - lo > dynamics.ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        mid_out = classify(params, *dynamics._seed(mid, dynamics.MANIFOLD_RHO))
        if mid_out.s_class in (SClass.S, SClass.S3):
            break
        if mid_out.s_class == side_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if mid_out is None:
        mid_out = classify(params, *dynamics._seed(mid, dynamics.MANIFOLD_RHO))
    kind = "dirichlet" if mid_out.s_class is SClass.S3 else "ground-state"
    return BoundaryHit(mid, kind, mid_out)


def _flips(params, n_angles=9) -> list:
    """(th_lo, th_hi, out_lo, out_hi) of each S1/S2 flip of the angle grid."""
    thetas, outs = sweep_angles(params, n_angles)
    return [(thetas[i], thetas[i + 1], outs[i], outs[i + 1]) for i in range(len(thetas) - 1)
            if {outs[i].s_class, outs[i + 1].s_class} == {SClass.S1, SClass.S2}]


def _hit_key(hit) -> tuple:
    return hit.kind, hit.angle.hex(), hit.outcome.seed, hit.outcome.s_class


class _LineShot:
    """A stand-in shot whose class flips at the seed angle `root`: S1 below
    it, S2 above, with the smooth gap ln(y/x) - ln(tan(root)) and no S3
    window."""

    def __init__(self, root, x, y):
        self.seed = (x, y)
        self.gap = math.log(y / x) - math.log(math.tan(root))
        self.s_class = SClass.S1 if self.gap < 0.0 else SClass.S2


class TestFlipReplay:
    """`_bisect_boundary` brackets a flip by Brent's method on the face gap,
    then replays the bisection, shooting only the midpoints that the bracket
    does not decide: where the S-class flips once, its hit is plain
    bisection's, bit for bit."""

    @pytest.mark.parametrize("family", ["hamiltonian", "potential", "nonvariational",
                                        "weighted"])
    def test_same_hit_as_bisection_alone(self, family):
        # off-diagonal draws: no exchange symmetry but by chance
        rng = random.Random(f"flip-replay:{family}")
        compared = 0
        for _ in range(10):
            P = _draw_family_point(rng, family)
            for th_lo, th_hi, lo, hi in _flips(P):
                alone = _bisection_alone(P, th_lo, th_hi, lo.s_class)
                assert _hit_key(dynamics._bisect_boundary(P, th_lo, th_hi, lo, hi)) \
                    == _hit_key(alone), P
                compared += 1
        assert compared >= 4

    def _shots(self, monkeypatch, params):
        """The kind of the grid's one flip, and the shots that bisection alone
        and `_bisect_boundary` take on it, after checking that they agree."""
        ((th_lo, th_hi, lo, hi),) = _flips(params)
        starts = _shots_started(monkeypatch)
        alone = _bisection_alone(params, th_lo, th_hi, lo.s_class)
        n_alone = len(starts)
        hit = dynamics._bisect_boundary(params, th_lo, th_hi, lo, hi)
        assert _hit_key(hit) == _hit_key(alone)
        return hit.kind, n_alone, len(starts) - n_alone

    def test_fewer_shots_on_a_dirichlet_flip(self, monkeypatch):
        kind, alone, replayed = self._shots(monkeypatch, hamiltonian_params(6.0, 1.6, 2.1))
        assert kind == "dirichlet" and replayed < alone

    def test_at_most_two_more_shots_on_a_ground_state_flip(self, monkeypatch):
        # the gap jumps across the flip: Brent's phase stops after two shots
        # that do not shrink it, and the bisection keeps most of its shots
        kind, alone, replayed = self._shots(monkeypatch, hamiltonian_params(6.0, 3.5, 1.2))
        assert kind == "ground-state" and replayed <= alone + 2

    def test_last_midpoint_is_shot_outside_the_bracket(self, monkeypatch):
        # with a smooth gap and no S3 window, Brent's phase closes the class
        # bracket to about ANGLE_TOL, and the bisection's last midpoints fall
        # outside it: the last one is shot all the same, as the hit's outcome
        shots = []

        def classify(params, x, y, rho=dynamics.MANIFOLD_RHO):
            shots.append((x, y))
            return _LineShot(0.8610591629360607, x, y)
        thetas = dynamics.linspace(0.0, math.pi / 2, 11)
        lo, hi = (classify(None, *dynamics._seed(th, RHO)) for th in thetas[5:7])
        alone = _bisection_alone(None, thetas[5], thetas[6], SClass.S1, classify)
        n_alone = len(shots) - 2
        monkeypatch.setattr(dynamics, "classify_shot", classify)
        hit = dynamics._bisect_boundary(None, thetas[5], thetas[6], lo, hi)
        assert _hit_key(hit) == _hit_key(alone)
        assert hit.outcome.seed != dynamics._seed(hit.angle, RHO)
        assert len(shots) - 2 - n_alone < n_alone / 2

    def test_pinned_search_work(self):
        # the searches of tests/pinned_bits.py: their angles, shots and steps
        assert dirichlet_work() == DIRICHLET_WORK
        assert ground_state_work() == GROUND_STATE_WORK

    def test_gap_signs_and_exchange_image(self):
        P = hamiltonian_params(6.0, 1.6, 2.1)
        _, outs = sweep_angles(P, 9)
        for out in outs:
            assert (out.gap < 0.0) == (out.s_class is SClass.S1)
            image = out.exchanged()
            assert image.gap == -out.gap and (image.gap < 0.0) == (image.s_class is SClass.S1)
        # a shot that never crosses a face has no gap
        assert classify_shot(hamiltonian_params(6.0, 2.5, 2.5),
                             *dynamics._seed(math.pi / 4, RHO), RHO).gap is None


# -- the float replacements of numpy on the shooting path -------------------------

def _np_hex(start, stop, num):
    with np.errstate(all="ignore"):
        return [v.hex() for v in np.linspace(start, stop, num).tolist()]


# the grids the package builds: the angle grid of sweep_angles for every
# n_angles up to 65, the two oracle windows and the portrait axes (shipped
# config, CLI test and the sizes 0 and 1); then spans so small that the step
# underflows to 0, where numpy divides the index first
GRIDS = ([(0.0, math.pi / 2, n + 2) for n in range(1, 66)]
         + [(lo, hi, n) for lo, hi in ((1e-9, 17.25), (0.0, 40.0), (0.3125, 6.1))
            for n in (25, 400)]
         + [(0.0, hi, n) for hi in (1.0, 1.5, 3.0, 4.0) for n in (0, 1, 3, 7, 31, 41)]
         + [(0.0, 1.5e-323, n) for n in (2, 3, 4, 10)])


class TestLinspace:
    @pytest.mark.parametrize("start,stop,num", GRIDS)
    def test_grids_in_use_match_numpy(self, start, stop, num):
        assert [v.hex() for v in dynamics.linspace(start, stop, num)] == \
            _np_hex(start, stop, num)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 500))
    @settings(max_examples=300, deadline=None)
    def test_random_endpoints_match_numpy(self, start, stop, num):
        assert [v.hex() for v in dynamics.linspace(start, stop, num)] == \
            _np_hex(start, stop, num)

    def test_negative_count_raises_as_numpy(self):
        with pytest.raises(ValueError):
            np.linspace(0.0, 1.0, -1)
        with pytest.raises(ValueError):
            dynamics.linspace(0.0, 1.0, -1)


def _numpy_detect_convergence(params, t, states):
    """The convergence test as it ran on numpy arrays: every row's max-norm
    distance to a defined catalog point, the last CAPTURE_STEPS below
    CAPTURE_DIST."""
    pts = [(fp.label, np.array(fp.coords)) for fp in fixed_point_catalog(params)
           if fp.defined]
    if len(t) < dynamics.CAPTURE_STEPS:
        return "max-time"
    for label, pt in pts:
        d = np.max(np.abs(np.array(states) - pt), axis=1)
        if np.all(d[-dynamics.CAPTURE_STEPS:] < dynamics.CAPTURE_DIST):
            return f"converged:{label.value}"
    return "max-time"


# (system, initial state, horizon, converges); the scalar system's sink M0 is
# (0.4, 0.4, 0.6, 0.6), approached on a slow spiral
_SPIRAL = symmetric_scalar_embedding(3.0, 2.0, 6.0)
CONVERGENCE_RUNS = [
    (HAM6, PhaseState(0.0, 4.0, 4.0, 0.0, 0.0), (0.0, 10.0), True),
    (_SPIRAL, PhaseState(0.0, 0.4, 0.4, 0.6, 0.6), (0.0, 40.0), True),
    (_SPIRAL, PhaseState(0.0, 0.4 + 1e-9, 0.4 + 1e-9, 0.6 - 1e-9, 0.6 - 1e-9), (0.0, 40.0),
     True),
    (HAM6, launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO), (0.0, 2.0), False),
    (HAM6, launch_regular(HAM6, RHO, 0.0), (0.0, 30.0), False),
    (_SPIRAL, PhaseState(0.0, 0.45, 0.45, 0.55, 0.55), (0.0, 80.0), False),   # within 3e-5
    (_SPIRAL, PhaseState(0.0, 0.4 + 2e-8, 0.4 + 2e-8, 0.6 - 2e-8, 0.6 - 2e-8), (0.0, 10.0),
     False),                                                                # within 4e-8
]


def _scanned(params, t, states):
    """`_ended` of a run with points t and states `states` that no terminal
    event stopped: its scan of the fixed-point catalog."""
    return dynamics._ended(params, SimpleNamespace(t=t, y=states, status=0, events=[]))


class TestDetectConvergence:
    @pytest.mark.parametrize("params,initial,horizon,converges", CONVERGENCE_RUNS)
    def test_matches_numpy_version(self, params, initial, horizon, converges):
        traj = integrate_m(params, initial, horizon=horizon)
        got = _scanned(params, traj.t, traj.y)
        assert got == _numpy_detect_convergence(params, traj.t, traj.y)
        assert got.startswith("converged:") == converges
        # and on prefixes of the run, which end on other rows
        for n in range(1, len(traj.t) + 1, max(1, len(traj.t) // 20)):
            assert _scanned(params, traj.t[:n], traj.y[:n]) == \
                _numpy_detect_convergence(params, traj.t[:n], traj.y[:n])

    def test_ended_reads_each_end(self):
        # a caller's terminal event, blow-up, convergence and the horizon
        sp = ScalarParams(N=3.0, p=2.0, a=0.0, Q=5.0)
        stop = EventSpec("stopped:x", lambda t, y: y[0] - 0.98 * sp.x_bound,
                         terminal=True, direction=1.0)
        traj = diagonal_trajectory(sp, regular_seed(sp, RHO), (0.0, 40.0), events=[stop])
        assert traj.status == 1 and dynamics._ended(sp.system, traj) == "stopped:x"
        traj = integrate_m(HAM6, launch_regular(HAM6, RHO, 0.0), horizon=(0.0, 30.0))
        assert traj.status == 1 and dynamics._ended(HAM6, traj) == "blow-up"
        # the backward run of scalar_classify's absorption connection at
        # N = 3, p = 2, Q = 1.1, eps = -1 settles at A0 before t = -60
        sp = ScalarParams(N=3.0, p=2.0, a=0.0, Q=1.1, eps=-1)
        X0, Z0 = scalar_fixed_points(sp)["M0"]
        v = efdyn.scalar._stable_direction(scalar_jacobian(sp, (X0, Z0)))
        eta = 1e-7 * (1 + abs(X0) + abs(Z0))
        traj = diagonal_trajectory(sp, (X0 + eta * v[0], Z0 + eta * v[1]), (0.0, -60.0))
        assert traj.status == 0 and dynamics._ended(sp.system, traj) == "converged:A0"
        traj = integrate_m(HAM6, launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO), horizon=(0.0, 2.0))
        assert traj.status == 0 and dynamics._ended(HAM6, traj) == "max-time"

    def test_nan_row_is_not_converged(self):
        params, initial, horizon, _ = CONVERGENCE_RUNS[0]
        traj = integrate_m(params, initial, horizon=horizon)
        for k in range(4):
            row = list(traj.y[-1])
            row[k] = math.nan
            states = traj.y[:-1] + [tuple(row)]
            assert _numpy_detect_convergence(params, traj.t, states) == "max-time"
            assert _scanned(params, traj.t, states) == "max-time"


class TestOracleEquivalence:
    # the oracle's points and values are pinned in tests/pinned_bits.py
    @pytest.mark.parametrize("params,xy", ORACLE_POINTS)
    def test_routes_agree(self, params, xy):
        assert oracle_value(params, xy) < ORACLE_BOUND

    # ids that name the point, not its pinned value: a re-pin keeps the ids
    @pytest.mark.parametrize("params,xy,pinned",
                             [(*point, h) for point, h in zip(ORACLE_POINTS, ORACLE_HEX)],
                             ids=["hamiltonian", "hamiltonian-a-b", "potential",
                                  "potential-near-D0-1", "potential-near-D0-2",
                                  "potential-near-D0-3"])
    def test_values_are_pinned(self, params, xy, pinned):
        # the oracle reads only the runs' own interpolants, however far its
        # radial run goes: its values keep their bits
        assert oracle_value(params, xy).hex() == pinned

    def test_zero_discriminant_rejected(self):
        P = potential_params(6.0, 2.0, 2.0, 0.0, 0.0)
        assert P.D == 0.0
        with pytest.raises(ZeroDiscriminant):
            oracle_compare(P, 0.5e-6, 0.5e-6, 1e-6)

    def test_point_outside_the_shot_range_is_not_applicable(self):
        # N < p = q: the box is empty, and the oracle refuses the point as a
        # shot does, before any run
        P = hamiltonian_params(1.8, 2, 2)
        with pytest.raises(NotApplicable, match=re.escape("shots need 1 < p < N: p = 2.0")):
            oracle_compare(P, 0.6e-6, 0.4e-6, 1e-6)
        with pytest.raises(NotApplicable):
            classify_shot(P, 0.6e-6, 0.4e-6, 1e-6)


def _steps_reporting(monkeypatch, edit) -> list:
    """The arguments of each kernel run started from now on; `edit(events,
    states)` rewrites the (t, name) pairs of every run as it is yielded, and
    may put a state at a time into the dict `states`: the run's `at` answers
    that state there."""
    starts, real = [], dop853.steps

    def steps(*args):
        starts.append(args)
        states = {}

        class Edited(dop853.Solution):
            __slots__ = ()

            def at(self, t):
                return states[t] if t in states else super().at(t)

        for sol in real(*args):
            sol.__class__ = Edited
            edit(sol.events, states)
            yield sol
    monkeypatch.setattr(dop853, "steps", steps)
    return starts


def _shots_started(monkeypatch) -> list:
    """The arguments of each shot started from now on: of each call of
    `dynamics._shot_problem`, which makes a shot's kernel problem."""
    starts, real = [], dynamics._shot_problem
    monkeypatch.setattr(dynamics, "_shot_problem",
                        lambda *args: starts.append(args) or real(*args))
    return starts


def _count_phase_rhs(monkeypatch) -> list[int]:
    """A one-item list that counts the phase right-hand side evaluations of
    the runs started from now on."""
    calls, real = [0], dynamics.phase_rhs

    def counting_phase_rhs(params):
        rhs = real(params)

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)
        return counted

    monkeypatch.setattr(dynamics, "phase_rhs", counting_phase_rhs)
    return calls


# -- reference: the eager shot classification ----------------------------------
# classify_shot as it ran before shots paused at their S-decision: each shot's
# one run is integrated to its end at once by integrate_m. It reads the
# constants of efdyn.dynamics at call time, so that a test may patch them.

def _eager_classify(params, x, y, rho):
    """The to_dict() of the shot at (x, y), its run integrated to its end."""
    seed = launch_regular(params, x, y, rho)
    cp = params.x_bound * (1 + 1e-9)
    cq = params.y_bound * (1 + 1e-9)
    evs = [EventSpec("x-bound", lambda t, v: v[0] - cp, direction=1.0),
           EventSpec("y-bound", lambda t, v: v[1] - cq, direction=1.0)]
    traj = integrate_m(params, seed, horizon=(0.0, dynamics.T_END), events=evs)
    t_x = _first_event(traj, "x-bound")
    t_y = _first_event(traj, "y-bound")
    hit = {}
    if t_x is not None:
        hit["x-bound"] = t_x
    if t_y is not None:
        hit["y-bound"] = t_y
    blew = _first_event(traj, "blow-up") is not None
    if blew:
        hit["blow-up"] = float(traj.t[-1])

    if t_x is None and t_y is None:
        if blew:
            raise Inconclusive(f"seed ({x}, {y}): left the box without crossing a face")
        return {"seed": [x, y], "sClass": "S", "mClass": "GS", "hitTimes": hit}

    if t_x is not None and t_y is not None:
        s_class = "S3" if abs(t_x - t_y) <= dynamics.SIM_WINDOW else \
            ("S1" if t_x < t_y else "S2")
    else:
        s_class = "S1" if t_y is None else "S2"
    if not blew:
        raise Inconclusive(f"seed ({x}, {y}): crossed but no blow-up within t = {dynamics.T_END}")
    X_end, Y_end = traj.y[-1][:2]
    m_class = "M1" if X_end > Y_end else "M2" if X_end < Y_end else "M3"
    return {"seed": [x, y], "sClass": s_class, "mClass": m_class, "hitTimes": hit}


class TestPausedShot:
    """classify_shot stops each shot's run once its S-class is final, and
    read_shot runs the same run to its end: the report equals the eager run's
    output, and its S-class is the paused shot's."""

    # 9 parameter points x 5 angles = 45 seeds: diagonal S3 (subcritical
    # Hamiltonian, potential, scalar embedding), S (supercritical, non-variational),
    # S1/S2 off the diagonal of the seed plane, off-diagonal Hamiltonian and
    # potential points
    POINTS = [
        hamiltonian_params(6.0, 1.5, 1.5),
        hamiltonian_params(6.0, 2.5, 2.5),
        hamiltonian_params(6.0, 1.6, 2.1),
        hamiltonian_params(6.0, 1.8, 1.2),
        hamiltonian_params(5.5, 3.0, 2.0),
        nonvariational_params(6.0, 0.5, 2.5, 2.5),
        potential_params(6.0, 2.0, 2.0, 0.3, 0.3),
        potential_params(6.0, 2.0, 2.3, 0.4, 0.6),
        symmetric_scalar_embedding(3.0, 2.0, 4.0),
    ]
    ANGLES = (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)

    @pytest.mark.parametrize("t_end", [None, 5.0], ids=["horizon-40", "horizon-5"])
    @pytest.mark.parametrize("params", POINTS)
    def test_outcome_equals_eager_classification(self, monkeypatch, params, t_end):
        # on the horizon 5, most shots that cross reach it before blowing up:
        # the report and the eager run then both raise, naming the seed
        if t_end is not None:
            monkeypatch.setattr(dynamics, "T_END", t_end)
        for th in self.ANGLES:
            x, y = RHO * math.cos(th), RHO * math.sin(th)
            try:
                eager = _eager_classify(params, x, y, RHO)
            except Inconclusive as exc:
                assert t_end is not None
                named = re.escape(f"seed {(x, y)}")
                assert re.match(named, str(exc))
                with pytest.raises(Inconclusive, match=named):
                    read_shot(params, x, y, RHO)
            else:
                assert read_shot(params, x, y, RHO).to_dict() == eager
                assert classify_shot(params, x, y, RHO).s_class.value == eager["sClass"]

    def test_s_class_covers_every_kind(self):
        classes = {classify_shot(P, RHO * math.cos(th), RHO * math.sin(th), RHO).s_class
                   for P in self.POINTS for th in self.ANGLES}
        assert classes == set(SClass)

    @pytest.mark.parametrize("family", ["hamiltonian", "weighted", "potential", "general",
                                        "nonvariational"])
    def test_paused_s_class_is_the_reports(self, family):
        # 3 seeded draws x 3 angles of each kind: the S-class that the shot
        # decides at its pause is the one read off its whole run
        rng = random.Random(f"paused-s-class:{family}")
        compared = 0
        for _ in range(3):
            P = _draw_family_point(rng, family)
            for th in (0.2, 0.8, 1.4):
                seed = dynamics._seed(th, RHO)
                out = classify_shot(P, *seed, RHO)
                try:
                    report = read_shot(P, *seed, RHO)
                except Inconclusive:
                    continue
                assert (report.seed, report.s_class) == (out.seed, out.s_class), P
                compared += 1
        assert compared >= 7

    def test_undecided_run_keeps_its_s_class(self, monkeypatch):
        # the shot crosses x = x_bound at t = 4.85 and blows up at t = 5.06:
        # on the horizon 5 its S-class is decided, S1, but its run ends
        # without a blow-up, and its report raises naming the seed
        monkeypatch.setattr(dynamics, "T_END", 5.0)
        seed = (0.9e-4, 0.2e-4)
        P = hamiltonian_params(6.0, 1.5, 1.5)
        assert classify_shot(P, *seed, RHO).s_class is SClass.S1
        with pytest.raises(Inconclusive, match=re.escape(f"seed {seed}: crossed at t = ")):
            read_shot(P, *seed, RHO)

    def test_blow_up_without_a_crossing_raises_at_once(self, monkeypatch):
        # a run that leaves the box with no face crossing recorded is not
        # rerun on a wider horizon: the same steps would end the same way
        def no_crossing(events, states):
            events[:] = [ev for ev in events if ev[1] == "blow-up"]
        starts = _steps_reporting(monkeypatch, no_crossing)
        x, y = RHO * math.cos(0.3), RHO * math.sin(0.3)
        with pytest.raises(Inconclusive, match=re.escape(f"seed {(x, y)}: left the box")):
            classify_shot(hamiltonian_params(6.0, 1.6, 2.1), x, y, RHO)
        assert len(starts) == 1

    def test_crossing_without_blow_up_runs_once(self, monkeypatch):
        # a run that crosses a face and reaches its horizon without blowing up
        # is not rerun on a wider one: its report raises at T_END. The
        # diagonal shot of a supercritical point stays in the box to T_END;
        # its run reports an x-bound crossing at t = 0.5, in a state on the
        # face X = x_bound = 4
        def crossing_at_half(events, states):
            if not events:
                events.append((0.5, "x-bound"))
                states[0.5] = (4.0, 0.5, 1.0, 1.0)
        starts = _steps_reporting(monkeypatch, crossing_at_half)
        x, y = RHO * math.cos(math.pi / 4), RHO * math.sin(math.pi / 4)
        P = hamiltonian_params(6.0, 2.5, 2.5)
        assert classify_shot(P, x, y, RHO).s_class is SClass.S1
        assert len(starts) == 1
        named = re.escape(f"seed {(x, y)}: crossed at t = 0.5 but no blow-up within t = 40.0")
        with pytest.raises(Inconclusive, match=named):
            read_shot(P, x, y, RHO)
        assert len(starts) == 2

    def test_search_reads_s_classes_only(self, monkeypatch):
        # no search reads a report: not on the diagonal, not on an
        # off-diagonal ground-state flip, and not in a Dirichlet search that
        # takes its smallest boundary off the diagonal. Its shots stop at
        # their S-decisions, far short of the runs that their reports read
        def refused(*args):
            raise AssertionError("a search read a report")
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "read_shot", refused)
            search_ground_state(hamiltonian_params(6.0, 3.5, 1.2), n_angles=9)
            search_dirichlet(hamiltonian_params(6.0, 1.6, 2.1), u0=1.0, n_angles=9)
        shot, real = [], dynamics.classify_shot
        monkeypatch.setattr(dynamics, "classify_shot",
                            lambda *args: shot.append(args) or real(*args))
        calls = _count_phase_rhs(monkeypatch)
        P = hamiltonian_params(6.0, 1.5, 1.5)
        search_ground_state(P, n_angles=9)
        searched, calls[0] = calls[0], 0
        for args in shot:
            read_shot(*args)
        assert shot and searched < 0.4 * calls[0]


def _steps_ending(monkeypatch, X_end, Y_end) -> None:
    """Every kernel run started from now on ends in a state whose X and Y are
    X_end and Y_end: the run's end decides."""
    real = dop853.steps

    def steps(*args):
        for sol in real(*args):
            if sol.status is not None:
                sol.y[-1] = (X_end, Y_end, *sol.y[-1][2:])
            yield sol
    monkeypatch.setattr(dop853, "steps", steps)


class TestEndRule:
    """A shot's M-class is read off its blow-up: M1 where X ends above Y (u
    vanishes first), M2 where below, M3 on an exact tie only. The exchange
    image reads M1 and M2 swapped."""

    @pytest.mark.parametrize("X_end,Y_end,m_class,mirrored", [
        (1.01e6, 1e6, MClass.M1, MClass.M2),      # 1% from a tie: still one profile first
        (1e6, 1.01e6, MClass.M2, MClass.M1),
        (3e6, 1e6, MClass.M1, MClass.M2),
        (1e6, 1e6, MClass.M3, MClass.M3)])
    def test_larger_coordinate_names_the_m_class(self, monkeypatch, X_end, Y_end, m_class,
                                                 mirrored):
        _steps_ending(monkeypatch, X_end, Y_end)
        out = read_shot(hamiltonian_params(6.0, 1.5, 1.5), *dynamics._seed(0.3, RHO), RHO)
        assert out.s_class is SClass.S1 and "blow-up" in dict(out.hit_times)
        assert out.m_class is m_class
        assert out.exchanged().m_class is mirrored


def _draw_family_point(rng, family):
    """A random point of one of the three families, of the Hamiltonian family
    with weights a, b ("weighted"), or with every exponent free ("general"),
    at N = 6."""
    if family == "hamiltonian":
        return hamiltonian_params(6.0, rng.uniform(1.2, 3.5), rng.uniform(1.2, 3.5))
    if family == "weighted":
        return hamiltonian_params(6.0, rng.uniform(1.2, 3.5), rng.uniform(1.2, 3.5),
                                  rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0))
    if family == "general":
        return SystemParams(N=6.0, p=rng.uniform(1.7, 2.5), q=rng.uniform(1.7, 2.5),
                            s=rng.uniform(0.1, 1.0), m=rng.uniform(0.1, 1.0),
                            delta=rng.uniform(1.2, 3.0), mu=rng.uniform(1.2, 3.0))
    if family == "potential":
        return potential_params(6.0, rng.uniform(1.7, 2.5), rng.uniform(1.7, 2.5),
                                rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5))
    return nonvariational_params(6.0, rng.uniform(0.1, 1.0), rng.uniform(1.2, 3.0),
                                 rng.uniform(1.2, 3.0))


FAMILIES = ["hamiltonian", "potential", "nonvariational"]


def _trapped(P, state):
    """M1 or M2 if `state` lies in a forward-invariant region that proves it.

    With X, Y, Z, W >= 0, p, q > 1, mu > 0 and m >= 0, take R1 = {X > max(
    x_bound, (N+b)/mu), V = Y + W/(q-1) < y_bound}. There X' = X (X - x_bound
    + Z/(p-1)) > 0 blows X up in finite time, while V' = Y (V - y_bound) +
    W/(q-1) (N + b - mu X - m Y - W) <= 0 keeps Y below y_bound: u vanishes
    first, M1. The exchange image R2 proves M2. Each inequality needs a
    margin of 1e-6 (1 + bound).
    """
    X, Y, Z, W = state
    if not (min(X, Y, Z, W) >= 0.0 and P.p > 1.0 and P.q > 1.0):
        return None
    for m_class, grows, stays, x_bound, y_bound, n_b, mu, m in (
            (MClass.M1, X, Y + W / (P.q - 1), P.x_bound, P.y_bound, P.N + P.b, P.mu, P.m),
            (MClass.M2, Y, X + Z / (P.p - 1), P.y_bound, P.x_bound, P.N + P.a, P.delta, P.s)):
        lo = max(x_bound, n_b / mu) if mu > 0.0 and m >= 0.0 else math.inf
        if grows - lo > 1e-6 * (1 + lo) and y_bound - stays > 1e-6 * (1 + y_bound):
            return m_class
    return None


class TestCertificate:
    """A shot inside the trapping region R1 (or its exchange image R2) has
    M-class M1 (M2): `_trapped` holds the M-class read off the blow-up
    against the regions."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_regions_trap(self, family):
        # R1 = {X > max(x_bound, (N+b)/mu), Y + W/(q-1) < y_bound}: there X
        # grows and Y + W/(q-1) does not; mirrored in R2
        rng = random.Random(f"trap:{family}")
        for _ in range(200):
            P = _draw_family_point(rng, family)
            rhs = phase_rhs(P)
            p1, q1 = P.p - 1, P.q - 1
            lo_x = max(P.x_bound, (P.N + P.b) / P.mu) * (1.001 + 10 * rng.random())
            lo_y = max(P.y_bound, (P.N + P.a) / P.delta) * (1.001 + 10 * rng.random())
            f, g = rng.random(), rng.random()
            v_y = P.y_bound * 0.999 * rng.random()      # Y + W/(q-1) in R1
            v_x = P.x_bound * 0.999 * rng.random()      # X + Z/(p-1) in R2
            Z, W = 10 * rng.random(), 10 * rng.random()
            r1 = (lo_x, f * v_y, Z, (1 - f) * v_y * q1)
            dX, dY, _, dW = rhs(0.0, r1)
            assert dX > 0.0 and dY + dW / q1 <= 0.0
            assert _trapped(P, r1) is MClass.M1
            # just below the bound on X the region does not prove it
            below = max(P.x_bound, (P.N + P.b) / P.mu) * 0.999
            assert _trapped(P, (below,) + r1[1:]) is None
            r2 = (g * v_x, lo_y, (1 - g) * v_x * p1, W)
            dX, dY, dZ, _ = rhs(0.0, r2)
            assert dY > 0.0 and dX + dZ / p1 <= 0.0
            assert _trapped(P, r2) is MClass.M2
            below = max(P.y_bound, (P.N + P.a) / P.delta) * 0.999
            assert _trapped(P, r2[:1] + (below,) + r2[2:]) is None

    def test_certified_class_is_the_finished_class(self):
        # 36 random points x 3 angles: every shot that leaves the box enters
        # R1 or R2 at an accepted state before its end, and the region's
        # class is the M-class that its report reads off the blow-up
        rng = random.Random(21)
        certified = set()
        for family in FAMILIES:
            for _ in range(12):
                P = _draw_family_point(rng, family)
                for th in (0.3, 0.8, 1.3):
                    seed = RHO * math.cos(th), RHO * math.sin(th)
                    report = read_shot(P, *seed, RHO)
                    if report.s_class is SClass.S:
                        continue
                    trapped = {_trapped(P, state) for state in shot_run(P, *seed, RHO).y[:-1]}
                    (region,) = trapped - {None}
                    assert report.m_class is region
                    certified.add(region)
        assert certified == {MClass.M1, MClass.M2}

    def test_dirichlet_search_runs_no_shot_to_blow_up(self, monkeypatch):
        # every phase state the search evaluates stays far below BLOW_UP
        largest, real = [0.0], dynamics.phase_rhs

        def counting_phase_rhs(params):
            rhs = real(params)

            def counted(t, y):
                largest[0] = max(largest[0], abs(y[0]), abs(y[1]))
                return rhs(t, y)
            return counted

        monkeypatch.setattr(dynamics, "phase_rhs", counting_phase_rhs)
        res = search_dirichlet(hamiltonian_params(6.0, 1.6, 2.1), u0=1.0, n_angles=9)
        assert res.found
        assert largest[0] < 10.0



def _draw_symmetric_point(rng, family):
    """A random exchange-symmetric point of one of four families, at N = 6."""
    if family == "hamiltonian":
        d = rng.uniform(1.2, 3.5)
        return hamiltonian_params(6.0, d, d)
    if family == "potential":
        p, s = rng.uniform(1.7, 2.5), rng.uniform(0.1, 1.5)
        return potential_params(6.0, p, p, s, s)
    if family == "nonvariational":
        d = rng.uniform(1.2, 3.0)
        return nonvariational_params(6.0, rng.uniform(0.1, 1.0), d, d)
    d, a = rng.uniform(1.2, 3.5), rng.uniform(-0.5, 1.0)
    return hamiltonian_params(6.0, d, d, a=a, b=a)


SYMMETRIC_FAMILIES = ["hamiltonian", "potential", "nonvariational", "weighted"]


def _level(basin, eX, eZ) -> float:
    """V(e) of an `_m0_basin` region."""
    _, (p11, p12, p22), _ = basin
    return p11 * eX * eX + 2 * p12 * eX * eZ + p22 * eZ * eZ


class TestM0Basin:
    """On the invariant diagonal of an exchange-symmetric system, V decreases
    along the flow in `_m0_basin`'s ellipse around M0, which lies in the box:
    a diagonal shot that enters it is S, and its run ends there."""

    @staticmethod
    def _ring(basin, level, n=360):
        """n diagonal states on the ellipse V(e) = level, each with its e."""
        (X0, Z0), _, _ = basin
        for i in range(n):
            u, w = math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)
            r = math.sqrt(level / _level(basin, u, w))
            yield (X0 + r * u, X0 + r * u, Z0 + r * w, Z0 + r * w), (r * u, r * w)

    @staticmethod
    def _shot(monkeypatch, P, theta=math.pi / 4):
        """The shot of P at theta and the arguments of its one kernel run."""
        starts, real = [], dop853.steps

        def steps(*args):
            starts.append(args)
            return real(*args)
        with monkeypatch.context() as patch:
            patch.setattr(dop853, "steps", steps)
            out = classify_shot(P, *dynamics._seed(theta, RHO), RHO)
        (args,) = starts
        return out, args

    @pytest.mark.parametrize("family", SYMMETRIC_FAMILIES)
    def test_v_decreases_in_the_ellipse(self, family):
        rng = random.Random(f"m0-basin:{family}")
        found = 0
        for _ in range(60):
            P = _draw_symmetric_point(rng, family)
            basin = dynamics._m0_basin(P)
            if basin is None:
                continue
            found += 1
            (X0, Z0), (p11, p12, p22), c = basin
            m0 = next(fp for fp in fixed_point_catalog(P) if fp.label is FixedPointLabel.M0)
            assert (X0, X0, Z0, Z0) == m0.coords
            rhs = phase_rhs(P)
            for level in (c, c / 2):
                for state, (eX, eZ) in self._ring(basin, level):
                    dX, _, dZ, _ = rhs(0.0, state)
                    # V' = 2 e^T P e'
                    assert (p11 * eX + p12 * eZ) * dX + (p12 * eX + p22 * eZ) * dZ < 0.0
            # the largest X on the ellipse lies sqrt(c p22 / det P) past X0
            assert X0 + math.sqrt(c * p22 / (p11 * p22 - p12 * p12)) < P.x_bound
        assert found >= 20

    @pytest.mark.parametrize("P", [hamiltonian_params(6.0, 2.5, 2.6),
                                   nonvariational_params(6.0, 0.5, 2.5, 2.6),
                                   hamiltonian_params(6.0, 2.0, 2.0),
                                   hamiltonian_params(6.0, 1.6, 1.6),
                                   hamiltonian_params(6.0, 1.5, 1.5)],
                             ids=["off-symmetry", "off-symmetry-nonvariational",
                                  "centre", "below-the-hyperbola", "m0-on-the-face"])
    def test_no_region(self, P):
        # off exchange symmetry the diagonal is not invariant; at delta = mu = 2
        # M0 is a centre on it (ROADMAP 4(a)), below the hyperbola a source,
        # and at 1.5 it lies on the face X = x_bound
        assert dynamics._m0_basin(P) is None

    def test_certified_class_is_the_finished_class(self, monkeypatch):
        # supercritical draws whose diagonal decay rate |tr J| / 2 is at least
        # 0.25: the pi/4 shot ends by m0-basin, S with no hit times; the same
        # run without that event reaches T_END with no face crossing and no
        # blow-up, and ends in the ellipse
        rng = random.Random(37)
        certified = 0
        for family in SYMMETRIC_FAMILIES:
            for _ in range(12):
                P = _draw_symmetric_point(rng, family)
                basin = dynamics._m0_basin(P)
                if basin is None or basin[0][0] - basin[0][1] > -0.5:
                    continue
                out, (rhs, t0, y0, t_bound, events) = self._shot(monkeypatch, P)
                seed = (y0[0], y0[1])
                run = shot_run(P, *seed, RHO)
                assert run.status == 1 and run.events[-1][1] == "m0-basin"
                assert out == ShotOutcome(seed, SClass.S, None)
                assert read_shot(P, *seed).to_dict() == {"seed": [*seed], "sClass": "S",
                                                         "mClass": "GS", "hitTimes": {}}
                rest = tuple(ev for ev in events if ev.name != "m0-basin")
                assert len(rest) == len(events) - 1
                sol = dop853.solve(rhs, t0, y0, t_bound, rest)
                assert sol.status == 0 and sol.events == []
                X, Y, Z, W = sol.y[-1]
                (X0, Z0), _, c = basin
                assert X == Y and Z == W and _level(basin, X - X0, Z - Z0) < c
                certified += 1
        assert certified >= 20

    def test_nonvariational_diagonal_is_certified(self):
        # ROADMAP 4(f): the diagonal seed at s = 0.5, delta = mu = 1.7 was S
        # only because its run reached T_END
        P = nonvariational_params(6.0, 0.5, 1.7, 1.7)
        seed = dynamics._seed(math.pi / 4, RHO)
        assert shot_run(P, *seed, RHO).events[-1][1] == "m0-basin"
        out = read_shot(P, *seed)
        assert (out.s_class, out.m_class, out.hit_times) == (SClass.S, MClass.GS, ())

    def test_other_shots_carry_no_basin_event(self, monkeypatch):
        # off the diagonal of the seed plane, and on the diagonal of a point
        # without a region: the two faces and blow-up only
        for P, theta in ((hamiltonian_params(6.0, 2.5, 2.5), 0.3),
                         (hamiltonian_params(6.0, 1.5, 1.5), math.pi / 4)):
            _, (*_, events) = self._shot(monkeypatch, P, theta)
            assert [ev.name for ev in events] == ["x-bound", "y-bound", "blow-up"]

# -- reference: the Dirichlet search that reads every grid M-class -------------

def _full_read_dirichlet(params, u0=None, n_angles=9):
    """search_dirichlet's to_dict() with the M-class of every grid shot read
    from its report: the smallest of the Dirichlet boundaries and the grid
    shots that leave the box with M-class M3 is taken."""
    res = search_ground_state(params, n_angles)
    thetas, reports = _report_sweep(params, n_angles)
    assert thetas == res.angles
    assert [r.s_class for r in reports] == [o.s_class for o in res.outcomes]
    angles = [b.angle for b in res.boundaries if b.kind == "dirichlet"]
    angles += [th for th, r in zip(thetas, reports)
               if r.s_class is not SClass.S and r.m_class is MClass.M3]
    return _dirichlet_at(params, min(angles, default=None), u0)


def _dirichlet_at(params, angle, u0):
    """search_dirichlet's to_dict() where its search took `angle` (None: no
    Dirichlet angle)."""
    if angle is None:
        return DirichletSearch(found=False).to_dict()
    u0_star, v0_star = regular_initial_values(
        params, *dynamics._seed(angle, dynamics.MANIFOLD_RHO))
    if u0 is not None:
        ex = derive_exponents(params)
        scale = (u0 / u0_star) ** (1.0 / ex.gamma)
        u0_star, v0_star = u0, v0_star * scale ** ex.xi
    rad = integrate_radial(params, u0_star, v0_star, r_max=1e12)
    tu, tv = rad.first_event("u-zero"), rad.first_event("v-zero")
    if tu is None and tv is None:
        return DirichletSearch(found=False, initial_values=(u0_star, v0_star),
                               angle=angle).to_dict()
    r_u = math.exp(tu) if tu is not None else None
    r_v = math.exp(tv) if tv is not None else None
    return DirichletSearch(found=True, radius=r_u if r_u is not None else r_v,
                           v_zero_radius=r_v, initial_values=(u0_star, v0_star),
                           angle=angle).to_dict()


class TestDirichletWalk:
    """search_dirichlet takes its smallest Dirichlet boundary and reads no
    grid M-class: its result equals the search that reads them all."""

    # Hamiltonian off the diagonal below and above the critical hyperbola
    # (delta, mu) = (2, 2) at N = 6, potential off the diagonal below and above
    # its critical line m = 0.86
    POINTS = [hamiltonian_params(6.0, 1.6, 2.0), hamiltonian_params(6.0, 2.5, 2.1),
              potential_params(6.0, 2.0, 2.3, 0.5, 0.6),
              potential_params(6.0, 2.0, 2.3, 0.5, 1.15)]

    @pytest.mark.parametrize("u0", [None, 0.5, 2.0])
    @pytest.mark.parametrize("params", POINTS, ids=["ham-below", "ham-above", "pot-below",
                                                    "pot-above"])
    def test_search_equals_full_read(self, params, u0):
        assert search_dirichlet(params, u0, n_angles=9).to_dict() == \
            _full_read_dirichlet(params, u0)

    @pytest.mark.parametrize("params", [hamiltonian_params(6.0, 1.5, 1.5),
                                        symmetric_scalar_embedding(3.0, 2.0, 4.0)],
                             ids=["ham-diagonal", "scalar-embedding"])
    def test_diagonal_s3_grid_shot_equals_full_read(self, params):
        # the grid shot at pi/4 is S3 and a Dirichlet boundary itself
        assert search_dirichlet(params, n_angles=9).to_dict() == _full_read_dirichlet(params)


# -- reference: the searches by the 5% window on X/Y at blow-up ----------------

def _window_m_class(params, out):
    """A shot's M-class by the window rule: the class of a trapping region
    that its run enters before its end (`_trapped`), else M3 where X/Y at
    blow-up lies within 5% of 1, else M1 or M2."""
    run = shot_run(params, *out.seed, dynamics.MANIFOLD_RHO)
    for state in run.y[:-1]:
        if (proved := _trapped(params, state)) is not None:
            return proved
    m_class = read_shot(params, *out.seed).m_class
    if m_class is MClass.GS:
        return m_class
    X_end, Y_end = run.y[-1][:2]
    return MClass.M3 if Y_end != 0 and abs(X_end / Y_end - 1.0) < 0.05 else m_class


def _window_searches(params, res, u0):
    """The boundaries as (angle, kind) and `found` of search_ground_state,
    and the to_dict() of search_dirichlet, by the window rule from the shots
    of `res`, and the number of M-classes read. A flip whose limit shot
    leaves through one face is a Dirichlet boundary where that shot reads
    M3; the Dirichlet search takes the first grid shot that leaves the box
    with M3 below its smallest Dirichlet boundary, if there is one."""
    reads = 0
    hits = []
    for b in res.boundaries:
        kind = b.kind
        if kind == "ground-state" and b.outcome.s_class is not SClass.S:
            reads += 1
            kind = "dirichlet" if _window_m_class(params, b.outcome) is MClass.M3 else kind
        hits.append((b.angle, kind))
    found = (any(o.s_class is SClass.S for o in res.outcomes)
             or any(kind == "ground-state" for _, kind in hits))
    angle = min((a for a, kind in hits if kind == "dirichlet"), default=math.inf)
    for th, o in zip(res.angles, res.outcomes):
        if th >= angle:
            break
        if o.s_class is not SClass.S:
            reads += 1
            if _window_m_class(params, o) is MClass.M3:
                angle = th
                break
    dirichlet = _dirichlet_at(params, None if angle == math.inf else angle, u0)
    return hits, found, dirichlet, reads


class TestWindowEquivalence:
    """Off the diagonal, the searches' answers from S-classes alone equal
    those of the window rule, which also read the M-class of each flip's
    one-face limit shot and of the grid shots below the Dirichlet answer."""

    @pytest.mark.parametrize("family", ["hamiltonian", "weighted", "potential", "general"])
    def test_searches_equal_the_window_rule(self, monkeypatch, family):
        rng = random.Random(f"window-rule:{family}")
        reads = 0
        for _ in range(3):
            P = _draw_family_point(rng, family)
            res = search_ground_state(P, 9)
            # search_dirichlet reads the same search (deterministic) once more:
            # it is handed the result already taken
            monkeypatch.setattr(dynamics, "search_ground_state", lambda params, n: res)
            answer = search_dirichlet(P, u0=1.0, n_angles=9).to_dict()
            hits, found, dirichlet, n_read = _window_searches(P, res, 1.0)
            assert [(b.angle, b.kind) for b in res.boundaries] == hits, P
            assert res.found == found and answer == dirichlet, P
            reads += n_read
        assert reads >= 20


# -- reference: the angle sweep that shoots every grid angle -------------------

def _direct_sweep(params, n_angles, shoot=classify_shot):
    """sweep_angles, or with `shoot` read_shot the report sweep, as it ran
    before exchange-symmetric grids were mirrored: every grid angle is shot
    on its own."""
    thetas = tuple(dynamics.linspace(0.0, math.pi / 2, n_angles + 2)[1:-1])
    return thetas, [shoot(params, *dynamics._seed(th, dynamics.MANIFOLD_RHO)) for th in thetas]


# the diagonals fixed by the exchange of the two equations
SYMMETRIC_POINTS = [hamiltonian_params(6.0, 1.5, 1.5), hamiltonian_params(6.0, 2.0, 2.0),
                    hamiltonian_params(6.0, 2.5, 2.5),
                    nonvariational_params(6.0, 0.5, 1.7, 1.7),
                    potential_params(6.0, 2.0, 2.0, 0.3, 0.3),
                    potential_params(6.0, 2.0, 2.0, 0.7, 0.7),
                    symmetric_scalar_embedding(3.0, 2.0, 4.0)]
SYMMETRIC_IDS = ["ham-1.5", "ham-2.0", "ham-2.5", "nonvar-1.7", "pot-0.3", "pot-0.7",
                 "scalar-embedding"]


class TestExchangeMirror:
    """On a system with exchange_params(P) == P, sweep_angles shoots the first
    ceil(n/2) grid angles and mirrors the others: every verdict equals the
    sweep that shoots them all."""

    @pytest.mark.parametrize("n_angles", [8, 9, 33])
    @pytest.mark.parametrize("params", SYMMETRIC_POINTS, ids=SYMMETRIC_IDS)
    def test_searches_equal_direct_sweep(self, monkeypatch, params, n_angles):
        res = search_ground_state(params, n_angles)
        dirichlet = search_dirichlet(params, n_angles=n_angles).to_dict()
        monkeypatch.setattr(dynamics, "sweep_angles", _direct_sweep)
        ref = search_ground_state(params, n_angles)
        assert res.found == ref.found
        assert [(b.angle.hex(), b.kind, b.outcome.s_class) for b in res.boundaries] == \
            [(b.angle.hex(), b.kind, b.outcome.s_class) for b in ref.boundaries]
        assert [o.s_class for o in res.outcomes] == [o.s_class for o in ref.outcomes]
        assert dirichlet == search_dirichlet(params, n_angles=n_angles).to_dict()
        # the report sweep mirrors as the searches' sweep does
        _, reports = _report_sweep(params, n_angles)
        _, direct = _direct_sweep(params, n_angles, read_shot)
        assert [(o.s_class, o.m_class) for o in reports] == \
            [(o.s_class, o.m_class) for o in direct]
        for o, r in zip(reports, direct):
            assert list(dict(o.hit_times)) == list(dict(r.hit_times))
            assert dict(o.hit_times) == pytest.approx(dict(r.hit_times), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_angles", [8, 9, 33])
    @pytest.mark.parametrize("params", SYMMETRIC_POINTS, ids=SYMMETRIC_IDS)
    def test_upper_half_is_the_mirror_of_the_lower(self, params, n_angles):
        swap = {"S1": "S2", "S2": "S1", "M1": "M2", "M2": "M1",
                "x-bound": "y-bound", "y-bound": "x-bound"}
        _, outs = sweep_angles(params, n_angles)
        for o, partner in zip(outs[::-1], outs[:n_angles // 2]):
            assert o.seed == partner.seed[::-1]
            assert o.s_class.value == swap.get(partner.s_class.value, partner.s_class.value)
            assert o.gap == (None if partner.gap is None else -partner.gap)
        _, reports = _report_sweep(params, n_angles)
        assert [r.seed for r in reports] == [o.seed for o in outs]
        for o, partner in zip(reports[::-1], reports[:n_angles // 2]):
            d, p = o.to_dict(), partner.to_dict()
            assert d["seed"] == p["seed"][::-1]
            assert d["sClass"] == swap.get(p["sClass"], p["sClass"])
            assert d["mClass"] == swap.get(p["mClass"], p["mClass"])
            assert d["hitTimes"] == {swap.get(k, k): t for k, t in p["hitTimes"].items()}

    @pytest.mark.parametrize("n_angles", [8, 9, 33])
    @pytest.mark.parametrize("params,symmetric", [
        *((P, True) for P in SYMMETRIC_POINTS),
        (hamiltonian_params(6.0, 2.0, 2.0, a=0.5), False),   # delta = mu, but a != b
        (hamiltonian_params(6.0, 1.6, 2.0), False),
    ], ids=[*SYMMETRIC_IDS, "ham-weighted", "ham-off-diagonal"])
    def test_shots_taken(self, monkeypatch, params, symmetric, n_angles):
        shots, real = [], dynamics.classify_shot
        monkeypatch.setattr(dynamics, "classify_shot",
                            lambda *args: shots.append(args) or real(*args))
        sweep_angles(params, n_angles)
        assert len(shots) == ((n_angles + 1) // 2 if symmetric else n_angles)

    def test_undecided_partner_keeps_its_s_class(self, monkeypatch, tmp_path, capsys):
        # on the horizon 5, the two shots nearest the X axis cross
        # x = x_bound but do not blow up. Their S-classes are decided, S1, and
        # the mirrored shots near the Y axis read S2; the report sweep, and
        # so `sweep kind=angle`, raises at the first of them, naming the seed
        # that ran and its angle
        monkeypatch.setattr(dynamics, "T_END", 5.0)
        P = hamiltonian_params(6.0, 1.5, 1.5)
        thetas, outs = sweep_angles(P, n_angles=7)
        mirrored, partner = outs[-1], outs[0]
        assert (partner.s_class, mirrored.s_class) == (SClass.S1, SClass.S2)
        assert mirrored == partner.exchanged()
        ran = re.escape(f"seed {partner.seed}: crossed at t = ")
        with pytest.raises(Inconclusive, match=ran):
            _report_sweep(P, n_angles=7)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sweep", "params": P.to_dict(),
                                   "sweep": {"kind": "angle", "n": 7}}))
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert re.match("internal error: Inconclusive: " + ran, err)
        assert f"  value: theta = {thetas[0]!r}\n" in err
        assert not (tmp_path / "out").exists()


# the shots that the kernel is held against scipy on, and paused on
SCIPY_SHOTS = [
    (hamiltonian_params(6.0, 1.5, 1.5), (RHO / math.sqrt(2), RHO / math.sqrt(2))),
    (hamiltonian_params(6.0, 1.6, 2.1), (0.6 * RHO, 0.8 * RHO)),
    (hamiltonian_params(6.0, 2.5, 2.5), (RHO / math.sqrt(2), RHO / math.sqrt(2))),
    (potential_params(6.0, 2.0, 2.3, 0.4, 0.6), (0.8 * RHO, 0.6 * RHO)),
]


class TestKernelAgainstScipy:
    """The in-house DOP853 against scipy's solve_ivp(method="DOP853"), which
    runs the same algorithm with numpy arithmetic."""

    @staticmethod
    def _recorded_solves(monkeypatch, run, entry="solve"):
        """Every problem that `run` hands to the kernel entry point `entry`
        of efdyn.dop853: `solve` for whole runs, `steps` for the runs of
        shots."""
        calls, real = [], getattr(dop853, entry)

        def spy(rhs, t0, y0, t_bound, events=()):
            calls.append((rhs, t0, [float(v) for v in y0], t_bound, tuple(events)))
            return real(rhs, t0, y0, t_bound, events)

        with monkeypatch.context() as patch:
            patch.setattr(dop853, entry, spy)
            run()
        return calls

    @staticmethod
    def _assert_matches_scipy(rhs, t0, y0, t_bound, events, dense_rtol=1e-12):
        def scipy_event(spec):
            def g(t, y):
                return spec.fn(t, y)
            g.terminal, g.direction = spec.terminal, spec.direction
            return g

        ours = dop853.solve(rhs, t0, y0, t_bound, events)
        ref = solve_ivp(rhs, (t0, t_bound), y0, method="DOP853", rtol=ODE_RTOL,
                        atol=ODE_ATOL, events=[scipy_event(e) for e in events],
                        dense_output=True)
        assert ours.status == ref.status
        assert abs(len(ours.t) - len(ref.t)) <= 2
        for spec, theirs in zip(events, ref.t_events):
            mine = [t for t, name in ours.events if name == spec.name]
            assert len(mine) == len(theirs)
            assert np.all(np.abs(np.array(mine) - theirs) <= 1e-12)
        ts = np.linspace(ref.t[0], ref.t[0] + 0.9 * (ref.t[-1] - ref.t[0]), 200)
        got = np.array([ours.at(t) for t in ts.tolist()])
        want = ref.sol(ts).T
        # relative to the size of the state: components far below atol (Z near
        # A0) are only controlled in absolute terms
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= dense_rtol * scale)

    @pytest.mark.parametrize("params,xy", SCIPY_SHOTS)
    def test_shot_matches_scipy(self, monkeypatch, params, xy):
        # a shot carries the three events x/y-bound and blow-up, and the
        # diagonal shot of the supercritical point m0-basin too; its report
        # runs the shot's one run to its end
        calls = self._recorded_solves(monkeypatch, lambda: read_shot(params, *xy, RHO), "steps")
        n_events = 4 if params == hamiltonian_params(6.0, 2.5, 2.5) else 3
        assert calls and all(len(call[4]) == n_events for call in calls)
        for call in calls:
            self._assert_matches_scipy(*call)

    def test_backward_absorption_connection_matches_scipy(self, monkeypatch):
        calls = self._recorded_solves(monkeypatch, lambda: scalar_classify(3, 2, 0, 2, eps=-1))
        assert [(call[1], call[3]) for call in calls] == [(0.0, -60.0)]
        # leaving M0 backward, the orbit speeds up by orders of magnitude, and
        # a roundoff time shift with it: moving y0 by one ulp moves scipy's own
        # dense output by 6e-6 relative here, so only the steps and events are
        # held to the shot bounds
        self._assert_matches_scipy(*calls[0], dense_rtol=1e-10)

    def test_tableau_is_scipys(self):
        # every coefficient the kernel reads, in dop853's functions and in
        # the step modules' functions and module-level tables, is scipy's
        # entry, and every entry they skip is 0.0 in scipy's table
        c = dop853_coefficients
        tree = ast.parse(Path(dop853.__file__).read_text())
        parts = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        parts += [ast.parse(Path(module.__file__).read_text())
                  for module in _STEP_MODULES.values()]
        used = {node.id for part in parts
                for node in ast.walk(part) if isinstance(node, ast.Name)}
        A, C = np.zeros_like(c.A), np.zeros_like(c.C)
        B, E5, D = np.zeros_like(c.B), np.zeros_like(c.E5), np.zeros_like(c.D)
        E3_named = {}
        for name in used:
            value = getattr(dop853, name, None)
            if (m := re.fullmatch(r"A(\d+)_(\d+)", name)):
                A[int(m[1]), int(m[2])] = value
            elif (m := re.fullmatch(r"C(\d+)", name)):
                C[int(m[1])] = value
            elif (m := re.fullmatch(r"B(\d+)", name)):
                B[int(m[1])] = value
            elif (m := re.fullmatch(r"E5_(\d+)", name)):
                E5[int(m[1])] = value
            elif (m := re.fullmatch(r"E3_(\d+)", name)):
                E3_named[int(m[1])] = value
            elif (m := re.fullmatch(r"D(\d)_(\d+)", name)):
                D[int(m[1]), int(m[2])] = value
        A[c.N_STAGES, :c.N_STAGES] = B          # row 12 of A is the solution's
        C[c.N_STAGES] = 1.0                     # stage 12 is evaluated at t_new
        E3 = np.append(B, 0.0)                  # E3 = B - bhh, named where bhh != 0
        E3[list(E3_named)] = list(E3_named.values())
        assert np.array_equal(A, c.A)
        for ours, theirs in ((B, c.B), (C, c.C), (E3, c.E3), (E5, c.E5), (D, c.D)):
            assert np.array_equal(ours, theirs)

    def test_step_tables_index_their_names(self):
        # in the step modules' module-level tables, an entry (j, name, ...)
        # sits at its names' last index (A4_3 at j = 3), and row k of the
        # generic step's _STAGES holds the node and the weights of stage k + 1
        entries = 0
        for module in _STEP_MODULES.values():
            for node in ast.parse(Path(module.__file__).read_text()).body:
                if not isinstance(node, ast.Assign):
                    continue
                for entry in ast.walk(node.value):
                    if (isinstance(entry, ast.Tuple) and entry.elts
                            and isinstance(entry.elts[0], ast.Constant)):
                        j, *names = entry.elts
                        assert names and all(isinstance(n, ast.Name) for n in names)
                        assert {re.split(r"\D+", n.id)[-1] for n in names} == {str(j.value)}
                        entries += 1
        # each nonzero entry of rows 1..11 of scipy's A, and 8 weight rows
        assert entries == np.count_nonzero(dop853_coefficients.A[1:12]) + 8
        tree = ast.parse(Path(_step_generic.__file__).read_text())
        stages = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                      and node.targets[0].id == "_STAGES")
        assert len(stages.elts) == 11
        for i, row in enumerate(stages.elts, 1):
            node, weights = row.elts
            assert node.id == f"C{i}"
            assert {entry.elts[1].id.split("_")[0] for entry in weights.elts} == {f"A{i}"}
            js = [entry.elts[0].value for entry in weights.elts]
            assert js == sorted(set(js))

    def test_step_size_underflow_keeps_partial_trajectory(self):
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(_squares, 0.0, SQUARES_Y0, 2.0)
        partial = err.value.run
        assert abs(partial.t[-1] - 1.0) < 1e-9
        assert np.asarray(partial.y).shape == (len(partial.t), 4)


# -- reference: the tableau loops that the written-out stages replaced -----------
# Sums over the full rows of scipy's table, kept per component as the kernel
# once did; the written-out stages must reproduce every bit of them. The kernel
# summed with sum(), which adds left to right from 0 up to CPython 3.11; _dot
# does the same on every version (sum() compensates from 3.12 on).

_T = dop853_coefficients
_ROWS = [tuple(_T.A[i, :i].tolist()) for i in range(_T.N_STAGES_EXTENDED)]
_STAGES = tuple(zip(_ROWS[1:_T.N_STAGES], _T.C[1:_T.N_STAGES].tolist()))
_EXTRA_STAGES = tuple(zip(_ROWS[_T.N_STAGES + 1:], _T.C[_T.N_STAGES + 1:].tolist()))
_B, _E3, _E5 = _T.B.tolist(), _T.E3.tolist(), _T.E5.tolist()
_D = _T.D.tolist()


def _dot(a, b):
    return reduce(add, map(mul, a, b), 0.0)


def _reference_stages(fun, t, y, h, K, stages):
    """Append the stages `stages` to K, where K[i] lists the stage derivatives
    of component i so far."""
    for a, c in stages:
        ys = [yi + _dot(ki, a) * h for yi, ki in zip(y, K)]
        for ki, fi in zip(K, fun(t + c * h, ys)):
            ki.append(fi)


def _reference_error_norm(K, h, y, y_new, rtol, atol):
    e5 = e3 = 0.0
    for ki, a, b in zip(K, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        r5 = _dot(ki, _E5) / scale
        r3 = _dot(ki, _E3) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


# where the tests evaluate a step's interpolant, as fractions of the step
_FRACTIONS = (0.0, 0.3, 1.0)


def _reference_values(t, h, y, coeffs):
    """The interpolant at the fractions of the step, by the Horner loop that
    the written-out evaluation replaced."""
    values = []
    for frac in _FRACTIONS:
        x = (t + frac * h - t) / h
        x1 = 1 - x
        weights = (x, x1, x, x1, x, x1, x)
        out = []
        for yo, cs in zip(y, coeffs):
            acc = 0.0
            for c, w in zip(cs, weights):
                acc = (acc + c) * w
            out.append(acc + yo)
        values.append(out)
    return values


def _reference_step(fun, t, y, h, rtol, atol):
    """y_new, the error norm, the interpolant's coefficients and its values of
    one step."""
    f = fun(t, y)
    K = [[fi] for fi in f]
    _reference_stages(fun, t, y, h, K, _STAGES)
    y_new = [yi + h * _dot(ki, _B) for yi, ki in zip(y, K)]
    f_new = fun(t + h, y_new)
    for ki, fi in zip(K, f_new):
        ki.append(fi)
    err = _reference_error_norm(K, h, y, y_new, rtol, atol)
    _reference_stages(fun, t, y, h, K, _EXTRA_STAGES)
    coeffs = []
    for yo, yn, fo, fn, ki in zip(y, y_new, f, f_new, K):
        dy = yn - yo
        F = [dy, h * fo - dy, 2 * dy - h * (fn + fo)]
        F += [h * _dot(row, ki) for row in _D]
        coeffs.append(F[::-1])
    return y_new, err, coeffs, _reference_values(t, h, y, coeffs)


def _kernel_step(fun, t, y, h, rtol, atol):
    # the kernel reads its tolerances from efdyn.numerics
    assert (rtol, atol) == (ODE_RTOL, ODE_ATOL)
    f = fun(t, y)
    y_new, ks, err = _step_generic._step(fun, t, y, f, h)
    f_new = fun(t + h, y_new)
    piece = dop853.StepInterpolant(fun, t, h, y, y_new, ks, f_new)
    return y_new, err, piece.coeffs, [piece(t + frac * h) for frac in _FRACTIONS]


def _hex(x):
    """float.hex of every float in nested sequences, so that signed zeros count."""
    return x.hex() if isinstance(x, float) else [_hex(v) for v in x]


def _logged(fun, log):
    def rhs(t, y):
        out = fun(t, y)
        log.append(_hex([t, list(y), list(out)]))
        return out
    return rhs


# no exchange symmetry, absorption in the second equation
_NONSYMMETRIC = SystemParams(N=5.0, p=2.2, q=1.8, a=0.3, b=0.1, s=0.2, m=0.4,
                             delta=2.0, mu=1.5, eps2=-1)


class TestKernelBits:
    """The written-out stages against the reference loops, bit for bit: every
    stage (each RHS call with its arguments), y_new, the error estimate that
    the step returns, the 7 interpolant coefficients per component and the
    interpolant's values."""

    @pytest.mark.parametrize("h", [0.03, -0.03, 1e-7, -2.5])
    @pytest.mark.parametrize("fun,t,y", [
        # the phase system on the symmetric diagonal
        (phase_rhs(HAM6), 0.0, [0.6, 0.6, 2.2, 2.2]),
        (phase_rhs(HAM6), 3.0, [1e-5, 1e-5, 5.9999, 5.9999]),
        # states with a zero coordinate, of either sign
        (phase_rhs(HAM6), 0.0, [0.0, 0.4, 3.0, 2.0]),
        (phase_rhs(_NONSYMMETRIC), 1.0, [0.7, -0.0, 0.0, 2.5]),
        (phase_rhs(_NONSYMMETRIC), 1.0, [-0.0, -0.0, 4.0, 0.0]),
        # the radial system in t = ln r, with the fluxes U, V < 0
        (dynamics._radial_rhs(HAM6), -2.0, [0.9, 1.1, -0.05, -0.02]),
        (dynamics._radial_rhs(_NONSYMMETRIC), 0.5, [0.3, 0.2, -0.4, 0.1]),
        # y' = y^2 componentwise (`_squares`), with signed zeros
        (lambda t, y: (y[0] ** 2, y[1] ** 2, y[2] ** 2, y[3] ** 2), 0.0, SQUARES_Y0),
        (lambda t, y: (y[0] ** 2, y[1] ** 2, y[2] ** 2, y[3] ** 2), 0.0, [-0.0] * 4),
    ])
    def test_step_matches_reference_loops(self, fun, t, y, h):
        logs = [], []
        ref = _reference_step(_logged(fun, logs[0]), t, y, h, ODE_RTOL, ODE_ATOL)
        got = _kernel_step(_logged(fun, logs[1]), t, y, h, ODE_RTOL, ODE_ATOL)
        assert len(logs[1]) == 16
        assert logs[1] == logs[0]
        assert _hex(got[0]) == _hex(ref[0])
        assert got[1].hex() == ref[1].hex()
        assert _hex(got[2]) == _hex(ref[2])
        assert _hex(got[3]) == _hex(ref[3])

    @staticmethod
    def _outcome(step, fun, t, y, h):
        """The step's RHS calls and results in hex, or the error it raises."""
        log = []
        try:
            got = step(_logged(fun, log), t, y, h, ODE_RTOL, ODE_ATOL)
        except OverflowError as err:           # a power in the radial RHS
            return log, type(err).__name__
        return log, _hex(got[0]), got[1].hex(), _hex(got[2]), _hex(got[3])

    @given(st.sampled_from([phase_rhs(HAM6), phase_rhs(_NONSYMMETRIC),
                            dynamics._radial_rhs(HAM6), dynamics._radial_rhs(_NONSYMMETRIC)]),
           st.floats(-3.0, 3.0),
           st.lists(st.floats(0.0, 8.0), min_size=4, max_size=4),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
           st.floats(-8.0, math.log10(3.0)), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=250, deadline=None)
    def test_random_steps_match_reference_loops(self, fun, t, magnitudes, signs, log_h,
                                                h_sign):
        # signed states, zeros of either sign included, and steps |h| from 1e-8
        # to 3, log-uniform
        y = [m * s for m, s in zip(magnitudes, signs)]
        h = h_sign * 10 ** log_h
        ref = self._outcome(_reference_step, fun, t, y, h)
        # where a stage derivative overflows, the full-row sums meet 0 * inf =
        # nan in terms that the kernel skips: the bits agree on finite stages
        assume(all(math.isfinite(float.fromhex(v)) for call in ref[0] for v in call[2]))
        assert self._outcome(_kernel_step, fun, t, y, h) == ref

    def test_zero_error_with_an_underflowed_denominator(self):
        # a state that hypothesis once drew: e5 = 0 and 0.01 * e3 underflows,
        # so the norm's denominator is 0 as well; the norm is 0
        fun, h = dynamics._radial_rhs(_NONSYMMETRIC), -1e-5
        y = [0.0, 0.0, 4.547575581979385e-191, 0.0]
        ref = self._outcome(_reference_step, fun, 0.0, y, h)
        assert ref[2] == (0.0).hex()
        assert self._outcome(_kernel_step, fun, 0.0, y, h) == ref


# the four kernel steps, each in the module that dop853._run imports it from
_STEP_MODULES = {"_step": _step_generic, "_phase_step": _step_phase,
                 "_radial_step": _step_radial, "_diagonal_step": _step_diagonal}


def _step_calls(monkeypatch, name):
    """A one-item list that counts the calls of the kernel step `name`, in
    its module, from now on."""
    module = _STEP_MODULES[name]
    calls, real = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestPhaseStep:
    """The phase field's written-out step against the generic step on the
    same field, bit for bit, and the runs that take each."""

    @staticmethod
    def _both(params, t, y, h):
        """The outputs of both steps from (t, y), in float.hex."""
        rhs = phase_rhs(params)
        k0 = rhs(t, y)
        return (_hex(_step_phase._phase_step(rhs.phase_constants, t, y, k0, h)),
                _hex(_step_generic._step(rhs, t, y, k0, h)))

    # the fixed states of tests/pinned_bits.py: the phase cases of
    # TestKernelBits, two states of no symmetry and one that overflows
    @pytest.mark.parametrize("h", FUSED_STEP_H)
    @pytest.mark.parametrize("params,t,y", FUSED_STEP_STATES)
    def test_matches_step(self, params, t, y, h):
        fused, generic = self._both(params, t, y, h)
        _, ks, _ = fused
        assert len(ks) == 8 and all(len(k) == 4 for k in ks)
        assert fused == generic

    def test_last_pinned_state_overflows(self):
        params, t, y = FUSED_STEP_STATES[-1]
        _, ks, err = self._both(params, t, y, 0.03)[0]
        assert "inf" in ks[0] and "nan" in ks[1] and err == "nan"

    @given(st.sampled_from([HAM6, _NONSYMMETRIC, hamiltonian_params(5.0, 1.5, 2.5)]),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0),
                              st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                                        st.integers(-320, 200))),
                    min_size=4, max_size=4),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
           st.floats(-8.0, math.log10(3.0)), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=250, deadline=None)
    def test_random_steps_match(self, params, magnitudes, signs, log_h, h_sign):
        # signed zeros, subnormal to huge components whose stages overflow to
        # inf or nan, and steps |h| from 1e-8 to 3, log-uniform
        y = [m * s for m, s in zip(magnitudes, signs)]
        fused, generic = self._both(params, 0.0, y, h_sign * 10 ** log_h)
        assert fused == generic

    def test_phase_runs_take_the_phase_step(self, monkeypatch):
        # a shot read to its end and integrate_m, both off the diagonal, call
        # the written-out step only; scalar runs, on the diagonal, take the
        # diagonal step (TestDiagonalStep)
        generic = _step_calls(monkeypatch, "_step")
        fused = _step_calls(monkeypatch, "_phase_step")
        read_shot(hamiltonian_params(6.0, 1.6, 2.1), *dynamics._seed(0.3, RHO), RHO)
        integrate_m(HAM6, launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO), horizon=(0.0, 40.0))
        assert generic[0] == 0 and fused[0] > 100

    # a wrapper made with functools.wraps copies the constants and takes the
    # field's own step (_check_wraps_spy)
    @pytest.mark.parametrize("wrap", [
        lambda rhs: lambda t, y: rhs(t, y),
    ], ids=["closure"])
    def test_wrapped_field_takes_the_generic_step(self, monkeypatch, wrap):
        # a run with rejected steps and an event, which ends in a step size
        # underflow at blow-up
        rhs = phase_rhs(HAM6)
        y0 = launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO).coords
        events = [EventSpec("x", lambda t, y: y[0] - 0.25)]
        bits = []
        for fun in (rhs, wrap(rhs)):
            generic = _step_calls(monkeypatch, "_step")
            with pytest.raises(StepSizeUnderflow) as err:
                dop853.solve(fun, 0.0, y0, 40.0, events)
            sol = err.value.run
            ts = _inner_points(sol.t[:20])
            bits.append((generic[0], sol.status, _hex(sol.t), _hex(sol.y),
                         [(t.hex(), name) for t, name in sol.events],
                         sol.n_accepted, sol.n_rejected, sol.nfev,
                         _hex([sol.at(t) for t in ts])))
        (direct, *same), (wrapped, *other) = bits
        assert same[0] == -1 and len(same[3]) == 1 and same[5] > 0
        assert direct == 0 and wrapped == same[4] + same[5]     # every attempted step
        assert same == other


# exchange-symmetric systems whose phase field is diagonal-exact: the
# Hamiltonian, a potential system with s = m != 0, a nonvariational one and a
# weighted one with a = b != 0
_DIAGONAL_PHASE_PARAMS = [hamiltonian_params(6.0, 2.5, 2.5),
                          potential_params(6.0, 2.0, 2.0, 0.3, 0.3),
                          nonvariational_params(6.0, 0.5, 1.7, 1.7),
                          hamiltonian_params(6.0, 2.5, 2.5, a=0.4, b=0.4)]


# every scalar_classify case that runs the kernel: the threshold Q = Q1 runs
# nothing. Its phase runs are on the diagonal, and so are its radial runs,
# which take the radial step
_SCALAR_RUNS = {b: case for b, case in SCALAR_CASES.items()
                if b is not ScalarBehavior.THRESHOLD_Q1}
_SCALAR_STEPS = {b: ({"_radial_step"} if b is ScalarBehavior.ABSORPTION_ALL_REGULAR
                     else {"_diagonal_step"} if b in (ScalarBehavior.GROUND_STATE_ON_LINE,
                                                      ScalarBehavior.ABSORPTION_CONNECTION)
                     else {"_diagonal_step", "_radial_step"})
                 for b in _SCALAR_RUNS}

# the radial run of the shipped integrate config: params, u0, v0 and r_max
_CONFIGS = Path(__file__).parents[1] / "configs"
_CONFIG = json.loads((_CONFIGS / "integrate_radial_critical.json").read_text())
_RADIAL_CONFIG = (SystemParams.from_dict(_CONFIG["params"]),
                  *(_CONFIG["integrate"][k] for k in ("u0", "v0", "r_max")))


def _kernel_runs(monkeypatch):
    """A list that collects every kernel run (`Solution`) from now on: their
    counts are read when the runs are done."""
    runs, real = [], dop853._run

    def collected(*args):
        gen = real(*args)
        out = next(gen)
        runs.append(out)
        yield out
        yield from gen
    monkeypatch.setattr(dop853, "_run", collected)
    return runs


def _observe(monkeypatch, run, edit=None):
    """The output of `run`, the counts (n_accepted, n_rejected, nfev) of its
    kernel runs and the calls of each step, with `edit(monkeypatch)` applied
    first if given."""
    if edit is not None:
        edit(monkeypatch)
    calls = {name: _step_calls(monkeypatch, name) for name in _STEP_MODULES}
    runs = _kernel_runs(monkeypatch)
    out = run()
    monkeypatch.undo()
    return (out, [(s.n_accepted, s.n_rejected, s.nfev) for s in runs],
            {name: n[0] for name, n in calls.items()})


def _taken(calls) -> set:
    """The steps that a run called, each more than 10 times."""
    taken = {name for name, n in calls.items() if n}
    assert all(calls[name] > 10 for name in taken)
    return taken


def _spied_runs(monkeypatch, fun, t0, y0, t_bound, use_wraps):
    """A run of `fun` from (t0, y0) with an event, and the same run of a spy:
    a closure that logs the field's calls, made with functools.wraps(fun)
    if `use_wraps`. Per run, its output and counts and the steps it took,
    then the spy's calls."""
    events = [EventSpec("x", lambda t, y: y[0] - 0.7)]
    log, seen = [], []
    spy = _logged(fun, log)
    for field_ in (fun, wraps(fun)(spy) if use_wraps else spy):
        sol, counts, calls = _observe(
            monkeypatch, lambda: dop853.solve(field_, t0, y0, t_bound, events))
        seen.append(((_hex(sol.t), _hex(sol.y), sol.events, counts), _taken(calls)))
    return (*seen, len(log))


def _check_wraps_spy(seen, step):
    """A spy made with functools.wraps copies the field's constants and takes
    the field's own step: the same output and counts, and the spy is called
    only by the stepping loop, twice at the start, once per accepted step and
    3 times per interpolant that an event builds (one per located zero)."""
    (direct, taken), (spied, spied_taken), calls = seen
    assert direct == spied and taken == spied_taken == {step}
    _, _, events, [(n_accepted, n_rejected, nfev)] = spied
    assert events and calls == 2 + n_accepted + 3 * len(events)
    assert calls == nfev - 11 * (n_accepted + n_rejected)


def _off_diagonal(monkeypatch):
    # no run takes the diagonal step
    monkeypatch.setattr(dop853, "_on_diagonal", lambda y: False)


def _radial_closure(monkeypatch):
    # the radial field behind a closure, which carries no constants: every
    # radial run takes the generic step
    real = dynamics._radial_rhs

    def closed(params):
        rhs = real(params)
        return lambda t, y: rhs(t, y)
    monkeypatch.setattr(dynamics, "_radial_rhs", closed)


class TestDiagonalStep:
    """The phase field's diagonal step against the generic step (and against
    the phase field's written-out step) on diagonal states, bit for bit, its
    stage states against the field's arguments in the generic step, and the
    runs that take it: the same output and counts as the same runs on the
    four-component step."""

    @staticmethod
    def _check(params, t, y, h):
        fun = phase_rhs(params)
        k0 = fun(t, y)
        diagonal = diagonal_calls(params, t, y, k0, h)
        # X and Z of each of the 11 stages
        assert len(diagonal[0]) == 22
        assert diagonal == generic_calls(fun, t, y, k0, h, on_diagonal_states)
        fused = step_outcome(_step_phase._phase_step, fun.phase_constants, t, y, k0, h)
        assert diagonal[1] == fused
        return diagonal[1]

    def test_fields_are_diagonal_exact(self):
        # the constants come in exchange pairs, each equal to the bit
        assert all(dop853._on_diagonal(phase_rhs(P).phase_constants)
                   for P in _DIAGONAL_PHASE_PARAMS)
        assert all(dop853._on_diagonal(phase_rhs(P).phase_constants)
                   for P, _, _ in DIAGONAL_STEP_STATES)

    @pytest.mark.parametrize("params", [
        hamiltonian_params(6.0, 1.6, 2.1), _NONSYMMETRIC,
        # a signed zero of s against m rounds s X + delta Y apart from mu X + m Y
        SystemParams(N=6.0, p=2.0, q=2.0, s=-0.0, m=0.0, delta=2.0, mu=2.0),
    ], ids=["hamiltonian-1.6-2.1", "nonsymmetric", "signed-zero-s"])
    def test_other_fields_are_not(self, params):
        assert dop853._on_diagonal(phase_rhs(params).phase_constants) is False

    def test_field_reads_no_sign(self):
        # the phase field has no eps
        P = symmetric_scalar_embedding(3.5, 2.0, 4.0, eps=-1)
        assert dop853._on_diagonal(phase_rhs(P).phase_constants)

    # the fixed states of tests/pinned_bits.py
    @pytest.mark.parametrize("h", FUSED_STEP_H)
    @pytest.mark.parametrize("params,t,y", DIAGONAL_STEP_STATES)
    def test_matches_step(self, params, t, y, h):
        y_new, ks, _ = self._check(params, t, y, h)
        assert len(ks) == 8 and all(len(k) == 4 for k in ks)
        assert y_new[0] == y_new[1] and y_new[2] == y_new[3]

    def test_pinned_states_overflow(self):
        params, t, y = DIAGONAL_STEP_STATES[4]
        _, ks, err = self._check(params, t, y, 0.03)
        assert "inf" in ks[0] and "nan" in ks[1] and err == "nan"

    @given(st.sampled_from(_DIAGONAL_PHASE_PARAMS),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0),
                              st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                                        st.integers(-320, 200))),
                    min_size=2, max_size=2),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=2, max_size=2),
           st.floats(-8.0, math.log10(3.0)), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_random_steps_match(self, params, magnitudes, signs, log_h, h_sign):
        # diagonal states with signed zeros, subnormal to huge components whose
        # stages overflow to inf or nan, and steps |h| from 1e-8 to 3, log-uniform
        X, Z = (m * s for m, s in zip(magnitudes, signs))
        self._check(params, 0.0, (X, X, Z, Z), h_sign * 10 ** log_h)

    @pytest.mark.parametrize("y,on", [
        ((0.3, 0.3, 5.0, 5.0), True), ((-0.0, -0.0, 0.0, 0.0), True),
        ((math.inf, math.inf, -math.inf, -math.inf), True),
        ((math.nan, math.nan, 5.0, 5.0), False), ((0.3, 0.3, math.nan, math.nan), False),
        ((0.0, -0.0, 5.0, 5.0), False), ((0.3, 0.3, -0.0, 0.0), False),
        ((0.3, 0.30000000000000004, 5.0, 5.0), False),
    ])
    def test_on_diagonal_to_the_bit(self, y, on):
        assert dop853._on_diagonal(y) is on

    @pytest.mark.parametrize("run,taken", [
        (lambda: repr(read_shot(hamiltonian_params(6.0, 2.5, 2.5),
                                *dynamics._seed(math.pi / 4, RHO), RHO).to_dict()),
         {"_diagonal_step"}),
        (lambda: repr(read_shot(nonvariational_params(6.0, 0.5, 1.7, 1.7),
                                *dynamics._seed(math.pi / 4, RHO), RHO).to_dict()),
         {"_diagonal_step"}),
        *[(lambda case=case: repr(scalar_classify(*case).to_dict()), _SCALAR_STEPS[b])
          for b, case in _SCALAR_RUNS.items()],
    ], ids=["pi/4-shot-hamiltonian", "pi/4-shot-nonvariational",
            *[f"scalar-{b.name}" for b in _SCALAR_RUNS]])
    def test_diagonal_runs_take_the_diagonal_step(self, monkeypatch, run, taken):
        # a scalar case's phase runs take the diagonal step, its radial runs
        # the radial step
        out, counts, calls = _observe(monkeypatch, run)
        assert _taken(calls) == taken
        assert (out, counts) == _observe(monkeypatch, run, _off_diagonal)[:2]

    def test_threshold_scalar_case_runs_nothing(self, monkeypatch):
        # the one scalar case that _SCALAR_RUNS leaves out
        case = SCALAR_CASES[ScalarBehavior.THRESHOLD_Q1]
        assert _observe(monkeypatch, lambda: scalar_classify(*case))[1] == []

    @pytest.mark.parametrize("run", [
        # an off-diagonal seed and a system without exchange symmetry
        lambda: repr(read_shot(hamiltonian_params(6.0, 2.5, 2.5),
                               *dynamics._seed(0.3, RHO), RHO).to_dict()),
        lambda: repr(read_shot(hamiltonian_params(6.0, 1.6, 2.1),
                               *dynamics._seed(math.pi / 4, RHO), RHO).to_dict()),
        # zeros of opposite sign on a diagonal-exact field
        lambda: _hex(dop853.solve(phase_rhs(HAM6), 0.0, (0.0, -0.0, 5.5, 5.5), 5.0).y),
        # a diagonal state, and constants that are exchange-symmetric but for
        # the signed zeros s = -0.0, m = 0.0
        lambda: _hex(dop853.solve(phase_rhs(SystemParams(N=6.0, p=2.0, q=2.0, s=-0.0, m=0.0,
                                                         delta=2.0, mu=2.0)),
                                  0.0, (0.3, 0.3, 5.5, 5.5), 5.0).y),
    ], ids=["off-diagonal-seed", "nonsymmetric", "opposite-zeros", "signed-zero-s"])
    def test_other_runs_do_not(self, monkeypatch, run):
        assert _taken(_observe(monkeypatch, run)[2]) == {"_phase_step"}

    @staticmethod
    def _spied(monkeypatch, use_wraps):
        P = hamiltonian_params(6.0, 2.5, 2.5)
        y0 = launch_regular(P, *dynamics._seed(math.pi / 4, RHO), RHO).coords
        return _spied_runs(monkeypatch, phase_rhs(P), 0.0, y0, 40.0, use_wraps)

    def test_wrapped_field_takes_the_generic_step(self, monkeypatch):
        # a spy that is a plain closure runs the generic step, which calls it
        # 11 times an attempt: the same output and counts as the field's
        # diagonal run, the events' interpolants included
        (direct, taken), (spied, spied_taken), calls = self._spied(monkeypatch, False)
        assert direct == spied and taken == {"_diagonal_step"} and spied_taken == {"_step"}
        assert calls == spied[3][0][2] and spied[2]

    def test_functools_wraps_spy_takes_the_diagonal_step(self, monkeypatch):
        _check_wraps_spy(self._spied(monkeypatch, True), "_diagonal_step")


# radial systems: Hamiltonian ones (p = q = 2, s = m = 0) with a = b = 0 and
# with a != b, potential ones with a = b (p = 2 < q, and p, q != 2), the
# system of no symmetry, a weighted one whose exponents are exactly 1 and 0
# in one equation and not in the other, and a symmetric scalar embedding
# with eps = -1
_RADIAL_PARAMS = [HAM6, hamiltonian_params(5.0, 2.4, 1.7, a=0.3, b=-0.4),
                  potential_params(6.0, 2.0, 2.3, 0.4, 0.6),
                  potential_params(6.0, 2.4, 1.7, 0.3, 0.3, a=0.2), _NONSYMMETRIC,
                  SystemParams(N=5.0, p=2.0, q=3.0, a=0.0, b=0.5, s=0.0, m=0.7,
                               delta=1.5, mu=2.5),
                  symmetric_scalar_embedding(3.5, 2.0, 4.0, eps=-1)]


def _radial_states(params):
    """What the radial step's recorded constants read off a stage state of
    the generic step (t, (u, v, U, V)): r^ka (from c1 r^ka), v+ (v^delta),
    U (n1 U), r^kb (c2 r^kb), u+ (u^mu) and V (n1 V)."""
    _, _, ka, kb, *_ = dynamics._radial_rhs(params).radial_constants

    def states(t, y):
        u, v, U, V = y
        r = math.exp(t)
        return r ** ka, 0.0 if v < 0.0 else v, U, r ** kb, 0.0 if u < 0.0 else u, V
    return states


def _radial_calls(params, t, y, k0, h):
    """The radial step's output on the constants of `params` and the stage
    states it forms, recorded by c1, delta, n1, c2 and mu, in float.hex."""
    ep, eq, ka, kb, c1, c2, s, m, delta, mu, n1 = dynamics._radial_rhs(params).radial_constants
    log = []
    c1, c2, delta, mu, n1 = (Recorder(c, log) for c in (c1, c2, delta, mu, n1))
    fold = (ep, eq, ka, kb, c1, c2, s, m, delta, mu, n1)
    return [log, step_outcome(_step_radial._radial_step, fold, t, y, k0, h)]


class TestRadialStep:
    """The radial field's written-out step against the generic step on the
    same field, bit for bit, the errors its powers raise included, its stage
    states against the field's arguments in the generic step, and the runs
    that take it."""

    @staticmethod
    def _check(params, t, y, h):
        fun = dynamics._radial_rhs(params)
        k0 = fun(t, y)
        radial = _radial_calls(params, t, y, k0, h)
        generic = generic_calls(fun, t, y, k0, h, _radial_states(params))
        assert radial[1] == generic[1]
        if not isinstance(radial[1], str):
            # a step that raises stops its record in the failing stage
            assert len(radial[0]) == 66 and radial[0] == generic[0]
        return radial[1]

    def test_field_carries_its_constants(self):
        P = _NONSYMMETRIC
        fun = dynamics._radial_rhs(P)
        assert fun.radial_constants == (1 / (P.p - 1), 1 / (P.q - 1), 1 + P.a, 1 + P.b,
                                        -P.eps1, -P.eps2, P.s, P.m, P.delta, P.mu, P.N - 1)
        assert not hasattr(fun, "phase_constants")

    # the fixed states of tests/pinned_bits.py
    @pytest.mark.parametrize("h", FUSED_STEP_H)
    @pytest.mark.parametrize("params,t,y", RADIAL_STEP_STATES)
    def test_matches_step(self, params, t, y, h):
        out = self._check(params, t, y, h)
        if not isinstance(out, str):
            _, ks, _ = out
            assert len(ks) == 8 and all(len(k) == 4 for k in ks)

    def test_pinned_states_overflow(self):
        # stages that overflow to inf and nan, and powers that raise
        params, t, y = RADIAL_STEP_STATES[9]
        _, ks, err = self._check(params, t, y, 0.03)
        assert "inf" in ks[0] and "nan" in ks[1] and err == "nan"
        assert self._check(params, t, y, -0.03) == "OverflowError"
        params, t, y = RADIAL_STEP_STATES[10]
        assert self._check(params, t, y, 1e-7) == "OverflowError"

    @pytest.mark.parametrize("params,exact", [
        # p = q = 2, a = b = 0, s = m = 0: every skippable power is exact
        (HAM6, {"ep", "eq", "ka", "kb", "s", "m"}),
        # a != b: r^ka and r^kb are formed
        (hamiltonian_params(5.0, 2.4, 1.7, a=0.3, b=-0.4), {"ep", "eq", "s", "m"}),
        # a = b != 0: r^kb is r^ka, formed once
        (potential_params(6.0, 2.4, 1.7, 0.3, 0.3, a=0.2), {"kb"}),
        (SystemParams(N=5.0, p=2.0, q=3.0, a=0.0, b=0.5, s=0.0, m=0.7, delta=1.5, mu=2.5),
         {"ep", "ka", "s"}),
    ], ids=["hamiltonian", "hamiltonian-a!=b", "potential-a=b", "mixed"])
    def test_exact_powers_are_skipped(self, params, exact):
        # a constant recorded as an exponent shows each power formed with it:
        # 11 a step, none for a power that is exact
        names = ("ep", "eq", "ka", "kb", "s", "m")
        fold = dict(zip(("ep", "eq", "ka", "kb", "c1", "c2", "s", "m", "delta", "mu", "n1"),
                        dynamics._radial_rhs(params).radial_constants))
        logs = {name: [] for name in names}
        for name in names:
            fold[name] = Recorder(fold[name], logs[name])
        y = (0.9, 1.1, -0.05, -0.02)
        _step_radial._radial_step(tuple(fold.values()), -2.0, y,
                                  dynamics._radial_rhs(params)(-2.0, y), 0.03)
        assert {name: len(log) for name, log in logs.items()} == {
            name: 0 if name in exact else 11 for name in names}

    @given(st.sampled_from(_RADIAL_PARAMS), st.floats(-3.0, 3.0),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0),
                              st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                                        st.integers(-320, 200))),
                    min_size=4, max_size=4),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
           st.booleans(), st.floats(-8.0, math.log10(3.0)), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=400, deadline=None)
    def test_random_steps_match(self, params, t, magnitudes, signs, diagonal, log_h, h_sign):
        # u, v of either sign, fluxes U, V from subnormal to huge, whose stages
        # overflow to inf or nan or whose powers raise, signed zeros, states on
        # the diagonal u = v, U = V, and steps |h| from 1e-8 to 3, log-uniform
        u, v, U, V = (m * s for m, s in zip(magnitudes, signs))
        if diagonal:
            v, V = u, U
        try:
            dynamics._radial_rhs(params)(t, (u, v, U, V))
        except ArithmeticError:
            assume(False)
        self._check(params, t, (u, v, U, V), h_sign * 10 ** log_h)

    @pytest.mark.parametrize("run", [
        lambda: repr(integrate_radial(*_RADIAL_CONFIG)),
        lambda: repr(integrate_radial(hamiltonian_params(6.0, 1.6, 2.1), 1.0, 1.0, 1e12)),
        lambda: oracle_value(*ORACLE_POINTS[2]).hex(),
        lambda: repr(search_dirichlet(hamiltonian_params(6.0, 1.5, 1.5), n_angles=9)),
        lambda: repr(scalar_classify(*SCALAR_CASES[ScalarBehavior.ABSORPTION_ALL_REGULAR])
                     .to_dict()),
        # s = m != 0: the run leaves the diagonal
        lambda: _hex(dop853.solve(*dynamics._radial_problem(
            potential_params(6.0, 2.0, 2.0, 0.3, 0.3), 1.0, 1.0, 1e4)).y),
    ], ids=["integrate-config", "integrate-hamiltonian-1.6-2.1", "oracle", "search-dirichlet",
            "scalar-ABSORPTION_ALL_REGULAR", "s=m=0.3"])
    def test_radial_runs_take_the_radial_step(self, monkeypatch, run):
        # no generic step: the radial runs take the radial step, the phase runs
        # and shots the phase or diagonal step; with the radial field behind a
        # closure, the generic step gives the same output and counts
        out, counts, calls = _observe(monkeypatch, run)
        assert "_radial_step" in _taken(calls) and calls["_step"] == 0
        generic = _observe(monkeypatch, run, _radial_closure)
        assert generic[2]["_radial_step"] == 0
        assert (out, counts) == generic[:2]

    def test_radial_run_with_s_equal_m_leaves_the_diagonal(self):
        # on u = v the flux products c r^ka u^s v^delta and c r^kb u^mu v^m
        # round apart
        P = potential_params(6.0, 2.0, 2.0, 0.3, 0.3)
        sol = dop853.solve(*dynamics._radial_problem(P, 1.0, 1.0, 1e4))
        assert sol.y[0][0] == sol.y[0][1] and sol.y[0][2] == sol.y[0][3]
        assert sum((u, U) != (v, V) for u, v, U, V in sol.y) == 100 and len(sol.y) == 145

    @pytest.mark.parametrize("config", sorted(p.stem for p in _CONFIGS.glob("*.json")))
    def test_shipped_configs_take_no_generic_step(self, monkeypatch, tmp_path, capsys, config):
        path = _CONFIGS / f"{config}.json"
        command = json.loads(path.read_text())["command"]
        code, _, calls = _observe(monkeypatch, lambda: cli_main(
            [command, "--config", str(path), "--out", str(tmp_path / "out")]))
        capsys.readouterr()
        assert code == 0 and calls["_step"] == 0

    @staticmethod
    def _spied(monkeypatch, use_wraps):
        y0 = (1.0, 1.0, -RADIAL_R0 / 6, -RADIAL_R0 / 6)
        return _spied_runs(monkeypatch, dynamics._radial_rhs(HAM6), math.log(RADIAL_R0), y0,
                           math.log(1e4), use_wraps)

    def test_wrapped_field_takes_the_generic_step(self, monkeypatch):
        # a spy that is a plain closure runs the generic step, which calls it
        # 11 times an attempt: the same output and counts as the field's run,
        # the events' interpolants included
        (direct, taken), (spied, spied_taken), calls = self._spied(monkeypatch, False)
        assert direct == spied and taken == {"_radial_step"} and spied_taken == {"_step"}
        assert calls == spied[3][0][2] and spied[2]

    def test_functools_wraps_spy_takes_the_radial_step(self, monkeypatch):
        _check_wraps_spy(self._spied(monkeypatch, True), "_radial_step")


class TestSameBitsOnEveryPython:
    """The initial step adds its squares left to right, as `sum()` did up to
    Python 3.11: from 3.12 on `sum()` compensates, and on this shot's start
    state that moved its y-bound time by 7 ulp. The shot and its hit times
    are pinned in tests/pinned_bits.py."""

    @staticmethod
    def _rms(xs):
        total = xs[0] * xs[0]
        for x in xs[1:]:
            total = total + x * x
        return math.sqrt(total) / 2.0

    def test_initial_step_adds_left_to_right(self):
        seed = launch_regular(SAME_BITS_PARAMS, *dynamics._seed(SAME_BITS_THETA, RHO))
        rhs, _, y0, t_bound, _ = dynamics._phase_problem(SAME_BITS_PARAMS, seed, (0.0, 40.0), ())
        f0 = rhs(0.0, y0)
        scale = [ODE_ATOL + abs(v) * ODE_RTOL for v in y0]
        d0 = self._rms([v / s for v, s in zip(y0, scale)])
        d1 = self._rms([v / s for v, s in zip(f0, scale)])
        assert dop853._rms([v / s for v, s in zip(y0, scale)]) == d0
        assert dop853._rms([v / s for v, s in zip(f0, scale)]) == d1
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
        f1 = rhs(h0, [v + h0 * fv for v, fv in zip(y0, f0)])
        d2 = self._rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
        assert d1 > 1e-15 or d2 > 1e-15
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        got = dop853._initial_step(rhs, 0.0, y0, f0, t_bound, 1.0)
        assert got.hex() == min(100 * h0, h1, t_bound).hex()

    def test_shot_hit_times(self):
        assert same_bits_hits() == SAME_BITS_HITS

    def test_shot_counts(self):
        # the shot's run read to its end: (n_accepted, n_rejected, nfev)
        assert same_bits_counts() == SAME_BITS_COUNTS


class TestKernelPauseResume:
    """dop853.steps paused after an accepted step and drained later gives
    dop853.solve's run, bit for bit, whatever runs in between."""

    @staticmethod
    def _bits(sol):
        return (sol.status, _hex(sol.t), _hex(sol.y), [(t.hex(), n) for t, n in sol.events],
                [_hex(sol.at(t)) for t, _ in sol.events], sol.nfev, sol.n_accepted,
                sol.n_rejected)

    def _assert_pauses_are_invisible(self, rhs, t0, y0, t_bound, events):
        ref = _drained(dop853.steps(rhs, t0, y0, t_bound, events))
        n = ref.n_accepted
        assert n > 10
        for pause in sorted({1, 2, n // 3, n // 2, n - 1}):
            run = dop853.steps(rhs, t0, y0, t_bound, events)
            for _ in range(pause):
                sol = next(run)
            # the paused run holds the first `pause` steps of the whole run
            assert sol.status is None and sol.n_accepted == pause
            assert _hex(sol.t) == _hex(ref.t[:pause + 1])
            # another run in between, one that underflows, shares no state
            # with the paused one
            with pytest.raises(StepSizeUnderflow):
                dop853.solve(phase_rhs(HAM6), 0.0, [0.05, 0.07, 5.5, 5.4], 3.0)
            assert self._bits(_drained(run)) == self._bits(ref)

    @pytest.mark.parametrize("params,xy", SCIPY_SHOTS)
    def test_paused_shot_equals_solve(self, monkeypatch, params, xy):
        calls = TestKernelAgainstScipy._recorded_solves(
            monkeypatch, lambda: classify_shot(params, *xy, RHO), "steps")
        self._assert_pauses_are_invisible(*calls[0])

    @pytest.mark.parametrize("rhs,span,y0", [
        # the regular radial solution of the critical Hamiltonian system
        (dynamics._radial_rhs(HAM6), (math.log(RADIAL_R0), math.log(1e4)),
         [1.0, 1.0, -RADIAL_R0 / 6, -RADIAL_R0 / 6]),
        # y' = y^2 blows up at t = 1: the run ends in a step underflow
        (_squares, (0.0, 2.0), SQUARES_Y0),
    ], ids=["radial", "underflow"])
    def test_paused_run_equals_solve(self, rhs, span, y0):
        self._assert_pauses_are_invisible(rhs, span[0], y0, span[1], ())


class TestKernelCounts:
    @staticmethod
    def _counting(fun):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return fun(t, y)
        return rhs, calls

    def test_counts_without_events(self):
        # the regular radial solution of the critical Hamiltonian system
        rhs, calls = self._counting(dynamics._radial_rhs(HAM6))
        r0 = RADIAL_R0
        sol = dop853.solve(rhs, math.log(r0), [1.0, 1.0, -r0 / 6, -r0 / 6], math.log(1e4))
        assert sol.status == 0
        assert sol.nfev == calls[0]
        assert sol.n_accepted == len(sol.t) - 1
        assert sol.n_rejected > 0

    def test_rejected_attempts_skip_the_new_derivative(self):
        # the error test does not read f at the step's end: 11 RHS calls per
        # attempted step, 1 more per accepted step, 2 to start
        rhs, calls = self._counting(dynamics._radial_rhs(HAM6))
        r0 = RADIAL_R0
        sol = dop853.solve(rhs, math.log(r0), [1.0, 1.0, -r0 / 6, -r0 / 6], math.log(1e4))
        assert sol.n_rejected > 0
        assert calls[0] == 2 + 11 * (sol.n_accepted + sol.n_rejected) + sol.n_accepted

    def test_counts_with_events(self):
        rhs, calls = self._counting(phase_rhs(HAM6))
        events = [EventSpec("x", lambda t, y: y[0] - 0.25),
                  EventSpec("blow-up", lambda t, y: abs(y[1]) - 1e6, terminal=True)]
        sol = dop853.solve(rhs, 0.0, [0.05, 0.07, 5.5, 5.4], 40.0, events)
        assert sol.status == 1 and "x" in {name for _, name in sol.events}
        assert sol.nfev == calls[0]
        assert sol.n_accepted == len(sol.t) - 1

    @pytest.mark.parametrize("n", [1, 5])
    def test_state_must_have_four_components(self, n):
        with pytest.raises(ValueError, match=f"not {n}$"):
            dop853.steps(_squares, 0.0, [1.0] * n, 2.0)
        with pytest.raises(ValueError, match=f"not {n}$"):
            dop853.solve(_squares, 0.0, [1.0] * n, 2.0)

    def test_counts_on_step_size_underflow(self):
        rhs, calls = self._counting(_squares)
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(rhs, 0.0, SQUARES_Y0, 2.0)
        sol = err.value.run
        assert sol.status == -1
        assert sol.nfev == calls[0]
        assert sol.n_accepted == len(sol.t) - 1

    def test_radial_run_counts(self):
        # the run of tests/pinned_bits.py: (n_accepted, n_rejected, nfev)
        assert radial_counts() == RADIAL_COUNTS

    def test_terminal_state_is_the_dense_output_at_its_root(self):
        # a terminal event ends the run on the step interpolant at its root:
        # the run's last point is the root and its last state `at` there
        runs = [shot_run(hamiltonian_params(6.0, 1.6, 2.1), *dynamics._seed(0.9, RHO), RHO),
                dop853.solve(*dynamics._radial_problem(RADIAL_PARAMS, 1.0, 1.0, 1e12)),
                dop853.solve(phase_rhs(HAM6), 0.0, [0.05, 0.07, 5.5, 5.4], 40.0,
                             [EventSpec("x", lambda t, y: y[0] - 0.25),
                              EventSpec("blow-up", lambda t, y: abs(y[1]) - 1e6,
                                        terminal=True)])]
        for sol in runs:
            assert sol.status == 1 and len(sol.events) >= 2
            assert sol.events[-1][0] == sol.t[-1]
            assert _hex(sol.at(sol.t[-1])) == _hex(sol.y[-1])

    def test_m0_basin_shot_counts(self):
        # the diagonal shot of tests/pinned_bits.py, ended on entering M0's
        # certified basin: (n_accepted, n_rejected, nfev)
        assert m0_basin_counts() == M0_BASIN_COUNTS


def _wall(t, y):
    """y' finite up to t = 0.5 and infinite past it: a step that crosses
    t = 0.5 has a NaN error estimate."""
    return (math.inf if t > 0.5 else 1.0, -y[1], y[2], 0.0)


def _points_digest(ts):
    """SHA-256 of a run's accepted points as float.hex, one a line."""
    return hashlib.sha256("\n".join(t.hex() for t in ts).encode()).hexdigest()


class TestControllerBranches:
    """Runs through the edge branches of the step-size controller, with their
    accepted points (float.hex) and counts (n_accepted, n_rejected, nfev) as
    the controller written with min() and max() gave them."""

    @staticmethod
    def _estimates(monkeypatch):
        """The error estimate of every attempted step, in a list that grows."""
        errs, step = [], _step_generic._step

        def logged(*args):
            out = step(*args)
            errs.append(out[2])
            return out
        monkeypatch.setattr(_step_generic, "_step", logged)
        return errs

    def test_zero_estimate_grows_the_step_by_max_factor(self, monkeypatch):
        # y' = 0: every estimate is exactly 0, and each step is MAX_FACTOR
        # times the one before, from the initial 1e-6 to the clipped last one
        errs = self._estimates(monkeypatch)
        sol = dop853.solve(lambda t, y: (0.0, 0.0, 0.0, 0.0), 0.0, (1.0, -2.0, 0.0, 3.0), 100.0)
        assert errs == [0.0] * 9
        assert (sol.status, sol.n_accepted, sol.n_rejected, sol.nfev) == (0, 9, 0, 110)
        assert [t.hex() for t in sol.t] == [
            "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20", "0x1.711947cfa26a2p-17",
            "0x1.d19157abb8800p-14", "0x1.233df2a9d627cp-10", "0x1.6c15d2d01c0cap-7",
            "0x1.c71c53f39d1b1p-4", "0x1.1c71c53f39d1ap+0", "0x1.638e38a7e73a2p+3",
            "0x1.9000000000000p+6"]

    def test_step_underflow_run(self, monkeypatch):
        # the `_squares` run: rejections near the blow-up at t = 1 until the
        # step underflows; its estimates stay finite
        errs = self._estimates(monkeypatch)
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(_squares, 0.0, SQUARES_Y0, 2.0)
        sol = err.value.run
        assert all(math.isfinite(e) for e in errs) and len(errs) == 493
        assert (sol.status, sol.n_accepted, sol.n_rejected, sol.nfev) == (-1, 248, 245, 5673)
        assert sol.t[-1].hex() == "0x1.0000000012e9fp+0"
        assert _points_digest(sol.t) == \
            "42e53c039157007c351124a5eed40f7c1a64e40f0b779b3cf1ffbd1b7a6078bd"

    def test_nan_estimate_shrinks_the_step_by_min_factor(self, monkeypatch):
        # every step that crosses t = 0.5 has a NaN estimate, rejected with
        # MIN_FACTOR (scipy's max(MIN_FACTOR, nan)), until the step underflows
        errs = self._estimates(monkeypatch)
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(_wall, 0.0, (0.0, 1.0, 1.0, 2.0), 2.0)
        sol = err.value.run
        assert sum(e != e for e in errs) == 42
        assert (sol.status, sol.n_accepted, sol.n_rejected, sol.nfev) == (-1, 41, 42, 956)
        assert sol.t[-1].hex() == "0x1.ffffffffffffcp-2"
        assert _points_digest(sol.t) == \
            "6a892f84643b1f49d8afcc66b34a56cfe320e07cba946f91a63261301424dd71"


def test_blow_up_value_is_max_of_abs():
    # the blow-up event's comparisons give max(abs(y[0]), ..., abs(y[3])) -
    # BLOW_UP, with signed zeros, ties, infinities and NaN in every place
    fn = dynamics._blow_up().fn
    values = (0.0, -0.0, 1.0, -1.0, -2.5, BLOW_UP, -2e6, math.inf, -math.inf, math.nan)
    for y in itertools.product(values, repeat=4):
        want = max(abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3])) - BLOW_UP
        got = fn(0.0, y)
        assert got.hex() == want.hex() or got != got and want != want, y


def _eager_solve(rhs, t0, y0, t_bound, events):
    """`dop853.solve` with each step's interpolant built when its step is
    taken: the run is read at its newest point after every step."""
    for sol in dop853.steps(rhs, t0, y0, t_bound, events):
        sol.at(sol.t[-1])
    return sol


def _inner_points(ts, fractions=(0.0, 0.1, 0.5, 0.9, 1.0)):
    """Points on every step of a run: its ends and some inner points."""
    return [a + f * (b - a) for a, b in zip(ts, ts[1:]) for f in fractions]


# a phase run to blow-up (terminal events), and the regular radial solution of
# the critical Hamiltonian system to r = 1e4
_DENSE_RUNS = [
    dynamics._phase_problem(HAM6, launch_regular(HAM6, 0.6 * RHO, 0.4 * RHO), (0.0, 40.0), ()),
    (dynamics._radial_rhs(HAM6), math.log(RADIAL_R0), [1.0, 1.0, -RADIAL_R0 / 6, -RADIAL_R0 / 6],
     math.log(1e4), ()),
]


class TestLazyInterpolant:
    """`Solution.at` builds a step's interpolant on its first read: the values
    are those of interpolants built as the steps are taken, and only the
    pieces built during the run count in `nfev`."""

    @pytest.mark.parametrize("rhs,t0,y0,t_bound,events", _DENSE_RUNS, ids=["phase", "radial"])
    def test_values_equal_eager_pieces(self, rhs, t0, y0, t_bound, events):
        lazy = dop853.solve(rhs, t0, y0, t_bound, events)
        eager = _eager_solve(rhs, t0, y0, t_bound, events)
        assert all(type(piece) is dop853.StepInterpolant for piece in eager.pieces)
        assert _hex(lazy.t) == _hex(eager.t) and len(lazy.t) > 50
        ts = _inner_points(lazy.t)
        assert _hex([lazy.at(t) for t in ts]) == _hex([eager.at(t) for t in ts])

    @pytest.mark.parametrize("rhs,t0,y0,t_bound,events", _DENSE_RUNS, ids=["phase", "radial"])
    def test_first_evaluation_builds_the_piece(self, rhs, t0, y0, t_bound, events):
        rhs, calls = TestKernelCounts._counting(rhs)
        sol = dop853.solve(rhs, t0, y0, t_bound, events)
        assert sol.nfev == calls[0]
        run = calls[0]
        k = len(sol.t) // 2
        a, b = sol.t[k], sol.t[k + 1]
        sol.at(a + 0.3 * (b - a))
        assert calls[0] == run + 3
        sol.at(a + 0.8 * (b - a))
        sol.at(a + 0.3 * (b - a))
        assert calls[0] == run + 3
        assert sol.nfev == run            # the run's count does not move

    def test_event_step_is_built_during_the_run(self):
        rhs, calls = TestKernelCounts._counting(phase_rhs(HAM6))
        events = [EventSpec("x", lambda t, y: y[0] - 0.25)]
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(rhs, 0.0, [0.05, 0.07, 5.5, 5.4], 40.0, events)
        sol = err.value.run
        ((t_ev, _),) = sol.events
        assert sol.nfev == calls[0] == 2 + 12 * sol.n_accepted + 11 * sol.n_rejected + 3
        run = calls[0]
        sol.at(t_ev)
        k = next(i for i, t in enumerate(sol.t) if t > t_ev)
        sol.at(0.5 * (sol.t[k - 1] + sol.t[k]))
        assert calls[0] == run


class _CountedInterpolant(dop853.StepInterpolant):
    """A step interpolant that counts its instances in `built`."""

    __slots__ = ()
    built = [0]

    def __init__(self, *args):
        super().__init__(*args)
        self.built[0] += 1


def _solved(*problem):
    """`dop853.solve`'s run of `problem`; where its step size collapses, the
    failed run (status -1) that StepSizeUnderflow carries."""
    try:
        return dop853.solve(*problem)
    except StepSizeUnderflow as exc:
        return exc.run


class TestEveryRunKeepsDenseOutput:
    """Every kernel run keeps each step's data: a `steps` run answers `at`
    with `solve`'s bits wherever it stands, a shot paused at its S-decision
    and a failed run included. It builds a step interpolant during the run
    only where it locates an event, and on a read of `at`."""

    @pytest.fixture
    def built(self, monkeypatch):
        monkeypatch.setattr(dop853, "StepInterpolant", _CountedInterpolant)
        _CountedInterpolant.built[0] = 0
        return _CountedInterpolant.built

    @pytest.mark.parametrize("rhs,span,y0", [
        (dynamics._radial_rhs(HAM6), (math.log(RADIAL_R0), math.log(1e4)),
         [1.0, 1.0, -RADIAL_R0 / 6, -RADIAL_R0 / 6]),
        # backward in time toward N0
        (phase_rhs(HAM6), (0.0, -8.0), [0.6, 0.6, 2.2, 2.2]),
        # a run that ends on a step size underflow, and one over an empty span
        (_squares, (0.0, 2.0), SQUARES_Y0),
        (_squares, (1.0, 1.0), SQUARES_Y0),
    ], ids=["ascending-radial", "descending-phase", "underflow", "empty-span"])
    def test_steps_run_answers_at_as_solve(self, built, rhs, span, y0):
        # one piece per step: the data of its interpolant, or the constant of
        # the empty span; none is built until it is read
        ref = _solved(rhs, span[0], y0, span[1])
        assert len(ref.pieces) == len(ref.t) - 1 and built[0] == 0
        run = dop853.steps(rhs, span[0], y0, span[1])
        for _ in range(max(1, ref.n_accepted // 2)):
            sol = next(run)
        # paused halfway, the run answers over the steps that it has taken
        ts = _inner_points(sol.t)
        assert _hex([sol.at(t) for t in ts]) == _hex([ref.at(t) for t in ts])
        sol = _drained(run, sol)
        assert (sol.status, _hex(sol.t), sol.nfev) == (ref.status, _hex(ref.t), ref.nfev)
        ts = _inner_points(ref.t)
        assert _hex([sol.at(t) for t in ts]) == _hex([ref.at(t) for t in ts])
        # reading every step builds each interpolant of each run once
        assert built[0] == (0 if span[0] == span[1] else 2 * (len(ref.t) - 1))

    def test_paused_shot_answers_at_as_its_whole_run(self, monkeypatch, built):
        # a shot stopped at its S-decision holds one piece per step; during
        # the run it builds the pieces of the steps that locate an event only,
        # and nfev counts their three extra stages each
        P = hamiltonian_params(6.0, 1.6, 2.1)
        seed = dynamics._seed(0.3, RHO)
        runs, real = [], dop853.steps

        def steps(*args):
            run = real(*args)
            runs.append(next(run))
            yield runs[-1]
            yield from run
        with monkeypatch.context() as patch:
            patch.setattr(dop853, "steps", steps)
            classify_shot(P, *seed, RHO)
        (paused,) = runs
        assert paused.status is None and len(paused.pieces) == len(paused.t) - 1
        assert 0 < built[0] <= len(paused.events) < paused.n_accepted
        assert paused.nfev == 2 + 12 * paused.n_accepted + 11 * paused.n_rejected + 3 * built[0]
        built[0] = 0
        whole = shot_run(P, *seed, RHO)
        assert whole.status == 1 and len(whole.pieces) == len(whole.t) - 1
        assert whole.nfev == 2 + 12 * whole.n_accepted + 11 * whole.n_rejected + 3 * built[0]
        n = len(paused.t)
        assert n < len(whole.t) and _hex(paused.t) == _hex(whole.t[:n])
        ts = _inner_points(paused.t) + [t for t, _ in paused.events]
        assert _hex([paused.at(t) for t in ts]) == _hex([whole.at(t) for t in ts])

    def test_failed_shot_answers_at(self, monkeypatch):
        # a shot whose field turns NaN at t = 3 stalls there: the run that its
        # StepSizeUnderflow carries answers `at` over its steps, with the bits
        # of the sound run on the steps that the two share
        P = hamiltonian_params(6.0, 1.6, 2.1)
        seed = dynamics._seed(0.3, RHO)
        sound = shot_run(P, *seed, RHO)
        real = dynamics.phase_rhs

        def faulty(params):
            rhs = real(params)
            return lambda t, y: (math.nan,) * 4 if t >= 3.0 else rhs(t, y)
        monkeypatch.setattr(dynamics, "phase_rhs", faulty)
        with pytest.raises(StepSizeUnderflow) as err:
            classify_shot(P, *seed, RHO)
        failed = err.value.run
        assert failed.status == -1 and len(failed.pieces) == len(failed.t) - 1
        assert failed.t[-1] < 3.0
        shared = next(k for k, (a, b) in enumerate(zip(failed.t, sound.t)) if a != b)
        assert shared > 5
        ts = _inner_points(failed.t[:shared])
        assert _hex([failed.at(t) for t in ts]) == _hex([sound.at(t) for t in ts])
        failed.at(failed.t[-1])

    def test_solve_keeps_dense_output(self):
        # a backward run reads its points as descending; the underflow run and
        # the empty span's run hold their dense output too
        sol = dop853.solve(phase_rhs(HAM6), 0.0, [0.6, 0.6, 2.2, 2.2], -8.0)
        assert sol.status == 0 and sol.t[-1] < sol.t[0]
        assert len(sol.pieces) == len(sol.t) - 1
        assert _hex(sol.at(sol.t[7])) == _hex(sol.y[7])
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(_squares, 0.0, SQUARES_Y0, 2.0)
        failed = err.value.run
        assert failed.status == -1 and len(failed.pieces) == len(failed.t) - 1
        assert dop853.solve(_squares, 1.0, SQUARES_Y0, 1.0).at(1.0) == tuple(SQUARES_Y0)


class TestOracleStop:
    """oracle_compare stops its phase run at the window end, where it first
    leaves 60% of the box, and its radial run once it covers every time that
    the comparison reads."""

    POINT = (HAM6, 0.6e-6, 0.4e-6, 1e-6)

    @staticmethod
    def _calls(monkeypatch, factory, nan_on=(math.inf, math.inf)):
        """A count of the right-hand side evaluations of the runs started from
        now on that integrate the system `dynamics.<factory>` makes
        (`_radial_rhs` or `phase_rhs`); the right-hand side is NaN for t in
        [lo, hi) = nan_on, which leaves the initial-step probe at the span's
        end alone."""
        calls, real = [0], getattr(dynamics, factory)

        def patched(params):
            rhs = real(params)

            def counted(t, y):
                calls[0] += 1
                return (math.nan,) * 4 if nan_on[0] <= t < nan_on[1] else rhs(t, y)
            return counted
        monkeypatch.setattr(dynamics, factory, patched)
        return calls

    def test_fewer_radial_calls_than_integrate_radial(self, monkeypatch):
        calls = self._calls(monkeypatch, "_radial_rhs")
        P, x, y, rho = self.POINT
        assert oracle_compare(P, x, y, rho).hex() == ORACLE_HEX[0]
        oracle = calls[0]
        calls[0] = 0
        u0, v0, _ = normalized_regular_data(P, x, y)
        integrate_radial(P, u0, v0, r_max=math.exp(dynamics.T_END))
        assert 0 < oracle < calls[0]

    def test_radial_run_ends_at_its_read_end(self, monkeypatch):
        # both runs go through dop853.solve; the radial one ends at its
        # terminal read-end event, at the last time the comparison may read
        runs, real = [], dop853.solve

        def solve(*args):
            runs.append(real(*args))
            return runs[-1]
        monkeypatch.setattr(dop853, "solve", solve)
        P, x, y, rho = self.POINT
        assert oracle_compare(P, x, y, rho).hex() == ORACLE_HEX[0]
        phase, radial = runs
        t_read = phase.t[-1] - normalized_regular_data(P, x, y)[2] + 0.5 + 1e-6
        assert radial.status == 1 and radial.events[-1][1] == "read-end"
        assert radial.t[-1] == radial.events[-1][0] >= t_read

    def test_radial_failure_before_the_window_end_raises(self, monkeypatch):
        # the comparison reads the radial run up to t = 1.53 here
        self._calls(monkeypatch, "_radial_rhs", nan_on=(1.0, 1.5))
        with pytest.raises(StepSizeUnderflow):
            oracle_compare(*self.POINT)

    def test_radial_failure_past_the_window_end_is_not_reached(self, monkeypatch):
        # integrate_radial runs on to the u-zero at t = 8.59 and fails at 5
        self._calls(monkeypatch, "_radial_rhs", nan_on=(5.0, 5.5))
        P, x, y, rho = self.POINT
        u0, v0, _ = normalized_regular_data(P, x, y)
        with pytest.raises(StepSizeUnderflow):
            integrate_radial(P, u0, v0, r_max=math.exp(dynamics.T_END))
        assert oracle_compare(P, x, y, rho).hex() == ORACLE_HEX[0]

    def test_fewer_phase_calls_than_integrate_m(self, monkeypatch):
        calls = self._calls(monkeypatch, "phase_rhs")
        P, x, y, rho = self.POINT
        assert oracle_compare(P, x, y, rho).hex() == ORACLE_HEX[0]
        oracle = calls[0]
        calls[0] = 0
        integrate_m(P, launch_regular(P, x, y, rho), horizon=(0.0, dynamics.T_END))
        assert 0 < oracle < calls[0]

    def test_phase_failure_before_the_window_end_raises(self, monkeypatch):
        # the phase run leaves 60% of the box at t = 7.43 here
        self._calls(monkeypatch, "phase_rhs", nan_on=(7.0, 7.2))
        with pytest.raises(StepSizeUnderflow):
            oracle_compare(*self.POINT)

    def test_phase_failure_past_the_window_end_is_not_reached(self, monkeypatch):
        # integrate_m runs on to the blow-up at t = 7.77 and fails at 7.6
        self._calls(monkeypatch, "phase_rhs", nan_on=(7.6, 7.7))
        P, x, y, rho = self.POINT
        with pytest.raises(StepSizeUnderflow):
            integrate_m(P, launch_regular(P, x, y, rho), horizon=(0.0, dynamics.T_END))
        assert oracle_compare(P, x, y, rho).hex() == ORACLE_HEX[0]

    def test_run_that_never_reaches_the_window_keeps_its_value(self):
        # this diagonal seed stays inside 60% of the box up to T_END, near the
        # saddle-focus M0, where the routes part (ROADMAP item 15): the window
        # event never fires, so no window closes and no value is returned
        P = hamiltonian_params(6.0, 2.5, 2.5)
        x = y = 0.5e-6
        traj = integrate_m(P, launch_regular(P, x, y, 1e-6), horizon=(0.0, dynamics.T_END))
        assert traj.t[-1] == dynamics.T_END and dynamics._ended(P, traj) == "max-time"
        assert all(s[0] < 0.6 * P.x_bound and s[1] < 0.6 * P.y_bound for s in traj.y)
        ended = re.escape(f"seed {(x, y)}: the phase run ended by max-time at t = 40.0 ")
        with pytest.raises(Inconclusive, match=ended):
            oracle_compare(P, x, y, 1e-6)


class TestKernelTerminalEvents:
    @pytest.mark.parametrize("y0,which", [((1.0, 1.0, 0.0, 0.0), 0),
                                          ((1.0, 1.0000001, 0.0, 0.0), 1)],
                             ids=["same-root", "second-first"])
    def test_run_records_one_terminal_event(self, y0, which):
        # y' = y^2 blows up at t = 1/y(0): both terminal events fall in the
        # last step, and only the earlier root (the first event on a tie) is
        # recorded, so `integrate_m` reads one terminal event, the last one
        # found: the blow-up event or a caller's
        events = [EventSpec("blow-up-0", lambda t, y: abs(y[0]) - 1e6, terminal=True),
                  EventSpec("blow-up-1", lambda t, y: abs(y[1]) - 1e6, terminal=True)]
        sol = dop853.solve(lambda t, y: (y[0] ** 2, y[1] ** 2, 0.0, 0.0), 0.0, y0, 2.0,
                           events)
        assert sol.status == 1
        assert sol.events == [(sol.t[-1], events[which].name)]


def _rotation(t, y):
    return (y[1], -y[0], 0.0, 0.0)


class TestKernelNonFinite:
    # a non-finite initial state or derivative makes the first step size NaN;
    # the run ends with a step underflow instead of looping forever
    @pytest.mark.parametrize("fun,y0", [
        (_rotation, (math.nan, 1.0, 1.0, 1.0)),
        (_rotation, (math.inf, 1.0, 1.0, 1.0)),
        (lambda t, y: (math.nan, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
    ], ids=["nan-y0", "inf-y0", "nan-rhs"])
    def test_run_ends_with_status_minus_1(self, deadline, fun, y0):
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(fun, 0.0, y0, 1.0)
        sol = err.value.run
        assert sol.status == -1
        assert sol.t == [0.0] and sol.n_accepted == 0

    @pytest.mark.parametrize("fun,y0", [
        (_rotation, (math.nan, 1.0, 1.0, 1.0)),
        (lambda t, y: (math.nan, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
    ], ids=["nan-y0", "nan-rhs"])
    def test_dense_output_without_a_step_holds_the_initial_point(self, deadline, fun, y0):
        # the `at` of the failed run that StepSizeUnderflow carries, from
        # `solve` and from a paused `steps` run: y0 at t0, a ValueError
        # elsewhere
        with pytest.raises(StepSizeUnderflow) as err:
            dop853.solve(fun, 0.0, y0, 1.0)
        with pytest.raises(StepSizeUnderflow) as paused:
            next(dop853.steps(fun, 0.0, y0, 1.0))
        for dense in (err.value.run.at, paused.value.run.at):
            assert dense(0.0) == y0
            for t in (0.5, -1.0, 1.0):
                with pytest.raises(ValueError, match="no accepted step"):
                    dense(t)

    @pytest.mark.parametrize("u0,v0", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_radial_data_must_be_positive_and_finite(self, deadline, u0, v0):
        with pytest.raises(PreconditionViolated):
            integrate_radial(HAM6, u0, v0, 1e4)

    @pytest.mark.parametrize("r_max", [1e-7, RADIAL_R0, 0.0, -1.0, math.inf, math.nan])
    def test_radial_run_refuses_r_max_not_above_its_start(self, deadline, r_max):
        # the run starts at RADIAL_R0 and goes outward: toward a smaller
        # r_max it would run backward and end as if at its horizon
        with pytest.raises(PreconditionViolated, match="r_max"):
            integrate_radial(HAM6, 1.0, 1.0, r_max)

    @pytest.mark.parametrize("params,u0", [
        # a power of the startup series overflows and raises OverflowError
        (hamiltonian_params(6.0, 2.0, 2.0), 1e300),
        (SystemParams(N=6.0, p=2.0, q=2.0, s=1.0, m=0.5, delta=1.5, mu=2.0), 1e200),
        # every power is finite, their product overflows to inf without
        # raising, and u(r0) = u0 - inf would start the run from -inf
        (SystemParams(N=6.0, p=2.0, q=2.0, s=1.0, m=1.0, delta=1.0, mu=1.0), 1e200),
    ], ids=["hamiltonian-1e300", "power-overflow-1e200", "product-overflow-1e200"])
    def test_startup_series_must_be_finite(self, deadline, params, u0):
        with pytest.raises(PreconditionViolated, match=re.escape(f"u0 = {u0!r}, v0 = {u0!r}")):
            integrate_radial(params, u0, u0, 1e4)


def _scipy_uses(path: Path) -> list[str]:
    """Every solve_ivp call (by innermost enclosing function) and every scipy
    import in one module."""
    found, stack = [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            f = node.func
            if getattr(f, "id", None) == "solve_ivp" or getattr(f, "attr", None) == "solve_ivp":
                found.append(f"{path.stem}.{stack[-1] if stack else '<module>'} calls solve_ivp")
            self.generic_visit(node)

        def visit_Import(self, node):
            found.extend(f"{path.stem} imports {a.name}" for a in node.names
                         if a.name.split(".")[0] == "scipy")

        def visit_ImportFrom(self, node):
            if (node.module or "").split(".")[0] == "scipy":
                found.append(f"{path.stem} imports from {node.module}")

    Visitor().visit(ast.parse(path.read_text()))
    return found


def test_no_function_calls_solve_ivp():
    # every integration (phase, radial, scalar plane) runs on the in-house
    # kernel; scipy is a test oracle only
    src = Path(efdyn.__file__).parent
    assert [u for path in sorted(src.glob("*.py")) for u in _scipy_uses(path)] == []


def test_import_leaves_scipy_integrate_out():
    code = "import sys, efdyn; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(Path(efdyn.__file__).parents[1])})
    assert out.stdout.strip() == "False"


def test_no_function_calls_exec_eval_or_compile():
    # the stages are written out in the source, not generated at run time
    src = Path(efdyn.__file__).parent
    found = [f"{path.stem}:{node.lineno} calls {node.func.id}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert found == []

import math

import numpy as np
import pytest

from efdyn.dynamics import integrate_m, integrate_radial, launch_regular
from efdyn.energies import (CriticalCurve, EnergySpec, Position,
                            ScalarPhaseState, ScalarRadialState, Verdict, classify_region,
                            cubic_barrier, diagonal_crossings, energy_derivative,
                            energy_value, hamiltonian_derivative_coefficient,
                            potential_derivative_coefficient, predict_asymptotics,
                            predict_existence)
from efdyn.equilibria import particular_solution
from efdyn.errors import NotCritical, PreconditionViolated
from efdyn.model import (PhaseState, RadialState, SystemParams, derive_exponents,
                         exchange_params, from_phase, hamiltonian_params,
                         nonvariational_params, potential_params,
                         symmetric_scalar_embedding, to_phase)
from efdyn.scalar import ScalarParams

from conftest import fd_derivative, power_radial_state, scalar_to_phase

HAM6 = hamiltonian_params(6.0, 2.0, 2.0)
POT6 = potential_params(6.0, 2.0, 2.0, 0.5, 0.5)
NV6 = nonvariational_params(6.0, 0.5, 2.5, 2.5)
SC35 = ScalarParams(N=3.0, p=2.0, a=0.0, Q=5.0)


def random_radial_state(rng):
    return RadialState(r=float(rng.uniform(0.3, 3.0)),
                       u=float(rng.uniform(0.2, 4.0)), v=float(rng.uniform(0.2, 4.0)),
                       du=-float(rng.uniform(0.05, 2.0)), dv=-float(rng.uniform(0.05, 2.0)))


class TestDualForms:
    @pytest.mark.parametrize("spec,params", [
        (EnergySpec.hamiltonian(), HAM6),
        (EnergySpec.hamiltonian(), hamiltonian_params(5.0, 2.4, 1.7, a=0.3, b=-0.4)),
        (EnergySpec.potential(), POT6),
        (EnergySpec.potential(), potential_params(5.5, 1.7, 2.4, 0.3, 0.8, a=0.2)),
        (EnergySpec.nonvariational(), NV6),
        (EnergySpec.nonvariational(sigma=1.3, theta=0.7, alpha=0.2, beta=0.4), NV6),
        (EnergySpec.phi(), NV6),
    ])
    def test_radial_equals_phase(self, spec, params, rng):
        for _ in range(40):
            rs = random_radial_state(rng)
            e_rad = energy_value(spec, params, rs)
            e_ph = energy_value(spec, params, to_phase(params, rs))
            scale = 1e-9 * (1 + abs(e_rad))
            assert abs(e_rad - e_ph) <= scale

    def test_scalar_dual(self, rng):
        for sigma in (None, 0.7):
            spec = EnergySpec.scalar(sigma)
            for _ in range(40):
                r = float(rng.uniform(0.3, 3.0))
                u = float(rng.uniform(0.2, 4.0))
                du = -float(rng.uniform(0.05, 2.0))
                X, Z = scalar_to_phase(SC35, r, u, du)
                e_rad = energy_value(spec, SC35, ScalarRadialState(r, u, du))
                e_ph = energy_value(spec, SC35, ScalarPhaseState(math.log(r), X, Z))
                assert abs(e_rad - e_ph) <= 1e-9 * (1 + abs(e_rad))

    def test_potential_vanishes_on_flux_hyperplane(self):
        st = PhaseState(t=0.0, X=1.0, Y=1.0, Z=0.0, W=0.0)
        assert energy_value(EnergySpec.potential(), POT6, st) == 0.0

    def test_family_guards(self):
        with pytest.raises(PreconditionViolated):
            energy_value(EnergySpec.hamiltonian(), POT6, PhaseState(0, 1, 1, 1, 1))
        with pytest.raises(PreconditionViolated):
            energy_value(EnergySpec.nonvariational(),
                         nonvariational_params(6.0, 0.5, 2.0, 2.0, a=0.5),
                         PhaseState(0, 1, 1, 1, 1))


class TestValues:
    def test_power_solution_energy_is_constant(self):
        ps = particular_solution(HAM6)
        spec = EnergySpec.hamiltonian()
        for r in (0.25, 1.0, 4.0):
            e = energy_value(spec, HAM6, power_radial_state(ps, r))
            assert e == pytest.approx(-64.0 / 3.0, rel=1e-12)

    def test_regular_energy_starts_at_zero(self):
        rad = integrate_radial(HAM6, 1.0, 1.0, r_max=1.0)
        st = RadialState(float(rad.r[0]), float(rad.u[0]), float(rad.v[0]),
                         float(rad.du[0]), float(rad.dv[0]))
        e = energy_value(EnergySpec.hamiltonian(), HAM6, st)
        assert abs(e) < 1e-20   # r^N factor at r = 1e-6 crushes everything


class TestDerivatives:
    def test_critical_coefficients_vanish(self):
        assert hamiltonian_derivative_coefficient(HAM6) == pytest.approx(0.0, abs=1e-14)
        assert potential_derivative_coefficient(POT6) == pytest.approx(0.0, abs=1e-14)

    def test_offcritical_coefficients(self):
        assert hamiltonian_derivative_coefficient(hamiltonian_params(6, 1.7, 1.7)) > 0
        assert hamiltonian_derivative_coefficient(hamiltonian_params(6, 2.5, 2.5)) < 0
        assert potential_derivative_coefficient(
            potential_params(6.0, 2.0, 2.0, 0.3, 0.3)) > 0

    @pytest.mark.parametrize("spec,params,seed", [
        (EnergySpec.hamiltonian(), hamiltonian_params(6.0, 2.2, 1.9), (6e-5, 5e-5)),
        (EnergySpec.potential(), potential_params(6.0, 2.0, 2.3, 0.4, 0.6), (5e-5, 6e-5)),
        (EnergySpec.nonvariational(), nonvariational_params(6.0, 0.5, 2.1, 2.4), (6e-5, 4e-5)),
        (EnergySpec.nonvariational_lower(nonvariational_params(6.0, 0.5, 2.1, 2.4)),
         nonvariational_params(6.0, 0.5, 2.1, 2.4), (6e-5, 4e-5)),
        (EnergySpec.phi(), nonvariational_params(6.0, 0.5, 2.1, 2.4), (6e-5, 4e-5)),
    ])
    def test_matches_finite_differences_along_trajectory(self, spec, params, seed):
        traj = integrate_m(params, launch_regular(params, seed[0], seed[1], 1e-4),
                           horizon=(0.0, 12.0))
        sol = None
        # re-integrate densely over the in-box stretch
        t_end = traj.t[-1]
        for t, st in zip(traj.t, traj.states):
            if np.any(np.asarray(st) <= 0) or st[0] > 0.9 * params.x_bound \
                    or st[1] > 0.9 * params.y_bound:
                t_end = t
                break
        dense = integrate_m(params, launch_regular(params, *seed, 1e-4),
                            horizon=(0.0, t_end))

        def energy_of_t(t):
            return energy_value(spec, params, PhaseState(t, *dense.dense(t)))

        for t in np.linspace(1.0, t_end - 0.5, 12):
            r = math.exp(t)
            dEdt = fd_derivative(energy_of_t, t, 1e-4)
            want = dEdt / r
            got = energy_derivative(spec, params, PhaseState(t, *dense.dense(t)))
            assert got == pytest.approx(want, rel=1e-6, abs=1e-10)

    def test_scalar_derivative_both_sigmas(self, rng):
        # derivative formula against finite differences along the explicit
        # critical profile (any profile solving the equation works)
        sp = SC35
        c = 3.0 ** 0.25

        def u(r):
            return c * (1 + r * r) ** -0.5

        def du(r):
            return -c * r * (1 + r * r) ** -1.5

        for sigma in (None, (sp.N + sp.a) / (sp.Q + 1), 0.9):
            spec = EnergySpec.scalar(sigma)

            def F(r):
                return energy_value(spec, sp, ScalarRadialState(r, u(r), du(r)))

            for r in (0.6, 1.0, 2.2):
                want = fd_derivative(F, r, 1e-4 * r)
                got = energy_derivative(spec, sp, ScalarRadialState(r, u(r), du(r)))
                assert got == pytest.approx(want, rel=1e-7, abs=1e-12)

    def test_scalar_special_sigma_forms(self):
        # sigma = (N-p)/p kills the |u'|^p term; sigma = (N+a)/(Q+1) kills the
        # |u|^{Q+1} term
        sp = SC35
        r, u, du = 1.3, 0.8, -0.5
        st = ScalarRadialState(r, u, du)
        got = energy_derivative(EnergySpec.scalar(), sp, st)
        want = r ** (sp.N - 1 + sp.a) * ((sp.N + sp.a) / (sp.Q + 1)
                                         - (sp.N - sp.p) / sp.p) * abs(u) ** (sp.Q + 1)
        assert got == pytest.approx(want, rel=1e-13)
        sig = (sp.N + sp.a) / (sp.Q + 1)
        got2 = energy_derivative(EnergySpec.scalar(sig), sp, st)
        want2 = r ** (sp.N - 1) * (sig - (sp.N - sp.p) / sp.p) * abs(du) ** sp.p
        assert got2 == pytest.approx(want2, rel=1e-13)


class TestCubicBarrier:
    def test_zeros(self):
        n2 = 4.0
        assert cubic_barrier(NV6, 0.0, 0.0) == 0.0
        assert cubic_barrier(NV6, n2, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert cubic_barrier(NV6, 0.0, n2) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_factorization(self):
        beta = 1.0 / (NV6.delta + 1)
        for X in np.linspace(0.0, 4.0, 9):
            assert cubic_barrier(NV6, X, 0.0) == pytest.approx(
                beta * X ** 2 * (4.0 - X), rel=1e-12, abs=1e-12)
            assert cubic_barrier(NV6, X, 0.0) >= -1e-12

    def test_positive_on_interior_grid(self):
        # delta = mu = 2 sits above the barrier curve (diagonal crossing 1.75)
        P = nonvariational_params(6.0, 0.5, 2.0, 2.0)
        grid = np.linspace(0.0, 4.0, 52)[1:-1]
        vals = [cubic_barrier(P, X, Y) for X in grid for Y in grid]
        assert min(vals) > 0.0

    def test_requires_family(self):
        with pytest.raises(PreconditionViolated):
            cubic_barrier(HAM6, 1.0, 1.0)


class TestRegions:
    def test_critical_hamiltonian_on_h0(self):
        assert classify_region(HAM6)[CriticalCurve.H0] is Position.ON

    def test_nv_above_cs_on_h0(self):
        P = nonvariational_params(6.0, 0.5, 2.0, 2.0)
        reg = classify_region(P)
        assert reg[CriticalCurve.CS] is Position.ABOVE
        assert reg[CriticalCurve.H0] is Position.ON

    def test_scalar_thresholds(self):
        # symmetric embedding: Q = 4 between the two thresholds (3 and 5)
        P = symmetric_scalar_embedding(3.0, 2.0, 4.0)
        reg = classify_region(P)
        assert reg[CriticalCurve.SCALAR_Q1] is Position.ABOVE
        assert reg[CriticalCurve.SCALAR_Q2] is Position.BELOW

    def test_diagonal_crossings_ordered_and_on_curve(self):
        N, s = 6.0, 0.5
        cross = diagonal_crossings(N, s)
        vals = [cross[CriticalCurve.ZS], cross[CriticalCurve.HS],
                cross[CriticalCurve.CS], cross[CriticalCurve.H0]]
        assert vals == sorted(vals)
        for curve, d in cross.items():
            P = nonvariational_params(N, s, d, d)
            assert classify_region(P)[curve] is Position.ON, curve

    def test_curve_ordering_sampled(self):
        # between consecutive diagonal crossings the position flags agree with
        # the ordering: below the lowest curve -> below all, etc.
        N, s = 6.0, 0.5
        cross = diagonal_crossings(N, s)
        order = [CriticalCurve.ZS, CriticalCurve.HS, CriticalCurve.CS, CriticalCurve.H0]
        for d in np.linspace(0.75, 2.3, 100):
            P = nonvariational_params(N, s, float(d), float(d))
            if P.D <= 0:
                continue
            reg = classify_region(P)
            for curve in order:
                if reg[curve] is Position.NOT_APPLICABLE:
                    continue
                want = Position.ABOVE if d > cross[curve] else (
                    Position.ON if d == cross[curve] else Position.BELOW)
                assert reg[curve] is want, (curve, d)


class TestExistence:
    def test_hamiltonian_iff(self):
        assert predict_existence(HAM6).verdict is Verdict.GS_EXISTS
        v = predict_existence(hamiltonian_params(6.0, 1.5, 1.5))
        assert v.verdict is Verdict.NO_GS_DIRICHLET
        assert v.source == "hamiltonian-critical-hyperbola"

    def test_potential_iff(self):
        assert predict_existence(POT6).verdict is Verdict.GS_EXISTS
        below = potential_params(6.0, 2.0, 2.0, 0.3, 0.3)
        assert predict_existence(below).verdict is Verdict.NO_GS_DIRICHLET

    def test_nonvariational_sufficient(self):
        v = predict_existence(nonvariational_params(6.0, 0.5, 2.5, 2.5))
        assert v.verdict is Verdict.GS_EXISTS
        assert v.source == "nonvariational-cubic-barrier"
        low = nonvariational_params(6.0, 0.5, 0.8, 0.8)   # below the lower hyperbola
        vl = predict_existence(low)
        assert vl.verdict is Verdict.NO_GS_DIRICHLET
        assert vl.source == "nonvariational-lower-hyperbola"

    def test_supercritical_trap(self):
        # s and m above both one-sided thresholds: every regular solution is global
        P = SystemParams(N=6.0, p=2.0, q=3.0, s=2.5, m=5.5, delta=3.0, mu=3.0)
        thr_s = (P.N * (P.p - 1) + P.p + P.p * P.a) / (P.N - P.p)
        thr_m = (P.N * (P.q - 1) + P.q + P.q * P.b) / (P.N - P.q)
        assert P.s >= thr_s and P.m >= thr_m
        v = predict_existence(P)
        assert v.verdict is Verdict.ALL_REGULAR_ARE_GS
        assert v.source == "supercritical-trap"

    def test_comparison_blocks(self):
        # p > s+1, q > m+1 with gamma >= (N-p)/(p-1): nonexistence by comparison
        P = SystemParams(N=6.0, p=2.2, q=2.4, s=0.0, m=0.0, delta=1.4, mu=1.3)
        ex = derive_exponents(P)
        assert max(ex.gamma - P.x_bound, ex.xi - P.y_bound) >= 0
        v = predict_existence(P)
        assert v.verdict is Verdict.NO_GS_DIRICHLET
        assert v.source == "asymptotic-comparison"
        # p < s+1, q > m+1, and its exchanged twin q < m+1, p > s+1
        P = SystemParams(N=6.0, p=2.0, q=2.4, s=1.5, m=0.0, delta=1.0, mu=0.3)
        for Q in (P, exchange_params(P)):
            v = predict_existence(Q)
            assert v.verdict is Verdict.NO_GS_DIRICHLET
            assert v.source == "asymptotic-comparison"
            assert v.conditions == (("p<s+1, q>m+1 with subcritical cross-decay", "true"),)

    def test_unknown_when_nothing_applies(self):
        P = SystemParams(N=6.0, p=2.2, q=2.4, s=0.4, m=0.3, delta=2.6, mu=2.9)
        assert predict_existence(P).verdict is Verdict.UNKNOWN

    def test_unknown_at_zero_discriminant(self):
        # D = delta mu - (p-1-s)(q-1-m) = 4 - 4: gamma and xi are undefined,
        # so the rules that read them do not apply
        P = SystemParams(N=6.0, p=2.0, q=2.0, s=3.0, m=3.0, delta=2.0, mu=2.0)
        assert P.D == 0.0
        v = predict_existence(P)
        assert v.verdict is Verdict.UNKNOWN
        assert [name for name, _ in v.conditions] == ["D = delta*mu - (p-1-s)(q-1-m)"]

    @pytest.mark.parametrize("eps", [(-1, 1), (1, -1), (-1, -1)])
    @pytest.mark.parametrize("point", [(6.0, 1.6, 2.1), (6.0, 2.5, 2.5)],
                             ids=["below-H0", "above-H0"])
    def test_negative_sign_has_no_ground_state_and_no_dirichlet(self, eps, point):
        # with eps = -1 the flux of that equation increases from 0 while
        # u, v > 0: its profile increases and never vanishes, on either side
        # of the critical hyperbola
        P = hamiltonian_params(*point).replace(eps1=eps[0], eps2=eps[1])
        v = predict_existence(P)
        assert v.verdict is Verdict.NO_GS_NO_DIRICHLET
        assert v.source == "sign-monotonicity"
        flipped = [i for i in (0, 1) if eps[i] == -1]
        assert [name for name, _ in v.conditions] == [f"eps{i + 1} = -1" for i in flipped]
        rad = integrate_radial(P, 1.0, 1.0, 1e12)
        for i in flipped:
            profile, slope = (rad.u, rad.du) if i == 0 else (rad.v, rad.dv)
            assert len(profile) > 100
            assert all(b > a for a, b in zip(profile, profile[1:]))
            assert all(d > 0 for d in slope)

    def test_negative_sign_needs_n_plus_weight_positive(self):
        # the flux vanishes at r = 0 only where N + a > 0 and N + b > 0
        P = hamiltonian_params(6.0, 2.5, 2.5, a=-6.5).replace(eps1=-1)
        v = predict_existence(P)
        assert v.verdict is Verdict.UNKNOWN
        assert [name for name, _ in v.conditions] == ["N + a > 0 and N + b > 0"]


class TestAsymptotics:
    def test_biharmonic_split(self):
        # fourth-order critical case N=5: u ~ r^{4-N} = r^{-1}, v ~ r^{2-N} = r^{-3}
        P = hamiltonian_params(5.0, 1.0, 9.0)
        prof = predict_asymptotics(P)
        assert prof.u_exponent == pytest.approx(1.0)
        assert prof.v_exponent == pytest.approx(3.0)
        assert prof.log_correction_power == 0.0

    def test_logarithmic_branch(self):
        # mu exactly at (N+b)/(N-2): log-corrected decay
        N = 6.0
        mu = (N + 0.0) / (N - 2.0)
        delta = (N) / (N - 2 - N / (mu + 1)) - 1.0
        P = hamiltonian_params(N, delta, mu)
        assert classify_region(P)[CriticalCurve.H0] is Position.ON
        prof = predict_asymptotics(P)
        assert prof.v_exponent == pytest.approx(N - 2)
        assert prof.log_correction_power == pytest.approx(1.0)

    def test_potential_equal_orders(self):
        prof = predict_asymptotics(POT6)
        assert prof.u_exponent == pytest.approx(4.0)
        assert prof.v_exponent == pytest.approx(4.0)
        assert prof.log_correction_power == 0.0

    def test_potential_role_exchange(self):
        # q > p hands the clean decay to v; the mirrored parameters must give
        # the mirrored profile
        def on_line(p, q, s):
            # solve for m on the critical line N + a = (m+1)(N-q)/q + (s+1)(N-p)/p
            N = 6.0
            m = (N - (s + 1) * (N - p) / p) * q / (N - q) - 1.0
            return potential_params(N, p, q, s, m)

        P = on_line(2.0, 1.8, 0.4)
        assert classify_region(P)[CriticalCurve.LINE_D] is Position.ON
        prof = predict_asymptotics(P)
        prof_m = predict_asymptotics(exchange_params(P))
        assert prof.u_exponent == pytest.approx(prof_m.v_exponent)
        assert prof.v_exponent == pytest.approx(prof_m.u_exponent)
        # lambda* < 0 here: v decays at the plain rate (N-q)/(q-1)
        assert prof.v_exponent == pytest.approx(P.y_bound)

    def test_not_critical_raises(self):
        with pytest.raises(NotCritical):
            predict_asymptotics(hamiltonian_params(6.0, 1.5, 1.5))


class TestConservation:
    def test_critical_drift_and_offcritical_sign(self):
        spec = EnergySpec.hamiltonian()
        traj = integrate_m(HAM6, launch_regular(HAM6, 7e-5, 5e-5, 1e-4), horizon=(0.0, 20.0))
        vals, scales = [], []
        for t, st in zip(traj.t, traj.states):
            if np.any(np.asarray(st) <= 0) or st[0] > 0.95 * HAM6.x_bound \
                    or st[1] > 0.95 * HAM6.y_bound:
                break
            ph = PhaseState(t, *st)
            vals.append(energy_value(spec, HAM6, ph))
            u, v = from_phase(HAM6, ph)
            X, Y, Z, W = st
            br = (abs(X * Y) + abs(Y * (HAM6.N - W) / 3) + abs((HAM6.N - Z) * X / 3))
            scales.append(math.exp(t * (HAM6.N - 2)) * u * v * br)
        assert np.max(np.abs(vals)) / np.max(scales) < 1e-6

        P17 = hamiltonian_params(6.0, 1.7, 1.7)
        traj = integrate_m(P17, launch_regular(P17, 7e-5, 7e-5, 1e-4), horizon=(0.0, 20.0))
        vals = [energy_value(spec, P17, PhaseState(t, *st))
                for t, st in zip(traj.t, traj.states)
                if np.all(np.asarray(st) > 0) and st[0] < 0.95 * P17.x_bound]
        assert np.all(np.diff(vals) > -1e-18)     # coefficient > 0: nondecreasing

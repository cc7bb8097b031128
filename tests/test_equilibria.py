import numpy as np
import pytest

from efdyn.equilibria import (FixedPointLabel, fixed_point, fixed_point_catalog,
                              particular_solution)
from efdyn.errors import NotApplicable, UndefinedPoint
from efdyn.model import (SystemParams, exchange_params, hamiltonian_params,
                         symmetric_scalar_embedding, to_phase)
from efdyn.spectra import spectrum_at

from conftest import (catalog_residuals, draw_params, field, power_radial_state,
                      radial_system_residual)

HAM6 = hamiltonian_params(6.0, 2.0, 2.0)


class TestCatalog:
    def test_hamiltonian_n6_coordinates(self):
        cat = {fp.label: fp for fp in fixed_point_catalog(HAM6)}
        assert cat[FixedPointLabel.M0].coords == pytest.approx((2, 2, 2, 2))
        assert cat[FixedPointLabel.A0].coords == pytest.approx((4, 4, 0, 0))
        assert cat[FixedPointLabel.N0].coords == pytest.approx((0, 0, 6, 6))
        # direct substitution into the P0 formulas (the vector field vanishes there)
        assert cat[FixedPointLabel.P0].coords == pytest.approx((4, 6, 0, -2))
        assert np.max(np.abs(field(HAM6, cat[FixedPointLabel.P0].coords))) < 1e-12

    def test_all_sixteen_in_stable_order(self):
        cat = fixed_point_catalog(HAM6)
        assert [fp.label.value for fp in cat] == [
            "M0", "O", "N0", "A0", "I0", "J0", "K0", "L0",
            "G0", "H0", "P0", "C0", "R0", "Q0", "D0", "S0"]

    def test_degenerate_denominator_flags(self):
        # m = q-1 kills the P0/C0/R0 formulas
        P = SystemParams(N=6, p=2, q=2, s=0.0, m=1.0, delta=2.0, mu=2.0)
        cat = {fp.label: fp for fp in fixed_point_catalog(P)}
        for lab in (FixedPointLabel.P0, FixedPointLabel.C0, FixedPointLabel.R0):
            assert not cat[lab].defined
        for lab in (FixedPointLabel.Q0, FixedPointLabel.D0, FixedPointLabel.S0):
            assert cat[lab].defined

    def test_field_vanishes_at_defined_points(self, rng):
        worst = 0.0
        for _ in range(100):
            P = draw_params(rng)
            worst = max(worst, max(catalog_residuals(P).values()))
        assert worst < 1e-12

    def test_exchange_symmetry(self, rng):
        swap = {"M0": "M0", "O": "O", "N0": "N0", "A0": "A0", "I0": "J0", "J0": "I0",
                "K0": "L0", "L0": "K0", "G0": "H0", "H0": "G0", "P0": "Q0", "Q0": "P0",
                "C0": "D0", "D0": "C0", "R0": "S0", "S0": "R0"}
        for _ in range(30):
            P = draw_params(rng)
            cat = {fp.label.value: fp for fp in fixed_point_catalog(P)}
            cat_x = {fp.label.value: fp for fp in fixed_point_catalog(exchange_params(P))}
            for lab, fp in cat.items():
                twin = cat_x[swap[lab]]
                assert fp.defined == twin.defined
                if fp.defined:
                    X, Y, Z, W = fp.coords
                    assert (Y, X, W, Z) == pytest.approx(twin.coords, rel=1e-12, abs=1e-12)


class TestAdmissibility:
    def test_main_point_interior(self):
        assert fixed_point(HAM6, FixedPointLabel.M0).admissible

    def test_main_point_outside_box(self):
        # delta = mu = 1.5, N = 6: M0 = (4, 4, 0, 0) sits on the faces X = Y = 4,
        # not strictly inside, although no coordinate is negative
        fp = fixed_point(hamiltonian_params(6.0, 1.5, 1.5), FixedPointLabel.M0)
        assert fp.coords == (4.0, 4.0, 0.0, 0.0)
        assert not fp.admissible

    def test_main_point_below_p_1_reads_its_coordinates(self):
        # p = 0.5: x_bound = -11 < 0, so no X lies in (0, x_bound), yet
        # M0 = (5/9, 2/9, 52/9, 34/9) has four positive coordinates
        P = SystemParams(N=6.0, p=0.5, q=2.0, delta=1.0, mu=4.0)
        fp = fixed_point(P, FixedPointLabel.M0)
        assert P.x_bound < 0.0 and min(fp.coords) > 0.0
        assert fp.admissible

    def test_biharmonic_q0_on_boundary(self):
        # N=5, delta=1, mu=9 (the fourth-order critical case): Q0 = (1, 3, 2, 0)
        P = hamiltonian_params(5.0, 1.0, 9.0)
        fp = fixed_point(P, FixedPointLabel.Q0)
        assert fp.coords == pytest.approx((1.0, 3.0, 2.0, 0.0))
        assert fp.coords[3] == 0.0
        assert fp.admissible

    def test_negative_coordinate_is_named(self):
        fp = fixed_point(HAM6, FixedPointLabel.P0)   # W = -2 here
        assert fp.coords[3] < 0.0
        assert not fp.admissible

    def test_undefined_raises(self):
        # an undefined point is never admissible, and its local analysis raises
        P = SystemParams(N=6, p=2, q=2, s=0.0, m=1.0, delta=2.0, mu=2.0)
        fp = fixed_point(P, FixedPointLabel.P0)
        assert not fp.defined and not fp.admissible
        with pytest.raises(UndefinedPoint):
            spectrum_at(P, fp)


class TestPowerSolution:
    def test_hamiltonian_amplitudes(self):
        ps = particular_solution(HAM6)
        assert ps.A == pytest.approx(4.0, rel=1e-13)
        assert ps.B == pytest.approx(4.0, rel=1e-13)

    def test_hamiltonian_residual(self):
        ps = particular_solution(HAM6)
        for r in (0.5, 1.0, 2.0):
            res = radial_system_residual(
                HAM6,
                u=lambda rr: ps.A * rr ** -ps.gamma,
                du=lambda rr: -ps.A * ps.gamma * rr ** (-ps.gamma - 1),
                v=lambda rr: ps.B * rr ** -ps.xi,
                dv=lambda rr: -ps.B * ps.xi * rr ** (-ps.xi - 1),
                r=r)
            assert res < 1e-9

    def test_scalar_critical_amplitude(self):
        # symmetric N=3, Q=5 system: gamma = 1/2 and the power amplitude solves
        # A^{Q-1} = gamma (N-2-gamma); brute-force residual pins A = (1/4)^{1/4}
        P = symmetric_scalar_embedding(3.0, 2.0, 5.0)
        ps = particular_solution(P)
        assert ps.gamma == pytest.approx(0.5, rel=1e-14)
        assert ps.A == pytest.approx(0.25 ** 0.25, rel=1e-12)
        for r in (0.5, 1.0, 2.0):
            res = radial_system_residual(
                P,
                u=lambda rr: ps.A * rr ** -ps.gamma,
                du=lambda rr: -ps.A * ps.gamma * rr ** (-ps.gamma - 1),
                v=lambda rr: ps.B * rr ** -ps.xi,
                dv=lambda rr: -ps.B * ps.xi * rr ** (-ps.xi - 1),
                r=r)
            assert res < 1e-9

    def test_absorption_supercritical_not_applicable(self):
        # eps = -1 with Q above the first threshold: the power base turns negative
        P = symmetric_scalar_embedding(3.0, 2.0, 4.0, eps=-1)
        with pytest.raises(NotApplicable):
            particular_solution(P)

    def test_residual_random(self, rng):
        done = 0
        while done < 15:
            P = draw_params(rng)
            try:
                ps = particular_solution(P)
            except NotApplicable:
                continue
            res = radial_system_residual(
                P,
                u=lambda rr: ps.A * rr ** -ps.gamma,
                du=lambda rr: -ps.A * ps.gamma * rr ** (-ps.gamma - 1),
                v=lambda rr: ps.B * rr ** -ps.xi,
                dv=lambda rr: -ps.B * ps.xi * rr ** (-ps.xi - 1),
                r=1.0)
            assert res < 1e-9
            done += 1

    def test_main_point_equals_chart_image(self, rng):
        done = 0
        while done < 10:
            P = draw_params(rng)
            try:
                ps = particular_solution(P)
            except NotApplicable:
                continue
            fp = fixed_point(P, FixedPointLabel.M0)
            st = to_phase(P, power_radial_state(ps, 1.7))
            assert st.coords == pytest.approx(fp.coords, rel=1e-10, abs=1e-12)
            done += 1

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efdyn.equilibria import particular_solution
from efdyn.errors import (DegeneratePoint, NotApplicable, PreconditionViolated, ZeroCoordinate,
                          ZeroDiscriminant)
from efdyn.model import (PARAM_KEYS, PhaseState, RadialState, SystemParams,
                         derive_exponents, effective_unweighted_dimension, exchange_params,
                         from_phase, hamiltonian_params, normalized_regular_data,
                         potential_params, regular_initial_values,
                         symmetric_scalar_embedding, to_phase, validate_params)

from conftest import draw_params, field, power_radial_state


HAM6 = hamiltonian_params(6.0, 2.0, 2.0)


class TestValidation:
    def test_source_regime_passes(self):
        rep = validate_params(HAM6)
        assert rep.ok
        assert HAM6.D == 3.0

    def test_zero_discriminant_named(self):
        P = SystemParams(N=3, p=2, q=2, delta=1.0, mu=1.0)
        rep = validate_params(P)
        assert not rep.ok
        assert any("D" in c.name for c in rep.checks if not c.ok)

    def test_weight_positivity_named(self):
        P = SystemParams(N=4, p=2, q=2, a=-3.0, delta=2.0, mu=2.0)
        rep = validate_params(P)
        assert not rep.ok
        assert any(c.name == "p + a > 0" for c in rep.checks if not c.ok)

    def test_never_mutates(self):
        P = HAM6
        before = P.to_dict()
        validate_params(P)
        assert P.to_dict() == before


class TestExponents:
    def test_hamiltonian_n6(self):
        ex = derive_exponents(HAM6)
        assert ex.D == 3.0
        assert ex.gamma == pytest.approx(2.0, abs=1e-14)
        assert ex.xi == pytest.approx(2.0, abs=1e-14)

    def test_symmetric_embedding_matches_scalar_rate(self):
        # gamma = (p+a)/(Q+1-p) for the symmetric system carrying diagonal solutions
        P = symmetric_scalar_embedding(N=3.0, p=2.0, Q=5.0)
        ex = derive_exponents(P)
        assert ex.gamma == pytest.approx(2.0 / 4.0, rel=1e-14)
        assert ex.xi == pytest.approx(ex.gamma, rel=1e-14)

    def test_potential_family(self):
        P = potential_params(6.0, 2.0, 2.0, 0.5, 0.5)
        ex = derive_exponents(P)
        assert ex.D == pytest.approx(2.0, rel=1e-14)
        assert ex.gamma == pytest.approx(2.0, rel=1e-14)
        # p (gamma+1) = p q (m+s+2+a)/D for this family
        lhs = P.p * (ex.gamma + 1)
        rhs = P.p * P.q * (P.m + P.s + 2 + P.a) / ex.D
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_zero_discriminant_raises(self):
        with pytest.raises(ZeroDiscriminant):
            derive_exponents(SystemParams(N=3, p=2, q=2, delta=1.0, mu=1.0))

    def test_identities_random(self, rng):
        for _ in range(300):
            P = draw_params(rng)
            ex = derive_exponents(P)
            lhs1 = (P.p - 1 - P.s) * ex.gamma + P.p + P.a
            rhs1 = P.delta * ex.xi
            lhs2 = (P.q - 1 - P.m) * ex.xi + P.q + P.b
            rhs2 = P.mu * ex.gamma
            scale = 1 + abs(lhs1) + abs(rhs1) + abs(lhs2) + abs(rhs2)
            assert abs(lhs1 - rhs1) < 1e-12 * scale
            assert abs(lhs2 - rhs2) < 1e-12 * scale


class TestVectorField:
    def test_equilibria_annihilate(self):
        assert np.all(field(HAM6, (4.0, 4.0, 0.0, 0.0)) == 0.0)
        assert np.all(field(HAM6, (0.0, 0.0, 6.0, 6.0)) == 0.0)

    def test_unit_point(self):
        f = field(HAM6, (1.0, 1.0, 1.0, 1.0))
        assert f == pytest.approx([-2.0, -2.0, 3.0, 3.0], abs=1e-15)

    @given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kolmogorov_hyperplanes(self, axis, seed):
        rng = np.random.default_rng(seed)
        P = draw_params(rng)
        coords = rng.uniform(-3.0, 8.0, size=4)
        coords[axis] = 0.0
        assert field(P, coords)[axis] == 0.0


class TestChartMaps:
    def test_explicit_critical_scalar_point(self):
        # u(r) = 3^{1/4} (1+r^2)^{-1/2} solves the symmetric N=3, Q=5 system on
        # the diagonal; at r=1 its chart image must sit on 3X + Z = 3.
        P = symmetric_scalar_embedding(3.0, 2.0, 5.0)
        c = 3.0 ** 0.25
        u = c * 2.0 ** -0.5
        du = -c * 2.0 ** -1.5
        st = to_phase(P, RadialState(r=1.0, u=u, v=u, du=du, dv=du))
        assert st.X == pytest.approx(0.5, rel=1e-13)
        assert st.Z == pytest.approx(1.5, rel=1e-13)
        assert 3 * st.X + st.Z == pytest.approx(3.0, rel=1e-13)

    def test_power_solution_maps_to_main_fixed_point(self, rng):
        done = 0
        while done < 20:
            P = draw_params(rng)
            try:
                ps = particular_solution(P)
            except NotApplicable:
                continue
            ex = derive_exponents(P)
            for r in (0.5, 1.0, 3.0):
                stt = to_phase(P, power_radial_state(ps, r))
                expect = (ex.gamma, ex.xi, P.N - P.p - (P.p - 1) * ex.gamma,
                          P.N - P.q - (P.q - 1) * ex.xi)
                for got, want in zip((stt.X, stt.Y, stt.Z, stt.W), expect):
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            done += 1

    def test_degenerate_point(self):
        with pytest.raises(DegeneratePoint):
            to_phase(HAM6, RadialState(r=1.0, u=1.0, v=1.0, du=0.0, dv=-1.0))

    def test_from_phase_at_main_point(self):
        st = PhaseState(t=0.0, X=2.0, Y=2.0, Z=2.0, W=2.0)
        u, v = from_phase(HAM6, st)
        assert u == pytest.approx(4.0, rel=1e-13)
        assert v == pytest.approx(4.0, rel=1e-13)

    def test_zero_coordinate(self):
        with pytest.raises(ZeroCoordinate):
            from_phase(HAM6, PhaseState(t=0.0, X=1.0, Y=1.0, Z=0.0, W=1.0))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        P = draw_params(rng)
        rs = RadialState(r=float(rng.uniform(0.2, 4.0)),
                         u=float(rng.uniform(0.2, 5.0)), v=float(rng.uniform(0.2, 5.0)),
                         du=-float(rng.uniform(0.05, 3.0)), dv=-float(rng.uniform(0.05, 3.0)))
        u, v = from_phase(P, to_phase(P, rs))
        assert u == pytest.approx(rs.u, rel=1e-10)
        assert v == pytest.approx(rs.v, rel=1e-10)

    def test_round_trip_explicit_solution_at_r2(self):
        P = symmetric_scalar_embedding(3.0, 2.0, 5.0)
        c, r = 3.0 ** 0.25, 2.0
        u = c * (1 + r * r) ** -0.5
        du = -c * r * (1 + r * r) ** -1.5
        got_u, got_v = from_phase(P, to_phase(P, RadialState(r, u, u, du, du)))
        assert got_u == pytest.approx(u, rel=1e-10)
        assert got_v == pytest.approx(u, rel=1e-10)

    def test_scaling_covariance(self, rng):
        # (theta^gamma u(theta r), theta^xi v(theta r)) traces the same phase
        # curve: chart images at matched radii coincide.
        for _ in range(25):
            P = draw_params(rng)
            ex = derive_exponents(P)
            theta = float(rng.uniform(0.3, 3.0))
            r = float(rng.uniform(0.5, 2.0))
            u0, v0, du0, dv0 = (float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)),
                                -float(rng.uniform(0.1, 2.0)), -float(rng.uniform(0.1, 2.0)))
            base = to_phase(P, RadialState(theta * r, u0, v0, du0, dv0))
            scaled = to_phase(P, RadialState(
                r, theta ** ex.gamma * u0, theta ** ex.xi * v0,
                theta ** (ex.gamma + 1) * du0, theta ** (ex.xi + 1) * dv0))
            for got, want in zip(scaled.coords, base.coords):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def rescale_system(P, k):
    """Trade dimension against weight (p = q, a = b, k != 0): N_hat = p + k(N-p),
    a_hat = k(p+a) - p. With t = k t_hat the phase map is (X,Y,Z,W) -> k (X,Y,Z,W)
    and gamma, xi rescale by k."""
    if not (P.p == P.q and P.a == P.b and k != 0.0):
        raise PreconditionViolated("rescaling needs p = q, a = b and k != 0")
    a_hat = k * (P.p + P.a) - P.p
    return P.replace(N=P.p + k * (P.N - P.p), a=a_hat, b=a_hat)


class TestRescaling:
    def test_eliminate_weight(self, rng):
        # k = p/(p+a) removes the weight; the result is the effective dimension
        P = SystemParams(N=4.0, p=2.0, q=2.0, a=2.0, b=2.0, delta=2.0, mu=2.0)
        k = P.p / (P.p + P.a)
        new = rescale_system(P, k)
        assert k == pytest.approx(0.5)
        assert new.N == pytest.approx(3.0)
        assert new.a == pytest.approx(0.0)
        ex_old, ex_new = derive_exponents(P), derive_exponents(new)
        assert ex_new.gamma == pytest.approx(k * ex_old.gamma, rel=1e-13)
        draws = [draw_params(rng) for _ in range(50)]
        for Q in [P] + [D.replace(q=D.p, b=D.a) for D in draws]:
            new = rescale_system(Q, Q.p / (Q.p + Q.a))
            assert new.a == pytest.approx(0.0, abs=1e-12)
            assert new.N == pytest.approx(effective_unweighted_dimension(Q), rel=1e-12)

    def test_identity(self):
        assert rescale_system(HAM6, 1.0) == HAM6

    def test_dimension_one_reduction(self):
        P = SystemParams(N=4.0, p=2.0, q=2.0, a=0.0, b=0.0, delta=2.0, mu=2.0)
        k = -(P.p - 1) / (P.N - P.p)
        new = rescale_system(P, k)
        assert k == pytest.approx(-0.5)
        assert new.N == pytest.approx(1.0)
        assert new.a == pytest.approx(-3.0)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            rescale_system(SystemParams(N=5, p=2, q=3, delta=2, mu=2), 0.5)

    def test_rescaled_field_is_conjugate(self):
        # d/dt_hat of k*(X,Y,Z,W) under the new parameters equals k^2 * field
        P = SystemParams(N=5.5, p=1.8, q=1.8, a=0.4, b=0.4, s=0.3, m=0.7,
                         delta=1.2, mu=2.1)
        k = 0.7
        new = rescale_system(P, k)
        coords = np.array([0.7, 1.1, 2.0, 3.0])
        lhs = field(new, k * coords)      # d(k X)/d t_hat
        rhs = k * k * field(P, coords)    # = k^2 dX/dt
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSerialization:
    def test_json_keys(self):
        d = HAM6.to_dict()
        assert tuple(d) == PARAM_KEYS
        blob = json.dumps(d)
        assert SystemParams.from_dict(json.loads(blob)) == HAM6

    def test_exchange_involution(self, rng):
        P = draw_params(rng)
        assert exchange_params(exchange_params(P)) == P


def test_normalized_regular_data_is_on_scaling_orbit():
    P = HAM6
    x, y = 3e-5, 5e-5
    u0, v0, tau = normalized_regular_data(P, x, y)
    assert u0 == 1.0
    ru, rv = regular_initial_values(P, x, y)
    ex = derive_exponents(P)
    theta = math.exp(tau)
    assert theta ** ex.gamma * ru == pytest.approx(1.0, rel=1e-12)
    assert theta ** ex.xi * rv == pytest.approx(v0, rel=1e-12)

import math

import numpy as np
import pytest

from efdyn import (EventSpec, NotApplicable, ScalarBehavior, ScalarParams,
                   integrate_radial, scalar_classify)
from efdyn.scalar import (diagonal_trajectory, explicit_critical_solution,
                          line_quantity, particular_amplitude, poincare_returns,
                          regular_seed, scalar_fixed_points, scalar_to_phase,
                          scalar_vector_field)

SC = ScalarParams(N=3.0, p=2.0, a=0.0, Q=5.0)


class TestBasics:
    def test_thresholds(self):
        assert SC.Q1 == pytest.approx(3.0)
        assert SC.Q2 == pytest.approx(5.0)
        assert SC.gamma == pytest.approx(0.5)

    def test_fixed_points(self):
        fps = scalar_fixed_points(SC)
        assert fps["M0"] == pytest.approx((0.5, 0.5))
        assert fps["N0"] == pytest.approx((0.0, 3.0))
        assert fps["A0"] == pytest.approx((1.0, 0.0))
        for pt in fps.values():
            assert np.max(np.abs(scalar_vector_field(SC, pt))) < 1e-14

    def test_power_amplitude(self):
        assert particular_amplitude(SC) == pytest.approx(0.25 ** 0.25, rel=1e-13)
        with pytest.raises(NotApplicable):
            particular_amplitude(ScalarParams(N=3.0, p=2.0, a=0.0, Q=4.0, eps=-1))


class TestExplicitCriticalSolution:
    def test_closed_form_matches_radial_integration(self):
        c = 3.0 ** 0.25
        u, du = explicit_critical_solution(SC, c=c)
        assert u(1.0) == pytest.approx(c / math.sqrt(2.0), rel=1e-13)
        # the scalar profile is the diagonal (u, u) of the symmetric system
        rad = integrate_radial(SC.system, u(0.0), u(0.0), r_max=100.0)
        for i in range(0, len(rad.r), 4):
            assert rad.u[i] == pytest.approx(u(rad.r[i]), rel=1e-8)
        assert rad.termination.kind == "max-time"

    def test_on_invariant_line(self):
        c = 1.7
        u, du = explicit_critical_solution(SC, c=c)
        for r in np.geomspace(1e-3, 1e3, 40):
            X, Z = scalar_to_phase(SC, r, u(r), du(r))
            assert abs(3 * X + Z - 3.0) < 1e-8
            assert abs(line_quantity(SC, X, Z)) < 1e-8

    def test_line_conserved_along_integrated_regular_trajectory(self):
        # stop short of the endpoint, where the outgoing axis direction of the
        # saddle amplifies roundoff off the segment
        x0, z0 = regular_seed(SC, 1e-4)
        stop = EventSpec("stopped:x", lambda t, y: y[0] - 0.98 * SC.x_bound,
                         terminal=True, direction=1.0)
        traj = diagonal_trajectory(SC, (x0, z0), (0.0, 40.0), events=[stop])
        drift = max(abs(line_quantity(SC, X, Z)) for X, Z in traj.states[:, [0, 2]])
        assert drift < 1e-8


class TestCatalog:
    def test_subcritical_sign_change(self):
        for Q in (2.5, 4.0):
            rep = scalar_classify(3.0, 2.0, 0.0, Q)
            assert rep.behavior is ScalarBehavior.SIGN_CHANGING
            assert rep.evidence["zero_radius"] is not None

    def test_critical_ground_state(self):
        rep = scalar_classify(3.0, 2.0, 0.0, 5.0)
        assert rep.behavior is ScalarBehavior.GROUND_STATE_ON_LINE
        assert rep.evidence["line_drift"] < 1e-8

    def test_supercritical_all_ground_states(self):
        rep = scalar_classify(3.0, 2.0, 0.0, 6.0)
        assert rep.behavior is ScalarBehavior.ALL_REGULAR_ARE_GS
        assert rep.evidence["termination"] == "max-time"     # u never vanishes
        A = rep.evidence["amplitude_exact"]
        assert rep.evidence["amplitude_fit"] == pytest.approx(A, rel=0.25)

    def test_threshold_flagged(self):
        rep = scalar_classify(3.0, 2.0, 0.0, 3.0)
        assert rep.behavior is ScalarBehavior.THRESHOLD_Q1

    def test_absorption_above_threshold(self):
        rep = scalar_classify(3.0, 2.0, 0.0, 4.0, eps=-1)
        assert rep.behavior is ScalarBehavior.ABSORPTION_ALL_REGULAR
        assert rep.evidence["termination"] == "blow-up"

    def test_absorption_connection(self):
        rep = scalar_classify(3.0, 2.0, 0.0, 2.0, eps=-1)
        assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
        # decay exponent (N-p)/(p-1) = 1 at the origin, gamma = 2 at infinity
        assert rep.evidence["slope_origin"] == pytest.approx(-1.0, rel=0.02)
        assert rep.evidence["slope_infinity"] == pytest.approx(-2.0, rel=0.02)

    def test_poincare_returns_monotone_off_critical(self):
        offs = poincare_returns(ScalarParams(N=3.0, p=2.0, a=0.0, Q=4.0),
                                start_offset=0.05)
        assert len(offs) >= 2
        assert all(b > a for a, b in zip(offs, offs[1:]))   # spiral source

    def test_poincare_returns_stall_at_critical(self):
        # at the critical exponent the interior point is a center: returns repeat
        offs = poincare_returns(SC, start_offset=0.2)
        assert len(offs) >= 2
        assert abs(offs[1] - offs[0]) < 1e-6 * offs[0] + 1e-9

    def test_weighted_equation(self):
        # a != 0 moves both thresholds; smoke-check consistency of the verdict
        rep = scalar_classify(4.0, 2.0, 1.0, 3.5)
        assert rep.Q1 == pytest.approx(2.5)
        assert rep.Q2 == pytest.approx(4.0)
        assert rep.behavior is ScalarBehavior.SIGN_CHANGING

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import efdyn.scalar
from efdyn.dynamics import EventSpec, integrate_radial
from efdyn.errors import Inconclusive, NotApplicable, SeriesInvalid
from efdyn.model import phase_rhs
from efdyn.numerics import BLOW_UP, CAPTURE_DIST, SCALAR_R_MAX
from efdyn.scalar import (ScalarBehavior, ScalarParams, diagonal_trajectory,
                          explicit_critical_solution, line_quantity, particular_amplitude,
                          poincare_returns, regular_seed, scalar_classify,
                          scalar_fixed_points, scalar_jacobian, threshold_q1)

from conftest import SCALAR_CASES, scalar_to_phase

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
        rhs = phase_rhs(SC.system)      # the plane is the diagonal (X, X, Z, Z)
        for X, Z in fps.values():
            assert np.max(np.abs(rhs(0.0, (X, X, Z, Z)))) < 1e-14

    def test_power_amplitude(self):
        assert particular_amplitude(SC) == pytest.approx(0.25 ** 0.25, rel=1e-13)
        with pytest.raises(NotApplicable):
            particular_amplitude(ScalarParams(N=3.0, p=2.0, a=0.0, Q=4.0, eps=-1))

    def test_z_blow_up_ends_a_diagonal_run(self):
        # in the absorption quadrant Z goes to -infinity while X tends to 0:
        # integrate_m's one blow-up event watches Z too
        sp = ScalarParams(3, 2, 0, 2, eps=-1)
        traj = diagonal_trajectory(sp, (0.1, -1.0), (0, 10))
        assert efdyn.dynamics._ended(traj) == "blow-up"
        assert traj.t[-1].hex() == "0x1.e2ea7feb5abcep-2"
        X, _, Z, _ = traj.y[-1]
        assert abs(Z) >= BLOW_UP > abs(X)


class TestExplicitCriticalSolution:
    def test_closed_form_matches_radial_integration(self):
        c = 3.0 ** 0.25
        u, du = explicit_critical_solution(SC, c=c)
        assert u(1.0) == pytest.approx(c / math.sqrt(2.0), rel=1e-13)
        # the scalar profile is the diagonal (u, u) of the symmetric system
        rad = integrate_radial(SC.system, u(0.0), u(0.0), r_max=100.0)
        for i in range(0, len(rad.r), 4):
            assert rad.u[i] == pytest.approx(u(rad.r[i]), rel=1e-8)
        assert rad.termination == "max-time"

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
        drift = max(abs(line_quantity(SC, X, Z)) for X, Z in np.asarray(traj.y)[:, [0, 2]])
        assert drift < 1e-8


class TestCatalog:
    @pytest.mark.parametrize("point,start", [
        ((3.0, 2.0, -1.9, 7.0), -1.2835331195541588),
        # reported SIGN_CHANGING with zero_radius None before
        ((3.7044079476468283, 2.758708738988629, -2.648960638206861, 1.9628792994749502),
         -5.562282990052435)])
    def test_radial_start_at_or_below_zero_is_refused(self, point, start):
        with pytest.raises(SeriesInvalid, match=re.escape(
                f"u0 = 1.0, v0 = 1.0: the startup series at r0 = 1e-06 starts at "
                f"u = {start!r}, v = {start!r}, not both positive")):
            scalar_classify(*point)

    def test_amplitude_fit_without_samples_is_inconclusive(self):
        # 1 + a < 0 starts U at -1.6e15: u vanishes at r = 4.35e-6, before any
        # sample beyond 0.3 SCALAR_R_MAX (a ZeroDivisionError before)
        with pytest.raises(Inconclusive, match=re.escape(
                "the radial run ended by u-zero at r = 4.354893159692437e-06, before any "
                f"sample beyond r = {0.3 * SCALAR_R_MAX!r}: no amplitude fit")):
            scalar_classify(4.802210480965609, 3.9829484180064085, -3.5483541884636005,
                            9.414240922040428)

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

    def test_absorption_step_underflow_is_recorded(self):
        # the radial run's step collapses at r = 3.86, where max|y| = 1.06e4
        # is below BLOW_UP; the verdict reads only how the run ended
        rep = scalar_classify(6.0, 1.25, 0.0, 5.0, eps=-1)
        assert rep.behavior is ScalarBehavior.ABSORPTION_ALL_REGULAR
        assert rep.evidence == {"termination": "step-underflow"}

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


# -- the closed forms against their numpy forms ----------------------------------

# Jacobians of the plane field at M0 with no stable direction to follow:
# (3, 2, 0, 0.5, eps = -1), a stable node with eigenvalues -7.70 and -1.30, and
# (3, 2, 0, -0.5, eps = -1), a focus with eigenvalues -1.83 +/- 1.14i
STABLE_NODE = ScalarParams(N=3.0, p=2.0, a=0.0, Q=0.5, eps=-1)
FOCUS = ScalarParams(N=3.0, p=2.0, a=0.0, Q=-0.5, eps=-1)


def _oracle_scalar_draws(seeds):
    """The scalar cases of perfbench's oracle-scalar workload at these seeds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import oracle_scalar_inputs
    return [(c["N"], c["p"], c["a"], c["Q"], c["eps"])
            for seed in seeds for c in oracle_scalar_inputs(seed)["scalar"]]


def _m0_jacobian(sp):
    return scalar_jacobian(sp, scalar_fixed_points(sp)["M0"])


def _eig_direction(J):
    """numpy's eigenvector of the smaller real eigenvalue, first component <= 0."""
    w, V = np.linalg.eig(np.array(J))
    want = V[:, np.argmin(w.real)].real
    return -want if want[0] > 0 else want


class TestClosedFormFits:
    # scalar_classify computes in closed form; each closed form, on the data it
    # was given in a classification, agrees with eig, mean and np.all

    @pytest.fixture(scope="class")
    def runs(self):
        """(reports, stable_direction calls) of the six behaviours and the
        oracle-scalar draws of seeds 1-3."""
        calls = []
        fn = efdyn.scalar._stable_direction

        def record(J):
            out = fn(J)
            calls.append((J, out))
            return out

        cases = [*SCALAR_CASES.values(), *_oracle_scalar_draws((1, 2, 3))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(efdyn.scalar, "_stable_direction", record)
            reports = [scalar_classify(*case) for case in cases]
        return reports, calls

    def test_direction_is_eig(self, runs):
        _, directions = runs
        assert len(directions) == 4     # the absorption connection and 3 draws
        node = _m0_jacobian(STABLE_NODE)
        for J, v in directions + [(node, efdyn.scalar._stable_direction(node))]:
            assert np.max(np.abs(np.subtract(v, _eig_direction(J)))) <= 1e-12
            assert v[0] <= 0.0

    def test_amplitude_is_mean(self, runs):
        reports, _ = runs
        fits = [rep for rep in reports if rep.behavior is ScalarBehavior.ALL_REGULAR_ARE_GS]
        assert len(fits) == 4
        for rep in fits:
            rad = integrate_radial(rep.params.system, 1.0, 1.0, SCALAR_R_MAX)
            r, u = np.asarray(rad.r), np.asarray(rad.u)
            mask = r > 0.3 * SCALAR_R_MAX
            want = np.exp(np.mean(np.log(u[mask]) + rep.gamma * np.log(r[mask])))
            assert rep.evidence["amplitude_fit"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_poincare_flag_is_np_all(self, runs):
        reports, _ = runs
        flagged = [rep.evidence for rep in reports if "poincare_offsets" in rep.evidence]
        assert len(flagged) == 2 * 4   # Q1 < Q < Q2 and Q > Q2, source sign
        for ev in flagged:
            diffs = np.diff(np.abs(ev["poincare_offsets"]))
            assert ev["poincare_monotone"] is bool(np.all(diffs > 0) or np.all(diffs < 0))

    def test_complex_pair_at_m0_is_not_applicable(self):
        # a focus has no stable direction to follow
        with pytest.raises(NotApplicable, match="complex eigenvalues"):
            efdyn.scalar._stable_direction(_m0_jacobian(FOCUS))


class TestAbsorptionConnection:
    # the connection runs from A0 to the saddle M0; X = -r u'/u, so the end
    # slopes of ln u against ln r are -X at the run's two ends

    @pytest.mark.parametrize("Q", [1.05, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4])
    def test_end_slopes(self, Q):
        rep = scalar_classify(3.0, 2.0, 0.0, Q, eps=-1)
        assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
        # u ~ r^{-(N-p)/(p-1)} = r^-1 at the origin, u ~ A r^-gamma at infinity
        assert rep.evidence["slope_origin"] == pytest.approx(-1.0, rel=0.02)
        assert rep.evidence["slope_infinity"] == pytest.approx(-rep.gamma, rel=1e-5)

    def test_run_ends_where_it_is_captured_at_a0(self):
        # oracle-scalar seed 2's absorption point: the run enters A0's capture
        # ball before t = -60 and ends there, its slope CAPTURE_DIST from the
        # origin exponent
        rep = scalar_classify(3.7384386607146647, 2.0686005096824145, 0.04417349204699528,
                              1.9135102244786077, eps=-1)
        assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
        assert rep.evidence["termination"] == "converged:A0"
        assert abs(rep.evidence["slope_origin"] + rep.params.x_bound) <= \
            CAPTURE_DIST * (1 + 1e-6)

    def test_every_capture_reads_the_origin_exponent(self):
        # the absorption connections of oracle-scalar seeds 1-20: each run
        # captured at A0 reads -(N-p)/(p-1) to CAPTURE_DIST
        draws = [d for d in _oracle_scalar_draws(range(1, 21))
                 if d[4] == -1 and d[3] < threshold_q1(*d[:3])]
        assert len(draws) == 20
        captured = 0
        for draw in draws:
            rep = scalar_classify(*draw)
            assert rep.behavior is ScalarBehavior.ABSORPTION_CONNECTION
            if rep.evidence["termination"] == "converged:A0":
                captured += 1
                assert abs(rep.evidence["slope_origin"] + rep.params.x_bound) <= \
                    CAPTURE_DIST * (1 + 1e-6)
            else:
                assert rep.evidence["termination"] == "max-time"
        assert captured >= 13

    def test_classification_loads_no_fixed_point_catalog(self):
        # the capture events are the plane's own fixed points: an absorption
        # classification in a fresh interpreter does not import efdyn.equilibria
        code = ("import sys; from efdyn import scalar_classify; "
                "scalar_classify(3.0, 2.0, 0.0, 1.1, eps=-1); "
                "print('efdyn.equilibria' in sys.modules)")
        src = str(Path(efdyn.scalar.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src}).stdout
        assert out == "False\n"

    @pytest.mark.parametrize("sp", [STABLE_NODE, FOCUS], ids=["node", "focus"])
    def test_no_saddle_below_p_minus_one(self, sp):
        # det J(M0) = -X0 Z0 (p - 1 - Q)/(p - 1) > 0 when Q < p - 1
        (a, b), (c, d) = _m0_jacobian(sp)
        assert a * d - b * c > 0.0
        with pytest.raises(NotApplicable, match=r"< p - 1"):
            scalar_classify(sp.N, sp.p, sp.a, sp.Q, sp.eps)

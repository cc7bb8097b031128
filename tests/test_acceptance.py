"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from efdyn.dynamics import (MClass, integrate_m, integrate_radial, launch_regular,
                            oracle_compare, read_shot, search_dirichlet, search_ground_state)
from efdyn.energies import EnergySpec, cubic_barrier, energy_value
from efdyn.equilibria import fixed_point_catalog, particular_solution
from efdyn.model import (PhaseState, RadialState, derive_exponents, from_phase,
                         hamiltonian_params, nonvariational_params, potential_params,
                         to_phase)
from efdyn.scalar import (ScalarBehavior, ScalarParams, explicit_critical_solution,
                          scalar_classify)
from efdyn.spectra import (closed_form_eigenvalues, jacobian_at, m0_characteristic,
                           polynomial_roots)

from conftest import catalog_residuals, draw_params, radial_system_residual, scalar_to_phase


def _match(a, b):
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def _min_gap(vals):
    vals = np.asarray(vals, complex)
    g = math.inf
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = min(g, abs(vals[i] - vals[j]))
    return g


def test_criterion_01_fixed_point_exactness():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        P = draw_params(rng)
        worst = max(worst, max(catalog_residuals(P).values()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12, worst
    assert elapsed < 5.0, elapsed
    print(f"\nACCEPTANCE 1: PASS — 1000 draws, max |field| at catalog points "
          f"{worst:.2e} < 1e-12, {elapsed:.2f}s")


def test_criterion_02_spectrum_cross_validation():
    rng = np.random.default_rng(22)
    draws = 0
    worst = 0.0
    while draws < 200:
        P = draw_params(rng)
        used = False
        for fp in fixed_point_catalog(P):
            if not fp.defined:
                continue
            cf = closed_form_eigenvalues(P, fp.label)
            scale = max(1.0, float(np.max(np.abs(cf))))
            if _min_gap(cf) < 1e-3 * scale:
                continue          # numerically defective: eigensolver loses digits
            num = np.linalg.eigvals(np.array(jacobian_at(P, fp.coords)))
            err = _match(cf, num) / scale
            worst = max(worst, err)
            assert err < 1e-8, (fp.label, err)
            used = True
        if used:
            draws += 1
    P6 = hamiltonian_params(6.0, 2.0, 2.0)
    roots = polynomial_roots(m0_characteristic(P6).as_poly())
    want = [2 * math.sqrt(3.0), -2 * math.sqrt(3.0), 2j, -2j]
    assert _match(roots, want) < 1e-10
    print(f"\nACCEPTANCE 2: PASS — {draws} draws cross-validated "
          f"(worst {worst:.2e} < 1e-8); critical quartic roots exact to 1e-10")


def test_criterion_03_closed_form_solutions():
    # (i) scalar critical profile sits on 3X + Z = 3 over r in [1e-3, 1e3]
    sc = ScalarParams(N=3.0, p=2.0, a=0.0, Q=5.0)
    u_sc, du_sc = explicit_critical_solution(sc, c=3.0 ** 0.25)
    drift1 = max(abs(3 * X + Z - 3.0)
                 for r in np.geomspace(1e-3, 1e3, 121)
                 for X, Z in [scalar_to_phase(sc, r, u_sc(r), du_sc(r))])
    assert drift1 < 1e-8, drift1

    # (ii) fourth-order critical profile (N=5, delta=1, mu=9) sits on 3X + Z = 5.
    # K is pinned by the residual oracle: K^2 = c^{mu-1}/((N-4)(N-2)N(N+2)).
    N, c = 5.0, 1.0
    K = math.sqrt(c ** 8 / ((N - 4) * (N - 2) * N * (N + 2)))
    w = lambda r: K + r * r
    ub = lambda r: c * w(r) ** -0.5
    dub = lambda r: -c * r * w(r) ** -1.5
    vb = lambda r: c * w(r) ** -2.5 * (5 * K + 2 * r * r)
    dvb = lambda r: -3 * c * r * w(r) ** -3.5 * (7 * K + 2 * r * r)
    Pb = hamiltonian_params(5.0, 1.0, 9.0)
    assert radial_system_residual(Pb, ub, dub, vb, dvb, 1.0) < 1e-7   # profile solves the system
    drift2 = 0.0
    for r in np.geomspace(1e-3, 1e3, 121):
        st = to_phase(Pb, RadialState(r, ub(r), vb(r), dub(r), dvb(r)))
        drift2 = max(drift2, abs(3 * st.X + st.Z - 5.0))
    assert drift2 < 1e-8, drift2

    # (iii) the power pair (4 r^-2, 4 r^-2) solves the N=6 critical system
    P6 = hamiltonian_params(6.0, 2.0, 2.0)
    ps = particular_solution(P6)
    assert ps.A == pytest.approx(4.0) and ps.B == pytest.approx(4.0)
    res = max(radial_system_residual(
        P6,
        u=lambda rr: 4.0 * rr ** -2.0, du=lambda rr: -8.0 * rr ** -3.0,
        v=lambda rr: 4.0 * rr ** -2.0, dv=lambda rr: -8.0 * rr ** -3.0, r=r)
        for r in (0.5, 1.0, 2.0))
    assert res < 1e-9, res
    print(f"\nACCEPTANCE 3: PASS — invariant-line drifts {drift1:.2e}, {drift2:.2e} < 1e-8; "
          f"power-pair residual {res:.2e} < 1e-9")


def _energy_drift_along_shot(P, spec, seed, t_end=20.0):
    traj = integrate_m(P, launch_regular(P, seed[0], seed[1], 1e-4), horizon=(0.0, t_end))
    vals, scales = [], []
    for t, st in zip(traj.t, traj.y):
        if np.any(np.asarray(st) <= 0) or st[0] > 0.95 * P.x_bound or st[1] > 0.95 * P.y_bound:
            break
        ph = PhaseState(t, *st)
        vals.append(energy_value(spec, P, ph))
        u, v = from_phase(P, ph)
        X, Y, Z, W = st
        if spec.kind.value == "hamiltonian":
            br = (abs(X * Y) + abs(Y * (P.N + P.b - W) / (P.mu + 1))
                  + abs((P.N + P.a - Z) * X / (P.delta + 1)))
            scales.append(math.exp(t * (P.N - 2)) * u * v * br)
        else:
            du, dv = -X * u / math.exp(t), -Y * v / math.exp(t)
            psi = math.exp(t * (P.N - 2 - P.a)) * abs(du) ** (P.p - 1) \
                * abs(dv) ** (P.q - 1) / (u ** P.s * v ** P.m)
            br = (abs(Z * W) + abs((P.s + 1) / P.p * W * (P.N - P.p - (P.p - 1) * X))
                  + abs((P.m + 1) / P.q * Z * (P.N - P.q - (P.q - 1) * Y)))
            scales.append(psi * br)
    return np.max(np.abs(vals)) / np.max(scales), vals


def test_criterion_04_energy_conservation_and_monotonicity():
    ham = EnergySpec.hamiltonian()
    pot = EnergySpec.potential()
    worst = 0.0
    # conservation on the critical hyperbola (symmetric and asymmetric points)
    for P in (hamiltonian_params(6.0, 2.0, 2.0), hamiltonian_params(6.0, 2.75, 1.5)):
        for seed in ((7e-5, 7e-5), (9e-5, 4e-5)):
            drift, _ = _energy_drift_along_shot(P, ham, seed)
            worst = max(worst, drift)
            assert drift < 1e-6, (P.delta, P.mu, seed, drift)
    # conservation on the critical line
    Pd = potential_params(6.0, 2.0, 2.0, 0.5, 0.5)
    for seed in ((7e-5, 7e-5), (5e-5, 8e-5)):
        drift, _ = _energy_drift_along_shot(Pd, pot, seed)
        worst = max(worst, drift)
        assert drift < 1e-6, (seed, drift)
    # off-critical: the sign of the increments matches the closed-form coefficient
    for P, spec, sign in ((hamiltonian_params(6.0, 1.7, 1.7), ham, +1),
                          (hamiltonian_params(6.0, 2.5, 2.5), ham, -1),
                          (potential_params(6.0, 2.0, 2.0, 0.3, 0.3), pot, +1),
                          (potential_params(6.0, 2.0, 2.0, 0.7, 0.7), pot, -1)):
        _, vals = _energy_drift_along_shot(P, spec, (7e-5, 7e-5))
        diffs = sign * np.diff(vals)
        assert np.all(diffs > -1e-18), (P.delta, P.s)
    print(f"\nACCEPTANCE 4: PASS — critical-energy drift {worst:.2e} < 1e-6; "
          f"off-critical monotonicity signs match the derivative coefficients")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(55)
    t0 = time.monotonic()
    rho = 1e-6
    worst = 0.0
    configs = []
    while len(configs) < 10:
        P = hamiltonian_params(float(rng.uniform(4.5, 6.5)),
                               float(rng.uniform(1.3, 3.2)), float(rng.uniform(1.3, 3.2)),
                               a=float(rng.uniform(-0.3, 0.8)), b=float(rng.uniform(-0.3, 0.8)))
        configs.append(P)
    while len(configs) < 20:
        P = potential_params(float(rng.uniform(4.5, 6.5)),
                             float(rng.uniform(1.6, 2.8)), float(rng.uniform(1.6, 2.8)),
                             float(rng.uniform(0.0, 1.2)), float(rng.uniform(0.0, 1.2)),
                             a=float(rng.uniform(-0.2, 0.5)))
        configs.append(P)
    for P in configs:
        frac = rng.uniform(0.25, 0.75)
        err = oracle_compare(P, frac * rho, (1 - frac) * rho, rho)
        worst = max(worst, err)
        assert err < 1e-5, (P, err)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    print(f"\nACCEPTANCE 5: PASS — 20 configurations, worst route disagreement "
          f"{worst:.2e} < 1e-5, {elapsed:.1f}s")


def test_criterion_06_hamiltonian_dichotomy():
    t0 = time.monotonic()
    values = [round(1.2 + 0.1 * k, 10) for k in range(19)]
    found = []
    for v in values:
        res = search_ground_state(hamiltonian_params(6.0, v, v), n_angles=9)
        found.append(res.found)
    # the found set must be exactly a tail starting within one step of 2.0
    assert any(found) and not all(found)
    flip = values[found.index(True)]
    assert all(found[found.index(True):])
    assert not any(found[:found.index(True)])
    assert abs(flip - 2.0) <= 0.1 + 1e-9, flip

    P15 = hamiltonian_params(6.0, 1.5, 1.5)
    g = derive_exponents(P15).gamma
    d1 = search_dirichlet(P15, u0=1.0, n_angles=9)
    d2 = search_dirichlet(P15, u0=0.5, n_angles=9)
    assert d1.found and d1.radius is not None
    ratio = d2.radius / d1.radius
    assert abs(ratio - 2.0 ** (1.0 / g)) / 2.0 ** (1.0 / g) < 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, elapsed
    print(f"\nACCEPTANCE 6: PASS — found-GS flips at delta=mu={flip} (target 2.0 "
          f"± one step); Dirichlet radius {d1.radius:.4f} rescales by "
          f"{ratio:.6f} (law: {2.0 ** (1.0 / g):.6f}); {elapsed:.1f}s")


def test_criterion_07_potential_line():
    values = [round(0.2 + 0.05 * k, 10) for k in range(13)]
    found = []
    for v in values:
        res = search_ground_state(potential_params(6.0, 2.0, 2.0, v, v), n_angles=9)
        found.append(res.found)
    assert any(found) and not all(found)
    flip = values[found.index(True)]
    assert all(found[found.index(True):])
    assert not any(found[:found.index(True)])
    assert abs(flip - 0.5) <= 0.05 + 1e-9, flip

    # on the critical line both profiles decay like r^{-(N-p)/(p-1)} = r^{-4};
    # fit over two decades of u past the crossover (integration noise escapes
    # the heteroclinic beyond r ~ 1e3)
    Pd = potential_params(6.0, 2.0, 2.0, 0.5, 0.5)
    rad = integrate_radial(Pd, 1.0, 1.0, r_max=1e4)
    r, u, v = np.asarray(rad.r), np.asarray(rad.u), np.asarray(rad.v)
    mask = (r > 1e2) & (r < 1e3)
    lr = np.log(r[mask])
    for profile in (u[mask], v[mask]):
        A = np.vstack([lr, np.ones_like(lr)]).T
        slope = float(np.linalg.lstsq(A, np.log(profile), rcond=None)[0][0])
        assert abs(slope + 4.0) / 4.0 < 0.02, slope
    print(f"\nACCEPTANCE 7: PASS — found-GS flips at s=m={flip} (target 0.5 "
          f"± one step); critical profiles decay with slope -4 within 2%")


def test_criterion_08_nonvariational():
    P_hi = nonvariational_params(6.0, 0.5, 2.5, 2.5)
    res_hi = search_ground_state(P_hi, n_angles=9)
    assert res_hi.found

    grid = np.linspace(0.0, 4.0, 52)[1:-1]
    b_min = min(cubic_barrier(P_hi, X, Y) for X in grid for Y in grid)
    assert b_min > 0.0, b_min

    P_lo = nonvariational_params(6.0, 0.5, 1.2, 1.2)
    res_lo = search_ground_state(P_lo, n_angles=9)
    assert not res_lo.found
    assert all(read_shot(P_lo, *o.seed).m_class in (MClass.M1, MClass.M2, MClass.M3)
               for o in res_lo.outcomes)          # every shot vanishes
    print(f"\nACCEPTANCE 8: PASS — GS found at delta=mu=2.5; cubic barrier min "
          f"{b_min:.3e} > 0 on the interior grid; all shots vanish at delta=mu=1.2")


def test_criterion_09_scalar_catalog():
    for Q in (2.5, 4.0):
        rep = scalar_classify(3.0, 2.0, 0.0, Q)
        assert rep.behavior is ScalarBehavior.SIGN_CHANGING
        assert rep.evidence["zero_radius"] is not None
    rep5 = scalar_classify(3.0, 2.0, 0.0, 5.0)
    assert rep5.behavior is ScalarBehavior.GROUND_STATE_ON_LINE
    assert rep5.evidence["line_drift"] < 1e-8
    rep6 = scalar_classify(3.0, 2.0, 0.0, 6.0)
    assert rep6.behavior is ScalarBehavior.ALL_REGULAR_ARE_GS
    assert rep6.evidence["termination"] == "max-time"

    repm = scalar_classify(3.0, 2.0, 0.0, 2.0, eps=-1)
    assert repm.behavior is ScalarBehavior.ABSORPTION_CONNECTION
    s0, si = repm.evidence["slope_origin"], repm.evidence["slope_infinity"]
    assert abs(s0 + 1.0) / 1.0 < 0.02, s0     # r^{-(N-p)/(p-1)} at the origin
    assert abs(si + 2.0) / 2.0 < 0.02, si     # r^{-gamma} at infinity
    print(f"\nACCEPTANCE 9: PASS — scalar behaviors match at Q in {{2.5, 4, 5, 6}}; "
          f"absorption connection exponents ({s0:.4f}, {si:.4f}) within 2%")


def test_criterion_10_seed_robustness():
    shots = []
    for v in (1.2, 1.5, 2.0, 2.5, 3.0):
        shots.append((hamiltonian_params(6.0, v, v), math.pi / 4))
        shots.append((hamiltonian_params(6.0, v, v), math.pi / 8))
    for v in (1.2, 2.5):
        shots.append((nonvariational_params(6.0, 0.5, v, v), 3 * math.pi / 8))
    for v in (0.3, 0.7):
        shots.append((potential_params(6.0, 2.0, 2.0, v, v), math.pi / 4))
    changed = []
    for P, th in shots:
        outs = []
        for rho in (1e-4, 5e-5):
            out = read_shot(P, rho * math.cos(th), rho * math.sin(th), rho)
            outs.append((out.s_class, out.m_class))
        if outs[0] != outs[1]:
            changed.append((P, th, outs))
    assert not changed, changed
    print(f"\nACCEPTANCE 10: PASS — halving the manifold radius changes none of "
          f"{len(shots)} shot classifications")

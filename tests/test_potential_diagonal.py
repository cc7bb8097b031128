"""Exact answers off exchange symmetry: the potential family at p = q = 2.

For `potential_params(N, 2, 2, s, m, a)`, w = u - v solves
-Δw + |x|^a u^s v^m w = 0, so by the maximum principle every ground state and
every Dirichlet solution has u ≡ v, and u solves -Δu = |x|^a u^(s+m+1). A
ground state exists iff s + m + 1 >= Q2 = (N + 2 + 2a)/(N - 2), and a
Dirichlet solution is that of the Hamiltonian system with δ = μ = s + m + 1.
For s ≠ m the system is not exchange-symmetric, yet its answers are known
exactly: a defect that breaks the symmetry shows here.

At p = q ≠ 2 the diagonal u ≡ v is still invariant, and there u solves
-Δ_p u = |x|^a u^(s+m+1); the theory does not say that every solution is
diagonal. Only the Dirichlet side is checked there: the search finds the
diagonal solution, that of `symmetric_scalar_embedding(N, p, s+m+1)`.
"""

from __future__ import annotations

import math
import random

import pytest

from efdyn.dynamics import search_dirichlet, search_ground_state
from efdyn.model import hamiltonian_params, potential_params, symmetric_scalar_embedding
from efdyn.numerics import ANGLE_TOL
from efdyn.scalar import threshold_q2


def _draw(n=12, seed=19):
    """n points (N, s, m, a) with |s - m| >= 0.1, every other one with a = 0,
    each at least 0.05 from Q2 in s + m + 1."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        N, s, m = rng.uniform(4.5, 6.5), rng.uniform(0.02, 0.9), rng.uniform(0.02, 0.9)
        a = 0.0 if len(points) % 2 == 0 else rng.uniform(-0.5, 1.0)
        if abs(s - m) >= 0.1 and abs(s + m + 1 - threshold_q2(N, 2.0, a)) >= 0.05:
            points.append((N, s, m, a))
    return points


POINTS = _draw()


def test_draw_covers_both_sides_and_both_weights():
    above = [s + m + 1 > threshold_q2(N, 2.0, a) for N, s, m, a in POINTS]
    assert any(above) and not all(above)
    assert any(a == 0.0 for *_, a in POINTS) and any(a != 0.0 for *_, a in POINTS)


@pytest.mark.parametrize("N,s,m,a", POINTS,
                         ids=[f"N{N:.3f}-s{s:.3f}-m{m:.3f}-a{a:.3f}" for N, s, m, a in POINTS])
class TestPotentialDiagonal:
    def test_ground_state_iff_above_q2_on_the_diagonal(self, N, s, m, a):
        res = search_ground_state(potential_params(N, 2, 2, s, m, a), n_angles=9)
        assert res.found is (s + m + 1 >= threshold_q2(N, 2.0, a))
        assert res.boundaries
        for b in res.boundaries:
            assert abs(b.angle - math.pi / 4) <= ANGLE_TOL

    def test_dirichlet_solution_is_the_hamiltonian_one(self, N, s, m, a):
        # below Q2 the ball carries a Dirichlet solution; at and above it
        # Pohozaev's identity rules one out
        res = search_dirichlet(potential_params(N, 2, 2, s, m, a), u0=1.0, n_angles=9)
        assert res.found is (s + m + 1 < threshold_q2(N, 2.0, a))
        if not res.found:
            return
        u0, v0 = res.initial_values
        assert u0 == 1.0 and v0 == pytest.approx(1.0, rel=1e-9, abs=0.0)
        assert res.radius == pytest.approx(res.v_zero_radius, rel=1e-9, abs=0.0)
        Q = s + m + 1
        ham = search_dirichlet(hamiltonian_params(N, Q, Q, a, a), u0=1.0, n_angles=9)
        assert res.radius == pytest.approx(ham.radius, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p,s,m", [(2.3, 0.2, 0.6), (2.3, 0.1, 0.7), (1.8, 0.1, 0.4)])
def test_dirichlet_solution_off_p_2_is_the_diagonal_one(p, s, m):
    res = search_dirichlet(potential_params(6.0, p, p, s, m), u0=1.0, n_angles=9)
    assert res.found and res.angle == math.pi / 4
    u0, v0 = res.initial_values
    assert u0 == 1.0 and v0 == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert res.v_zero_radius == pytest.approx(res.radius, rel=2e-12, abs=0.0)
    scalar = search_dirichlet(symmetric_scalar_embedding(6.0, p, s + m + 1), u0=1.0, n_angles=9)
    assert res.radius == pytest.approx(scalar.radius, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s,m", [(0.3, 0.7), (0.1, 0.9)])
def test_critical_line_answer_is_pinned(s, m):
    """Today's answer on the critical line s + m + 1 = Q2 = 2 (N = 6, a = 0).

    The search says found=True, as the theory does, but from one
    "ground-state" boundary whose limit shot is S1, 3.66e-11 below pi/4, not
    from the diagonal orbit that the theory makes the ground state. At
    s = m = 0.5 the same line gives found=False. ROADMAP item 4(a) owns these
    pins; its witness here is to be `scalar.explicit_critical_solution` with
    Q = s + m + 1, and the change that lands it moves them on purpose.
    """
    res = search_ground_state(potential_params(6.0, 2, 2, s, m), n_angles=9)
    assert res.found
    [b] = res.boundaries
    assert b.kind == "ground-state" and b.outcome.s_class.value == "S1"
    assert math.pi / 4 - b.angle == pytest.approx(3.66e-11, rel=0.01)

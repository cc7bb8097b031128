import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from efdyn.equilibria import (EXCHANGE_IMAGE, FixedPointLabel, fixed_point, fixed_point_catalog,
                              m0_coords)
from efdyn.model import SystemParams, derive_exponents, exchange_params, hamiltonian_params
from efdyn.spectra import (Direction, Existence, closed_form_eigenvalues, jacobian_at,
                           local_verdicts, m0_characteristic, oscillation_condition,
                           polynomial_roots, spectrum_at)

from conftest import draw_params, field

HAM6 = hamiltonian_params(6.0, 2.0, 2.0)


def match_eigs(a, b):
    """Max absolute pairing distance between two eigenvalue multisets."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def rel_match(a, b):
    """Max pairing distance between two root multisets, relative to 1 + |b|."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    cost = np.abs(a[:, None] - b[None, :]) / (1 + np.abs(b[None, :]))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


class TestJacobian:
    def test_block_structure_at_regular_corner(self):
        J = np.array(jacobian_at(HAM6, (0.0, 0.0, 6.0, 6.0)))
        assert np.diag(J) == pytest.approx([2.0, 2.0, -6.0, -6.0])
        assert J[0, 2] == 0.0 and J[1, 3] == 0.0   # triangular couplings only

    def test_origin_diagonal(self):
        P = SystemParams(N=5.0, p=2.0, q=3.0, a=0.5, b=-0.5, delta=2.0, mu=2.0)
        J = np.array(jacobian_at(P, (0.0, 0.0, 0.0, 0.0)))
        want = [-(P.N - P.p) / (P.p - 1), -(P.N - P.q) / (P.q - 1), P.N + P.a, P.N + P.b]
        assert np.allclose(J, np.diag(want))

    def test_finite_difference_agreement(self, rng):
        for _ in range(40):
            P = draw_params(rng)
            coords = rng.uniform(-2.0, 6.0, size=4)
            J = np.array(jacobian_at(P, coords))
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                col = (field(P, coords + e) - field(P, coords - e)) / (2 * h)
                assert col == pytest.approx(J[:, j], rel=1e-6, abs=1e-6)


class TestQuartic:
    def test_hamiltonian_n6_coefficients(self):
        qc = m0_characteristic(HAM6)
        assert (qc.E, qc.F, qc.G, qc.H) == pytest.approx((0.0, -8.0, 0.0, 48.0))
        roots = polynomial_roots(qc.as_poly())
        want = sorted([2 * math.sqrt(3), -2 * math.sqrt(3), 2j, -2j],
                      key=lambda z: (z.real, z.imag))
        assert match_eigs(roots, want) < 1e-10

    def test_root_product_negative_when_interior(self, rng):
        count = 0
        while count < 60:
            P = draw_params(rng)
            fp = fixed_point(P, FixedPointLabel.M0)
            if not fp.admissible:
                continue
            qc = m0_characteristic(P)
            assert qc.H > 0.0
            roots = polynomial_roots(qc.as_poly())
            assert np.prod(roots).real == pytest.approx(-qc.H, rel=1e-8)
            count += 1

    def test_constant_term_identity(self, rng):
        # H = D X0 Y0 Z0 W0 / ((p-1)(q-1))
        for _ in range(40):
            P = draw_params(rng)
            qc = m0_characteristic(P)
            ex = derive_exponents(P)
            Z0 = P.N - P.p - (P.p - 1) * ex.gamma
            W0 = P.N - P.q - (P.q - 1) * ex.xi
            want = P.D * ex.gamma * ex.xi * Z0 * W0 / ((P.p - 1) * (P.q - 1))
            assert qc.H == pytest.approx(want, rel=1e-12, abs=1e-12)

    @staticmethod
    def _decoupled(P):
        """Product of the two single-equation quadratics at M0, and the shift
        -delta mu X0 Y0 Z0 W0/((p-1)(q-1)) the coupling adds to its constant term."""
        X0, Y0, Z0, W0 = m0_coords(P)
        f1 = [1.0, Z0 - X0, X0 * Z0 * (P.s - P.p + 1) / (P.p - 1)]
        f2 = [1.0, W0 - Y0, Y0 * W0 * (P.m - P.q + 1) / (P.q - 1)]
        shift = -P.delta * P.mu * X0 * Y0 * Z0 * W0 / ((P.p - 1) * (P.q - 1))
        return np.polymul(f1, f2), shift

    def test_decoupled_factorization(self, rng):
        # apart from the constant term, the quartic is the exact product of
        # the two single-equation quadratics
        for P in [HAM6] + [draw_params(rng) for _ in range(40)]:
            prod, shift = self._decoupled(P)
            scale = 1 + np.max(np.abs(prod)) + abs(shift)
            full = m0_characteristic(P).as_poly()
            assert np.max(np.abs(full[:4] - prod[:4])) < 1e-12 * scale

    def test_coupling_only_shifts_constant(self, rng):
        # the coupling moves the constant term of the product by the shift
        for P in [HAM6] + [draw_params(rng) for _ in range(40)]:
            prod, shift = self._decoupled(P)
            scale = 1 + np.max(np.abs(prod)) + abs(shift)
            full = m0_characteristic(P).as_poly()
            assert abs(full[4] - (prod[4] + shift)) < 1e-12 * scale


class TestPolynomialRoots:
    def test_biquadratic(self):
        roots = polynomial_roots([1.0, 0.0, -8.0, 0.0, -48.0])
        want = sorted([-2 * math.sqrt(3), 2 * math.sqrt(3), 2j, -2j],
                      key=lambda z: (z.real, z.imag))
        assert match_eigs(roots, want) < 1e-12

    def test_quadruple_zero(self):
        assert np.all(np.asarray(polynomial_roots([1.0, 0, 0, 0, 0])) == 0)

    def test_constructed_factorization(self):
        coeffs = np.poly([1.0, 2.0, 3.0, 4.0])
        roots = polynomial_roots(coeffs)
        assert match_eigs(roots, [1, 2, 3, 4]) < 1e-9

    def test_residual_bound(self, rng):
        for _ in range(50):
            c = np.concatenate([[1.0], rng.uniform(-5, 5, size=4)])
            for z in polynomial_roots(c):
                assert abs(np.polyval(c, z)) < 1e-9 * (1 + abs(z) ** 4)

    def test_sorted_deterministic(self):
        r1 = polynomial_roots([1.0, 0.0, -8.0, 0.0, -48.0])
        r2 = polynomial_roots([1.0, 0.0, -8.0, 0.0, -48.0])
        assert np.all(r1 == r2)
        keys = [(z.real, z.imag) for z in r1]
        assert keys == sorted(keys)


def numpy_roots(coeffs):
    """The companion-matrix routine `polynomial_roots` replaced, kept as its
    oracle: `np.roots`, one Newton polish step, the snap to the real axis and
    the (Re, Im) sort."""
    c = np.asarray(coeffs, dtype=float)
    roots = np.roots(c).astype(complex)
    f = np.polyval(c, roots)
    df = np.polyval(np.polyder(c), roots)
    step = np.where(df != 0, f / np.where(df == 0, 1, df), 0)
    polished = roots - step
    roots = np.where(np.abs(np.polyval(c, polished)) <= np.abs(f), polished, roots)
    roots = np.where(np.abs(roots.imag) < 1e-12 * (1.0 + np.abs(roots)), roots.real + 0j, roots)
    return tuple(complex(z) for z in roots[np.lexsort((roots.imag, roots.real))])


def assert_same_zeros(got, want):
    """Each part that is zero in the oracle's roots is the same signed zero in
    `got`: a -0.0 for numpy's +0.0 would change the report's text. (Where
    numpy leaves roundoff, as -6e-33 for an exact 0, `got` may be exact.)"""
    cost = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    for i, j in zip(*linear_sum_assignment(cost)):
        g, w = got[i], want[j]
        for x, y in ((g.real, w.real), (g.imag, w.imag)):
            if y == 0.0:
                assert (x, math.copysign(1.0, x)) == (y, math.copysign(1.0, y)), (got, want)


class TestAgainstNumpyRoots:
    def test_random_quartics(self, rng):
        for _ in range(2000):
            c = [1.0] + list(rng.uniform(-5, 5, size=4))
            got, want = polynomial_roots(c), numpy_roots(c)
            assert all(type(z) is complex for z in got)
            assert rel_match(got, want) < 1e-14, c
            # complex roots come in exact conjugate pairs
            cplx = [z for z in got if z.imag != 0.0]
            assert sorted(cplx, key=lambda z: (z.real, z.imag)) == \
                sorted((z.conjugate() for z in cplx), key=lambda z: (z.real, z.imag))

    def test_biquadratics(self, rng):
        # E = G = 0, the branch of M0's purely imaginary pairs: roots +-a or
        # +-i a and +-i b, to numpy's accuracy
        for _ in range(500):
            a, b = rng.uniform(0.1, 4.0, size=2)
            for roots in ([a, -a, 1j * b, -1j * b], [1j * a, -1j * a, 1j * b, -1j * b]):
                c = np.real(np.poly(roots))
                c[1] = c[3] = 0.0
                got, want = polynomial_roots(c), numpy_roots(c)
                assert match_eigs(got, want) < 1e-14 * (1 + max(a, b)), c

    def test_double_roots(self, rng):
        # a double root is only determined to about sqrt(eps): numpy's
        # companion matrix is off by up to ~2e-7 on these draws
        for _ in range(200):
            x, y = rng.uniform(-3, 3, size=2)
            w = rng.uniform(0.1, 3)
            for roots in ([x, x, y, y + 1.0], [x + 1j * w, x - 1j * w] * 2,
                          [x, x, y + 1j * w, y - 1j * w]):
                assert rel_match(polynomial_roots(np.real(np.poly(roots))), roots) < 1e-6, roots

    @pytest.mark.parametrize("coeffs", [[1.0, 0.0, 0.0, 0.0, 0.0],    # x^4
                                        [1.0, -1.0, 0.0, 0.0, 0.0],   # x^3 (x - 1)
                                        [1.0, 0.0, 1.0, 0.0, 0.0],    # x^2 (x^2 + 1)
                                        [1.0, -6.0, 11.0, -6.0, 0.0],   # x (x-1)(x-2)(x-3)
                                        [1.0, 2.0, 1.0, 2.0, 0.0]])     # x (x+2)(x^2+1)
    def test_exact_zero_roots(self, coeffs):
        got = polynomial_roots(coeffs)
        want = numpy_roots(coeffs)
        n_zero = len(coeffs) - 1 - max(i for i, a in enumerate(coeffs) if a != 0.0)
        assert [z for z in got if z == 0] == [0j] * n_zero
        assert match_eigs(got, want) < 1e-15
        assert_same_zeros(got, want)

    def test_m0_verdicts_equal_the_oracle(self, rng, monkeypatch):
        import efdyn.spectra as spectra
        points = [draw_params(rng) for _ in range(200)]
        points += [hamiltonian_params(N, d, d) for N in (4.0, 5.0, 6.0, 7.0)
                   for d in (1.2, 2.0, 3.0)]     # E = G = 0 on the critical hyperbola

        def m0_answers(P):
            fp = fixed_point(P, FixedPointLabel.M0)
            sp = spectrum_at(P, fp)
            return (sp.eigenvalues, (sp.stable_dim, sp.unstable_dim, sp.center_dim),
                    oscillation_condition(P), local_verdicts(P, fp))

        got = [m0_answers(P) for P in points]
        monkeypatch.setattr(spectra, "polynomial_roots", numpy_roots)
        want = [m0_answers(P) for P in points]
        for (eg, dg, og, vg), (ew, dw, ow, vw) in zip(got, want):
            assert (dg, og, vg) == (dw, ow, vw)
            assert_same_zeros(eg, ew)
            assert match_eigs(eg, ew) < 1e-13 * (1 + max(abs(z) for z in ew))

    def test_hamiltonian_critical_spectrum(self):
        # the analyze report's M0 row: -2 sqrt(3) correctly rounded, +0.0 zeros
        sp = spectrum_at(HAM6, fixed_point(HAM6, FixedPointLabel.M0))
        assert sp.to_dict()["eigenvalues"] == [
            {"re": -math.sqrt(12.0), "im": 0.0}, {"re": 0.0, "im": -2.0},
            {"re": 0.0, "im": 2.0}, {"re": math.sqrt(12.0), "im": 0.0}]
        assert [math.copysign(1.0, z.imag if z.imag == 0.0 else z.real)
                for z in sp.eigenvalues] == [1.0] * 4


class TestSpectra:
    def test_closed_forms_hamiltonian(self):
        fpA = fixed_point(HAM6, FixedPointLabel.A0)
        assert match_eigs(spectrum_at(HAM6, fpA).eigenvalues, [4, 4, -2, -2]) < 1e-12
        P4 = hamiltonian_params(4.0, 2.0, 2.0)
        fpN = fixed_point(P4, FixedPointLabel.N0)
        assert match_eigs(spectrum_at(P4, fpN).eigenvalues, [2, 2, -4, -4]) < 1e-12

    def test_m0_manifold_dimensions(self):
        sp = spectrum_at(HAM6, fixed_point(HAM6, FixedPointLabel.M0))
        assert (sp.stable_dim, sp.unstable_dim, sp.center_dim) == (1, 1, 2)
        assert sp.stable_dim + sp.unstable_dim + sp.center_dim == 4

    def test_cross_validation_random(self, rng):
        checked = 0
        while checked < 60:
            P = draw_params(rng)
            for fp in fixed_point_catalog(P):
                if not fp.defined:
                    continue
                cf = closed_form_eigenvalues(P, fp.label)
                if min_gap(cf) < 1e-3:
                    continue
                num = np.linalg.eigvals(np.array(jacobian_at(P, fp.coords)))
                scale = max(1.0, float(np.max(np.abs(num))))
                assert match_eigs(cf, num) < 1e-8 * scale, fp.label
            checked += 1

    @pytest.mark.parametrize("label", [FixedPointLabel.P0, FixedPointLabel.C0,
                                       FixedPointLabel.R0, FixedPointLabel.Q0,
                                       FixedPointLabel.D0, FixedPointLabel.S0],
                             ids=lambda label: label.value)
    def test_yw_block_roots_to_fifty_digits(self, rng, label):
        # P0, C0 and R0 share the (Y, W) block lambda^2 - (Y - W) lambda + c Y W,
        # c = (m + 1 - q)/(q - 1); Q0, D0 and S0 are their exchange images. Its
        # two roots, real and imaginary parts, against a 50-digit evaluation
        checked = 0
        while checked < 100:
            P = draw_params(rng)
            image = exchange_params(P) if label in EXCHANGE_IMAGE else P
            fp = fixed_point(image, EXCHANGE_IMAGE.get(label, label))
            if not fp.defined:
                continue
            _, Y, _, W = fp.coords
            b, c = -(Y - W), (image.m + 1 - image.q) / (image.q - 1) * Y * W
            got = sorted(closed_form_eigenvalues(P, label)[2:], key=lambda z: (z.real, z.imag))
            want = sorted(_decimal_quad_roots(b, c))
            for g, (re, im) in zip(got, want):
                # each root to 1e-15 of its own modulus: the smaller root of a
                # real pair suffers no cancellation
                tol = Decimal(1e-15) * (re * re + im * im).sqrt()
                assert abs(Decimal(g.real) - re) <= tol, fp.label
                assert abs(Decimal(g.imag) - im) <= tol, fp.label
            checked += 1


def _decimal_quad_roots(b, c):
    """(real, imaginary) parts of the roots of x^2 + b x + c, for the floats b
    and c taken exactly, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        B, C = Decimal(b), Decimal(c)
        disc = B * B - 4 * C
        root = abs(disc).sqrt()
        if disc >= 0:
            return [((-B - root) / 2, Decimal(0)), ((-B + root) / 2, Decimal(0))]
        return [(-B / 2, -root / 2), (-B / 2, root / 2)]


def min_gap(vals):
    vals = np.asarray(vals, complex)
    n = len(vals)
    g = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            g = min(g, abs(vals[i] - vals[j]))
    return g


class TestOscillation:
    def test_critical_diagonal_is_center_branch(self):
        rep = oscillation_condition(HAM6)
        assert rep.imaginary_pair and rep.branch == "E=G=0 (i)" and rep.on_hs

    def test_supercritical_diagonal_is_not(self):
        P = hamiltonian_params(6.0, 3.0, 3.0)
        rep = oscillation_condition(P)
        assert not rep.imaginary_pair and rep.branch is None and rep.on_hs is False

    def test_second_branch_family(self):
        # p=3, q=4, N=8 with s/(p-1) = m/(q-1): the pair (gamma, xi) =
        # (N(q-2)/(pq-p-q)-1, N(p-2)/(pq-p-q)-1) solves the degenerate system
        N, p, q, s, m = 8.0, 3.0, 4.0, 0.4, 0.6
        g = N * (q - 2) / (p * q - p - q) - 1      # 11/5
        x = N * (p - 2) / (p * q - p - q) - 1      # 3/5
        # the stated root satisfies both degeneracy equations
        assert p * g + q * x == pytest.approx(2 * N - p - q, rel=1e-12)
        lhs = (1 - m / (q - 1)) * x * (N - q - (q - 1) * x)
        rhs = (1 - s / (p - 1)) * g * (N - p - (p - 1) * g)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # back out delta, mu realizing these decay rates
        delta = ((p - 1 - s) * g + p) / x
        mu = ((q - 1 - m) * x + q) / g
        P = SystemParams(N=N, p=p, q=q, s=s, m=m, delta=delta, mu=mu)
        ex = derive_exponents(P)
        assert ex.gamma == pytest.approx(g, rel=1e-12)
        rep = oscillation_condition(P)
        assert rep.imaginary_pair and rep.branch == "E=G=0 (ii)"

    def test_hs_equivalence_for_small_s(self, rng):
        # p = q = 2, s = m <= 1: imaginary pair at M0 iff gamma + xi = N - 2
        for _ in range(40):
            N = rng.uniform(4.0, 7.0)
            s = rng.uniform(0.0, 1.0)
            delta = rng.uniform(s + 0.2, 3.5)
            mu = rng.uniform(s + 0.2, 3.5)
            P = SystemParams(N=N, p=2.0, q=2.0, s=s, m=s, delta=delta, mu=mu)
            if P.D <= 0.1:
                continue
            rep = oscillation_condition(P)
            if rep.on_hs is None:
                continue
            assert rep.imaginary_pair == rep.on_hs

    def test_on_hs_exact_point(self):
        # engineered on the hyperbola: s = 0.5, N = 6, delta = mu solving
        # gamma + xi = N - 2
        N, s = 6.0, 0.5
        d = (N + 2) / (N - 2) - s        # diagonal crossing of the center curve
        P = SystemParams(N=N, p=2.0, q=2.0, s=s, m=s, delta=d, mu=d)
        rep = oscillation_condition(P)
        assert rep.on_hs and rep.imaginary_pair


class TestLocalVerdicts:
    def test_regular_corner(self):
        fp = fixed_point(HAM6, FixedPointLabel.N0)
        vs = {v.direction: v for v in local_verdicts(HAM6, fp)}
        assert vs[Direction.TO_ZERO].exists is Existence.YES
        assert vs[Direction.TO_INFINITY].exists is Existence.NO

    def test_decay_corner_supercritical(self):
        # s*4 + delta*4 = 8 > 6 on both sides: admissible trajectories toward
        # infinity with profile exponents (N-p)/(p-1) = 4
        fp = fixed_point(HAM6, FixedPointLabel.A0)
        vs = {v.direction: v for v in local_verdicts(HAM6, fp)}
        inf = vs[Direction.TO_INFINITY]
        assert inf.exists is Existence.YES
        assert inf.profile.u_exponent == pytest.approx(4.0)
        assert inf.profile.v_exponent == pytest.approx(4.0)
        assert vs[Direction.TO_ZERO].exists is Existence.NO

    def test_hyperplane_points_admit_nothing(self):
        for lab in (FixedPointLabel.O, FixedPointLabel.K0, FixedPointLabel.L0):
            fp = fixed_point(HAM6, lab)
            for v in local_verdicts(HAM6, fp):
                assert v.exists is Existence.NO

    def test_boundary_case_flagged(self):
        # A0 with lambda_3 = 0 exactly: s*cp + delta*cq = N + a
        P = SystemParams(N=6.0, p=2.0, q=2.0, s=0.5, m=0.0, delta=1.0, mu=2.0)
        # s*4 + 1*4 = 6 = N
        fp = fixed_point(P, FixedPointLabel.A0)
        vs = local_verdicts(P, fp)
        assert any(v.exists is Existence.BOUNDARY for v in vs)

    def test_exchange_antisymmetry(self, rng):
        pairs = [(FixedPointLabel.I0, FixedPointLabel.J0),
                 (FixedPointLabel.G0, FixedPointLabel.H0),
                 (FixedPointLabel.P0, FixedPointLabel.Q0),
                 (FixedPointLabel.C0, FixedPointLabel.D0),
                 (FixedPointLabel.R0, FixedPointLabel.S0)]
        for _ in range(20):
            P = draw_params(rng)
            Px = exchange_params(P)
            for base, sym in pairs:
                fp_sym = fixed_point(P, sym)
                fp_base = fixed_point(Px, base)
                if not fp_sym.defined:
                    continue
                vs_sym = local_verdicts(P, fp_sym)
                vs_base = local_verdicts(Px, fp_base)
                for a, b in zip(vs_sym, vs_base):
                    assert a.direction == b.direction and a.exists == b.exists
                    if a.profile and b.profile:
                        assert a.profile.u_exponent == pytest.approx(b.profile.v_exponent)
                        assert a.profile.v_exponent == pytest.approx(b.profile.u_exponent)

    # one point per verdict of each label that reads the shared sign rule, with
    # N = 6, p = q = 2, delta = mu = 1, s = m = 0 unless stated
    @pytest.mark.parametrize("label,changes,to_inf,to_zero", [
        ("I0", dict(s=2.0, mu=2.0), "YES", "NO"),
        ("I0", dict(s=1.5), "BOUNDARY", "NO"),
        ("I0", dict(), "NO", "NO"),
        ("G0", dict(s=2.0, mu=1.0), "YES", "NO"),
        ("G0", dict(mu=0.25), "NO", "YES"),
        ("G0", dict(mu=0.5), "BOUNDARY", "BOUNDARY"),
        ("P0", dict(delta=4.0), "YES", "NO"),
        ("P0", dict(delta=2.0), "NO", "YES"),
        ("P0", dict(delta=3.0), "BOUNDARY", "BOUNDARY"),
        ("P0", dict(m=2.0, mu=0.25, delta=10.0), "YES", "NO"),    # q < m+1
        ("P0", dict(m=2.0, mu=0.25, delta=1.0), "NO", "YES"),
        ("R0", dict(m=3.0, delta=3.0), "YES", "NO"),
        ("R0", dict(m=3.0, delta=1.0), "NO", "YES"),
        ("R0", dict(m=3.0, delta=2.0), "BOUNDARY", "BOUNDARY"),
    ])
    def test_sign_rule_points(self, label, changes, to_inf, to_zero):
        P = SystemParams(N=6.0, p=2.0, q=2.0).replace(**changes)
        fp = fixed_point(P, FixedPointLabel[label])
        vs = {v.direction: v.exists for v in local_verdicts(P, fp)}
        assert vs[Direction.TO_INFINITY] is Existence[to_inf]
        assert vs[Direction.TO_ZERO] is Existence[to_zero]

    def test_interior_point_both_directions(self):
        fp = fixed_point(HAM6, FixedPointLabel.M0)
        for v in local_verdicts(HAM6, fp):
            assert v.exists is Existence.YES
            assert v.profile.u_exponent == pytest.approx(2.0)

import numpy as np
import pytest

from confocal import suites
from confocal.dynamics import SystemSpec
from confocal.errors import DimensionError, PoleError
from confocal.potentials import (
    bd_residual,
    delta_omega,
    delta_value,
    hierarchy_eval,
    hierarchy_gradient,
    hierarchy_potential,
    omega_coefficients,
    rosochatius_eval,
)

AXES = np.array([1.0, 2.0, 3.0])


class TestHierarchyRecurrence:
    def test_first_three_closed_forms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=3)
            t = hierarchy_eval(AXES, x, 3)
            xx = x @ x
            axx = (AXES * x) @ x
            a2xx = (AXES**2 * x) @ x
            np.testing.assert_allclose(t.V[0], xx, rtol=1e-14)
            np.testing.assert_allclose(t.F[0], x * x, rtol=1e-14)
            np.testing.assert_allclose(t.V[1], axx - xx * xx, rtol=1e-13)
            np.testing.assert_allclose(t.F[1], x * x * (AXES - xx), rtol=1e-13)
            np.testing.assert_allclose(
                t.V[2], a2xx - t.V[0] * axx - t.V[1] * xx, rtol=1e-12, atol=1e-12)

    def test_closure_is_exact_in_same_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = rng.normal(size=3)
            t = hierarchy_eval(AXES, x, 6)
            for k in range(6):
                assert t.V[k] == t.F[k].sum()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        t = hierarchy_eval(AXES, x, 4)
        h = 1e-6
        for k in range(4):
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (hierarchy_eval(AXES, x + e, 4).V[k]
                      - hierarchy_eval(AXES, x - e, 4).V[k]) / (2 * h)
                np.testing.assert_allclose(t.gradV[k][i], fd, rtol=1e-7, atol=1e-7)

    def test_elliptic_coordinate_product_form_cross_check(self):
        # the same polynomials evaluated through the confocal parameters of
        # the point: V^(k) = -sum_j lam_j^{k-1} prod_i (lam_j - a_i) /
        # prod_{i != j} (lam_j - lam_i); sign fixed by the degree-2 member
        from confocal.geometry import EllipsoidSpec, elliptic_coords

        spec = EllipsoidSpec(AXES)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=3)
            if np.min(np.abs(x)) < 1e-2:
                continue
            lam = np.array(elliptic_coords(spec, x).lam)
            t = hierarchy_eval(AXES, x, 3)
            for k in range(1, 4):
                val = 0.0
                for j in range(3):
                    num = lam[j] ** (k - 1) * np.prod(lam[j] - AXES)
                    den = np.prod(np.delete(lam[j] - lam, j))
                    val -= num / den
                np.testing.assert_allclose(val, t.V[k - 1], rtol=1e-9, atol=1e-9)


class TestRosochatius:
    def test_inverse_square_value(self):
        x = np.array([0.7, 2.0, 1.1])
        assert rosochatius_eval(AXES, x, 1, -1) == 0.25

    def test_two_coordinate_hand_expansion(self):
        # n = 1 case expanded by hand at a frozen point:
        # V = (1 + x1^2/(a0-a1)) / x0^4
        a = np.array([2.0, 1.0])
        x = np.array([0.8, 1.3])
        V_hand = (1.0 + 1.3**2 / (2.0 - 1.0)) / 0.8**4
        np.testing.assert_allclose(rosochatius_eval(a, x, 0, -2), V_hand, rtol=1e-14)

    def test_stack_rows_equal_the_one_point_calls(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.3, 1.4, size=(200, 3)) * rng.choice([-1.0, 1.0], size=(200, 3))
        for s in range(3):
            for degree in (-1, -2):
                got = rosochatius_eval(AXES, x, s, degree)
                assert got.shape == (200,)
                one = [rosochatius_eval(AXES, row, s, degree) for row in x]
                assert all(isinstance(v, float) for v in one)
                np.testing.assert_array_equal(got, one)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            rosochatius_eval(AXES, np.array([0.0, 1.0, 1.0]), 0, -1)

    def test_spec_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            SystemSpec("jacobi_rosochatius", AXES, mu=(0.1, -0.2, 0.0))


# ---------------------------------------------------------------------------
# reference: the per-point stencils that the stacked evaluation replaced.
# Each calls V on one point at a time; bd_residual must equal them bit for
# bit whenever V's value at a point does not depend on the stack around it
# ---------------------------------------------------------------------------

_OFFS = (-2.0, -1.0, 1.0, 2.0)
_WTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _fd1(func, x, i, h):
    e = np.zeros_like(x)
    e[i] = 1.0
    return sum(w * func(x + o * h * e) for o, w in zip(_OFFS, _WTS)) / h


def _fd2_diag(func, x, i, h):
    e = np.zeros_like(x)
    e[i] = 1.0
    return (-func(x + 2 * h * e) + 16 * func(x + h * e) - 30 * func(x)
            + 16 * func(x - h * e) - func(x - 2 * h * e)) / (12 * h * h)


def _fd2_mixed(func, x, i, j, hi, hj):
    ei = np.zeros_like(x)
    ei[i] = 1.0
    ej = np.zeros_like(x)
    ej[j] = 1.0
    tot = 0.0
    for oi, wi in zip(_OFFS, _WTS):
        for oj, wj in zip(_OFFS, _WTS):
            tot += wi * wj * func(x + oi * hi * ei + oj * hj * ej)
    return tot / (hi * hj)


def bd_residual_per_point(axes, V, x):
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    n1 = a.size
    hs = 5e-4 * (0.25 + np.abs(x))
    d1 = [_fd1(V, x, k, hs[k]) for k in range(n1)]
    d2 = [[_fd2_diag(V, x, k, hs[k]) if k == l
           else _fd2_mixed(V, x, k, l, hs[k], hs[l]) for l in range(n1)]
          for k in range(n1)]
    out = []
    for i in range(n1):
        for j in range(i + 1, n1):
            rot = 3.0 * (x[j] * d1[i] - x[i] * d1[j])
            for k in range(n1):
                rot += x[k] * (x[j] * d2[i][k] - x[i] * d2[j][k])
            out.append((a[i] - a[j]) * d2[i][j] + rot)
    return np.array(out, dtype=float)


class TestBertrandDarboux:
    def test_constant_potential(self):
        # only stencil roundoff survives on a constant
        val = bd_residual(AXES, lambda p: np.full(p.shape[:-1], 4.2),
                          np.array([0.5, 0.8, -0.9]))
        assert val.shape == (3,)
        assert np.max(np.abs(val)) < 1e-9

    def test_quadratic_member_annihilated(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(0.4, 1.2, size=3)
            V1 = lambda p: np.vecdot(p, p)
            assert np.max(np.abs(bd_residual(AXES, V1, x))) < 1e-7

    def test_nonseparable_monomial_detected_and_matches_analytic(self):
        # V = x0^3 x1: residual of the pair (0, 1) =
        # (a0-a1) 3 x0^2 + 18 x0^2 x1^2 - 6 x0^4
        x = np.array([0.9, 0.7, 1.1])
        V = lambda p: p[..., 0] ** 3 * p[..., 1]
        analytic = ((AXES[0] - AXES[1]) * 3.0 * x[0] ** 2
                    + 18.0 * x[0] ** 2 * x[1] ** 2 - 6.0 * x[0] ** 4)
        got = bd_residual(AXES, V, x)[0]
        assert abs(analytic) > 1e-3
        np.testing.assert_allclose(got, analytic, rtol=1e-6)

    def test_annihilates_nonnegative_combinations(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 1.1, size=3)

        def combo(p):
            t = hierarchy_eval(AXES, p, 3)
            vr = rosochatius_eval(AXES, p, 2, -1)
            return 0.5 * t.V[1] + 0.25 * t.V[2] + 1.5 * vr

        assert np.max(np.abs(bd_residual(AXES, combo, x))) < 1e-6

    def test_vector_potential_equals_its_scalar_components(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(0.4, 1.2, size=3) * rng.choice([-1.0, 1.0], size=3)
            comps = [lambda p, k=k: hierarchy_eval(AXES, p, 4).V[k] for k in range(4)]
            comps += [lambda p, s=s: rosochatius_eval(AXES, p, s, -2) for s in range(3)]
            got = bd_residual(AXES, lambda p: np.stack([c(p) for c in comps], axis=-1), x)
            assert got.shape == (3, len(comps))
            for col, c in enumerate(comps):
                assert np.array_equal(got[:, col], bd_residual(AXES, c, x))

    @pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (0.7, 1.1, 2.0, 3.2)])
    def test_one_call_of_V_equals_the_per_point_stencils(self, axes):
        rng = np.random.default_rng(12)
        n1 = len(axes)
        for _ in range(10):
            x = rng.uniform(0.4, 1.2, size=n1) * rng.choice([-1.0, 1.0], size=n1)
            shapes = []

            def V(p):
                shapes.append(p.shape)
                return np.stack(hierarchy_eval(axes, p, 4).V, axis=-1)

            got = bd_residual(axes, V, x)
            assert shapes == [(1 + 4 * n1 + 16 * n1 * (n1 - 1), n1)]
            want = bd_residual_per_point(axes, lambda p: np.array(hierarchy_eval(axes, p, 4).V), x)
            np.testing.assert_array_equal(got, want)
            want = bd_residual_per_point(axes, lambda p: hierarchy_eval(axes, p, 3).V[2], x)
            np.testing.assert_array_equal(
                bd_residual(axes, lambda p: hierarchy_eval(axes, p, 3).V[2], x), want)

    def test_a_potential_that_does_not_broadcast_is_rejected(self):
        with pytest.raises(DimensionError):
            bd_residual(AXES, lambda p: p[0] ** 3 * p[1], np.array([0.9, 0.7, 1.1]))


class TestDeltaOmega:
    def test_first_members(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=3)
        lam = 5.3
        xx = float(x @ x)
        axx = float((AXES * x) @ x)
        t = hierarchy_eval(AXES, x, 3)
        d1, o1 = delta_omega(AXES, x, lam, 1, t)
        d2, o2 = delta_omega(AXES, x, lam, 2, t)
        d3, o3 = delta_omega(AXES, x, lam, 3, t)
        np.testing.assert_allclose([d1, o1], [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose([d2, o2], [lam - xx, lam - 2 * xx], rtol=1e-13)
        np.testing.assert_allclose(
            [d3, o3],
            [lam**2 - lam * xx - axx + xx**2,
             lam**2 - 2 * lam * xx - 2 * axx + 3 * xx**2],
            rtol=1e-12)

    def test_deeper_table_gives_identical_values(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.normal(size=3)
            lam = float(rng.uniform(3.5, 6.0))
            t = hierarchy_eval(AXES, x, 6)
            for k in range(1, 7):
                assert (delta_omega(AXES, x, lam, k, t)
                        == delta_omega(AXES, x, lam, k, hierarchy_eval(AXES, x, k)))

    def test_defining_identity_at_many_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=3)
            for lam in rng.uniform(3.2, 9.0, size=20):
                for k in range(1, 6):
                    t = hierarchy_eval(AXES, x, k)
                    _, om = delta_omega(AXES, x, float(lam), k, t)
                    q = float((x * x / (lam - AXES)).sum())
                    lhs = 2.0 * om * (1.0 + q)
                    rhs = (2.0 * (lam ** (k - 1)
                                  - sum(lam ** (k - 1 - j) * t.V[j - 1]
                                        for j in range(1, k)))
                           + float((x / (lam - AXES)) @ t.gradV[k - 1]))
                    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9

    @pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (1.3, 1.3, 2.9, 2.9),
                                      (0.6, 1.5, 1.5, 2.2)])
    def test_closed_form_satisfies_the_defining_identity(self, axes):
        # 2 Omega_k (1 + q) = 2 Delta_k + <(lam - A)^-1 x, grad V^(k)>,
        # relative to the largest of the three terms
        a = np.array(axes)
        rng = np.random.default_rng(12)
        for _ in range(40):
            x = rng.uniform(-1.2, 1.2, size=a.size)
            t = hierarchy_eval(a, x, 6)
            lam = float(rng.uniform(-2.0, 8.0))
            if np.min(np.abs(lam - a)) < 0.05:
                continue
            q = float((x * x / (lam - a)).sum())
            for k in range(1, 7):
                terms = (2.0 * float(np.polyval(omega_coefficients(t, k), lam)) * (1.0 + q),
                         2.0 * delta_value(t, k, lam),
                         float((x / (lam - a)) @ t.gradV[k - 1]))
                resid = abs(terms[0] - terms[1] - terms[2])
                assert resid <= 1e-12 * max(abs(v) for v in terms)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            delta_omega(AXES, np.ones(3), 2.0, 2, hierarchy_eval(AXES, np.ones(3), 2))


def test_hierarchy_identities_pass_where_the_interpolated_omega_failed():
    # the Vandermonde-interpolated Omega_k exceeded 1e-9 at seed 13
    bad = [r for r in suites.suite_hierarchy_identities(seed=13) if not r.passed]
    assert not bad, [f"{r.name}: {r.value}" for r in bad]


class TestPotentialAssembly:
    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.4, 1.3, size=3)
        sigmas = (0.5, -0.3)
        mu = (0.2, 0.0, 0.3)
        g = hierarchy_gradient(AXES, x, sigmas, mu)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (hierarchy_potential(AXES, x + e, sigmas, mu)
                  - hierarchy_potential(AXES, x - e, sigmas, mu)) / (2 * h)
            np.testing.assert_allclose(g[i], fd, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("axes", [suites.AXES3, suites.AXES_SYM22])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gradient_equals_the_table_sum(self, axes, m):
        # the float recurrence against hierarchy_eval's gradient tables
        rng = np.random.default_rng(20 + m)
        n1 = len(axes)
        for _ in range(200):
            x = rng.normal(size=n1)
            sigmas = tuple(rng.normal(size=m))
            mu = np.where(rng.random(n1) < 0.5, rng.uniform(0.1, 0.5, n1), 0.0)
            tables = hierarchy_eval(axes, x, m)
            want = sum(0.5 * s * gv for s, gv in zip(sigmas, tables.gradV))
            nz = mu != 0
            want[nz] -= mu[nz] ** 2 / x[nz] ** 3
            got = hierarchy_gradient(axes, x, sigmas, mu)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

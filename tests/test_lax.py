import dataclasses

import numpy as np
import pytest

from confocal import suites
from confocal.dynamics import (
    KINDS,
    PhaseState,
    SystemSpec,
    _pair,
    constraint_residuals,
    dirac_tensor,
    energy,
    integrate,
    project,
)
from confocal.errors import InvariantVarietyError, PoleError
from confocal.billiard import tangent_directions
from confocal.geometry import pole_form, tangency_value
from confocal.geometry import _pole_guard
from confocal.lax import (
    _tag_gradients,
    build_lax,
    clearing_exponents,
    commutation_suite,
    commuting_pairs,
    det_L,
    gradient_rank_report,
    has_pair,
    integral_family,
    lambda_samples,
    lax_defect,
    lax_residual,
    psi_degree,
    psi_poly,
    real_roots,
)
from confocal.potentials import delta_omega, hierarchy_eval
from confocal.sampling import (
    random_double_invariant_state,
    random_state,
)

AXES = (1.0, 2.0, 3.0)


def count_sign_changes(coeffs, lo: float, hi: float, samples: int = 20001) -> int:
    """Grid sign-change count of a polynomial on [lo, hi] (scan oracle)."""
    xs = np.linspace(lo, hi, samples)
    vals = np.polyval(np.asarray(coeffs, dtype=float), xs)
    sgn = np.sign(vals)
    sgn = sgn[sgn != 0]
    return int(np.count_nonzero(np.diff(sgn)))


class TestBuildLax:
    def test_small_pair_entries_are_the_pole_forms(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.6)
        s = random_state(sys, 0)
        pair = build_lax(sys, s, "small")
        for lam in (0.41, 5.2):
            L = pair.L(lam)
            np.testing.assert_allclose(L[0, 0], pole_form(sys.a, lam, s.x, s.y))
            np.testing.assert_allclose(L[0, 1], pole_form(sys.a, lam, s.y, s.y) + 0.6)
            np.testing.assert_allclose(L[1, 0], -1.0 - pole_form(sys.a, lam, s.x, s.x))
            np.testing.assert_allclose(L[1, 1], -L[0, 0])

    def test_chargeless_reduction_reproduces_plain_matrix(self):
        sysj = SystemSpec("jacobi", AXES, sigma=0.4)
        sysr = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.0, 0.0, 0.0))
        s = random_state(sysj, 1)
        for lam in (0.37, 4.6):
            assert np.array_equal(build_lax(sysr, s, "small").L(lam),
                                  build_lax(sysj, s, "small").L(lam))
            assert np.array_equal(build_lax(sysr, s, "small").A(lam),
                                  build_lax(sysj, s, "small").A(lam))

    def test_complex_pair_on_a_real_state_is_the_plain_pair(self):
        # one formula: on real arrays conj() is the identity, so the complex
        # kind reproduces the plain pair bit for bit; complex storage of the
        # same state differs only by the rounding of complex division
        sysj = SystemSpec("jacobi", AXES, sigma=0.4)
        sysc = SystemSpec("complex_jacobi", AXES, sigma=0.4)
        s = random_state(sysj, 1)
        sc = PhaseState(s.x.astype(complex), s.y.astype(complex))
        for lam in (0.37, 4.6):
            for m in ("L", "A"):
                plain = getattr(build_lax(sysj, s, "small"), m)(lam)
                assert np.array_equal(getattr(build_lax(sysc, s, "small"), m)(lam), plain)
                np.testing.assert_allclose(getattr(build_lax(sysc, sc, "small"), m)(lam),
                                           plain, rtol=0, atol=1e-15)
        assert np.array_equal(integral_family(sysc, s).f, integral_family(sysj, s).f)

    def test_trace_laws(self):
        sysr = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        s = random_state(sysr, 2)
        pair = build_lax(sysr, s, "small")
        for lam in (0.37, -2.4, 7.7):
            assert abs(np.trace(pair.L(lam))) < 1e-12
            assert abs(np.trace(pair.A(lam))) < 1e-15

    def test_big_pair_spectrum_against_dense_eigensolver(self):
        # unit sphere, orthogonal position/momentum: the matrix is a rank-two
        # update of -lam^2 I; its spectrum from the generic eigensolver must
        # match the 2x2 block reduction
        sys = SystemSpec("jacobi", (1.0, 1.0, 1.0, 1.0), sigma=0.0)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 1.3, 0.0, 0.0])
        s = PhaseState(x, y)
        lam = 0.8
        L = build_lax(sys, s, "big").L(lam)
        got = np.sort_complex(np.linalg.eigvals(L))
        yy = float(y @ y)
        block = np.array([[-lam**2, -lam * yy], [lam, yy - lam**2]])
        expect = np.sort_complex(np.concatenate([
            np.full(2, -lam**2, dtype=complex), np.linalg.eigvals(block)]))
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_big_pair_quadratic_parameter_structure(self):
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        s = random_double_invariant_state(sys, 3)
        pair = build_lax(sys, s, "big")
        L0, L1, L2 = pair.L(0.0), pair.L(1.0), pair.L(-1.0)
        # degree 2 in the parameter: second difference is constant
        np.testing.assert_allclose(L1 + L2 - 2 * L0,
                                   -2.0 * np.diag(sys.a), atol=1e-12)

    def test_big_pair_needs_the_invariant_variety(self):
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        s = random_state(sys, 4)  # generic: pairings do not vanish
        with pytest.raises(InvariantVarietyError):
            build_lax(sys, s, "big")

    def test_pole_rejected(self):
        sys = SystemSpec("jacobi", AXES)
        s = random_state(sys, 5)
        pair = build_lax(sys, s, "small")
        with pytest.raises(PoleError):
            pair.L(2.0)
        with pytest.raises(PoleError):
            pair.A(0.0)
        # every entry point shares one guard: 1e-11 lies inside its
        # 1e-10 max(1, max|a|) band
        lam = AXES[0] + 1e-11
        for call in (lambda: pair.L(lam),
                     lambda: tangency_value(AXES, s.x, s.y, lam),
                     lambda: tangent_directions(AXES, s.x, lam),
                     lambda: delta_omega(AXES, s.x, lam, 2, hierarchy_eval(AXES, s.x, 2))):
            with pytest.raises(PoleError):
                call()

    def test_hierarchy_tables_built_once_per_state(self, monkeypatch):
        import confocal.lax
        calls = []
        real = confocal.lax.hierarchy_eval
        monkeypatch.setattr(confocal.lax, "hierarchy_eval",
                            lambda *args: calls.append(args) or real(*args))
        sys = SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.3, 0.2),
                         mu=(0.1, 0.0, 0.2))
        build_lax(sys, random_state(sys, 10), "small")
        assert len(calls) == 1


class TestLaxResidual:
    def test_quadratic_decay_in_the_difference_step(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = random_state(sys, rng)
            r1 = np.max(np.abs(lax_defect(sys, s, "small", 0.37, 1e-3)))
            r2 = np.max(np.abs(lax_defect(sys, s, "small", 0.37, 5e-4)))
            assert 2.5 < r1 / r2 < 6.0

    def test_free_flow_pair(self):
        sys = SystemSpec("free_jr", (2.0, 1.0), sigma=0.5, mu=(0.0, 0.3))
        s = PhaseState(np.array([0.4, 0.8]), np.array([0.3, -0.2]))
        assert lax_residual(sys, s, "small", 0.37, 1e-5) < 1e-8

    @pytest.mark.parametrize("seed", [6, 12])
    def test_suite_passes_where_the_h2_truncation_failed(self, seed):
        # the unextrapolated central difference exceeded 1e-7 here
        # (rosochatius/small at seed 6, double/big at seed 12)
        bad = [r for r in suites.suite_lax_residual(seed=seed) if not r.passed]
        assert not bad, [f"{r.name}: {r.value}" for r in bad]


class TestLambdaSamples:
    @pytest.mark.parametrize("axes, expect", [
        ((1.0, 2.0, 3.0), [-0.3999999999999999, 1.5, 2.5, 4.4, 5.8]),
        ((1.3, 1.3, 2.9, 2.9),
         [-0.9399999999999997, 0.18000000000000016, 2.1, 4.02, 5.14]),
        ((2.0, 1.0, 0.6), [-0.3799999999999999, 0.8, 1.5, 2.98, 3.96]),
    ])
    def test_pinned_points(self, axes, expect):
        # the det-L samples of the conservation suite and of run_orbit
        assert lambda_samples(axes, 5).tolist() == expect

    def test_ascending_and_off_the_axes(self):
        for axes in ((1.0,), (1.0, 2.0, 3.0), (1.3, 1.3, 2.9)):
            for k in range(1, 9):
                pts = lambda_samples(axes, k)
                assert pts.size == k and np.all(np.diff(pts) > 0)
                assert np.min(np.abs(pts[:, None] - np.asarray(axes))) > 0.1


class TestSpectralData:
    def test_distinct_axes_pole_expansion(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.0)
        s = random_state(sys, 7)
        f = integral_family(sys, s).f
        rng = np.random.default_rng(8)
        for lam in rng.uniform(3.5, 9.0, size=5):
            expect = float((f / (lam - sys.a)).sum())
            np.testing.assert_allclose(det_L(sys, s, float(lam)), expect,
                                       atol=1e-10)

    def test_charged_expansion_with_double_poles(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        s = random_state(sys, 9)
        fam, a = integral_family(sys, s), sys.a
        for lam in (-1.3, 0.45, 3.7, 6.2):
            # sigma + sum ftilde/(lam - a) + sum (P + mu^2)/(lam - a)^2 (distinct axes)
            expect = (sys.sigma + (fam.ftilde / (lam - a)).sum()
                      + ((fam.P + sys.mu_arr**2) / (lam - a) ** 2).sum())
            np.testing.assert_allclose(det_L(sys, s, lam), expect, atol=1e-11)

    def test_hierarchy_expansion_polynomial_part(self):
        sys = SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.3, 0.2),
                         mu=(0.1, 0.0, 0.2))
        s = random_state(sys, 10)
        fam, a = integral_family(sys, s), sys.a
        for lam in (0.5, 3.9, 8.3):
            # sum sigma_k lam^k + the poles, as for the charged flow
            expect = (np.polyval(sys.sigmas[::-1], lam) + (fam.ftilde / (lam - a)).sum()
                      + ((fam.P + sys.mu_arr**2) / (lam - a) ** 2).sum())
            np.testing.assert_allclose(det_L(sys, s, lam), expect, rtol=1e-10, atol=1e-10)

    def test_cleared_polynomial_degree_force_free(self):
        sys = SystemSpec("free_jr", AXES, sigma=0.0)
        s = PhaseState(np.array([0.4, 0.5, 0.45]), np.array([0.3, -0.2, 0.1]))
        coeffs = psi_poly(sys, s)
        assert np.array_equal(clearing_exponents(sys), [1, 1, 1])
        assert coeffs.size == 3  # degree n - 1 = 2
        assert abs(coeffs[0]) > 1e-12

    def test_cleared_polynomial_real_roots_with_forcing_and_charges(self):
        sys = SystemSpec("free_jr", AXES, sigma=0.3, mu=(0.0, 0.25, 0.2))
        s = PhaseState(np.array([0.4, 0.5, 0.45]), np.array([0.5, -0.4, 0.3]))
        coeffs = psi_poly(sys, s)
        # degree n + d = 5 here, all roots real on generic data
        assert coeffs.size == 6
        roots = real_roots(coeffs)
        assert roots.size == 5
        scan = count_sign_changes(coeffs, -30.0, 30.0)
        assert scan == 5
        # the cleared polynomial vanishes at the recovered roots
        pair = build_lax(sys, s, "small")
        alpha = np.array(AXES)
        delta = clearing_exponents(sys)
        for r in roots:
            val = np.real(pair.det_L(float(r))) * np.prod((r - alpha) ** delta)
            assert abs(val) < 1e-9

    def test_psi_matches_detL_at_fresh_parameters(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        s = random_state(sys, 11)
        coeffs = psi_poly(sys, s)
        alpha = np.array(AXES)
        delta = clearing_exponents(sys)
        rng = np.random.default_rng(12)
        for lam in rng.uniform(3.2, 10.0, size=6):
            expect = det_L(sys, s, float(lam)) * np.prod((lam - alpha) ** delta)
            np.testing.assert_allclose(np.polyval(coeffs, lam), expect,
                                       rtol=1e-9, atol=1e-9)


class TestIntegralFamily:
    def test_group_sums_give_twice_the_energy(self):
        for axes, mu in (((1.3, 1.3, 2.9, 2.9), (0.3, 0.2, 0.25, 0.15)),
                         (AXES, (0.2, 0.0, 0.3))):
            sys = SystemSpec("jacobi_rosochatius", axes, sigma=0.3, mu=mu)
            s = random_state(sys, 13)
            fam = integral_family(sys, s)
            np.testing.assert_allclose(fam.H, energy(sys, s), rtol=1e-12)
            np.testing.assert_allclose(0.5 * fam.ftilde.sum(), energy(sys, s),
                                       rtol=1e-12)

    def test_chargeless_pairs_are_squared_cross_terms(self):
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.2,
                         mu=(0.0, 0.0, 0.0, 0.0))
        s = random_state(sys, 14)
        fam = integral_family(sys, s)
        for (si, i, j), val in fam.P_pairs.items():
            phi = s.y[i] * s.x[j] - s.x[i] * s.y[j]
            np.testing.assert_allclose(val, phi * phi, rtol=1e-12)

    def test_pole_sum_relation_on_shell(self):
        rng = np.random.default_rng(15)
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
                         mu=(0.3, 0.2, 0.25, 0.15))
        for _ in range(200):
            s = random_state(sys, rng)
            assert abs(integral_family(sys, s).relation_residual) < 1e-9

    def test_per_axis_requires_distinct_axes(self):
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
                         mu=(0.3, 0.2, 0.25, 0.15))
        s = random_state(sys, 16)
        assert integral_family(sys, s).f is None

    def test_chain_sums_nest_to_the_group_invariant(self):
        sys = SystemSpec("jacobi_rosochatius", (1.5, 1.5, 1.5, 2.5), sigma=0.2,
                         mu=(0.2, 0.1, 0.15, 0.25))
        s = random_state(sys, 17)
        fam = integral_family(sys, s)
        assert fam.L_chain[(0, 2)] == pytest.approx(fam.P[0], rel=1e-14)

    def test_complex_charges_and_scaled_integral(self):
        sys = SystemSpec("complex_jacobi", AXES, sigma=0.4)
        s0 = random_state(sys, 18)
        traj = integrate(sys, s0, 2.0, 1e-3)
        fam0 = integral_family(sys, s0)
        famT = integral_family(sys, PhaseState(traj.x[-1], traj.y[-1]))
        np.testing.assert_allclose(famT.charges, fam0.charges, atol=1e-10)
        np.testing.assert_allclose(famT.J, fam0.J, atol=1e-10)
        np.testing.assert_allclose(famT.f, fam0.f, atol=1e-9)

    def test_scaled_integral_equals_weighted_family_sum_on_real_slice(self):
        sys = SystemSpec("complex_jacobi", AXES, sigma=0.4)
        rng = np.random.default_rng(19)
        z = rng.normal(size=3).astype(complex)
        z /= np.sqrt(((z / sys.a) @ np.conj(z)).real)
        p = rng.normal(size=3).astype(complex)
        p -= (((z / sys.a) @ np.conj(p)).real
              / ((z / sys.a**2) @ np.conj(z)).real) * z / sys.a
        fam = integral_family(sys, PhaseState(z, p))
        np.testing.assert_allclose(fam.J, -(np.array(fam.f) / sys.a**2).sum(),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# reference: the one-state formulas (1-d `@`, np.outer, float sums) that the
# broadcasting energy, constraint residuals and integrals replaced; every row
# of a stack, and every one-state call, must give their numbers bit for bit
# ---------------------------------------------------------------------------

def residuals_per_state(sys, s):
    a = sys.a
    if sys.kind == "double_jacobi":
        return np.array([(s.x / a) @ s.xi - 1.0,
                         (s.y / a) @ s.xi + (s.x / a) @ s.eta])
    if sys.constrained:
        return np.array([((s.x / a) @ s.x.conj()).real - 1.0,
                         ((s.x / a) @ s.y.conj()).real])
    return np.zeros(0)


def energy_per_state(sys, s):
    if sys.kind == "double_jacobi":
        return float(s.y @ s.eta + sys.sigma * (s.x @ s.xi))
    mu = sys.mu_arr
    nz = mu != 0
    kin = 0.5 * float((s.y @ s.y.conj()).real)
    if sys.kind == "separable_hierarchy":
        pot = 0.0
        pot += 0.5 * sum(sg * v for sg, v in
                         zip(sys.sigmas, hierarchy_eval(sys.a, s.x, len(sys.sigmas)).V))
        pot += 0.5 * float((mu[nz] ** 2 / s.x[nz] ** 2).sum())
        return kin + float(pot)
    pot = 0.5 * sys.sigma * float((s.x @ s.x.conj()).real)
    if nz.any():
        pot += 0.5 * float((mu[nz] ** 2 / s.x[nz] ** 2).sum())
    return kin + pot


def family_sums_per_state(sys, s):
    """(f, ftilde, H) of one state; f is None when axes repeat."""
    a, x, y = sys.a, s.x, s.y
    mu = sys.mu_arr
    nz = mu != 0
    phi = np.outer(y, x) - np.outer(x, y)
    if sys.kind == "double_jacobi":
        P_tab = phi * (np.outer(s.eta, s.xi) - np.outer(s.xi, s.eta))
        loc = s.y * s.eta + sys.sigma * s.x * s.xi
    else:
        P_tab = np.abs(phi) ** 2
        if nz.any():
            w = np.zeros_like(mu)
            w[nz] = mu[nz] / x[nz]
            P_tab = P_tab + np.outer(w**2, x**2) + np.outer(x**2, w**2)
            np.fill_diagonal(P_tab, 0.0)
        loc = np.abs(y) ** 2
        if sys.kind == "separable_hierarchy":
            t = hierarchy_eval(a, x, len(sys.sigmas))
            for sg, F in zip(sys.sigmas, t.F):
                loc = loc + sg * F
        else:
            loc = loc + sys.sigma * np.abs(x) ** 2
        if nz.any():
            add = np.zeros_like(loc)
            add[nz] = mu[nz] ** 2 / x[nz] ** 2
            loc = loc + add
    part = sys.ellipsoid.partition
    ftilde = np.empty(len(part))
    for si, grp in enumerate(part):
        grp = list(grp)
        val = float(np.real(loc[grp].sum()))
        for i in grp:
            for j in range(a.size):
                if j not in grp:
                    val += float(np.real(P_tab[i, j])) / (a[i] - a[j])
        ftilde[si] = val
    f = None
    if not sys.ellipsoid.is_symmetric:
        f = np.array([float(np.real(loc[i]))
                      + sum(float(np.real(P_tab[i, j])) / (a[i] - a[j])
                            for j in range(a.size) if j != i)
                      for i in range(a.size)])
    return f, ftilde, 0.5 * float(ftilde.sum())


STACK_SYSTEMS = [
    SystemSpec("jacobi", AXES, sigma=0.5),
    SystemSpec("complex_jacobi", AXES, sigma=0.4),
    SystemSpec("double_jacobi", AXES, sigma=0.3),
    SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3)),
    SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
               mu=(0.3, 0.2, 0.25, 0.15)),
    # five distinct axes: four terms per f_i, so their order shows
    SystemSpec("jacobi_rosochatius", (0.7, 1.1, 2.0, 3.2, 4.5), sigma=0.3,
               mu=(0.2, 0.0, 0.3, 0.1, 0.0)),
    SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.3, 0.2),
               mu=(0.3, 0.0, 0.25)),
    SystemSpec("free_jr", (2.0, 1.0, 0.5), sigma=0.5, mu=(0.0, 0.3, 0.0)),
    SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0),
]


def random_stack(sys, rows, rng):
    """Unconstrained random states, coordinates bounded away from zero."""
    n = sys.a.size

    def draw():
        v = rng.uniform(0.2, 1.5, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
        if sys.kind in ("complex_jacobi", "free_oscillator"):
            v = v + 1j * rng.uniform(-1.5, 1.5, (rows, n))
        return v

    pair = (draw(), draw()) if sys.kind == "double_jacobi" else (None, None)
    return PhaseState(draw(), draw(), np.zeros(rows), *pair)


def row(s, k):
    return PhaseState(s.x[k], s.y[k], 0.0,
                      None if s.xi is None else s.xi[k],
                      None if s.eta is None else s.eta[k])


class TestStackedFormulas:
    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pair_rows_equal_the_one_state_product(self, n, dtype):
        rng = np.random.default_rng(n)
        u, v = (rng.normal(size=(2000, n)).astype(dtype) for _ in range(2))
        if dtype is complex:
            u, v = u + 1j * rng.normal(size=(2000, n)), v + 1j * rng.normal(size=(2000, n))
        want = np.array([(ui @ vi.conj()).real for ui, vi in zip(u, v)])
        np.testing.assert_array_equal(_pair(u, v), want)

    @pytest.mark.parametrize("sys", STACK_SYSTEMS,
                             ids=[f"{s.kind}-{s.a.size}" for s in STACK_SYSTEMS])
    def test_rows_and_single_states_match_the_one_state_formulas(self, sys):
        stack = random_stack(sys, 200, np.random.default_rng(20))
        res, H = constraint_residuals(sys, stack), energy(sys, stack)
        fam = integral_family(sys, stack) if sys.kind != "free_oscillator" else None
        for k in range(200):
            s = row(stack, k)
            want = residuals_per_state(sys, s)
            np.testing.assert_array_equal(res[k], want)
            np.testing.assert_array_equal(constraint_residuals(sys, s), want)
            want = energy_per_state(sys, s)
            assert H[k] == want and energy(sys, s) == want
            if fam is None:
                continue
            f, ftilde, Hf = family_sums_per_state(sys, s)
            one = integral_family(sys, s)
            for got in ((None if fam.f is None else fam.f[k], fam.ftilde[k], fam.H[k]),
                        (one.f, one.ftilde, one.H)):
                assert (got[0] is None) == (f is None)
                if f is not None:
                    np.testing.assert_array_equal(got[0], f)
                np.testing.assert_array_equal(got[1], ftilde)
                assert got[2] == Hf


def has_small_pair(sys):
    """Whether `build_lax` builds the small pair of the kind."""
    try:
        build_lax(sys, random_state(sys, 0), "small")
    except ValueError:
        return False
    return True


# the pair systems: every small-pair kind, plus a deep hierarchy whose
# Delta_k take powers of the parameter up to the fourth
SMALL_SYSTEMS = [sys for sys in STACK_SYSTEMS if has_small_pair(sys)] + [
    SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.3, 0.2, 0.1, -0.05),
               mu=(0.3, 0.0, 0.25)),
]
SMALL_IDS = [f"{sys.kind}-{sys.a.size}-m{len(sys.sigmas)}" for sys in SMALL_SYSTEMS]


class TestParameterStacks:
    def test_every_small_kind_is_covered(self):
        small = {kind for kind, spec in STRUCTURE_SYSTEMS.items() if has_small_pair(spec)}
        assert {sys.kind for sys in SMALL_SYSTEMS} == small

    @pytest.mark.parametrize("sys", SMALL_SYSTEMS,
                             ids=SMALL_IDS)
    def test_stacked_L_and_det_equal_the_one_parameter_calls(self, sys):
        rng = np.random.default_rng(21)
        stack = random_stack(sys, 50, rng)
        lams = np.concatenate([lambda_samples(sys.axes, 5), rng.uniform(-2.0, 7.0, 20)])
        lams = lams[np.min(np.abs(lams[:, None] - sys.a), axis=-1) > 1e-3]
        for k in range(50):
            s = row(stack, k)
            pair = build_lax(sys, s, "small")
            L, d = pair.L(lams), pair.det_L(lams)
            assert L.shape == (lams.size, 2, 2) and d.shape == lams.shape
            np.testing.assert_array_equal(det_L(sys, s, lams), d)
            for j, lam in enumerate(lams):
                for one in (lam, float(lam)):
                    np.testing.assert_array_equal(L[j], pair.L(one))
                    assert d[j] == pair.det_L(one)

    def test_a_parameter_array_touching_an_axis_is_rejected(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.4)
        pair = build_lax(sys, random_state(sys, 3), "small")
        for bad in ([0.5, 2.0, 4.0], [AXES[2] - 1e-11, 7.0]):
            with pytest.raises(PoleError):
                _pole_guard(sys.a, np.array(bad))
            with pytest.raises(PoleError):
                pair.L(np.array(bad))
        _pole_guard(sys.a, np.array([0.5, 2.5, 4.0]))


def psi_poly_per_parameter(sys, s):
    """psi_poly with one det L call per sample, as before the stacked call."""
    alpha = sys.ellipsoid.group_values
    delta = clearing_exponents(sys)
    deg = psi_degree(sys)
    pts = lambda_samples(alpha, deg + 1)
    pair = build_lax(sys, s, "small")
    vals = np.array([np.real(pair.det_L(t)) * np.prod((t - alpha) ** delta) for t in pts])
    return np.linalg.solve(np.vander(pts, deg + 1), vals)


class TestStackedCallers:
    @pytest.mark.parametrize("sys", SMALL_SYSTEMS,
                             ids=SMALL_IDS)
    def test_psi_poly_equals_the_per_parameter_form(self, sys):
        stack = random_stack(sys, 20, np.random.default_rng(22))
        for k in range(20):
            s = row(stack, k)
            np.testing.assert_array_equal(psi_poly(sys, s), psi_poly_per_parameter(sys, s))

    @pytest.mark.parametrize("case", range(len(suites._residual_cases(0))))
    def test_lax_residual_shares_the_pair_at_the_state(self, monkeypatch, case):
        import confocal.lax
        _, sys, draw, which = suites._residual_cases(0)[case]
        s = draw()
        calls = []
        real = confocal.lax.build_lax
        monkeypatch.setattr(confocal.lax, "build_lax",
                            lambda *args: calls.append(args) or real(*args))
        for lam in (0.37, 4.31):
            want = float(np.max(np.abs((4.0 * lax_defect(sys, s, which, lam, 5e-6)
                                        - lax_defect(sys, s, which, lam, 1e-5)) / 3.0)))
            calls.clear()
            assert lax_residual(sys, s, which, lam, 1e-5) == want
            assert len(calls) == 5


class TestCommutation:
    def test_two_by_two_partition(self):
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
                         mu=(0.3, 0.2, 0.25, 0.15))
        rng = np.random.default_rng(20)
        for _ in range(10):
            s = random_state(sys, rng)
            for rec in commutation_suite(sys, s):
                assert rec.value < 1e-6, rec.name

    def test_three_two_partition_exercises_in_group_relations(self):
        sys = SystemSpec("jacobi_rosochatius", (1.5, 1.5, 1.5, 2.8, 2.8),
                         sigma=0.2, mu=(0.2, 0.1, 0.15, 0.25, 0.3))
        pairs = commuting_pairs(sys.ellipsoid)
        kinds = {p[0][0] for p in pairs} | {p[1][0] for p in pairs}
        assert "Psum" in kinds and "Lchain" in kinds
        rng = np.random.default_rng(21)
        for _ in range(3):
            s = random_state(sys, rng)
            for rec in commutation_suite(sys, s):
                assert rec.value < 1e-6, rec.name

    @pytest.mark.parametrize("axes,mu", [
        ((1.3, 1.3, 2.9, 2.9), (0.3, 0.2, 0.25, 0.15)),
        ((1.5, 1.5, 1.5, 2.8, 2.8), (0.2, 0.1, 0.15, 0.25, 0.3)),
    ], ids=["2-2", "3-2"])
    def test_values_equal_the_tensor_bracket_bit_for_bit(self, axes, mu):
        # one tensor per state gives each pair's |grad_f W grad_g| exactly
        sys = SystemSpec("jacobi_rosochatius", axes, sigma=0.3, mu=mu)
        pairs = commuting_pairs(sys.ellipsoid)
        rng = np.random.default_rng(22)
        for _ in range(3):
            s = random_state(sys, rng)
            grads = _tag_gradients(sys, s, sorted({t for p in pairs for t in p}, key=repr))
            want = [abs(float(grads[f] @ dirac_tensor(sys.a, s) @ grads[g]))
                    for f, g in pairs]
            assert [rec.value for rec in commutation_suite(sys, s)] == want

    def test_record_names_of_every_tag_kind(self):
        sys = SystemSpec("jacobi_rosochatius", (1.5, 1.5, 1.5, 2.8, 2.8),
                         sigma=0.2, mu=(0.2, 0.1, 0.15, 0.25, 0.3))
        names = [rec.name for rec in commutation_suite(sys, random_state(sys, 21))]
        assert len(names) == 36
        for name in ("{ftilde[0],ftilde[1]}", "{ftilde[0],P[0]}", "{P[0],P[1]}",
                     "{ftilde[0],P[0;0,1]}", "{P[0],P[0;0,1]}", "{P[0;0,1],P[1;3,4]}",
                     "{P[0;0,1],P[0;0,2+1,2]}", "{L[0;1],L[0;2]}", "{P[0;0,1],L[0;1]}"):
            assert name in names


class TestRankReport:
    def test_two_by_two_partition_dimensions(self):
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
                         mu=(0.3, 0.2, 0.25, 0.15))
        rng = np.random.default_rng(23)
        for _ in range(20):
            rep = gradient_rank_report(sys, random_state(sys, rng))
            assert rep["rank_full_family"] == rep["expected_full_family"] == 3
            assert rep["rank_central_family"] == rep["expected_central_family"] == 3

    def test_three_one_partition_dimensions(self):
        sys = SystemSpec("jacobi_rosochatius", (1.5, 1.5, 1.5, 2.5), sigma=0.2,
                         mu=(0.2, 0.1, 0.15, 0.25))
        rep = gradient_rank_report(sys, random_state(sys, 24))
        assert rep["rank_full_family"] == rep["expected_full_family"] == 4
        assert rep["rank_central_family"] == rep["expected_central_family"] == 2

    @pytest.mark.parametrize("kind", ["double_jacobi", "separable_hierarchy"])
    def test_other_kinds_rejected(self, kind):
        field = {"sigmas": (0.5,)} if kind == "separable_hierarchy" else {"sigma": 0.3}
        sys = SystemSpec(kind, AXES, **field)
        with pytest.raises(ValueError, match="quadratic kinds"):
            gradient_rank_report(sys, random_state(sys, 25))


# one system of every kind
STRUCTURE_SYSTEMS = {
    "jacobi": SystemSpec("jacobi", AXES, sigma=0.5),
    "double_jacobi": SystemSpec("double_jacobi", AXES, sigma=0.3),
    "complex_jacobi": SystemSpec("complex_jacobi", AXES, sigma=0.4),
    "jacobi_rosochatius": SystemSpec("jacobi_rosochatius", AXES, sigma=0.4,
                                     mu=(0.2, 0.0, 0.3)),
    "separable_hierarchy": SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.3),
                                      mu=(0.3, 0.0, 0.25)),
    "free_oscillator": SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0),
    "free_jr": SystemSpec("free_jr", (2.0, 1.0, 0.5), sigma=0.5, mu=(0.0, 0.3, 0.0)),
}

# what each kind does, column by column: complex coordinates, a second pair
# (xi, eta), `project` moves a state, `build_lax` builds the small pair, the
# big pair, `gradient_rank_report` runs, `integral_family` gives a
# `relation_residual`, and it gives `charges`
STRUCTURE = {
    "jacobi":              (False, False, True,  True,  True,  True,  True,  False),
    "double_jacobi":       (False, True,  True,  True,  True,  False, False, False),
    "complex_jacobi":      (True,  False, True,  True,  False, False, False, True),
    "jacobi_rosochatius":  (False, False, True,  True,  False, True,  True,  False),
    "separable_hierarchy": (False, False, True,  True,  False, False, True,  False),
    "free_oscillator":     (True,  False, False, False, False, False, False, False),
    "free_jr":             (False, False, False, True,  False, True,  False, False),
}


def runs(call) -> bool:
    """False when `call` raises the ValueError of an unsupported kind."""
    try:
        call()
    except ValueError:
        return False
    return True


class TestKindStructure:
    def test_every_kind_has_a_row(self):
        assert tuple(STRUCTURE) == tuple(STRUCTURE_SYSTEMS) == KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_behaves_as_its_row_says(self, kind):
        sys = STRUCTURE_SYSTEMS[kind]
        s = random_state(sys, 40)
        invariant = random_double_invariant_state(sys, 40) if s.xi is not None else s
        moved = PhaseState(1.001 * s.x, 1.001 * s.y, 0.0,
                           None if s.xi is None else 1.001 * s.xi,
                           None if s.eta is None else 1.001 * s.eta)
        fam = integral_family(sys, s)
        got = (s.x.dtype == complex,
               s.xi is not None and s.eta is not None,
               not np.array_equal(project(sys, moved).x, moved.x),
               runs(lambda: build_lax(sys, s, "small")),
               runs(lambda: build_lax(sys, invariant, "big")),
               runs(lambda: gradient_rank_report(sys, s)),
               fam.relation_residual is not None,
               fam.charges is not None)
        assert s.x.dtype in (float, complex) and s.y.dtype == s.x.dtype
        assert got == STRUCTURE[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_spec_states_the_row_of_its_kind(self, kind):
        sys = STRUCTURE_SYSTEMS[kind]
        row = STRUCTURE[kind]
        assert (sys.complex, sys.paired, sys.constrained) == row[:3]
        assert (has_pair(sys, "small"), has_pair(sys, "big")) == row[3:5]
        charged = runs(lambda: SystemSpec(kind, AXES, sigmas=sys.sigmas, mu=(0.1, 0.0, 0.0)))
        weighted = runs(lambda: SystemSpec(kind, AXES, sigmas=(0.5,)))
        assert (sys.takes_charges, sys.takes_weights) == (charged, weighted)
        # read-only, and not dataclass fields: == and hash see the fields only
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.paired = not sys.paired
        twin = SystemSpec(kind, sys.axes, sys.sigma, sys.sigmas, sys.mu)
        assert twin == sys and hash(twin) == hash(sys)
        assert [f.name for f in dataclasses.fields(sys)] == ["kind", "axes", "sigma",
                                                             "sigmas", "mu"]

    def test_an_unknown_pair_is_rejected(self):
        with pytest.raises(ValueError, match="'small' or 'big'"):
            has_pair(STRUCTURE_SYSTEMS["jacobi"], "medium")


class TestSpectralConservation:
    def test_cleared_coefficients_drift(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        s0 = random_state(sys, 25)
        traj = integrate(sys, s0, 5.0, 1e-3)
        c0 = psi_poly(sys, s0)
        for x, y in zip(traj.x[::500], traj.y[::500]):
            c = psi_poly(sys, PhaseState(x, y))
            assert np.max(np.abs(c - c0)) / max(1.0, np.max(np.abs(c0))) < 1e-7


class TestUnsupportedPairs:
    def test_no_big_pair_for_the_charged_flow(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        s = random_state(sys, 30)
        with pytest.raises(ValueError):
            build_lax(sys, s, "big")


class TestSphereResidual:
    def test_equal_axes_sphere_small_pair(self):
        sys = SystemSpec("jacobi", (1.0, 1.0, 1.0), sigma=0.0)
        rng = np.random.default_rng(31)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        y = rng.normal(size=3)
        y -= (x @ y) * x
        s = PhaseState(x, y)
        assert lax_residual(sys, s, "small", 0.37, 1e-5) < 1e-8

import numpy as np
import pytest

from confocal.dynamics import (
    KINDS,
    PhaseState,
    SystemSpec,
    constraint_residuals,
    dirac_tensor,
    energy,
    fd_gradient,
    integrate,
    project,
    rhs,
    rk4_step,
    torus_reduce,
)
from confocal.errors import (
    ConstraintError,
    DimensionError,
    MultiplierSingularError,
    ProjectionError,
    ReductionSingularError,
    SingularAxisError,
)
from confocal.geometry import EllipsoidSpec
from confocal.lax import commutation_suite, integral_family, psi_poly
from confocal.potentials import hierarchy_eval
from confocal.sampling import random_state

AXES = (1.0, 2.0, 3.0)

# one system of every kind, for the float kernel against the array form
KIND_SPECS = [
    SystemSpec("jacobi", AXES, sigma=0.5),
    SystemSpec("double_jacobi", AXES, sigma=0.3),
    SystemSpec("complex_jacobi", AXES, sigma=0.4),
    SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3)),
    SystemSpec("separable_hierarchy", AXES, sigmas=(0.5, -0.2), mu=(0.1, 0.0, 0.2)),
    SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0),
    SystemSpec("free_jr", (2.0, 1.0, 0.5), sigma=0.5, mu=(0.0, 0.3, 0.0)),
]


# a state with a NaN or an infinite coordinate, for each free kind
NONFINITE_FREE_STATES = [
    (SystemSpec("free_jr", AXES, sigma=0.5, mu=(0.2, 0.0, 0.3)),
     PhaseState([np.nan, 1.0, 1.0], [0.0, 1.0, 0.0])),
    (SystemSpec("free_jr", AXES, sigma=0.5, mu=(0.2, 0.0, 0.3)),
     PhaseState([1.0, 1.0, 1.0], [0.0, np.inf, 0.0])),
    (SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0),
     PhaseState([complex(np.nan, 0.0), 0.5j], [0.1, 0.2j])),
]
NONFINITE_IDS = ["free_jr-nan", "free_jr-inf", "free_oscillator-nan"]


def slow_state(sys, seed):
    """`random_state` with its momenta halved.  Halving is exact and the
    constraints are linear in the momenta, so they hold as they did."""
    s = random_state(sys, seed)
    return PhaseState(s.x, 0.5 * s.y, 0.0, s.xi, None if s.eta is None else 0.5 * s.eta)


# ---------------------------------------------------------------------------
# reference: the array form of the right-hand side, RK4 step and projection
# that the float kernel replaced
# ---------------------------------------------------------------------------

def _pair(u, v):
    return (u @ v.conj()).real


def rhs_numpy(sys, s):
    a, mu = sys.a, sys.mu_arr
    nz = mu != 0
    if sys.kind == "double_jacobi":
        m = ((s.y / a) @ s.eta - sys.sigma) / ((s.x / a**2) @ s.xi)
        return PhaseState(s.y, -m * s.x / a - sys.sigma * s.x, 1.0,
                          s.eta, -m * s.xi / a - sys.sigma * s.xi)
    charge = np.zeros_like(s.x)
    charge[nz] = mu[nz] ** 2 / s.x[nz] ** 3
    if not sys.constrained:
        return PhaseState(s.y, -sys.sigma * s.x + charge, 1.0)
    den = _pair(s.x / a**2, s.x)
    kin = _pair(s.y / a, s.y)
    if sys.kind == "separable_hierarchy":
        tables = hierarchy_eval(a, s.x, len(sys.sigmas))
        grad = sum(0.5 * sk * gv for sk, gv in zip(sys.sigmas, tables.gradV)) - charge
        m = (kin - (grad / a) @ s.x) / den
        return PhaseState(s.y, -m * s.x / a - grad, 1.0)
    w = np.zeros_like(mu)
    w[nz] = mu[nz] / s.x[nz]
    m = (kin + (w / a) @ w - sys.sigma) / den
    return PhaseState(s.y, -m * s.x / a - sys.sigma * s.x + charge, 1.0)


def _axpy(s, c, v):
    if s.xi is None:
        return PhaseState(s.x + c * v.x, s.y + c * v.y, s.t + c * v.t)
    return PhaseState(s.x + c * v.x, s.y + c * v.y, s.t + c * v.t,
                      s.xi + c * v.xi, s.eta + c * v.eta)


def rk4_step_numpy(sys, s, h):
    k1 = rhs_numpy(sys, s)
    k2 = rhs_numpy(sys, _axpy(s, 0.5 * h, k1))
    k3 = rhs_numpy(sys, _axpy(s, 0.5 * h, k2))
    k4 = rhs_numpy(sys, _axpy(s, h, k3))
    for k, w in ((k1, 1.0), (k2, 2.0), (k3, 2.0), (k4, 1.0)):
        s = _axpy(s, w * h / 6.0, k)
    return s


def project_numpy(sys, s):
    a = sys.a
    s = s.copy()
    if sys.kind == "double_jacobi":
        for _ in range(2):
            c = -((s.x / a) @ s.xi - 1.0) / ((s.x / a**2) @ s.x + (s.xi / a**2) @ s.xi)
            s.x, s.xi = s.x + c * s.xi / a, s.xi + c * s.x / a
        c = -((s.y / a) @ s.xi + (s.x / a) @ s.eta) / (2.0 * (s.x / a**2) @ s.xi)
        s.y = s.y + c * s.x / a
        s.eta = s.eta + c * s.xi / a
    else:
        for _ in range(2):
            s.x = s.x + (-(_pair(s.x / a, s.x) - 1.0) / (2.0 * _pair(s.x / a**2, s.x))) * s.x / a
        s.y = s.y + (-_pair(s.x / a, s.y) / _pair(s.x / a**2, s.x)) * s.x / a
    return s


def integrate_numpy(sys, s0, T, h):
    n = max(1, int(round(T / h)))
    out = [s0.copy()]
    for _ in range(n):
        s = rk4_step_numpy(sys, out[-1], T / n)
        out.append(project_numpy(sys, s) if sys.constrained else s)
    return out


def _row(traj, k):
    """Row k of a stacked trajectory, as a one-state PhaseState."""
    return PhaseState(traj.x[k], traj.y[k], traj.t[k],
                      None if traj.xi is None else traj.xi[k],
                      None if traj.eta is None else traj.eta[k])


def _max_state_diff(s1, s2):
    parts = ("x", "y") if s1.xi is None else ("x", "y", "xi", "eta")
    return max(float(np.max(np.abs(getattr(s1, k) - getattr(s2, k)))) for k in parts)


def _assert_same_flow(sys1, sys2, s):
    """rhs, energy, constraints and projection agree bit for bit at s."""
    v1, v2 = rhs(sys1, s), rhs(sys2, s)
    assert np.array_equal(v1.x, v2.x) and np.array_equal(v1.y, v2.y)
    assert energy(sys1, s) == energy(sys2, s)
    assert np.array_equal(constraint_residuals(sys1, s), constraint_residuals(sys2, s))
    off = PhaseState(1.001 * s.x, s.y + 0.01)
    p1, p2 = project(sys1, off), project(sys2, off)
    assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.y, p2.y)


class TestRightHandSides:
    def test_great_circle_geodesic(self):
        sys = SystemSpec("jacobi", (1.0, 1.0, 1.0), sigma=0.0)
        s = PhaseState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        v = rhs(sys, s)
        np.testing.assert_allclose(v.x, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(v.y, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_resting_point_on_sphere_feels_no_force(self):
        for sigma in (0.0, 0.7, -1.3):
            sys = SystemSpec("jacobi", (1.0, 1.0, 1.0), sigma=sigma)
            s = PhaseState(np.array([0.0, 1.0, 0.0]), np.zeros(3))
            v = rhs(sys, s)
            np.testing.assert_allclose(v.y, np.zeros(3), atol=1e-15)

    def test_chargeless_reduction_equals_plain_flow(self):
        # jacobi is the mu = 0 case of one formula: equal bit for bit
        sysj = SystemSpec("jacobi", AXES, sigma=0.4)
        sysr = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.0, 0.0, 0.0))
        s = random_state(sysj, 0)
        _assert_same_flow(sysj, sysr, s)

    def test_complex_flow_on_a_real_state_equals_plain_flow(self):
        sysj = SystemSpec("jacobi", AXES, sigma=0.4)
        sysc = SystemSpec("complex_jacobi", AXES, sigma=0.4)
        _assert_same_flow(sysj, sysc, random_state(sysj, 5))

    @pytest.mark.parametrize("kind", ["jacobi", "double_jacobi", "complex_jacobi",
                                      "free_oscillator"])
    def test_charges_rejected_by_kinds_that_ignore_them(self, kind):
        with pytest.raises(ValueError, match="takes no charges"):
            SystemSpec(kind, AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        SystemSpec(kind, AXES, sigma=0.4, mu=(0.0, 0.0, 0.0))

    def test_spec_arrays_are_built_once_and_read_only(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        assert sys.a is sys.a and sys.mu_arr is sys.mu_arr
        np.testing.assert_array_equal(sys.a, AXES)
        np.testing.assert_array_equal(sys.mu_arr, [0.2, 0.0, 0.3])
        np.testing.assert_array_equal(SystemSpec("jacobi", AXES).mu_arr, np.zeros(3))
        for arr in (sys.a, sys.mu_arr):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        same = SystemSpec("jacobi_rosochatius", tuple(AXES), sigma=0.4, mu=(0.2, 0.0, 0.3))
        assert same == sys and hash(same) == hash(sys)

    def test_spec_builds_its_partition_once(self, monkeypatch):
        sys = SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
                         mu=(0.3, 0.2, 0.25, 0.15))
        assert sys.ellipsoid is sys.ellipsoid
        assert sys.ellipsoid == EllipsoidSpec(sys.axes)
        assert sys.ellipsoid.partition == ((0, 1), (2, 3))
        s = random_state(sys, 0)
        calls = []
        init = EllipsoidSpec.__init__

        def counted(self, axes):
            calls.append(axes)
            init(self, axes)

        monkeypatch.setattr(EllipsoidSpec, "__init__", counted)
        integral_family(sys, s)
        psi_poly(sys, s)
        commutation_suite(sys, s)
        assert calls == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_rejects_nonpositive_axes(self, kind):
        with pytest.raises(ValueError, match="positive"):
            SystemSpec(kind, (1.0, 0.0, 2.0), sigmas=(1.0,))

    def test_paired_flow_duplicates_on_the_diagonal(self):
        sysj = SystemSpec("jacobi", AXES, sigma=0.4)
        sysd = SystemSpec("double_jacobi", AXES, sigma=0.4)
        s = random_state(sysj, 1)
        sd = PhaseState(s.x, s.y, 0.0, s.x.copy(), s.y.copy())
        vj, vd = rhs(sysj, s), rhs(sysd, sd)
        np.testing.assert_allclose(vd.y, vj.y, rtol=1e-14)
        np.testing.assert_allclose(vd.eta, vj.y, rtol=1e-14)

    @pytest.mark.parametrize("extra", [
        ([1.0, 0.0, 0.0], None), (None, [0.0, 1.0, 0.0]),
        ([1.0, 0.0], [0.0, 1.0]), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
    ], ids=["xi-only", "eta-only", "short-pair", "long-eta"])
    def test_half_or_misshapen_second_pair_rejected(self, extra):
        with pytest.raises(DimensionError):
            PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0, *extra)

    def test_off_manifold_rejected(self):
        sys = SystemSpec("jacobi", AXES)
        with pytest.raises(ConstraintError):
            rhs(sys, PhaseState(np.array([1.0, 1.0, 1.0]), np.zeros(3)))

    def test_nan_state_rejected(self):
        # a NaN residual compares false with ctol, and must fail the guard
        with pytest.raises(ConstraintError):
            rhs(SystemSpec("jacobi", AXES, sigma=0.5), PhaseState([np.nan, 0, 0], [0, 1, 0]))

    @pytest.mark.parametrize("sys,s", NONFINITE_FREE_STATES, ids=NONFINITE_IDS)
    def test_nonfinite_state_of_a_free_kind_rejected(self, sys, s):
        # the free kinds have no residuals to carry the NaN into the guard
        with pytest.raises(ConstraintError):
            rhs(sys, s)

    def test_charged_axis_crossing_rejected(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, mu=(0.3, 0.0, 0.0))
        x = np.array([1e-10, 0.9, 0.8])
        x = x / np.sqrt((x / sys.a) @ x)
        y = np.zeros(3)
        with pytest.raises(SingularAxisError):
            rhs(sys, PhaseState(x, y))


class TestIntegrate:
    def test_nan_initial_state_rejected(self):
        with pytest.raises(ConstraintError):
            integrate(SystemSpec("jacobi", AXES, sigma=0.5),
                      PhaseState([np.nan, 0, 0], [0, 1, 0]), 0.01, 1e-3)

    @pytest.mark.parametrize("sys,s", NONFINITE_FREE_STATES, ids=NONFINITE_IDS)
    def test_nonfinite_initial_state_of_a_free_kind_rejected(self, sys, s):
        with pytest.raises(ConstraintError):
            integrate(sys, s, 0.01, 1e-3)

    @pytest.mark.parametrize("T", [0.0, -0.01, np.inf, np.nan])
    def test_duration_must_be_finite_and_positive(self, T):
        sys = SystemSpec("jacobi", AXES, sigma=0.5)
        with pytest.raises(ValueError, match="duration"):
            integrate(sys, random_state(sys, 1), T, 1e-3)

    def test_duration_below_the_step_takes_one_step_of_that_length(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.5)
        traj = integrate(sys, random_state(sys, 1), 4e-4, 1e-3)
        assert traj.x.shape == (2, 3)
        assert traj.t[0] == 0.0 and traj.t[1] == pytest.approx(4e-4, rel=1e-15)

    @pytest.mark.parametrize("sys", [KIND_SPECS[0], KIND_SPECS[1], KIND_SPECS[2]],
                             ids=lambda s: s.kind)
    def test_trajectory_is_one_stacked_state(self, sys):
        s0 = slow_state(sys, 1)
        s0.t = 0.25
        traj = integrate(sys, s0, 0.1, 1e-3)
        n = len(sys.axes)
        for k in ("x", "y", "xi", "eta"):
            v0, v = getattr(s0, k), getattr(traj, k)
            if v0 is None:
                assert v is None
                continue
            assert v.shape == (101, n) and v.dtype == v0.dtype
            # row 0 is s0 bit for bit
            assert v[0].tobytes() == v0.tobytes()
        assert traj.t.shape == (101,) and traj.t[0] == 0.25
        assert np.all(np.diff(traj.t) > 0) and traj.t[-1] == pytest.approx(0.35)

    def test_sphere_geodesic_period(self):
        sys = SystemSpec("jacobi", (1.0, 1.0, 1.0), sigma=0.0)
        s0 = PhaseState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        traj = integrate(sys, s0, 2.0 * np.pi, 1e-3)
        assert np.max(np.abs(traj.x[-1] - s0.x)) < 1e-8
        assert np.max(np.abs(traj.y[-1] - s0.y)) < 1e-8

    def test_constraints_stay_below_projection_tolerance(self):
        sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4, mu=(0.2, 0.0, 0.3))
        traj = integrate(sys, random_state(sys, 2), 3.0, 1e-3)
        worst = float(np.max(np.abs(constraint_residuals(sys, traj))))
        assert worst < 1e-10

    def test_energy_and_moser_product_drift(self):
        # conserved product <A^-1 y, y><A^-2 x, x> for the geodesic flow,
        # cross-checked against a step-halved run
        sys = SystemSpec("jacobi", AXES, sigma=0.0)
        s0 = random_state(sys, 3)
        a = sys.a

        def moser(s):
            return np.vecdot(s.y / a, s.y) * np.vecdot(s.x / a**2, s.x)

        traj = integrate(sys, s0, 10.0, 1e-3)
        every50 = PhaseState(traj.x[::50], traj.y[::50])
        H0, M0 = energy(sys, s0), moser(s0)
        dH = np.max(np.abs(energy(sys, every50) - H0) / abs(H0))
        dM = np.max(np.abs(moser(every50) - M0) / abs(M0))
        assert dH < 1e-8 and dM < 1e-8
        half = integrate(sys, s0, 10.0, 5e-4)
        np.testing.assert_allclose(half.x[-1], traj.x[-1], atol=1e-9)

    def test_fourth_order_energy_convergence(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.5)
        s0 = random_state(sys, 4)

        def drift(h):
            # unprojected steps: the projection would mask the truncation error
            H0, s, worst = energy(sys, s0), s0, 0.0
            for _ in range(round(1.0 / h)):
                s = rk4_step(sys, s, h)
                worst = max(worst, abs(energy(sys, s) - H0))
            return worst

        r = drift(2e-3) / drift(1e-3)
        assert 10.0 < r < 26.0

    def test_double_flow_bilinear_integrals(self):
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        s0 = slow_state(sys, 5)
        traj = integrate(sys, s0, 1.0, 1e-3)
        g0 = s0.y * s0.xi - s0.x * s0.eta
        g = (traj.y * traj.xi - traj.x * traj.eta)[::100]
        assert np.max(np.abs(g - g0)) < 1e-8

    def test_double_flow_family_conservation(self):
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        s0 = slow_state(sys, 5)
        traj = integrate(sys, s0, 1.0, 1e-3)
        f0 = integral_family(sys, s0).f
        fT = integral_family(sys, traj).f[-1]
        np.testing.assert_allclose(fT, f0, atol=1e-9)

    def test_double_flow_stops_at_its_multiplier_pole(self):
        # <A^-2 x, xi> goes from 0.45 to below zero near t = 0.85; no stage
        # lands within 1e-14 of zero, so only the change of sign shows it
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        with pytest.raises(MultiplierSingularError):
            integrate(sys, slow_state(sys, 0), 1.0, 1e-3)


class TestFloatKernel:
    # seeds 1 and 2: at seed 0 the double flow reaches its multiplier pole
    # <A^-2 x, xi> = 0 near t = 0.85 and stops there
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("sys", KIND_SPECS, ids=lambda s: s.kind)
    def test_integrate_matches_the_array_form(self, sys, seed):
        s0 = slow_state(sys, seed)
        got = integrate(sys, s0, 1.0, 1e-3)
        want = integrate_numpy(sys, s0, 1.0, 1e-3)
        assert len(got.t) == len(want) == 1001
        assert max(_max_state_diff(_row(got, k), w) for k, w in enumerate(want)) <= 1e-12
        assert got.t.tolist() == [w.t for w in want]
        assert np.iscomplexobj(got.x) == np.iscomplexobj(s0.x)

    @pytest.mark.parametrize("sys", KIND_SPECS, ids=lambda s: s.kind)
    def test_one_step_and_projection_match_the_array_form(self, sys):
        s = random_state(sys, 2)
        got, want = rk4_step(sys, s, 0.05), rk4_step_numpy(sys, s, 0.05)
        assert _max_state_diff(got, want) <= 1e-14 and got.t == want.t
        assert _max_state_diff(rhs(sys, s), rhs_numpy(sys, s)) <= 1e-13
        if sys.constrained:
            off = s.copy()
            off.x = off.x * (1.0 + 1e-4)
            off.y = off.y + 1e-4
            if off.xi is not None:
                off.xi = off.xi * (1.0 - 1e-4)
            assert _max_state_diff(project(sys, off), project_numpy(sys, off)) <= 1e-14

    def test_exact_zero_on_a_charged_axis_raises(self):
        # the second stage lands on x = 0.0, where float division raises
        free = SystemSpec("free_jr", (1.0,), mu=(0.3,))
        with pytest.raises(SingularAxisError):
            rk4_step(free, PhaseState([0.5], [-1.0]), 1.0)
        constrained = SystemSpec("jacobi_rosochatius", (1.0, 2.0), mu=(0.3, 0.0))
        with pytest.raises(SingularAxisError):
            rk4_step(constrained, PhaseState([0.5, 1.0], [-1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("sys", [KIND_SPECS[1], KIND_SPECS[3], KIND_SPECS[4]],
                             ids=lambda s: s.kind)
    def test_complex_state_rejected_where_the_pairs_do_not_apply(self, sys):
        # the (Re, Im) packing carries no charges, second pair or hierarchy
        s = random_state(SystemSpec("complex_jacobi", AXES), 0)
        with pytest.raises(ValueError, match="complex states"):
            rk4_step(sys, s, 1e-3)


class TestReparametrizedFlow:
    def test_factor_positive_on_diagonal_slice(self):
        sysj = SystemSpec("jacobi", AXES)
        s = random_state(sysj, 7)
        fac = (s.x / sysj.a**2) @ s.x
        assert fac > 0.0

    def test_pairing_with_second_momentum_is_invariant(self):
        # <A^-1 x, eta> stays constant along the paired flow
        sys = SystemSpec("double_jacobi", AXES, sigma=0.3)
        from confocal.sampling import random_double_invariant_state

        s = random_double_invariant_state(sys, 8)
        a = sys.a
        h = 1e-6
        sp = rk4_step(sys, s, h)
        sm = rk4_step(sys, s, -h)
        deriv = ((sp.x / a) @ sp.eta - (sm.x / a) @ sm.eta) / (2 * h)
        assert abs(deriv) < 1e-10


def torus_reconstruct_reference(x, y, mu, phases):
    """Inverse of `torus_reduce` on its image: z = x e^{i phi} and
    p = (y + i mu/x) e^{i phi}, with mu/x taken as 0 where x = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    ph = np.exp(1j * np.asarray(phases, dtype=float))
    rad = np.zeros_like(x)
    nz = x != 0
    rad[nz] = mu[nz] / x[nz]
    return x * ph, (y + 1j * rad) * ph


class TestTorusReduction:
    def test_real_slice_is_identity(self):
        z = np.array([0.3, -0.7, 1.1], dtype=complex)
        p = np.array([0.2, 0.9, -0.4], dtype=complex)
        x, y, mu, ph = torus_reduce(z, p)
        np.testing.assert_allclose(x, np.abs(z.real))
        np.testing.assert_allclose(mu, np.zeros(3), atol=1e-15)
        zz, pp = torus_reconstruct_reference(x, y, mu, ph)
        np.testing.assert_allclose(zz, z, atol=1e-14)
        np.testing.assert_allclose(pp, p, atol=1e-14)

    def test_quarter_turn_phase(self):
        x, y, mu, ph = torus_reduce(np.array([1.5j]), np.array([0.8j]))
        np.testing.assert_allclose(x, [1.5])
        np.testing.assert_allclose(y, [0.8])
        np.testing.assert_allclose(mu, [0.0], atol=1e-15)
        np.testing.assert_allclose(ph, [np.pi / 2])

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            p = rng.normal(size=4) + 1j * rng.normal(size=4)
            x, y, mu, ph = torus_reduce(z, p)
            zz, pp = torus_reconstruct_reference(x, y, mu, ph)
            np.testing.assert_allclose(zz, z, atol=1e-12)
            np.testing.assert_allclose(pp, p, atol=1e-12)

    def test_charged_zero_coordinate_rejected(self):
        z = np.array([1e-14, 1.0], dtype=complex)
        p = np.array([1e3j, 0.5], dtype=complex)
        with pytest.raises(ReductionSingularError):
            torus_reduce(z, p)

    def test_reduced_path_satisfies_reduced_equations(self):
        # push the complex trajectory through the reduction pointwise and
        # difference it in time: it must solve the charged flow
        sys_c = SystemSpec("complex_jacobi", AXES, sigma=0.4)
        sc = random_state(sys_c, 10)
        h = 1e-4
        traj = integrate(sys_c, sc, 200 * h, h)
        _, _, mu, _ = torus_reduce(sc.x, sc.y)
        sys_r = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4,
                           mu=tuple(np.abs(mu)))
        worst = 0.0
        for k in range(1, 200, 20):
            xm, ym, _, _ = torus_reduce(traj.x[k - 1], traj.y[k - 1])
            x0, y0, _, _ = torus_reduce(traj.x[k], traj.y[k])
            xp, yp, _, _ = torus_reduce(traj.x[k + 1], traj.y[k + 1])
            v = rhs(sys_r, PhaseState(x0, y0))
            worst = max(worst, float(np.max(np.abs((xp - xm) / (2 * h) - v.x))),
                        float(np.max(np.abs((yp - ym) / (2 * h) - v.y))))
        assert worst < 1e-7


def bracket(a, grad_f, grad_g, s):
    """{f, g} = grad_f W grad_g with W the `dirac_tensor` of the state."""
    return float(grad_f @ dirac_tensor(a, s) @ grad_g)


class TestDiracBracket:
    def setup_method(self):
        self.sys = SystemSpec("jacobi_rosochatius", AXES, sigma=0.4,
                              mu=(0.2, 0.0, 0.3))
        self.s = random_state(self.sys, 11)
        self.a = self.sys.a

    def test_positions_commute_exactly(self):
        W = dirac_tensor(self.a, self.s)
        n1 = self.a.size
        assert np.all(W[:n1, :n1] == 0.0)

    def test_antisymmetry_of_tensor_and_bracket(self):
        W = dirac_tensor(self.a, self.s)
        np.testing.assert_allclose(W, -W.T, atol=1e-15)
        rng = np.random.default_rng(12)
        c1, c2 = rng.normal(size=6), rng.normal(size=6)
        f = lambda st: st.x**2 @ c1[:3] + (st.x * st.y) @ c1[3:]
        g = lambda st: st.y**2 @ c2[:3] + (st.x * st.y) @ c2[3:]
        gf, gg = fd_gradient(f, self.s), fd_gradient(g, self.s)
        b1 = bracket(self.a, gf, gg, self.s)
        b2 = bracket(self.a, gg, gf, self.s)
        assert abs(b1 + b2) < 1e-10

    def test_coordinate_momentum_table(self):
        den = (self.s.x / self.a**2) @ self.s.x
        for i in range(3):
            for j in range(3):
                gf = fd_gradient(lambda st, i=i: st.x[..., i], self.s)
                gg = fd_gradient(lambda st, j=j: st.y[..., j], self.s)
                got = bracket(self.a, gf, gg, self.s)
                want = (1.0 if i == j else 0.0) - (
                    self.s.x[i] * self.s.x[j] / (self.a[i] * self.a[j] * den))
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_conserved_family_commutes(self):
        sys = self.sys
        for seed in range(5):
            s = random_state(sys, 100 + seed)
            grads = fd_gradient(lambda st: integral_family(sys, st).f, s).T
            for i in range(3):
                for j in range(i + 1, 3):
                    val = bracket(self.a, grads[i], grads[j], s)
                    assert abs(val) < 1e-6

    def test_off_manifold_state_rejected(self):
        bad = PhaseState(np.array([1.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ConstraintError):
            commutation_suite(self.sys, bad)


def fd_gradient_loop(func, s):
    """Per-coordinate central difference: func on one displaced state at a
    time, the reference for the stacked `fd_gradient`."""
    rows = []
    for which in ("x", "y"):
        for i in range(s.x.size):
            h = 1e-6 * (1.0 + abs(float(getattr(s, which)[i])))
            sp, sm = s.copy(), s.copy()
            getattr(sp, which)[i] += h
            getattr(sm, which)[i] -= h
            rows.append(np.subtract(func(sp), func(sm)) / (2 * h))
    return np.array(rows)


class TestFdGradient:
    sys = SystemSpec("jacobi_rosochatius", (1.5, 1.5, 1.5, 2.8, 2.8), sigma=0.2,
                     mu=(0.2, 0.1, 0.15, 0.25, 0.3))

    def family_entries(self, st):
        fam = integral_family(self.sys, st)
        return np.stack([*np.moveaxis(fam.ftilde, -1, 0), *np.moveaxis(fam.P, -1, 0),
                         *fam.P_pairs.values(), *fam.L_chain.values()], axis=-1)

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_stacked_difference_equals_the_per_coordinate_loop(self, vector):
        s = random_state(self.sys, 31)
        func = self.family_entries if vector else (lambda st: energy(self.sys, st))
        calls = []

        def counted(st):
            calls.append(st.x.shape)
            return func(st)

        got = fd_gradient(counted, s)
        assert calls == [(20, 5)]
        want = fd_gradient_loop(func, s)
        assert got.shape == want.shape == ((10, 11) if vector else (10,))
        assert got.tobytes() == want.tobytes()


class TestEnergyBattery:
    @pytest.mark.parametrize("kind,kwargs", [
        ("jacobi", {"sigma": 0.5}),
        ("jacobi_rosochatius", {"sigma": 0.4, "mu": (0.2, 0.0, 0.3)}),
        ("separable_hierarchy", {"sigmas": (0.5, -0.2), "mu": (0.1, 0.0, 0.2)}),
        ("complex_jacobi", {"sigma": 0.4}),
    ])
    def test_relative_energy_drift(self, kind, kwargs):
        sys = SystemSpec(kind, AXES, **kwargs)
        s0 = random_state(sys, 13)
        traj = integrate(sys, s0, 10.0, 1e-3)
        H0 = energy(sys, s0)
        drift = np.max(np.abs(energy(sys, traj)[::100] - H0) / abs(H0))
        assert drift < 1e-8

    def test_projection_restores_nearby_state(self):
        sys = SystemSpec("jacobi", AXES, sigma=0.5)
        s = random_state(sys, 14)
        s.x = s.x * (1.0 + 3e-7)
        s.y = s.y + 2e-7
        fixed = project(sys, s)
        assert np.max(np.abs(constraint_residuals(sys, fixed))) < 1e-12

    def test_projection_of_a_nan_state_raises(self):
        with pytest.raises(ProjectionError):
            project(SystemSpec("jacobi", AXES, sigma=0.5), PhaseState([np.nan, 0, 0], [0, 1, 0]))


class TestFreeKinds:
    def test_free_oscillator_closed_form_period(self):
        sys = SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0)
        z0 = np.array([0.3 + 0.2j, -0.5 + 0.1j])
        p0 = np.array([0.1 - 0.4j, 0.2 + 0.3j])
        traj = integrate(sys, PhaseState(z0, p0), np.pi, 1e-3)  # period 2*pi/w
        np.testing.assert_allclose(traj.x[-1], z0, atol=1e-10)
        np.testing.assert_allclose(traj.y[-1], p0, atol=1e-10)

    def test_free_charged_flow_energy(self):
        sys = SystemSpec("free_jr", (2.0, 1.0), sigma=0.5, mu=(0.0, 0.3))
        s0 = PhaseState(np.array([0.2, 0.6]), np.array([0.4, -0.3]))
        traj = integrate(sys, s0, 2.0, 1e-3)
        H0 = energy(sys, s0)
        assert np.max(np.abs(energy(sys, traj)[::50] - H0)) < 1e-10

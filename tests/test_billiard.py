import numpy as np
import pytest

from confocal.billiard import (
    ORACLE_H_MAX,
    ORACLE_T_MAX,
    ORACLE_TOL,
    BilliardSpec,
    ImpactState,
    boundary_angle,
    boundary_point,
    discrete_lax_check,
    expected_caustic_count,
    fedorov_step,
    find_planar_periodic_orbit,
    impact_invariant,
    jr_step,
    oracle_step,
    orbit_caustics,
    poncelet_detect,
    run_orbit,
    tangent_directions,
    tangent_state,
)
from confocal import suites
from confocal.dynamics import SystemSpec, energy, integrate, PhaseState, torus_reconstruct
from confocal.errors import (
    DimensionError,
    EscapeError,
    GrazingOrSingularError,
    PoleError,
    SingularAxisError,
)
from confocal.geometry import tangency_value
from confocal.lax import LaxPair2, lambda_samples
from confocal.sampling import random_impact_state


def ray_trace_step(axes, x, y):
    """Oracle: straight chord to the far intersection, elastic reflection."""
    a = np.asarray(axes, dtype=float)
    A = (y / a) @ y
    B = 2.0 * (x / a) @ y
    t = -B / A
    x1 = x + t * y
    n = x1 / a
    y1 = y - 2.0 * ((y @ n) / (n @ n)) * n
    return x1, y1


def linear_arc_step(axes, sigma, x, y, tmax=60.0):
    """Oracle for charge-free forced flight: closed-form arc of x'' = -sigma x
    plus a scan/bisection boundary event on the closed form."""
    a = np.asarray(axes, dtype=float)
    w = np.sqrt(abs(sigma))

    def pos(t):
        if sigma == 0.0:
            return x + t * y
        if sigma > 0:
            return np.cos(w * t) * x + np.sin(w * t) / w * y
        return np.cosh(w * t) * x + np.sinh(w * t) / w * y

    def b(t):
        p = pos(t)
        return (p / a) @ p - 1.0

    ts = np.linspace(1e-9, tmax, 200001)
    vals = np.array([b(t) for t in ts])
    idx = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    assert idx.size, "oracle found no crossing"
    lo, hi = ts[idx[0]], ts[idx[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if b(mid) >= 0:
            hi = mid
        else:
            lo = mid
    t_hit = 0.5 * (lo + hi)
    x1 = pos(t_hit)
    if sigma == 0.0:
        v = y
    elif sigma > 0:
        v = -w * np.sin(w * t_hit) * x + np.cos(w * t_hit) * y
    else:
        v = w * np.sinh(w * t_hit) * x + np.cosh(w * t_hit) * y
    n = x1 / a
    y1 = v - 2.0 * ((v @ n) / (n @ n)) * n
    return x1, y1


class TestComplexMap:
    def test_force_free_real_slice_is_the_chord_map(self):
        spec = BilliardSpec((2.0, 1.0, 0.6))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = random_impact_state(spec.axes, 0.0, spec.mu, rng)
            z1, p1 = fedorov_step(spec, x.astype(complex), y.astype(complex))
            xo, yo = ray_trace_step(spec.axes, x, y)
            np.testing.assert_allclose(z1.real, xo, atol=1e-10)
            np.testing.assert_allclose(p1.real, yo, atol=1e-10)
            assert np.max(np.abs(z1.imag)) < 1e-14

    def test_invariant_magnitude_preserved(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=-0.7)
        rng = np.random.default_rng(1)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        z /= np.sqrt(((z / spec.a) @ np.conj(z)).real)
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        if ((z / spec.a) @ np.conj(p)).real > 0:
            p = -p
        J0 = ((z / spec.a) @ np.conj(p) + (np.conj(z) / spec.a) @ p).real
        for _ in range(25):
            z, p = fedorov_step(spec, z, p)
            J = ((z / spec.a) @ np.conj(p) + (np.conj(z) / spec.a) @ p).real
            assert abs(abs(J) - abs(J0)) < 1e-10

    def test_torus_equivariance(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3)
        rng = np.random.default_rng(2)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        z /= np.sqrt(((z / spec.a) @ np.conj(z)).real)
        p = 1.8 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        if ((z / spec.a) @ np.conj(p)).real > 0:
            p = -p
        theta = np.exp(1j * np.array([0.3, -1.1, 2.2]))
        z1, p1 = fedorov_step(spec, z, p)
        z2, p2 = fedorov_step(spec, theta * z, theta * p)
        np.testing.assert_allclose(z2, theta * z1, atol=1e-12)
        np.testing.assert_allclose(p2, theta * p1, atol=1e-12)


def jr_step_reference(spec, s):
    """Reference: the per-coordinate transcription of the bounce map that
    `jr_step` replaced, with its own real coefficients and the check that
    each charged momentum update comes out real."""
    a, mu, sig = spec.a, spec.mu_arr, spec.sigma
    x, y = s.x, s.y
    J = 2.0 * float((x / a) @ y)
    if abs(J) < 1e-8:
        raise GrazingOrSingularError(f"grazing impact, J={J}")
    nz = mu != 0
    if nz.any() and np.any(x[nz] < 1e-9):
        raise SingularAxisError("charged coordinate not positive at the impact")
    charge = float(((mu[nz] / x[nz]) ** 2 / a[nz]).sum()) if nz.any() else 0.0
    K = sig - float((y / a) @ y) - charge
    nusq = sig * J * J + K * K
    if nusq <= 1e-12:
        raise GrazingOrSingularError(f"map denominator nu^2={nusq} not positive")
    nu = float(np.sqrt(nusq))
    w = np.zeros(a.size)
    w[nz] = mu[nz] / x[nz]
    amp = -K * x - J * y - 1j * J * w
    x1 = np.where(nz, np.abs(amp) / nu, (-(K * x + J * y)) / nu)
    if np.any(x1[nz] < 1e-9):
        raise SingularAxisError("charged coordinate collapsed at the new impact")
    x1 = x1 / np.sqrt((x1 / a) @ x1)
    pi = J / float((x1 / a**2) @ x1)
    y1 = np.empty(a.size)
    for j in range(a.size):
        if nz[j]:
            phase = np.exp(-1j * np.angle(amp[j]))
            val = (-phase / nu * (K * (pi / a[j] * x[j] + y[j] + 1j * mu[j] / x[j]))
                   - J * phase / nu * (pi / a[j] * y[j] - sig * x[j]
                                       + 1j * pi * mu[j] / (a[j] * x[j]))
                   - 1j * mu[j] / x1[j])
            assert abs(val.imag) < 1e-8, "momentum update left an imaginary residue"
            y1[j] = val.real
        else:
            y1[j] = -(K * (pi / a[j] * x[j] + y[j])
                      + J * (pi / a[j] * y[j] - sig * x[j])) / nu
    return ImpactState(x1, y1, s.k + 1)


class TestBounceMap:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lifted_complex_map_matches_the_reference(self, seed):
        # the 18 cases of the billiard-oracle suite, 50 bounces each; a draw
        # on which either side raises must raise the same class on the other
        rng = np.random.default_rng(seed)
        compared, raised = 0, 0
        for n in (2, 3):
            base, mus = suites._billiard_specs(n)
            for mu in mus.values():
                for sigma in (-1.0, 0.0, 0.3):
                    spec = BilliardSpec(base, sigma=sigma, mu=mu)
                    s = ImpactState(*random_impact_state(base, sigma, mu, rng, speed=1.3))
                    for _ in range(50):
                        try:
                            ref = jr_step_reference(spec, s)
                        except (GrazingOrSingularError, SingularAxisError) as exc:
                            with pytest.raises(type(exc)):
                                jr_step(spec, s)
                            raised += 1
                            s = ImpactState(*random_impact_state(base, sigma, mu, rng,
                                                                 speed=1.3))
                            continue
                        got = jr_step(spec, s)
                        np.testing.assert_allclose(got.x, ref.x, rtol=0, atol=1e-13)
                        np.testing.assert_allclose(got.y, ref.y, rtol=0, atol=1e-13)
                        assert got.k == ref.k
                        compared += 1
                        s = ref
        assert compared + raised == 18 * 50

    @pytest.mark.parametrize("x1", [0.0, -0.3], ids=["on-axis", "negative"])
    def test_charged_coordinate_not_positive_at_the_impact(self, x1):
        spec = BilliardSpec((2.0, 1.0), sigma=0.3, mu=(0.0, 0.25))
        s = ImpactState(np.array([np.sqrt(2.0 * (1.0 - x1**2)), x1]), np.array([-1.0, 0.2]))
        for step in (jr_step_reference, jr_step):
            with pytest.raises(SingularAxisError, match="not positive"):
                step(spec, s)

    def test_planar_chord_map_long_run(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 3)
        s = ImpactState(x, y)
        for _ in range(200):
            s1 = jr_step(spec, s)
            xo, yo = ray_trace_step(spec.axes, s.x, s.y)
            np.testing.assert_allclose(s1.x, xo, atol=1e-10)
            np.testing.assert_allclose(s1.y, yo, atol=1e-10)
            s = s1

    def test_chargeless_map_is_the_real_complex_map(self):
        for sigma in (0.0, -1.0, 0.3):
            spec = BilliardSpec((2.0, 1.0, 0.6), sigma=sigma)
            x, y = random_impact_state(spec.axes, sigma, spec.mu, 4, speed=1.5)
            s1 = jr_step(spec, ImpactState(x, y))
            z1, p1 = fedorov_step(spec, x.astype(complex), y.astype(complex))
            np.testing.assert_allclose(s1.x, z1.real, atol=1e-12)
            np.testing.assert_allclose(s1.y, p1.real, atol=1e-12)

    @pytest.mark.parametrize("sigma,mu", [
        (0.0, (0.3, 0.25, 0.2)),
        (-1.0, (0.0, 0.25, 0.0)),
        (0.3, (0.3, 0.25, 0.2)),
    ])
    def test_against_integrate_and_reflect(self, sigma, mu):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=sigma, mu=mu)
        x, y = random_impact_state(spec.axes, sigma, mu, 5, speed=1.4)
        s = ImpactState(x, y)
        for _ in range(20):
            s1 = jr_step(spec, s)
            so = oracle_step(spec, s)
            assert np.max(np.abs(s1.x - so.x)) < 1e-6
            assert np.max(np.abs(s1.y - so.y)) < 1e-6
            s = s1

    def test_boundary_closure_along_orbit(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3, mu=(0.0, 0.25, 0.2))
        x, y = random_impact_state(spec.axes, 0.3, spec.mu, 6, speed=1.4)
        orb = run_orbit(spec, ImpactState(x, y), 100, with_lax=False)
        for s in orb.impacts:
            assert abs(spec.boundary_residual(s.x)) < 1e-10

    def test_reflection_symmetry_on_chargeless_coordinates(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=-0.5, mu=(0.0, 0.0, 0.25))
        x, y = random_impact_state(spec.axes, -0.5, spec.mu, 7)
        s1 = jr_step(spec, ImpactState(x, y))
        xf, yf = x.copy(), y.copy()
        xf[0], yf[0] = -xf[0], -yf[0]
        s2 = jr_step(spec, ImpactState(xf, yf))
        np.testing.assert_allclose(np.abs(s2.x), np.abs(s1.x), atol=1e-12)
        np.testing.assert_allclose(np.abs(s2.y), np.abs(s1.y), atol=1e-12)
        np.testing.assert_allclose(s2.x[1:] * s2.y[1:], s1.x[1:] * s1.y[1:],
                                   atol=1e-12)

    def test_grazing_rejected(self):
        spec = BilliardSpec((2.0, 1.0))
        x = np.array([np.sqrt(2.0), 0.0])
        y = np.array([0.0, 1.0])  # tangent to the boundary
        with pytest.raises(GrazingOrSingularError):
            jr_step(spec, ImpactState(x, y))

    def test_negative_forcing_branch_violation_rejected(self):
        # sigma J^2 + K^2 >= (q + sigma)^2 by the Cauchy-Schwarz bound, so the
        # denominator vanishes only at the equality configuration: momentum
        # parallel to the position with matched speed
        spec = BilliardSpec((2.0, 1.0), sigma=-4.0)
        x = np.array([np.sqrt(2.0) * np.cos(0.3), np.sin(0.3)])
        y = -2.0 * x
        with pytest.raises(GrazingOrSingularError):
            jr_step(spec, ImpactState(x, y))

    def test_charged_coordinate_stays_positive(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.0, mu=(0.3, 0.25, 0.2))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 8)
        s = ImpactState(x, y)
        for _ in range(100):
            s = jr_step(spec, s)
            assert np.all(s.x > 0.0)


class TestOracleStep:
    def test_force_free_flight_is_the_chord(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 9)
        so = oracle_step(spec, ImpactState(x, y))
        xo, yo = ray_trace_step(spec.axes, x, y)
        np.testing.assert_allclose(so.x, xo, atol=1e-9)
        np.testing.assert_allclose(so.y, yo, atol=1e-9)

    def test_repelling_arc_matches_closed_form(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=-1.0)
        x, y = random_impact_state(spec.axes, -1.0, spec.mu, 10)
        so = oracle_step(spec, ImpactState(x, y))
        xo, yo = linear_arc_step(spec.axes, -1.0, x, y)
        np.testing.assert_allclose(so.x, xo, atol=1e-8)
        np.testing.assert_allclose(so.y, yo, atol=1e-8)

    def test_reflection_preserves_speed_and_flips_normal_component(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.0, mu=(0.0, 0.2, 0.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 11)
        s = ImpactState(x, y)
        so = oracle_step(spec, s)
        # energy is conserved in flight and by the reflection
        assert abs(energy(spec, PhaseState(so.x, so.y))
                   - energy(spec, PhaseState(s.x, s.y))) < 1e-9
        assert impact_invariant(spec, so) < 0.0  # outgoing again

    def test_time_budget_exhaustion(self, monkeypatch):
        import confocal.billiard as bl

        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 12)
        monkeypatch.setattr(bl, "ORACLE_T_MAX", 1e-3)
        with pytest.raises(EscapeError):
            oracle_step(spec, ImpactState(x, y))

    def test_near_grazing_exit_is_not_stepped_over(self):
        # sigma > 0 closed-form arc through a maximum p of <x, a^-1 x> just
        # outside the boundary: it exits by about 5.5e-7 for 5e-3 time units
        # around t = -pi/w, where it is launched near -p, and again around
        # t = 0.  A step over the maximum at p that ends inside would miss
        # that exit and land on a later crossing, about 2.5 away from the map
        spec = BilliardSpec((2.0, 1.0), sigma=0.3)
        a, w = spec.a, np.sqrt(spec.sigma)
        p = np.sqrt(1.0 + 1.1e-6) * boundary_point(a, 0.5)
        # <x(t), a^-1 x(t)> = bp cos^2(wt) + vv sin^2(wt) with v tangent to
        # the level set at p
        bp, vv = (p / a) @ p, 0.413
        v = np.array([-p[1] / a[1], p[0] / a[0]])
        v *= np.sqrt(vv * spec.sigma / ((v / a) @ v))
        half = np.arccos(np.sqrt((1.0 - vv) / (bp - vv))) / w
        t0 = -np.pi / w + half
        x0 = np.cos(w * t0) * p + np.sin(w * t0) / w * v
        y0 = -w * np.sin(w * t0) * p + np.cos(w * t0) * v
        s = ImpactState(x0 / np.sqrt((x0 / a) @ x0), y0)
        assert -1e-3 < impact_invariant(spec, s) < -5e-4
        # inside from the launch to the brief exit near t = 0
        t = np.linspace(t0, -half, 201)[1:-1, None]
        arc = np.cos(w * t) * p + np.sin(w * t) / w * v
        assert np.all((arc / a * arc).sum(axis=1) < 1.0)
        assert 2 * half == pytest.approx(5e-3, rel=1e-3)
        s1, so = jr_step(spec, s), oracle_step(spec, s)
        np.testing.assert_allclose(so.x, s1.x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(so.y, s1.y, rtol=0, atol=1e-9)
        np.testing.assert_allclose(s1.x, p / np.sqrt(bp), rtol=0, atol=1e-2)


def oracle_step_numpy(spec, s):
    """Reference: the array form of `oracle_step`'s step rule, grazing guard,
    step floor and bisection, one numpy RK4 step with its embedded estimate
    per trial step, kept to catch a transcription slip in the float kernel."""
    a = spec.a
    mu2 = spec.mu_arr**2
    nz = spec.mu_arr != 0
    sig = spec.sigma

    def accel(x):
        out = -sig * x
        if nz.any():
            out[nz] += mu2[nz] / x[nz] ** 3
        return out

    def step(x, y, dt):
        k1x, k1y = y, accel(x)
        k2x, k2y = y + 0.5 * dt * k1y, accel(x + 0.5 * dt * k1x)
        k3x, k3y = y + 0.5 * dt * k2y, accel(x + 0.5 * dt * k2x)
        k4x, k4y = y + dt * k3y, accel(x + dt * k3x)
        x1 = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y1 = y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        err = dt / 6.0 * max(np.max(np.abs(k4x - y1)), np.max(np.abs(k4y - accel(x1))))
        return x1, y1, err

    h_max = ORACLE_H_MAX
    x, y = s.x.copy(), s.y.copy()
    t, h, d = 0.0, h_max, (x / a) @ y
    crossed = False
    while t < ORACLE_T_MAX:
        xn, yn, err = step(x, y, h)
        if err > ORACLE_TOL:
            if h <= h_max / 2**30:
                raise SingularAxisError("reference step below the floor")
            h /= 2
            continue
        if (xn / a) @ xn - 1.0 >= 0.0:
            crossed = True
            break
        dn = (xn / a) @ yn
        if d > 0.0 >= dn and h > h_max / 32:
            h /= 2
            continue
        x, y, t, d = xn, yn, t + h, dn
        if err < ORACLE_TOL / 32 and h < h_max:
            h *= 2
    assert crossed, "reference found no crossing"
    lo, hi = 0.0, h
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        xm, _, _ = step(x, y, mid)
        if (xm / a) @ xm - 1.0 >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    xh, yh, _ = step(x, y, hi)
    xh = xh / np.sqrt((xh / a) @ xh)
    n = xh / a
    y1 = yh - 2.0 * ((yh @ n) / (n @ n)) * n
    return ImpactState(xh, y1, s.k + 1)


class TestOracleKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float_kernel_matches_array_reference(self, seed):
        rng = np.random.default_rng(seed)
        cases = 0
        for n in (2, 3):
            base, mus = suites._billiard_specs(n)
            for mu in mus.values():
                for sigma in (-1.0, 0.0, 0.3):
                    spec = BilliardSpec(base, sigma=sigma, mu=mu)
                    x, y = random_impact_state(base, sigma, mu, rng, speed=1.3)
                    s = ImpactState(x, y)
                    got = oracle_step(spec, s)
                    ref = oracle_step_numpy(spec, s)
                    np.testing.assert_allclose(got.x, ref.x, rtol=0, atol=1e-13)
                    np.testing.assert_allclose(got.y, ref.y, rtol=0, atol=1e-13)
                    assert got.k == ref.k == 1
                    cases += 1
        assert cases == 18

    def test_spec_arrays_are_built_once_and_read_only(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3, mu=(0.0, 0.25, 0.0))
        assert spec.a is spec.a and spec.mu_arr is spec.mu_arr
        for arr in (spec.a, spec.mu_arr):
            assert not arr.flags.writeable
        same = BilliardSpec([2.0, 1.0, 0.6], sigma=0.3, mu=[0.0, 0.25, 0.0])
        assert same == spec and hash(same) == hash(spec)

    def test_spec_is_the_free_jr_system(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3)
        assert isinstance(spec, SystemSpec) and spec.kind == "free_jr"
        assert spec.mu == (0.0, 0.0, 0.0) and len(spec.axes) == 3
        flow = SystemSpec("free_jr", (2.0, 1.0, 0.6), sigma=0.3, mu=(0.0, 0.0, 0.0))
        assert [getattr(spec, f) for f in ("axes", "sigma", "sigmas", "mu")] == \
            [getattr(flow, f) for f in ("axes", "sigma", "sigmas", "mu")]
        with pytest.raises(ValueError, match="positive"):
            BilliardSpec((2.0, -1.0))

    def test_charged_coordinate_on_its_axis_raises_singular_axis(self):
        spec = BilliardSpec((2.0, 1.0), sigma=0.3, mu=(0.0, 0.25))
        s = ImpactState(np.array([np.sqrt(2.0), 0.0]), np.array([-1.0, 0.2]))
        assert impact_invariant(spec, s) < 0.0
        with pytest.raises(SingularAxisError):
            oracle_step(spec, s)

    def test_step_floor_raises_singular_axis(self, monkeypatch):
        # a charged coordinate 1e-6 from its axis turns within ~1e-11 time
        # units, so every step fails the estimate down to ORACLE_H_MAX/2^30
        import confocal.billiard as bl

        spec = BilliardSpec((2.0, 1.0), sigma=0.3, mu=(0.0, 0.25))
        s = ImpactState(np.array([np.sqrt(2.0 * (1.0 - 1e-12)), 1e-6]),
                        np.array([-1.0, 0.2]))
        steps = []
        inner = bl._rk4_floats

        def counted(x, y, dt, *rest):
            steps.append(dt)
            return inner(x, y, dt, *rest)

        monkeypatch.setattr(bl, "_rk4_floats", counted)
        with pytest.raises(SingularAxisError, match="fell below") as info:
            oracle_step(spec, s)
        assert info.value.__cause__ is None  # the floor, not a division by zero
        assert steps == [ORACLE_H_MAX / 2**k for k in range(31)]

    def test_suite_calls_oracle_step_once_per_compared_bounce(self, monkeypatch):
        # the benchmark counts compared bounces by wrapping billiard.oracle_step;
        # a suite that bypassed it would report every case as comparing nothing
        import confocal.billiard as bl

        calls = []
        inner = bl.oracle_step

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            calls.append(out.k)
            return out

        monkeypatch.setattr(bl, "oracle_step", counted)
        recs = suites.suite_billiard_oracle(seed=0, bounces=2)
        assert len(recs) == 18
        assert len(calls) == 36  # 18 cases x 2 bounces, no resample at seed 0
        assert all(r.passed for r in recs)

    def test_case_that_compares_no_bounce_fails(self, monkeypatch):
        import confocal.billiard as bl

        def refuse(spec, s):
            raise GrazingOrSingularError("refused")

        monkeypatch.setattr(bl, "oracle_step", refuse)
        recs = suites.suite_billiard_oracle(seed=0, bounces=3)
        assert len(recs) == 18
        assert all(r.value == np.inf and not r.passed for r in recs)

    def test_slow_draw_lands_within_the_flight_limit(self):
        # at seed 518 the planar uncharged sigma = 0 case draws |y| = 0.0029,
        # whose chord would take about 500 time units; the sampler's speed
        # floor keeps every free chord within half of ORACLE_T_MAX
        recs = suites.suite_billiard_oracle(seed=518, bounces=1)
        assert len(recs) == 18 and all(r.passed for r in recs)
        rng = np.random.default_rng(0)
        for axes in ((2.0, 1.0), (2.0, 1.0, 0.6)):
            for _ in range(200):
                _, y = random_impact_state(axes, 0.0, (), rng, speed=1e-3)
                assert np.sqrt(y @ y) >= 4.0 * np.sqrt(2.0) / ORACLE_T_MAX * (1 - 1e-12)


def discrete_lax_check_per_parameter(spec, s, s_next, lambdas):
    """The conjugation check with one companion and one pair of spectral
    matrices per parameter, as before the parameter stacks."""
    a = spec.a
    pair0 = LaxPair2(spec, s.x, s.y)
    pair1 = LaxPair2(spec, s_next.x, s_next.y)
    out = []
    for lam in lambdas:
        # J and K of the lifted state z = x, p = y + i mu/x
        z, p = torus_reconstruct(s.x, s.y, spec.mu_arr, 0.0)
        J = 2.0 * float(np.vdot(p, z / a).real)
        K = spec.sigma - float(np.vdot(p, p / a).real)
        pi = J / float((s_next.x / a**2) @ s_next.x)
        A = np.array([[K * lam + J * pi, spec.sigma * J * lam - K * pi],
                      [-J * lam, K * lam]])
        L0, L1 = pair0.L(lam), pair1.L(lam)
        d0 = L0[0, 0] * L0[1, 1] - L0[0, 1] * L0[1, 0]
        d1 = L1[0, 0] * L1[1, 1] - L1[0, 1] * L1[1, 0]
        out.append({"lam": float(lam), "det_drift": abs(float(d1 - d0)),
                    "conjugation_residual": float(np.max(np.abs(L1 @ A - A @ L0)))})
    return out


class TestDiscreteConjugation:
    @pytest.mark.parametrize("sigma,mu", [(0.0, (0.0, 0.0, 0.0)), (-1.0, (0.3, 0.25, 0.2)),
                                          (0.3, (0.0, 0.25, 0.0))])
    def test_stacked_check_equals_the_per_parameter_loop(self, sigma, mu):
        # the three specs of the discrete-lax suite, 100 bounces each
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=sigma, mu=mu)
        x, y = random_impact_state(spec.axes, sigma, mu, 31, speed=1.3)
        s = ImpactState(x, y)
        lams = lambda_samples(spec.axes, 5)
        for _ in range(100):
            s1 = jr_step(spec, s)
            assert (discrete_lax_check(spec, s, s1, lams)
                    == discrete_lax_check_per_parameter(spec, s, s1, lams))
            s = s1

    def test_determinant_invariance_along_orbit(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=-1.0, mu=(0.3, 0.25, 0.2))
        x, y = random_impact_state(spec.axes, -1.0, spec.mu, 14, speed=1.4)
        orb = run_orbit(spec, ImpactState(x, y), 100)
        assert orb.det_drift < 1e-8
        assert orb.lax_residual < 1e-6

    def test_planar_conjugation_residual(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 15)
        s = ImpactState(x, y)
        s1 = jr_step(spec, s)
        for rec in discrete_lax_check(spec, s, s1, [0.37, -1.2, 3.4]):
            assert rec["conjugation_residual"] < 1e-9
            assert rec["det_drift"] < 1e-12

    def test_spectral_matrix_is_traceless(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3, mu=(0.0, 0.25, 0.0))
        x, y = random_impact_state(spec.axes, 0.3, spec.mu, 16, speed=1.4)
        s = ImpactState(x, y)
        s1 = jr_step(spec, s)
        for state in (s, s1):
            L = LaxPair2(spec, state.x, state.y).L(0.37)
            assert abs(L[0, 0] + L[1, 1]) < 1e-13

    def test_chargeless_sign_flip_leaves_the_residual_unchanged(self):
        spec = BilliardSpec((2.0, 1.0, 0.6), sigma=0.3, mu=(0.0, 0.25, 0.0))
        x, y = random_impact_state(spec.axes, 0.3, spec.mu, 24, speed=1.4)
        s = ImpactState(x, y)
        s1 = jr_step(spec, s)
        flip = np.array([-1.0, 1.0, -1.0])
        s1f = ImpactState(flip * s1.x, flip * s1.y, s1.k)
        lams = [0.37, -1.2, 3.4]
        for rec, recf in zip(discrete_lax_check(spec, s, s1, lams),
                             discrete_lax_check(spec, s, s1f, lams)):
            assert recf["conjugation_residual"] == rec["conjugation_residual"]
            assert recf["det_drift"] == rec["det_drift"]

    def test_companion_matrix_singular_at_zero(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 17)
        s = ImpactState(x, y)
        s1 = jr_step(spec, s)
        with pytest.raises(GrazingOrSingularError):
            discrete_lax_check(spec, s, s1, [0.0])


def tangent_count_by_scan(axes, x, eta, n=2001):
    """Formula-free oracle: sign changes of the tangency functional over the
    direction angle on [0, pi], two directions (d and -d) per change."""
    phis = np.linspace(0.0, np.pi, n)
    vals = np.array([tangency_value(axes, x, np.array([np.cos(p), np.sin(p)]), eta)
                     for p in phis])
    return 2 * int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))


class TestTangentDirections:
    @pytest.mark.parametrize("axes", [(2.0, 1.0), (1.0, 3.0), (0.5, 0.7)])
    def test_directions_are_tangent_and_counted(self, axes):
        rng = np.random.default_rng(25)
        a = np.asarray(axes)
        counts = set()
        for i in range(20):
            # boundary points see the interior caustic twice; interior points
            # may lie inside it and see none
            x = boundary_point(axes, rng.uniform(0.0, 2.0 * np.pi))
            if i % 2:
                x = x * rng.uniform(0.0, 1.0)
            eta = rng.uniform(0.05, 0.95) * a.min()
            dirs = tangent_directions(axes, x, eta)
            for d in dirs:
                assert abs(np.linalg.norm(d) - 1.0) < 1e-15
                assert abs(tangency_value(a, x, d, eta)) < 1e-12
            assert len(dirs) == tangent_count_by_scan(a, x, eta)
            counts.add(len(dirs))
        assert counts == {0, 4}

    def test_guards(self):
        with pytest.raises(PoleError):
            tangent_directions((2.0, 1.0), np.array([1.0, 0.5]), 1.0)
        with pytest.raises(DimensionError):
            tangent_directions((2.0, 1.0), np.array([1.0, 0.5, 0.1]), 0.5)


def caustic_by_scan(axes, x, y, lo, hi, n=40001):
    """Formula-free oracle: bisection on the tangency functional over eta."""
    grid = np.linspace(lo, hi, n)
    vals = []
    for eta in grid:
        try:
            vals.append(tangency_value(axes, x, y, float(eta)))
        except Exception:
            vals.append(np.nan)
    vals = np.array(vals)
    out = []
    for i in range(n - 1):
        if np.isnan(vals[i]) or np.isnan(vals[i + 1]):
            continue
        if vals[i] == 0.0:
            out.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            a_, b_ = grid[i], grid[i + 1]
            fa = vals[i]
            for _ in range(80):
                m = 0.5 * (a_ + b_)
                fm = tangency_value(axes, x, y, float(m))
                if fa * fm <= 0:
                    b_ = m
                else:
                    a_, fa = m, fm
            out.append(0.5 * (a_ + b_))
    return np.array(out)


class TestCausticsAndClosure:
    def test_planar_caustic_matches_scan_oracle(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 18)
        orb = run_orbit(spec, ImpactState(x, y), 30, with_lax=False)
        rep = orbit_caustics(spec, orb)
        assert rep["count_ok"] and rep["expected_count"] == 1
        # the caustic may be the interior ellipse (eta < 1) or the confocal
        # hyperbola (1 < eta < 2); scan both windows
        scan = np.concatenate([caustic_by_scan(spec.axes, x, y, -3.0, 0.999),
                               caustic_by_scan(spec.axes, x, y, 1.001, 1.999)])
        assert scan.size == 1
        np.testing.assert_allclose(rep["etas"], scan, atol=1e-7)

    def test_single_charge_adds_a_caustic(self):
        spec = BilliardSpec((2.0, 1.0), sigma=0.0, mu=(0.0, 0.3))
        assert expected_caustic_count(spec) == 2
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 19)
        orb = run_orbit(spec, ImpactState(x, y), 50, with_lax=False)
        rep = orbit_caustics(spec, orb)
        assert rep["count_ok"]
        assert rep["caustic_drift"] < 1e-7

    def test_forcing_adds_a_caustic(self):
        spec = BilliardSpec((2.0, 1.0), sigma=0.3)
        assert expected_caustic_count(spec) == 2
        x, y = random_impact_state(spec.axes, 0.3, spec.mu, 20, speed=1.4)
        orb = run_orbit(spec, ImpactState(x, y), 50, with_lax=False)
        rep = orbit_caustics(spec, orb)
        assert rep["count_ok"]
        assert rep["caustic_drift"] < 1e-7

    def test_every_segment_tangent_to_every_caustic(self):
        spec = BilliardSpec((2.0, 1.0, 0.6))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 21)
        orb = run_orbit(spec, ImpactState(x, y), 50, with_lax=False)
        rep = orbit_caustics(spec, orb)
        assert rep["tangency_max"] < 1e-8

    def test_axis_bouncing_two_periodic(self):
        spec = BilliardSpec((2.0, 1.0))
        s0 = ImpactState(np.array([np.sqrt(2.0), 0.0]), np.array([-1.0, 0.0]))
        det = poncelet_detect(spec, s0, 4, 1e-9)
        assert det["period"] == 2

    def test_triangle_orbit_and_companion_share_the_period(self):
        spec = BilliardSpec((2.0, 1.0))
        eta, s0 = find_planar_periodic_orbit(spec, 3)
        det = poncelet_detect(spec, s0, 12, 1e-6)
        assert det["period"] == 3 and det["closure_error"] < 1e-6
        for theta in (0.9, 2.5):
            comp = tangent_state(spec, eta, theta)
            det2 = poncelet_detect(spec, comp, 12, 1e-6)
            assert det2["period"] == 3, theta

    def test_aperiodic_orbit_reports_none(self):
        spec = BilliardSpec((2.0, 1.0))
        x, y = random_impact_state(spec.axes, 0.0, spec.mu, 22)
        det = poncelet_detect(spec, ImpactState(x, y), 10, 1e-8)
        assert det["period"] is None

    def test_small_transversality_approaches_boundary_flow(self):
        # halving the impact pairing shrinks the distance between the impact
        # points and a constrained trajectory on the boundary
        spec = BilliardSpec((2.0, 1.0, 0.6))
        a = spec.a
        x0 = np.array([np.sqrt(2.0) * np.cos(0.4) * np.cos(0.3),
                       np.cos(0.4) * np.sin(0.3), np.sqrt(0.6) * np.sin(0.4)])
        x0 = x0 / np.sqrt((x0 / a) @ x0)
        tangent = np.array([-0.2, 1.0, 0.4])
        n = x0 / a
        tangent -= ((tangent @ n) / (n @ n)) * n
        tangent /= np.linalg.norm(tangent)
        sysb = SystemSpec("jacobi", spec.axes, sigma=0.0)
        curve = integrate(sysb, PhaseState(x0, tangent), 3.0, 1e-3).x

        def orbit_distance(eps):
            y0 = tangent - eps * n / np.linalg.norm(n)
            orb = run_orbit(spec, ImpactState(x0, y0), 25, with_lax=False)
            pts = np.array([s.x for s in orb.impacts])
            return max(np.min(np.linalg.norm(curve - p, axis=1)) for p in pts)

        d = [orbit_distance(e) for e in (0.2, 0.1, 0.05)]
        assert d[0] > d[1] > d[2]

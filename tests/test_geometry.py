import numpy as np
import pytest

from confocal.billiard import BilliardSpec
from confocal.errors import DegenerateChartError, PoleError, SymmetricChartError
from confocal.geometry import EllipsoidSpec, EllipticCoords, elliptic_coords, tangency_value


def point_from_parameters(axes, ec):
    """Reference inverse chart, the product formula
    x_k^2 = prod_j (a_k - lam_j) / prod_(j != k) (a_k - a_j), signed by ec."""
    a = np.asarray(axes, dtype=float)
    lam = np.asarray(ec.lam)
    num = np.prod(a[:, None] - lam, axis=1)
    # eye turns the zero factor a_k - a_k into 1
    den = np.prod(a[:, None] - a + np.eye(a.size), axis=1)
    return np.asarray(ec.signs) * np.sqrt(num / den)


def bisect_confocal_roots(axes, x, iters=200):
    """Independent root finder: plain bisection of sum x_i^2/(a_i-t) = 1 on
    each interlacing interval, no derivative polish."""
    a = np.sort(np.asarray(axes, dtype=float))
    xsq = np.asarray(x, dtype=float) ** 2

    def f(t):
        with np.errstate(divide="ignore"):
            return (xsq / (np.asarray(axes) - t)).sum() - 1.0

    roots = []
    for k in range(a.size):
        lo = a[k] - (xsq.sum() + 1.0) if k == 0 else a[k - 1] + 1e-12
        hi = a[k] - 1e-12
        while f(hi) < 0:
            hi = 0.5 * (hi + a[k])
        if k > 0:
            while f(lo) > 0:
                lo = 0.5 * (lo + a[k - 1])
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if f(mid) >= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestEllipsoidSpec:
    def test_partition_groups_equal_axes(self):
        spec = EllipsoidSpec([1.5, 1.5, 2.0, 3.0, 2.0])
        assert spec.partition == ((0, 1), (2, 4), (3,))
        assert spec.is_symmetric
        assert spec.dim == 4

    def test_distinct_axes_partition_is_singletons(self):
        spec = EllipsoidSpec([1.0, 2.0, 3.0])
        assert spec.partition == ((0,), (1,), (2,))
        assert not spec.is_symmetric

    def test_rejects_nonpositive_axes(self):
        with pytest.raises(ValueError):
            EllipsoidSpec([1.0, -2.0])


class TestOnEllipsoid:
    def test_unit_circle_vertex(self):
        spec = BilliardSpec([1.0, 1.0])
        assert spec.boundary_residual([1.0, 0.0]) == 0.0

    def test_off_ellipsoid_value(self):
        spec = BilliardSpec([2.0, 1.0])
        # <A^-1 x, x> = 1/2 + 1 = 1.5
        assert spec.boundary_residual([1.0, 1.0]) == 0.5

    def test_point_from_elliptic_chart_lies_on_surface(self):
        spec = EllipsoidSpec([1.0, 2.0, 3.0])
        ec = EllipticCoords([0.0, 1.4, 2.6], [1, -1, 1])
        x = point_from_parameters(spec.axes, ec)
        assert abs((x / spec.a) @ x - 1.0) <= 1e-12


class TestEllipticCoords:
    def test_on_surface_first_coordinate_vanishes(self):
        spec = EllipsoidSpec([1.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=3)
            x /= np.sqrt((x / spec.a) @ x)
            ec = elliptic_coords(spec, x)
            assert abs(ec.lam[0]) < 1e-12

    def test_coordinate_hyperplane_rejected(self):
        spec = EllipsoidSpec([1.0, 2.0])
        with pytest.raises(DegenerateChartError):
            elliptic_coords(spec, [1.0, 0.0])

    def test_repeated_axes_rejected(self):
        spec = EllipsoidSpec([2.0, 2.0, 1.0])
        with pytest.raises(SymmetricChartError):
            elliptic_coords(spec, [0.5, 0.5, 0.5])

    def test_against_plain_bisection(self):
        spec = EllipsoidSpec([1.0, 2.0, 3.0])
        x = np.array([0.5, 0.5, 0.5])
        expected = bisect_confocal_roots(spec.axes, x)
        got = np.array(elliptic_coords(spec, x).lam)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_interlacing_random_battery(self):
        spec = EllipsoidSpec([0.7, 1.9, 3.1, 4.3])
        a = np.sort(spec.a)
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.normal(size=4)
            if np.any(x == 0.0):
                continue
            lam = np.array(elliptic_coords(spec, x).lam)
            assert lam[0] < a[0]
            for k in range(1, 4):
                assert a[k - 1] < lam[k] < a[k]
            np.testing.assert_allclose(lam, bisect_confocal_roots(spec.axes, x),
                                       rtol=0, atol=1e-12)

    def test_round_trip_through_cartesian(self):
        spec = EllipsoidSpec([1.0, 2.2, 3.1])
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.normal(size=3)
            if np.min(np.abs(x)) < 1e-3:
                continue
            x2 = point_from_parameters(spec.axes, elliptic_coords(spec, x))
            np.testing.assert_allclose(x2, x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_at_mixed_scales(self, seed):
        # each coordinate scaled by 1 to 1e-3 puts parameters within x_k^2
        # of their axes, where a_k - lam needs its relative accuracy
        spec = EllipsoidSpec([1.0, 2.2, 3.1])
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            x = rng.normal(size=3) * rng.choice([1.0, 1e-1, 1e-2, 1e-3], size=3)
            if np.min(np.abs(x)) < 1e-3:
                continue
            x2 = point_from_parameters(spec.axes, elliptic_coords(spec, x))
            np.testing.assert_allclose(x2, x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("x", [(1e-12, 0.3, 0.4), (1e-8, 1e-8, 1e-8)])
    def test_small_coordinates_interlace_strictly(self, x):
        # x_k^2 below one ulp of a_k: the parameter sits next to its axis
        a = (1.0, 2.2, 3.1)
        lam = elliptic_coords(EllipsoidSpec(a), x).lam
        assert lam[0] < a[0] < lam[1] < a[1] < lam[2] < a[2]

    def test_round_trip_through_parameters(self):
        spec = EllipsoidSpec([1.0, 2.0, 3.0])
        ec = EllipticCoords([0.3, 1.7, 2.2], [1, 1, -1])
        x = point_from_parameters(spec.axes, ec)
        ec2 = elliptic_coords(spec, x)
        np.testing.assert_allclose(ec2.lam, ec.lam, atol=1e-10)
        assert ec2.signs == ec.signs


def line_conic_discriminant(axes, x, y, eta):
    """Oracle: discriminant of the quadratic for line-conic intersection."""
    a = np.asarray(axes, dtype=float)
    A = (np.asarray(y) ** 2 / (a - eta)).sum()
    B = 2.0 * (np.asarray(x) * np.asarray(y) / (a - eta)).sum()
    C = (np.asarray(x) ** 2 / (a - eta)).sum() - 1.0
    return B * B - 4.0 * A * C


class TestTangencyValue:
    def test_zero_at_tangent_plane_direction(self):
        # x on the eta-quadric and y conjugate to x: the defining zero
        axes = np.array([2.0, 1.0])
        eta = 0.4
        x = np.array([np.sqrt(2.0 - eta), 0.0])
        y = np.array([0.0, 1.3])  # pole-form-orthogonal to x
        assert abs(tangency_value(axes, x, y, eta)) < 1e-14

    def test_matches_line_conic_discriminant(self):
        axes = np.array([2.0, 1.0])
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            eta = rng.uniform(-1.0, 0.9)
            disc = line_conic_discriminant(axes, x, y, eta)
            val = tangency_value(axes, x, y, eta)
            np.testing.assert_allclose(val, -disc / 4.0, rtol=1e-12, atol=1e-12)

    def test_sign_separates_secant_from_avoiding_lines(self):
        # sampling oracle: count intersections of the line with the conic
        axes = np.array([2.0, 1.0])
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=2) * 2.0
            y = rng.normal(size=2)
            eta = rng.uniform(-0.5, 0.8)
            ts = np.linspace(-40.0, 40.0, 30001)
            pts = x[None, :] + ts[:, None] * y[None, :]
            g = (pts**2 / (axes - eta)).sum(axis=1) - 1.0
            crossings = int(np.count_nonzero(np.diff(np.sign(g[g != 0]))))
            val = tangency_value(axes, x, y, eta)
            if abs(val) < 1e-8:
                continue
            if crossings >= 2:
                assert val < 0.0
            elif crossings == 0:
                assert val > 0.0

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            tangency_value([2.0, 1.0], [1.0, 0.0], [0.0, 1.0], 1.0 + 1e-15)


def test_tangency_far_parameter_asymptote():
    # eta * value -> <y, y> as eta grows (the family is empty out there, so
    # the sign matches the no-intersection side)
    axes = np.array([2.0, 1.0, 0.6])
    rng = np.random.default_rng(17)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    for eta in (1e5, 1e6):
        val = tangency_value(axes, x, y, eta)
        np.testing.assert_allclose(eta * val, y @ y, rtol=1e-4)

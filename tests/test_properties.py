"""Property tests: round trips of the two coordinate changes and the bounce
invariant, over inputs drawn by hypothesis.

`derandomize=True` makes every run draw the same examples, so the suite
stays reproducible; `deadline=None` keeps a slow host from failing a test.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confocal.billiard import BilliardSpec, ImpactState, impact_invariant, jr_step
from confocal.dynamics import torus_reconstruct, torus_reduce
from confocal.errors import GrazingOrSingularError, SingularAxisError
from confocal.geometry import EllipsoidSpec, coords_from_elliptic, elliptic_coords

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vectors(n, elements=coord):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[vectors(n)] * 4)))
def test_torus_reduce_then_reconstruct_returns_the_state(parts):
    zr, zi, pr, pi = parts
    z, p = zr + 1j * zi, pr + 1j * pi
    # a coordinate at the origin has no phase to recover
    assume(np.min(np.abs(z)) > 1e-3)
    zz, pp = torus_reconstruct(*torus_reduce(z, p))
    np.testing.assert_allclose(zz, z, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(z))))
    np.testing.assert_allclose(pp, p, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(p))))


@PROPERTY
@given(vectors(3))
def test_elliptic_coords_then_back_returns_the_point(x):
    spec = EllipsoidSpec([1.0, 2.0, 3.0])
    # the chart is singular on the coordinate hyperplanes
    assume(np.min(np.abs(x)) > 1e-2)
    ec = elliptic_coords(spec, x)
    np.testing.assert_allclose(coords_from_elliptic(spec, ec), x, rtol=1e-9, atol=1e-12)


@PROPERTY
@given(st.sampled_from([((2.0, 1.0), 0.0, ()), ((2.0, 1.0), -1.0, (0.0, 0.25)),
                        ((2.0, 1.0, 0.6), 0.3, ()),
                        ((2.0, 1.0, 0.6), -1.0, (0.3, 0.25, 0.2))]),
       vectors(3), vectors(3), st.integers(1, 20))
def test_jr_step_preserves_the_magnitude_of_J(case, x, y, bounces):
    axes, sigma, mu = case
    spec = BilliardSpec(axes, sigma=sigma, mu=mu)
    n = len(axes)
    x = x[:n].copy()
    # a charged coordinate stays positive
    x[spec.mu_arr != 0] = np.abs(x[spec.mu_arr != 0]) + 0.1
    assume(x @ x > 1e-2)
    x = x / np.sqrt((x / spec.a) @ x)
    s = ImpactState(x, y[:n])
    J0 = abs(impact_invariant(spec, s))
    assume(J0 > 1e-3)
    for _ in range(bounces):
        try:
            s = jr_step(spec, s)
        except (GrazingOrSingularError, SingularAxisError):
            assume(False)
        assert abs(abs(impact_invariant(spec, s)) - J0) <= 1e-9 * (1.0 + J0)

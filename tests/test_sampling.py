import numpy as np
import pytest

from confocal.dynamics import PhaseState, SystemSpec
from confocal.errors import SingularAxisError
from confocal.sampling import _MAX_DRAWS, _MIN_CHARGED, _random_double, _rng, random_state

# ---------------------------------------------------------------------------
# reference: random_state as it was written with one branch per kind, before
# the real and complex draws shared one draw-and-project path; the two must
# draw the same bytes
# ---------------------------------------------------------------------------


def random_state_reference(sys, seed_or_rng=0):
    rng = _rng(seed_or_rng)
    a = sys.a
    n1 = a.size
    kind = sys.kind
    if kind == "double_jacobi":
        return _random_double(sys, rng, invariant=False)
    if kind in ("complex_jacobi", "free_oscillator"):
        z = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        p = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        if kind == "free_oscillator":
            return PhaseState(z, p)
        z = z / np.sqrt(((z / a) @ np.conj(z)).real)
        den = ((z / a**2) @ np.conj(z)).real
        p = p - (((z / a) @ np.conj(p)).real / den) * z / a
        return PhaseState(z, p)
    nz = sys.mu_arr != 0
    for _ in range(_MAX_DRAWS):
        x = rng.normal(size=n1)
        x[nz] = np.abs(x[nz]) + _MIN_CHARGED
        y = rng.normal(size=n1)
        if kind == "free_jr":
            return PhaseState(x, y)
        x = x / np.sqrt((x / a) @ x)
        if not nz.any() or np.min(np.abs(x[nz])) >= 0.05:
            den = (x / a**2) @ x
            y = y - (((x / a) @ y) / den) * x / a
            return PhaseState(x, y)
    raise SingularAxisError("no draw keeps the charged coordinates off their axes")


# every kind, and the charged flow on the (2, 2) partition
SYSTEMS = [
    SystemSpec("jacobi", (1.0, 2.0, 3.0), sigma=0.5),
    SystemSpec("double_jacobi", (1.0, 2.0, 3.0), sigma=0.3),
    SystemSpec("complex_jacobi", (1.0, 2.0, 3.0), sigma=0.4),
    SystemSpec("jacobi_rosochatius", (1.0, 2.0, 3.0), sigma=0.4, mu=(0.2, 0.0, 0.3)),
    SystemSpec("jacobi_rosochatius", (1.3, 1.3, 2.9, 2.9), sigma=0.3,
               mu=(0.3, 0.2, 0.25, 0.15)),
    SystemSpec("separable_hierarchy", (1.0, 2.0, 3.0), sigmas=(0.5, -0.3),
               mu=(0.3, 0.0, 0.25)),
    SystemSpec("free_oscillator", (2.0, 1.0), sigma=4.0),
    SystemSpec("free_jr", (2.0, 1.0, 0.5), sigma=0.5, mu=(0.0, 0.3, 0.0)),
]


def state_bytes(s):
    return [None if v is None else (v.dtype.str, v.tobytes()) for v in (s.x, s.y, s.xi, s.eta)]


@pytest.mark.parametrize("sys", SYSTEMS, ids=[f"{s.kind}-{s.a.size}" for s in SYSTEMS])
def test_random_state_draws_the_reference_bytes(sys):
    for seed in range(32):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # three draws in sequence: the generator must also advance alike
        for _ in range(3):
            assert (state_bytes(random_state(sys, new))
                    == state_bytes(random_state_reference(sys, ref)))

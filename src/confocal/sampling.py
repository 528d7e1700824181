"""Seeded random states on the constraint sets of every system kind.

All draws use numpy's default bit generator (PCG64) through
np.random.default_rng, so a (seed, call-sequence) pair reproduces exactly.
"""

from __future__ import annotations

import numpy as np

from .billiard import ORACLE_T_MAX
from .dynamics import PhaseState, SystemSpec, _pair
from .errors import MultiplierSingularError, SingularAxisError

# keep charged coordinates comfortably away from their singular hyperplane
_MIN_CHARGED = 0.25
# attempts of a rejection draw before it gives up
_MAX_DRAWS = 1000


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_state(sys: SystemSpec, seed_or_rng=0) -> PhaseState:
    """One state satisfying the constraints of the system kind exactly."""
    rng = _rng(seed_or_rng)
    if sys.paired:
        return _random_double(sys, rng, invariant=False)
    a = sys.a

    def draw():
        v = rng.normal(size=a.size)
        return v + 1j * rng.normal(size=a.size) if sys.complex else v

    nz = sys.mu_arr != 0
    for _ in range(_MAX_DRAWS):
        x = draw()
        x[nz] = np.abs(x[nz]) + _MIN_CHARGED
        y = draw()
        if not sys.constrained:
            return PhaseState(x, y)
        x = x / np.sqrt(_pair(x / a, x))
        # redraw when the rescaling shrinks a charged entry
        if not nz.any() or np.min(np.abs(x[nz])) >= 0.05:
            y = y - (_pair(x / a, y) / _pair(x / a**2, x)) * x / a
            return PhaseState(x, y)
    raise SingularAxisError(f"no draw in {_MAX_DRAWS} keeps the charged "
                            "coordinates 0.05 off their axes")


def _random_double(sys: SystemSpec, rng, invariant: bool) -> PhaseState:
    a = sys.a
    n1 = a.size
    for _ in range(_MAX_DRAWS):
        x = rng.normal(size=n1)
        xi = rng.normal(size=n1)
        g = (x / a) @ xi
        if abs(g) <= 0.3 * np.sqrt(x @ x) * np.sqrt(xi @ xi) / float(np.max(a)):
            continue
        if g < 0:
            xi = -xi
            g = -g
        # split the normalization between the two positions: keeps both O(1)
        x = x / np.sqrt(g)
        xi = xi / np.sqrt(g)
        # the flow's multiplier denominator must stay away from zero
        if abs((x / a**2) @ xi) > 0.2 / float(np.max(a)):
            break
    else:
        raise MultiplierSingularError(f"no position draw in {_MAX_DRAWS} keeps the "
                                      "pairings of x and xi off zero")
    for _ in range(_MAX_DRAWS):
        y = rng.normal(size=n1)
        eta = rng.normal(size=n1)
        # zero each pairing with a norm-bounded correction (no division by
        # the small mutual pairing, which would inflate the momenta)
        u = x / a
        eta = eta - ((u @ eta) / (u @ u)) * u
        v = xi / a
        y = y - ((v @ y) / (v @ v)) * v
        if not invariant:
            # move off the defining variety while keeping the constraint:
            # opposite offsets cancel in the momentum pairing sum
            c = rng.uniform(-1.0, 1.0)
            y = y + c * v / (v @ v)
            eta = eta - c * u / (u @ u)
        # stay clear of the multiplier singularity, where the paired flow
        # blows up in finite time
        mult = ((y / a) @ eta - sys.sigma) / ((x / a**2) @ xi)
        if abs(mult) <= 8.0:
            return PhaseState(x, y, 0.0, xi, eta)
    raise MultiplierSingularError(f"no momentum draw in {_MAX_DRAWS} keeps the "
                                  "multiplier within 8")


def random_double_invariant_state(sys: SystemSpec, seed_or_rng=0) -> PhaseState:
    """Double-flow state on the variety where the large Lax pair is defined."""
    return _random_double(sys, _rng(seed_or_rng), invariant=True)


def random_impact_state(axes, sigma: float, mu, seed_or_rng=0, speed: float = 1.0):
    """Boundary point plus inward momentum for the billiard map.

    Charged coordinates are kept positive and away from zero; for sigma > 0
    the speed is raised until the kinetic energy at the farthest boundary
    point stays positive, so the orbit keeps returning to the boundary.  Any
    speed below 4 sqrt(max a) / ORACLE_T_MAX is raised to it, so that a free
    chord (at most 2 sqrt(max a) long) takes at most half the oracle's
    flight limit.
    """
    rng = _rng(seed_or_rng)
    a = np.asarray(axes, dtype=float)
    mu = np.asarray(mu, dtype=float) if len(np.atleast_1d(mu)) else np.zeros(a.size)
    nz = mu != 0
    for _ in range(_MAX_DRAWS):
        x = rng.normal(size=a.size)
        x[nz] = np.abs(x[nz]) + _MIN_CHARGED
        x = x / np.sqrt((x / a) @ x)
        if not nz.any() or np.min(np.abs(x[nz])) > 0.05:
            break
    else:
        raise SingularAxisError(f"no draw in {_MAX_DRAWS} keeps the charged "
                                "coordinates 0.05 off their axes")
    y = speed * rng.normal(size=a.size)
    if (x / a) @ y > 0:
        y = -y
    if sigma > 0:
        h = 0.5 * y @ y + 0.5 * sigma * x @ x
        if nz.any():
            h += 0.5 * ((mu[nz] / x[nz]) ** 2).sum()
        need = 0.5 * sigma * np.max(a) + 1e-3
        if h <= need:
            y = y * np.sqrt(2.0 * (need + 0.5) / (y @ y))
    floor = 4.0 * np.sqrt(np.max(a)) / ORACLE_T_MAX
    if y @ y < floor * floor:
        y = y * (floor / np.sqrt(y @ y))
    return x, y

"""Continuous flows on ellipsoids and their constraint-preserving integration.

System kinds and the structure `KIND_TABLE` states for each
-----------------------------------------------------------
kind                 ellipsoid complex (xi, eta) mu   sigmas  flow
jacobi               yes       no      no        no   no      -sigma x on <A^-1 x, x> = 1
double_jacobi        yes       no      yes       no   no      the paired flow on <x, A^-1 xi> = 1
complex_jacobi       yes       yes     no        no   no      jacobi on complex coordinates
jacobi_rosochatius   yes       no      no        yes  no      jacobi plus mu_k^2 / x_k^2
separable_hierarchy  yes       no      no        yes  yes     a polynomial potential, no sigma
free_oscillator      no        yes     no        no   no      z'' = -sigma z in free space
free_jr              no        no      no        yes  no      x'' = -sigma x + mu^2/x^3, free

`SystemSpec` sets the columns as the read-only attributes `constrained`,
`complex`, `paired`, `takes_charges` and `takes_weights`; other modules read
those, and a spec has weights exactly when `sigmas` is non-empty.  The
constrained unpaired kinds share one formula each for the constraints, the
energy, the right-hand side and the projection, written with the pairing
Re <u, conj(v)> (the dot product on real arrays); weights swap the Hooke
force for the gradient of their potential.

The integrator is a fixed-step classical Runge-Kutta scheme with a post-step
projection back onto the constraint set (position rescaled along A^-1 x by
two Newton iterations, momentum shifted along A^-1 x exactly).  `rhs`,
`rk4_step`, `project` and `integrate` run one kernel over plain Python floats
(`_Flow`), which on three or four coordinates costs less than numpy calls: a
complex state runs as the real flow on the (Re, Im) pair of each coordinate,
with its axis repeated, and the double flow on (x || xi, y || eta).  The
kernel keeps the array form's order of operations ((x / a^2) x summed in
coordinate order, -m x / a - sigma x and then + mu^2 / x^3 on charged
coordinates, (((s + h/6 k1) + 2h/6 k2) + 2h/6 k3) + h/6 k4), so results
move only in the last bits.  Float division by zero and an overflowing cube
raise SingularAxisError where numpy returned inf.  The double flow raises
MultiplierSingularError once <A^-2 x, xi> leaves the side it started on.

A trajectory is one stacked state: `integrate` returns a PhaseState whose
arrays (and t) carry a leading time axis, one row per stored state, each row
bit for bit what the kernel computed.  `constraint_residuals` and `energy`
broadcast over that axis; each row equals the call on that row's state bit
for bit.  `rhs`, `rk4_step` and `project` take one state.  A state with a
non-finite coordinate or residual fails the guards of `rhs` and `integrate`
(ConstraintError), and a non-finite projection fails `project`
(ProjectionError).
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintError,
    DimensionError,
    MultiplierSingularError,
    ProjectionError,
    ReductionSingularError,
    SingularAxisError,
)
from .geometry import EllipsoidSpec
from .potentials import _gradient_floats, hierarchy_potential


# the structure of each kind, as in the table of the module docstring
KindStructure = namedtuple("KindStructure",
                           "constrained complex paired takes_charges takes_weights")
KIND_TABLE = {
    "jacobi": KindStructure(True, False, False, False, False),
    "double_jacobi": KindStructure(True, False, True, False, False),
    "complex_jacobi": KindStructure(True, True, False, False, False),
    "jacobi_rosochatius": KindStructure(True, False, False, True, False),
    "separable_hierarchy": KindStructure(True, False, False, True, True),
    "free_oscillator": KindStructure(False, True, False, False, False),
    "free_jr": KindStructure(False, False, False, True, False),
}
KINDS = tuple(KIND_TABLE)

DEFAULT_CTOL = 1e-9


@dataclass
class PhaseState:
    """Position/momentum pair; the double flow carries a second pair (xi, eta).

    The arrays (and t) may carry a leading axis, one row per state: a stacked
    trajectory, as `integrate` returns, for the functions that broadcast
    over it.
    """

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        if (self.xi is None) != (self.eta is None):
            raise DimensionError("xi and eta must be given together")
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.xi is not None:
            self.xi = np.asarray(self.xi)
            self.eta = np.asarray(self.eta)
        if any(v.shape != self.x.shape for v in (self.y, self.xi, self.eta) if v is not None):
            raise DimensionError("y, xi and eta must have the shape of x")

    def copy(self) -> "PhaseState":
        return PhaseState(self.x.copy(), self.y.copy(), self.t,
                          None if self.xi is None else self.xi.copy(),
                          None if self.eta is None else self.eta.copy())


def _frozen_array(values) -> np.ndarray:
    """A float array that raises on any write."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemSpec:
    """Which flow to integrate, on which axes, with which force parameters."""

    kind: str
    axes: tuple[float, ...]
    sigma: float = 0.0
    sigmas: tuple[float, ...] = ()
    mu: tuple[float, ...] = ()

    def __init__(self, kind, axes, sigma=0.0, sigmas=(), mu=()):
        structure = KIND_TABLE.get(kind)
        if structure is None:
            raise ValueError(f"unknown system kind {kind!r}")
        ellipsoid = EllipsoidSpec(axes)
        axes = ellipsoid.axes
        mu = tuple(float(v) for v in mu) if len(mu) else ()
        if mu and len(mu) != len(axes):
            raise DimensionError("mu must match the axes length")
        if any(m < 0 for m in mu):
            raise ValueError("mu entries must be nonnegative")
        if any(mu) and not structure.takes_charges:
            raise ValueError(f"kind {kind!r} takes no charges")
        if structure.takes_weights:
            if len(sigmas) < 1:
                raise ValueError(f"kind {kind!r} needs at least one weight")
            if sigma != 0.0:
                raise ValueError(f"kind {kind!r} takes weights sigmas, not sigma")
        elif len(sigmas):
            raise ValueError(f"kind {kind!r} takes sigma, not weights sigmas")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))
        object.__setattr__(self, "mu", mu)
        # structure, partition and read-only arrays, built once; not dataclass
        # fields, so __eq__ and __hash__ still compare the fields only
        for name, value in structure._asdict().items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "ellipsoid", ellipsoid)
        object.__setattr__(self, "a", _frozen_array(axes))
        object.__setattr__(self, "mu_arr", _frozen_array(mu or np.zeros(len(axes))))


# ---------------------------------------------------------------------------
# constraints and energy
# ---------------------------------------------------------------------------

def _pair(u: np.ndarray, v: np.ndarray):
    """Re <u, conj(v)> over the last axis: the dot product on real arrays.

    vecdot(v, u) sums conj(v) u; each row of a stack equals the 1-d
    `u @ v.conj()` of that row bit for bit (tests/test_lax.py checks this on
    random real and complex rows, and the energy, residuals and integrals
    against their one-state formulas).  np.vecdot needs numpy 2.0.
    """
    return np.vecdot(v, u).real


def constraint_residuals(sys: SystemSpec, s: PhaseState) -> np.ndarray:
    """Residuals of the defining constraints; empty for free-space kinds.

    Broadcasts over a leading axis of the state's arrays (one row per state).
    """
    a = sys.a
    if sys.paired:
        g1 = np.vecdot(s.x / a, s.xi) - 1.0
        g2 = np.vecdot(s.y / a, s.xi) + np.vecdot(s.x / a, s.eta)
        return np.stack([g1, g2], axis=-1)
    if sys.constrained:
        return np.stack([_pair(s.x / a, s.x) - 1.0, _pair(s.x / a, s.y)], axis=-1)
    return np.zeros(s.x.shape[:-1] + (0,))


def energy(sys: SystemSpec, s: PhaseState) -> float | np.ndarray:
    """Hamiltonian of the flow at a state: a float, or one per row of a
    state whose arrays carry a leading axis."""
    if sys.paired:
        return np.vecdot(s.y, s.eta) + sys.sigma * np.vecdot(s.x, s.xi)
    mu = sys.mu_arr
    kin = 0.5 * _pair(s.y, s.y)
    if sys.sigmas:
        return kin + hierarchy_potential(sys.a, s.x, sys.sigmas, mu)
    pot = 0.5 * sys.sigma * _pair(s.x, s.x)
    nz = mu != 0
    if nz.any():
        pot = pot + 0.5 * (mu[nz] ** 2 / s.x[..., nz] ** 2).sum(axis=-1)
    return kin + pot


def _check_state(sys: SystemSpec, s: PhaseState, ctol: float) -> None:
    if not all(np.isfinite(v).all() for v in (s.x, s.y, s.xi, s.eta) if v is not None):
        raise ConstraintError("state has a non-finite coordinate")
    res = constraint_residuals(sys, s)
    # written so that a NaN residual fails it
    if res.size and not np.max(np.abs(res)) <= ctol:
        raise ConstraintError(f"constraint residuals {res} exceed ctol={ctol}")
    if any(sys.mu) and np.any(np.abs(s.x[sys.mu_arr != 0]) < 1e-9):
        raise SingularAxisError("coordinate with nonzero charge too close to zero")


def _mu_over_x(sys: SystemSpec, x: np.ndarray) -> np.ndarray:
    mu = sys.mu_arr
    out = np.zeros(x.shape)
    nz = mu != 0
    out[..., nz] = mu[nz] / x[..., nz]
    return out


# ---------------------------------------------------------------------------
# the float kernel
# ---------------------------------------------------------------------------

def _wdot(u: list, a: list, v: list) -> float:
    """sum_j (u_j / a_j) v_j in coordinate order: numpy's (u / a) @ v."""
    tot = 0.0
    for uj, aj, vj in zip(u, a, v):
        tot += uj / aj * vj
    return tot


class _Flow:
    """The flow of one system over flat lists of Python floats.

    A state packs into positions q and momenta p: a real state as it is, a
    complex one as the (Re, Im) pair of each coordinate with its axis
    repeated, the double flow as x || xi and y || eta.  The velocity is p,
    the acceleration `accel(q, p)`.
    """

    def __init__(self, sys: SystemSpec, s: PhaseState):
        self.cplx = np.iscomplexobj(s.x)
        self.double = sys.paired
        self.hierarchy = bool(sys.sigmas)
        self.charged = [(j, m) for j, m in enumerate(sys.mu) if m != 0.0]
        if self.cplx and (self.double or self.hierarchy or self.charged):
            raise ValueError("complex states run on the chargeless Hooke and free flows only")
        self.n = len(sys.axes)
        self.a = [v for v in sys.axes for _ in (0, 1)] if self.cplx else list(sys.axes)
        self.a2 = [v * v for v in self.a]
        self.sig, self.sigmas = sys.sigma, sys.sigmas
        if self.double:
            # the side of the multiplier pole <A^-2 x, xi> = 0 the flow starts on
            self.side = math.copysign(1.0, _wdot(s.x.tolist(), self.a2, s.xi.tolist()))
        self.accel = (self._double if self.double else
                      self._constrained if sys.constrained else self._free)

    def pack(self, s: PhaseState) -> tuple[list, list]:
        if self.double:
            return s.x.tolist() + s.xi.tolist(), s.y.tolist() + s.eta.tolist()
        if self.cplx:
            return (np.asarray(s.x, dtype=complex).view(float).tolist(),
                    np.asarray(s.y, dtype=complex).view(float).tolist())
        return s.x.tolist(), s.y.tolist()

    def unpack(self, q: list, p: list, t) -> PhaseState:
        """The state of packed lists; lists of them give a stacked state."""
        q, p = np.array(q), np.array(p)
        if self.double:
            n = self.n
            return PhaseState(q[..., :n], p[..., :n], t, q[..., n:], p[..., n:])
        if self.cplx:
            return PhaseState(q.view(complex), p.view(complex), t)
        return PhaseState(q, p, t)

    def _constrained(self, x: list, y: list) -> list:
        a, sig, charged = self.a, self.sig, self.charged
        den = kin = 0.0
        for xj, yj, aj, a2j in zip(x, y, a, self.a2):
            den += xj / a2j * xj
            kin += yj / aj * yj
        if abs(den) < 1e-14:
            raise MultiplierSingularError("multiplier denominator vanished")
        if self.hierarchy:  # the potential's gradient replaces the Hooke force
            g = _gradient_floats(a, x, self.sigmas, charged)
            m = (kin - _wdot(g, a, x)) / den
            return [-m * xj / aj - gj for xj, aj, gj in zip(x, a, g)]
        if charged:
            extra = 0.0
            for j, mu in charged:
                w = mu / x[j]
                extra += w / a[j] * w
            kin = kin + extra
        m = (kin - sig) / den
        f = [-m * xj / aj - sig * xj for xj, aj in zip(x, a)]
        for j, mu in charged:
            f[j] = f[j] + mu * mu / x[j] ** 3
        return f

    def _double(self, q: list, p: list) -> list:
        a, n, sig = self.a, self.n, self.sig
        den = _wdot(q[:n], self.a2, q[n:])
        if den * self.side < 1e-14:
            raise MultiplierSingularError("multiplier denominator vanished or changed sign")
        m = (_wdot(p[:n], a, p[n:]) - sig) / den
        return [-m * v / aj - sig * v for v, aj in zip(q, a + a)]

    def _free(self, x: list, y: list) -> list:
        f = [-self.sig * v for v in x]
        for j, mu in self.charged:
            if abs(x[j]) < 1e-9:
                raise SingularAxisError("coordinate with nonzero charge too close to zero")
            f[j] = f[j] + mu * mu / x[j] ** 3
        return f

    def step(self, q: list, p: list, t: float, h: float) -> tuple[list, list, float]:
        """One classical RK4 step, (((s + h/6 k1) + 2h/6 k2) + 2h/6 k3) + h/6 k4."""
        acc, c = self.accel, 0.5 * h
        k1 = acc(q, p)
        q2, p2 = [u + c * v for u, v in zip(q, p)], [u + c * v for u, v in zip(p, k1)]
        k2 = acc(q2, p2)
        q3, p3 = [u + c * v for u, v in zip(q, p2)], [u + c * v for u, v in zip(p, k2)]
        k3 = acc(q3, p3)
        q4, p4 = [u + h * v for u, v in zip(q, p3)], [u + h * v for u, v in zip(p, k3)]
        k4 = acc(q4, p4)
        c1, c2 = h / 6.0, 2.0 * h / 6.0
        return ([(((u + c1 * v1) + c2 * v2) + c2 * v3) + c1 * v4
                 for u, v1, v2, v3, v4 in zip(q, p, p2, p3, p4)],
                [(((u + c1 * v1) + c2 * v2) + c2 * v3) + c1 * v4
                 for u, v1, v2, v3, v4 in zip(p, k1, k2, k3, k4)],
                (((t + c1) + c2) + c2) + c1)

    def project(self, q: list, p: list, ctol: float) -> tuple[list, list]:
        """Two Newton steps along A^-1 x, then the exact momentum shift."""
        a, a2 = self.a, self.a2
        if self.double:
            n = self.n
            x, xi, y, eta = q[:n], q[n:], p[:n], p[n:]
            for _ in range(2):
                c = -(_wdot(x, a, xi) - 1.0) / (_wdot(x, a2, x) + _wdot(xi, a2, xi))
                x, xi = ([u + c * v / aj for u, v, aj in zip(x, xi, a)],
                         [v + c * u / aj for u, v, aj in zip(x, xi, a)])
            c = -(_wdot(y, a, xi) + _wdot(x, a, eta)) / (2.0 * _wdot(x, a2, xi))
            y = [v + c * u / aj for u, v, aj in zip(x, y, a)]
            eta = [v + c * u / aj for u, v, aj in zip(xi, eta, a)]
            res = (_wdot(x, a, xi) - 1.0, _wdot(y, a, xi) + _wdot(x, a, eta))
            q, p = x + xi, y + eta
        else:
            for _ in range(2):
                c = -(_wdot(q, a, q) - 1.0) / (2.0 * _wdot(q, a2, q))
                q = [u + c * u / aj for u, aj in zip(q, a)]
            c = -_wdot(q, a, p) / _wdot(q, a2, q)
            p = [v + c * u / aj for u, v, aj in zip(q, p, a)]
            res = (_wdot(q, a, q) - 1.0, _wdot(q, a, p))
        if not (abs(res[0]) <= ctol and abs(res[1]) <= ctol):  # NaN fails too
            raise ProjectionError(f"projection left residuals {np.array(res)} above ctol={ctol}")
        return q, p


@contextmanager
def _singular_as_axis_error():
    """Floats raise on mu/0.0 and on an overflowing cube, where numpy gave inf."""
    try:
        yield
    except (ZeroDivisionError, OverflowError) as exc:
        raise SingularAxisError("charged coordinate reached its axis") from exc


# ---------------------------------------------------------------------------
# right-hand side and integration
# ---------------------------------------------------------------------------

def rhs(sys: SystemSpec, s: PhaseState) -> PhaseState:
    """Time derivative of the state, packaged in the same container.

    Raises ConstraintError for a state off the constraint set by more than
    DEFAULT_CTOL or with a non-finite coordinate.
    """
    _check_state(sys, s, DEFAULT_CTOL)
    flow = _Flow(sys, s)
    q, p = flow.pack(s)
    with _singular_as_axis_error():
        return flow.unpack(p, flow.accel(q, p), 1.0)


def rk4_step(sys: SystemSpec, s: PhaseState, h: float) -> PhaseState:
    """One classical fourth-order step (no projection)."""
    flow = _Flow(sys, s)
    with _singular_as_axis_error():
        return flow.unpack(*flow.step(*flow.pack(s), s.t, h))


def project(sys: SystemSpec, s: PhaseState) -> PhaseState:
    """Pull a nearby state back onto the constraint set.

    Positions are corrected along A^-1 x (Newton on the quadratic constraint);
    momenta are then shifted along A^-1 x, which solves the linear constraint
    exactly.  Raises ProjectionError if the residuals still exceed
    DEFAULT_CTOL or are not finite.
    """
    if not sys.constrained:
        return s
    flow = _Flow(sys, s)
    with _singular_as_axis_error():
        return flow.unpack(*flow.project(*flow.pack(s), DEFAULT_CTOL), s.t)


def integrate(sys: SystemSpec, s0: PhaseState, T: float, h: float,
              ctol: float = DEFAULT_CTOL) -> PhaseState:
    """Trajectory of the flow from s0 over time T with fixed step h.

    The N = max(1, round(T/h)) steps have length T/N, so a T below h takes
    one step of length T.  Returns one stacked state: its arrays have shape
    (N + 1, n) and its t shape (N + 1,), one row per time, row 0 equal to
    s0.  Every row satisfies the constraints to ctol.  Raises ValueError for
    h <= 0 and for a T that is not finite or is <= 0.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"duration T must be finite and positive, got {T!r}")
    _check_state(sys, s0, ctol)
    n = max(1, int(round(T / h)))
    h_eff = T / n  # land exactly on T
    flow = _Flow(sys, s0)
    proj = sys.constrained
    q, p = flow.pack(s0)
    t = s0.t
    rows = [(q, p, t)]
    with _singular_as_axis_error():
        for _ in range(n):
            q, p, t = flow.step(q, p, t, h_eff)
            if proj:
                q, p = flow.project(q, p, ctol)
            rows.append((q, p, t))
    qs, ps, ts = zip(*rows)
    return flow.unpack(qs, ps, np.array(ts))


# ---------------------------------------------------------------------------
# torus reduction
# ---------------------------------------------------------------------------

def torus_reduce(z, p):
    """Split complex phase coordinates into radial data and angular charges.

    Returns (x, y, mu, phases) with x_k = |z_k|, mu_k = Im(conj(z_k) p_k),
    phases_k = arg z_k and y_k the radial momentum, so that
    z_k = x_k e^{i phi_k} and p_k = (y_k + i mu_k / x_k) e^{i phi_k}.
    """
    z = np.asarray(z, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if z.shape != p.shape:
        raise DimensionError("z and p must have equal shapes")
    x = np.abs(z)
    mu = (np.conj(z) * p).imag
    scale = max(1.0, float(np.max(x)))
    phases = np.zeros(z.size)
    y = np.zeros(z.size)
    for k in range(z.size):
        if x[k] <= 1e-13 * scale:
            if abs(mu[k]) > 1e-12:
                raise ReductionSingularError(f"zero coordinate {k} carries charge {mu[k]}")
            phases[k] = np.angle(p[k]) if p[k] != 0 else 0.0
            y[k] = abs(p[k])
        else:
            phases[k] = np.angle(z[k])
            y[k] = (p[k] * np.exp(-1j * phases[k])).real
    return x, y, mu, phases


# ---------------------------------------------------------------------------
# Dirac tensor
# ---------------------------------------------------------------------------

def dirac_tensor(axes, s: PhaseState) -> np.ndarray:
    """Coordinate table of the constrained Poisson structure at a state.

    Returns the antisymmetric 2(n+1) x 2(n+1) matrix W with blocks
    {x_i, x_j} = 0, {x_i, y_j} = delta_ij - x_i x_j / (a_i a_j <A^-2 x, x>),
    {y_i, y_j} = -(x_i y_j - x_j y_i) / (a_i a_j <A^-2 x, x>).
    """
    a = np.asarray(axes, dtype=float)
    x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
    den = (x / a**2) @ x
    n1 = a.size
    C = np.eye(n1) - np.outer(x / a, x / a) / den
    D = -(np.outer(x, y) - np.outer(y, x)) / np.outer(a, a) / den
    W = np.zeros((2 * n1, 2 * n1))
    W[:n1, n1:] = C
    W[n1:, :n1] = -C.T
    W[n1:, n1:] = D
    return W


def fd_gradient(func, s: PhaseState) -> np.ndarray:
    """Central-difference phase-space gradient of func(state).

    Coordinate k of z = (x, y) steps by h_k = 1e-6 (1 + |z_k|).  func is
    called once, on one stacked state of 4(n+1) rows: z + h_k e_k for every
    k, then z - h_k e_k; it must broadcast over that leading axis, as
    `integral_family` does.  Row k of the result is the difference of the
    two values over 2 h_k.  A scalar func gives shape (2(n+1),); a
    vector-valued one (values on the last axis) one row per coordinate.
    """
    m = 2 * s.x.size
    z = np.concatenate([s.x, s.y])
    h = 1e-6 * (1.0 + np.abs(z))
    zs = np.tile(z, (2 * m, 1))
    k = np.arange(m)
    zs[k, k] += h
    zs[m + k, k] -= h
    extra = [None if v is None else np.tile(v, (2 * m, 1)) for v in (s.xi, s.eta)]
    f = np.asarray(func(PhaseState(zs[:, :m // 2], zs[:, m // 2:], s.t, *extra)))
    return (f[:m] - f[m:]) / (2.0 * h).reshape((m,) + (1,) * (f.ndim - 1))

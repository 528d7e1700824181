"""Continuous flows on ellipsoids and their constraint-preserving integration.

System kinds
------------
jacobi               motion on <A^-1 x, x> = 1 under the force -sigma x
double_jacobi        the paired flow (x, xi, y, eta) on <x, A^-1 xi> = 1
complex_jacobi       the same motion with complex coordinates (odd-dim ellipsoid)
jacobi_rosochatius   jacobi plus inverse-square terms mu_k^2 / x_k^2
separable_hierarchy  jacobi_rosochatius with polynomial potential weights
free_oscillator      z'' = -sigma z in free (complex) space, no constraint
free_jr              x'' = -sigma x + mu^2/x^3 in free real space

jacobi, complex_jacobi, jacobi_rosochatius and separable_hierarchy share one
formula each for the constraints, the energy, the right-hand side and the
projection, written with the pairing Re <u, conj(v)> (the plain dot product
on real arrays): jacobi is the chargeless case, complex_jacobi the same flow
on complex coordinates, and the hierarchy swaps the Hooke force for the
gradient of its potential.  double_jacobi has its own formulas, and the two
free kinds share one.  Only jacobi_rosochatius, separable_hierarchy and
free_jr take charges.

The integrator is a fixed-step classical Runge-Kutta scheme with a post-step
projection back onto the constraint set (position rescaled along A^-1 x by
two Newton iterations, momentum shifted along A^-1 x exactly).
"""

from __future__ import annotations

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
from .potentials import hierarchy_gradient, hierarchy_potential

CONSTRAINED_KINDS = ("jacobi", "double_jacobi", "complex_jacobi",
                     "jacobi_rosochatius", "separable_hierarchy")
FREE_KINDS = ("free_oscillator", "free_jr")
KINDS = CONSTRAINED_KINDS + FREE_KINDS
_CHARGED_KINDS = ("jacobi_rosochatius", "separable_hierarchy", "free_jr")

DEFAULT_CTOL = 1e-9


@dataclass
class PhaseState:
    """Position/momentum pair; the double flow carries a second pair (xi, eta)."""

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.x.shape != self.y.shape:
            raise DimensionError("x and y must have equal shapes")
        if self.xi is not None:
            self.xi = np.asarray(self.xi)
            self.eta = np.asarray(self.eta)

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
        if kind not in KINDS:
            raise ValueError(f"unknown system kind {kind!r}")
        axes = tuple(float(v) for v in np.asarray(axes, dtype=float))
        mu = tuple(float(v) for v in mu) if len(mu) else ()
        if mu and len(mu) != len(axes):
            raise DimensionError("mu must match the axes length")
        if any(m < 0 for m in mu):
            raise ValueError("mu entries must be nonnegative")
        if any(mu) and kind not in _CHARGED_KINDS:
            raise ValueError(f"kind {kind!r} takes no charges")
        if kind == "separable_hierarchy" and len(sigmas) < 1:
            raise ValueError("separable_hierarchy needs at least one weight")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))
        object.__setattr__(self, "mu", mu)
        # read-only arrays built once; not dataclass fields, so __eq__ and
        # __hash__ still compare the fields only
        object.__setattr__(self, "a", _frozen_array(axes))
        object.__setattr__(self, "mu_arr", _frozen_array(mu or np.zeros(len(axes))))

    @property
    def constrained(self) -> bool:
        return self.kind in CONSTRAINED_KINDS

    def ellipsoid(self) -> EllipsoidSpec:
        return EllipsoidSpec(self.axes)


# ---------------------------------------------------------------------------
# constraints and energy
# ---------------------------------------------------------------------------

def _pair(u: np.ndarray, v: np.ndarray):
    """Re <u, conj(v)>: the dot product on real arrays, whose conj() is a no-op."""
    return (u @ v.conj()).real


def constraint_residuals(sys: SystemSpec, s: PhaseState) -> np.ndarray:
    """Residuals of the defining constraints; empty for free-space kinds."""
    a = sys.a
    if sys.kind == "double_jacobi":
        g1 = (s.x / a) @ s.xi - 1.0
        g2 = (s.y / a) @ s.xi + (s.x / a) @ s.eta
        return np.array([g1, g2])
    if sys.constrained:
        return np.array([_pair(s.x / a, s.x) - 1.0, _pair(s.x / a, s.y)])
    return np.zeros(0)


def energy(sys: SystemSpec, s: PhaseState) -> float:
    """Hamiltonian of the flow at a state."""
    if sys.kind == "double_jacobi":
        return float(s.y @ s.eta + sys.sigma * (s.x @ s.xi))
    mu = sys.mu_arr
    kin = 0.5 * float(_pair(s.y, s.y))
    if sys.kind == "separable_hierarchy":
        return kin + hierarchy_potential(sys.a, s.x, sys.sigmas, mu)
    pot = 0.5 * sys.sigma * float(_pair(s.x, s.x))
    nz = mu != 0
    if nz.any():
        pot += 0.5 * float((mu[nz] ** 2 / s.x[nz] ** 2).sum())
    return kin + pot


def _check_state(sys: SystemSpec, s: PhaseState, ctol: float) -> None:
    res = constraint_residuals(sys, s)
    if res.size and np.max(np.abs(res)) > ctol:
        raise ConstraintError(f"constraint residuals {res} exceed ctol={ctol}")
    _check_charged(sys, s.x)


def _check_charged(sys: SystemSpec, x: np.ndarray) -> None:
    if any(sys.mu) and np.any(np.abs(x[sys.mu_arr != 0]) < 1e-9):
        raise SingularAxisError("coordinate with nonzero charge too close to zero")


def _mu_over_x(sys: SystemSpec, x: np.ndarray) -> np.ndarray:
    mu = sys.mu_arr
    out = np.zeros_like(mu)
    nz = mu != 0
    out[nz] = mu[nz] / x[nz]
    return out


def _charge_force(sys: SystemSpec, x: np.ndarray) -> np.ndarray:
    """The inverse-square force mu^2 / x^3, zero on chargeless coordinates."""
    mu = sys.mu_arr
    nz = mu != 0
    out = np.zeros_like(x)
    out[nz] = mu[nz] ** 2 / x[nz] ** 3
    return out


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def rhs(sys: SystemSpec, s: PhaseState, ctol: float = DEFAULT_CTOL,
        check: bool = True) -> PhaseState:
    """Time derivative of the state, packaged in the same container."""
    if check:
        _check_state(sys, s, ctol)
    a = sys.a
    if sys.kind == "double_jacobi":
        den = (s.x / a**2) @ s.xi
        if abs(den) < 1e-14:
            raise MultiplierSingularError("multiplier denominator vanished")
        m = ((s.y / a) @ s.eta - sys.sigma) / den
        return PhaseState(s.y, -m * s.x / a - sys.sigma * s.x, 1.0,
                          s.eta, -m * s.xi / a - sys.sigma * s.xi)
    if not sys.constrained:
        _check_charged(sys, s.x)
        return PhaseState(s.y, -sys.sigma * s.x + _charge_force(sys, s.x), 1.0)
    den = _pair(s.x / a**2, s.x)
    if abs(den) < 1e-14:
        raise MultiplierSingularError("multiplier denominator vanished")
    kin = _pair(s.y / a, s.y)
    if sys.kind == "separable_hierarchy":
        grad = hierarchy_gradient(a, s.x, sys.sigmas, sys.mu_arr)
        m = (kin - (grad / a) @ s.x) / den
        return PhaseState(s.y, -m * s.x / a - grad, 1.0)
    charged = any(sys.mu)
    if charged:
        w = _mu_over_x(sys, s.x)
        kin = kin + (w / a) @ w
    m = (kin - sys.sigma) / den
    force = -m * s.x / a - sys.sigma * s.x
    if charged:
        force = force + _charge_force(sys, s.x)
    return PhaseState(s.y, force, 1.0)


def reparametrized_rhs(sys: SystemSpec, s: PhaseState, ctol: float = DEFAULT_CTOL) -> PhaseState:
    """Right-hand side of the double flow in the rescaled time d tau = dt / <A^-2 x, xi>."""
    if sys.kind != "double_jacobi":
        raise ValueError("reparametrized form exists for the double flow only")
    v = rhs(sys, s, ctol)
    fac = (s.x / sys.a**2) @ s.xi
    return PhaseState(fac * v.x, fac * v.y, fac, fac * v.xi, fac * v.eta)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _axpy(s: PhaseState, c: float, v: PhaseState) -> PhaseState:
    if s.xi is None:
        return PhaseState(s.x + c * v.x, s.y + c * v.y, s.t + c * v.t)
    return PhaseState(s.x + c * v.x, s.y + c * v.y, s.t + c * v.t,
                      s.xi + c * v.xi, s.eta + c * v.eta)


def rk4_step(sys: SystemSpec, s: PhaseState, h: float, ctol: float = DEFAULT_CTOL,
             check: bool = False) -> PhaseState:
    """One classical fourth-order step (no projection)."""
    k1 = rhs(sys, s, ctol, check=check)
    k2 = rhs(sys, _axpy(s, 0.5 * h, k1), ctol, check=False)
    k3 = rhs(sys, _axpy(s, 0.5 * h, k2), ctol, check=False)
    k4 = rhs(sys, _axpy(s, h, k3), ctol, check=False)
    out = s.copy()
    for k, w in ((k1, 1.0), (k2, 2.0), (k3, 2.0), (k4, 1.0)):
        out = _axpy(out, w * h / 6.0, k)
    return out


def project(sys: SystemSpec, s: PhaseState, ctol: float = DEFAULT_CTOL,
            newton_iters: int = 2) -> PhaseState:
    """Pull a nearby state back onto the constraint set.

    Positions are corrected along A^-1 x (Newton on the quadratic constraint);
    momenta are then shifted along A^-1 x, which solves the linear constraint
    exactly.  Raises if the residuals still exceed ctol.
    """
    if not sys.constrained:
        return s
    a = sys.a
    s = s.copy()
    if sys.kind == "double_jacobi":
        for _ in range(newton_iters):
            g1 = (s.x / a) @ s.xi - 1.0
            d = (s.x / a**2) @ s.x + (s.xi / a**2) @ s.xi
            c = -g1 / d
            s.x, s.xi = s.x + c * s.xi / a, s.xi + c * s.x / a
        den = (s.x / a**2) @ s.xi
        g2 = (s.y / a) @ s.xi + (s.x / a) @ s.eta
        c = -g2 / (2.0 * den)
        s.y = s.y + c * s.x / a
        s.eta = s.eta + c * s.xi / a
    else:
        for _ in range(newton_iters):
            f1 = _pair(s.x / a, s.x) - 1.0
            d = 2.0 * _pair(s.x / a**2, s.x)
            s.x = s.x + (-f1 / d) * s.x / a
        den = _pair(s.x / a**2, s.x)
        s.y = s.y + (-_pair(s.x / a, s.y) / den) * s.x / a
    res = constraint_residuals(sys, s)
    if np.max(np.abs(res)) > ctol:
        raise ProjectionError(f"projection left residuals {res} above ctol={ctol}")
    return s


def integrate(sys: SystemSpec, s0: PhaseState, T: float, h: float,
              ctol: float = DEFAULT_CTOL, project_steps: bool = True) -> list[PhaseState]:
    """Trajectory of the flow from s0 over time T with fixed step h.

    Every stored state satisfies the constraints to ctol; the returned list
    includes the initial state and has round(T/h) + 1 entries.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    _check_state(sys, s0, ctol)
    n = max(1, int(round(T / h)))
    h_eff = T / n  # land exactly on T
    out = [s0.copy()]
    s = s0.copy()
    for _ in range(n):
        s = rk4_step(sys, s, h_eff, ctol)
        if project_steps and sys.constrained:
            s = project(sys, s, ctol)
        out.append(s.copy())
    return out


# ---------------------------------------------------------------------------
# torus reduction
# ---------------------------------------------------------------------------

def torus_reduce(z, p, tol: float = 1e-13):
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
        if x[k] <= tol * scale:
            if abs(mu[k]) > 1e-12:
                raise ReductionSingularError(f"zero coordinate {k} carries charge {mu[k]}")
            phases[k] = np.angle(p[k]) if p[k] != 0 else 0.0
            y[k] = abs(p[k])
        else:
            phases[k] = np.angle(z[k])
            y[k] = (p[k] * np.exp(-1j * phases[k])).real
    return x, y, mu, phases


def torus_reconstruct(x, y, mu, phases):
    """Inverse of `torus_reduce` on its image."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    ph = np.exp(1j * np.asarray(phases, dtype=float))
    rad = np.zeros_like(x)
    nz = x != 0
    rad[nz] = mu[nz] / x[nz]
    return x * ph, (y + 1j * rad) * ph


# ---------------------------------------------------------------------------
# Dirac bracket
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


def fd_gradient(func, s: PhaseState, rel: float = 1e-6) -> np.ndarray:
    """Central-difference phase-space gradient of func(state).

    Step per coordinate is rel * (1 + |coordinate|).  A scalar func gives
    shape (2(n+1),); a vector-valued one gives one row per coordinate.
    """
    rows = []
    for which in ("x", "y"):
        for i in range(s.x.size):
            h = rel * (1.0 + abs(float(getattr(s, which)[i])))
            sp, sm = s.copy(), s.copy()
            getattr(sp, which)[i] += h
            getattr(sm, which)[i] -= h
            rows.append(np.subtract(func(sp), func(sm)) / (2 * h))
    return np.array(rows)


def dirac_bracket(axes, f, g, s: PhaseState, ctol: float = DEFAULT_CTOL,
                  grad_f=None, grad_g=None) -> float:
    """Constrained Poisson bracket {f, g} of two scalar observables at a state.

    f and g are evaluators of a PhaseState; their gradients default to central
    differences (see `fd_gradient`) but analytic gradients of shape (2(n+1),)
    may be supplied.
    """
    a = np.asarray(axes, dtype=float)
    res_x = abs((s.x / a) @ s.x - 1.0)
    res_y = abs((s.x / a) @ s.y)
    if max(res_x, res_y) > ctol:
        raise ConstraintError("state is off the constraint set")
    gf = grad_f if grad_f is not None else fd_gradient(f, s)
    gg = grad_g if grad_g is not None else fd_gradient(g, s)
    return float(gf @ dirac_tensor(a, s) @ gg)

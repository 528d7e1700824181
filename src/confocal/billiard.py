"""Billiards inside an ellipsoid with elastic and inverse-square forcing.

Between impacts a point follows x'' = -sigma x + mu^2/x^3 (componentwise);
at the boundary <x, a^-1 x> = 1 the momentum reflects elastically.  The
bounce-to-bounce map is explicit: it is the real reduction of the complex
harmonic-oscillator billiard map, with the coordinates carrying a charge
mu_j != 0 confined to x_j > 0.  An independent route integrates the flow
and locates the impact by bisection; the two must agree, and the explicit
map additionally satisfies a discrete conjugation law for the spectral
matrix, which makes det L(lam) a bounce invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PhaseState, SystemSpec, torus_reconstruct
from .errors import (
    DimensionError,
    EscapeError,
    GrazingOrSingularError,
    SingularAxisError,
)
from .geometry import _pole_guard, tangency_value
from .lax import LaxPair2, _mat2, clearing_exponents, lambda_samples, psi_poly, real_roots

GRAZE_TOL = 1e-8
MAP_TOL = 1e-12  # smallest admissible nu^2 of the bounce map
ORACLE_T_MAX = 100.0  # longest flight the oracle integrates before EscapeError
ORACLE_TOL = 1e-11  # largest embedded error estimate of an accepted oracle step
ORACLE_H_MAX = 1.6e-2  # longest oracle step
ORACLE_H_GRAZE = ORACLE_H_MAX / 32  # longest step over a maximum of <x, a^-1 x>
ORACLE_H_MIN = ORACLE_H_MAX / 2**30  # shortest oracle step


class BilliardSpec(SystemSpec):
    """The free_jr flow between impacts inside the ellipsoid of its axes.

    Charges default to zero on every coordinate.
    """

    def __init__(self, axes, sigma=0.0, mu=()):
        super().__init__("free_jr", axes, sigma=sigma,
                         mu=mu if len(mu) else [0.0] * len(axes))

    def boundary_residual(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float((x / self.a) @ x - 1.0)


@dataclass
class ImpactState:
    """Boundary point with outgoing momentum at bounce index k."""

    x: np.ndarray
    y: np.ndarray
    k: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)


def impact_invariant(spec: BilliardSpec, s: ImpactState) -> float:
    """J = 2 <x, a^-1 y>; conserved in magnitude by the bounce map."""
    return 2.0 * float((s.x / spec.a) @ s.y)


def _lift(spec: BilliardSpec, s: ImpactState):
    """Complex state of an impact state: z = x and p = y + i mu/x."""
    if (s.x[spec.mu_arr != 0] < 1e-9).any():
        raise SingularAxisError("charged coordinate not positive at the impact")
    return torus_reconstruct(s.x, s.y, spec.mu_arr, 0.0)


def _map_coefficients(spec: BilliardSpec, z, p):
    """J, K and nu of the bounce map at the complex state (z, p)."""
    a = spec.a
    J = 2.0 * float(np.vdot(p, z / a).real)
    if abs(J) < GRAZE_TOL:
        raise GrazingOrSingularError(f"grazing impact, J={J}")
    K = spec.sigma - float(np.vdot(p, p / a).real)
    nusq = spec.sigma * J * J + K * K
    if nusq <= MAP_TOL:
        raise GrazingOrSingularError(f"map denominator nu^2={nusq} not positive")
    return J, K, float(np.sqrt(nusq))


def jr_step(spec: BilliardSpec, s: ImpactState) -> ImpactState:
    """One bounce of the explicit map: `fedorov_step` on the lifted state.

    The impact state lifts to z = x, p = y + i mu/x (`torus_reconstruct` at
    zero phase).  The complex map conserves each charge Im(conj(z_k) p_k), so
    its image reduces to x_k = |z_k|, y_k = Re(conj(z_k) p_k)/|z_k| on a
    charged coordinate, which stays positive, and to Re z_k, Re p_k on a
    chargeless one, which keeps its sign.
    """
    z1, p1 = fedorov_step(spec, *_lift(spec, s))
    nz = spec.mu_arr != 0
    x1 = np.where(nz, np.abs(z1), z1.real)
    if (x1[nz] < 1e-9).any():
        raise SingularAxisError("charged coordinate collapsed at the new impact")
    y1 = p1.real.copy()
    y1[nz] = (np.conj(z1[nz]) * p1[nz]).real / x1[nz]
    return ImpactState(x1, y1, s.k + 1)


def fedorov_step(spec: BilliardSpec, z, p):
    """One bounce of the complex harmonic-oscillator billiard map.

    (z, p) is a boundary point of C^n, <z, a^-1 conj(z)> = 1, with its
    outgoing momentum.  A charge mu_k rides in p_k as Im(conj(z_k) p_k); the
    map conserves it, and its real reduction is `jr_step`.
    """
    a = spec.a
    z = np.asarray(z, dtype=complex)
    p = np.asarray(p, dtype=complex)
    J, K, nu = _map_coefficients(spec, z, p)
    z1 = -(K * z + J * p) / nu
    z1 = z1 / np.sqrt(np.vdot(z1, z1 / a).real)
    w = J / float(np.vdot(z1, z1 / a**2).real) / a  # pi / a
    p1 = -(K * (p + w * z) + J * (w * p - spec.sigma * z)) / nu
    return z1, p1


# ---------------------------------------------------------------------------
# independent route: integrate the flow, catch the boundary crossing
# ---------------------------------------------------------------------------

def _rk4_floats(x: list, y: list, dt: float, sig: float, mu2: list,
                axes: tuple) -> tuple[list, list, float, float, float]:
    """One classical RK4 step of x'' = -sig x + mu^2/x^3 on lists of floats.

    The flow acts on each coordinate separately, so the step loops over the
    coordinates; mu2[j] is None on a chargeless coordinate.  Also returns
    q = <x_new, a^-1 x_new> and d = <x_new, a^-1 y_new>, each summed in
    coordinate order, and the embedded error estimate
    err = dt/6 max_j max(|k4x - y_new|, |k4y - accel(x_new)|): the
    difference from the third-order solution with weights
    (1/6, 1/3, 1/3, 0, 1/6) whose fifth stage is taken at the new state.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    xn, yn, q, d, e = [], [], 0.0, 0.0, 0.0
    for xj, yj, m2, aj in zip(x, y, mu2, axes):
        k1y = -sig * xj if m2 is None else -sig * xj + m2 / xj**3
        k2x, v = yj + half * k1y, xj + half * yj
        k2y = -sig * v if m2 is None else -sig * v + m2 / v**3
        k3x, v = yj + half * k2y, xj + half * k2x
        k3y = -sig * v if m2 is None else -sig * v + m2 / v**3
        k4x, v = yj + dt * k3y, xj + dt * k3x
        k4y = -sig * v if m2 is None else -sig * v + m2 / v**3
        x1 = xj + sixth * (yj + 2 * k2x + 2 * k3x + k4x)
        y1 = yj + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
        k5y = -sig * x1 if m2 is None else -sig * x1 + m2 / x1**3
        r = abs(k4x - y1)
        if r > e:
            e = r
        r = abs(k4y - k5y)
        if r > e:
            e = r
        xn.append(x1)
        yn.append(y1)
        q += x1 / aj * x1
        d += x1 / aj * y1
    return xn, yn, q, sixth * e, d


def oracle_step(spec: BilliardSpec, s: ImpactState) -> ImpactState:
    """One bounce by integrating the free flow and reflecting at the boundary.

    The flight is integrated with step control until a step ends on or
    outside the boundary; the crossing is then located by bisection in time
    to 1e-12, and the momentum reflects in the boundary normal.

    Step rule: steps are ORACLE_H_MAX / 2^k, starting at ORACLE_H_MAX.  A
    step whose embedded estimate exceeds ORACLE_TOL is halved and retried;
    the first accepted step that ends with <x, a^-1 x> >= 1 goes to the
    bisection; an accepted step with an estimate below ORACLE_TOL/32 doubles
    the next one, up to ORACLE_H_MAX.  Grazing guard: a step over which
    <x, a^-1 y> goes from positive to <= 0 without crossing holds a maximum
    of the boundary function, where a long step could jump over a brief
    exit; it is halved while longer than ORACLE_H_MAX/32, the resolution of
    the former fixed scan.  A step that would be halved below ORACLE_H_MIN
    raises SingularAxisError.  The steps are powers of two rather than
    dt (tol/err)^(1/4) so that the accept and reject decisions, not the
    step lengths, are all that can differ between two transcriptions of the
    rule: the array-form reference in the tests then agrees to rounding.

    The integration and the bisection run on plain Python floats: on
    vectors of two or three entries a numpy call costs more than its
    arithmetic.  The step keeps the array form's order of operations,
    (-sigma x) + mu^2/x^3 on charged coordinates only, (dt/2) k,
    (dt/6)(k1 + 2 k2 + 2 k3 + k4), so that its results differ from the
    array form's only in the last bit, where numpy's cube and dot product
    round differently from `pow` and a sequential sum.  numpy returns for
    the final normalisation and reflection.  A charged coordinate that
    reaches its axis raises SingularAxisError, and a flight longer than
    ORACLE_T_MAX raises EscapeError.
    """
    J = impact_invariant(spec, s)
    if J > -GRAZE_TOL:
        raise GrazingOrSingularError("oracle needs a transversally inward momentum")
    axes, sig = spec.axes, spec.sigma
    mu2 = [m * m if m != 0.0 else None for m in spec.mu]
    x, y = s.x.tolist(), s.y.tolist()
    t, h, d = 0.0, ORACLE_H_MAX, 0.5 * J
    try:
        while t < ORACLE_T_MAX:
            xn, yn, q, err, dn = _rk4_floats(x, y, h, sig, mu2, axes)
            if err > ORACLE_TOL:
                if h <= ORACLE_H_MIN:
                    raise SingularAxisError(
                        f"oracle step fell below {ORACLE_H_MIN:.3e} at t={t}")
                h *= 0.5
                continue
            if q >= 1.0:
                break
            if d > 0.0 >= dn and h > ORACLE_H_GRAZE:
                h *= 0.5
                continue
            x, y, t, d = xn, yn, t + h, dn
            if err < ORACLE_TOL / 32.0 and h < ORACLE_H_MAX:
                h *= 2.0
        else:
            raise EscapeError(f"no boundary crossing within t_max={ORACLE_T_MAX}")
        # bisect the fraction of the last step, integrating afresh from its start
        lo, hi = 0.0, h
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if _rk4_floats(x, y, mid, sig, mu2, axes)[2] - 1.0 >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-12:
                break
        xh, yh = _rk4_floats(x, y, hi, sig, mu2, axes)[:2]
    except (ZeroDivisionError, OverflowError) as exc:
        raise SingularAxisError("charged coordinate reached its axis in flight") from exc
    a = spec.a
    xh, yh = np.array(xh), np.array(yh)
    xh = xh / np.sqrt((xh / a) @ xh)
    n = xh / a
    y1 = yh - 2.0 * ((yh @ n) / (n @ n)) * n
    return ImpactState(xh, y1, s.k + 1)


# ---------------------------------------------------------------------------
# discrete spectral data
# ---------------------------------------------------------------------------

def discrete_lax_check(spec: BilliardSpec, s: ImpactState, s_next: ImpactState,
                       lambdas) -> list[dict]:
    """Conjugation-law residuals for one bounce, per sampled parameter.

    Checks (a) invariance of det L and (b) the full residual ||L' A - A L||,
    each evaluated once at s_next.  The map coefficients are computed once
    per bounce; the companions A(lam) and both spectral matrices are stacks
    over the sampled parameters, each entry equal bit for bit to its
    one-parameter form.  No search over the sign reflections of the
    chargeless coordinates is needed: L is quadratic in (x_j, y_j) for
    those j, and negating both leaves every product in L bit-for-bit equal.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(np.abs(lam) < 1e-12):
        raise GrazingOrSingularError("companion matrix is singular at lam=0")
    J, K, _ = _map_coefficients(spec, *_lift(spec, s))
    pi = J / float((s_next.x / spec.a**2) @ s_next.x)
    A = _mat2(K * lam + J * pi, spec.sigma * J * lam - K * pi, -J * lam, K * lam)
    # the free-flow spectral matrices of the two impact states
    L0 = LaxPair2(spec, s.x, s.y).L(lam)
    L1 = LaxPair2(spec, s_next.x, s_next.y).L(lam)
    d0 = L0[:, 0, 0] * L0[:, 1, 1] - L0[:, 0, 1] * L0[:, 1, 0]
    d1 = L1[:, 0, 0] * L1[:, 1, 1] - L1[:, 0, 1] * L1[:, 1, 0]
    conj = np.max(np.abs(L1 @ A - A @ L0), axis=(-2, -1))
    return [{"lam": float(t), "det_drift": abs(float(d)), "conjugation_residual": float(c)}
            for t, d, c in zip(lam, d1 - d0, conj)]


# ---------------------------------------------------------------------------
# orbits, caustics, closure
# ---------------------------------------------------------------------------

@dataclass
class BilliardOrbit:
    """Impact sequence with per-segment caustic parameters and residuals."""

    spec: BilliardSpec
    impacts: list[ImpactState]
    caustics: np.ndarray
    caustic_drift: float
    det_drift: float
    lax_residual: float
    segment_roots: list[np.ndarray] = field(default_factory=list)


def run_orbit(spec: BilliardSpec, s0: ImpactState, bounces: int,
              with_lax: bool = True) -> BilliardOrbit:
    """Iterate the explicit map, tracking spectral invariants per bounce."""
    impacts = [s0]
    s = s0
    lambdas = lambda_samples(spec.axes, 5)
    dets0 = None
    det_drift = 0.0
    conj_max = 0.0
    roots0 = None
    drift = 0.0
    seg_roots = []
    for _ in range(bounces):
        s_next = jr_step(spec, s)
        if with_lax:
            for rec in discrete_lax_check(spec, s, s_next, lambdas):
                conj_max = float(np.maximum(conj_max, rec["conjugation_residual"]))
                det_drift = float(np.maximum(det_drift, rec["det_drift"]))
        st = PhaseState(s.x, s.y)
        rts = real_roots(psi_poly(spec, st))
        seg_roots.append(rts)
        if roots0 is None:
            roots0 = rts
        elif rts.size == roots0.size and rts.size:
            drift = float(np.maximum(drift, np.max(np.abs(rts - roots0))))
        s = s_next
        impacts.append(s)
    return BilliardOrbit(spec, impacts, roots0 if roots0 is not None else np.zeros(0),
                         drift, det_drift, conj_max, seg_roots)


def expected_caustic_count(spec: BilliardSpec) -> int:
    """Number of caustic quadrics of a generic orbit: the cleared-polynomial
    degree, n + d with forcing and n - 1 + d without (d = number of charges,
    distinct axes)."""
    delta = clearing_exponents(spec)
    return int(delta.sum()) + (0 if spec.sigma != 0.0 else -1)


def orbit_caustics(spec: BilliardSpec, orbit: BilliardOrbit) -> dict:
    """Caustic parameters of an orbit plus the simultaneous-tangency report."""
    expected = expected_caustic_count(spec)
    etas = orbit.caustics
    count_ok = etas.size == expected
    # a parameter landing on an axis marks a degenerate member of the family
    # (focal orbit); it is flagged rather than probed for tangency
    degenerate = [float(e) for e in etas
                  if np.min(np.abs(e - spec.a)) < 1e-9 * max(1.0, np.max(spec.a))]
    tangency_max = None
    if spec.sigma == 0.0 and not np.any(spec.mu_arr != 0):
        tangency_max = 0.0
        for s in orbit.impacts[:-1]:
            for eta in etas:
                if float(eta) in degenerate:
                    continue
                tangency_max = float(np.maximum(tangency_max, abs(
                    tangency_value(spec.a, s.x, s.y, float(eta)))))
    per_seg_ok = all(r.size == etas.size for r in orbit.segment_roots)
    return {
        "etas": etas,
        "expected_count": expected,
        "count_ok": bool(count_ok),
        "per_segment_count_ok": bool(per_seg_ok),
        "caustic_drift": orbit.caustic_drift,
        "tangency_max": tangency_max,
        "degenerate": degenerate,
    }


def poncelet_detect(spec: BilliardSpec, s0: ImpactState, max_period: int,
                    tol: float = 1e-6) -> dict:
    """Smallest period N <= max_period of the bounce map at s0, if any."""
    s = s0
    for k in range(1, max_period + 1):
        s = jr_step(spec, s)
        err = float(np.max(np.abs(s.x - s0.x)) + np.max(np.abs(s.y - s0.y)))
        if err < tol:
            return {"period": k, "closure_error": err}
    return {"period": None, "closure_error": None}


# ---------------------------------------------------------------------------
# planar (n = 2) constructions used by the closure detection
# ---------------------------------------------------------------------------

def boundary_point(axes, theta: float) -> np.ndarray:
    a = np.asarray(axes, dtype=float)
    return np.array([np.sqrt(a[0]) * np.cos(theta), np.sqrt(a[1]) * np.sin(theta)])


def boundary_angle(axes, x) -> float:
    a = np.asarray(axes, dtype=float)
    return float(np.arctan2(x[1] / np.sqrt(a[1]), x[0] / np.sqrt(a[0])))


def tangent_directions(axes, x, eta: float) -> list[np.ndarray]:
    """Unit directions from x tangent to the confocal quadric at eta (n=2).

    The tangency functional of the line through x with direction d is the
    quadratic form d^T M d with M = (Q(x,x) + 1) diag(1/(eta - a)) - q q^T,
    q = x/(eta - a) and Q the pole form at eta.  Its real null directions
    exist when det M < 0; each root comes with both signs, so the result
    holds four directions or none.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != a.shape:
        raise DimensionError("x must match the axes length")
    _pole_guard(a, eta)
    q = x / (eta - a)
    M = (float(x @ q) + 1.0) * np.diag(1.0 / (eta - a)) - np.outer(q, q)
    m00, m01, m11 = M[0, 0], M[0, 1], M[1, 1]
    disc = m01 * m01 - m00 * m11
    if disc <= 0.0:
        return []
    # d = (c, s) solves m00 c^2 + 2 m01 c s + m11 s^2 = 0.  r is the root of
    # r^2 + 2 m01 r + m00 m11 = 0 whose sum does not cancel; (m11, r) and
    # (r, m00) are then the two null directions
    r = -m01 - np.copysign(np.sqrt(disc), m01)
    dirs = []
    for d in (np.array([m11, r]), np.array([r, m00])):
        d = d / np.linalg.norm(d)
        dirs.append(d)
        dirs.append(-d)
    return dirs


def tangent_state(spec: BilliardSpec, eta: float, theta: float) -> ImpactState:
    """Impact state at boundary angle theta launching tangent to eta (n=2).

    Among the unit inward tangent directions, picks the one with the largest
    counterclockwise angular advance.
    """
    if len(spec.axes) != 2 or spec.sigma != 0.0 or np.any(spec.mu_arr != 0):
        raise ValueError("tangent launching is a planar, force-free construction")
    x = boundary_point(spec.a, theta)
    n = x / spec.a
    best = None
    for d in tangent_directions(spec.a, x, eta):
        if d @ n >= -1e-12:
            continue  # not inward
        cross = x[0] * d[1] - x[1] * d[0]
        if best is None or cross > best[1]:
            best = (d, cross)
    if best is None:
        raise GrazingOrSingularError("no inward tangent direction at this point")
    return ImpactState(x, best[0], 0)


def find_planar_periodic_orbit(spec: BilliardSpec, period: int) -> tuple[float, ImpactState]:
    """Caustic parameter eta whose tangent orbit closes after `period` bounces.

    Shooting on eta from the boundary angle 0.31 with unit speed: the
    boundary-angle advance after `period` bounces is monotone in the caustic
    parameter for planar force-free billiards, so a sign change of
    (advance - 2 pi) over eta in (1e-4, 1 - 1e-4) times the smallest axis
    brackets the closing caustic.
    """
    if len(spec.axes) != 2 or spec.sigma != 0.0 or np.any(spec.mu_arr != 0):
        raise ValueError("the shooting search is planar and force-free")
    a = np.sort(spec.a)
    lo = 1e-4 * a[0]
    hi = (1.0 - 1e-4) * a[0]
    theta0 = 0.31

    def advance(eta):
        s = tangent_state(spec, eta, theta0)
        th0 = boundary_angle(spec.a, s.x)
        prev = th0
        total = 0.0
        for _ in range(period):
            s = jr_step(spec, s)
            th = boundary_angle(spec.a, s.x)
            d = (th - prev) % (2.0 * np.pi)
            total += d
            prev = th
        return total - 2.0 * np.pi

    f_lo, f_hi = advance(lo), advance(hi)
    if f_lo * f_hi > 0:
        raise GrazingOrSingularError(
            f"no closing caustic bracketed in ({lo}, {hi}): {f_lo}, {f_hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = advance(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-14:
            break
    eta = 0.5 * (lo + hi)
    return eta, tangent_state(spec, eta, theta0)

"""Separable polynomial potentials on R^{n+1} and their supporting data.

The even-degree basis V^(k) is generated by the recurrence
F_i^(k+1) = a_i F_i^(k) - x_i^2 V^(k), F_i^(1) = x_i^2, V^(k) = sum_i F_i^(k),
so V^(1) = <x,x> (Hook), V^(2) = <Ax,x> - <x,x>^2 (Garnier), and so on.
Gradients are propagated through the same recurrence analytically.  The
inverse-degree basis (Rosochatius family) and the separability test via the
Bertrand-Darboux second-order operator live here too, as do the polynomial
coefficient pairs (Delta_k, Omega_k) needed by the hierarchy Lax matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .geometry import _pole_guard


@dataclass
class HierarchyTables:
    """Values V^(1..m), per-axis shares F_i^(k), and the gradients of V^(k).

    F[k-1] is the length-(n+1) array of F_i^(k) and gradV[k-1] the
    x-gradient of V^(k); for a stack of points each entry carries its
    leading axis.
    """

    V: list[float]
    F: list[np.ndarray]
    gradV: list[np.ndarray]


def hierarchy_eval(axes, x, m: int) -> HierarchyTables:
    """Fill the recurrence tables up to level m (m >= 1).

    Broadcasts over a leading axis of x (one row per point): the columns then
    run through the same float recurrence as arrays, elementwise, so each row
    of the tables equals the call on that row.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != a.shape:
        raise DimensionError("x must match the axes length")
    if m < 1:
        raise ValueError("m must be at least 1")
    if x.ndim == 1:
        cols, pack = x.tolist(), np.array
    else:
        cols, pack = list(np.moveaxis(x, -1, 0)), lambda v: np.stack(v, axis=-1)
    Vs, Fs, gVs = _recurrence(a.tolist(), cols, m)
    return HierarchyTables(Vs, [pack(F) for F in Fs], [pack(g) for g in gVs])


def _recurrence(a: list, x: list, m: int) -> tuple[list, list, list]:
    """Levels 1..m of V^(k), F_i^(k) and grad V^(k) over Python floats.

    The array form's operations in its order, with sums in coordinate
    order, so the tables equal it bit for bit; on three or four axes a
    numpy call costs more than its arithmetic.
    """
    n = len(x)
    xx = [v * v for v in x]
    F = xx
    dF = [[2.0 * x[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    Vs, Fs, gVs = [], [], []
    while len(Vs) < m:
        V = 0.0
        for f in F:
            V += f
        gV = dF[0]
        for row in dF[1:]:
            gV = [u + v for u, v in zip(gV, row)]
        Vs.append(V)
        Fs.append(F)
        gVs.append(gV)
        if len(Vs) == m:
            break
        F = [ai * fi - xi2 * V for ai, fi, xi2 in zip(a, F, xx)]
        dF = [[ai * d - xi2 * v for d, v in zip(row, gV)] for ai, xi2, row in zip(a, xx, dF)]
        for i in range(n):
            dF[i][i] -= 2.0 * x[i] * V
    return Vs, Fs, gVs


def rosochatius_eval(axes, x, s: int, degree: int) -> float | np.ndarray:
    """Inverse-square (degree -1) or inverse-quartic (degree -2) basis
    element anchored at coordinate s.

    Broadcasts over a leading axis of x, as `hierarchy_eval` does: a float
    for one point, an array with one value per row for a stack.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != a.shape:
        raise DimensionError("x must match the axes length")
    if not 0 <= s < a.size:
        raise IndexError("anchor index out of range")
    xs = x[..., s]
    if np.any(xs == 0.0):
        raise ValueError("anchor coordinate vanishes")
    if degree == -1:
        val = 1.0 / xs ** 2
    elif degree == -2:
        others = np.arange(a.size) != s
        if np.any(a[others] == a[s]):
            raise ValueError("inverse-quartic element needs a distinct anchor axis")
        val = (1.0 + (x[..., others] ** 2 / (a[s] - a[others])).sum(axis=-1)) / xs ** 4
    else:
        raise ValueError("degree must be -1 or -2")
    return float(val) if x.ndim == 1 else val


_FD_OFFS = (-2.0, -1.0, 1.0, 2.0)
_FD_WTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def bd_residual(axes, V, x) -> np.ndarray:
    """Second-order separability residuals of a potential at x, one row per
    index pair i < j in row-major order: (0,1), (0,2), (1,2) for three axes.

    Each row evaluates (a_i - a_j) d2V/dx_i dx_j + (x_j d_i - x_i d_j)(2V +
    sum_k x_k d_k V) from direct first- and second-derivative central stencils
    of V (the rotational term expands to 3(x_j V_i - x_i V_j) + sum_k x_k (x_j
    V_ik - x_i V_jk), so no nested differencing of noisy intermediates is
    needed).  The stencils are the five-point first derivative, the
    fourth-order diagonal second derivative and, for each ordered pair
    k != l, the product of two first-derivative stencils (d2[k][l] and
    d2[l][k] sum the same points in different orders).

    V is called once, on the (1 + 4(n+1) + 16 n(n+1), n+1) stack of every
    stencil point, so it must broadcast over a leading axis: one value, or
    one 1-d array of components, per row, each equal to the call on that
    row's point, as `hierarchy_eval` and `rosochatius_eval` give.  The rows
    are combined in the stencils' order of summation, so the result equals
    per-point evaluation bit for bit; with components it has one column per
    component.

    The residuals vanish for the polynomial and inverse-power bases separable
    in the confocal coordinates of the axes; the rotational operator's
    orientation is fixed by that family, as the opposite sign annihilates
    only the degree-2 member.  The step in coordinate k is
    5e-4 (0.25 + |x_k|): scaling with each coordinate keeps the stencil
    accurate near the inverse-power singularities.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    n1 = a.size
    hs = 5e-4 * (0.25 + np.abs(x))
    # steps[k, o] = (o h_k) e_k, and x + steps are the first-derivative points
    steps = (hs[:, None] * np.array(_FD_OFFS))[:, :, None] * np.eye(n1)[:, None, :]
    ones = x + steps
    kk, ll = np.nonzero(~np.eye(n1, dtype=bool))  # ordered pairs k != l, row-major
    mixed = ones[kk][:, :, None, :] + steps[ll][:, None, :, :]
    pts = np.concatenate([x[None], ones.reshape(-1, n1), mixed.reshape(-1, n1)])
    vals = np.asarray(V(pts), dtype=float)
    if vals.shape[:1] != pts.shape[:1]:
        raise DimensionError("V must return one value per row of the stencil stack")
    tail = vals.shape[1:]

    def col(v):
        # a per-row factor, broadcast over the component axis
        return np.reshape(v, np.shape(v) + (1,) * len(tail))

    f0 = vals[0]
    f1 = vals[1:1 + 4 * n1].reshape((n1, 4) + tail)
    fm = vals[1 + 4 * n1:].reshape((kk.size, 4, 4) + tail)
    d1 = 0.0
    for o, w in enumerate(_FD_WTS):
        d1 = d1 + w * f1[:, o]
    d1 = d1 / col(hs)
    d2 = np.empty((n1, n1) + tail)
    # x - c e_k is x + (-c) e_k bit for bit, so the diagonal stencil reads the
    # first-derivative points: offsets -2, -1, 1, 2 are columns 0..3 of f1
    d2[range(n1), range(n1)] = ((-f1[:, 3] + 16 * f1[:, 2] - 30 * f0 + 16 * f1[:, 1]
                                 - f1[:, 0]) / col(12 * hs * hs))
    tot = 0.0
    for oi, wi in enumerate(_FD_WTS):
        for oj, wj in enumerate(_FD_WTS):
            tot = tot + wi * wj * fm[:, oi, oj]
    d2[kk, ll] = tot / col(hs[kk] * hs[ll])
    ii, jj = np.triu_indices(n1, 1)
    xi, xj = col(x[ii]), col(x[jj])
    rot = 3.0 * (xj * d1[ii] - xi * d1[jj])
    for k in range(n1):
        rot = rot + x[k] * (xj * d2[ii, k] - xi * d2[jj, k])
    return col(a[ii] - a[jj]) * d2[ii, jj] + rot


def omega_coefficients(tables: HierarchyTables, k: int) -> np.ndarray:
    """Coefficients (highest power first) of the degree-(k-1) polynomial Omega_k.

    The recurrence sums to W(lam) = sum_k V^(k) lam^-k = q / (1 + q), with
    q = sum_i x_i^2 / (lam - a_i).  Delta_k is the polynomial part of
    lam^{k-1} (1 - W) and Omega_k that of lam^{k-1} (1 - W)^2, so Omega_k's
    coefficients are the first k of the self-convolution of
    d = (1, -V^(1), ..., -V^(k-1)).  `tables` must reach level k - 1.
    """
    d = np.concatenate(([1.0], -np.asarray(tables.V[:k - 1], dtype=float)))
    return np.convolve(d, d)[:k]


def delta_value(tables: HierarchyTables, k: int, lam) -> float | np.ndarray:
    """Delta_k(lam) = lam^{k-1} - lam^{k-2} V^(1) - ... - V^(k-1).

    A float for one parameter; an array of parameters gives an array, each
    entry equal bit for bit to the call at that parameter.  The entries are
    held as Python floats, so every power is the float power of one
    parameter: numpy's array power rounds differently in the last bit.
    """
    t = np.asarray(lam, dtype=object)
    d = t ** (k - 1)
    for j in range(1, k):
        d = d - t ** (k - 1 - j) * tables.V[j - 1]
    return np.asarray(d, dtype=float) if np.ndim(d) else float(d)


def delta_omega(axes, x, lam: float, k: int,
                tables: HierarchyTables) -> tuple[float, float]:
    """Values of the hierarchy polynomials Delta_k and Omega_k at lam.

    Delta_k = lam^{k-1} - lam^{k-2} V^(1) - ... - V^(k-1); Omega_k is the
    polynomial solving 2 Omega_k (1 + q_lam(x,x)) = 2 Delta_k +
    <(lam-A)^-1 x, grad V^(k)> identically in lam.  `tables` are
    `hierarchy_eval(axes, x, m)` for some m >= k; levels 1..k of a deeper
    table are the same numbers, so the values do not depend on m.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    _pole_guard(a, lam)
    if k < 1:
        raise ValueError("k must be at least 1")
    delta = delta_value(tables, k, lam)
    omega = float(np.polyval(omega_coefficients(tables, k), lam))
    q = float((x * x / (lam - a)).sum())
    resid = abs(2.0 * omega * (1.0 + q) - 2.0 * delta - float((x / (lam - a)) @ tables.gradV[k - 1]))
    if resid > 1e-10 * max(1.0, abs(omega)):
        raise ArithmeticError(f"defining identity residual {resid} too large")
    return delta, omega


def hierarchy_potential(axes, x, sigmas, mu) -> float | np.ndarray:
    """Potential (1/2) sum_k sigma_k V^(k) + (1/2) sum_i mu_i^2 / x_i^2.

    Broadcasts over a leading axis of x, as `hierarchy_eval` does.
    """
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    val = 0.0
    if len(sigmas) > 0:
        t = hierarchy_eval(a, x, len(sigmas))
        val += 0.5 * sum(s * v for s, v in zip(sigmas, t.V))
    mu = np.asarray(mu, dtype=float)
    nz = mu != 0
    return val + 0.5 * (mu[nz] ** 2 / x[..., nz] ** 2).sum(axis=-1)


def hierarchy_gradient(axes, x, sigmas, mu) -> np.ndarray:
    """Gradient of `hierarchy_potential` (analytic, via the recurrence)."""
    mu = np.asarray(mu, dtype=float).tolist()
    return np.array(_gradient_floats(np.asarray(axes, dtype=float).tolist(),
                                     np.asarray(x, dtype=float).tolist(), sigmas,
                                     [(j, m) for j, m in enumerate(mu) if m != 0.0]))


def _gradient_floats(a: list, x: list, sigmas, charged: list) -> list:
    """`hierarchy_gradient` over Python floats; `charged` lists (index, mu)."""
    g = [0.0] * len(x)
    for s, gV in zip(sigmas, _recurrence(a, x, len(sigmas))[2]):
        c = 0.5 * s
        g = [u + c * v for u, v in zip(g, gV)]
    for j, mu in charged:
        g[j] -= mu * mu / x[j] ** 3
    return g

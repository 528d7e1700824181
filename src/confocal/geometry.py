"""Ellipsoids, confocal quadric families and elliptic coordinates.

Conventions: an ellipsoid in R^{n+1} is <A^-1 x, x> = 1 with
A = diag(a_0, ..., a_n) positive.  The confocal family through a point is
the set of parameters lam with sum_i x_i^2 / (a_i - lam) = 1; for a point
off the coordinate hyperplanes there are exactly n+1 such parameters,
strictly interlacing the sorted axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateChartError,
    DimensionError,
    PoleError,
    SymmetricChartError,
)


def _as_axes(axes) -> np.ndarray:
    a = np.asarray(axes, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise DimensionError("axes must be a 1-d sequence of positive reals")
    if not np.all(a > 0):
        raise ValueError("all squared semi-axes must be positive")
    return a


def _partition_by_value(axes: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Group indices whose axis values are bitwise equal, in order of first occurrence."""
    groups: dict[float, list[int]] = {}
    for i, a in enumerate(axes):
        groups.setdefault(float(a), []).append(i)
    return tuple(tuple(g) for g in groups.values())


@dataclass(frozen=True)
class EllipsoidSpec:
    """Squared semi-axes of an ellipsoid plus the partition of equal axes."""

    axes: tuple[float, ...]
    partition: tuple[tuple[int, ...], ...] = field(init=False)

    def __init__(self, axes):
        a = _as_axes(axes)
        object.__setattr__(self, "axes", tuple(float(v) for v in a))
        object.__setattr__(self, "partition", _partition_by_value(a))

    @property
    def dim(self) -> int:
        """Dimension n of the ellipsoid (ambient space is R^{n+1})."""
        return len(self.axes) - 1

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.axes)

    @property
    def group_values(self) -> np.ndarray:
        """Distinct axis values, one per partition group."""
        return np.array([self.axes[g[0]] for g in self.partition])

    @property
    def is_symmetric(self) -> bool:
        return len(self.partition) < len(self.axes)


@dataclass(frozen=True)
class EllipticCoords:
    """Confocal parameters through a point (ascending) and coordinate signs."""

    lam: tuple[float, ...]
    signs: tuple[int, ...]

    def __init__(self, lam, signs):
        lam = tuple(float(v) for v in lam)
        signs = tuple(int(s) for s in signs)
        if len(lam) != len(signs):
            raise DimensionError("lam and signs must have equal length")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "signs", signs)


def elliptic_coords(spec: EllipsoidSpec, x) -> EllipticCoords:
    """Confocal parameters (lam_0 < ... < lam_n) through x, plus signs.

    By the matrix determinant lemma, sum x_i^2/(a_i - lam) = 1 exactly when
    det(A - x x^T - lam) = 0, so the parameters are the eigenvalues of the
    symmetric matrix A - x x^T (Moser 1980).  They come out ascending, the
    interlacing order.  Each is clamped into its open interval
    (a_(k-1), a_(k)), since it can round onto or past its axis when x_k^2 is
    below one ulp of a_k; one Newton step on sum x^2/(a - lam) - 1 then
    polishes every parameter and is kept where it stays in the interval.
    """
    a = spec.a
    x = np.asarray(x, dtype=float)
    if x.shape != a.shape:
        raise DimensionError("point dimension does not match the ellipsoid")
    if spec.is_symmetric:
        raise SymmetricChartError("elliptic coordinates need distinct axes")
    if np.any(x == 0.0):
        raise DegenerateChartError("point lies on a coordinate hyperplane")

    asrt = np.sort(a)
    lo = np.nextafter(np.concatenate(([-np.inf], asrt[:-1])), np.inf)
    hi = np.nextafter(asrt, -np.inf)
    lam = np.clip(np.linalg.eigvalsh(np.diag(a) - np.outer(x, x)), lo, hi)
    xsq = x * x
    d = a - lam[:, None]
    newton = lam - ((xsq / d).sum(axis=1) - 1.0) / (xsq / d**2).sum(axis=1)
    lam = np.where((lo <= newton) & (newton <= hi), newton, lam)
    return EllipticCoords(lam, np.where(x > 0, 1, -1))


def _pole_guard(axes, lam) -> None:
    """Reject a parameter, or any entry of an array of them, within
    1e-10 max(1, max|a|) of an axis."""
    a = np.asarray(axes, dtype=float)
    gap = np.abs(np.asarray(lam)[..., None] - a)
    if np.min(gap) <= 1e-10 * max(1.0, float(np.max(np.abs(a)))):
        raise PoleError(f"parameter {lam} is too close to an axis")


def pole_form(axes, lam, u, v) -> complex | float | np.ndarray:
    """Bilinear form sum_i u_i v_i / (lam - a_i) with simple poles at the axes.

    For an array of parameters the result has its shape, each entry equal
    bit for bit to the call at that parameter.
    """
    a = np.asarray(axes, dtype=float)
    return (np.asarray(u) * np.asarray(v) / (np.asarray(lam)[..., None] - a)).sum(axis=-1)


def tangency_value(axes, x, y, eta: float):
    """Tangency functional of the line through x with direction y.

    Returns (Q(x,x)+1) Q(y,y) - Q(x,y)^2 with Q the pole form at eta; the
    value vanishes exactly when the line touches the confocal quadric with
    parameter eta.
    """
    a = _as_axes(axes)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != a.shape or y.shape != a.shape:
        raise DimensionError("x, y must match the axes length")
    _pole_guard(a, eta)
    qxx = pole_form(a, eta, x, x)
    qyy = pole_form(a, eta, y, y)
    qxy = pole_form(a, eta, x, y)
    return float((qxx + 1.0) * qyy - qxy * qxy)


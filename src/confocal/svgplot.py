"""Hand-rolled SVG emission: deterministic bytes for a fixed input.

Only the handful of shapes the plots need: polylines, sampled conics of the
confocal family, and a clipped billiard domain.  No plotting library is
involved, so output is reproducible across environments.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 640
MARGIN = 40


class Frame:
    """Affine map from a world bounding box to the SVG viewport."""

    def __init__(self, xlim, ylim):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        span_x = self.x1 - self.x0 or 1.0
        span_y = self.y1 - self.y0 or 1.0
        self.scale = min((WIDTH - 2 * MARGIN) / span_x,
                         (HEIGHT - 2 * MARGIN) / span_y)

    def pt(self, x, y):
        cx = 0.5 * (self.x0 + self.x1)
        cy = 0.5 * (self.y0 + self.y1)
        px = WIDTH / 2 + (x - cx) * self.scale
        py = HEIGHT / 2 - (y - cy) * self.scale
        return f"{px:.3f},{py:.3f}"


def _polyline(frame: Frame, pts, stroke: str, width: float = 1.0,
              dash: str | None = None) -> str:
    body = " ".join(frame.pt(p[0], p[1]) for p in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{extra} points="{body}" />')


N_SAMPLES = 256  # segments of each sampled curve


def boundary_ellipse_points(axes) -> np.ndarray:
    a = np.asarray(axes, dtype=float)
    t = np.linspace(0.0, 2.0 * np.pi, N_SAMPLES + 1)
    return np.column_stack([np.sqrt(a[0]) * np.cos(t), np.sqrt(a[1]) * np.sin(t)])


def confocal_conic_points(axes, eta: float) -> list[np.ndarray]:
    """Sampled branches of the confocal conic with parameter eta (planar)."""
    a = np.asarray(axes, dtype=float)[:2]
    d = a - eta
    if d[0] > 0 and d[1] > 0:
        t = np.linspace(0.0, 2.0 * np.pi, N_SAMPLES + 1)
        return [np.column_stack([np.sqrt(d[0]) * np.cos(t), np.sqrt(d[1]) * np.sin(t)])]
    if d[0] * d[1] < 0:
        # hyperbola: x^2/p - y^2/q = 1 after ordering the positive denominator
        t = np.linspace(-2.0, 2.0, N_SAMPLES + 1)
        if d[0] > 0:
            p, q = d[0], -d[1]
            b1 = np.column_stack([np.sqrt(p) * np.cosh(t), np.sqrt(q) * np.sinh(t)])
            b2 = np.column_stack([-np.sqrt(p) * np.cosh(t), np.sqrt(q) * np.sinh(t)])
        else:
            p, q = d[1], -d[0]
            b1 = np.column_stack([np.sqrt(q) * np.sinh(t), np.sqrt(p) * np.cosh(t)])
            b2 = np.column_stack([np.sqrt(q) * np.sinh(t), -np.sqrt(p) * np.cosh(t)])
        return [b1, b2]
    return []


def render(axes=None, mu=None, trajectory=None, chords=None, caustics=(),
           title: str = "") -> str:
    """Compose the figure: boundary, optional path/chords, caustic conics.

    `trajectory` and `chords` are arrays of planar points; charged
    coordinates (mu nonzero) clip the domain shading to their positive side.
    """
    pts_all = []
    elements = []
    boundary = None
    if axes is not None:
        boundary = boundary_ellipse_points(axes)
        pts_all.append(boundary)
    for arr in (trajectory, chords):
        if arr is not None and len(arr):
            pts_all.append(np.asarray(arr, dtype=float))
    if pts_all:
        allpts = np.vstack(pts_all)
        pad = 0.1 * max(np.ptp(allpts[:, 0]), np.ptp(allpts[:, 1]), 1e-9)
        xlim = (allpts[:, 0].min() - pad, allpts[:, 0].max() + pad)
        ylim = (allpts[:, 1].min() - pad, allpts[:, 1].max() + pad)
    else:
        xlim = ylim = (-1.0, 1.0)
    frame = Frame(xlim, ylim)
    # axes cross
    elements.append(_polyline(frame, [(xlim[0], 0.0), (xlim[1], 0.0)], "#cccccc", 0.8))
    elements.append(_polyline(frame, [(0.0, ylim[0]), (0.0, ylim[1])], "#cccccc", 0.8))
    if boundary is not None:
        mu = np.asarray(mu, dtype=float) if mu is not None else np.zeros(2)
        if np.any(mu != 0):
            keep = np.ones(len(boundary), dtype=bool)
            for j in range(2):
                if mu[j] != 0:
                    keep &= boundary[:, j] >= -1e-12
            seg = []
            for ok, p in zip(keep, boundary):
                if ok:
                    seg.append(p)
                elif seg:
                    elements.append(_polyline(frame, seg, "#202020", 1.6))
                    seg = []
            if seg:
                elements.append(_polyline(frame, seg, "#202020", 1.6))
            for j in range(2):
                if mu[j] != 0:
                    lo = [0.0, 0.0]
                    hi = [0.0, 0.0]
                    other = 1 - j
                    w = np.sqrt(np.asarray(axes, dtype=float)[other])
                    lo[other], hi[other] = -w, w
                    elements.append(_polyline(frame, [tuple(lo), tuple(hi)],
                                              "#202020", 1.6))
        else:
            elements.append(_polyline(frame, boundary, "#202020", 1.6))
    for eta in caustics:
        for branch in confocal_conic_points(axes if axes is not None else (1, 1),
                                            float(eta)):
            elements.append(_polyline(frame, branch, "#b03030", 1.2, dash="4,3"))
    if trajectory is not None and len(trajectory):
        elements.append(_polyline(frame, np.asarray(trajectory), "#1f5fbf", 1.2))
    if chords is not None and len(chords):
        elements.append(_polyline(frame, np.asarray(chords), "#1f5fbf", 1.0))
    body = "\n".join(elements)
    label = (f'<text x="{MARGIN}" y="{MARGIN - 14}" font-family="monospace" '
             f'font-size="13">{title}</text>') if title else ""
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white" />\n'
            f"{label}\n{body}\n</svg>\n")

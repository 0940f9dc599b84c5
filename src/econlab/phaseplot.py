"""Minimal deterministic SVG phase-plane renderer.

Hand-rolled markup with fixed number formatting so repeated runs emit
byte-identical files: axes, the two nullcline loci (sampled
numerically), trajectory polylines, and a single circle marking the
steady state.
"""

import math

import numpy as np

from .errors import DomainError
from .ramsey import k_nullcline, steady_state

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 70.0, 24.0, 24.0, 48.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _View:
    """Maps (log k, log c) into pixel coordinates."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        padx = 0.08 * (self.x1 - self.x0) or 0.5
        pady = 0.08 * (self.y1 - self.y0) or 0.5
        self.x0 -= padx
        self.x1 += padx
        self.y0 -= pady
        self.y1 += pady

    def px(self, x) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y) -> float:
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)


def _polyline(view, pts, color, dash=None, width=1.5):
    coords = " ".join(f"{_fmt(view.px(x))},{_fmt(view.py(y))}" for x, y in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra} points="{coords}"/>')


def _loci(params, steady, view):
    """Sample the nullclines of the (log k, log c) field inside the view.

    d log c/dt = 0 is the vertical line log k = log k*; d log k/dt = 0
    is log c = log(k_nullcline(k)) where that is positive.
    """
    pts = []
    for lk in np.linspace(view.x0, view.x1, 200):
        hump = k_nullcline(params, math.exp(lk))
        if hump > 0.0:
            pts.append((lk, math.log(hump)))
    out = []
    if pts:
        out.append(_polyline(view, pts, "#999999", dash="6,4", width=1.0))
    lks = steady.log_k_star
    out.append(_polyline(view, [(lks, view.y0), (lks, view.y1)],
                         "#999999", dash="6,4", width=1.0))
    return out


def render_phase_svg(traj_list, params, path) -> str:
    """Write a phase-plane SVG and return the file path.

    traj_list: (log k, log c) trajectories (may be empty); params: the
    RamseyParams whose steady state is marked and whose nullcline loci
    are drawn.
    """
    steady = steady_state(params)
    xs = [steady.log_k_star]
    ys = [steady.log_c_star]
    for traj in traj_list:
        if traj.states.shape[1] != 2:
            raise DomainError("phase plot needs 2-component trajectories")
        xs.extend(traj.states[:, 0])
        ys.extend(traj.states[:, 1])
    view = _View(xs, ys)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
        # axes
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(_W - _MR)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(_H - _MB)}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = view.x0 + frac * (view.x1 - view.x0)
        yv = view.y0 + frac * (view.y1 - view.y0)
        parts.append(f'<text x="{_fmt(view.px(xv))}" y="{_fmt(_H - _MB + 16.0)}" '
                     f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{_fmt(_ML - 6.0)}" y="{_fmt(view.py(yv) + 4.0)}" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{_fmt((_ML + _W - _MR) / 2.0)}" y="{_fmt(_H - 10.0)}" '
                 f'font-size="12" text-anchor="middle">log k</text>')
    parts.append(f'<text x="16" y="{_fmt((_MT + _H - _MB) / 2.0)}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_fmt((_MT + _H - _MB) / 2.0)})">log c</text>')
    parts.extend(_loci(params, steady, view))
    for i, traj in enumerate(traj_list):
        pts = list(zip(traj.states[:, 0], traj.states[:, 1]))
        parts.append(_polyline(view, pts, _COLORS[i % len(_COLORS)]))
    # the steady-state marker is the single circle element
    parts.append(f'<circle cx="{_fmt(view.px(steady.log_k_star))}" '
                 f'cy="{_fmt(view.py(steady.log_c_star))}" r="4" '
                 f'fill="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path

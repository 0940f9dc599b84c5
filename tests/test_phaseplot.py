"""Deterministic phase-plane SVG rendering."""

import numpy as np

from econlab import BASELINE, Grid, saddle_path_linear, simulate, steady_state
from econlab.phaseplot import render_phase_svg


def _sample_trajectories():
    p = BASELINE
    ss = steady_state(p)
    g = Grid(0.0, 30.0, 300)
    k0 = 0.9 * ss.k_star
    near = simulate(p, k0, saddle_path_linear(p, k0), g)
    at = simulate(p, ss.k_star, ss.c_star, g)
    return p, [near, at]


def test_svg_structure(tmp_path):
    p, trajs = _sample_trajectories()
    out = tmp_path / "phase.svg"
    render_phase_svg(trajs, p, str(out))
    text = out.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 1  # the steady-state marker
    assert text.count("<polyline") >= len(trajs)
    assert "dasharray" in text  # the loci


def test_svg_bytes_are_reproducible(tmp_path):
    p, trajs = _sample_trajectories()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_phase_svg(trajs, p, str(a))
    render_phase_svg(trajs, p, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_svg_handles_degenerate_extent(tmp_path):
    # a single steady trajectory collapses the data range
    p, trajs = _sample_trajectories()
    out = tmp_path / "flat.svg"
    render_phase_svg([trajs[1]], p, str(out))
    text = out.read_text(encoding="utf-8")
    assert "nan" not in text and "inf" not in text

"""Integrator, quadrature, differencing and root-finding checks."""

import math
import sys

import numpy as np
import pytest

from econlab import (BracketError, ConvergenceError, DivergenceError,
                     DomainError, Grid, Trajectory, bisect,
                     central_diff_gradient, cumulative_simpson, march,
                     rk4_integrate, simpson)


def test_grid_properties():
    g = Grid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_rejects_bad_bounds_and_steps():
    with pytest.raises(DomainError):
        Grid(1.0, 1.0, 5)
    with pytest.raises(DomainError):
        Grid(0.0, -1.0, 5)
    with pytest.raises(DomainError):
        Grid(0.0, 1.0, 0)


def test_trajectory_shape_validation():
    g = Grid(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        Trajectory(g, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        Trajectory(g, np.array([[0.0], [1.0], [np.nan]]))
    traj = Trajectory(g, np.zeros((3, 2)))
    assert traj.labels == ("x0", "x1")
    assert np.allclose(traj.times, g.times)


def test_rk4_integrate_is_fourth_order():
    # one step of x' = x from 1: error against e^h shrinks like h^5
    f = lambda t, x: x
    errs = []
    for h in (0.1, 0.05):
        traj = rk4_integrate(f, 1.0, Grid(0.0, h, 1))
        errs.append(abs(traj.states[-1, 0] - math.exp(h)))
    assert errs[0] / errs[1] > 25.0


def test_rk4_integrate_matches_exponential():
    g = Grid(0.0, 2.0, 200)
    traj = rk4_integrate(lambda t, x: x, 1.0, g)
    assert abs(traj.states[-1, 0] - math.exp(2.0)) < 1.0e-8


def test_march_oscillator_conserves_energy():
    record = []
    step, _, out = march(lambda x, y: (y, -x), 1.0, 0.0, 0.01, 2000,
                         record=record)
    assert (step, out) == (2000, None)
    assert len(record) == step + 1
    energy = np.array([x * x + y * y for x, y in record])
    assert np.max(np.abs(energy - 1.0)) < 1.0e-9


def test_march_start_outside_the_box_stops_at_step_zero():
    record = []
    start = (3.0, 0.5)
    assert march(lambda x, y: (x, y), *start, 0.1, 10, centre=(0.0, 0.0),
                 bound=(2.0, 2.0), record=record) == (0, start, start)
    assert record == []


def test_march_returns_the_last_state_inside_the_box():
    # x' = x from 1 leaves |x| <= 2 after ln 2 / 0.1 ~ 6.9 steps; y
    # stays put, and only x has a finite bound
    record = []
    step, last, out = march(lambda x, y: (x, 0.0), 1.0, 7.0, 0.1, 100,
                            bound=(2.0, sys.float_info.max), record=record)
    assert step == 7
    assert len(record) == step  # steps 0 to 6 stayed inside
    assert last == record[-1] and abs(last[0]) <= 2.0 and last[1] == 7.0
    assert out[0] > 2.0 and out[1] == 7.0


def test_rk4_divergence_reports_component_and_direction():
    # x' = x**3 from a negative start reaches -infinity in finite time
    g = Grid(0.0, 2.0, 4000)
    with pytest.raises(DivergenceError) as exc:
        rk4_integrate(lambda t, x: x ** 3, -1.1, g)
    err = exc.value
    assert err.component == 0
    assert err.direction == -1.0
    assert 0 < err.step_index <= g.steps


def test_rk4_integrate_rejects_a_start_past_the_limit():
    with pytest.raises(DomainError):
        rk4_integrate(lambda t, x: x, 1.0e13, Grid(0.0, 1.0, 10))


def test_simpson_is_exact_for_cubics():
    val = simpson(lambda x: x ** 3 - 2.0 * x, -1.0, 3.0, panels=2)
    exact = (3.0 ** 4 - 1.0) / 4.0 - (3.0 ** 2 - 1.0)
    assert abs(val - exact) < 1.0e-12


def test_simpson_converges_on_sine():
    coarse = abs(simpson(math.sin, 0.0, math.pi, panels=64) - 2.0)
    fine = abs(simpson(math.sin, 0.0, math.pi, panels=128) - 2.0)
    assert fine < 1.0e-8
    assert coarse / fine > 12.0  # fourth-order convergence


def test_simpson_degenerate_and_validation():
    assert simpson(math.sin, 1.0, 1.0, panels=2) == 0.0
    with pytest.raises(DomainError):
        simpson(math.sin, 0.0, 1.0, panels=3)
    with pytest.raises(DomainError):
        simpson(math.sin, 1.0, 0.0, panels=2)


def test_cumulative_simpson_matches_antiderivative():
    for n in (200, 201):
        t = np.linspace(0.0, 2.0 * math.pi, n)
        out = cumulative_simpson(np.cos(t), t[1] - t[0])
        assert out[0] == 0.0
        assert np.max(np.abs(out - np.sin(t))) < 1.0e-7


def test_cumulative_simpson_final_value_matches_simpson():
    t = np.linspace(0.0, 1.0, 101)
    g = lambda x: np.exp(-x * x)
    out = cumulative_simpson(g(t), t[1] - t[0])
    assert abs(out[-1] - simpson(lambda x: math.exp(-x * x), 0.0, 1.0, 100)) < 1.0e-12


def test_cumulative_simpson_equals_the_panel_loop():
    def panel_loop(f, dt):
        n = f.size
        out = np.zeros(n)
        even_end = n - 1 if (n - 1) % 2 == 0 else n - 2
        for m in range(0, even_end, 2):
            out[m + 1] = out[m] + dt / 12.0 * (5.0 * f[m] + 8.0 * f[m + 1] - f[m + 2])
            out[m + 2] = out[m] + dt / 3.0 * (f[m] + 4.0 * f[m + 1] + f[m + 2])
        if even_end != n - 1:
            out[n - 1] = out[n - 2] + dt / 12.0 * (
                -f[n - 3] + 8.0 * f[n - 2] + 5.0 * f[n - 1])
        return out

    rng = np.random.default_rng(3)
    for n in range(3, 61):
        f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        dt = rng.uniform(0.01, 1.0)
        assert np.array_equal(cumulative_simpson(f, dt), panel_loop(f, dt))


def test_cumulative_simpson_validation():
    with pytest.raises(DomainError):
        cumulative_simpson(np.array([1.0, 2.0]), 0.1)
    with pytest.raises(DomainError):
        cumulative_simpson(np.array([1.0, 2.0, 3.0]), 0.0)


def test_central_diff_gradient_on_quadratic():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = lambda x: float(x @ a @ x)
    x = np.array([0.7, -1.3])
    assert np.max(np.abs(central_diff_gradient(g, x) - 2.0 * a @ x)) < 1.0e-8


def test_central_diff_gradient_scales_step_with_argument():
    # at x = 1e8 an absolute step of 1e-5 would be lost to rounding
    g = lambda x: float(x[0] ** 2)
    grad = central_diff_gradient(g, np.array([1.0e8]))
    assert abs(grad[0] - 2.0e8) / 2.0e8 < 1.0e-9


def test_bisect_finds_cosine_root():
    root = bisect(math.cos, 1.0, 2.0, tol=1.0e-12)
    assert abs(root - math.pi / 2.0) < 1.0e-11


def test_bisect_returns_exact_endpoint_zero():
    assert bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_requires_sign_change():
    with pytest.raises(BracketError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_iteration_cap():
    with pytest.raises(ConvergenceError):
        bisect(math.cos, 1.0, 2.0, tol=1.0e-13, max_iter=3)


def test_bisect_stops_at_adjacent_floats():
    # a tolerance below one ulp of the root cannot be met by halving;
    # the bracket collapses onto two neighbouring floats instead
    root = bisect(math.cos, 1.0, 2.0, tol=1.0e-300)
    assert abs(root - math.pi / 2.0) < 1.0e-15

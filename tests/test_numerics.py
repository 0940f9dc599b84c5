"""Integrator, quadrature, differencing and root-finding checks."""

import math

import numpy as np
import pytest

from econlab import (BracketError, ConvergenceError, DivergenceError,
                     DomainError, Grid, Trajectory, bisect,
                     central_diff_gradient, cumulative_simpson, rk4_integrate,
                     rk4_step, simpson)


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


def test_rk4_step_is_fourth_order():
    # one step of x' = x from 1: error against e^h shrinks like h^5
    f = lambda t, x: x
    errs = []
    for h in (0.1, 0.05):
        out = rk4_step(f, 0.0, np.array([1.0]), h)
        errs.append(abs(out[0] - math.exp(h)))
    assert errs[0] / errs[1] > 25.0


def test_rk4_integrate_matches_exponential():
    g = Grid(0.0, 2.0, 200)
    traj = rk4_integrate(lambda t, x: x, np.array([1.0]), g)
    assert abs(traj.states[-1, 0] - math.exp(2.0)) < 1.0e-8


def test_rk4_integrate_oscillator_conserves_energy():
    g = Grid(0.0, 20.0, 2000)
    f = lambda t, x: np.array([x[1], -x[0]])
    traj = rk4_integrate(f, np.array([1.0, 0.0]), g)
    energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1.0e-9


def test_rk4_integrate_labels_travel_with_trajectory():
    g = Grid(0.0, 1.0, 10)
    traj = rk4_integrate(lambda t, x: -x, np.array([1.0, 2.0]), g,
                         labels=("a", "b"))
    assert traj.labels == ("a", "b")


def test_rk4_divergence_reports_component_and_direction():
    # x' = x**3 from a negative start reaches -infinity in finite time
    g = Grid(0.0, 2.0, 4000)
    with pytest.raises(DivergenceError) as exc:
        rk4_integrate(lambda t, x: x ** 3, np.array([-1.1]), g)
    err = exc.value
    assert err.component == 0
    assert err.direction == -1.0
    assert 0 < err.step_index <= g.steps


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

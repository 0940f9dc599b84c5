"""Fixed-step numerical kernels: RK4 integration, Simpson quadrature,
central-difference gradients, and scalar bisection.

Everything here is deterministic: fixed step counts, no adaptivity, so
repeated runs produce bit-identical trajectories.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ConvergenceError, DivergenceError, DomainError

# State magnitude beyond which an integration is declared blown up.
DIVERGENCE_LIMIT = 1.0e12


@dataclass(frozen=True)
class Grid:
    """Uniform time grid on [t0, t1] with `steps` RK4 steps (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise DomainError("grid endpoints must be finite")
        if self.t1 <= self.t0:
            raise DomainError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise DomainError(f"need steps >= 1, got {self.steps}")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass
class Trajectory:
    """States sampled on a Grid: states[j] is the state at times[j]."""

    grid: Grid
    states: np.ndarray
    labels: tuple = field(default=())

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2:
            raise DomainError("states must be a 2-D array (nodes x components)")
        if self.states.shape[0] != self.grid.steps + 1:
            raise DomainError(
                f"states has {self.states.shape[0]} rows, grid has "
                f"{self.grid.steps + 1} nodes")
        if not self.labels:
            self.labels = tuple(f"x{i}" for i in range(self.states.shape[1]))
        self.labels = tuple(self.labels)
        if len(self.labels) != self.states.shape[1]:
            raise DomainError("one label per state component required")
        if not np.all(np.isfinite(self.states)):
            raise DomainError("trajectory states must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def _blown_component(x):
    """Index/direction of the first non-finite or over-limit component, or None."""
    for i, v in enumerate(x):
        if not np.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
            if v > 0:
                return i, 1.0
            if v < 0:
                return i, -1.0
            return i, 0.0  # nan
    return None


def rk4_step(f, t, x, h):
    """One classic Runge-Kutta 4 step from (t, x) with step h."""
    k1 = np.asarray(f(t, x), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(f, x0, grid: Grid, labels=()) -> Trajectory:
    """Integrate x' = f(t, x) over the grid with classic fixed-step RK4.

    f maps (time, state array) to the state derivative.  Raises
    DivergenceError (with the failing step index, component and sign)
    as soon as a state component is non-finite or exceeds 1e12 in
    magnitude.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.ndim != 1:
        raise DomainError("x0 must be a scalar or 1-D state")
    bad = _blown_component(x)
    if bad is not None:
        raise DomainError("x0 must be finite and below the divergence limit")
    times = grid.times
    h = grid.h
    out = np.empty((grid.steps + 1, x.size))
    out[0] = x
    for j in range(grid.steps):
        x = rk4_step(f, times[j], x, h)
        bad = _blown_component(x)
        if bad is not None:
            comp, direction = bad
            raise DivergenceError(
                f"integration diverged at step {j + 1} "
                f"(component {comp}, direction {direction:+.0f})",
                step_index=j + 1, component=comp, direction=direction)
        out[j + 1] = x
    return Trajectory(grid, out, labels)


def simpson(g, a, b, panels) -> float:
    """Composite Simpson integral of g over [a, b] with an even panel count."""
    if panels < 2 or panels % 2 != 0:
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    if not (np.isfinite(a) and np.isfinite(b)) or b < a:
        raise DomainError(f"need finite a <= b, got [{a}, {b}]")
    if b == a:
        return 0.0
    xs = np.linspace(a, b, panels + 1)
    ys = np.array([g(x) for x in xs], dtype=float)
    return simpson_samples(ys, (b - a) / panels)


def simpson_samples(ys, h) -> float:
    """Composite Simpson integral of values sampled at spacing h; needs
    an even number of intervals."""
    if (ys.size - 1) % 2 != 0:
        raise DomainError("need an even number of grid steps")
    return (h / 3.0) * (ys[0] + ys[-1]
                        + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def cumulative_simpson(samples, dt) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, Simpson order.

    Node 0 gets 0.  Even prefixes use composite Simpson; odd prefixes
    close with the half-panel parabola rule, keeping O(h^4) accuracy
    everywhere.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise DomainError("need a 1-D array of at least 3 samples")
    if dt <= 0:
        raise DomainError("dt must be positive")
    n = f.size
    out = np.zeros(n)
    # pairs of intervals [2m, 2m+2]
    even_end = n - 1 if (n - 1) % 2 == 0 else n - 2
    for m in range(0, even_end, 2):
        out[m + 1] = out[m] + dt / 12.0 * (5.0 * f[m] + 8.0 * f[m + 1] - f[m + 2])
        out[m + 2] = out[m] + dt / 3.0 * (f[m] + 4.0 * f[m + 1] + f[m + 2])
    if even_end != n - 1:
        # odd interval count: close the last interval backward
        out[n - 1] = out[n - 2] + dt / 12.0 * (
            -f[n - 3] + 8.0 * f[n - 2] + 5.0 * f[n - 1])
    return out


def central_diff_gradient(g, x, h=1.0e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    The step for component i is h * max(1, |x_i|) so the stencil stays
    well scaled for both small and large coordinates.
    """
    if h <= 0:
        raise DomainError(f"step must be positive, got {h}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = h * np.maximum(1.0, np.abs(x))
    grad = np.empty(x.size)
    for i in range(x.size):
        d = np.zeros(x.size)
        d[i] = steps[i]
        grad[i] = (g(x + d) - g(x - d)) / (2.0 * steps[i])
    return grad


def bisect(g, lo, hi, tol=1.0e-12, max_iter=200) -> float:
    """Bisection root of g on [lo, hi]; needs a sign change at the ends.

    Returns the bracket midpoint once the bracket width is <= tol, or
    once the ends are adjacent floats and no midpoint lies between them.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    f_lo = g(lo)
    f_hi = g(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={f_lo}, g(hi)={f_hi}")
    for _ in range(max_iter):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise ConvergenceError(
        f"bisection bracket still {hi - lo:.3e} wide after {max_iter} iterations")

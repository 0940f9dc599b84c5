"""Ramsey growth model in log coordinates: steady state, linearization,
saddle path by reverse and forward shooting, and the household-side
optimality diagnostics (first-order conditions, budget identity,
transversality).

State is (log k, log c) with k, c per unit of effective labor.  The
capital row of the vector field is output minus consumption minus
effective depreciation; the consumption row is the Euler equation.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import crra
from .errors import (BracketError, ConvergenceError, DivergenceError,
                     DomainError, HorizonError, InfeasibleParametersError,
                     NotDiagonalizableError, StabilityStructureError)
from .matgeo import EigenDecomp2, eig2
from .numerics import (Grid, Trajectory, bisect, central_diff_gradient,
                       cumulative_simpson, march, simpson_samples)

# log-deviation from the steady state beyond which a path is classified
# as blown up (by simulate and the shooting bisection)
_BLOWUP_DEV = 5.0


@dataclass(frozen=True)
class RamseyParams:
    """Technology and preference parameters.

    A_tfp: total factor productivity; alpha: capital share; theta:
    relative risk aversion; delta: depreciation; alpha_L: population
    growth; alpha_T: labor-augmenting technical progress; rho: time
    preference.  Construction enforces positivity, alpha < 1 and the
    effective-discount condition rho - alpha_L - (1-theta) alpha_T > 0.
    """

    A_tfp: float
    alpha: float
    theta: float
    delta: float
    alpha_L: float
    alpha_T: float
    rho: float

    def __post_init__(self):
        for name in ("A_tfp", "alpha", "theta", "delta",
                     "alpha_L", "alpha_T", "rho"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be positive, got {v}")
        if self.alpha >= 1.0:
            raise DomainError(f"alpha must be below 1, got {self.alpha}")
        eff = _eff_discount(self)
        if eff <= 0.0:
            raise InfeasibleParametersError(
                "effective discount rate rho - alpha_L - (1-theta)*alpha_T "
                f"must be positive, got {eff}")


def _mp_target(p: RamseyParams) -> float:
    # steady-state marginal product: delta + rho + theta * alpha_T
    return p.delta + p.rho + p.theta * p.alpha_T


def _eff_dep(p: RamseyParams) -> float:
    # effective depreciation of k: delta + alpha_L + alpha_T
    return p.delta + p.alpha_L + p.alpha_T


def _eff_discount(p: RamseyParams) -> float:
    # effective discount rate: rho - alpha_L - (1 - theta) * alpha_T
    return p.rho - p.alpha_L - (1.0 - p.theta) * p.alpha_T


#: illustrative classroom calibration, not an estimate of anything
BASELINE = RamseyParams(A_tfp=1.0, alpha=0.3, theta=2.0, delta=0.05,
                        alpha_L=0.01, alpha_T=0.02, rho=0.03)


def _check_k(k):
    if not math.isfinite(k) or k <= 0.0:
        raise DomainError(f"capital must be positive, got {k}")


def production(p: RamseyParams, k: float) -> float:
    """f(k) = A k^alpha."""
    _check_k(k)
    return p.A_tfp * k ** p.alpha


def production_mp(p: RamseyParams, k: float) -> float:
    """f'(k) = alpha A k^(alpha-1)."""
    _check_k(k)
    return p.alpha * p.A_tfp * k ** (p.alpha - 1.0)


@dataclass(frozen=True)
class SteadyState:
    k_star: float
    c_star: float

    @property
    def log_k_star(self) -> float:
        return math.log(self.k_star)

    @property
    def log_c_star(self) -> float:
        return math.log(self.c_star)


def k_nullcline(p: RamseyParams, k: float) -> float:
    """Consumption on the d log k / dt = 0 locus: output net of effective
    depreciation, A k^alpha - (delta+alpha_L+alpha_T) k."""
    return production(p, k) - _eff_dep(p) * k


def steady_state(p: RamseyParams) -> SteadyState:
    """Closed-form rest point of the vector field.

    k* solves alpha A k^(alpha-1) = delta + rho + theta*alpha_T; c* is
    k_nullcline at k*.  Parameters that leave no positive consumption,
    or put k* or c* outside the floating-point range, raise
    InfeasibleParametersError.  A field residual there (roundoff) above
    1e-10 x max(1, largest term of the field) raises ConvergenceError;
    that term is t/alpha or t/theta, t = delta + rho + theta*alpha_T.
    """
    try:
        k_star = (_mp_target(p) / (p.alpha * p.A_tfp)) ** (1.0 / (p.alpha - 1.0))
    except OverflowError:
        k_star = math.inf
    if not 0.0 < k_star < math.inf:
        raise InfeasibleParametersError(
            "steady-state capital is outside the floating-point range "
            f"(k*={k_star})")
    c_star = k_nullcline(p, k_star)
    if not math.isfinite(c_star):
        raise InfeasibleParametersError(
            "steady-state consumption is outside the floating-point range "
            f"(c*={c_star})")
    if c_star <= 0.0:
        raise InfeasibleParametersError(
            f"steady-state consumption is not positive (c*={c_star})")
    ss = SteadyState(k_star, c_star)
    bar = 1.0e-10 * max(1.0, _mp_target(p) / min(p.alpha, p.theta))
    if np.max(np.abs(rhs(p, ss.log_k_star, ss.log_c_star))) > bar:
        raise ConvergenceError("vector field does not vanish at the "
                               "closed-form steady state")
    return ss


def rhs(p: RamseyParams, log_k: float, log_c: float) -> np.ndarray:
    """Vector field of (log k, log c), written in exponential form.

    d log k / dt = A e^((alpha-1) log k) - e^(log c - log k) - (delta+alpha_L+alpha_T)
    d log c / dt = (1/theta) (alpha A e^((alpha-1) log k) - (delta+rho+theta*alpha_T))

    Evaluated by _field, like the integrators: both exponents are clipped
    at 700, so far-off states give large finite values, never overflow.
    """
    return np.array(_field(p)(log_k, log_c))


def jacobian_closed(p: RamseyParams) -> np.ndarray:
    """Jacobian of the vector field at the steady state, closed form."""
    a11 = _eff_discount(p)
    a12 = _eff_dep(p) - _mp_target(p) / p.alpha
    a21 = (p.alpha - 1.0) / p.theta * _mp_target(p)
    return np.array([[a11, a12], [a21, 0.0]])


def is_diagonalizable(p: RamseyParams) -> bool:
    """Whether eig2 finds two independent eigenvectors of jacobian_closed."""
    try:
        eigen_closed(p)
    except NotDiagonalizableError:
        return False
    return True


def eigen_closed(p: RamseyParams) -> EigenDecomp2:
    """Eigen-decomposition of the steady-state Jacobian: eig2 on the
    closed-form jacobian_closed, so lambda1 >= lambda2 and each
    eigenvector has largest component +1.

    a12 < 0 and a21 < 0 for every accepted RamseyParams, so the
    discriminant a11^2 + 4 a12 a21 exceeds a11^2 > 0: a real saddle.
    """
    return eig2(jacobian_closed(p))


@dataclass
class LinearizedSystem:
    """Jacobian, steady state and eigen-structure bundled for display."""

    jac: np.ndarray
    steady: SteadyState
    eigen: EigenDecomp2

    def __post_init__(self):
        self.jac = np.asarray(self.jac, dtype=float)
        if self.jac[1, 1] != 0.0:
            raise DomainError("a22 must be exactly zero")
        for lam, v in ((self.eigen.lambda1, self.eigen.v1),
                       (self.eigen.lambda2, self.eigen.v2)):
            if np.max(np.abs(self.jac @ v - lam * v)) > 1.0e-9:
                raise DomainError("eigenpair does not satisfy J v = lambda v")


def linearize(p: RamseyParams) -> LinearizedSystem:
    return LinearizedSystem(jacobian_closed(p), steady_state(p), eigen_closed(p))


def linearized_solution(p: RamseyParams, z0: float, w0: float, t) -> np.ndarray:
    """Deviation (z, w) = (log k - log k*, log c - log c*) at time t for
    the linearized dynamics, via the eigen-decomposition.

    Accepts a scalar t (returns shape (2,)) or an array of times
    (returns shape (2, len(t)))."""
    d = eigen_closed(p)
    coeffs = d.P_inv @ np.array([z0, w0])
    t = np.asarray(t, dtype=float)
    return (coeffs[0] * np.multiply.outer(d.v1, np.exp(d.lambda1 * t))
            + coeffs[1] * np.multiply.outer(d.v2, np.exp(d.lambda2 * t)))


def _require_saddle(d: EigenDecomp2):
    if not (d.lambda1 > 0.0 > d.lambda2):
        raise StabilityStructureError(
            f"not a saddle: eigenvalue signs ({np.sign(d.lambda1):+.0f}, "
            f"{np.sign(d.lambda2):+.0f})",
            signs=(float(np.sign(d.lambda1)), float(np.sign(d.lambda2))))


def _stable_arm(p: RamseyParams):
    """Steady state and slope s = v2_c / v2_k of the linear stable arm
    log c - log c* = s (log k - log k*), v2 the stable eigenvector; an
    infeasible steady state is reported before a missing saddle."""
    ss = steady_state(p)
    d = eigen_closed(p)
    _require_saddle(d)
    if d.v2[0] == 0.0:
        raise StabilityStructureError(
            "stable eigenvector has no capital component", signs=None)
    return ss, d.v2[1] / d.v2[0]


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _saddle_c0(log_c0: float) -> float:
    """Saddle-path consumption e^log_c0; InfeasibleParametersError when
    it overflows or is subnormal (too few significant bits to print)."""
    c0 = math.exp(log_c0) if log_c0 <= _LOG_FLOAT_MAX else math.inf
    if not sys.float_info.min <= c0 < math.inf:
        raise InfeasibleParametersError(
            "saddle-path consumption is outside the floating-point range "
            f"(log c0 = {log_c0:.6g})")
    return c0


def saddle_path_linear(p: RamseyParams, k0: float) -> float:
    """Initial consumption on the linear stable arm at capital k0,
    log c0 = log c* + s (log k0 - log k*) (see _stable_arm); a c0
    outside the floating-point range raises InfeasibleParametersError."""
    _check_k(k0)
    ss, s = _stable_arm(p)
    return _saddle_c0(ss.log_c_star + s * (math.log(k0) - ss.log_k_star))


def _field(p: RamseyParams):
    """Scalar closure for the vector field, exponents clipped so the
    stepper can overshoot past the blow-up threshold without overflow."""
    a_tfp = p.A_tfp
    am1 = p.alpha - 1.0
    dep = _eff_dep(p)
    aa = p.alpha * a_tfp
    target = _mp_target(p)
    inv_theta = 1.0 / p.theta

    def f(lk, lc):
        e1 = math.exp(min(am1 * lk, 700.0))
        e2 = math.exp(min(lc - lk, 700.0))
        return a_tfp * e1 - e2 - dep, inv_theta * (aa * e1 - target)

    return f


def _blowup(last, centre, slope):
    """(side, component, direction) of a path that left the box around
    `centre`, read from `last`, its last state inside: the step that
    crossed can overshoot by hundreds of log units, and the clipped
    exponentials then throw log k to the wrong sign.  The side is the
    sign of dc - slope * dk against the arm through the centre, which
    stays right where a too-generous c0 far above k* crashes capital
    with log c still below log c*: c-side (consumption too high,
    capital crashes) or k-side (too low, consumption collapses).
    """
    dk, dc = last[0] - centre[0], last[1] - centre[1]
    side = "c-side" if dc - slope * dk > 0.0 else "k-side"
    comp = 0 if abs(dk) >= abs(dc) else 1
    return side, comp, math.copysign(1.0, dk if comp == 0 else dc)


def simulate(p: RamseyParams, k0: float, c0: float, grid: Grid) -> Trajectory:
    """RK4 trajectory of (log k, log c) from (k0, c0) over the grid.

    A log deviation beyond 5 from the steady state terminates the run
    with DivergenceError; the error carries the side classification
    ("c-side": consumption above the stable arm, "k-side": below it)
    and the truncated trajectory in .partial.
    """
    _check_k(k0)
    if not math.isfinite(c0) or c0 <= 0.0:
        raise DomainError(f"c0 must be positive, got {c0}")
    ss, s = _stable_arm(p)
    centre = (ss.log_k_star, ss.log_c_star)
    record = []
    step, last, out = march(_field(p), math.log(k0), math.log(c0), grid.h,
                            grid.steps, centre, (_BLOWUP_DEV, _BLOWUP_DEV),
                            record)
    labels = ("log_k", "log_c")
    if out is None:
        return Trajectory(grid, np.array(record), labels)
    side, comp, direction = _blowup(last, centre, s)
    # keep the crossing state only while it stays representable: one
    # step near blow-up can overshoot by hundreds of log units, which
    # downstream exponentials cannot absorb
    if all(abs(x - c) <= 10.0 * _BLOWUP_DEV for x, c in zip(out, centre)):
        record.append(out)
    n = len(record) - 1
    partial = (Trajectory(Grid(grid.t0, grid.t0 + n * grid.h, n),
                          np.array(record), labels) if n >= 1 else None)
    message = (f"trajectory blew up at step {step} ({side}, component {comp})"
               if step else
               f"initial state already beyond the blow-up threshold ({side})")
    raise DivergenceError(message, step_index=step, component=comp,
                          direction=direction, side=side, partial=partial)


def _shooting_setup(p: RamseyParams, k0: float, tol: float):
    """Steady state and linear-arm slope s from _stable_arm, after the
    checks both shooting methods share: a saddle, k0 within [0.05, 5] x
    k*, a positive tol."""
    ss, s = _stable_arm(p)
    if not 0.05 * ss.k_star <= k0 <= 5.0 * ss.k_star:
        raise DomainError(
            f"k0 must lie within [0.05, 5] x k* = [{0.05 * ss.k_star:.6g}, "
            f"{5.0 * ss.k_star:.6g}], got {k0}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    return ss, s


# reverse shooting: distance in log k of the start point from the
# steady state, and the most RK4 steps it doubles up to
_ARM_EPS = 1.0e-6
_REVERSE_MAX_STEPS = 2 ** 16


def shoot_reverse(p: RamseyParams, k0: float, tol: float) -> float:
    """Saddle-path initial consumption by reverse shooting along the
    stable arm (Judd 1998, ch. 10.7; Brunner & Strulik 2002).

    Starts on the linear arm at (log k* + z, log c* + s z), z = +-1e-6
    on k0's side, and steps the time-eliminated arm d log c / d log k
    = (d log c/dt) / (d log k/dt) in log k with numerics.march, the RK4
    stepper of simulate, so the integration ends exactly at log k0: no
    bracket, horizon or interpolation.  The step count starts at 8 and doubles
    until two successive answers differ by at most tol (absolute on c0)
    or the difference stops shrinking (the roundoff floor); past 2^16
    steps it raises ConvergenceError.  Within 1e-6 of log k* the linear
    arm is returned.  A returned c0 outside the floating-point range
    raises InfeasibleParametersError.
    """
    ss, s = _shooting_setup(p, k0, tol)
    dist = math.log(k0) - ss.log_k_star
    if abs(dist) <= _ARM_EPS:
        return saddle_path_linear(p, k0)
    z = math.copysign(_ARM_EPS, dist)
    lk_start = ss.log_k_star + z
    lc_start = ss.log_c_star + s * z
    span = math.log(k0) - lk_start
    sign = math.copysign(1.0, span)
    f = _field(p)

    def arm(lk, lc):
        # the arm as a planar system in x, the distance travelled in log k
        dk, dc = f(lk, lc)
        return sign, sign * dc / dk

    prev = prev_gap = None
    steps = 8
    while steps <= _REVERSE_MAX_STEPS:
        step, (_, lc), out = march(arm, lk_start, lc_start,
                                   abs(span) / steps, steps)
        if out is not None:
            raise DivergenceError(f"reverse shooting diverged at step {step}",
                                  step, 1, math.copysign(1.0, out[1]))
        # a coarse step count may overflow where a finer one does not:
        # only the answer returned goes through _saddle_c0
        c0 = math.exp(lc) if lc <= _LOG_FLOAT_MAX else math.inf
        if prev is not None:
            gap = abs(c0 - prev)
            if gap <= tol or (prev_gap is not None and gap >= prev_gap):
                return _saddle_c0(lc)
            prev_gap = gap
        prev = c0
        steps *= 2
    raise ConvergenceError(
        f"reverse shooting not converged: c0 still moves by {prev_gap:.3e} "
        f"at {_REVERSE_MAX_STEPS} RK4 steps, tol {tol:.3e}")


# forward shooting's horizon and RK4 step: 10000 steps per trial
_SHOOT_T_MAX = 500.0
_SHOOT_DT = 0.05


def shoot_nonlinear(p: RamseyParams, k0: float, tol: float) -> float:
    """Saddle-path initial consumption by forward bisection on c0, the
    independent reference for shoot_reverse.

    Each trial integrates forward until the blow-up classifier fires:
    c-side means c0 was too high, k-side too low.  A trial still
    unclassified at _SHOOT_T_MAX raises HorizonError.  The bracket starts
    at [1e-6, production(k0)] and narrows until its width is <= tol.
    """
    ss, slope = _shooting_setup(p, k0, tol)
    centre = (ss.log_k_star, ss.log_c_star)
    lk0 = math.log(k0)
    nsteps = int(math.ceil(_SHOOT_T_MAX / _SHOOT_DT))
    h = _SHOOT_T_MAX / nsteps
    f = _field(p)

    def classify(c0):
        _, last, out = march(f, lk0, math.log(c0), h, nsteps, centre,
                             (_BLOWUP_DEV, _BLOWUP_DEV))
        if out is None:
            raise HorizonError(
                f"trial c0={c0} not classified within t_max={_SHOOT_T_MAX}")
        return _blowup(last, centre, slope)[0]

    lo, hi = 1.0e-6, production(p, k0)
    if hi <= lo:
        raise BracketError(f"production at k0 ({hi}) below the bracket floor")
    if classify(lo) != "k-side":
        raise BracketError(f"lower bracket end c0={lo} is not k-side")
    if classify(hi) != "c-side":
        raise BracketError(f"upper bracket end c0={hi} is not c-side")
    return bisect(lambda c0: 1.0 if classify(c0) == "c-side" else -1.0,
                  lo, hi, tol, max_iter=300)


# ---------------------------------------------------------------------------
# household side: prices, Hamiltonian, budget and transversality


def firm_foc_r(p: RamseyParams, k: float) -> float:
    """Interest rate from the firm's first-order condition, r = f'(k) - delta."""
    return production_mp(p, k) - p.delta


def wage(p: RamseyParams, k: float, t: float) -> float:
    """Wage per unit of raw labor: e^(alpha_T t) (f(k) - f'(k) k)."""
    return math.exp(p.alpha_T * t) * (production(p, k) - production_mp(p, k) * k)


def firm_prices(p: RamseyParams, k, t):
    """Prices along a path (arrays k, t): r = f'(k) - delta and the wage
    per unit of raw labor e^(alpha_T t) (1-alpha) f(k)."""
    r = p.alpha * p.A_tfp * k ** (p.alpha - 1.0) - p.delta
    w = np.exp(p.alpha_T * t) * (1.0 - p.alpha) * p.A_tfp * k ** p.alpha
    return r, w


def _u_spec(p: RamseyParams) -> crra.CrraSpec:
    # normalized flow utility: (x^(1-theta) - 1)/(1-theta), log at theta=1
    if abs(p.theta - 1.0) <= 1.0e-12:
        return crra.CrraSpec(theta=p.theta, k0=1.0, k1=0.0)
    return crra.CrraSpec(theta=p.theta, k0=1.0, k1=-1.0 / (1.0 - p.theta))


def hamiltonian(p: RamseyParams, t: float, a: float, c: float, nu: float,
                r: float, w: float) -> float:
    """Present-value Hamiltonian of the household problem.

    u(c) e^{-(rho - alpha_L) t} + nu (w + (r - alpha_L) a - c), with the
    prices r and w taken as given (so the expression stays linear in
    the asset position a).
    """
    u = crra.utility(_u_spec(p), c)
    return u * math.exp(-(p.rho - p.alpha_L) * t) + nu * (w + (r - p.alpha_L) * a - c)


def foc_c_residual(p: RamseyParams, t: float, c: float, nu: float) -> float:
    """dH/dc = e^{-(rho-alpha_L) t} u'(c) - nu; zero along an optimum."""
    up = crra.marginal(_u_spec(p), c)
    return math.exp(-(p.rho - p.alpha_L) * t) * up - nu


@dataclass
class HouseholdPath:
    """Per-capita series on a grid: assets, consumption, costate, prices."""

    grid: Grid
    a: np.ndarray
    c: np.ndarray
    nu: np.ndarray
    r: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = self.grid.steps + 1
        for name in ("a", "c", "nu", "r", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DomainError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
            setattr(self, name, arr)


def assets_path(a0: float, r_fn, w_fn, c_fn, alpha_L: float,
                grid: Grid) -> np.ndarray:
    """Asset position by variation of constants.

    a(t) = e^{I(t)} (a0 + int_0^t (w - c) e^{-I(s)} ds) with
    I(t) = int_0^t (r - alpha_L); all integrals by cumulative Simpson on
    a half-step lattice of the grid.
    """
    if not math.isfinite(a0):
        raise DomainError("a0 must be finite")
    fine_t = np.linspace(grid.t0, grid.t1, 2 * grid.steps + 1)
    dt_fine = grid.h / 2.0
    rate = np.array([r_fn(t) - alpha_L for t in fine_t])
    bigI = cumulative_simpson(rate, dt_fine)
    flow = np.array([w_fn(t) - c_fn(t) for t in fine_t]) * np.exp(-bigI)
    inner = cumulative_simpson(flow, dt_fine)
    a = np.exp(bigI) * (a0 + inner)
    return a[::2]


def budget_identity_residual(path: HouseholdPath, alpha_L: float) -> float:
    """Lifetime budget gap: discounted terminal assets plus discounted
    consumption minus initial assets minus discounted wages.

    Zero (to quadrature error) for any path whose assets actually obey
    the flow constraint.  Requires an even number of grid steps.
    """
    h = path.grid.h
    bigI = cumulative_simpson(path.r - alpha_L, h)
    disc = np.exp(-bigI)
    pv_c = simpson_samples(path.c * disc, h)
    pv_w = simpson_samples(path.w * disc, h)
    return float(path.a[-1] * disc[-1] + pv_c - path.a[0] - pv_w)


def euler_residual(p: RamseyParams, traj: Trajectory) -> np.ndarray:
    """Per-node gap between measured consumption growth and the Euler
    equation (1/theta)(alpha A k^(alpha-1) - delta - rho - theta alpha_T).

    Consumption growth is the central difference of log c (second-order
    one-sided stencils at the ends).
    """
    if traj.states.shape[1] != 2:
        raise DomainError("expected a (log k, log c) trajectory")
    if traj.states.shape[0] < 3:
        raise DomainError("need at least 3 nodes for the difference stencils")
    lk = traj.states[:, 0]
    lc = traj.states[:, 1]
    h = traj.grid.h
    growth = np.empty_like(lc)
    growth[1:-1] = (lc[2:] - lc[:-2]) / (2.0 * h)
    growth[0] = (-3.0 * lc[0] + 4.0 * lc[1] - lc[2]) / (2.0 * h)
    growth[-1] = (3.0 * lc[-1] - 4.0 * lc[-2] + lc[-3]) / (2.0 * h)
    model = (p.alpha * p.A_tfp * np.exp((p.alpha - 1.0) * lk)
             - _mp_target(p)) / p.theta
    return growth - model


@dataclass(frozen=True)
class TransversalityReport:
    decaying: bool
    final_value: float
    degenerate_zero: bool = False


def transversality_check(path: HouseholdPath, alpha_L: float) -> TransversalityReport:
    """Decay diagnostic for discounted assets m(t) = a(t) e^{-I(t)}.

    Reports decay when |m| falls by at least a factor 10 over the last
    half of the horizon.  An identically zero asset path is flagged
    degenerate (trivially transversal).
    """
    h = path.grid.h
    bigI = cumulative_simpson(path.r - alpha_L, h)
    m = path.a * np.exp(-bigI)
    final = float(m[-1])
    if np.max(np.abs(path.a)) == 0.0:
        return TransversalityReport(True, final, degenerate_zero=True)
    mid = abs(m[path.grid.steps // 2])
    if mid == 0.0:
        return TransversalityReport(abs(final) == 0.0, final)
    return TransversalityReport(abs(final) <= mid / 10.0, final)


def household_path_from_trajectory(p: RamseyParams, traj: Trajectory) -> HouseholdPath:
    """Equilibrium household series from a (log k, log c) trajectory.

    Identifies per-capita assets with per-capita capital a = k e^{alpha_T t}
    and prices with the firm conditions; the costate comes from the
    consumption first-order condition.
    """
    if traj.states.shape[1] != 2:
        raise DomainError("expected a (log k, log c) trajectory")
    t = traj.times
    k = np.exp(traj.states[:, 0])
    growth = np.exp(p.alpha_T * t)
    c_pc = np.exp(traj.states[:, 1]) * growth
    r, w = firm_prices(p, k, t)
    nu = np.exp(-(p.rho - p.alpha_L) * t) * c_pc ** (-p.theta)
    return HouseholdPath(traj.grid, a=k * growth, c=c_pc, nu=nu, r=r, w=w)


# ---------------------------------------------------------------------------
# oracle battery


@dataclass(frozen=True)
class Check:
    """One battery line: the check and its bar, pass/fail, measured value."""

    name: str
    passed: bool
    detail: str


def _closest_approach_index(traj, ss):
    dev = traj.states - np.array([ss.log_k_star, ss.log_c_star])
    return int(np.argmin((dev * dev).sum(axis=1)))


# the most grid nodes check 6 builds its transversality path on, about
# 100 MB of arrays: the horizon 3 ln 10 / eff reaches it at an effective
# discount rate of 1.4e-4
_VERIFY_MAX_NODES = 1_000_000


def verify(p: RamseyParams) -> list[Check]:
    """Eight cross-checks of the closed forms against independent numeric
    routes: steady-state residual, Jacobian vs finite differences,
    eigenpair residuals, shooting vs linear arm, Euler residuals,
    transversality, lifetime budget identity and asset-path tracking.
    A saddle simulation that blows up at its first step leaves no path
    to check, and its DivergenceError propagates.
    """
    checks = []

    ss = steady_state(p)
    resid = float(np.max(np.abs(rhs(p, ss.log_k_star, ss.log_c_star))))
    checks.append(Check("steady-state residual < 1e-10", resid < 1.0e-10,
                        f"residual {resid:.3e}"))

    jac = jacobian_closed(p)
    fd = np.empty((2, 2))
    for i in range(2):
        fd[i] = central_diff_gradient(lambda z, i=i: rhs(p, z[0], z[1])[i],
                                      np.array([ss.log_k_star, ss.log_c_star]))
    jac_gap = float(np.max(np.abs(jac - fd)))
    checks.append(Check("jacobian closed form vs finite differences < 1e-6",
                        jac_gap < 1.0e-6, f"gap {jac_gap:.3e}"))

    d = eigen_closed(p)
    eig_resid = max(
        float(np.max(np.abs(jac @ d.v1 - d.lambda1 * d.v1))),
        float(np.max(np.abs(jac @ d.v2 - d.lambda2 * d.v2))))
    checks.append(Check("eigenpair residual < 1e-9", eig_resid < 1.0e-9,
                        f"residual {eig_resid:.3e}"))

    k0 = 0.5 * ss.k_star
    c0_lin = saddle_path_linear(p, k0)
    c0_shoot = shoot_reverse(p, k0, 1.0e-10)
    gap = abs(c0_lin - c0_shoot) / c0_shoot
    checks.append(Check("linear arm vs shooting c0 within 2%", gap < 0.02,
                        f"gap {gap:.3e}"))

    try:
        traj = simulate(p, k0, c0_shoot, Grid(0.0, 400.0, 8000))
    except DivergenceError as exc:
        if exc.partial is None:
            raise
        traj = exc.partial
    cut = _closest_approach_index(traj, ss)
    resid_e = float(np.max(np.abs(euler_residual(p, traj)[:cut + 1])))
    checks.append(Check("euler residual along the saddle < 1e-4 before "
                        "closest approach", resid_e < 1.0e-4,
                        f"max residual {resid_e:.3e}"))

    # transversality over a horizon long enough for the factor-10 bar:
    # discounted assets decay at the effective discount rate
    t_end = max(200.0, 3.0 * math.log(10.0) / _eff_discount(p))
    nodes = t_end / 0.05 + 1.0  # a float: t_end may be past any int
    if nodes > _VERIFY_MAX_NODES:
        raise HorizonError(
            f"transversality horizon t = {t_end:.6g} needs {nodes:.6g} grid "
            f"nodes at dt = 0.05, more than the {_VERIFY_MAX_NODES} allowed")
    steps = 2 * int(round(t_end / 0.05 / 2))
    full = np.full((steps + 1, 2), (ss.log_k_star, ss.log_c_star))
    n_av = min(cut + 1, steps + 1)
    full[:n_av] = traj.states[:n_av]
    saddle = Trajectory(Grid(0.0, t_end, steps), full, ("log_k", "log_c"))
    rep = transversality_check(household_path_from_trajectory(p, saddle),
                               p.alpha_L)
    checks.append(Check("transversality: discounted assets decay",
                        bool(rep.decaying),
                        f"final discounted assets {rep.final_value:.3e}"))

    # budget identity on an assets_path-generated equilibrium path
    g = Grid(0.0, 100.0, 2000)
    w_star = (1.0 - p.alpha) * p.A_tfp * ss.k_star ** p.alpha
    r_const = p.rho + p.theta * p.alpha_T
    a = assets_path(
        ss.k_star,
        lambda t: r_const,
        lambda t: w_star * math.exp(p.alpha_T * t),
        lambda t: ss.c_star * math.exp(p.alpha_T * t),
        p.alpha_L, g)
    t_nodes = g.times
    hp2 = HouseholdPath(
        g, a=a,
        c=ss.c_star * np.exp(p.alpha_T * t_nodes),
        nu=np.exp(-(p.rho - p.alpha_L) * t_nodes),
        r=np.full(g.steps + 1, r_const),
        w=w_star * np.exp(p.alpha_T * t_nodes))
    scale = abs(hp2.a[0]) + abs(budget_identity_residual(
        HouseholdPath(g, a=np.zeros(g.steps + 1), c=np.zeros(g.steps + 1),
                      nu=hp2.nu, r=hp2.r, w=hp2.w), p.alpha_L))
    bres = abs(budget_identity_residual(hp2, p.alpha_L)) / scale
    checks.append(Check("budget identity residual < 1e-6 relative",
                        bres < 1.0e-6, f"relative residual {bres:.3e}"))

    # the equilibrium asset path must track capital, relative to its size
    capital = ss.k_star * np.exp(p.alpha_T * t_nodes)
    track = float(np.max(np.abs(a - capital) / capital))
    checks.append(Check("assets_path tracks equilibrium capital < 1e-6",
                        track < 1.0e-6, f"max relative gap {track:.3e}"))
    return checks

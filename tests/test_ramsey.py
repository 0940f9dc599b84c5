"""Growth model: steady state, linearization, shooting, household checks."""

import dataclasses
import math

import numpy as np
import pytest

from econlab import ramsey
from econlab import (BASELINE, BracketError, DivergenceError, DomainError,
                     Grid, HouseholdPath, InfeasibleParametersError,
                     RamseyParams, Trajectory, assets_path, bisect,
                     budget_identity_residual, central_diff_gradient,
                     eigen_closed, euler_residual, firm_foc_r, foc_c_residual,
                     hamiltonian, household_path_from_trajectory,
                     is_diagonalizable, jacobian_closed, linearize,
                     linearized_solution, production, production_mp, rhs,
                     saddle_path_linear, shoot_nonlinear, shoot_reverse,
                     simulate, steady_state, transversality_check, wage)


def random_params(rng):
    """Draw a parameter set satisfying the existence condition."""
    while True:
        p = dict(A_tfp=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.15, 0.45),
                 theta=rng.uniform(0.8, 4.0), delta=rng.uniform(0.02, 0.1),
                 alpha_L=rng.uniform(0.0, 0.02), alpha_T=rng.uniform(0.0, 0.03),
                 rho=rng.uniform(0.01, 0.06))
        if p["rho"] - p["alpha_L"] - (1.0 - p["theta"]) * p["alpha_T"] > 0.005:
            return RamseyParams(**p)


def test_param_validation():
    with pytest.raises(DomainError):
        RamseyParams(A_tfp=1.0, alpha=1.0, theta=2.0, delta=0.05,
                     alpha_L=0.01, alpha_T=0.02, rho=0.03)
    with pytest.raises(DomainError):
        RamseyParams(A_tfp=1.0, alpha=0.3, theta=0.0, delta=0.05,
                     alpha_L=0.01, alpha_T=0.02, rho=0.03)
    with pytest.raises(InfeasibleParametersError):
        # effective discount rho - alpha_L - (1-theta) alpha_T <= 0
        RamseyParams(A_tfp=1.0, alpha=0.3, theta=1.0, delta=0.05,
                     alpha_L=0.02, alpha_T=0.02, rho=0.01)


def test_production_and_marginal_product():
    p = BASELINE
    assert abs(production(p, 2.0) - 2.0 ** 0.3) < 1.0e-15
    k = 2.0
    h = 1.0e-6
    fd = (production(p, k + h) - production(p, k - h)) / (2.0 * h)
    assert abs(production_mp(p, k) - fd) < 1.0e-8


def test_steady_state_zeroes_the_field():
    rng = np.random.default_rng(101)
    for _ in range(25):
        p = random_params(rng)
        ss = steady_state(p)
        assert ss.k_star > 0.0 and ss.c_star > 0.0
        out = rhs(p, ss.log_k_star, ss.log_c_star)
        assert np.max(np.abs(out)) < 1.0e-10


def test_steady_state_agrees_with_bisection_oracle():
    p = BASELINE
    ss = steady_state(p)
    target = p.delta + p.rho + p.theta * p.alpha_T

    def euler_row(lk):
        return p.alpha * p.A_tfp * math.exp((p.alpha - 1.0) * lk) - target

    lk = bisect(euler_row, -10.0, 10.0, tol=1.0e-14)
    assert abs(math.exp(lk) - ss.k_star) < 1.0e-9
    k = math.exp(lk)
    c = production(p, k) - (p.delta + p.alpha_L + p.alpha_T) * k
    assert abs(c - ss.c_star) < 1.0e-9


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(71)
    for _ in range(20):
        p = random_params(rng)
        ss = steady_state(p)
        x = np.array([ss.log_k_star, ss.log_c_star])
        jac = jacobian_closed(p)
        assert jac[1, 1] == 0.0
        for i in range(2):
            fd = central_diff_gradient(lambda z, i=i: rhs(p, z[0], z[1])[i], x)
            assert np.max(np.abs(jac[i] - fd)) < 1.0e-6


def wide_params(rng):
    """Log-uniform in [1/8, 8]^7 x BASELINE, alpha capped at 0.95: the
    box the correctness aim covers."""
    base = dataclasses.asdict(BASELINE)
    while True:
        p = {k: v * 8.0 ** rng.uniform(-1.0, 1.0) for k, v in base.items()}
        p["alpha"] = min(p["alpha"], 0.95)
        try:
            return RamseyParams(**p)
        except InfeasibleParametersError:
            continue


def test_eigen_closed_matches_numpy_and_is_saddle():
    rng = np.random.default_rng(83)
    wide = np.random.default_rng(89)
    sample = ([random_params(rng) for _ in range(20)]
              + [wide_params(wide) for _ in range(2000)])
    for p in sample:
        jac = jacobian_closed(p)
        d = eigen_closed(p)
        w = np.sort(np.linalg.eigvals(jac).real)
        assert abs(d.lambda2 - w[0]) < 1.0e-9
        assert abs(d.lambda1 - w[1]) < 1.0e-9
        assert d.lambda1 > 0.0 > d.lambda2
        assert is_diagonalizable(p)
        for lam, v in ((d.lambda1, d.v1), (d.lambda2, d.v2)):
            assert np.max(np.abs(jac @ v - lam * v)) < 1.0e-9


def test_linearize_bundles_consistent_pieces():
    lin = linearize(BASELINE)
    assert lin.jac[1, 1] == 0.0
    assert lin.steady.k_star > 0.0
    assert lin.eigen.lambda1 > 0.0 > lin.eigen.lambda2


def test_linearized_solution_decays_along_stable_direction():
    p = BASELINE
    d = eigen_closed(p)
    z0, w0 = 0.1 * d.v2[0], 0.1 * d.v2[1]
    t = np.array([0.0, 5.0, 20.0, 100.0])
    out = linearized_solution(p, z0, w0, t)
    assert out.shape == (2, 4)
    norms = np.sqrt((out ** 2).sum(axis=0))
    assert np.all(np.diff(norms) < 0.0)
    assert norms[-1] < 1.0e-3 * norms[0]


def test_saddle_path_linear_passes_through_steady_state():
    p = BASELINE
    ss = steady_state(p)
    assert abs(saddle_path_linear(p, ss.k_star) - ss.c_star) < 1.0e-12
    below = saddle_path_linear(p, 0.5 * ss.k_star)
    above = saddle_path_linear(p, 2.0 * ss.k_star)
    assert below < ss.c_star < above


def test_simulate_validates_inputs():
    p = BASELINE
    g = Grid(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        simulate(p, -1.0, 1.0, g)
    with pytest.raises(DomainError):
        simulate(p, 1.0, 0.0, g)


def test_simulate_near_steady_state_stays_put():
    p = BASELINE
    ss = steady_state(p)
    traj = simulate(p, ss.k_star, ss.c_star, Grid(0.0, 50.0, 500))
    assert traj.labels == ("log_k", "log_c")
    dev = traj.states - np.array([ss.log_k_star, ss.log_c_star])
    assert np.max(np.abs(dev)) < 1.0e-9


def test_simulate_classifies_overconsumption_as_c_side():
    p = BASELINE
    ss = steady_state(p)
    with pytest.raises(DivergenceError) as exc:
        simulate(p, 0.5 * ss.k_star, 2.0, Grid(0.0, 200.0, 4000))
    err = exc.value
    assert err.side == "c-side"
    assert (err.component, err.direction) == (0, -1.0)
    assert err.partial is not None
    assert err.partial.states.shape[0] >= 2
    assert np.all(np.diff(err.partial.times) > 0.0)


def test_simulate_classifies_underconsumption_as_k_side():
    p = BASELINE
    ss = steady_state(p)
    with pytest.raises(DivergenceError) as exc:
        simulate(p, 0.5 * ss.k_star, 0.05, Grid(0.0, 400.0, 8000))
    assert exc.value.side == "k-side"
    assert (exc.value.component, exc.value.direction) == (1, -1.0)


def test_simulate_rejects_start_beyond_threshold():
    p = BASELINE
    ss = steady_state(p)
    with pytest.raises(DivergenceError) as exc:
        simulate(p, ss.k_star, ss.c_star * math.exp(6.0), Grid(0.0, 1.0, 10))
    assert exc.value.step_index == 0
    assert exc.value.partial is None
    assert str(exc.value) == \
        "initial state already beyond the blow-up threshold (c-side)"


def test_verify_reraises_a_blowup_without_a_partial_path(monkeypatch):
    err = DivergenceError("initial state already beyond the blow-up "
                          "threshold (k-side)", 0, 1, -1.0, side="k-side")

    def blow_up(*args):
        raise err

    monkeypatch.setattr(ramsey, "simulate", blow_up)
    with pytest.raises(DivergenceError) as exc:
        ramsey.verify(BASELINE)
    assert exc.value is err


# the RK4 step that crosses the blow-up box overshoots here, and the
# clipped exponentials throw log k to the wrong sign
OVERSHOOT = RamseyParams(A_tfp=1.4, alpha=0.22, theta=3.9, delta=0.03,
                         alpha_L=0.009, alpha_T=0.029, rho=0.019)


def test_simulate_reads_a_capital_crash_from_the_last_state_inside():
    p = OVERSHOOT
    k0 = 0.5 * steady_state(p).k_star
    c0 = 1.05 * shoot_reverse(p, k0, 1.0e-10)
    with pytest.raises(DivergenceError) as exc:
        simulate(p, k0, c0, Grid(0.0, 200.0, 4000))
    err = exc.value
    assert (err.side, err.component, err.direction) == ("c-side", 0, -1.0)
    assert err.step_index == 142


def test_shoot_nonlinear_through_overshooting_trials():
    p = OVERSHOOT
    k0 = 2.0 * steady_state(p).k_star
    ref = shoot_reverse(p, k0, 1.0e-12)
    assert abs(shoot_nonlinear(p, k0, 1.0e-10) - ref) <= 1.0e-8 * ref


def test_shoot_nonlinear_baseline_half_k_star():
    p = BASELINE
    ss = steady_state(p)
    c0 = shoot_nonlinear(p, 0.5 * ss.k_star, 1.0e-8)
    lin = saddle_path_linear(p, 0.5 * ss.k_star)
    assert abs(c0 - lin) / c0 < 0.02
    # the result lands below steady-state consumption when k0 < k*
    assert c0 < ss.c_star


def test_shoot_nonlinear_from_above_steady_state():
    p = BASELINE
    ss = steady_state(p)
    c0 = shoot_nonlinear(p, 2.0 * ss.k_star, 1.0e-6)
    lin = saddle_path_linear(p, 2.0 * ss.k_star)
    assert c0 > ss.c_star
    assert abs(c0 - lin) / c0 < 0.02


def test_shoot_nonlinear_domain_and_bracket_errors():
    p = BASELINE
    ss = steady_state(p)
    with pytest.raises(DomainError):
        shoot_nonlinear(p, 0.01 * ss.k_star, 1.0e-6)
    with pytest.raises(DomainError):
        shoot_nonlinear(p, 0.5 * ss.k_star, 0.0)
    # at 5 k* the saddle consumption exceeds output, so the
    # production-capped bracket cannot straddle it
    with pytest.raises(BracketError):
        shoot_nonlinear(p, 5.0 * ss.k_star, 1.0e-6)


def test_shoot_reverse_agrees_with_forward_shooting():
    p = BASELINE
    ss = steady_state(p)
    for frac in (0.05, 0.5, 2.0):
        k0 = frac * ss.k_star
        ref = shoot_nonlinear(p, k0, 1.0e-10)
        assert abs(shoot_reverse(p, k0, 1.0e-10) - ref) <= 1.0e-8 * ref


def test_shoot_reverse_on_a_slow_stable_arm():
    # alpha = 0.9 puts 1/|lambda2| so far out that forward shooting's
    # trials run past its t_max = 500 horizon (HorizonError)
    p = dataclasses.replace(BASELINE, alpha=0.9)
    ss = steady_state(p)
    k0 = 0.5 * ss.k_star
    c0 = shoot_reverse(p, k0, 1.0e-10)
    assert math.isfinite(c0)
    assert 0.0 < c0 < ss.c_star
    assert abs(c0 - saddle_path_linear(p, k0)) / c0 < 0.02


def test_shoot_reverse_domain_errors_and_steady_state():
    p = BASELINE
    ss = steady_state(p)
    for k0, tol in ((0.01 * ss.k_star, 1.0e-6), (5.5 * ss.k_star, 1.0e-6),
                    (0.5 * ss.k_star, 0.0), (0.5 * ss.k_star, math.nan)):
        with pytest.raises(DomainError):
            shoot_reverse(p, k0, tol)
    assert shoot_reverse(p, ss.k_star, 1.0e-10) == saddle_path_linear(p, ss.k_star)


def test_shoot_reverse_far_above_steady_state_matches_solve_ivp():
    integrate = pytest.importorskip("scipy.integrate")
    p = BASELINE
    ss = steady_state(p)
    v = eigen_closed(p).v2
    lk0 = math.log(5.0 * ss.k_star)
    eps = 1.0e-7 * math.copysign(1.0, v[0])

    def field(t, y):
        return rhs(p, y[0], y[1])

    def reached(t, y):
        return y[0] - lk0

    reached.terminal = True
    # the stable arm run backward in time leaves the steady state
    sol = integrate.solve_ivp(
        field, (0.0, -2000.0), [ss.log_k_star + eps * v[0], ss.log_c_star + eps * v[1]],
        method="DOP853", rtol=1.0e-12, atol=1.0e-14, events=reached)
    ref = math.exp(sol.y_events[0][0][1])
    assert abs(shoot_reverse(p, 5.0 * ss.k_star, 1.0e-10) - ref) <= 1.0e-8 * ref


def test_prices_from_firm_conditions():
    p = BASELINE
    k = 2.0
    assert abs(firm_foc_r(p, k) - (production_mp(p, k) - p.delta)) < 1.0e-15
    assert abs(wage(p, k, 0.0)
               - (production(p, k) - production_mp(p, k) * k)) < 1.0e-15
    assert abs(wage(p, k, 10.0) - math.exp(10.0 * p.alpha_T) * wage(p, k, 0.0)) < 1.0e-12


def test_hamiltonian_is_stationary_in_c_at_the_foc():
    p = BASELINE
    t, a, r, w = 2.0, 3.0, 0.07, 1.5
    c = 1.3
    nu = math.exp(-(p.rho - p.alpha_L) * t) * c ** (-p.theta)
    assert abs(foc_c_residual(p, t, c, nu)) < 1.0e-15
    h = 1.0e-6
    dh = (hamiltonian(p, t, a, c + h, nu, r, w)
          - hamiltonian(p, t, a, c - h, nu, r, w)) / (2.0 * h)
    assert abs(dh) < 1.0e-8


def test_assets_path_constant_rate_closed_form():
    # with w = c = 0 assets grow exactly at e^{(r - alpha_L) t}
    g = Grid(0.0, 10.0, 100)
    a = assets_path(2.0, lambda t: 0.05, lambda t: 0.0, lambda t: 0.0, 0.01, g)
    ref = 2.0 * np.exp(0.04 * g.times)
    assert np.max(np.abs(a - ref)) < 1.0e-9


def test_budget_identity_holds_for_generated_paths():
    g = Grid(0.0, 40.0, 2000)
    r_fn = lambda t: 0.05 + 0.02 * math.sin(0.3 * t)
    w_fn = lambda t: 1.0 + 0.1 * math.cos(0.2 * t)
    c_fn = lambda t: 0.8 + 0.05 * math.sin(0.11 * t)
    a = assets_path(2.0, r_fn, w_fn, c_fn, 0.01, g)
    t = g.times
    path = HouseholdPath(g, a=a,
                         c=np.array([c_fn(x) for x in t]),
                         nu=np.ones(t.size),
                         r=np.array([r_fn(x) for x in t]),
                         w=np.array([w_fn(x) for x in t]))
    assert abs(budget_identity_residual(path, 0.01)) < 1.0e-9


def test_budget_identity_flags_violations():
    g = Grid(0.0, 40.0, 2000)
    t = g.times
    # consumption with no income and non-moving assets cannot balance
    path = HouseholdPath(g, a=np.full(t.size, 2.0), c=np.ones(t.size),
                         nu=np.ones(t.size), r=np.full(t.size, 0.05),
                         w=np.zeros(t.size))
    assert abs(budget_identity_residual(path, 0.01)) > 1.0


def test_budget_identity_requires_even_steps():
    g = Grid(0.0, 1.0, 3)
    t = g.times
    path = HouseholdPath(g, a=np.ones(4), c=np.ones(4), nu=np.ones(4),
                         r=np.ones(4), w=np.ones(4))
    with pytest.raises(DomainError):
        budget_identity_residual(path, 0.01)


def test_euler_residual_small_on_steady_path_large_off_it():
    p = BASELINE
    ss = steady_state(p)
    g = Grid(0.0, 20.0, 400)
    on = simulate(p, ss.k_star, ss.c_star, g)
    assert np.max(np.abs(euler_residual(p, on))) < 1.0e-10
    # a flat consumption path at the wrong level violates the equation
    states = np.column_stack([np.full(g.steps + 1, ss.log_k_star - 0.5),
                              np.full(g.steps + 1, ss.log_c_star)])
    off = Trajectory(g, states, ("log_k", "log_c"))
    assert np.max(np.abs(euler_residual(p, off))) > 1.0e-2


def test_transversality_decay_and_ponzi():
    p = BASELINE
    ss = steady_state(p)
    g = Grid(0.0, 200.0, 2000)
    t = g.times
    r_star = p.rho + p.theta * p.alpha_T
    w_star = (1.0 - p.alpha) * p.A_tfp * ss.k_star ** p.alpha
    equil = HouseholdPath(g, a=ss.k_star * np.exp(p.alpha_T * t),
                          c=ss.c_star * np.exp(p.alpha_T * t),
                          nu=np.exp(-(p.rho - p.alpha_L) * t),
                          r=np.full(t.size, r_star),
                          w=w_star * np.exp(p.alpha_T * t))
    rep = transversality_check(equil, p.alpha_L)
    assert rep.decaying and not rep.degenerate_zero
    # debt rolled over at interest keeps discounted assets constant
    ponzi = HouseholdPath(g, a=-np.exp((r_star - p.alpha_L) * t),
                          c=np.zeros(t.size), nu=np.ones(t.size),
                          r=np.full(t.size, r_star), w=np.zeros(t.size))
    rep2 = transversality_check(ponzi, p.alpha_L)
    assert not rep2.decaying
    zero = HouseholdPath(g, a=np.zeros(t.size), c=np.zeros(t.size),
                         nu=np.ones(t.size), r=np.full(t.size, r_star),
                         w=np.zeros(t.size))
    rep3 = transversality_check(zero, p.alpha_L)
    assert rep3.decaying and rep3.degenerate_zero


def test_household_path_from_trajectory_equilibrium_consistency():
    p = BASELINE
    ss = steady_state(p)
    g = Grid(0.0, 30.0, 600)
    traj = simulate(p, ss.k_star, ss.c_star, g)
    hp = household_path_from_trajectory(p, traj)
    t = g.times
    assert np.max(np.abs(hp.a - ss.k_star * np.exp(p.alpha_T * t))) < 1.0e-8
    assert np.max(np.abs(hp.r - (p.rho + p.theta * p.alpha_T))) < 1.0e-8
    focs = [foc_c_residual(p, float(tt), float(cc), float(nn))
            for tt, cc, nn in zip(t, hp.c, hp.nu)]
    assert max(abs(v) for v in focs) < 1.0e-12
    assert abs(budget_identity_residual(hp, p.alpha_L)) < 1.0e-6

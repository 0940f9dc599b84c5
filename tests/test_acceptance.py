"""Acceptance battery: one test (and one printed pass/fail line) per
criterion.  Every closed-form claim is checked against an independent
numeric route at the stated tolerance.
"""

import functools
import math

import numpy as np
import pytest

import econlab as e
from econlab.cli import main as cli_main


def check(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"CRITERION {number:02d} {tag}: {description}{suffix}")
    assert ok, f"criterion {number:02d}: {description}{suffix}"


@functools.lru_cache(maxsize=None)
def baseline_steady():
    return e.steady_state(e.BASELINE)


@functools.lru_cache(maxsize=None)
def shoot_baseline(tol):
    ss = baseline_steady()
    return e.shoot_nonlinear(e.BASELINE, 0.5 * ss.k_star, tol)


@functools.lru_cache(maxsize=None)
def saddle_trajectory(tol):
    """Shooting trajectory from 0.5 k*, truncated by the blow-up guard."""
    ss = baseline_steady()
    c0 = shoot_baseline(tol)
    try:
        return e.simulate(e.BASELINE, 0.5 * ss.k_star, c0,
                          e.Grid(0.0, 400.0, 8000))
    except e.DivergenceError as exc:
        return exc.partial


def closest_index(traj):
    ss = baseline_steady()
    dev = traj.states - np.array([ss.log_k_star, ss.log_c_star])
    return int(np.argmin((dev * dev).sum(axis=1)))


def closest_distance(traj):
    ss = baseline_steady()
    dev = traj.states - np.array([ss.log_k_star, ss.log_c_star])
    return float(np.sqrt((dev * dev).sum(axis=1).min()))


def random_params(rng):
    while True:
        p = dict(A_tfp=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.15, 0.45),
                 theta=rng.uniform(0.8, 4.0), delta=rng.uniform(0.02, 0.1),
                 alpha_L=rng.uniform(0.0, 0.02), alpha_T=rng.uniform(0.0, 0.03),
                 rho=rng.uniform(0.01, 0.06))
        if p["rho"] - p["alpha_L"] - (1.0 - p["theta"]) * p["alpha_T"] > 0.005:
            return e.RamseyParams(**p)


def test_criterion_01_determinant_equals_parallelogram_area():
    m = np.array([[3.0, 1.0], [1.0, 4.0]])
    d = e.det2(m)
    area = e.parallelogram_area(m[:, 0], m[:, 1])
    ok = abs(d - 11.0) <= 1.0e-12 and abs(area - 11.0) <= 1.0e-12
    check(1, "det2 and parallelogram_area both give 11 for [[3,1],[1,4]]",
          ok, f"det={d!r}, area={area!r}")


def test_criterion_02_change_of_basis_chain():
    d = e.EigenDecomp2(2.0, np.array([1.0, 1.0]), 3.0, np.array([-1.0, 1.0]))
    x = np.array([1.0, 3.0])
    new, stretched, y = e.change_of_basis_apply(d, x)
    a = 0.5 * np.array([[5.0, -1.0], [-1.0, 5.0]])
    ok = (np.max(np.abs(new - [2.0, 1.0])) <= 1.0e-10
          and np.max(np.abs(stretched - [4.0, 3.0])) <= 1.0e-10
          and np.max(np.abs(y - [1.0, 7.0])) <= 1.0e-10
          and np.max(np.abs(y - a @ x)) <= 1.0e-10)
    check(2, "diagonalized map reproduces (2,1) -> (4,3) -> (1,7)",
          ok, f"new={new}, stretched={stretched}, y={y}")


def test_criterion_03_imaginary_unit_matrix_squares_to_minus_identity():
    i = e.MatrixComplex(0.0, 1.0)
    sq = e.mc_mul(i, i)
    ok = (sq.re == -1.0 and sq.im == 0.0
          and np.array_equal(sq.as_matrix(), -np.eye(2))
          and e.mc_square_is_minus_identity(i))
    check(3, "the rotation embedding of i squares exactly to -I",
          ok, f"square=({sq.re}, {sq.im})")


def test_criterion_04_companion_determinant_evaluates_polynomials():
    coeffs3 = np.array([1.0, 1.0, 1.0])
    exact = (e.companion_det(coeffs3, -1.0), e.companion_det(coeffs3, 3.0))
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        coeffs = rng.uniform(-3.0, 3.0, n)
        x = float(rng.uniform(-3.0, 3.0))
        ref = 1.0
        for a in reversed(coeffs):
            ref = ref * x + a
        worst = max(worst, abs(e.companion_det(coeffs, x) - ref)
                    / max(1.0, abs(ref)))
    ok = exact == (0.0, 40.0) and worst <= 1.0e-9
    check(4, "companion determinant matches Horner on 1000 random monic "
             "polynomials and hits 0 and 40 on the cubic",
          ok, f"exact={exact}, worst relative gap {worst:.3e}")


def test_criterion_05_cramer_matches_lu_solver():
    rng = np.random.default_rng(50)
    worst = 0.0
    done = 0
    while done < 500:
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        if np.linalg.cond(a) > 1.0e3:
            continue
        done += 1
        b = rng.standard_normal(n)
        gap = np.max(np.abs(e.cramer_solve(a, b) - np.linalg.solve(a, b)))
        worst = max(worst, float(gap))
    ok = worst <= 1.0e-8
    check(5, "Cramer solutions match LU solves on 500 well-conditioned "
             "systems up to order 6", ok, f"worst gap {worst:.3e}")


def test_criterion_06_quadform_gradient_matches_finite_differences():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        x = rng.standard_normal(n)
        grad = e.quadform_grad(a, x)
        fd = e.central_diff_gradient(lambda v: e.quadform_eval(a, v), x)
        scale = max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    ok = worst <= 1.0e-6
    check(6, "closed-form gradient 2Ax matches central differences on 500 "
             "random symmetric forms", ok, f"worst relative gap {worst:.3e}")


def test_criterion_07_sphere_extrema_are_the_eigenvalues():
    a = np.array([[3.0, 1.0], [1.0, 4.0]])
    res = e.sphere_extrema(a)
    # frozen from the independent symmetric eigensolver oracle:
    # the extrema of x^T A x on the sphere are (7 -+ sqrt(5))/2
    lo, hi = (7.0 - math.sqrt(5.0)) / 2.0, (7.0 + math.sqrt(5.0)) / 2.0
    w = np.linalg.eigvalsh(a)
    r_min = e.lagrange_residual(a, res.x_min, res.lambda_min)
    r_max = e.lagrange_residual(a, res.x_max, res.lambda_max)
    ok = (abs(res.lambda_min - lo) <= 1.0e-8
          and abs(res.lambda_max - hi) <= 1.0e-8
          and abs(res.lambda_min - w[0]) <= 1.0e-8
          and abs(res.lambda_max - w[-1]) <= 1.0e-8
          and r_min <= 1.0e-8 and r_max <= 1.0e-8)
    check(7, "sphere extrema recover both eigenvalues of [[3,1],[1,4]] with "
             "vanishing multiplier residuals",
          ok, f"lambda=({res.lambda_min:.10f}, {res.lambda_max:.10f}), "
              f"residuals=({r_min:.2e}, {r_max:.2e})")


def test_criterion_08_carbon_closed_form_and_airborne_fraction():
    p = e.CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=10.0, d=0.02, x0=600.0)
    g = e.Grid(0.0, 100.0, 1000)
    traj = e.rk4_integrate(e.concentration_rhs(p), p.x0, g)
    ref = e.concentration_closed(p, g.times)
    rel = float(np.max(np.abs(traj.states[:, 0] - ref) / np.abs(ref)))
    lim = e.airborne_fraction_limit(p)
    af_gap = abs(e.airborne_fraction(p, 200.0) - p.d / (p.c + p.d))
    lim_gap = abs(lim - 3.0 / 13.0)  # exact up to one rounding ulp
    ok = rel <= 1.0e-6 and af_gap <= 1.0e-3 and lim_gap <= 1.0e-15
    check(8, "closed-form concentration matches RK4 and the airborne "
             "fraction approaches d/(c+d) = 3/13",
          ok, f"rk4 rel {rel:.2e}, AF(200) gap {af_gap:.2e}, "
              f"limit gap {lim_gap:.1e}")


def test_criterion_09_arrow_pratt_recovers_theta():
    rng = np.random.default_rng(90)
    worst = 0.0
    for theta in (0.5, 1.0, 2.0, 5.0):
        s = e.CrraSpec(theta=theta)
        xs = np.concatenate([[0.2, 10.0], rng.uniform(0.2, 10.0, 48)])
        for x in xs:
            worst = max(worst, abs(e.arrow_pratt(s, float(x)) - theta))
    ok = worst <= 1.0e-5
    check(9, "numeric relative risk aversion recovers theta on [0.2, 10]",
          ok, f"worst gap {worst:.3e}")


def steady_oracle(p):
    """Independent route: bisect the consumption-growth condition for k,
    read c off the resource constraint, then confirm stationarity with a
    damped Newton polish on the full vector field."""
    target = p.delta + p.rho + p.theta * p.alpha_T

    def euler_row(lk):
        return p.alpha * p.A_tfp * math.exp((p.alpha - 1.0) * lk) - target

    lk = e.bisect(euler_row, -20.0, 20.0, tol=1.0e-14)
    k = math.exp(lk)
    c = e.production(p, k) - (p.delta + p.alpha_L + p.alpha_T) * k
    x = np.array([lk, math.log(c)])
    for _ in range(20):
        f = e.rhs(p, x[0], x[1])
        if np.max(np.abs(f)) < 1.0e-14:
            break
        jac = np.vstack([
            e.central_diff_gradient(lambda z, i=i: e.rhs(p, z[0], z[1])[i], x)
            for i in range(2)])
        step = np.linalg.solve(jac, -f)
        lam = 1.0
        norm0 = float(np.max(np.abs(f)))
        while lam > 1.0e-6:
            trial = x + lam * step
            if np.max(np.abs(e.rhs(p, trial[0], trial[1]))) < norm0:
                x = trial
                break
            lam /= 2.0
        else:
            break
    return math.exp(x[0]), math.exp(x[1])


def test_criterion_10_steady_state_matches_independent_oracle():
    rng = np.random.default_rng(100)
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(200):
        p = random_params(rng)
        ss = e.steady_state(p)
        k_o, c_o = steady_oracle(p)
        worst_gap = max(worst_gap, abs(ss.k_star - k_o), abs(ss.c_star - c_o))
        res = float(np.max(np.abs(e.rhs(p, ss.log_k_star, ss.log_c_star))))
        worst_res = max(worst_res, res)
    ok = worst_gap <= 1.0e-9 and worst_res <= 1.0e-10
    check(10, "closed-form steady state agrees with the bisection/Newton "
              "oracle on 200 random parameter sets and zeroes the field",
          ok, f"worst gap {worst_gap:.3e}, worst residual {worst_res:.3e}")


def test_criterion_11_jacobian_matches_finite_differences():
    rng = np.random.default_rng(110)
    worst = 0.0
    a22_exact = True
    for _ in range(200):
        p = random_params(rng)
        ss = e.steady_state(p)
        x = np.array([ss.log_k_star, ss.log_c_star])
        jac = e.jacobian_closed(p)
        a22_exact &= jac[1, 1] == 0.0
        for i in range(2):
            fd = e.central_diff_gradient(
                lambda z, i=i: e.rhs(p, z[0], z[1])[i], x)
            worst = max(worst, float(np.max(np.abs(jac[i] - fd))))
    ok = worst <= 1.0e-6 and a22_exact
    check(11, "closed-form Jacobian matches finite differences on 200 "
              "random parameter sets with a22 exactly zero",
          ok, f"worst gap {worst:.3e}")


def test_criterion_12_eigenstructure_matches_generic_solver():
    rng = np.random.default_rng(120)
    worst = 0.0
    predicate_ok = True
    for _ in range(200):
        p = random_params(rng)
        jac = e.jacobian_closed(p)
        d = e.eigen_closed(p)
        w, v = np.linalg.eig(jac)
        got = sorted((d.lambda1, d.lambda2))
        ref = sorted(w.real)
        scale = max(1.0, abs(ref[0]), abs(ref[1]))
        worst = max(worst, abs(got[0] - ref[0]) / scale,
                    abs(got[1] - ref[1]) / scale)
        # defectiveness per the generic solver: eigenvector matrix rank
        generic_diagonalizable = abs(np.linalg.det(v)) > 1.0e-6
        predicate_ok &= e.is_diagonalizable(p) == generic_diagonalizable
    ok = worst <= 1.0e-9 and predicate_ok
    check(12, "closed-form eigenvalues match the generic solver as "
              "multisets and the diagonalizability predicate agrees",
          ok, f"worst gap {worst:.3e}")


def test_criterion_13_shooting_agrees_with_linear_arm():
    ss = baseline_steady()
    k0 = 0.5 * ss.k_star
    c0_lin = e.saddle_path_linear(e.BASELINE, k0)
    c0_shoot = shoot_baseline(1.0e-8)
    gap = abs(c0_lin - c0_shoot) / c0_shoot
    dists = [closest_distance(saddle_trajectory(tol))
             for tol in (1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7)]
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    ok = gap < 0.02 and monotone
    check(13, "shooting consumption is within 2% of the linear arm and the "
              "closest approach shrinks over three tolerance decades",
          ok, f"gap {gap:.4%}, distances {[f'{d:.2e}' for d in dists]}")


def test_criterion_14_foc_consistency_along_the_saddle():
    p = e.BASELINE
    ss = baseline_steady()
    traj = saddle_trajectory(1.0e-12)
    cut = closest_index(traj)
    resid = float(np.max(np.abs(e.euler_residual(p, traj)[:cut + 1])))

    # continue the truncated saddle at the steady state so the horizon
    # is long enough for the factor-10 decay bar
    steps = 4000
    grid = e.Grid(0.0, 200.0, steps)
    states = np.full((steps + 1, 2), (ss.log_k_star, ss.log_c_star))
    n = min(cut + 1, steps + 1)
    states[:n] = traj.states[:n]
    hp = e.household_path_from_trajectory(
        p, e.Trajectory(grid, states, ("log_k", "log_c")))
    rep = e.transversality_check(hp, p.alpha_L)

    t = grid.times
    r_star = p.rho + p.theta * p.alpha_T
    ponzi = e.HouseholdPath(grid, a=-np.exp((r_star - p.alpha_L) * t),
                            c=np.zeros(t.size), nu=np.ones(t.size),
                            r=np.full(t.size, r_star), w=np.zeros(t.size))
    rep_ponzi = e.transversality_check(ponzi, p.alpha_L)
    ok = resid < 1.0e-4 and rep.decaying and not rep_ponzi.decaying
    check(14, "Euler residuals stay below 1e-4 before closest approach, "
              "discounted assets decay, and the rolled-over debt "
              "counterexample does not",
          ok, f"max residual {resid:.2e}, decay={rep.decaying}, "
              f"ponzi decay={rep_ponzi.decaying}")


def test_criterion_15_budget_identity_with_time_varying_rate():
    alpha_L = 0.01
    g = e.Grid(0.0, 60.0, 3000)
    r_fn = lambda t: 0.05 + 0.02 * math.sin(0.3 * t)
    w_fn = lambda t: 1.0 + 0.1 * math.cos(0.2 * t)
    c_fn = lambda t: 0.8 + 0.05 * math.sin(0.11 * t)
    a = e.assets_path(2.0, r_fn, w_fn, c_fn, alpha_L, g)
    t = g.times
    path = e.HouseholdPath(g, a=a, c=np.array([c_fn(x) for x in t]),
                           nu=np.ones(t.size),
                           r=np.array([r_fn(x) for x in t]),
                           w=np.array([w_fn(x) for x in t]))
    zero = e.HouseholdPath(g, a=np.zeros(t.size), c=np.zeros(t.size),
                           nu=path.nu, r=path.r, w=path.w)
    scale = abs(path.a[0]) + abs(e.budget_identity_residual(zero, alpha_L))
    rel = abs(e.budget_identity_residual(path, alpha_L)) / scale
    ok = rel < 1.0e-6
    check(15, "generated asset paths satisfy the lifetime budget identity "
              "under a smoothly varying interest rate",
          ok, f"relative residual {rel:.3e}")


def test_criterion_16_linearization_gap_shrinks_quadratically():
    p = e.BASELINE
    ss = baseline_steady()
    d = e.eigen_closed(p)
    slope = d.v2[1] / d.v2[0]

    def gap(eps):
        z0 = -eps
        w0 = slope * z0
        k0 = math.exp(ss.log_k_star + z0)
        c0 = math.exp(ss.log_c_star + w0)
        g = e.Grid(0.0, 10.0, 1000)
        traj = e.simulate(p, k0, c0, g)
        lin = e.linearized_solution(p, z0, w0, g.times)
        full = np.column_stack([ss.log_k_star + lin[0],
                                ss.log_c_star + lin[1]])
        return float(np.max(np.abs(traj.states - full)))

    ratio = gap(0.05) / gap(0.025)
    ok = 3.5 <= ratio <= 4.5
    check(16, "halving the initial deviation shrinks the "
              "nonlinear-vs-linearized gap about fourfold",
          ok, f"ratio {ratio:.4f}")


def test_criterion_17_series_residuals():
    spec = e.TaylorSpec(24)
    worst = 0.0
    for x in np.linspace(-math.pi, math.pi, 201):
        m = e.exp_i_taylor(float(x), spec)
        worst = max(worst, abs(m.re - math.cos(x)), abs(m.im - math.sin(x)))
    rng = np.random.default_rng(170)
    worst_id = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-10.0, 10.0, 2)
        worst_id = max(worst_id, e.sin_diff_identity_residual(float(a),
                                                              float(b)))
    ok = worst < 1.0e-12 and worst_id < 1.0e-11
    check(17, "24-term series satisfy the complex-exponential and sine "
              "difference identities",
          ok, f"euler residual {worst:.2e}, identity residual {worst_id:.2e}")


def test_criterion_18_cli_determinism_and_verify(tmp_path, capsys):
    paths = {}
    for tag in ("a", "b"):
        carbon = tmp_path / f"carbon_{tag}.csv"
        csv = tmp_path / f"traj_{tag}.csv"
        svg = tmp_path / f"traj_{tag}.svg"
        code1 = cli_main(["carbon", "--t1", "100", "--steps", "400",
                          "--output", str(carbon)])
        code2 = cli_main(["ramsey-simulate", "--k0", "1.85", "--c0", "0.88",
                          "--t1", "60", "--steps", "1200",
                          "--output", str(csv), "--svg", str(svg)])
        paths[tag] = (carbon.read_bytes(), csv.read_bytes(), svg.read_bytes())
        assert code1 == 0 and code2 == 0
    identical = paths["a"] == paths["b"]
    verify_code = cli_main(["ramsey-verify"])
    capsys.readouterr()  # swallow the battery output; reported below
    ok = identical and verify_code == 0
    check(18, "CSV and SVG outputs are byte-identical across runs and "
              "ramsey-verify passes on the baseline calibration",
          ok, f"identical={identical}, verify exit={verify_code}")

"""Seeded op generators for the three benchmark workloads.

An op is a dict: `kind` (the subcommand), the raw inputs the oracle
needs, and `argv`, the exact argument list handed to econlab.cli.main.
Every value is passed as `--opt=value` with a round-tripping float
literal, so negative numbers never read as flags and the program parses
exactly the numbers the oracle uses.

Every input that sets an op's cost is drawn from a randomly shifted
low-discrepancy sequence rather than independently: any prefix of the
stream covers its box evenly, so a run's load does not hang on luck and
two seeds load the program alike, while each seed still gets its own
inputs.
"""

import itertools
import math

import numpy as np

from oracle import arrow_pratt_roundoff

BASELINE = {"A": 1.0, "alpha": 0.3, "theta": 2.0, "delta": 0.05,
            "alpha_L": 0.01, "alpha_T": 0.02, "rho": 0.03}

_FLAG = {"A": "A", "alpha": "alpha", "theta": "theta", "delta": "delta",
         "alpha_L": "alpha-L", "alpha_T": "alpha-T", "rho": "rho"}

WORKLOADS = ("verify-sweep", "saddle-policy", "lab-mix")

# Each Ramsey parameter is drawn log-uniform in [2^-SPREAD, 2^SPREAD] x
# BASELINE, and ramsey-saddle's k0 over K0_FRACS x k*.  The program
# completes every op in these ranges, as the benchmark's workloads
# require; its shooting defects (ROADMAP items 2 and 4) strike towards
# the corners of [1/2, 2] x BASELINE and, on the saddle panel, from
# k0 = 2.9 k* up (seed_baseline.json).
SPREAD = 0.35
K0_FRACS = (0.05, 2.0)


def num(v):
    """Shortest literal that parses back to the same float."""
    return repr(float(v))


def _vec(v):
    return ",".join(num(x) for x in v)


def _mat(m):
    return ";".join(_vec(row) for row in m)


def quasirandom(rng, dims):
    """Endless points in [0, 1)^dims that fill the cube evenly from any
    prefix on: the additive recurrence x_i = frac(s + i a) with a from
    the generalized golden ratio (M. Roberts, "The unreasonable
    effectiveness of quasirandom sequences", 2018), the shift s drawn
    from `rng`."""
    phi = 2.0
    for _ in range(60):  # root of x^(dims+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = np.array([phi ** -(j + 1) for j in range(dims)]) % 1.0
    shift = rng.random(dims)
    for i in itertools.count(1):
        yield (shift + i * step) % 1.0


def _steady(p):
    target = p["delta"] + p["rho"] + p["theta"] * p["alpha_T"]
    dep = p["delta"] + p["alpha_L"] + p["alpha_T"]
    k = (p["alpha"] * p["A"] / target) ** (1.0 / (1.0 - p["alpha"]))
    return k, p["A"] * k ** p["alpha"] - dep * k, target, dep


def _jacobian(p):
    _, _, target, dep = _steady(p)
    a11 = p["rho"] - p["alpha_L"] - (1.0 - p["theta"]) * p["alpha_T"]
    return a11, dep - target / p["alpha"], (p["alpha"] - 1.0) / p["theta"] * target


def _eigenvalues(p):
    """(lambda1, lambda2) of the steady-state Jacobian, lambda1 > 0 > lambda2."""
    a11, a12, a21 = _jacobian(p)
    s = 0.5 * math.sqrt(a11 * a11 + 4.0 * a12 * a21)
    return 0.5 * a11 + s, 0.5 * a11 - s


def linear_arm_slope(p):
    """d log c / d log k along the stable eigenvector at the steady state."""
    a11, a12, _ = _jacobian(p)
    return (_eigenvalues(p)[1] - a11) / a12


def ramsey_valid(p):
    """The conditions RamseyParams, steady_state and eigen_closed check:
    positive effective discount (a11), positive c*, distinct eigenvalues."""
    if not 0.0 < p["alpha"] < 1.0:
        return False
    a11, a12, a21 = _jacobian(p)
    return (a11 > 0.0 and _steady(p)[1] > 0.0
            and abs(a11 * a11 + 4.0 * a12 * a21) > 1.0e-12)


def ramsey_params(rng):
    """Endless parameter sets: each of the 7 values log-uniform in
    [2^-SPREAD, 2^SPREAD] x baseline, sets the library would reject
    skipped."""
    keys = tuple(BASELINE)
    for u in quasirandom(rng, len(keys)):
        p = {k: BASELINE[k] * 2.0 ** (SPREAD * (2.0 * x - 1.0))
             for k, x in zip(keys, u)}
        if ramsey_valid(p):
            yield p


def ramsey_strata(rng, block, depth):
    """Parameter sets in blocks of `block`, stratified on the unstable
    eigenvalue lambda1: its inverse sets how long every shooting trial
    runs (it explains three quarters of the variance of verify times),
    and on the seed program it also separates the sets that raise
    HorizonError (slow) from those where shooting goes wrong (fast).
    Each block orders block * depth draws by lambda1 and keeps one
    random draw from each of `block` equal strata, in shuffled order.
    Unstratified, op cost and the failed share swing with the seed."""
    draws = ramsey_params(rng)
    while True:
        pool = sorted(itertools.islice(draws, block * depth),
                      key=lambda p: _eigenvalues(p)[0])
        picks = [pool[i * depth + int(rng.integers(depth))] for i in range(block)]
        for k in rng.permutation(block):
            yield picks[k]


def _ramsey_argv(kind, p):
    return [kind] + [f"--{_FLAG[k]}={num(v)}" for k, v in p.items()]


# ---------------------------------------------------------------------------
# workloads


def verify_sweep(rng):
    """ramsey-verify on a fresh parameter set per op."""
    for p in ramsey_strata(rng, block=16, depth=8):
        yield {"kind": "ramsey-verify", "params": p,
               "argv": _ramsey_argv("ramsey-verify", p)}


# parameter sets in the saddle-policy panel
PANEL_SETS = 8


def saddle_policy(rng):
    """Many ramsey-saddle ops sharing a few parameter sets, round-robin;
    k0 log-uniform over the documented [0.05, 5] x k*.

    The sets are one fixed panel, drawn from the box once (generator
    seed 0, stratified); the workload seed draws the k0 values.  The
    seed program's shooting defects strike whole parameter sets (a set
    fails on nearly every k0 or on none), so with 8 sets drawn per seed
    the failed share swung from 9% to 29% between seeds."""
    panel = ramsey_strata(np.random.default_rng(0), block=PANEL_SETS, depth=16)
    sets = list(itertools.islice(panel, PANEL_SETS))
    k0s = [quasirandom(rng, 1) for _ in sets]
    while True:
        for p, k0 in zip(sets, k0s):
            lo, hi = K0_FRACS
            frac = float(lo * (hi / lo) ** next(k0)[0])
            argv = _ramsey_argv("ramsey-saddle", p) + [
                f"--k0-frac={num(frac)}", "--tol=1e-10"]
            yield {"kind": "ramsey-saddle", "params": p, "k0_frac": frac,
                   "argv": argv}


def _square(rng, n):
    return rng.uniform(-5.0, 5.0, (n, n))


def _size(u):
    return 1 + int(6.0 * u)  # n <= 6


def _lab_det(rng, u, params):
    a = _square(rng, _size(u[0]))
    return {"matrix": a.tolist(), "argv": ["det", "--matrix=" + _mat(a)]}


def _lab_eig(rng, u, params):
    while True:
        a = _square(rng, 2)
        tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        # real, well-separated eigenvalues: a complex or repeated pair
        # is a documented domain error with no eigenvector to check
        if tr * tr - 4.0 * det > 1.0:
            break
    x = rng.uniform(-5.0, 5.0, 2)
    return {"matrix": a.tolist(), "vector": x.tolist(),
            "argv": ["eig", "--matrix=" + _mat(a), "--vector=" + _vec(x)]}


def _lab_cramer(rng, u, params):
    n = _size(u[0])
    while True:  # criterion 5's well-conditioned family
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        if np.linalg.cond(a) <= 1.0e3:
            break
    b = rng.standard_normal(n)
    return {"matrix": a.tolist(), "rhs": b.tolist(),
            "argv": ["cramer", "--matrix=" + _mat(a), "--rhs=" + _vec(b)]}


def _lab_companion(rng, u, params):
    c = rng.uniform(-3.0, 3.0, _size(u[0]))
    x = float(rng.uniform(-3.0, 3.0))
    return {"coeffs": c.tolist(), "x": x,
            "argv": ["companion", "--coeffs=" + _vec(c), f"--x={num(x)}"]}


def _lab_taylor(rng, u, params):
    x = float(100.0 * u[0] - 50.0)
    terms = 16 + int(15.0 * u[1])
    return {"x": x, "terms": terms,
            "argv": ["taylor", f"--x={num(x)}", f"--terms={terms}"]}


def _lab_sphere(rng, u, params):
    n = _size(u[0])
    # Entries in [-1/n, 1/n] keep every eigenvalue below 1 in magnitude
    # (Gershgorin).  The default tol 1e-16 is below one ulp of an
    # eigenvalue above 0.5, so power iteration can stop only on two
    # equal quotients; with entries in [-3, 3] about 1 op in 1200
    # flickers in the last bit until max_iter (ConvergenceError).
    # tol 3e-16 admits two ulps below 1, and the residual bar
    # sqrt(tol)/4, doubled in the printed gradient residual, stays
    # below the oracle's 1e-8.
    s = 1.0 / n
    while True:
        a = rng.uniform(-s, s, (n, n))
        a = 0.5 * (a + a.T)
        w = np.linalg.eigvalsh(a)
        # a repeated extremum has no unique optimizer to check against
        if n == 1 or min(w[1] - w[0], w[-1] - w[-2]) > s / 60.0:
            break
    return {"matrix": a.tolist(),
            "argv": ["sphere", "--matrix=" + _mat(a), "--tol=3e-16"]}


def _lab_crra(rng, u, params):
    # one op in five on the log branch, theta = 1 exactly
    theta = 1.0 if u[0] < 0.2 else float(0.3 * (50.0 / 3.0) ** ((u[0] - 0.2) / 0.8))
    x = float(0.2 * 50.0 ** u[1])
    k0 = float(rng.uniform(0.5, 3.0))
    k1 = float(rng.uniform(-5.0, 5.0))
    # central differences of U cancel when U is large next to U' h^2
    # (theta near 1, or large theta, x and |k1|): keep the draws whose
    # roundoff bound is at most a tenth of the 1e-5 bar
    if arrow_pratt_roundoff(theta, x, k0, k1) > 1.0e-6:
        return None
    return {"theta": theta, "x": x, "k0": k0, "k1": k1,
            "argv": ["crra", f"--theta={num(theta)}", f"--x={num(x)}",
                     f"--k0={num(k0)}", f"--k1={num(k1)}"]}


def _lab_carbon(rng, u, params):
    spec = {"tau_oc": float(rng.uniform(10.0, 100.0)),
            "tau_ld": float(rng.uniform(10.0, 100.0)),
            "f0": float(rng.uniform(1.0, 20.0)),
            "d": float(rng.uniform(0.005, 0.04)),
            "x0": float(rng.uniform(100.0, 1000.0)),
            "t1": float(50.0 + 250.0 * u[0])}
    # step at most 0.1, the step criterion 8 holds RK4 to 1e-6 at
    spec["steps"] = int(math.ceil(spec["t1"] / (0.05 + 0.05 * u[1])))
    argv = ["carbon"] + [f"--{k.replace('_', '-')}={num(v)}"
                         for k, v in spec.items() if k != "steps"]
    return dict(spec, argv=argv + [f"--steps={spec['steps']}"])


def _lab_ramsey(kind):
    def make(rng, u, params):
        p = next(params)
        return {"params": p, "argv": _ramsey_argv(kind, p)}
    return make


def _lab_simulate(rng, u, params):
    """Start on the linear arm or 5-20% off it, at k0 away from k* so
    the side of the exact arm is never a rounding question."""
    p = next(params)
    k_star, c_star, _, _ = _steady(p)
    frac = math.exp(math.log(0.3) + math.log(0.8 / 0.3) * u[0])
    if u[1] < 0.5:
        frac = 1.0 / frac
    k0 = frac * k_star
    c0 = c_star * frac ** linear_arm_slope(p)
    if u[2] >= 0.5:
        c0 *= 1.0 + float(rng.uniform(0.05, 0.2)) * (1.0 if u[2] < 0.75 else -1.0)
    t1 = float(40.0 + 80.0 * u[3])
    steps = int(round(20.0 * t1))
    return {"params": p, "k0": k0, "c0": c0, "t1": t1, "steps": steps,
            "argv": _ramsey_argv("ramsey-simulate", p) + [
                f"--k0={num(k0)}", f"--c0={num(c0)}", f"--t1={num(t1)}",
                f"--steps={steps}", "--output={csv}", "--svg={svg}"]}


# subcommand: (op maker, dimensions of its evenly spread draws)
_LAB = {
    "det": (_lab_det, 1), "eig": (_lab_eig, 1), "cramer": (_lab_cramer, 1),
    "companion": (_lab_companion, 1), "taylor": (_lab_taylor, 2),
    "sphere": (_lab_sphere, 1), "crra": (_lab_crra, 2),
    "carbon": (_lab_carbon, 2),
    "ramsey-steady": (_lab_ramsey("ramsey-steady"), 1),
    "ramsey-linearize": (_lab_ramsey("ramsey-linearize"), 1),
    "ramsey-simulate": (_lab_simulate, 4),
}

LAB_KINDS = tuple(_LAB)


def lab_mix(rng):
    """A uniform mix of the 11 subcommands that do no shooting, each
    block of 11 ops one of every kind in shuffled order."""
    params = ramsey_strata(rng, block=16, depth=8)
    draws = {kind: quasirandom(rng, dims) for kind, (_, dims) in _LAB.items()}
    while True:
        for i in rng.permutation(len(LAB_KINDS)):
            kind = LAB_KINDS[i]
            op = None
            while op is None:  # a maker returns None to skip its draw
                op = _LAB[kind][0](rng, next(draws[kind]), params)
            op["kind"] = kind
            yield op


_GENERATORS = {"verify-sweep": verify_sweep, "saddle-policy": saddle_policy,
               "lab-mix": lab_mix}


def ops(workload, seed):
    """Endless, deterministic op stream for a workload and seed."""
    return _GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))

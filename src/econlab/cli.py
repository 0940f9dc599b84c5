"""Batch command-line front end.

One subcommand per laboratory operation, numeric output with fixed
12-significant-digit formatting so repeated runs are byte-identical.
Exit codes: 0 ok, 2 usage, 3 domain, 4 convergence/divergence, 5 I/O.
"""

import argparse
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import carbon, crra, matgeo, ramsey, series, spectra
from .errors import ConvergenceError, DivergenceError, DomainError, EconLabError
# central_diff_gradient is unused here; the benchmark tracer still looks
# the name up on this module (perfbench/tracing.py)
from .numerics import Grid, central_diff_gradient, rk4_integrate  # noqa: F401
from .phaseplot import render_phase_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

#: ramsey.BASELINE under its config-file keys, in RamseyParams field order
BASELINE_CONFIG = {("A" if name == "A_tfp" else name): value
                   for name, value in asdict(ramsey.BASELINE).items()}

_RAMSEY_KEYS = tuple(BASELINE_CONFIG)


def fmt(v) -> str:
    """12 significant digits, locale-independent."""
    return f"{float(v):.11e}"


def _matrix_arg(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        arr = np.array(rows, dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad matrix literal {text!r}: {exc}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise argparse.ArgumentTypeError(f"matrix must be square, got {text!r}")
    return arr


def _vector_arg(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector literal {text!r}: {exc}")


def parse_kv_config(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            out[key] = float(val.strip())
        except ValueError:
            raise DomainError(f"config line {lineno}: non-numeric value {val.strip()!r}")
    return out


def _load_ramsey_params(ns) -> ramsey.RamseyParams:
    if ns.config == "baseline":
        cfg = dict(BASELINE_CONFIG)
    else:
        with open(ns.config, "r", encoding="utf-8") as fh:
            cfg = parse_kv_config(fh.read())
        unknown = sorted(set(cfg) - set(_RAMSEY_KEYS))
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(set(_RAMSEY_KEYS) - set(cfg))
        if missing:
            raise DomainError(f"missing config keys: {', '.join(missing)}")
    for key in _RAMSEY_KEYS:
        override = getattr(ns, key, None)
        if override is not None:
            cfg[key] = override
    return ramsey.RamseyParams(*(cfg[key] for key in _RAMSEY_KEYS))


@dataclass
class RunConfig:
    """A validated invocation: the subcommand plus its options."""

    command: str
    options: dict


def _add_ramsey_options(sub):
    sub.add_argument("--config", default="baseline",
                     help="key=value parameter file, or the literal name "
                          "'baseline' (default)")
    for key in _RAMSEY_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                         default=None, help=f"override {key}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econlab",
        description="Numerical laboratory for growth-theory classroom math.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("det", help="determinant (area) of a square matrix")
    s.add_argument("--matrix", type=_matrix_arg, required=True,
                   help='rows separated by ";", entries by "," e.g. "3,1;1,4"')

    s = subs.add_parser("eig", help="2x2 eigen-decomposition, optional chain")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--vector", type=_vector_arg, default=None,
                   help="apply the diagonalized map to this vector")

    s = subs.add_parser("cramer", help="solve a linear system by Cramer's rule")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--rhs", type=_vector_arg, required=True)

    s = subs.add_parser("companion",
                        help="evaluate a monic polynomial as a determinant")
    s.add_argument("--coeffs", type=_vector_arg, required=True,
                   help="a0,a1,...,a_{n-1} (ascending, leading 1 implied)")
    s.add_argument("--x", type=float, required=True)

    s = subs.add_parser("taylor", help="Maclaurin sin/cos/exp(ix) at a point")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--terms", type=int, default=24)

    s = subs.add_parser("sphere",
                        help="extrema of x^T A x on the unit sphere")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--tol", type=float, default=1.0e-16)
    s.add_argument("--max-iter", type=int, default=100000)

    s = subs.add_parser("carbon", help="carbon box model CSV")
    s.add_argument("--tau-oc", type=float, default=30.0)
    s.add_argument("--tau-ld", type=float, default=30.0)
    s.add_argument("--f0", type=float, default=10.0)
    s.add_argument("--d", type=float, default=0.02)
    s.add_argument("--x0", type=float, default=600.0)
    s.add_argument("--t1", type=float, default=200.0)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--output", default=None, help="CSV path (default stdout)")

    s = subs.add_parser("crra", help="CRRA utility, marginal, risk aversion")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--k0", type=float, default=1.0)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--h", type=float, default=None)

    s = subs.add_parser("ramsey-steady", help="closed-form steady state")
    _add_ramsey_options(s)

    s = subs.add_parser("ramsey-linearize",
                        help="Jacobian and eigen-structure at the steady state")
    _add_ramsey_options(s)

    s = subs.add_parser("ramsey-saddle",
                        help="initial consumption: linear arm vs shooting")
    _add_ramsey_options(s)
    s.add_argument("--k0", type=float, default=None,
                   help="initial capital (absolute)")
    s.add_argument("--k0-frac", type=float, default=0.5,
                   help="initial capital as a fraction of k* (default 0.5)")
    s.add_argument("--tol", type=float, default=1.0e-8)
    s.add_argument("--t-max", type=float, default=500.0)
    s.add_argument("--dt", type=float, default=0.05)

    s = subs.add_parser("ramsey-simulate", help="trajectory CSV / phase SVG")
    _add_ramsey_options(s)
    s.add_argument("--k0", type=float, required=True)
    s.add_argument("--c0", type=float, required=True)
    s.add_argument("--t1", type=float, default=200.0)
    s.add_argument("--steps", type=int, default=4000)
    s.add_argument("--output", default=None, help="CSV path (default stdout)")
    s.add_argument("--svg", default=None, help="optional phase-plane SVG path")

    s = subs.add_parser("ramsey-verify",
                        help="oracle battery: exit 0 iff every check passes")
    _add_ramsey_options(s)

    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate; raises SystemExit(2) on usage errors and
    DomainError (exit 3 via main) on out-of-domain values."""
    ns = _build_parser().parse_args(argv)
    opts = vars(ns).copy()
    command = opts.pop("command")
    # validate domains up front so bad inputs never reach dispatch
    if command == "carbon":
        opts["params"] = carbon.CarbonParams(
            tau_oc=ns.tau_oc, tau_ld=ns.tau_ld, f0=ns.f0, d=ns.d, x0=ns.x0)
        if ns.t1 <= 0.0 or ns.steps < 1:
            raise DomainError("need t1 > 0 and steps >= 1")
    elif command == "crra":
        opts["spec"] = crra.CrraSpec(theta=ns.theta, k0=ns.k0, k1=ns.k1)
        if ns.x <= 0.0:
            raise DomainError(f"consumption must be positive, got {ns.x}")
    elif command.startswith("ramsey-"):
        opts["params"] = _load_ramsey_params(ns)
    elif command == "sphere":
        opts["matrix"] = spectra.as_symmatn(ns.matrix)
    return RunConfig(command, opts)


def _emit(lines, path=None):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_lines(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    return lines


def _cmd_det(opt):
    m = opt["matrix"]
    value = matgeo.det2(m) if m.shape == (2, 2) else matgeo.detN(m)
    _emit([fmt(value)])
    return EXIT_OK


def _cmd_eig(opt):
    d = matgeo.eig2(opt["matrix"])
    lines = [
        f"lambda1 = {fmt(d.lambda1)}",
        f"lambda2 = {fmt(d.lambda2)}",
        f"v1 = {fmt(d.v1[0])},{fmt(d.v1[1])}",
        f"v2 = {fmt(d.v2[0])},{fmt(d.v2[1])}",
    ]
    if opt["vector"] is not None:
        new, stretched, y = matgeo.change_of_basis_apply(d, opt["vector"])
        lines += [
            f"new_coords = {fmt(new[0])},{fmt(new[1])}",
            f"stretched = {fmt(stretched[0])},{fmt(stretched[1])}",
            f"y = {fmt(y[0])},{fmt(y[1])}",
        ]
    _emit(lines)
    return EXIT_OK


def _cmd_cramer(opt):
    x = matgeo.cramer_solve(opt["matrix"], opt["rhs"])
    _emit(["x = " + ",".join(fmt(v) for v in x)])
    return EXIT_OK


def _cmd_companion(opt):
    _emit([fmt(matgeo.companion_det(opt["coeffs"], opt["x"]))])
    return EXIT_OK


def _cmd_taylor(opt):
    spec = series.TaylorSpec(opt["terms"])
    x = opt["x"]
    e = series.exp_i_taylor(x, spec)
    _emit([
        f"sin = {fmt(series.sin_taylor(x, spec))}",
        f"cos = {fmt(series.cos_taylor(x, spec))}",
        f"exp_i_re = {fmt(e.re)}",
        f"exp_i_im = {fmt(e.im)}",
    ])
    return EXIT_OK


def _cmd_sphere(opt):
    a = opt["matrix"]
    start = None
    seed_text = os.environ.get("ECON_MATH_LAB_SEED")
    if seed_text is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            raise DomainError(
                f"ECON_MATH_LAB_SEED must be an integer, got {seed_text!r}")
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(a.shape[0])
    res = spectra.sphere_extrema(a, tol=opt["tol"], max_iter=opt["max_iter"],
                                 start=start)
    _emit([
        f"lambda_min = {fmt(res.lambda_min)}",
        f"lambda_max = {fmt(res.lambda_max)}",
        "x_min = " + ",".join(fmt(v) for v in res.x_min),
        "x_max = " + ",".join(fmt(v) for v in res.x_max),
        f"residual_min = {fmt(spectra.lagrange_residual(a, res.x_min, res.lambda_min))}",
        f"residual_max = {fmt(spectra.lagrange_residual(a, res.x_max, res.lambda_max))}",
    ])
    return EXIT_OK


def _cmd_carbon(opt):
    p = opt["params"]
    grid = Grid(0.0, opt["t1"], opt["steps"])
    t = grid.times
    closed = carbon.concentration_closed(p, t)
    traj = rk4_integrate(carbon.concentration_rhs(p), p.x0, grid)
    af = carbon.airborne_fraction(p, t)
    af_lim = np.full_like(t, carbon.airborne_fraction_limit(p))
    lines = _csv_lines(
        ["t", "f", "x_closed", "x_rk4", "af", "af_limit"],
        [t, carbon.emissions(p, t), closed, traj.states[:, 0], af, af_lim])
    _emit(lines, opt["output"])
    return EXIT_OK


def _cmd_crra(opt):
    s = opt["spec"]
    x = opt["x"]
    _emit([
        f"utility = {fmt(crra.utility(s, x))}",
        f"marginal = {fmt(crra.marginal(s, x))}",
        f"arrow_pratt = {fmt(crra.arrow_pratt(s, x, opt['h']))}",
    ])
    return EXIT_OK


def _cmd_ramsey_steady(opt):
    p = opt["params"]
    ss = ramsey.steady_state(p)
    resid = float(np.max(np.abs(ramsey.rhs(p, ss.log_k_star, ss.log_c_star))))
    _emit([
        f"k_star = {fmt(ss.k_star)}",
        f"c_star = {fmt(ss.c_star)}",
        f"rhs_residual = {fmt(resid)}",
    ])
    return EXIT_OK


def _cmd_ramsey_linearize(opt):
    p = opt["params"]
    lin = ramsey.linearize(p)
    j, d = lin.jac, lin.eigen
    _emit([
        f"a11 = {fmt(j[0, 0])}",
        f"a12 = {fmt(j[0, 1])}",
        f"a21 = {fmt(j[1, 0])}",
        f"a22 = {fmt(j[1, 1])}",
        f"lambda1 = {fmt(d.lambda1)}",
        f"lambda2 = {fmt(d.lambda2)}",
        f"v1 = {fmt(d.v1[0])},{fmt(d.v1[1])}",
        f"v2 = {fmt(d.v2[0])},{fmt(d.v2[1])}",
        f"diagonalizable = {ramsey.is_diagonalizable(p)}",
    ])
    return EXIT_OK


def _cmd_ramsey_saddle(opt):
    p = opt["params"]
    ss = ramsey.steady_state(p)
    k0 = opt["k0"] if opt["k0"] is not None else opt["k0_frac"] * ss.k_star
    c0_linear = ramsey.saddle_path_linear(p, k0)
    c0_shoot = ramsey.shoot_nonlinear(p, k0, opt["tol"], opt["t_max"],
                                      dt=opt["dt"])
    gap = abs(c0_linear - c0_shoot) / c0_shoot
    _emit([
        f"k0 = {fmt(k0)}",
        f"c0_linear = {fmt(c0_linear)}",
        f"c0_shooting = {fmt(c0_shoot)}",
        f"relative_gap = {fmt(gap)}",
    ])
    return EXIT_OK


def _trajectory_csv(p, traj):
    t = traj.times
    k = np.exp(traj.states[:, 0])
    c = np.exp(traj.states[:, 1])
    r, w = ramsey.firm_prices(p, k, t)
    return _csv_lines(["t", "log_k", "log_c", "k", "c", "r", "w"],
                      [t, traj.states[:, 0], traj.states[:, 1], k, c, r, w])


def _cmd_ramsey_simulate(opt):
    p = opt["params"]
    grid = Grid(0.0, opt["t1"], opt["steps"])
    code = EXIT_OK
    message = None
    try:
        traj = ramsey.simulate(p, opt["k0"], opt["c0"], grid)
    except DivergenceError as exc:
        traj = exc.partial
        message = str(exc)
        code = EXIT_CONVERGENCE
    if traj is not None:
        _emit(_trajectory_csv(p, traj), opt["output"])
        if opt["svg"] is not None:
            render_phase_svg([traj], ramsey.steady_state(p), opt["svg"],
                             params=p)
    if message is not None:
        print(message, file=sys.stderr)
    return code


def _cmd_ramsey_verify(opt):
    checks = ramsey.verify(opt["params"])
    all_ok = all(c.passed for c in checks)
    _emit([f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})"
           for c in checks]
          + [f"{'PASS' if all_ok else 'FAIL'} ramsey-verify overall"])
    return EXIT_OK if all_ok else 1


_HANDLERS = {
    "det": _cmd_det,
    "eig": _cmd_eig,
    "cramer": _cmd_cramer,
    "companion": _cmd_companion,
    "taylor": _cmd_taylor,
    "sphere": _cmd_sphere,
    "carbon": _cmd_carbon,
    "crra": _cmd_crra,
    "ramsey-steady": _cmd_ramsey_steady,
    "ramsey-linearize": _cmd_ramsey_linearize,
    "ramsey-saddle": _cmd_ramsey_saddle,
    "ramsey-simulate": _cmd_ramsey_simulate,
    "ramsey-verify": _cmd_ramsey_verify,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated RunConfig; returns the process exit code."""
    return _HANDLERS[config.command](config.options)


def main(argv=None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse usage failure
        return EXIT_USAGE if exc.code else EXIT_OK
    except (EconLabError, OSError) as exc:
        print(f"econlab: {exc}", file=sys.stderr)
        return (EXIT_CONVERGENCE if isinstance(exc, ConvergenceError)
                else EXIT_DOMAIN if isinstance(exc, EconLabError) else EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

One subcommand per laboratory operation, numeric output with fixed
12-significant-digit formatting so repeated runs are byte-identical.
Exit codes: 0 ok, 1 a failing ramsey-verify check, 2 usage, 3 domain,
4 convergence/divergence, 5 I/O.
"""

import argparse
import os
import sys
from dataclasses import asdict

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


def _add_ramsey_options(sub):
    sub.add_argument("--config", default="baseline",
                     help="key=value parameter file, or the literal name "
                          "'baseline' (default)")
    for key in _RAMSEY_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                         default=None, help=f"override {key}")


def _subcommand(subs, name, handler, **kw):
    s = subs.add_parser(name, **kw)
    s.set_defaults(run=handler)
    return s


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econlab",
        description="Numerical laboratory for growth-theory classroom math.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = _subcommand(subs, "det", _cmd_det,
                    help="determinant (area) of a square matrix")
    s.add_argument("--matrix", type=_matrix_arg, required=True,
                   help='rows separated by ";", entries by "," e.g. "3,1;1,4"')

    s = _subcommand(subs, "eig", _cmd_eig,
                    help="2x2 eigen-decomposition, optional chain")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--vector", type=_vector_arg, default=None,
                   help="apply the diagonalized map to this vector")

    s = _subcommand(subs, "cramer", _cmd_cramer,
                    help="solve a linear system by Cramer's rule")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--rhs", type=_vector_arg, required=True)

    s = _subcommand(subs, "companion", _cmd_companion,
                    help="evaluate a monic polynomial as a determinant")
    s.add_argument("--coeffs", type=_vector_arg, required=True,
                   help="a0,a1,...,a_{n-1} (ascending, leading 1 implied)")
    s.add_argument("--x", type=float, required=True)

    s = _subcommand(subs, "taylor", _cmd_taylor,
                    help="Maclaurin sin/cos/exp(ix) at a point")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--terms", type=int, default=24)

    s = _subcommand(subs, "sphere", _cmd_sphere,
                    help="extrema of x^T A x on the unit sphere")
    s.add_argument("--matrix", type=_matrix_arg, required=True)
    s.add_argument("--tol", type=float, default=1.0e-16)
    s.add_argument("--max-iter", type=int, default=100000)

    s = _subcommand(subs, "carbon", _cmd_carbon, help="carbon box model CSV")
    s.add_argument("--tau-oc", type=float, default=30.0)
    s.add_argument("--tau-ld", type=float, default=30.0)
    s.add_argument("--f0", type=float, default=10.0)
    s.add_argument("--d", type=float, default=0.02)
    s.add_argument("--x0", type=float, default=600.0)
    s.add_argument("--t1", type=float, default=200.0)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--output", default=None, help="CSV path (default stdout)")

    s = _subcommand(subs, "crra", _cmd_crra,
                    help="CRRA utility, marginal, risk aversion")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--k0", type=float, default=1.0)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--h", type=float, default=None)

    s = _subcommand(subs, "ramsey-steady", _cmd_ramsey_steady,
                    help="closed-form steady state")
    _add_ramsey_options(s)

    s = _subcommand(subs, "ramsey-linearize", _cmd_ramsey_linearize,
                    help="Jacobian and eigen-structure at the steady state")
    _add_ramsey_options(s)

    s = _subcommand(subs, "ramsey-saddle", _cmd_ramsey_saddle,
                    help="initial consumption: linear arm vs shooting")
    _add_ramsey_options(s)
    s.add_argument("--k0", type=float, default=None,
                   help="initial capital (absolute)")
    s.add_argument("--k0-frac", type=float, default=0.5,
                   help="initial capital as a fraction of k* (default 0.5)")
    s.add_argument("--tol", type=float, default=1.0e-8)

    s = _subcommand(subs, "ramsey-simulate", _cmd_ramsey_simulate,
                    help="trajectory CSV / phase SVG")
    _add_ramsey_options(s)
    s.add_argument("--k0", type=float, required=True)
    s.add_argument("--c0", type=float, required=True)
    s.add_argument("--t1", type=float, default=200.0)
    s.add_argument("--steps", type=int, default=4000)
    s.add_argument("--output", default=None, help="CSV path (default stdout)")
    s.add_argument("--svg", default=None, help="optional phase-plane SVG path")

    s = _subcommand(subs, "ramsey-verify", _cmd_ramsey_verify,
                    help="oracle battery: exit 0 iff every check passes")
    _add_ramsey_options(s)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv; raises SystemExit(2) on usage errors.  The namespace's
    `run` is the subcommand's handler, which builds the library objects
    (and so makes every domain check) before it writes anything."""
    return _build_parser().parse_args(argv)


def _emit(lines, path=None):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fields(**values):
    """One `name = value` line per keyword, in order; a vector's entries
    are joined by commas."""
    return [f"{name} = " + ",".join(fmt(v) for v in np.atleast_1d(value))
            for name, value in values.items()]


def _csv_lines(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    return lines


def _cmd_det(opt):
    m = opt.matrix
    value = matgeo.det2(m) if m.shape == (2, 2) else matgeo.detN(m)
    _emit([fmt(value)])
    return EXIT_OK


def _cmd_eig(opt):
    d = matgeo.eig2(opt.matrix)
    lines = _fields(lambda1=d.lambda1, lambda2=d.lambda2, v1=d.v1, v2=d.v2)
    if opt.vector is not None:
        new, stretched, y = matgeo.change_of_basis_apply(d, opt.vector)
        lines += _fields(new_coords=new, stretched=stretched, y=y)
    _emit(lines)
    return EXIT_OK


def _cmd_cramer(opt):
    _emit(_fields(x=matgeo.cramer_solve(opt.matrix, opt.rhs)))
    return EXIT_OK


def _cmd_companion(opt):
    _emit([fmt(matgeo.companion_det(opt.coeffs, opt.x))])
    return EXIT_OK


def _cmd_taylor(opt):
    spec = series.TaylorSpec(opt.terms)
    x = opt.x
    e = series.exp_i_taylor(x, spec)
    _emit(_fields(sin=series.sin_taylor(x, spec),
                  cos=series.cos_taylor(x, spec),
                  exp_i_re=e.re, exp_i_im=e.im))
    return EXIT_OK


def _cmd_sphere(opt):
    a = opt.matrix
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
    res = spectra.sphere_extrema(a, tol=opt.tol, max_iter=opt.max_iter,
                                 start=start)
    _emit(_fields(
        lambda_min=res.lambda_min, lambda_max=res.lambda_max,
        x_min=res.x_min, x_max=res.x_max,
        residual_min=spectra.lagrange_residual(a, res.x_min, res.lambda_min),
        residual_max=spectra.lagrange_residual(a, res.x_max, res.lambda_max)))
    return EXIT_OK


def _cmd_carbon(opt):
    p = carbon.CarbonParams(tau_oc=opt.tau_oc, tau_ld=opt.tau_ld, f0=opt.f0,
                            d=opt.d, x0=opt.x0)
    grid = Grid(0.0, opt.t1, opt.steps)
    t = grid.times
    # integrate first, so whichever failure comes first in time is the
    # one reported: a stock past the divergence limit ends in
    # DivergenceError, emissions past the floating-point range in
    # DomainError from the vector field.  The emissions are then checked
    # on the grid before the closed forms use e^{dt}.
    traj = rk4_integrate(carbon.concentration_rhs(p), p.x0, grid)
    f = carbon.emissions(p, t)
    closed = carbon.concentration_closed(p, t)
    af = carbon.airborne_fraction(p, t)
    af_lim = np.full_like(t, carbon.airborne_fraction_limit(p))
    lines = _csv_lines(
        ["t", "f", "x_closed", "x_rk4", "af", "af_limit"],
        [t, f, closed, traj.states[:, 0], af, af_lim])
    _emit(lines, opt.output)
    return EXIT_OK


def _cmd_crra(opt):
    s, x = crra.CrraSpec(theta=opt.theta, k0=opt.k0, k1=opt.k1), opt.x
    _emit(_fields(utility=crra.utility(s, x), marginal=crra.marginal(s, x),
                  arrow_pratt=crra.arrow_pratt(s, x, opt.h)))
    return EXIT_OK


def _cmd_ramsey_steady(opt):
    p = _load_ramsey_params(opt)
    ss = ramsey.steady_state(p)
    resid = np.max(np.abs(ramsey.rhs(p, ss.log_k_star, ss.log_c_star)))
    _emit(_fields(k_star=ss.k_star, c_star=ss.c_star, rhs_residual=resid))
    return EXIT_OK


def _cmd_ramsey_linearize(opt):
    p = _load_ramsey_params(opt)
    lin = ramsey.linearize(p)
    j, d = lin.jac, lin.eigen
    _emit(_fields(a11=j[0, 0], a12=j[0, 1], a21=j[1, 0], a22=j[1, 1],
                  lambda1=d.lambda1, lambda2=d.lambda2, v1=d.v1, v2=d.v2)
          + [f"diagonalizable = {ramsey.is_diagonalizable(p)}"])
    return EXIT_OK


def _cmd_ramsey_saddle(opt):
    p = _load_ramsey_params(opt)
    ss = ramsey.steady_state(p)
    k0 = opt.k0 if opt.k0 is not None else opt.k0_frac * ss.k_star
    c0_linear = ramsey.saddle_path_linear(p, k0)
    c0_shoot = ramsey.shoot_reverse(p, k0, opt.tol)
    _emit(_fields(k0=k0, c0_linear=c0_linear, c0_shooting=c0_shoot,
                  relative_gap=abs(c0_linear - c0_shoot) / c0_shoot))
    return EXIT_OK


def _trajectory_csv(p, traj):
    t = traj.times
    k = np.exp(traj.states[:, 0])
    c = np.exp(traj.states[:, 1])
    r, w = ramsey.firm_prices(p, k, t)
    return _csv_lines(["t", "log_k", "log_c", "k", "c", "r", "w"],
                      [t, traj.states[:, 0], traj.states[:, 1], k, c, r, w])


def _cmd_ramsey_simulate(opt):
    p = _load_ramsey_params(opt)
    grid = Grid(0.0, opt.t1, opt.steps)
    code = EXIT_OK
    message = None
    try:
        traj = ramsey.simulate(p, opt.k0, opt.c0, grid)
    except DivergenceError as exc:
        traj = exc.partial
        message = str(exc)
        code = EXIT_CONVERGENCE
    if traj is not None:
        _emit(_trajectory_csv(p, traj), opt.output)
        if opt.svg is not None:
            render_phase_svg([traj], p, opt.svg)
    if message is not None:
        print(message, file=sys.stderr)
    return code


def _cmd_ramsey_verify(opt):
    checks = ramsey.verify(_load_ramsey_params(opt))
    all_ok = all(c.passed for c in checks)
    _emit([f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})"
           for c in checks]
          + [f"{'PASS' if all_ok else 'FAIL'} ramsey-verify overall"])
    return EXIT_OK if all_ok else 1


def main(argv=None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
        return ns.run(ns)
    except SystemExit as exc:  # argparse usage failure
        return EXIT_USAGE if exc.code else EXIT_OK
    except (EconLabError, OSError) as exc:
        print(f"econlab: {exc}", file=sys.stderr)
        return (EXIT_CONVERGENCE if isinstance(exc, ConvergenceError)
                else EXIT_DOMAIN if isinstance(exc, EconLabError) else EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())

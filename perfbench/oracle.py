"""Independent reference answers for every benchmark op, and the checks
that compare the program's printed output against them.

Nothing here imports econlab: each reference is computed by a different
route (numpy.linalg, numpy.polyval, the math module, closed forms written
out afresh, scipy.integrate.solve_ivp).  Tolerances are never looser
than the bar the library itself documents for the same quantity; each
one also admits half a unit in the 12th significant digit, which is the
resolution of the CLI's fixed output format.

Run as a script, this module serves checks over stdin/stdout (one JSON
object per line), so the benchmark process that drives the program never
loads scipy and its peak memory stays the program's own.
"""

import json
import math
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np

# the CLI prints every number as f"{v:.11e}"
_FMT_HALF_UNIT = 5.0e-12


def printed_tol(ref):
    """Half a unit in the last printed digit of a value near `ref`
    (elementwise for arrays)."""
    a = np.abs(np.asarray(ref, dtype=float))
    with np.errstate(divide="ignore"):
        tol = _FMT_HALF_UNIT * 10.0 ** np.floor(np.log10(a))
    return np.where(np.isfinite(tol), tol, 0.0)


def close(got, ref, tol):
    """|got - ref| within `tol` plus the printed resolution of `ref`."""
    return abs(got - ref) <= tol + printed_tol(ref)


class Miss(Exception):
    """The printed answer disagrees with the reference.  `known`: the
    error lies within what a defect of the seed program explains (see
    "Known defects" below)."""

    def __init__(self, field, why, known=False):
        super().__init__(f"{field}: {why}")
        self.field = field
        self.known = known


def _need(ok, field, why, known=False):
    """Raise Miss naming the output `field` at fault unless `ok`."""
    if not ok:
        raise Miss(field, why, known)


def _lines(out):
    """`name = value` output lines as a dict of strings."""
    d = {}
    for line in out.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            d[key] = val
    return d


def _floats(text):
    return [float(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# small linear algebra, series, carbon, CRRA


def _ref_det(spec):
    a = np.array(spec["matrix"], dtype=float)
    ref = float(np.linalg.det(a))
    # LU rounding grows with the Hadamard bound prod ||row||
    hadamard = float(np.prod(np.linalg.norm(a, axis=1)))
    return ref, 1.0e-12 * max(1.0, hadamard)


def check_det(spec, out):
    ref, tol = _ref_det(spec)
    got = float(out.strip())
    _need(close(got, ref, tol), "det", f"{got!r} vs {ref!r}")
    return got


def _unit_max(v):
    """Scale so the largest-magnitude component is +1 (the CLI's norm)."""
    v = np.asarray(v, dtype=float)
    return v / v[int(np.argmax(np.abs(v)))]


def check_eig(spec, out):
    a = np.array(spec["matrix"], dtype=float)
    w, vecs = np.linalg.eig(a)
    order = np.argsort(-w.real)
    lam = w.real[order]
    v = [_unit_max(vecs[:, i].real) for i in order]
    d = _lines(out)
    scale = max(1.0, float(np.max(np.abs(a))))
    got = [float(d["lambda1"]), float(d["lambda2"])]
    for g, r in zip(got, lam):
        _need(close(g, r, 1.0e-10 * scale), "lambda", f"{g!r} vs {r!r}")
    for key, ref in (("v1", v[0]), ("v2", v[1])):
        for g, r in zip(_floats(d[key]), ref):
            _need(close(g, r, 1.0e-10), key, f"{g!r} vs {r!r}")
    if spec.get("vector") is not None:
        x = np.array(spec["vector"], dtype=float)
        p = np.column_stack(v)
        new = np.linalg.solve(p, x)
        for key, ref in (("new_coords", new), ("stretched", lam * new),
                         ("y", a @ x)):
            tol = 1.0e-10 * max(1.0, float(np.max(np.abs(ref))))
            for g, r in zip(_floats(d[key]), ref):
                _need(close(g, r, tol), key, f"{g!r} vs {r!r}")
    return got[0]


def check_cramer(spec, out):
    a = np.array(spec["matrix"], dtype=float)
    ref = np.linalg.solve(a, np.array(spec["rhs"], dtype=float))
    key, _, text = out.strip().partition(" = ")
    _need(key == "x", "x", f"unexpected output {out!r}")
    got = _floats(text)
    _need(len(got) == ref.size, "x", "wrong solution length")
    for g, r in zip(got, ref):
        _need(close(g, r, 1.0e-8), "x", f"{g!r} vs {r!r}")  # criterion 5 bar
    return got[0]


def check_companion(spec, out):
    coeffs = list(spec["coeffs"])
    x = spec["x"]
    ref = float(np.polyval([1.0] + coeffs[::-1], x))
    got = float(out.strip())
    _need(close(got, ref, 1.0e-9 * max(1.0, abs(ref))),  # criterion 4 bar
          "value", f"{got!r} vs {ref!r}")
    return got


def check_taylor(spec, out):
    x = spec["x"]
    d = _lines(out)
    refs = {"sin": math.sin(x), "cos": math.cos(x),
            "exp_i_re": math.cos(x), "exp_i_im": math.sin(x)}
    for key, ref in refs.items():
        got = float(d[key])
        _need(close(got, ref, 1.0e-12), key, f"{got!r} vs {ref!r}")
    return float(d["sin"])


def check_sphere(spec, out):
    a = np.array(spec["matrix"], dtype=float)
    w, vecs = np.linalg.eigh(a)
    d = _lines(out)
    lo, hi = float(d["lambda_min"]), float(d["lambda_max"])
    for got, ref in ((lo, w[0]), (hi, w[-1])):
        _need(close(got, ref, 1.0e-10 * max(1.0, abs(ref))),
              "lambda", f"{got!r} vs {ref!r}")
    for key, col in (("x_min", vecs[:, 0]), ("x_max", vecs[:, -1])):
        x = np.array(_floats(d[key]))
        _need(abs(abs(float(x @ col)) - 1.0) <= 1.0e-8,
              key, "not the extremal eigenvector")
    for key in ("residual_min", "residual_max"):
        _need(float(d[key]) <= 1.0e-8, key, f"{d[key]} above 1e-8")
    return hi


def check_carbon(spec, out):
    rows = np.array([_floats(r) for r in out.strip().splitlines()[1:]])
    _need(out.startswith("t,f,x_closed,x_rk4,af,af_limit\n"), "header", "bad CSV header")
    _need(rows.shape == (spec["steps"] + 1, 6), "rows", f"CSV shape {rows.shape}")
    t = np.linspace(0.0, spec["t1"], spec["steps"] + 1)
    c = 1.0 / spec["tau_oc"] + 1.0 / spec["tau_ld"]
    f0, d, x0 = spec["f0"], spec["d"], spec["x0"]
    f = f0 * np.exp(d * t)
    x = x0 * np.exp(-c * t) + f0 * (np.exp(d * t) - np.exp(-c * t)) / (c + d)
    af = 1.0 - c * x / f
    for col, name, ref, rel in ((0, "t", t, 1.0e-12), (1, "f", f, 1.0e-10),
                                (2, "x_closed", x, 1.0e-10),
                                (3, "x_rk4", x, 1.0e-6),  # criterion 8
                                (4, "af", af, 1.0e-9)):
        gap = np.abs(rows[:, col] - ref) - rel * np.maximum(1.0, np.abs(ref))
        worst = float(np.max(gap - printed_tol(ref)))
        _need(worst <= 0.0, name, f"off by {worst:.3e} beyond tolerance")
    lim = d / (c + d)
    _need(bool(np.all(np.abs(rows[:, 5] - lim) <= 1.0e-15 + printed_tol(lim))),
          "af_limit", f"not {lim!r}")
    return float(rows[-1, 3])


def _crra_terms(theta, k0, x):
    """The non-constant term of U."""
    if abs(theta - 1.0) <= 1.0e-12:
        return k0 * math.log(x)
    return k0 * x ** (1.0 - theta) / (1.0 - theta)


def arrow_pratt_roundoff(theta, x, k0, k1):
    """Roundoff bound of the seed's arrow_pratt: that of its second
    difference of U at step h = 1e-4 x, carried through -U'' x / U'.
    Each U value carries up to about 2.5 eps (|term| + |k1|) of rounding
    (power, divide, multiply, add), weighted 1, 2, 1 in the difference:
    10 eps (|term| + |k1|) / h^2."""
    h = 1.0e-4 * x
    big = abs(_crra_terms(theta, k0, x)) + abs(k1)
    d2_err = 10.0 * sys.float_info.epsilon * big / (h * h)
    return d2_err * x / (k0 * x ** (-theta))


def arrow_pratt_envelope(theta, x, k0, k1):
    """Worst error of the seed's arrow_pratt: the 1e-5 bar plus its
    roundoff bound."""
    return 1.0e-5 + arrow_pratt_roundoff(theta, x, k0, k1)


def check_crra(spec, out):
    theta, x, k0, k1 = spec["theta"], spec["x"], spec["k0"], spec["k1"]
    d = _lines(out)
    u = _crra_terms(theta, k0, x) + k1
    mu = k0 * x ** (-theta)
    _need(close(float(d["utility"]), u, 1.0e-12 * max(1.0, abs(u))),
          "utility", f"{d['utility']} vs {u!r}")
    _need(close(float(d["marginal"]), mu, 1.0e-12 * max(1.0, mu)),
          "marginal", f"{d['marginal']} vs {mu!r}")
    # central differences, criterion 9 bar
    ap = float(d["arrow_pratt"])
    _need(close(ap, theta, 1.0e-5), "arrow_pratt", f"{ap!r} vs theta {theta!r}",
          known=abs(ap - theta) <= arrow_pratt_envelope(theta, x, k0, k1))
    return float(d["utility"])


# ---------------------------------------------------------------------------
# Ramsey model, written out afresh in (log k, log c)


class Ramsey:
    """Reference model: closed-form rest point, analytic Jacobian,
    numpy eigenvectors, and scipy integrations of the vector field."""

    def __init__(self, params):
        self.A = params["A"]
        self.alpha = params["alpha"]
        self.theta = params["theta"]
        self.delta = params["delta"]
        self.aL = params["alpha_L"]
        self.aT = params["alpha_T"]
        self.rho = params["rho"]
        self.dep = self.delta + self.aL + self.aT
        self.target = self.delta + self.rho + self.theta * self.aT
        self.k_star = (self.alpha * self.A / self.target) ** (1.0 / (1.0 - self.alpha))
        self.c_star = self.A * self.k_star ** self.alpha - self.dep * self.k_star
        self.lk_star = math.log(self.k_star)
        self.lc_star = math.log(self.c_star)
        e1 = self.A * self.k_star ** (self.alpha - 1.0)
        e2 = self.c_star / self.k_star
        self.jac = np.array([
            [(self.alpha - 1.0) * e1 + e2, -e2],
            [self.alpha * (self.alpha - 1.0) * e1 / self.theta, 0.0]])
        w, vecs = np.linalg.eig(self.jac)
        order = np.argsort(-w.real)
        self.lam = w.real[order]
        self.vecs = [_unit_max(vecs[:, i].real) for i in order]
        stable = self.vecs[1]
        self.slope = stable[1] / stable[0]
        self._arm = {}

    def field(self, t, y):
        yk = self.A * math.exp((self.alpha - 1.0) * y[0])
        return [yk - math.exp(y[1] - y[0]) - self.dep,
                (self.alpha * yk - self.target) / self.theta]

    def rates(self, states):
        """The field at each row of an (n, 2) array of states."""
        lk, lc = states[:, 0], states[:, 1]
        yk = self.A * np.exp((self.alpha - 1.0) * lk)
        return np.array([yk - np.exp(lc - lk) - self.dep,
                         (self.alpha * yk - self.target) / self.theta])

    def production(self, k0):
        """The top of the shooting bracket."""
        return self.A * k0 ** self.alpha

    def linear_arm(self, k0):
        return math.exp(self.lc_star + self.slope * (math.log(k0) - self.lk_star))

    def arm(self, k0):
        """c0 on the exact stable arm at k0: integrate backward in time
        from ss + eps * v2 until log k reaches log k0."""
        if k0 in self._arm:
            return self._arm[k0]
        from scipy.integrate import solve_ivp

        lk0 = math.log(k0)
        dk = lk0 - self.lk_star
        eps = 1.0e-7
        if abs(dk) <= eps:
            return self.linear_arm(k0)
        start = [self.lk_star + math.copysign(eps, dk),
                 self.lc_star + self.slope * math.copysign(eps, dk)]

        def reached(t, y):
            return y[0] - lk0

        reached.terminal = True
        horizon = 50.0 * (1.0 + math.log(abs(dk) / eps)) / abs(self.lam[1])
        sol = solve_ivp(self.field, (0.0, -horizon), start, method="DOP853",
                        rtol=1.0e-12, atol=1.0e-14, events=reached)
        if not sol.t_events[0].size:
            raise RuntimeError(f"reference arm never reached k0={k0!r}")
        c0 = math.exp(float(sol.y_events[0][0][1]))
        self._arm[k0] = c0
        return c0

    def path(self, k0, c0, times):
        """Forward reference trajectory on `times`, cut where a log
        deviation from the steady state first exceeds 5; returns
        (states, blow-up time or None)."""
        from scipy.integrate import solve_ivp

        def blown(t, y):
            return 5.0 - max(abs(y[0] - self.lk_star), abs(y[1] - self.lc_star))

        blown.terminal = True
        sol = solve_ivp(self.field, (times[0], times[-1]),
                        [math.log(k0), math.log(c0)], method="DOP853",
                        t_eval=times, rtol=1.0e-12, atol=1.0e-12, events=blown)
        t_blow = float(sol.t_events[0][0]) if sol.t_events[0].size else None
        return sol.y.T, t_blow


_MODELS = {}


def model(params):
    key = tuple(sorted(params.items()))
    if key not in _MODELS:
        if len(_MODELS) > 64:
            _MODELS.clear()
        _MODELS[key] = Ramsey(params)
    return _MODELS[key]


def check_ramsey_steady(spec, out):
    m = model(spec["params"])
    d = _lines(out)
    # criterion 10 bar against an independent steady-state oracle
    _need(close(float(d["k_star"]), m.k_star, 1.0e-9 * max(1.0, m.k_star)),
          "k_star", f"{d['k_star']} vs {m.k_star!r}")
    _need(close(float(d["c_star"]), m.c_star, 1.0e-9 * max(1.0, m.c_star)),
          "c_star", f"{d['c_star']} vs {m.c_star!r}")
    _need(float(d["rhs_residual"]) <= 1.0e-10, "rhs_residual", "above 1e-10")
    return float(d["k_star"])


def check_ramsey_linearize(spec, out):
    m = model(spec["params"])
    d = _lines(out)
    for key, ref in (("a11", m.jac[0, 0]), ("a12", m.jac[0, 1]),
                     ("a21", m.jac[1, 0]), ("a22", 0.0),
                     ("lambda1", m.lam[0]), ("lambda2", m.lam[1])):
        _need(close(float(d[key]), ref, 1.0e-9), key, f"{d[key]} vs {ref!r}")
    for key, ref in (("v1", m.vecs[0]), ("v2", m.vecs[1])):
        for g, r in zip(_floats(d[key]), ref):
            _need(close(g, r, 1.0e-9), key, f"{g!r} vs {r!r}")
    _need(d["diagonalizable"] == "True", "diagonalizable",
          "a saddle Jacobian has distinct eigenvalues")
    return float(d["lambda2"])


# where its trials are classified right, RK4 shooting at tol 1e-10 lands
# within ~1e-7 of the exact arm over the documented k0 range; the
# library's only bar on the shooting answer is the 2% linear-arm check
SADDLE_REL_TOL = 1.0e-6


def check_ramsey_saddle(spec, out):
    m = model(spec["params"])
    k0 = spec["k0_frac"] * m.k_star
    d = _lines(out)
    _need(close(float(d["k0"]), k0, 1.0e-12 * k0), "k0", f"{d['k0']} vs {k0!r}")
    lin = m.linear_arm(k0)
    _need(close(float(d["c0_linear"]), lin, 1.0e-9 * lin),
          "c0_linear", f"{d['c0_linear']} vs {lin!r}")
    got = float(d["c0_shooting"])
    # recomputed from the printed c0 values, so each may be a rounding off
    gap = abs(lin - got) / got
    _need(close(float(d["relative_gap"]), gap, 1.0e-9 * gap + 4.0 * printed_tol(1.0)),
          "relative_gap", "inconsistent with the printed c0 values")
    ref = m.arm(k0)
    _need(close(got, ref, SADDLE_REL_TOL * ref),
          "c0_shooting", f"{got!r} vs reverse integration {ref!r}",
          known=ref * (1.0 + SADDLE_REL_TOL) < got <= m.production(k0))
    return got


def _side(m, k0, c0):
    return "c-side" if c0 > m.arm(k0) else "k-side"


def check_ramsey_simulate(spec, code, err, files):
    """exit 0: every row matches the reference path, which must not
    blow up before t1.  exit 4: the side label matches the side of the
    exact arm that c0 starts on, and the kept rows match."""
    m = model(spec["params"])
    k0, c0 = spec["k0"], spec["c0"]
    with open(files["csv"], encoding="utf-8") as fh:
        text = fh.read()
    _need(text.startswith("t,log_k,log_c,k,c,r,w\n"), "header", "bad CSV header")
    rows = np.array([_floats(r) for r in text.strip().splitlines()[1:]])
    h = spec["t1"] / spec["steps"]
    n = rows.shape[0]
    times = np.linspace(0.0, spec["t1"], spec["steps"] + 1)
    _need(all(close(g, r, 1.0e-12 * spec["t1"]) for g, r in zip(rows[:, 0], times)),
          "t", "time column is not the grid")
    ref, t_blow = m.path(k0, c0, times)
    if code == 0:
        _need(n == spec["steps"] + 1, "rows", "exit 0 but trajectory truncated")
        _need(t_blow is None or t_blow >= spec["t1"] - 2.0 * h,
              "exit", f"0, but the reference blows up at t={t_blow}")
    else:
        _need(t_blow is not None and abs((n - 1) * h - t_blow) <= 2.0 * h,
              "rows", f"blew up after {n - 1} steps, reference at t={t_blow}")
    # rows up to where the reference first moves faster than one log unit
    # per unit time: until then RK4 at h <= 0.05 tracks it to ~1e-8,
    # while in a capital crash the step no longer resolves the path
    fast = np.max(np.abs(m.rates(ref)), axis=0) > 1.0
    keep = min(n, int(np.argmax(fast)) if fast.any() else ref.shape[0])
    gap = float(np.max(np.abs(rows[:keep, 1:3] - ref[:keep]), initial=0.0))
    _need(gap <= 1.0e-6, "log_state", f"off the reference path by {gap:.3e}")
    k, c = np.exp(rows[:, 1]), np.exp(rows[:, 2])
    t = rows[:, 0]
    derived = ((3, k), (4, c),
               (5, m.alpha * m.A * k ** (m.alpha - 1.0) - m.delta),
               (6, np.exp(m.aT * t) * (1.0 - m.alpha) * m.A * k ** m.alpha))
    for col, want in derived:
        rel = np.abs(rows[:, col] - want) / np.maximum(1.0, np.abs(want))
        _need(float(np.max(rel)) <= 1.0e-9, "kcrw"[col - 3],
              "inconsistent with the log state")
    svg = ET.parse(files["svg"]).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    _need(svg.tag == ns + "svg" and len(svg.findall(ns + "circle")) == 1
          and len(svg.findall(ns + "polyline")) >= 2, "svg", "not the phase plot")
    if code != 0:
        found = re.search(r"\((c-side|k-side)", err)
        _need(found is not None, "side", f"no side label in {err!r}")
        want = _side(m, k0, c0)
        # the seed misreads a capital crash, never the other way round
        _need(found.group(1) == want, "side", f"{found.group(1)} vs {want}",
              known=want == "c-side")
    return float(rows[-1, 2])


VERIFY_CHECKS = (
    ("steady-state residual < 1e-10", 1.0e-10),
    ("jacobian closed form vs finite differences < 1e-6", 1.0e-6),
    ("eigenpair residual < 1e-9", 1.0e-9),
    ("linear arm vs shooting c0 within 2%", 0.02),
    ("euler residual along the saddle < 1e-4 before closest approach", 1.0e-4),
    ("transversality: discounted assets decay", None),
    ("budget identity residual < 1e-6 relative", 1.0e-6),
    ("assets_path tracks equilibrium capital < 1e-6", 1.0e-6),
)

_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (.+) \((.*) (\S+)\)$")


def check_ramsey_verify(spec, code, out):
    """Battery shape, PASS/FAIL against each bar, and the shooting gap
    against the exact arm from a reverse integration."""
    lines = out.strip().splitlines()
    _need(len(lines) == len(VERIFY_CHECKS) + 1, "battery", f"{len(lines)} lines")
    failed = []
    gap_printed = None
    for line, (name, bar) in zip(lines, VERIFY_CHECKS):
        found = _VERIFY_LINE.match(line)
        _need(found is not None and found.group(2) == name,
              "battery", f"unexpected line {line!r}")
        passed = found.group(1) == "PASS"
        value = float(found.group(4))
        if bar is not None:
            _need(passed == (value < bar), "verdict", f"{name}: contradicts its value")
        if not passed:
            failed.append(name)
        if bar == 0.02:
            gap_printed = value
    overall = "PASS" if not failed else "FAIL"
    _need(lines[-1] == f"{overall} ramsey-verify overall", "verdict", "overall line")
    _need(code == (0 if not failed else 1), "exit", f"{code} with {overall}")
    m = model(spec["params"])
    k0 = 0.5 * m.k_star
    ref = m.arm(k0)
    lin = m.linear_arm(k0)
    gap = abs(lin - ref) / ref
    # printed as %.3e: half a unit in the 4th digit, plus the shooting error
    slack = 5.0e-4 * gap_printed + SADDLE_REL_TOL
    _need(abs(gap_printed - gap) <= slack,
          "shooting_gap", f"{gap_printed!r} vs exact-arm gap {gap!r}",
          known=_gap_above_arm(lin, ref, m.production(k0), gap_printed, slack))
    return gap_printed, failed


def _gap_above_arm(lin, arm, top, gap, slack):
    """Whether |lin - c0| / c0 = gap (within slack) for some c0 between
    the exact arm and the bracket top: the gap is decreasing in c0 below
    lin and increasing above."""
    def g(c0):
        return abs(lin - c0) / c0

    lo = g(arm) if lin <= arm else 0.0
    hi = max(g(arm), g(top))
    return lo - slack <= gap <= hi + slack


# ---------------------------------------------------------------------------
# outcome of one op

_ERROR_KINDS = (
    ("bracket end", "BracketError"),
    ("not classified within", "HorizonError"),
    ("blew up", "DivergenceError"),
    ("diverged", "DivergenceError"),
    ("still", "ConvergenceError"),
    ("not converged", "ConvergenceError"),
)

_STDOUT_CHECKS = {
    "det": check_det, "eig": check_eig, "cramer": check_cramer,
    "companion": check_companion, "taylor": check_taylor,
    "sphere": check_sphere, "carbon": check_carbon, "crra": check_crra,
    "ramsey-steady": check_ramsey_steady,
    "ramsey-linearize": check_ramsey_linearize,
    "ramsey-saddle": check_ramsey_saddle,
}


def error_kind(code, err):
    """Typed-error name recovered from the CLI's `econlab: ...` line."""
    for needle, kind in _ERROR_KINDS:
        if needle in err:
            return kind
    return f"exit{code}"


# Known defects.  The seed program gives wrong answers of two kinds.
# (1) ramsey._march: when the RK4 step that crosses the blow-up
# threshold overshoots, the clipped exponentials leave a finite state of
# the wrong sign, so a capital crash (c-side) can read as k-side, never
# the other way round.  simulate then prints k-side for a c-side path,
# and the shooting bisection, taking such a trial for k-side, moves its
# lower end above the arm: c0 lands between the exact arm and the
# bracket top production(k0), in the seed's runs up to 29% above the
# arm (dt = 0.02 lands within 1e-12).  ROADMAP items 2 and 4.
# (2) crra.arrow_pratt takes central differences of U itself at step
# 1e-4 x; they cancel when U is large (|k1|, or 1/(1-theta) for theta
# near 1), and about 0.7% of unfiltered crra draws miss the 1e-5 bar
# (ROADMAP item 4; the generator skips draws whose roundoff bound
# exceeds 1e-6).  The checks mark a miss `known` only when it lies
# in that envelope: the side misread in that direction, c0 above the
# arm and below the bracket top, the arrow_pratt error within its
# roundoff bound.  Such ops count as failed; any other wrong answer
# makes the run incorrect.
#
# Failures the seed program gives outside the workloads' ranges, as
# (subcommand, outcome), counted in seed_baseline.json: the shooting
# bracket misses the arm (BracketError; ROADMAP item 2, and at k0 = 0.5 k* the
# misread above), t_max = 500 runs out on slow arms (HorizonError) and
# the forward assets quadrature drifts (the assets_path FAIL; both item
# 4), and power iteration misses its one-ulp default tolerance (sphere,
# item 4).  Any other failure makes the run incorrect: a subcommand that
# starts to exit nonzero is a broken program, not a slower one.
KNOWN_FAILING = {
    ("ramsey-verify", "BracketError"),
    ("ramsey-verify", "HorizonError"),
    ("ramsey-verify", "FAIL:assets_path tracks equilibrium capital < 1e-6"),
    ("ramsey-saddle", "BracketError"),
    ("sphere", "ConvergenceError"),
}


def judge(spec, code, out, err, files=None):
    """Classify one finished op.

    Returns a dict: `ok` (the op succeeded and its answer matched),
    `outcome` ("ok", a typed-error name, "FAIL:<check>", "traceback:<type>"
    or "wrong:<field>"), `incorrect` (a failure that is neither a known
    wrong answer nor in KNOWN_FAILING), `value` (the computed number)
    and `why`.
    """
    kind = spec["kind"]
    res = {"ok": False, "outcome": "ok", "incorrect": False, "value": None,
           "why": ""}
    try:
        if code == "traceback":
            res["outcome"] = "traceback:" + err.strip().splitlines()[-1].split(":")[0]
        elif kind == "ramsey-verify" and code in (0, 1):
            res["value"], failed = check_ramsey_verify(spec, code, out)
            if failed:
                res["outcome"] = "FAIL:" + failed[0]
            else:
                res["ok"] = True
        elif kind == "ramsey-simulate" and code in (0, 4):
            res["value"] = check_ramsey_simulate(spec, code, err, files)
            res["ok"] = True
        elif code == 0:
            res["value"] = _STDOUT_CHECKS[kind](spec, out)
            res["ok"] = True
        else:
            res["outcome"] = error_kind(code, err)
            res["why"] = err.strip()[-300:]
        if not res["ok"]:
            res["incorrect"] = (kind, res["outcome"]) not in KNOWN_FAILING
    except Miss as exc:
        res.update(ok=False, outcome="wrong:" + exc.field, why=str(exc),
                   incorrect=not exc.known)
    except (KeyError, ValueError, IndexError, OSError, ET.ParseError) as exc:
        res.update(ok=False, outcome="wrong:unparsable", incorrect=True,
                   why=f"{type(exc).__name__}: {exc}")
    return res


def serve(stdin=sys.stdin, stdout=sys.stdout):
    """Say "ready" once scipy is loaded, so that import never overlaps a
    timed op; then one JSON request per line in, one verdict per line out."""
    import scipy.integrate  # noqa: F401

    stdout.write("ready\n")
    stdout.flush()
    for line in stdin:
        req = json.loads(line)
        verdict = judge(req["spec"], req["code"], req["out"], req["err"],
                        req.get("files"))
        stdout.write(json.dumps(verdict) + "\n")
        stdout.flush()


if __name__ == "__main__":
    serve()

"""Per-layer spans for the traced benchmark run.

Each layer is a public econlab function, wrapped at the module attribute
its caller looks up (cli looks up `ramsey.shoot_nonlinear` on the ramsey
module; ramsey looks up its own `steady_state` and `cumulative_simpson`
globals; cli holds its own `rk4_integrate` and `render_phase_svg`
names).  Per-RK4-stage callbacks such as `carbon.emissions` or the
vector-field closures are left alone: a span per stage would cost more
than the work it measures.

Spans are kept in memory as (name, start, end, parent, op) and
aggregated after the run: a layer's self time is its span duration minus
the durations of its direct child spans.
"""

import importlib
import os
import time

# (module the caller looks the name up in, attribute, layer name, extra
# counters).  The layer name is the module that defines the function.
LAYERS = (
    ("econlab.cli", "main", "cli", ()),
    ("econlab.cli", "parse_args", "cli.parse_args", ()),
    ("econlab.ramsey", "shoot_nonlinear", "ramsey.shoot_nonlinear", ("errors",)),
    ("econlab.ramsey", "steady_state", "ramsey.steady_state", ()),
    ("econlab.ramsey", "eigen_closed", "ramsey.eigen_closed", ()),
    ("econlab.ramsey", "saddle_path_linear", "ramsey.saddle_path_linear", ()),
    ("econlab.ramsey", "linearize", "ramsey.linearize", ()),
    ("econlab.ramsey", "simulate", "ramsey.simulate", ("errors", "rows")),
    ("econlab.ramsey", "assets_path", "ramsey.assets_path", ()),
    ("econlab.ramsey", "euler_residual", "ramsey.euler_residual", ()),
    ("econlab.ramsey", "household_path_from_trajectory",
     "ramsey.household_path_from_trajectory", ()),
    ("econlab.ramsey", "budget_identity_residual",
     "ramsey.budget_identity_residual", ()),
    ("econlab.ramsey", "transversality_check", "ramsey.transversality_check", ()),
    ("econlab.ramsey", "cumulative_simpson", "numerics.cumulative_simpson", ()),
    ("econlab.cli", "central_diff_gradient", "numerics.central_diff_gradient", ()),
    ("econlab.cli", "rk4_integrate", "numerics.rk4_integrate", ("steps",)),
    ("econlab.cli", "render_phase_svg", "phaseplot.render_phase_svg", ("bytes",)),
    ("econlab.matgeo", "det2", "matgeo.det2", ()),
    ("econlab.matgeo", "detN", "matgeo.detN", ()),
    ("econlab.matgeo", "cramer_solve", "matgeo.cramer_solve", ()),
    ("econlab.matgeo", "eig2", "matgeo.eig2", ()),
    ("econlab.matgeo", "companion_det", "matgeo.companion_det", ()),
    ("econlab.spectra", "sphere_extrema", "spectra.sphere_extrema", ()),
    ("econlab.series", "sin_taylor", "series.sin_taylor", ()),
    ("econlab.series", "cos_taylor", "series.cos_taylor", ()),
    ("econlab.series", "exp_i_taylor", "series.exp_i_taylor", ()),
    ("econlab.carbon", "concentration_closed", "carbon.concentration_closed", ()),
    ("econlab.carbon", "airborne_fraction", "carbon.airborne_fraction", ()),
    ("econlab.crra", "utility", "crra.utility", ()),
    ("econlab.crra", "marginal", "crra.marginal", ()),
    ("econlab.crra", "arrow_pratt", "crra.arrow_pratt", ()),
)

# time outside every wrapped call is attributed to the root layer "cli"
ROOT = "cli"

_UNITS = {"self_ms": "ms", "calls": "count", "errors": "count",
          "rows": "count", "steps": "count", "bytes": "bytes"}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = [("cli.self_ms", "ms"), ("cli.out_bytes", "bytes")]
    for _, _, name, extra in LAYERS[1:]:
        for counter in ("self_ms", "calls") + extra:
            out.append((f"{name}.{counter}", _UNITS[counter]))
    out += [("trace.overhead_frac", "ratio"), ("import.numpy_ms", "ms"),
            ("import.econlab_ms", "ms")]
    return out


def _count(name, args, result, exc):
    """Extra counters read off a call's arguments, result or error."""
    if name == "ramsey.simulate":
        traj = getattr(exc, "partial", None) if exc is not None else result
        return {"rows": 0 if traj is None else traj.states.shape[0]}
    if name == "numerics.rk4_integrate":
        return {"steps": args[2].steps}
    if name == "phaseplot.render_phase_svg" and exc is None:
        return {"bytes": os.path.getsize(args[2])}
    return {}


class Tracer:
    """Installs span-recording wrappers; `with tracer:` scopes them."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, counters]
        self.op = None
        self._stack = []
        self._saved = []
        from econlab.errors import EconLabError
        self._typed = EconLabError

    def _wrap(self, name, fn):
        spans, stack, typed = self.spans, self._stack, self._typed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.op, {}]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except typed as err:
                exc = err
                span[5]["errors"] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                span[5].update(_count(name, args, result, exc))

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name, _ in LAYERS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def per_op(self, n_ops):
        """Per-layer totals divided by the number of ops traced."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, counters) in enumerate(self.spans):
            t = totals.setdefault(name, {"self_ms": 0.0, "calls": 0})
            t["self_ms"] += 1.0e3 * (end - start - child[i])
            t["calls"] += 1
            for key, v in counters.items():
                t[key] = t.get(key, 0) + v
        out = {}
        for key, unit in metric_names():
            layer, _, counter = key.rpartition(".")
            if layer in ("trace", "import") or key == "cli.out_bytes":
                continue
            value = totals.get(layer, {}).get(counter, 0)
            out[key] = (value / n_ops, unit)
        return out

    def dump(self):
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 9), round(e - t0, 9), p, op, c]
                for n, s, e, p, op, c in self.spans]

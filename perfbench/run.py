"""econlab benchmark: drive econlab.cli.main(argv) in-process with seeded
ops, check every answer against an independent oracle, print metrics.

    python3 perfbench/run.py --workload lab-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  One closed-loop client (this process, one thread) sends the next
op only after the previous one returns.  Each op's stdout/stderr is
captured and its time is the call to main() alone; the oracle runs in a
helper interpreter (perfbench/oracle.py, which loads scipy) outside the
timed region, so this process's memory and time stay the program's.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the ops of the
first half of the time untraced, replays the same ops with a span around
every wrapped layer (tracing.py), and prints per-layer metrics plus the
tracing overhead against the untraced pass.  The last stdout line is the
JSON result; a per-run record (seed, machine line, every op's argv, time,
outcome and computed value, spans) goes to perfbench/results/.
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"ok_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up is timed in fresh interpreters: SETUP_FIRST before the ops,
# then one after each of SETUP_PARTS equal shares of the op time, so the
# samples span the whole run.  setup_s is the median of econlab's own
# import, numpy already loaded: on a shared machine numpy's import time
# swings by a factor of two within a minute, and a relative bound on
# the sum would gate on numpy's swings.  Like op times, each import time
# is scaled to the reference speed, by the reference loop timed in the
# same interpreter just before it.
SETUP_FIRST = 3
SETUP_PARTS = 6
# a traced layer metric needs this many samples beyond the tail percentile
TAIL_BEYOND = 10
# warm the parser and numpy before timing; neither counts as an op
WARMUP = (["det", "--matrix=3,1;1,4"], ["ramsey-steady"])

# The CPU speed of a shared machine drifts by tens of percent over
# minutes with the other tenants' load, and every op slows alike.  So a
# fixed pure-Python loop is timed between ops (at most every
# CALIBRATE_EVERY_S of op time), and each time is reported scaled by
# REFERENCE_MS / (the loop's current time): milliseconds on a machine
# where the loop takes REFERENCE_MS.  Run records keep the raw times.
REFERENCE_MS = 1.25
CALIBRATE_EVERY_S = 0.1


def _reference_loop():
    x = 0.5
    for _ in range(12000):
        x = 0.5 * x + math.exp(-x)
    return x


# `import econlab` timed in a fresh interpreter, with numpy imported
# first so that the same probe gives numpy's share, and the median of
# three reference loops between the two.  Plain imports: the tracer of
# -X importtime would slow every one of them.
_IMPORT_PROBE = f"""\
import math, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
{inspect.getsource(_reference_loop)}
loops = []
for _ in range(3):
    t2 = time.perf_counter()
    _reference_loop()
    loops.append(time.perf_counter() - t2)
t2 = time.perf_counter()
import econlab
t3 = time.perf_counter()
print(t1 - t0, t3 - t2, sorted(loops)[1] * 1.0e3, econlab.__file__)
"""


class Speed:
    """Current machine speed: the median of the last 5 reference-loop times."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append((time.perf_counter() - t0) * 1.0e3)

    def scale(self):
        """Factor from measured time to reference time."""
        return REFERENCE_MS / statistics.median(self.samples[-5:])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # workloads.WORKLOADS, spelled out: that module loads numpy, whose
    # import must happen inside the timed set-up
    ap.add_argument("--workload", required=True,
                    choices=("verify-sweep", "saddle-policy", "lab-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_samples(n):
    """(numpy, rest of econlab) import seconds in n fresh interpreters,
    scaled to the reference speed."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        numpy_s, rest_s, loop_ms, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "econlab":
            raise SystemExit(f"fresh interpreter imported {path}")
        scale = REFERENCE_MS / float(loop_ms)
        out.append((float(numpy_s) * scale, float(rest_s) * scale))
    return out


def machine_line():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Oracle:
    """Line-oriented client of the oracle helper interpreter."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "oracle.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("oracle helper failed to start")

    def judge(self, spec, code, out, err, files):
        req = {"spec": spec, "code": code, "out": out, "err": err,
               "files": files}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("oracle helper exited")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def call_main(cli, argv):
    """One timed call; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to record
            code, crash = "traceback", exc
        dt = time.perf_counter() - t0
    text = err.getvalue()
    if crash is not None:
        text += "".join(traceback.format_exception(crash))
    return dt, code, out.getvalue(), text


def op_files(op, work, index):
    """Concrete argv and output paths for an op (simulate writes files)."""
    if "{csv}" not in " ".join(op["argv"]):
        return op["argv"], None
    files = {"csv": str(work / f"op{index}.csv"), "svg": str(work / f"op{index}.svg")}
    return [a.format(**files) for a in op["argv"]], files


def run_ops(cli, stream, budget, deadline, work, oracle=None, tracer=None):
    """Closed loop: run ops from `stream` until their summed time reaches
    `budget` seconds, or the clock reaches `deadline`; no op is drawn
    from `stream` beyond the last one run.  With an oracle every answer
    is judged; with a tracer each op is tagged."""
    records = []
    busy = 0.0
    speed = Speed()
    since = CALIBRATE_EVERY_S
    for index, op in enumerate(stream):
        argv, files = op_files(op, work, index)
        if since >= CALIBRATE_EVERY_S:
            speed.sample()
            since = 0.0
        if tracer is not None:
            tracer.op = index
        dt, code, out, err = call_main(cli, argv)
        busy += dt
        since += dt
        rec = {"argv": op["argv"], "ms_raw": dt * 1.0e3, "scale": speed.scale(),
               "ms": dt * 1.0e3 * speed.scale(), "code": code,
               "out_bytes": len(out.encode()) + sum(
                   os.path.getsize(f) for f in (files or {}).values()
                   if os.path.exists(f)),
               # a digest, not the text: run records must not grow the
               # process's peak memory, which is the program's metric
               "digest": hashlib.sha256(repr((code, out, err)).encode()).hexdigest()}
        if oracle is not None:
            spec = {k: v for k, v in op.items() if k != "argv"}
            rec.update(oracle.judge(spec, code, out, err, files))
        for f in (files or {}).values():
            if os.path.exists(f):
                os.remove(f)
        records.append(rec)
        if busy >= budget or time.perf_counter() >= deadline:
            break
    return records


def end_to_end(records, setup, rss_mb):
    ok = sorted(r["ms"] for r in records if r["ok"])
    if not ok:
        raise SystemExit("no op succeeded; metrics are undefined")
    busy_s = sum(r["ms"] for r in records) / 1.0e3
    beyond = min(TAIL_BEYOND, len(ok) // 2)  # short runs: the median
    tail = {"percentile": 100.0 * (len(ok) - beyond) / len(ok),
            "samples": len(ok), "value_ms": ok[len(ok) - 1 - beyond]}
    values = {"ok_per_s": len(ok) / busy_s,
              "op_p50_ms": statistics.median(ok),
              "op_tail_ms": tail["value_ms"],
              "setup_s": setup,
              "peak_rss_mb": rss_mb}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, tail


def main(argv=None):
    # every run ends well inside three minutes, whatever --seconds says
    deadline = time.perf_counter() + 150.0
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "econlab" / "cli.py").is_file():
        print(f"perfbench: no econlab sources under {SRC}", file=sys.stderr)
        return 2
    samples = import_samples(SETUP_FIRST)

    sys.path.insert(0, str(SRC))
    from econlab import cli

    import tracing
    import workloads

    machine = machine_line()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / f".work-{os.getpid()}"
    work.mkdir()
    oracle = Oracle()
    try:
        for warm in WARMUP:
            call_main(cli, warm)
        stream = workloads.ops(args.workload, args.seed)
        budget = args.seconds / 2.0 if args.trace else args.seconds
        records = []
        for _ in range(SETUP_PARTS):
            records += run_ops(cli, stream, budget / SETUP_PARTS, deadline, work,
                               oracle=oracle)
            samples += import_samples(1)
        setup_s = statistics.median(b for _, b in samples)
        failed = [r for r in records if not r["ok"]]
        correct = not any(r["incorrect"] for r in records)
        if args.trace:
            tracer = tracing.Tracer()
            replay = [op for op, _ in zip(workloads.ops(args.workload, args.seed),
                                          records)]
            with tracer:
                traced = run_ops(cli, iter(replay), float("inf"), deadline, work,
                                 tracer=tracer)
            # tracing must not change a single byte of output
            correct &= all(a["digest"] == b["digest"] for a, b in zip(records, traced))
            correct &= len(traced) == len(records)
            n = len(traced)
            scale = statistics.median(r["scale"] for r in traced)
            metrics = {k: (v * scale if k.endswith(".self_ms") else v, u)
                       for k, (v, u) in tracer.per_op(n).items()}
            metrics["cli.out_bytes"] = (sum(r["out_bytes"] for r in traced) / n, "bytes")
            metrics["trace.overhead_frac"] = (
                sum(r["ms"] for r in traced) / sum(r["ms"] for r in records) - 1.0,
                "ratio")
            metrics["import.numpy_ms"] = (
                1.0e3 * statistics.median(a for a, _ in samples), "ms")
            metrics["import.econlab_ms"] = (1.0e3 * setup_s, "ms")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            extra = {"spans": tracer.dump()}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, tail = end_to_end(records, setup_s, rss_mb)
            print(f"op_tail_ms is p{tail['percentile']:.2f} of "
                  f"{tail['samples']} successful ops")
            extra = {"tail": tail}
    finally:
        oracle.close()
        shutil.rmtree(work, ignore_errors=True)

    outcomes = {}
    for r in failed:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    print(f"ops: {len(records)} attempted, {len(failed)} failed {outcomes}; "
          f"time scale to reference {statistics.median(r['scale'] for r in records):.3f}")
    for r in records:
        if r["incorrect"] or r["outcome"].startswith("wrong:"):
            label = "incorrect" if r["incorrect"] else "known defect"
            print(f"{label}, {r['outcome']}: {' '.join(r['argv'])}: {r['why']}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "setup_samples_s": samples, "correct": correct,
              "metrics": metrics, "failed_by_outcome": outcomes,
              "ops": [{k: r[k] for k in ("argv", "ms", "ms_raw", "code", "outcome",
                                         "value")}
                      for r in records], **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: generator determinism and hygiene, oracle
verdicts on known answers and known failures, tracing bookkeeping.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from econlab import cli  # noqa: E402


def _argvs(workload, seed, n):
    return [op["argv"] for op in itertools.islice(workloads.ops(workload, seed), n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _argvs(workload, 7, 40) == _argvs(workload, 7, 40)
    assert _argvs(workload, 7, 40) != _argvs(workload, 8, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_value_is_passed_as_opt_equals_value(workload):
    for argv in _argvs(workload, 3, 60):
        assert all(a.startswith("--") and "=" in a for a in argv[1:]), argv


def test_negative_literal_parses_with_equals():
    dt, code, out, _ = run.call_main(cli, ["det", "--matrix=-1.5,2;3,-4"])
    assert code == 0
    assert oracle.judge({"kind": "det", "matrix": [[-1.5, 2.0], [3.0, -4.0]]},
                        code, out, "")["ok"]


def test_lab_mix_covers_every_non_shooting_subcommand():
    kinds = {op["kind"] for op in itertools.islice(workloads.ops("lab-mix", 1), 22)}
    assert kinds == set(workloads.LAB_KINDS)


def test_generated_inputs_stay_in_the_ranges_the_seed_completes():
    box = 2.0 ** workloads.SPREAD
    for op in itertools.islice(workloads.ops("verify-sweep", 5), 40):
        for k, v in op["params"].items():
            assert 1.0 / box <= v / workloads.BASELINE[k] <= box, (k, v)
    lo, hi = workloads.K0_FRACS
    for op in itertools.islice(workloads.ops("saddle-policy", 5), 40):
        assert lo <= op["k0_frac"] <= hi
    for op in itertools.islice(workloads.ops("lab-mix", 5), 330):
        if op["kind"] == "crra":
            assert oracle.arrow_pratt_roundoff(op["theta"], op["x"], op["k0"],
                                               op["k1"]) <= 1.0e-6
        elif op["kind"] == "sphere":
            assert op["argv"][-1] == "--tol=3e-16"
            assert max(abs(w) for w in np.linalg.eigvalsh(op["matrix"])) < 1.0


def test_first_lab_mix_ops_all_succeed(tmp_path):
    for index, op in enumerate(itertools.islice(workloads.ops("lab-mix", 5), 22)):
        argv, files = run.op_files(op, tmp_path, index)
        _, code, out, err = run.call_main(cli, argv)
        spec = {k: v for k, v in op.items() if k != "argv"}
        verdict = oracle.judge(spec, code, out, err, files)
        assert verdict["ok"], (argv, verdict)


def test_oracle_accepts_known_answer_and_rejects_a_wrong_one():
    spec = {"kind": "det", "matrix": [[3.0, 1.0], [1.0, 4.0]]}
    good = oracle.judge(spec, 0, "1.10000000000e+01\n", "")
    assert good["ok"] and good["value"] == 11.0
    bad = oracle.judge(spec, 0, "1.20000000000e+01\n", "")
    assert not bad["ok"] and bad["incorrect"] and bad["outcome"] == "wrong:det"


def test_oracle_known_answers_from_the_readme():
    cases = [
        ({"kind": "companion", "coeffs": [1.0, 1.0, 1.0], "x": 3.0},
         ["companion", "--coeffs=1,1,1", "--x=3"]),
        ({"kind": "crra", "theta": 2.0, "x": 2.0, "k0": 1.0, "k1": 0.0},
         ["crra", "--theta=2", "--x=2"]),
        ({"kind": "taylor", "x": 3.1415926535, "terms": 24},
         ["taylor", "--x=3.1415926535", "--terms=24"]),
        ({"kind": "ramsey-saddle", "params": workloads.BASELINE, "k0_frac": 0.5},
         ["ramsey-saddle", "--k0-frac=0.5", "--tol=1e-10"]),
    ]
    for spec, argv in cases:
        _, code, out, err = run.call_main(cli, argv)
        verdict = oracle.judge(spec, code, out, err)
        assert verdict["ok"], (argv, verdict)


def test_bracket_error_counts_as_failed():
    argv = ["ramsey-saddle", "--k0-frac=5", "--tol=1e-10"]
    _, code, out, err = run.call_main(cli, argv)
    verdict = oracle.judge({"kind": "ramsey-saddle", "params": workloads.BASELINE,
                            "k0_frac": 5.0}, code, out, err)
    assert code == 3
    assert not verdict["ok"] and not verdict["incorrect"]
    assert verdict["outcome"] == "BracketError"


def test_lab_mix_op_exiting_nonzero_makes_the_run_incorrect():
    # the negative literal read as a flag: argparse exits 2
    _, code, out, err = run.call_main(cli, ["det", "--matrix", "-1.5,2;3,-4"])
    verdict = oracle.judge({"kind": "det", "matrix": [[-1.5, 2.0], [3.0, -4.0]]},
                           code, out, err)
    assert code == 2
    assert not verdict["ok"] and verdict["incorrect"] and verdict["outcome"] == "exit2"
    # a typed error the seed never raises on that subcommand
    carbon = oracle.judge({"kind": "carbon"}, 4, "", "econlab: integration "
                          "diverged at step 3 (component 0, direction +1)\n")
    assert carbon["outcome"] == "DivergenceError" and carbon["incorrect"]
    # a failure the seed gives on another subcommand is no excuse here
    assert oracle.judge({"kind": "ramsey-saddle"}, 4, "", "econlab: trial c0=1 "
                        "not classified within t_max=500\n")["incorrect"]


def test_traceback_makes_the_run_incorrect():
    verdict = oracle.judge({"kind": "taylor"}, "traceback", "",
                           "Traceback (most recent call last):\nZeroDivisionError: x\n")
    assert verdict["outcome"] == "traceback:ZeroDivisionError" and verdict["incorrect"]


def _saddle_output(c0):
    """Baseline ramsey-saddle output at k0 = 0.5 k* with c0_shooting
    replaced, relative_gap kept consistent; and the exact-arm c0."""
    spec = {"kind": "ramsey-saddle", "params": workloads.BASELINE, "k0_frac": 0.5}
    _, code, out, _ = run.call_main(cli, ["ramsey-saddle", "--k0-frac=0.5",
                                          "--tol=1e-10"])
    d = oracle._lines(out)
    lin = float(d["c0_linear"])
    d.update(c0_shooting=f"{c0:.11e}", relative_gap=f"{abs(lin - c0) / c0:.11e}")
    m = oracle.model(workloads.BASELINE)
    return spec, "".join(f"{k} = {v}\n" for k, v in d.items()), m.arm(0.5 * m.k_star)


def test_shooting_c0_is_excused_only_above_the_arm():
    _, _, arm = _saddle_output(1.0)
    for factor, excused in ((1.1, True), (0.9, False), (0.999, False)):
        spec, out, _ = _saddle_output(factor * arm)
        verdict = oracle.judge(spec, 0, out, "")
        assert verdict["outcome"] == "wrong:c0_shooting"
        assert verdict["incorrect"] != excused, factor
    # above the bracket top production(k0) no bisection can land
    spec, out, _ = _saddle_output(10.0 * arm)
    assert oracle.judge(spec, 0, out, "")["incorrect"]


def test_verify_gap_is_excused_only_for_a_c0_above_the_arm():
    argv = ["ramsey-verify"]
    _, code, out, err = run.call_main(cli, argv)
    spec = {"kind": "ramsey-verify", "params": workloads.BASELINE}
    assert oracle.judge(spec, code, out, err)["ok"]
    # at baseline the linear arm lies below the exact arm (gap 7.1e-3),
    # so a c0 above the arm can only widen the gap
    for gap, excused in (("9.000e-03", True), ("5.000e-03", False)):
        bad = out.replace("(gap 7.098e-03)", f"(gap {gap})")
        verdict = oracle.judge(spec, code, bad, err)
        assert verdict["outcome"] == "wrong:shooting_gap"
        assert verdict["incorrect"] != excused, gap


def test_arrow_pratt_is_excused_only_within_its_roundoff():
    # theta near 1: U carries 1/(1 - theta) ~ 3500, differences cancel
    near = {"kind": "crra", "theta": 0.9997124429501127, "x": 0.20357317701091215,
            "k0": 1.6851346159830978, "k1": -1.8499911627524868}
    argv = ["crra"] + [f"--{k}={v!r}" for k, v in near.items() if k != "kind"]
    _, code, out, err = run.call_main(cli, argv)
    verdict = oracle.judge(near, code, out, err)
    assert verdict["outcome"] == "wrong:arrow_pratt" and not verdict["incorrect"]
    # the same error on a well-scaled U is a wrong answer
    plain = {"kind": "crra", "theta": 2.0, "x": 2.0, "k0": 1.0, "k1": 0.0}
    _, code, out, err = run.call_main(cli, ["crra", "--theta=2", "--x=2"])
    off = re.sub(r"arrow_pratt = .*", "arrow_pratt = 2.00100000000e+00", out)
    bad = oracle.judge(plain, code, off, err)
    assert bad["outcome"] == "wrong:arrow_pratt" and bad["incorrect"]


def _simulate(tmp_path, c0, t1=60):
    ss_k = 3.702420369927  # baseline k*, rounded; the oracle uses the spec
    spec = {"kind": "ramsey-simulate", "params": workloads.BASELINE,
            "k0": 0.5 * ss_k, "c0": c0, "t1": float(t1), "steps": 20 * t1}
    files = {"csv": str(tmp_path / "t.csv"), "svg": str(tmp_path / "t.svg")}
    argv = ["ramsey-simulate", f"--k0={spec['k0']!r}", f"--c0={c0!r}",
            f"--t1={t1}", f"--steps={20 * t1}", f"--output={files['csv']}",
            f"--svg={files['svg']}"]
    _, code, out, err = run.call_main(cli, argv)
    return spec, code, out, err, files


def test_correctly_sided_exit_4_simulate_counts_as_ok(tmp_path):
    spec, code, out, err, files = _simulate(tmp_path, 2.0)
    assert code == 4 and "c-side" in err
    assert oracle.judge(spec, code, out, err, files)["ok"]


def test_wrongly_sided_simulate_is_a_wrong_answer(tmp_path):
    # a capital crash read as k-side is the seed's known misread
    spec, code, out, err, files = _simulate(tmp_path, 2.0)
    verdict = oracle.judge(spec, code, out, err.replace("c-side", "k-side"), files)
    assert not verdict["ok"] and verdict["outcome"] == "wrong:side"
    assert not verdict["incorrect"]
    # the other way round it is not
    spec, code, out, err, files = _simulate(tmp_path, 0.3, t1=120)
    assert code == 4 and "k-side" in err
    assert oracle.judge(spec, code, out, err, files)["ok"]
    verdict = oracle.judge(spec, code, out, err.replace("k-side", "c-side"), files)
    assert verdict["outcome"] == "wrong:side" and verdict["incorrect"]


def test_failed_verify_line_counts_as_failed():
    params = dict(workloads.BASELINE, rho=0.2)  # ROADMAP item 4's probe
    argv = ["ramsey-verify"] + [f"--{workloads._FLAG[k]}={v!r}" for k, v in params.items()]
    _, code, out, err = run.call_main(cli, argv)
    verdict = oracle.judge({"kind": "ramsey-verify", "params": params}, code, out, err)
    assert code == 1
    assert not verdict["ok"] and verdict["outcome"].startswith("FAIL:assets_path")


def test_tracer_self_time_counts_and_restores():
    import econlab.matgeo

    original = econlab.matgeo.detN
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 0
        run.call_main(cli, ["cramer", "--matrix=2,1;1,3", "--rhs=5,10"])
    assert econlab.matgeo.detN is original
    per_op = tracer.per_op(1)
    assert per_op["cli.parse_args.calls"][0] == 1
    assert per_op["matgeo.cramer_solve.calls"][0] == 1
    assert per_op["matgeo.detN.calls"][0] == 3  # det A, then one per column
    assert per_op["ramsey.shoot_nonlinear.calls"][0] == 0
    root = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in root] == ["cli"]
    total_self = sum(v for k, (v, _) in per_op.items() if k.endswith(".self_ms"))
    assert total_self == pytest.approx(1.0e3 * (root[0][2] - root[0][1]))


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.metric_names())

"""Command-line interface: output formats, exit codes, determinism."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from econlab import ramsey
from econlab.cli import (BASELINE_CONFIG, fmt, main, parse_args,
                         parse_kv_config)
from econlab.errors import DivergenceError, DomainError
from econlab.numerics import Grid

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_has_twelve_significant_digits():
    assert fmt(11) == "1.10000000000e+01"
    assert fmt(-0.25) == "-2.50000000000e-01"


def test_parse_kv_config_roundtrip():
    text = "# comment\nA = 1.5\nalpha=0.25  # inline\n\nrho = 0.04\n"
    assert parse_kv_config(text) == {"A": 1.5, "alpha": 0.25, "rho": 0.04}
    with pytest.raises(DomainError):
        parse_kv_config("A 1.5")
    with pytest.raises(DomainError):
        parse_kv_config("A = fast")


def test_parse_args_validates_domain_before_dispatch():
    with pytest.raises(DomainError):
        parse_args(["crra", "--theta", "-1", "--x", "1.0"])
    with pytest.raises(DomainError):
        parse_args(["ramsey-steady", "--alpha", "1.5"])


def test_det_subcommand(capsys):
    code, out, _ = run_cli(capsys, "det", "--matrix", "3,1;1,4")
    assert code == 0
    assert float(out) == 11.0
    code, out, _ = run_cli(capsys, "det", "--matrix", "2,0,0;0,3,0;0,0,4")
    assert code == 0
    assert float(out) == 24.0


def test_eig_subcommand_chain(capsys):
    code, out, _ = run_cli(capsys, "eig", "--matrix", "2.5,-0.5;-0.5,2.5",
                           "--vector", "1,3")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["lambda1"]) == 3.0
    assert float(lines["lambda2"]) == 2.0
    y = [float(v) for v in lines["y"].split(",")]
    assert y == [1.0, 7.0]


def test_eig_complex_spectrum_exits_domain(capsys):
    code, _, err = run_cli(capsys, "eig", "--matrix", "0,-1;1,0")
    assert code == 3
    assert "complex" in err.lower()


def test_cramer_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cramer", "--matrix", "2,1;1,3",
                           "--rhs", "5,10")
    assert code == 0
    vals = [float(v) for v in out.strip().split(" = ")[1].split(",")]
    assert np.allclose(vals, [1.0, 3.0])
    code, _, _ = run_cli(capsys, "cramer", "--matrix", "1,2;2,4",
                         "--rhs", "1,1")
    assert code == 3


def test_companion_subcommand(capsys):
    code, out, _ = run_cli(capsys, "companion", "--coeffs", "1,1,1",
                           "--x", "3")
    assert code == 0
    assert float(out) == 40.0


def test_taylor_subcommand(capsys):
    code, out, _ = run_cli(capsys, "taylor", "--x", "1.0")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(lines["sin"]) - math.sin(1.0)) < 1.0e-12
    assert abs(float(lines["exp_i_re"]) - math.cos(1.0)) < 1.0e-12


def test_sphere_subcommand_and_seed_env(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "sphere", "--matrix", "3,1;1,4")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(lines["lambda_max"]) - (7.0 + math.sqrt(5.0)) / 2.0) < 1.0e-8
    assert float(lines["residual_max"]) <= 1.0e-8
    monkeypatch.setenv("ECON_MATH_LAB_SEED", "12345")
    code, out2, _ = run_cli(capsys, "sphere", "--matrix", "3,1;1,4")
    assert code == 0
    monkeypatch.setenv("ECON_MATH_LAB_SEED", "not-an-int")
    code, _, err = run_cli(capsys, "sphere", "--matrix", "3,1;1,4")
    assert code == 3
    assert "ECON_MATH_LAB_SEED" in err


def test_sphere_rejects_asymmetric_matrix(capsys):
    code, _, _ = run_cli(capsys, "sphere", "--matrix", "1,2;0,1")
    assert code == 3


def test_carbon_subcommand_csv(capsys, tmp_path):
    out_path = tmp_path / "carbon.csv"
    code, _, _ = run_cli(capsys, "carbon", "--t1", "100", "--steps", "200",
                         "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,f,x_closed,x_rk4,af,af_limit"
    assert len(lines) == 202
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[2] == 600.0


def test_carbon_divergence_exits_four_without_warnings(capsys):
    # the closed forms used to run first and overflow e^{dt} at t = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "carbon", "--t1=1e6")
    assert code == 4
    assert out == "" and err.startswith("econlab: integration diverged")


def test_crra_subcommand(capsys):
    code, out, _ = run_cli(capsys, "crra", "--theta", "2", "--x", "2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["utility"]) == -0.5
    assert abs(float(lines["arrow_pratt"]) - 2.0) < 1.0e-5
    code, _, _ = run_cli(capsys, "crra", "--theta", "2", "--x", "-1")
    assert code == 3


def test_ramsey_steady_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ramsey-steady")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(lines["k_star"]) - 3.702420369931467) < 1.0e-9
    assert float(lines["rhs_residual"]) < 1.0e-10


def test_ramsey_steady_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "own.cfg"
    body = "\n".join(f"{k} = {v}" for k, v in BASELINE_CONFIG.items())
    cfg.write_text(body + "\n")
    code, out, _ = run_cli(capsys, "ramsey-steady", "--config", str(cfg))
    assert code == 0
    assert "k_star" in out
    code, _, _ = run_cli(capsys, "ramsey-steady", "--config",
                         str(tmp_path / "missing.cfg"))
    assert code == 5
    bad = tmp_path / "bad.cfg"
    bad.write_text(body + "\nextra = 1\n")
    code, _, err = run_cli(capsys, "ramsey-steady", "--config", str(bad))
    assert code == 3
    assert "extra" in err


def test_ramsey_linearize_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ramsey-linearize")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["a22"]) == 0.0
    assert float(lines["lambda1"]) > 0.0 > float(lines["lambda2"])
    assert lines["diagonalizable"] == "True"


def test_ramsey_saddle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ramsey-saddle", "--tol", "1e-6")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["relative_gap"]) < 0.02


def test_ramsey_simulate_converging(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "ramsey-simulate", "--k0", "3.702420369931467",
                         "--c0", "1.1847745183780694", "--t1", "20",
                         "--steps", "200", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,log_k,log_c,k,c,r,w"
    assert len(lines) == 202


def test_ramsey_simulate_divergence_writes_partial(capsys, tmp_path):
    out_path = tmp_path / "part.csv"
    svg_path = tmp_path / "part.svg"
    code, _, err = run_cli(capsys, "ramsey-simulate", "--k0", "1.85",
                           "--c0", "1.4", "--t1", "100", "--steps", "2000",
                           "--output", str(out_path), "--svg", str(svg_path))
    assert code == 4
    assert "c-side" in err
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) > 10  # header plus the surviving prefix
    assert svg_path.read_text().count("<circle") == 1


def test_ramsey_simulate_deterministic_bytes(capsys, tmp_path):
    args = ["ramsey-simulate", "--k0", "2.0", "--c0", "0.9", "--t1", "10",
            "--steps", "200"]
    paths = []
    for name in ("one", "two"):
        csv = tmp_path / f"{name}.csv"
        svg = tmp_path / f"{name}.svg"
        code, _, _ = run_cli(capsys, *args, "--output", str(csv),
                             "--svg", str(svg))
        assert code == 0
        paths.append((csv.read_bytes(), svg.read_bytes()))
    assert paths[0] == paths[1]


def test_ramsey_verify_passes_baseline(capsys):
    code, out, _ = run_cli(capsys, "ramsey-verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].endswith("overall")


def test_ramsey_verify_scales_the_asset_check_with_capital(capsys):
    # alpha = 0.9 puts k* at 5.6e8: an absolute 1e-6 bar on assets fails
    # a path that tracks capital to 3.5e-13 relative
    code, out, _ = run_cli(capsys, "ramsey-verify", "--alpha=0.9")
    assert code == 0
    line = out.strip().splitlines()[-2]
    assert line.startswith("PASS assets_path tracks equilibrium capital")
    assert float(line.rstrip(")").split()[-1]) < 1.0e-12


def test_ramsey_verify_stiff_arm_ends_with_an_exit_code(capsys):
    # reverse shooting misses the arm here, and simulate blows up at its
    # first step, leaving no partial path for the Euler check
    code, _, err = run_cli(
        capsys, "ramsey-verify", "--A=1.7713471032618244", "--alpha=0.95",
        "--theta=4.874355379865717", "--delta=0.3537648597999344",
        "--alpha-L=0.009734908849044389", "--alpha-T=0.019467096633221343",
        "--rho=0.0577412149264729")
    assert 0 <= code <= 5
    assert code in (0, 1) or err.startswith("econlab: ")


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "det", "--matrix", "1,2;3")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "det")[0] == 2


def test_ramsey_saddle_tolerance_below_one_ulp(capsys):
    def c0(tol):
        code, out, _ = run_cli(capsys, "ramsey-saddle", f"--tol={tol}")
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        return float(lines["c0_shooting"])

    tight, loose = c0("1e-16"), c0("1e-12")
    assert abs(tight - loose) <= 1.0e-12 * loose


def test_ramsey_saddle_far_above_steady_state(capsys):
    # the saddle consumption at 5 k* exceeds output there, above the top
    # of forward shooting's bracket
    code, out, _ = run_cli(capsys, "ramsey-saddle", "--k0-frac=5")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    p = ramsey.BASELINE
    ss = ramsey.steady_state(p)
    try:
        traj = ramsey.simulate(p, float(lines["k0"]), float(lines["c0_shooting"]),
                               Grid(0.0, 200.0, 4000))
    except DivergenceError as exc:
        traj = exc.partial
    dev = np.abs(traj.states - [ss.log_k_star, ss.log_c_star]).max(axis=1)
    assert dev.min() < 1.0e-3


def test_crra_underflowing_step_exits_domain(capsys):
    code, out, err = run_cli(capsys, "crra", "--theta", "1", "--x", "1e-300")
    assert code == 3
    assert out == "" and err.startswith("econlab: ")


@pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
def test_taylor_non_finite_argument_exits_domain(capsys, x):
    code, out, err = run_cli(capsys, "taylor", f"--x={x}")
    assert code == 3
    assert out == "" and err.startswith("econlab: ")


def test_ramsey_verify_prints_the_library_battery(capsys):
    checks = ramsey.verify(ramsey.BASELINE)
    assert len(checks) == 8 and all(c.passed for c in checks)
    code, out, _ = run_cli(capsys, "ramsey-verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == [f"PASS {c.name} ({c.detail})" for c in checks]
    assert lines[-1] == "PASS ramsey-verify overall"


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "econlab.cli", "det",
         "--matrix=3,1;1,4"], capture_output=True, text=True, env=env,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.10000000000e+01\n"


def test_shipped_baseline_config_is_the_library_baseline():
    config = parse_args(["ramsey-steady", "--config",
                         str(REPO / "configs" / "baseline.cfg")])
    assert config.params == ramsey.BASELINE
    assert parse_args(["ramsey-steady"]).params == ramsey.BASELINE


_VALUE = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}$")


@pytest.mark.parametrize("argv, layout", [
    (["eig", "--matrix=2.5,-0.5;-0.5,2.5"],
     [("lambda1", 0), ("lambda2", 0), ("v1", 1), ("v2", 1)]),
    (["eig", "--matrix=2.5,-0.5;-0.5,2.5", "--vector=1,3"],
     [("lambda1", 0), ("lambda2", 0), ("v1", 1), ("v2", 1),
      ("new_coords", 1), ("stretched", 1), ("y", 1)]),
    (["cramer", "--matrix=2,1,0;1,3,0;0,0,4", "--rhs=5,10,8"], [("x", 2)]),
    (["taylor", "--x=1"],
     [("sin", 0), ("cos", 0), ("exp_i_re", 0), ("exp_i_im", 0)]),
    (["sphere", "--matrix=3,1,0;1,4,0;0,0,2"],
     [("lambda_min", 0), ("lambda_max", 0), ("x_min", 2), ("x_max", 2),
      ("residual_min", 0), ("residual_max", 0)]),
    (["crra", "--theta=2", "--x=2"],
     [("utility", 0), ("marginal", 0), ("arrow_pratt", 0)]),
    (["ramsey-steady"], [("k_star", 0), ("c_star", 0), ("rhs_residual", 0)]),
    (["ramsey-linearize"],
     [("a11", 0), ("a12", 0), ("a21", 0), ("a22", 0), ("lambda1", 0),
      ("lambda2", 0), ("v1", 1), ("v2", 1), ("diagonalizable", None)]),
    (["ramsey-saddle"],
     [("k0", 0), ("c0_linear", 0), ("c0_shooting", 0), ("relative_gap", 0)]),
])
def test_name_value_output_layout(capsys, argv, layout):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.endswith("\n")
    lines = [line.split(" = ") for line in out[:-1].split("\n")]
    assert [name for name, _ in lines] == [name for name, _ in layout]
    for (name, value), (_, commas) in zip(lines, layout):
        if commas is None:
            assert value == "True"
        else:
            entries = value.split(",")
            assert len(entries) == commas + 1, name
            assert all(_VALUE.match(v) for v in entries), (name, value)

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
from econlab.cli import (BASELINE_CONFIG, _load_ramsey_params, fmt, main,
                         parse_args, parse_kv_config)
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


def test_parse_args_validates_domain_before_dispatch(capsys, tmp_path):
    # domain errors come before any output: exit 3, nothing on stdout and
    # no output file created
    out_path = tmp_path / "out.csv"
    for argv in (["crra", "--theta=-1", "--x=1.0"],
                 ["ramsey-steady", "--alpha=1.5"],
                 ["carbon", "--tau-oc=-1", f"--output={out_path}"],
                 ["sphere", "--matrix=1,2;0,1"],
                 ["ramsey-simulate", "--alpha=1.5", "--k0=1", "--c0=1",
                  f"--output={out_path}"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("econlab: "), argv
        assert not out_path.exists(), argv


def test_grid_errors_read_the_same_in_every_subcommand(capsys):
    _, _, carbon_err = run_cli(capsys, "carbon", "--t1=-1")
    code, _, simulate_err = run_cli(capsys, "ramsey-simulate", "--k0=1",
                                    "--c0=1", "--t1=-1")
    assert code == 3
    assert carbon_err == simulate_err
    assert simulate_err == "econlab: need t1 > t0, got [0.0, -1.0]\n"


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


@pytest.mark.parametrize("matrix, v1, v2", [
    # used to overflow tr^2 and det into a traceback under -W error;
    # now prints the vectors of diag(1, 2), signed zero included
    ("1e200,0;0,2e200", "0.00000000000e+00,1.00000000000e+00",
     "1.00000000000e+00,-0.00000000000e+00"),
    # used to read as a scaled identity under an absolute 1e-12 floor
    ("1e-13,2e-13;3e-13,-1e-13", "1.00000000000e+00,8.22875655532e-01",
     "-5.48583770355e-01,1.00000000000e+00"),
])
def test_eig_of_very_large_or_small_entries(capsys, matrix, v1, v2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "eig", f"--matrix={matrix}")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert (lines["v1"], lines["v2"]) == (v1, v2)


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


def test_carbon_emission_overflow_exits_domain(capsys):
    # f0 e^{dt} leaves the float range at t = 709.8, while the stock is
    # still near 1e8, far below the divergence limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "carbon", "--f0=1e-300", "--d=1",
                                 "--t1=800", "--steps=2000")
    assert code == 3
    assert out == "" and err.startswith("econlab: emissions")


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


@pytest.mark.parametrize("argv", [
    ["ramsey-steady"], ["ramsey-linearize"], ["ramsey-saddle"],
    ["ramsey-simulate", "--k0=1", "--c0=1"], ["ramsey-verify"]])
def test_overflowing_steady_state_exits_domain(capsys, argv):
    # k* = (target / alpha A)^(1/(alpha-1)) overflows near alpha = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--alpha=0.999")
    assert (code, out) == (3, "")
    assert err.startswith("econlab: steady-state capital")


@pytest.mark.parametrize("argv, message", [
    (["det", "--matrix=1e200,0;0,1e200"], "determinant exceeds"),
    (["det", "--matrix=1e200,0,0;0,1e200,0;0,0,1"], "determinant exceeds"),
    (["companion", "--coeffs=0,0", "--x=1e200"], "determinant exceeds"),
    (["cramer", "--matrix=1,0;0,1e-10", "--rhs=1,1e300"], "solution exceeds"),
])
def test_results_past_the_float_range_exit_domain(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"econlab: {message} the floating-point range\n"


@pytest.mark.parametrize("argv", [
    ["ramsey-saddle", "--theta=1e-6"],
    ["ramsey-verify", "--theta=1e-6"],
    ["ramsey-saddle", "--theta=1e-6", "--k0-frac=5"],
    ["ramsey-saddle", "--theta=7.6e-5"],
])
def test_saddle_consumption_past_the_float_range_exits_domain(capsys, argv):
    # at a near-linear utility log c0 underflows on the arm below k*
    # (about -55000), and overflows on the linear arm at 5 k* (about 880);
    # at theta = 7.6e-5 the shooting c0 would be subnormal (7.6e-318)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("econlab: saddle-path consumption is outside the "
                          "floating-point range (log c0 = ")


def test_tiny_normal_saddle_consumption_is_printed(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "ramsey-saddle", "--theta=1e-4")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert sys.float_info.min <= float(lines["c0_shooting"]) < 1.0e-240


@pytest.mark.parametrize("command", ["ramsey-steady", "ramsey-linearize"])
@pytest.mark.parametrize("large", [["--theta=1e-8"], ["--delta=1e6", "--rho=1e6"]])
def test_steady_state_residual_bar_scales_with_the_field(capsys, command,
                                                         large):
    # terms of 8e6 (consumption row) or 6.7e6 (capital row) leave a
    # roundoff residual above an absolute 1e-10 bar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, *large)
    assert (code, err) == (0, "")
    assert out.startswith("k_star = " if command == "ramsey-steady"
                          else "a11 = ")


@pytest.mark.parametrize("argv, expected", [
    (["ramsey-saddle", "--theta=1e-8"], (3, "econlab: saddle-path consumption")),
    (["ramsey-verify", "--theta=1e-8"], (3, "econlab: saddle-path consumption")),
    (["ramsey-verify", "--delta=1e6", "--rho=1e6"],
     (4, "econlab: trajectory blew up at step 1 ")),
    # effective discount 1e-13: check 6's horizon would need 1.4e15 nodes
    (["ramsey-verify", "--theta=0.5", "--rho=0.0200000000001"],
     (4, "econlab: transversality horizon")),
])
def test_large_field_shooting_ends_typed(capsys, argv, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (expected[0], "")
    assert err.startswith(expected[1])


def test_ramsey_linearize_reads_diagonalizability_from_eig2(capsys):
    # every entry of the Jacobian is below 1e-7: an absolute 1e-12 test on
    # the discriminant (5.5e-16) called these distinct eigenvalues repeated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "ramsey-linearize", "--delta=5e-9",
                               "--rho=3e-9", "--alpha-L=1e-9", "--alpha-T=2e-9")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["lambda1"]) > 0.0 > float(lines["lambda2"])
    assert lines["diagonalizable"] == "True"


@pytest.mark.parametrize("argv", [
    ["ramsey-saddle"], ["ramsey-simulate", "--k0=1", "--c0=1", "--t1=10",
                        "--steps=100"]])
def test_rounded_away_saddle_exits_domain(capsys, argv):
    # lambda2 rounds to +0: there is no stable arm to shoot along or to
    # read a blow-up side from
    code, out, err = run_cli(capsys, *argv, "--theta=1e18", "--alpha-T=1e-18")
    assert (code, out) == (3, "")
    assert err == "econlab: not a saddle: eigenvalue signs (+1, +0)\n"


def test_det_of_huge_entries_with_a_representable_value(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "det", "--matrix=1e200,1e200;1e200,1e200") == (
            0, "0.00000000000e+00\n", "")
        code, out, _ = run_cli(capsys, "det",
                               "--matrix=1e200,0,0;0,1e200,0;0,0,1e-200")
    assert code == 0
    assert float(out) == pytest.approx(1.0e200, rel=1.0e-14)


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
    assert _load_ramsey_params(config) == ramsey.BASELINE
    assert _load_ramsey_params(parse_args(["ramsey-steady"])) == ramsey.BASELINE


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

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from test_cli_contract import SRC, run_module

import mcs_adi
from mcs_adi.analysis import CheckResult, complex_z0_scan
from mcs_adi.cli import main
from mcs_adi.config import (
    ConfigError,
    load_problem,
    make_initial_field,
    parse_config_text,
)
from mcs_adi.solver import (
    SingularSystemError,
    default_convergence_problem,
    predicted_amplification,
    run_convergence_study,
)
from mcs_adi.spectrum import FourierMode, GridSpec, fourier_symbol_grid, fourier_symbols
from mcs_adi.stability import DomainError, stability_function

BASE_CONFIG = """\
# sample convection-diffusion problem
m1 = 12
m2 = 12
dx = 0.08333333333333333
dy = 0.08333333333333333
dt = 0.01
theta = 0.3333333333333333
c1 = 0.4
c2 = -0.3
d11 = 0.05
d12 = 0.015
d21 = 0.015
d22 = 0.03
beta = 0.0
steps = 4
initial = mode:1,1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


# ------------------------------------------------------------------- parsing


def test_parse_config_text_basics():
    pairs = parse_config_text("a = 1\n\n# comment\nb = two # trailing\n")
    assert pairs == {"a": "1", "b": "two"}


def test_parse_config_text_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("key =\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_load_problem_defaults_and_values(config_path):
    setup = load_problem(config_path)
    assert setup.steps == 4
    assert setup.scheme == "mcs"
    assert setup.initial == "mode:1,1"
    assert setup.grid.m1 == 12 and setup.grid.dx == pytest.approx(1.0 / 12.0)
    assert setup.params.theta == pytest.approx(1.0 / 3.0)
    assert setup.coeffs.d12 == 0.015


def test_load_problem_overrides(config_path):
    setup = load_problem(config_path, {"steps": 9, "scheme": "douglas", "theta": 0.5})
    assert setup.steps == 9 and setup.scheme == "douglas"
    assert setup.params.theta == 0.5


@pytest.mark.parametrize(
    "mutation",
    [
        {"m1": None},                # drop a required key
        {"frobnicate": "1"},         # unknown key
        {"scheme": "cranky"},        # scheme not in the list
        {"steps": "-2"},             # negative step count
        {"theta": "0"},              # invalid scheme parameter
        {"d11": "-1"},               # diffusion matrix not PSD
        {"d12": "1.0"},              # mixed term breaks the determinant
        {"m1": "one"},               # unparseable int
        {"initial": "blob"},         # unknown initial condition
        {"initial": "mode:1"},       # malformed mode spec
        {"initial": "random:x"},     # malformed seed
        {"initial": "random:-1"},    # seed below the Philox key range
        {"initial": f"random:{2**128}"},  # seed above it
    ],
)
def test_load_problem_rejects_bad_input(tmp_path, mutation):
    pairs = parse_config_text(BASE_CONFIG)
    for key, value in mutation.items():
        if value is None:
            del pairs[key]
        else:
            pairs[key] = value
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    with pytest.raises(ConfigError):
        load_problem(path)


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_problem(tmp_path / "nope.cfg")


def test_make_initial_field_variants():
    grid = GridSpec(m1=6, m2=8, dx=0.1, dy=0.1)
    u = make_initial_field(grid, "impulse")
    assert u[3, 4] == 1.0 and float(np.sum(np.abs(u))) == 1.0
    ones = make_initial_field(grid, "mode:0,0")
    assert np.all(ones == 1.0)
    r1 = make_initial_field(grid, "random:5")
    r2 = make_initial_field(grid, "random:5")
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, make_initial_field(grid, "random:6"))
    with pytest.raises(ConfigError):
        make_initial_field(grid, "mode:6,0")
    with pytest.raises(ConfigError):
        make_initial_field(grid, "mode:-1,0")


# ------------------------------------------------------------------ solve CLI


def test_solve_cli_logs_and_writes_field(config_path, tmp_path, capsys):
    out_csv = tmp_path / "field.csv"
    rc = main(["solve", "--config", config_path, "--out", str(out_csv)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,max_norm"
    assert len(lines) == 6  # header + initial + 4 steps
    assert lines[1].startswith("0,")
    csv_lines = out_csv.read_text().splitlines()
    assert csv_lines[0] == "i,j,u"
    assert len(csv_lines) == 12 * 12 + 1


def test_solve_cli_preserves_constants(tmp_path, capsys):
    path = tmp_path / "diffusion.cfg"
    path.write_text(
        "m1 = 8\nm2 = 8\ndx = 0.125\ndy = 0.125\ndt = 0.05\ntheta = 0.5\n"
        "d11 = 0.2\nd22 = 0.1\nsteps = 5\ninitial = mode:0,0\n"
    )
    assert main(["solve", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    final = float(lines[-1].split(",")[1])
    assert abs(final - 1.0) <= 1e-12


def test_solve_cli_scheme_override(config_path, capsys):
    assert main(["solve", "--config", config_path, "--scheme", "douglas", "--steps", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_solve_cli_usage_errors(tmp_path, capsys):
    assert main(["solve"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "required: --config" in err[0]
    bad = tmp_path / "bad.cfg"
    bad.write_text("m1 = 8\n")  # missing most required keys
    assert main(["solve", "--config", str(bad)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    for key, value in (
        ("dt", "inf"), ("dx", "1e-300"), ("d11", "nan"), ("theta", "nan"),
        ("dx", "1e-160"), ("d11", "1e308"),
    ):
        bad.write_text(BASE_CONFIG.replace(f"\n{key} = ", f"\n{key} = {value}  # "))
        assert main(["solve", "--config", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", [["solve"], ["amplification", "--k1", "1", "--k2", "1"]],
                         ids=["solve", "amplification"])
def test_cli_problem_file_that_is_not_utf8_is_one_error_line(command, tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff" + BASE_CONFIG.encode())
    assert main([*command, "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read problem file {str(path)!r}: ")


def test_solve_cli_reports_numerical_breakdown(config_path, capsys, monkeypatch):
    for exc in (SingularSystemError("implicit sweep lost the pivot"),
                DomainError("field contains non-finite entries")):
        def broken_step(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr("mcs_adi.solver.get_step_function", lambda scheme: broken_step)
        assert main(["solve", "--config", config_path]) == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical breakdown at step 1: {exc}"]


def test_solve_cli_reports_blow_up_with_its_step(tmp_path, capsys, recwarn):
    # PSD diffusion with theta = 0.1 < 1/4 and a huge dt: the field grows
    # until it overflows during step 205
    path = tmp_path / "blowup.cfg"
    path.write_text(
        "m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\nd11 = 0.05\nd22 = 0.05\n"
        "d12 = 0.049\nd21 = 0.049\ntheta = 0.1\ndt = 100\nsteps = 400\ninitial = random:1\n"
    )
    assert main(["solve", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical breakdown at step 205: ")
    assert captured.out.splitlines()[-1].startswith("204,")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solve_cli_stiff_psd_problem_matches_closed_form(tmp_path, capsys):
    # theta*dt = 2.6e5: the stage matrices are well posed (|eigenvalues| >= 1)
    # but a residual bound relative to ||rhs|| alone reports a breakdown.
    path = tmp_path / "stiff.cfg"
    path.write_text(
        "m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\nc1 = 1\nd11 = 0.05\nd22 = 0.05\n"
        "theta = 0.26\ndt = 1e6\nsteps = 3\ninitial = random:1\n"
    )
    out = tmp_path / "field.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert "numerical breakdown" not in capsys.readouterr().err
    setup = load_problem(path)
    u0 = make_initial_field(setup.grid, setup.initial)
    s = stability_function(0.26, *fourier_symbol_grid(setup.coeffs, setup.grid, 1e6))
    want = np.fft.ifft2(s**3 * np.fft.fft2(u0)).real
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    got = rows[:, 2].reshape(setup.grid.shape)
    assert float(np.max(np.abs(got - want))) <= 1e-8


@pytest.mark.parametrize("scheme", ["mcs", "douglas"])
def test_amplification_cli_stiff_problem_has_no_false_breakdown(scheme, tmp_path, capsys):
    # the stiff problem above, one Fourier mode at a time: the large k = 0
    # entries of a dense inverse would cancel against a one-mode rhs and miss
    # the backward-error check, so these stages (n u ||M|| ||inv|| past the
    # residual tolerance) are solved by FFTs; measured worst 2.8e-15 (mcs)
    path = tmp_path / "stiff.cfg"
    path.write_text(
        "m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\nc1 = 1\nd11 = 0.05\nd22 = 0.05\n"
        "theta = 0.26\ndt = 1e6\nsteps = 3\ninitial = random:1\n"
    )
    worst = 0.0
    for k1 in range(16):
        for k2 in range(16):
            argv = ["amplification", "--config", str(path), "--k1", str(k1), "--k2", str(k2),
                    "--scheme", scheme]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, (k1, k2, captured.err)
            out = dict(line.split(" = ", 1) for line in captured.out.splitlines())
            worst = max(worst, float(out["rel_diff"]))
    assert worst <= 1e-8


@pytest.mark.parametrize("dt", [1e11, 1e12, 1e13])
def test_solve_cli_stiff_step_stays_within_the_stage_cancellation_limit(dt, tmp_path, capsys):
    # a positive-semidefinite problem whose stage matrices are well posed
    # (|eigenvalues| >= 1, spread below 1 / (n eps)) runs at any dt.  Its
    # accuracy is limited by the stage form: Y0 = U + dt A U has entries up to
    # dt ||A||_inf max|u0|, the stages cancel them back to O(max|u0|), and the
    # solves (M-matrices, ||M^-1||_inf = 1) do not amplify what rounding leaves
    # of them, so the step errs by at most c eps dt ||A||_inf max|u0|.  The few
    # roundings of that size mostly cancel: c = 1 holds with room to spare
    # (measured 0.013 to 0.019, at most 1.1e-15 dt)
    path = tmp_path / "stiff.cfg"
    path.write_text(
        "m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\nd11 = 0.05\nd22 = 0.03\n"
        f"theta = 0.5\ndt = {dt!r}\nsteps = 1\ninitial = random:1\n"
    )
    out = tmp_path / "field.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    setup = load_problem(path)
    u0 = make_initial_field(setup.grid, setup.initial)
    s = stability_function(0.5, *fourier_symbol_grid(setup.coeffs, setup.grid, dt))
    want = np.fft.ifft2(s * np.fft.fft2(u0)).real
    got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2].reshape(setup.grid.shape)
    norm_a = 4.0 * (0.05 + 0.03) / 0.0625**2  # A1 + A2 row sums; A0 = 0
    bound = np.finfo(float).eps * dt * norm_a * float(np.max(np.abs(u0)))
    assert float(np.max(np.abs(got - want))) <= bound


# ---------------------------------------------------------------- figure1 CLI


def test_figure1_cli_custom_grid_to_file(tmp_path):
    out = tmp_path / "scan.csv"
    argv = [
        "figure1", "--samples", "2000", "--theta-min", "0.3", "--theta-max", "0.34",
        "--theta-step", "0.02", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 thetas
    assert (tmp_path / "scan.csv.meta").exists()
    first_bytes = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first_bytes  # bit-identical rerun


@pytest.mark.filterwarnings("ignore:scan maxima cross 1")  # 2 samples is pure noise
def test_figure1_cli_default_grid_snaps_to_101_points(capsys):
    assert main(["figure1", "--samples", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,max_abs_s"
    assert len(lines) == 102
    assert float(lines[1].split(",")[0]) == 0.25
    assert float(lines[-1].split(",")[0]) == 0.5


@pytest.mark.filterwarnings("ignore:scan maxima cross 1")  # 10 samples is pure noise
def test_figure1_cli_custom_grid_stops_at_theta_max(capsys):
    # (0.5 - 0.25) / step = 9998.99...: rounding the count up would add a
    # last row at 0.50000009749000007
    assert main(["figure1", "--theta-step", "0.00002500251", "--samples", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9999
    assert float(lines[-1].split(",")[0]) <= 0.5
    for lo, hi in (("0.25", "0.3"), ("0.3", "0.35")):
        argv = ["figure1", "--samples", "10", "--theta-min", lo, "--theta-max", hi]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 21
        assert float(lines[-1].split(",")[0]) == pytest.approx(float(hi), abs=1e-15)


@pytest.mark.parametrize("argv, message", [
    (["figure1", "--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    (["figure1", "--seed", str(2**64)], f"seed must be an integer in [0, 2**64), got {2**64}"),
    (["figure1", "--samples", "0"], "samples must be positive"),
    (["verify", "--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    (["verify", "--samples", "0"], "samples must be positive"),
], ids=["figure1-seed--1", "figure1-seed-2**64", "figure1-samples-0", "verify-seed--1",
        "verify-samples-0"])
def test_seed_and_samples_errors_come_from_the_library_before_any_output(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_figure1_cli_flag_validation(capsys):
    assert main(["figure1", "--samples", "0"]) == 2
    assert main(["figure1", "--theta-step", "-0.01"]) == 2
    assert main(["figure1", "--theta-min", "0.4", "--theta-max", "0.3"]) == 2
    assert main(["figure1", "--no-such-flag"]) == 2
    capsys.readouterr()
    for argv in (
        ["verify", "--theorem", "5", "--samples", "0"],
        ["figure1", "--theta-min", "-1", "--theta-max", "0.3"],
        ["figure1", "--theta-min", "nan"],
        ["verify", "--theorem", "3", "--theta", "nan"],
        ["verify", "--theorem", "3", "--theta", "0"],
        ["verify", "--theta=-inf"],
        ["figure1", "--theta-step", "1e-12"],
        ["figure1", "--theta-step", "5e-324"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def test_figure1_cli_complex_z0_matches_complex_scan(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["figure1", "--complex-z0", "--samples", "3000", "--seed", "7", "--theta-min", "0.4",
            "--theta-max", "0.45", "--theta-step", "0.025", "--out", str(out)]
    assert main(argv) == 0
    report = complex_z0_scan([0.4 + k * 0.025 for k in range(3)], seed=7, samples=3000)
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [list(p) for p in zip(report.thetas, report.max_abs_s)]
    assert [complex(row[2], row[3]) for row in rows] == [w.z0 for w in report.witnesses]
    meta = (tmp_path / "scan.csv.meta").read_text().splitlines()
    assert "complex_z0 = true" in meta and "seed = 7" in meta
    assert main([a for a in argv if a != "--complex-z0"]) == 0  # the real-z0 scan
    assert "complex_z0 = false" in (tmp_path / "scan.csv.meta").read_text().splitlines()


def test_figure1_cli_reports_overflowing_theta_as_numerical_breakdown(tmp_path, capsys):
    # theta^2 |z1 z2| overflows for theta near 1e160: every |S| is NaN, which
    # used to fold to max -inf with no witness and crash the CSV writer
    out = tmp_path / "scan.csv"
    argv = ["figure1", "--samples", "100", "--theta-min", "1e200", "--theta-max", "1e200"]
    want = ["numerical breakdown: |S| not finite at theta = 9.9999999999999997e+199"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # on the pool threads too
        assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == want
    assert not out.exists()


def test_verify_cli_reports_overflowing_theta_as_numerical_breakdown(capsys):
    argv = ["verify", "--theorem", "3", "--theta", "1e200"]
    want = ["numerical breakdown: cubic coefficient at theta = 9.9999999999999997e+199 "
            "is too large for a float"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines() == want


# ------------------------------------------------------------ convergence CLI


def _study_csv(scheme, thetas, levels):
    """The convergence CSV, formatted here from `run_convergence_study`."""
    lines = ["scheme,theta,dt,max_error,observed_order"]
    for theta in thetas:
        problem = dataclasses.replace(default_convergence_problem(), theta=theta)
        lines += [f"{scheme},{theta:.17g},{r.dt:.17g},{r.max_error:.17g},{r.observed_order:.17g}"
                  for r in run_convergence_study(problem, scheme, levels)]
    return "\n".join(lines) + "\n"


def test_convergence_cli_csv_matches_study(tmp_path, capsys):
    assert main(["convergence", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert out == _study_csv("mcs", (1.0 / 3.0, 0.5), 2)
    assert len(out.splitlines()) == 5 and out.splitlines()[1].endswith(",nan")
    path = tmp_path / "study.csv"
    argv = ["convergence", "--scheme", "douglas", "--theta", "0.4", "--theta", "1",
            "--levels", "3", "--out", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == _study_csv("douglas", (0.4, 1.0), 3)


def test_convergence_cli_flag_validation(capsys):
    for argv in (["--levels", "0"], ["--levels", "13"], ["--levels", "-1"], ["--theta", "0"],
                 ["--theta", "nan"], ["--theta", "0.5", "--theta", "inf"]):
        assert main(["convergence", *argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""
    assert main(["convergence", "--scheme", "adi"]) == 2
    capsys.readouterr()


def test_convergence_cli_reports_numerical_breakdown(tmp_path, capsys, monkeypatch):
    # theta = 1e200 makes the first stage matrix of the study singular
    out = tmp_path / "study.csv"
    argv = ["convergence", "--theta", "1e200", "--levels", "1", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical breakdown at theta = 9.99")
    assert not out.exists()
    for exc in (SingularSystemError("implicit sweep lost the pivot"),
                DomainError("field contains non-finite entries")):
        def broken_study(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr("mcs_adi.solver.run_convergence_study", broken_study)
        assert main(["convergence", "--theta", "0.5"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical breakdown at theta = 0.5: {exc}"]


# ----------------------------------------------------------------- verify CLI


def test_verify_cli_single_theorem(capsys):
    assert main(["verify", "--theorem", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "6/6 checks passed" in out


def test_verify_cli_theorem3_with_theta(capsys):
    assert main(["verify", "--theorem", "3", "--theta", "0.3"]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "cubic_coefficient" in line)
    measured = float(row.split("measured=")[1].split()[0])
    assert measured == pytest.approx(-1.2, abs=0.012)


@pytest.mark.parametrize("theta", ["100", "1e60"])
def test_verify_cli_theorem3_passes_at_large_theta(theta, capsys):
    # the cubic coefficient is exact, so a correct scheme passes at any finite theta
    # whose coefficient fits a float
    assert main(["verify", "--theorem", "3", "--theta", theta]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.splitlines()[-1] == "2/2 checks passed"


@pytest.mark.parametrize("theta, rows", [
    ("5e-324", [
        "thm3  PASS  cubic_coefficient_at_4_94066e-324        measured=-7.9050503334599447e-323"
        "  exact coefficient vs closed form -7.90505e-323",
        "thm3  PASS  error_term_negative_at_4_94066e-324      measured=-7.9050503334599447e-323"
        "  negative cubic term: not stable on this family (theta < 2/5)"]),
    ("1e-300", [
        "thm3  PASS  cubic_coefficient_at_1e-300              measured=-1.6e-299"
        "  exact coefficient vs closed form -1.6e-299",
        "thm3  PASS  error_term_negative_at_1e-300            measured=-1.6e-299"
        "  negative cubic term: not stable on this family (theta < 2/5)"]),
])
def test_verify_cli_theorem3_rows_at_tiny_theta(theta, rows, capsys):
    # theta = a/b with b = 2^1074 and 2^1049: the exact integer check and its rounding
    assert main(["verify", "--theorem", "3", "--theta", theta]) == 0
    assert capsys.readouterr().out.splitlines() == rows + ["2/2 checks passed"]


def test_verify_cli_theorem3_at_1e300_is_too_large_for_a_float(capsys):
    assert main(["verify", "--theorem", "3", "--theta", "1e300"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["numerical breakdown: cubic coefficient at theta = "
                                    "1.0000000000000001e+300 is too large for a float"]


def test_verify_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert main(["verify", "--theorem", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "theorem,check,passed,measured"
    assert len(lines) == 7
    assert all(line.split(",")[2] == "1" for line in lines[1:])


@pytest.mark.parametrize("theorem", ["1", "2"])
def test_verify_cli_output_does_not_depend_on_threads(theorem, tmp_path, capsys):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"checks_{threads}.csv"
        argv = ["verify", "--theorem", theorem, "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert "checks passed" in outputs[0][0]


def test_verify_cli_exit_code_on_failure(capsys, monkeypatch):
    fake = [CheckResult("synthetic_check", 2.0, False, "forced failure")]
    monkeypatch.setattr("mcs_adi.analysis.verify_theorem", lambda *a, **k: fake)
    assert main(["verify", "--theorem", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 checks passed" in out


def test_verify_cli_passes_theta_to_theorem_3_alone(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("mcs_adi.analysis.verify_theorem",
                        lambda n, **kw: calls.append((n, kw["theta"])) or [])
    assert main(["verify", "--theta", "0.38"]) == 0
    assert calls == [(1, None), (2, None), (3, 0.38), (4, None), (5, None)]
    # a bad theta is rejected before theorem 1 runs, so no row is printed
    capsys.readouterr()
    assert main(["verify", "--theta=-inf"]) == 2
    assert capsys.readouterr() == ("", "error: theta must be positive and finite, got -inf\n")
    assert len(calls) == 5


# ---------------------------------------------------------- amplification CLI


def test_amplification_cli_matches_closed_form(config_path, capsys):
    assert main(["amplification", "--config", config_path, "--k1", "2", "--k2", "3"]) == 0
    out = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert out["mode"] == "2,3"
    assert float(out["rel_diff"]) < 1e-12
    assert complex(out["predicted"]) != 0


def test_amplification_cli_zero_mode(config_path, capsys):
    assert main(["amplification", "--config", config_path, "--k1", "0", "--k2", "0"]) == 0
    out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert abs(complex(out["predicted"]) - 1.0) < 1e-13
    assert float(out["abs_diff"]) < 1e-13


def test_amplification_cli_douglas(config_path, capsys):
    argv = ["amplification", "--config", config_path, "--k1", "1", "--k2", "1",
            "--scheme", "douglas"]
    assert main(argv) == 0
    out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(out["rel_diff"]) < 1e-12


def test_amplification_cli_takes_the_scheme_from_the_file(tmp_path, capsys):
    path = tmp_path / "douglas.cfg"
    path.write_text(BASE_CONFIG + "scheme = douglas\n")
    argv = ["amplification", "--config", str(path), "--k1", "1", "--k2", "2"]
    setup = load_problem(str(path))
    pt = fourier_symbols(setup.coeffs, setup.grid, setup.params.dt, FourierMode(1, 2))
    assert predicted_amplification("douglas", setup.params.theta, pt) != \
        predicted_amplification("mcs", setup.params.theta, pt)
    for flags, scheme in (([], "douglas"), (["--scheme", "mcs"], "mcs")):
        assert main(argv + flags) == 0
        out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["scheme"] == scheme
        predicted = predicted_amplification(scheme, setup.params.theta, pt)
        assert out["predicted"] == f"{predicted.real:.17g}{predicted.imag:+.17g}j"
        assert float(out["rel_diff"]) < 1e-12


def test_amplification_cli_bad_mode(config_path, capsys):
    assert main(["amplification", "--config", config_path, "--k1", "99", "--k2", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["amplification", "--k1", "1", "--k2", "0"]],
                         ids=["solve", "amplification"])
def test_an_unallocatable_grid_is_one_usage_error(command, config_path, capsys, monkeypatch):
    # stands in for m1 = m2 = 10**7, whose Fourier-mode field numpy cannot allocate
    for exc, want in ((MemoryError("Unable to allocate 745. TiB"),
                       "error: Unable to allocate 745. TiB"),
                      (MemoryError(), "error: out of memory")):
        def no_memory(self, grid):
            raise exc

        monkeypatch.setattr(FourierMode, "phase_field", no_memory)
        assert main([command[0], "--config", config_path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [want]


@pytest.mark.parametrize("command", [["solve"], ["amplification", "--k1", "1", "--k2", "0"]],
                         ids=["solve", "amplification"])
def test_a_grid_beyond_the_address_space_is_one_usage_error(command, tmp_path, capsys,
                                                            monkeypatch):
    # a 2^32 x 2^32 complex128 field is 2^68 bytes, more than np.intp counts:
    # GridSpec rejects it before anything is allocated
    path = tmp_path / "huge.cfg"
    path.write_text("m1 = 4294967296\nm2 = 4294967296\ndx = 1\ndy = 1\ndt = 0.01\n"
                    "theta = 0.5\ninitial = impulse\n")

    def no_field(self, grid):
        raise AssertionError("a Fourier-mode field of the huge grid was built")

    monkeypatch.setattr(FourierMode, "phase_field", no_field)
    assert main([command[0], "--config", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: grid 4294967296x4294967296 is too large for this machine's arrays"]


def test_cli_requires_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["figure1", "--samples", "x"], ["convergence", "--scheme", "adi"],
     ["solve", "--no-such-flag"]],
    ids=["bad-int", "bad-choice", "unknown-flag"],
)
def test_usage_errors_are_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err


#: Flags a subcommand does not read, and so does not take.
_FOREIGN_FLAGS = [
    ("solve", "--seed", "1"), ("solve", "--threads", "1"),
    ("figure1", "--config", "x.cfg"), ("verify", "--config", "x.cfg"),
    ("amplification", "--out", "x.csv"), ("amplification", "--seed", "1"),
    ("amplification", "--threads", "1"),
    ("convergence", "--config", "x.cfg"), ("convergence", "--seed", "1"),
    ("convergence", "--threads", "1"),
]


@pytest.mark.parametrize("command, flag, value", _FOREIGN_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in _FOREIGN_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, value, config_path,
                                                           capsys):
    argv = {"solve": ["solve", "--config", config_path],
            "amplification": ["amplification", "--config", config_path, "--k1", "1", "--k2", "0"],
            }.get(command, [command])
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err
    assert flag in err[0]


def test_help_prints_usage_and_exits_zero(capsys):
    assert main(["figure1", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mcs-adi figure1 ") and captured.err == ""


def test_module_entry_point():
    proc = run_module("verify", "--theorem", "4")
    assert proc.returncode == 0
    assert "6/6 checks passed" in proc.stdout


# ------------------------------------------------------------ CLI robustness

# 1e155 and 1e67 are the d11 and d12 = d21 of the one-line overflow of `amplification`
_EDGE_FLOATS = [0.0, -0.0, -1.0, 1e-300, 5e-324, 1e67, 1e155, 1e200, 1e308, math.inf,
                -math.inf, math.nan]
_cli_floats = hst.one_of(hst.sampled_from(_EDGE_FLOATS), hst.floats(-2.0, 2.0))
_config_values = {
    # 2**62 by any m >= 3 overflows np.intp bytes: rejected before any allocation
    "m1": hst.integers(-1, 12) | hst.just(2**62), "m2": hst.integers(-1, 12) | hst.just(2**62),
    "dx": _cli_floats, "dy": _cli_floats, "dt": _cli_floats, "theta": _cli_floats,
    "c1": _cli_floats, "c2": _cli_floats, "d11": _cli_floats, "d12": _cli_floats,
    "d21": _cli_floats, "d22": _cli_floats, "beta": _cli_floats,
    "steps": hst.integers(-1, 3),
    "scheme": hst.sampled_from(["mcs", "douglas", "adi"]),
    "initial": hst.sampled_from(
        ["mode:1,1", "mode:0,2", "mode:99,0", "mode:1", "impulse", "random:3", "random:x",
         "random:-1", "x"]
    ),
    "bogus": hst.integers(0, 1),
}


@hst.composite
def _problem_text(draw):
    keys = draw(hst.lists(hst.sampled_from(sorted(_config_values)), unique=True))
    lines = [f"{key} = {draw(_config_values[key])!r}".replace("'", "") for key in keys]
    lines += draw(hst.lists(hst.sampled_from(["# note", "", "m1", "= 3", "dt = "]), max_size=2))
    return "\n".join(draw(hst.permutations(lines))) + "\n"


def _flag(name, values):
    return hst.one_of(hst.just([]), values.map(lambda v: [name, str(v)]))


# figure1 and verify are the commands that take --seed and --threads
_pool_flags = (_flag("--seed", hst.integers(-1, 1 << 64)), _flag("--threads", hst.integers(-1, 3)))
_problem_command = hst.tuples(
    hst.sampled_from([["solve"], ["amplification", "--k1", "1", "--k2", "0"]]),
    _problem_text(),
    _flag("--steps", hst.integers(-1, 3)),
    _flag("--theta", _cli_floats),
    _flag("--scheme", hst.sampled_from(["mcs", "douglas", "adi"])),
)
# --samples and --theorem are always given: the defaults run for seconds
_figure1_flags = hst.tuples(
    hst.just(["figure1"]),
    hst.integers(-1, 3000).map(lambda n: ["--samples", str(n)]),
    _flag("--theta-min", _cli_floats),
    _flag("--theta-max", _cli_floats),
    _flag("--theta-step", hst.one_of(_cli_floats, hst.floats(1e-6, 1e-3))),
    hst.sampled_from([[], ["--complex-z0"]]),
    *_pool_flags,
)
_verify_flags = hst.tuples(
    hst.just(["verify"]),
    hst.sampled_from(["0", "3", "4", "5"]).map(lambda n: ["--theorem", n]),
    hst.integers(-1, 3000).map(lambda n: ["--samples", str(n)]),
    _flag("--theta", _cli_floats),
    *_pool_flags,
)
# --levels is always given: the default of 4 runs 120 steps per theta
_convergence_flags = hst.tuples(
    hst.just(["convergence"]),
    hst.integers(-1, 3).map(lambda n: ["--levels", str(n)]),
    hst.lists(_cli_floats, max_size=2).map(lambda ts: [a for t in ts for a in ("--theta", str(t))]),
    _flag("--scheme", hst.sampled_from(["mcs", "douglas", "adi"])),
)


@settings(max_examples=150, deadline=None)
@example(
    command=(["figure1"], ["--samples", "10"], ["--theta-min", "1e200"],
             ["--theta-max", "1e200"], [], [], [], []),
    write_out=True,
)
@example(
    command=(["verify"], ["--theorem", "3"], ["--samples", "10"], ["--theta", "1e200"], [], []),
    write_out=False,
)
@example(
    command=(["convergence"], ["--levels", "1"], ["--theta", "1e308"], ["--scheme", "douglas"]),
    write_out=True,
)
@given(
    command=hst.one_of(_problem_command, _figure1_flags, _verify_flags, _convergence_flags),
    write_out=hst.booleans(),
)
def test_cli_exits_with_a_documented_code_and_no_traceback(command, write_out):
    # theorems 1 and 2 scan fixed grids for seconds; 3-5 take the same CLI path
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for part in command:
            if isinstance(part, str):  # a generated problem file
                path = os.path.join(tmp, "problem.cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(part)
                part = ["--config", path]
            argv += part
        if write_out and argv[0] != "amplification":  # the only command without --out
            argv += ["--out", os.path.join(tmp, "out.csv")]
        err = io.StringIO()
        # overflow warnings of extreme inputs are expected here, not reported
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------- lazy layers

_LAYER_PROBE = """\
import contextlib, io, sys, types
from mcs_adi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
executed = [m for m in ("stability", "spectrum", "config", "solver", "analysis")
            if type(sys.modules["mcs_adi." + m]) is types.ModuleType]
print(code, "concurrent.futures" in sys.modules, *executed)
"""


@pytest.mark.parametrize(
    "command, futures, executed",
    [(["solve", "--steps", "2"], False, ["stability", "spectrum", "config", "solver"]),
     (["figure1", "--samples", "1000", "--threads", "1"], True,
      ["stability", "spectrum", "config", "analysis"]),
     (["verify", "--theorem", "1", "--threads", "1"], True,
      ["stability", "spectrum", "config", "analysis"])],
    ids=["solve", "figure1", "verify"],
)
def test_commands_execute_only_the_layers_they_run(command, futures, executed, tmp_path):
    # the layers are registered in sys.modules unexecuted; `solve` never runs
    # `analysis` (nor imports its thread pool), `figure1` and `verify` never `solver`
    path = tmp_path / "problem.cfg"
    path.write_text("m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\ndt = 0.01\ntheta = 0.5\n"
                    "d11 = 0.05\nd22 = 0.05\nd12 = 0.01\ninitial = random:1\n")
    if command[0] == "solve":
        command = command + ["--config", str(path)]
    proc = subprocess.run([sys.executable, "-c", _LAYER_PROBE, *command], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout.split() == ["0", str(futures), *executed], proc.stderr


def test_package_exports_resolve_to_their_defining_modules():
    namespace = {}
    exec("from mcs_adi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mcs_adi.__all__)
    for name in mcs_adi.__all__:
        if name == "__version__":
            continue
        obj = namespace[name]
        assert obj.__module__.startswith("mcs_adi.")
        assert getattr(sys.modules[obj.__module__], name) is obj is getattr(mcs_adi, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        mcs_adi.no_such_name

"""The `mcs-adi` command-line contract, run as `python -m mcs_adi` in a subprocess.

A usage or problem-file error exits 2 and a numerical breakdown 3, each with
one stderr line; `figure1` and `verify` write the same bytes at any thread
count, and two scan commands write pinned bytes; a dense solve is the same
at any BLAS thread count; the theorem-1 to -3 rows are exact; FFT and
row-band solves match the closed form.  Only a subprocess
shows what the process writes: a numpy warning or a traceback is one more
stderr line.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcs_adi

SRC = str(Path(mcs_adi.__file__).resolve().parents[1])
_spec = importlib.util.spec_from_file_location(
    "checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def run_module(*args, cwd=None, **env):
    """`python -m mcs_adi ARGS` with stdin closed and `env` added: the CompletedProcess."""
    return subprocess.run([sys.executable, "-m", "mcs_adi", *args], cwd=cwd,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=SRC, **env))


PROBLEM = "m1 = 8\nm2 = 8\ndx = 0.125\ndy = 0.125\ndt = 0.01\ntheta = 0.5\n"
# d11 = 1e155 overflows p^2 in both closed forms of S (mcs) and leaves a stage
# matrix singular in floating point (douglas): a numerical breakdown
AMP = "m1 = 8\nm2 = 8\ndx = 1\ndy = 1\ndt = 1\ntheta = 0.4\nd11 = 1e155\n" \
      "d12 = 1e67\nd21 = 1e67\nd22 = 1e-20\n"
# a 2^32 x 2^32 complex field has more bytes than np.intp counts: a config error
HUGE = "m1 = 4294967296\nm2 = 4294967296\ndx = 1\ndy = 1\ndt = 0.01\ntheta = 0.5\n" \
       "initial = impulse\n"
# stage eigenvalues spread by 2.6e15, past 1 / (n eps): a numerical breakdown
SPREAD = "m1 = 16\nm2 = 16\ndx = 0.0625\ndy = 0.0625\nd11 = 0.05\nd22 = 0.03\n" \
         "theta = 0.5\ndt = 1e14\ninitial = random:1\n"
NOT_WRITABLE = "error: cannot write no_dir/x.csv: "

#: argv | problem.cfg (None: no file) | exit code | start of the one stderr line
CONTRACT = [
    ("solve --config problem.cfg --out no_dir/x.csv", PROBLEM, 2, NOT_WRITABLE),
    ("solve --config problem.cfg", PROBLEM + "foo = 1\n", 2, "error: unknown key 'foo'"),
    ("solve --config problem.cfg", PROBLEM.replace("m1 = 8", "m1 = eight"), 2,
     "error: key 'm1': cannot parse 'eight'"),
    ("solve --config problem.cfg", PROBLEM.replace("theta = 0.5\n", ""), 2,
     "error: missing required keys: theta"),
    ("figure1 --samples 10 --out no_dir/x.csv", None, 2, NOT_WRITABLE),
    ("verify --theorem 3 --out no_dir/x.csv", None, 2, NOT_WRITABLE),
    ("convergence --levels 1 --out no_dir/x.csv", None, 2, NOT_WRITABLE),
    ("figure1 --samples 10 --theta-min 1e200 --theta-max 1e200", None, 3,
     "numerical breakdown: |S| not finite at theta = 9.9999999999999997e+199"),
    ("verify --theorem 3 --theta 1e200", None, 3, "numerical breakdown: cubic coefficient at "
     "theta = 9.9999999999999997e+199 is too large for a float"),
    ("verify --theorem 3 --theta nan", None, 2, "error:"),
    ("convergence --levels 1 --theta 0", None, 2, "error:"),
    # d11 / dx^2 overflows: a stencil overflow is a config error
    ("solve --config problem.cfg", PROBLEM.replace("dx = 0.125", "dx = 1e-160") + "d11 = 0.05\n",
     2, "error:"),
    ("amplification --config problem.cfg --k1 4 --k2 4", AMP, 3, "numerical breakdown: "),
    ("amplification --config problem.cfg --k1 4 --k2 4 --scheme douglas", AMP, 3,
     "numerical breakdown: "),
    ("solve --config problem.cfg", SPREAD, 3, "numerical breakdown"),
    ("solve --config problem.cfg", HUGE, 2, "error:"),
    ("amplification --config problem.cfg --k1 1 --k2 0", HUGE, 2, "error:"),
    ("solve --config problem.cfg", PROBLEM + "initial = random:-1\n", 2,
     "error: initial random seed"),
    ("figure1 --samples 10 --seed 18446744073709551616", None, 2, "error: seed"),
    ("verify --samples 0", None, 2, "error: samples"),
    ("solve --config problem.cfg", b"\xff" + PROBLEM.encode(), 2,
     "error: cannot read problem file"),
    ("amplification --config problem.cfg --k1 1 --k2 0", b"\xff" + PROBLEM.encode(), 2,
     "error: cannot read problem file"),
    ("figure1 --samples 10 --theta-step 0", None, 2,
     "error: theta-step must be positive and finite"),
    ("verify --theorem 1 --theta 0.3", None, 2, "error: --theorem 1 does not read --theta"),
    ("figure1 --samples 10 --threads -4", None, 2, "error: threads must be at least 1, got -4"),
]


@pytest.mark.parametrize("argv, problem, code, start", CONTRACT, ids=[r[0] for r in CONTRACT])
def test_an_error_is_one_stderr_line_with_its_exit_code(argv, problem, code, start, tmp_path):
    if problem is not None:
        text = problem if isinstance(problem, bytes) else problem.encode()
        (tmp_path / "problem.cfg").write_bytes(text)
    proc = run_module(*argv.split(), cwd=tmp_path)
    err = proc.stderr.splitlines()
    assert (proc.returncode, len(err)) == (code, 1) and err[0].startswith(start), proc.stderr
    if code == 2 and "--out" not in argv:  # found before any output; --out when writing it
        assert proc.stdout == ""


@pytest.mark.parametrize("argv, threads", [
    ("figure1 --samples 150000 --theta-min 0.3 --theta-max 0.35 --theta-step 0.0025", "12"),
    # the default 101-theta grid: 101 evaluations per block, a block drawn
    # ahead per worker, and an odd worker count
    ("figure1 --samples 150000", "123"),
    ("figure1 --complex-z0 --samples 150000", "123"),
    ("verify --theorem all", "123"),
])
def test_output_bytes_do_not_depend_on_the_thread_count(argv, threads, tmp_path):
    files = ["out.csv", "out.csv.meta"] if argv.startswith("figure1") else ["out.csv"]

    def output(t):
        proc = run_module(*argv.split(), "--threads", t, "--out", "out.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return [proc.stdout, *((tmp_path / name).read_bytes() for name in files)]

    first = output(threads[0])
    for t in threads[1:]:
        assert output(t) == first, t


# sha256 of what each command writes.  Each theta sees figure1's 70 000
# samples in chunks of 4 x 16384 and 4464 points, and theorem 5's 200 000
# in 12 x 16384 and 3392 points
PINNED = [
    ("figure1 --samples 70000 --seed 5 --threads 2 --out f.csv",
     {"f.csv": "4b3c74a57c6c0e210f06bfb20b221dc2c27e9c8313f186c579adf388081723dd",
      "f.csv.meta": "d63191291c03aceb7ec0300fabb84b7e7bfc31cc7bd5aebf2b0f14a54173c5d9"}),
    ("verify --theorem 5 --threads 2 --seed 5",
     {"stdout": "0c2d50384d7765726cebaa9494caa62904e41a8ca9446471cf80508a078689c0"}),
]


@pytest.mark.parametrize("argv, want", PINNED, ids=["figure1", "verify"])
def test_scan_output_bytes_are_pinned(argv, want, tmp_path):
    proc = run_module(*argv.split(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256(proc.stdout.encode() if name == "stdout"
                                else (tmp_path / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want


THEOREM_ROWS = {
    "1": ["theorem,check,passed,measured",
          "1,margin_zero_at_1_4,1,0",
          "1,margin_zero_at_1_2,1,0",
          "1,margin_nonnegative_above_1_4,1,0",
          "1,margin_negative_below_1_4,1,-0.020000000000000004",
          "1,imaginary_axis_coeff_at_1_4,1,0",
          "1,imaginary_axis_coeff_at_1_2,1,0",
          "1,imaginary_axis_coeff_at_1,1,0.75",
          "1,imaginary_axis_coeff_negative_at_0_24,1,-0.0027040000000000024"],
    # the certificate rows, among the others
    "2": ["2,real_cone_upper_bound_at_1_3,1,0",
          "2,real_cone_upper_bound_at_1_2,1,-4",
          "2,real_cone_lower_bound_at_1_3,1,3",
          "2,real_cone_lower_bound_at_1_2,1,3",
          "2,sharp_point_excess_at_0_32,1,1.1953125"],
    "3": ["theorem,check,passed,measured",
          "3,cubic_coefficient_at_0_38,1,-0.30399999999999994",
          "3,error_term_negative_at_0_38,1,-0.30399999999999994",
          "3,cubic_coefficient_at_0_4,1,3.5527136788005011e-16",
          "3,error_term_vanishes_at_0_4,1,3.5527136788005011e-16",
          "3,cubic_coefficient_at_0_42,1,0.33599999999999974",
          "3,error_term_positive_at_0_42,1,0.33599999999999974"],
}


@pytest.mark.parametrize("theorem", THEOREM_ROWS)
def test_theorem_rows_are_exact_and_do_not_depend_on_numpy(theorem, tmp_path):
    proc = run_module("verify", "--theorem", theorem, "--out", "t.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got, want = (tmp_path / "t.csv").read_bytes(), THEOREM_ROWS[theorem]
    if theorem == "2":
        assert set(want) <= set(got.decode().splitlines())
    else:
        assert got == "".join(f"{row}\n" for row in want).encode()


def _solve(tmp_path, m1, m2, *flags, **env):
    """`solve` of the random:1 test problem on an m1 x m2 grid: (problem, stdout, field CSV)."""
    values = dict(m1=m1, m2=m2, dx=1 / m1, dy=1 / m2, dt=0.001, theta=0.5, c1=0.4, c2=-0.25,
                  d11=0.08, d12=0.04, d21=0.04, d22=0.05, beta=0.5, initial="random:1")
    (tmp_path / "p.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    proc = run_module("solve", "--config", "p.cfg", *flags, "--out", "u.csv", cwd=tmp_path, **env)
    assert proc.returncode == 0, proc.stderr
    return values, proc.stdout, tmp_path / "u.csv"


def test_dense_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    # both directions are at most 256 points long, so every stage is one matmul
    runs = []
    for t in "12":
        _, log, out = _solve(tmp_path, 256, 200, "--steps", "20", OPENBLAS_NUM_THREADS=t)
        runs.append((log, out.read_bytes()))
    assert runs[0] == runs[1]


# fft: both directions are longer than 256 points, so both solve by FFTs, and
# the odd width sends the x-solve through its zero-padded copy.  bands: the
# stencils and solve checks run in two row bands, of 819 and 211 rows; the
# x-solve is an FFT, the y-solve a dense product
@pytest.mark.parametrize("m1, m2", [(260, 259), (1030, 40)], ids=["fft", "bands"])
def test_fft_and_row_band_solves_match_the_closed_form(m1, m2, tmp_path):
    values, log, out = _solve(tmp_path, m1, m2, "--steps", "3")
    field, norms = checks.solve_reference(values, 3)
    assert checks.check_solve_log(log.splitlines(), norms) is None
    assert checks.check_field(checks.read_field_csv(out, field.shape), field) is None


def test_complex_z0_scan_and_convergence_study_run(tmp_path):
    argv = ["figure1", "--complex-z0", "--samples", "65536", "--out", "f.csv"]
    assert run_module(*argv, cwd=tmp_path).returncode == 0
    assert "complex_z0 = true" in (tmp_path / "f.csv.meta").read_text().splitlines()
    proc = run_module("convergence", "--levels", "2")
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and len(lines) == 5, proc.stderr
    assert lines[0] == "scheme,theta,dt,max_error,observed_order"

"""Tests of the benchmark's own output checks and trace counts.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
from tracer import self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))

SMALL = dict(grid=16, dt=1e-2, steps=20, clock_exponent=0.8)


@pytest.fixture
def small_solve(tmp_path):
    return run.Solve(7, tmp_path, **SMALL)


def test_solve_check_accepts_real_output_and_rejects_perturbed_field(small_solve, tmp_path):
    result = run.cli(small_solve.args(), tmp_path)
    reference, norms = small_solve.reference(SMALL["steps"])
    field = checks.read_field_csv(small_solve.out, reference.shape)
    assert checks.check_solve_log(result.texts, norms) is None
    assert checks.check_field(field, reference) is None

    field[3, 5] += 1e-8 * abs(reference).max()
    assert checks.check_field(field, reference) is not None
    assert checks.check_solve_log(result.texts[:-1], norms) is not None
    bad = [*result.texts]
    step, _, norm = bad[5].partition(",")
    bad[5] = f"{step},{float(norm) * (1 + 1e-8)!r}"
    assert checks.check_solve_log(bad, norms) is not None


@pytest.fixture(scope="module")
def figure1_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure1") / "scan.csv"
    result = run.cli(["figure1", "--samples", "20000", "--seed", "3", "--threads", "2",
                      "--out", str(out)], out.parent)
    assert result.returncode == 0
    return out.read_text(), Path(f"{out}.meta").read_text()


def test_figure1_check_rejects_stable_row_above_one(figure1_output):
    csv_text, meta = figure1_output
    assert checks.check_figure1(csv_text, meta, 3, 20000) is None

    rows = csv_text.splitlines()
    k = 1 + 70  # theta = 0.425
    fields = rows[k].split(",")
    assert float(fields[0]) >= 0.4
    rows[k] = ",".join([fields[0], "1.01", *fields[2:]])
    assert checks.check_figure1("\n".join(rows) + "\n", meta, 3, 20000) is not None
    assert checks.check_figure1(csv_text, meta, 4, 20000) is not None
    assert checks.check_figure1("\n".join(csv_text.splitlines()[:-1]), meta, 3, 20000) is not None


def test_verify_check_rejects_fail_line_with_exit_one():
    passing = [
        "thm4  PASS  ratio_argmax_at_2                        measured=2  maximizer",
        "thm4  PASS  ratio_max_is_5_12                        measured=0.41666666666666669  max",
        "2/2 checks passed",
    ]
    assert checks.check_verify(0, passing) is None
    failing = [passing[0], passing[1].replace("PASS", "FAIL"), "1/2 checks passed"]
    assert checks.check_verify(1, failing) is not None
    assert checks.check_verify(0, failing) is not None
    assert checks.check_verify(0, passing[:-1]) is not None


def test_verify_check_accepts_real_output(tmp_path):
    result = run.cli(["verify", "--theorem", "3"], tmp_path)
    assert checks.check_verify(result.returncode, result.texts) is None


def _traced_metrics(args, tmp_path, name):
    spans = tmp_path / f"{name}.json"
    result = run.traced_cli(args, tmp_path, spans)
    assert result.returncode == 0
    return run.layer_metrics([json.loads(spans.read_text())])


def test_solver_call_counts_are_exact_and_repeat(small_solve, tmp_path):
    first, second = (_traced_metrics(small_solve.args(), tmp_path, f"solve{k}") for k in (1, 2))
    for name, want in (("solver.solve_directional.calls_per_step", 4),
                       ("solver.apply_split_operator.calls_per_step", 6),
                       ("solver.validate_field.calls_per_step", 10)):
        assert first[name][0] == second[name][0] == want
    assert first["stability.stability_function.calls"][0] == 0


def test_stability_point_counts_repeat(tmp_path):
    args = ["figure1", "--samples", "3000", "--theta-min", "0.25", "--theta-max", "0.3",
            "--threads", "2", "--seed", "5", "--out", str(tmp_path / "scan.csv")]
    first, second = (_traced_metrics(args, tmp_path, f"scan{k}") for k in (1, 2))
    names = ("stability.stability_function.calls", "stability.stability_function.points")
    assert [first[n][0] for n in names] == [second[n][0] for n in names] == [21, 21 * 3000]
    assert first["analysis.figure1_scan.self_s"][0] > 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        [0, "parent", 0.0, 10.0, -1, 1, 0],
        [1, "child", 1.0, 5.0, 0, 2, 0],
        [2, "child", 3.0, 7.0, 0, 3, 0],
        [3, "child", 9.0, 12.0, 0, 3, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_clock_probes_sample_every_core_and_stop(tmp_path):
    with run.Clock(tmp_path) as clock:
        start = time.perf_counter()
        time.sleep(0.6)
        end = time.perf_counter()
        scale = clock.scale(start, end, 1.0, run.CPUS)
        assert all(len(clock.samples(cpu)) >= 3 for cpu in run.CPUS)
    assert 0.1 < scale < 10.0
    assert all(proc.poll() is not None for proc in clock.procs)
    assert 0.0 < clock.scale(start, end, 0.0, run.CPUS[:1]) <= 1.0  # steal only

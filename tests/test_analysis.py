import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from mcs_adi import analysis, certificates
from mcs_adi.cli import main
from mcs_adi.analysis import (
    BLOCK_SAMPLES,
    CheckResult,
    ScanReport,
    complex_z0_scan,
    default_theta_grid,
    figure1_scan,
    lemma2_random_min_gap,
    thm1_threshold_scan,
    thm2_real_grid_scan,
    thm2_sharp_point,
    thm3_cubic_coefficient,
    thm4_maximize,
    thm4_ratio,
    thm4_witness_search,
    verify_theorem,
    write_scan_csv,
)
from mcs_adi.stability import (
    DomainError,
    SpectralPoint,
    cone_condition,
    eval_stability_function,
    lemma2_gap,
    stability_function,
    thm5_bound,
)

SMALL = 70_000  # spans two sampling blocks, keeps the module quick


def test_default_theta_grid_shape():
    grid = default_theta_grid()
    assert len(grid) == 101
    assert grid[0] == 0.25 and grid[-1] == 0.5
    assert all(b - a == pytest.approx(0.0025, abs=1e-15) for a, b in zip(grid, grid[1:]))
    # 1/3 falls between grid points; scans that need it must add it explicitly
    assert min(abs(t - 1.0 / 3.0) for t in grid) > 1e-9


def test_scan_is_deterministic_and_thread_invariant():
    thetas = (0.3, 1.0 / 3.0, 0.45)
    a = figure1_scan(seed=7, samples=SMALL, thetas=thetas, threads=1)
    b = figure1_scan(seed=7, samples=SMALL, thetas=thetas, threads=4)
    assert a.max_abs_s == b.max_abs_s
    assert a.witnesses == b.witnesses
    c = figure1_scan(seed=8, samples=SMALL, thetas=thetas, threads=1)
    assert c.max_abs_s != a.max_abs_s


def test_scan_theta_result_does_not_depend_on_the_rest_of_the_grid():
    alone = figure1_scan(seed=5, samples=SMALL, thetas=(0.3,))
    both = figure1_scan(seed=5, samples=SMALL, thetas=(0.3, 0.45))
    assert alone.max_abs_s[0] == both.max_abs_s[0]
    assert alone.witnesses[0] == both.witnesses[0]


@pytest.mark.parametrize("complex_z0", [False, True])
def test_scan_draws_each_chunk_once(monkeypatch, complex_z0):
    # one task per chunk, 4 to a full block; the 42 theta evaluations of the
    # chunk all reuse its arrays
    samples = 2 * BLOCK_SAMPLES + 1234  # three blocks, the last one partial
    calls = []
    draw = analysis._draw_cone_chunk

    def counting_draw(seed, block, lo, n, cz0):
        calls.append((block, lo, n, cz0))
        return draw(seed, block, lo, n, cz0)

    monkeypatch.setattr(analysis, "_draw_cone_chunk", counting_draw)
    thetas = tuple(0.25 + k / 160.0 for k in range(42))
    for threads in (1, 2, 3):
        calls.clear()
        if complex_z0:
            complex_z0_scan(thetas, seed=1, samples=samples, threads=threads)
        else:
            figure1_scan(seed=1, samples=samples, thetas=thetas, threads=threads)
        assert sorted(calls) == [
            (b, lo, 16384, complex_z0) for b in (0, 1) for lo in range(0, BLOCK_SAMPLES, 16384)
        ] + [(2, 0, 1234, complex_z0)]


def test_scan_fold_does_not_depend_on_task_completion_order(monkeypatch):
    # Blocks of one chunk each; blocks 1 and 2 are the complex conjugate of
    # block 0, so every chunk ties on max |S|, and chunk 0 has a witness of
    # its own; the first chunk's task is held back so that it completes
    # last.  A fold in completion order, or one that keeps the last maximum,
    # reports the conjugate witness.
    monkeypatch.setattr(analysis, "BLOCK_SAMPLES", analysis._SCAN_CHUNK)
    block0 = analysis._draw_cone_chunk(9, 0, 0, analysis._SCAN_CHUNK, False)
    conj = tuple(np.conj(z) for z in block0)
    blocks = [block0, conj, conj]
    batch_max = analysis._batch_max
    first = []

    def first_task_late(theta, z0, *rest):
        if not first:
            first.append(theta)
            time.sleep(0.02)
        return batch_max(theta, z0, *rest)

    monkeypatch.setattr(analysis, "_draw_cone_chunk", lambda seed, b, lo, n, cz0: blocks[b])
    monkeypatch.setattr(analysis, "_batch_max", first_task_late)
    thetas = (0.26, 0.3, 1.0 / 3.0, 0.45)
    want = [_serial_first_max((theta, *z) for z in blocks) for theta in thetas]
    for theta, (mx, wit) in zip(thetas, want):
        tie = _serial_first_max([(theta, *blocks[1])])
        assert tie[0] == mx and tie[1] != wit
    for threads in (1, 2, 3):
        first.clear()
        r = figure1_scan(seed=9, samples=3 * analysis._SCAN_CHUNK, thetas=thetas, threads=threads)
        assert first == [thetas[0]]
        assert list(zip(r.max_abs_s, r.witnesses)) == want


def test_scan_hands_every_evaluation_the_chunk_sum(monkeypatch):
    # z0 + (z1 + z2) is computed once per chunk, bit for bit as
    # stability_function would compute it itself, and every theta's
    # evaluation of the chunk gets it
    seen = []

    def checked(theta, z0, z1, z2, zz=None):
        seen.append(theta)
        assert zz is not None and np.array_equal(zz, z0 + (z1 + z2))
        assert zz.size <= analysis._SCAN_CHUNK
        return stability_function(theta, z0, z1, z2, zz=zz)

    monkeypatch.setattr(analysis, "stability_function", checked)
    figure1_scan(seed=4, samples=SMALL, thetas=(0.3, 0.45), threads=2)
    complex_z0_scan((0.3, 0.45), seed=4, samples=SMALL, threads=2)
    chunks = len(list(analysis._chunks(4, SMALL)))
    assert chunks == 5  # 4 of block 0, 1 of block 1
    assert len(seen) == 2 * 2 * chunks


def test_scan_holds_at_most_one_chunk_per_worker(monkeypatch):
    # Small chunks make many of them; a chunk counts as alive from its draw
    # until its arrays are freed, when its task returns.  Eight workers on a
    # short switch interval stress the driver: a chunk drawn twice, or more
    # chunks alive than workers, fails the counts.
    monkeypatch.setattr(analysis, "_SCAN_CHUNK", 1024)
    draw = analysis._draw_cone_chunk
    lock = threading.Lock()
    alive, peak, drawn = [0], [0], []

    def released():
        with lock:
            alive[0] -= 1

    def tracked_draw(seed, block, lo, n, cz0):
        z = draw(seed, block, lo, n, cz0)
        with lock:
            drawn.append(lo)
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
        weakref.finalize(z[0], released)
        return z

    thetas = tuple(0.25 + k / 80.0 for k in range(21))
    want = figure1_scan(seed=3, samples=24 * 1024 - 5, thetas=thetas, threads=1)
    # the pool caps its workers at the usable CPUs; eight workers on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(analysis, "_draw_cone_chunk", tracked_draw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 3, 8):
            peak[0] = 0
            drawn.clear()
            got = figure1_scan(seed=3, samples=24 * 1024 - 5, thetas=thetas, threads=threads)
            assert got == want
            assert sorted(drawn) == list(range(0, 24 * 1024, 1024))
            assert alive[0] == 0
            assert 1 <= peak[0] <= threads
    finally:
        sys.setswitchinterval(interval)


def _count_pending_tasks(monkeypatch):
    """Patch in an executor that counts tasks: [pending, peak pending, submitted].

    A task counts as returned before its future is done, so the scan never
    sees a result whose task still counts as pending.
    """
    lock = threading.Lock()
    counts = [0, 0, 0]

    def counted(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            with lock:
                counts[0] -= 1

    class RecordingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            with lock:
                counts[0] += 1
                counts[1] = max(counts[1], counts[0])
                counts[2] += 1
            return super().submit(counted, fn, *args, **kwargs)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordingExecutor)
    return counts


@pytest.mark.parametrize("n_thetas", [1, 21])
def test_scan_bookkeeping_does_not_grow_with_the_chunk_count(monkeypatch, n_thetas):
    # The scan submits as it goes: 2 W tasks at first, then one per task
    # folded, so at most 2 W tasks are pending however many chunks the sweep
    # has (24 here) and however many thetas each task evaluates.  Every draw
    # waits until 2 W tasks were submitted, so that all 2 W are pending once.
    monkeypatch.setattr(analysis, "_SCAN_CHUNK", 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    thetas = tuple(0.25 + k / 80.0 for k in range(n_thetas))
    want = figure1_scan(seed=3, samples=24 * 1024, thetas=thetas, threads=1)
    counts = _count_pending_tasks(monkeypatch)
    draw = analysis._draw_cone_chunk

    def draw_once_all_submitted(*args):
        deadline = time.monotonic() + 10.0
        while counts[2] < 2 * threads and time.monotonic() < deadline:
            time.sleep(1e-3)
        return draw(*args)

    monkeypatch.setattr(analysis, "_draw_cone_chunk", draw_once_all_submitted)
    for threads in (1, 2, 3):
        counts[1] = counts[2] = 0
        got = figure1_scan(seed=3, samples=24 * 1024, thetas=thetas, threads=threads)
        assert got == want and counts[0] == 0 and counts[2] == 24
        assert counts[1] == 2 * threads


def test_one_theta_scan_evaluates_one_chunk_per_worker_at_once(monkeypatch):
    # 24 chunks of one theta.  The first min(W, 24) evaluations wait at a
    # barrier of as many parties: a driver that runs fewer at once breaks it
    # at the timeout, and the scan raises.
    monkeypatch.setattr(analysis, "_SCAN_CHUNK", 1024)
    want = complex_z0_scan((0.3,), seed=3, samples=24 * 1024, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    batch_max = analysis._batch_max
    lock = threading.Lock()
    calls, running, peak = [0], [0], [0]

    def held(theta, *chunk):
        with lock:
            calls[0] += 1
            first = calls[0] <= barrier.parties
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            if first:
                barrier.wait()
            return batch_max(theta, *chunk)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(analysis, "_batch_max", held)
    for threads in (2, 4, 8):
        barrier = threading.Barrier(min(threads, 24), timeout=10.0)
        calls[0] = peak[0] = 0
        assert complex_z0_scan((0.3,), seed=3, samples=24 * 1024, threads=threads) == want
        assert peak[0] == min(threads, 24)


def test_an_error_inside_a_scan_task_ends_the_scan_with_it(monkeypatch, capsys):
    # the 5th of 5 chunks x 4 thetas fails, the first evaluation of chunk 1;
    # the scan raises it, with no thread left behind
    batch_max = analysis._batch_max
    lock = threading.Lock()
    calls = [0]

    def fifth_fails(*args):
        with lock:
            calls[0] += 1
            fail = calls[0] == 5
        if fail:
            raise MemoryError("boom")
        return batch_max(*args)

    monkeypatch.setattr(analysis, "_batch_max", fifth_fails)
    before = threading.active_count()
    for threads in (1, 2, 3):
        calls[0] = 0
        with pytest.raises(MemoryError, match="^boom$"):
            figure1_scan(seed=1, samples=SMALL, thetas=(0.26, 0.3, 0.4, 0.45), threads=threads)
        assert threading.active_count() == before
    calls[0] = 0
    argv = ["figure1", "--samples", str(SMALL), "--theta-min", "0.3", "--theta-max", "0.31"]
    assert main(argv + ["--theta-step", "0.0025", "--threads", "2"]) == 2
    assert capsys.readouterr() == ("", "error: boom\n")
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_failed_scan_task_cancels_the_queued_ones(monkeypatch, threads):
    # 80 chunks: the first chunk's draw fails at once, while the other
    # W - 1 workers are slowly drawing chunks 1 .. W - 1 and W more tasks
    # are queued.  No task that had not started runs: the freed worker may
    # pick up one more before the driver cancels, so at most W + 1 start.
    draw = analysis._draw_cone_chunk
    started = []

    def first_fails(seed, block, lo, n, cz0):
        started.append((block, lo))
        if (block, lo) == (0, 0):
            raise MemoryError("boom")
        time.sleep(0.1)
        return draw(seed, block, lo, n, cz0)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(analysis, "_draw_cone_chunk", first_fails)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="^boom$"):
        figure1_scan(seed=1, samples=20 * BLOCK_SAMPLES, thetas=(0.3, 0.45), threads=threads)
    assert (0, 0) in started and len(started) <= threads + 1
    assert threading.active_count() == before


def test_default_worker_count_is_the_usable_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    workers = [analysis._workers(None)]
    monkeypatch.delattr(os, "sched_getaffinity")
    workers += [analysis._workers(t) for t in (None, 3)]
    assert workers == [3, 8, 3]
    for threads in (0, -4):  # an error, not one worker
        with pytest.raises(DomainError, match=f"^threads must be at least 1, got {threads}$"):
            analysis._workers(threads)


def test_non_integer_thread_count_is_a_domain_error(monkeypatch):
    # checked before the pool starts (the executor here is not callable)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", None)
    for threads in (1.5, "2"):
        with pytest.raises(DomainError, match="threads must be an integer"):
            figure1_scan(samples=10, thetas=(0.3,), threads=threads)


def test_worker_count_is_capped_at_the_usable_cpu_count(monkeypatch):
    # 24 blocks of one theta; a thread per task is not a pool
    monkeypatch.setattr(analysis, "BLOCK_SAMPLES", 1024)
    workers = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    want = figure1_scan(seed=3, samples=24 * 1024, thetas=(0.3,), threads=1)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert figure1_scan(seed=3, samples=24 * 1024, thetas=(0.3,), threads=10**5) == want
    assert workers == [3]


def test_scan_with_partial_last_block_is_thread_invariant():
    samples = 2 * BLOCK_SAMPLES + 1234  # three blocks, the last one partial
    thetas = (0.26, 0.3, 1.0 / 3.0, 0.45)
    reports = [
        figure1_scan(seed=11, samples=samples, thetas=thetas, threads=t) for t in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]
    cplx = [complex_z0_scan(thetas, seed=11, samples=samples, threads=t) for t in (1, 3)]
    assert cplx[0] == cplx[1]


def test_scan_witness_reproduces_reported_maximum():
    for report in (
        figure1_scan(seed=0, samples=SMALL, thetas=(0.3,)),
        complex_z0_scan((0.3,), seed=0, samples=SMALL),
    ):
        s = abs(eval_stability_function(0.3, report.witnesses[0]))
        assert abs(s - report.max_abs_s[0]) <= 1e-12 * report.max_abs_s[0]
        assert cone_condition(report.witnesses[0], slack=1e-12)
        assert report.witnesses[0].z0.imag != 0.0 or not report.complex_z0


def test_scan_input_validation():
    with pytest.raises(DomainError):
        figure1_scan(samples=0, thetas=(0.3,))
    with pytest.raises(DomainError):
        figure1_scan(samples=100, thetas=())
    with pytest.raises(DomainError):
        figure1_scan(samples=100, thetas=(0.3, -0.1))


def test_scan_report_validation():
    wit = (SpectralPoint(0.0, -1.0, -1.0),)
    with pytest.raises(DomainError):
        ScanReport(thetas=(0.3, 0.4), max_abs_s=(1.0,), witnesses=wit,
                   samples_per_theta=10, seed=0)
    with pytest.raises(DomainError):
        ScanReport(thetas=(0.3,), max_abs_s=(1.0,), witnesses=wit,
                   samples_per_theta=0, seed=0)


def test_real_and_complex_scans_use_distinct_sample_streams():
    real = figure1_scan(seed=0, samples=SMALL, thetas=(0.45,))
    cplx = complex_z0_scan((0.45,), seed=0, samples=SMALL)
    assert real.complex_z0 is False and cplx.complex_z0 is True
    assert real.max_abs_s[0] != cplx.max_abs_s[0]
    assert real.witnesses[0].z0.imag == 0.0


def test_write_scan_csv(tmp_path):
    report = figure1_scan(seed=3, samples=SMALL, thetas=(0.3, 0.45))
    path = tmp_path / "scan.csv"
    write_scan_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "theta,max_abs_s,witness_z0_re,witness_z0_im,"
        "witness_z1_re,witness_z1_im,witness_z2_re,witness_z2_im"
    )
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.3 and first[1] == report.max_abs_s[0]
    meta = (tmp_path / "scan.csv.meta").read_text()
    assert "seed = 3" in meta
    assert f"samples_per_theta = {SMALL}" in meta
    assert "complex_z0 = false" in meta
    assert "sampler = 2" in meta
    assert "package_version" in meta


# ------------------------------------------------- deterministic grid scans


def test_imaginary_axis_scan_bounded_at_and_above_quarter():
    for theta in (0.25, 0.5, 1.0):
        r = thm1_threshold_scan(theta)
        assert r.max_abs_s <= 1.0 + 1e-12


def test_imaginary_axis_scan_blows_up_below_quarter():
    r = thm1_threshold_scan(0.24)
    assert r.max_abs_s >= 1.0 + 1e-4
    s = abs(eval_stability_function(0.24, r.witness))
    assert abs(s - r.max_abs_s) <= 1e-12 * r.max_abs_s
    assert r.witness.z0 == 0.0
    assert r.witness.z1.real == 0.0 and r.witness.z2.real == 0.0


def test_real_cone_scan_bounded_at_and_above_third():
    for theta in (1.0 / 3.0, 0.5):
        r = thm2_real_grid_scan(theta)
        assert r.max_abs_s <= 1.0 + 1e-12


def test_real_cone_scan_blows_up_below_third():
    r = thm2_real_grid_scan(0.32)
    assert r.max_abs_s >= 1.15
    assert cone_condition(r.witness)
    s = abs(eval_stability_function(0.32, r.witness))
    assert abs(s - r.max_abs_s) <= 1e-12 * r.max_abs_s


def _c1(theta):
    t = Fraction(theta)
    return (2 * t - 1) ** 2 * (4 * t - 1) / 4


def _c3(theta):
    t = Fraction(theta)
    return 40 * t * t - 16 * t


def _exact_abs2(theta, pt):
    # |N|^2 and |D|^2 of S = N/D, exact at the float inputs: |sN|^2 and |sD|^2 over s^2
    n, d, s = certificates.mcs_parts(
        Fraction(theta), *(([Fraction(z.real)], [Fraction(z.imag)]) for z in (pt.z0, pt.z1, pt.z2))
    )
    return [Fraction(sum(certificates._abs2(u)), s * s) for u in (n, d)]


@pytest.mark.parametrize("theta", [0.24, 0.3, 1.0 / 3.0, 0.5])
@pytest.mark.parametrize(
    "pt",
    [SpectralPoint(0.0, 0.7j, -2.5j), SpectralPoint(-1.5, -0.5 + 0.25j, -3.0 - 1j),
     SpectralPoint(0.8 - 0.3j, -1.25 + 2j, -0.75 - 0.5j)],
)
def test_certificate_polynomials_match_stability_function(theta, pt):
    # the exact N and D that every certificate expands are the numerator and
    # denominator of the float evaluator's S
    n2, d2 = _exact_abs2(theta, pt)
    s = complex(stability_function(theta, pt.z0, pt.z1, pt.z2))
    assert float(n2 / d2) == pytest.approx(abs(s) ** 2, rel=1e-13)


def test_imaginary_axis_scan_witness_obeys_the_exact_identity():
    theta = 0.24
    wit = thm1_threshold_scan(theta).witness
    n2, d2 = _exact_abs2(theta, wit)
    assert n2 - d2 == -_c1(theta) * (Fraction(wit.z1.imag) + Fraction(wit.z2.imag)) ** 4
    s = abs(complex(stability_function(theta, wit.z0, wit.z1, wit.z2)))
    assert float(n2 / d2) == pytest.approx(s * s, rel=1e-12)


def test_real_cone_scan_witness_sits_on_the_sharp_family():
    # z1 = z2 and t = -1, so z0 = z1 + z2; its |S| approaches the exact S at the sharp point
    r = thm2_real_grid_scan(0.32)
    wit = r.witness
    assert wit.z1 == wit.z2 and wit.z0 == wit.z1 + wit.z2
    assert certificates.exact_real_s(0.32, thm2_sharp_point(0.32)) == 153 / 128
    assert abs(r.max_abs_s - 153 / 128) <= 2e-4


@given(hst.floats(min_value=1e-6, max_value=1e6))
@settings(deadline=None, max_examples=25)
def test_imaginary_axis_certificate_is_the_rounded_closed_form(theta):
    assert certificates.thm1_coefficient(theta) == float(_c1(theta))


def test_imaginary_axis_certificate_at_0_24():
    assert certificates.thm1_coefficient(0.24) == -0.0027040000000000024


@pytest.mark.parametrize(
    "theta, disc, proven",
    [("1/4", 3.0, False), ("0.32", 0.4352, False), (1.0 / 3.0, 5.921189464667502e-16, False),
     ("1/3", 0.0, True), ("1/2", -4.0, True), ("1", 0.0, True), ("2", 80.0, True)],
)
def test_all_real_cone_certificate_proves_s_at_most_1_from_one_third(theta, disc, proven):
    # the float 1/3 lies just below 1/3, where the bound does not hold on the family
    assert certificates.thm2_upper(theta) == (disc, proven)


def test_certificates_load_only_when_a_certificate_runs():
    # `certificates` is registered unexecuted like every layer; running it and
    # loading `decimal` with `fractions` is left to the commands that prove something
    code = ("import sys, types; from mcs_adi.cli import main; main(['verify', '--help']); "
            "print(type(sys.modules['mcs_adi.certificates']) is types.ModuleType, "
            "*(m in sys.modules for m in ('fractions', 'decimal')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines()[-1] == "False False False"


def _mutant(fn, old, new):
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1
    namespace = dict(vars(certificates))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize(
    "old, new",
    [("_cmul(minus, z1)", "_cmul(([-theta * (1 + Fraction(1, 1 << 40))], []), z1)"),
     ("_cadd(d, _cmul(zz, p))", "d")],
    ids=["theta_perturbed_in_one_factor", "zz_p_term_dropped"],
)
def test_a_wrong_p_breaks_both_certificates(monkeypatch, capsys, old, new):
    # every certificate built on mcs_parts: theorems 1, 2 (both sides) and 3
    monkeypatch.setattr(certificates, "mcs_parts", _mutant(certificates.mcs_parts, old, new))
    # not 1/2: there z0 = 0 and 1/2 - theta = 0 leave N = p^2 = D with the zz p term dropped
    for theta in (0.25, 1.0, 0.24):
        with pytest.raises(ArithmeticError, match="imaginary-axis identity fails"):
            certificates.thm1_coefficient(theta)
    for theta in ("1/3", "1/2"):
        with pytest.raises(ArithmeticError, match="all-real cone identity fails"):
            certificates.thm2_upper(theta)
        with pytest.raises(ArithmeticError, match=r"all-real N \+ D identity fails"):
            certificates.thm2_lower(theta)
    for theta in (0.38, 0.40, 0.42, 0.5):
        try:
            exact = certificates.thm3_cubic(theta)[1]
        except ArithmeticError:
            exact = False
        assert not exact
    for n, msg in (("1", "the imaginary-axis identity fails at theta = 0.25"),
                   ("2", "the all-real cone identity fails at theta = 1/3"),
                   ("3", "|S|^2 - 1 has terms below a^3 at theta = 0.38")):
        assert main(["verify", "--theorem", n]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"numerical breakdown: {msg}"]


@pytest.mark.parametrize("theta", ["1/3", "1/2", 0.3, 2])
def test_all_real_lower_certificate_proves_s_above_minus_1(theta):
    assert certificates.thm2_lower(theta) == (3.0, True)


def test_all_real_lower_identity_holds_at_float_triplets():
    # exact at the float inputs: the grid's instability witness below 1/3 and
    # random real triplets with z1, z2 <= 0 and z0 of either sign, on or off the cone
    rng = np.random.default_rng(7)
    cases = [(0.32, thm2_real_grid_scan(0.32).witness)] + [
        (theta, SpectralPoint(z0, -a, -b))
        for theta, z0, a, b in zip(rng.uniform(0.05, 2.0, 6), rng.normal(0.0, 5.0, 6),
                                   rng.exponential(3.0, 6), rng.exponential(3.0, 6))
    ]
    for theta, pt in cases:
        t, z0, z1, z2 = (Fraction(float(v.real)) for v in (theta, pt.z0, pt.z1, pt.z2))
        n, d, s = certificates.mcs_parts(t, ([z0], []), ([z1], []), ([z2], []))
        x = 1 - (2 * t - 1) * (z1 + z2) + t**2 * z1 * z2
        r = (3 - 4 * t * (z1 + z2) + 6 * t**2 * z1 * z2 - 4 * t**3 * z1 * z2 * (z1 + z2)
             + 3 * t**4 * (z1 * z2) ** 2)
        assert Fraction(2 * (n[0][0] + d[0][0]), s) == (z0 + x) ** 2 + r >= 3
        assert complex(stability_function(theta, pt.z0, pt.z1, pt.z2)).real > -1.0


def _pairs(u):
    # a complex polynomial as a list of (re, im) Fraction pairs, one per power
    return [(Fraction(r), Fraction(i)) for r, i in zip_longest(*u, fillvalue=0)]


def _oracle_parts(theta, z0, z1, z2):
    # N = p^2 + zz p + theta z0 zz + (1/2 - theta) zz^2 and D = p^2, expanded
    # directly in Fractions on (re, im) pairs
    def add(*us):
        return [tuple(map(sum, zip(*cs))) for cs in zip_longest(*us, fillvalue=(0, 0))]

    def mul(u, v):
        out = [(0, 0)] * max(len(u) + len(v) - 1, 0)
        for i, (a, b) in enumerate(u):
            for j, (c, d) in enumerate(v):
                out[i + j] = (out[i + j][0] + a * c - b * d, out[i + j][1] + a * d + b * c)
        return out

    def const(c):
        return [(Fraction(c), Fraction(0))]

    z0, z1, z2 = map(_pairs, (z0, z1, z2))
    p = mul(add(const(1), mul(const(-theta), z1)), add(const(1), mul(const(-theta), z2)))
    zz = add(z0, z1, z2)
    d = mul(p, p)
    n = add(d, mul(zz, p), mul(const(theta), mul(z0, zz)),
            mul(const(Fraction(1, 2) - theta), mul(zz, zz)))
    return n, d


def _trimmed(u):
    while u and u[-1] == (0, 0):
        u = u[:-1]
    return u


_COEFF = hst.one_of(hst.integers(-9, 9), hst.fractions(-9, 9, max_denominator=1000))
_CPOLY = hst.tuples(*[hst.lists(_COEFF, max_size=3)] * 2)


@given(
    theta=hst.one_of(
        hst.floats(1e-6, 1e6).map(Fraction),
        hst.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(5, 12), Fraction(1e200)]),
    ),
    zs=hst.tuples(_CPOLY, _CPOLY, _CPOLY),
)
@example(theta=Fraction(1, 3), zs=(([0, 2], []), ([0, 0, -1], []), ([-4], [])))
@example(theta=Fraction(2, 5), zs=(([0, -2], []), ([0, 1], [0, 1]), ([0, 1], [0, 1])))
@example(theta=Fraction(5, 12), zs=(([Fraction(1, 3)], [2]), ([-1, 0, 5], [3]), ([], [0, -7])))
@example(theta=Fraction(1e200), zs=(([], []), ([], [0, 1]), ([], [3])))
@example(theta=Fraction(1e-6), zs=(([Fraction(-3, 7)], [1, Fraction(1, 9)]), ([2], []), ([], [1])))
@settings(deadline=None, max_examples=60)
def test_mcs_parts_matches_the_direct_fraction_expansion(theta, zs):
    # mcs_parts expands s N and s D over the integers; divided by s here, they
    # match the oracle, which expands the defining formula term by term in Fractions
    n, d, s = certificates.mcs_parts(theta, *zs)
    n0, d0 = _oracle_parts(theta, *zs)
    got = [_trimmed([(r / s, i / s) for r, i in _pairs(u)]) for u in (n, d)]
    assert got == [_trimmed(n0), _trimmed(d0)]


@pytest.mark.parametrize(
    "theta, b", [(Fraction(1, 3), 3), (Fraction(2, 5), 5), (0.24, 2**52), (5e-324, 2**1074)])
@pytest.mark.parametrize(
    "zs", [(([0, -2], []), ([0, 1], [0, 1]), ([0, 1], [0, 1])),
           (([3, 0, -1], [0, 2]), ([-4, 1], [0, 0, 7]), ([], [-5, 0, 1]))])
def test_mcs_parts_keeps_integer_coefficients_integer(theta, b, zs):
    # theta = a/b: integer z-coefficients give int coefficients of s N, s D and s = 4 b^4
    n, d, s = certificates.mcs_parts(theta, *zs)
    assert type(s) is int and s == 4 * b**4
    assert n[0] and d[0] and all(type(c) is int for u in (n, d) for part in u for c in part)


def test_certificate_identities_are_checked_on_integers(monkeypatch):
    # every product of every certificate, thm4's included, multiplies ints only
    pmul = certificates._pmul

    def int_pmul(p, q):
        assert all(type(c) is int for c in (*p, *q))
        return pmul(p, q)

    monkeypatch.setattr(certificates, "_pmul", int_pmul)
    for theta in (0.24, 0.25, 5e-324):
        certificates.thm1_coefficient(theta)
        certificates.thm3_cubic(theta)
    for theta in ("1/3", 0.3):
        certificates.thm2_upper(theta)
        certificates.thm2_lower(theta)
    certificates.thm4_certify()


def _serial_first_max(batches):
    # Reference fold: each batch's first maximum in row-major order, kept
    # only when strictly larger than every earlier batch's.
    best, wit = -math.inf, None
    for theta, z0, z1, z2 in batches:
        v = np.abs(stability_function(theta, z0, z1, z2))
        i = np.unravel_index(int(np.argmax(v)), v.shape)
        if v[i] > best:
            best = float(v[i])
            wit = SpectralPoint(*(np.broadcast_to(z, v.shape)[i] for z in (z0, z1, z2)))
    return best, wit


def test_grid_scans_do_not_depend_on_batching(monkeypatch):
    # References: thm1 folded serially over 256-row batches, thm2 over one
    # batch per t; the scans evaluate chunks of at most _SCAN_CHUNK points.
    # At theta = 1 every thm1 batch attains the maximum 1, so a fold that
    # keeps the last maximum fails.
    mags = 10.0 ** np.linspace(-3.0, 3.0, 1201)
    b = np.concatenate([-mags[::-1], mags])
    sizes = set()

    def recorded(theta, z0, z1, z2, zz=None):
        sizes.add(np.broadcast(z0, z1, z2).size)
        return stability_function(theta, z0, z1, z2, zz)

    monkeypatch.setattr(analysis, "stability_function", recorded)
    for theta in (0.24, 0.25, 0.5, 1.0):
        want = _serial_first_max(
            (theta, 0.0, 1j * b[i : i + 256, None], 1j * b[None, :])
            for i in range(0, b.size, 256)
        )
        r = thm1_threshold_scan(theta)
        assert (r.max_abs_s, r.witness) == want
    mags = 10.0 ** np.linspace(-3.0, 3.0, 241)
    y = 2.0 * np.sqrt(mags[:, None] * mags[None, :])
    for theta in (0.32, 1.0 / 3.0, 0.5):
        want = _serial_first_max(
            (theta, t * y, -mags[:, None], -mags[None, :]) for t in np.linspace(-1.0, 1.0, 41)
        )
        r = thm2_real_grid_scan(theta)
        assert (r.max_abs_s, r.witness) == want
    assert max(sizes) <= analysis._SCAN_CHUNK


@pytest.mark.parametrize("complex_z0", [True, False], ids=["complex_block", "real_block"])
def test_batch_max_holds_at_most_three_complex_arrays_of_one_chunk(complex_z0):
    # _batch_max evaluates a batch of any size in O(chunk) memory, not
    # O(batch): S's three arrays of one slice, then |S| beside S.  Called on
    # a block-sized cone batch with its theta-free sum, as a scan task calls
    # it on its chunk, so S makes no array for zz.
    batch = analysis._draw_cone_chunk(2, 0, 0, BLOCK_SAMPLES, complex_z0)
    assert np.broadcast(*batch).size > 3 * analysis._SCAN_CHUNK
    zz = batch[0] + (batch[1] + batch[2])
    tracemalloc.start()
    try:
        val, wit = analysis._batch_max(0.3, *batch, zz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * analysis._SCAN_CHUNK + (256 << 10)
    assert abs(eval_stability_function(0.3, wit)) == pytest.approx(val, rel=1e-12)


def _whole_block_cone_pair(r):
    """(z1, z2) from uniform columns 1..6, as the cone draw computed them on a whole block."""
    re1 = -np.exp(analysis.LN10 * (1.0 - 5.0 * r[:, 1]))
    im1 = np.where(r[:, 5] < 0.5, 1.0, -1.0) * np.exp(analysis.LN10 * (1.0 - 5.0 * r[:, 2]))
    re2 = -np.exp(analysis.LN10 * (1.0 - 5.0 * r[:, 3]))
    im2 = np.where(r[:, 6] < 0.5, 1.0, -1.0) * np.exp(analysis.LN10 * (1.0 - 5.0 * r[:, 4]))
    return re1 + 1j * im1, re2 + 1j * im2


def _whole_block_uniforms(seed, stream, block, n, cols):
    """One (n, cols) uniform draw of a whole block, from its own Philox generator."""
    philox = np.random.Philox(key=seed | stream << 64, counter=block << 128)
    return np.random.Generator(philox).random((n, cols))


def _whole_block_cone_draw(seed, block, n, complex_z0):
    """One (n, 7 or 8) uniform matrix and whole-block arrays: the reference of the chunk draw."""
    stream = analysis._COMPLEX_STREAM_BASE if complex_z0 else 0
    r = _whole_block_uniforms(seed, stream, block, n, 8 if complex_z0 else 7)
    z1, z2 = _whole_block_cone_pair(r)
    y = 2.0 * np.sqrt(z1.real * z2.real)
    rad = 2.0 * r[:, 0] - 1.0
    if complex_z0:
        return rad * y * np.exp(2j * np.pi * r[:, 7]), z1, z2
    return (rad * y).astype(complex), z1, z2


@pytest.mark.parametrize("chunk", [16384, 4096])
@pytest.mark.parametrize("complex_z0", [False, True])
@pytest.mark.parametrize("n", [1, 7, 16383, 16384, 16385, 3392, 65536])
def test_chunked_cone_draw_matches_the_whole_block_draw(monkeypatch, n, complex_z0, chunk):
    # the first n rows of a block, drawn chunk by chunk, each chunk on its
    # own: chunk boundaries at 16384 rows, or at 4096 so that the numbers
    # drawn are seen not to depend on the chunk size; 3392 is the last block
    # of 200 000 samples
    assert analysis._SCAN_CHUNK == 16384
    # _uniforms starts row lo at counter step lo * cols / 4, a whole step
    assert chunk * (8 if complex_z0 else 7) % 4 == 0
    monkeypatch.setattr(analysis, "_SCAN_CHUNK", chunk)
    for seed, block in ((1, 0), (4242, 3)):
        parts = [analysis._draw_cone_chunk(seed, block, lo, min(chunk, n - lo), complex_z0)
                 for lo in range(0, n, chunk)]
        got = [np.concatenate(z) for z in zip(*parts)]
        want = _whole_block_cone_draw(seed, block, n, complex_z0)
        assert [z.tobytes() for z in got] == [z.tobytes() for z in want]


@pytest.mark.parametrize("chunk", [16384, 4096])
def test_lemma2_min_gap_matches_the_whole_block_draw(monkeypatch, chunk):
    monkeypatch.setattr(analysis, "_SCAN_CHUNK", chunk)
    worst = math.inf
    for b, n in enumerate((BLOCK_SAMPLES, SMALL - BLOCK_SAMPLES)):
        r = _whole_block_uniforms(3, analysis._LEMMA2_STREAM, b, n, 7)
        worst = min(worst, float(np.min(lemma2_gap(1.0 - r[:, 0], *_whole_block_cone_pair(r)))))
    assert lemma2_random_min_gap(seed=3, samples=SMALL) == worst


@pytest.mark.parametrize("every_gap", [False, True], ids=["one_per_chunk", "every_gap"])
def test_lemma2_min_gap_reports_a_nan_gap(monkeypatch, every_gap):
    # a NaN gap reaches the caller, which then fails `gap >= -1e-12`, as a
    # NaN maximum of |S| does in the scans
    def nan_gap(theta, z1, z2):
        gap = lemma2_gap(theta, z1, z2)
        gap[slice(None) if every_gap else len(gap) // 2] = math.nan
        return gap

    monkeypatch.setattr(analysis, "lemma2_gap", nan_gap)
    assert math.isnan(lemma2_random_min_gap(seed=1, samples=70_000))


def test_lemma2_min_gap_is_pinned():
    # 200 000 samples: three full blocks and one of 3392, each drawn in chunks
    assert repr(lemma2_random_min_gap(seed=5, samples=200_000)) == "2.0772934154061895e-13"


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bounds in absolute bytes, so that a larger _SCAN_CHUNK fails them too: a
# block-sized temporary costs a block-sized heap (the old 4 MiB uniform
# matrix) or, once glibc maps each one, an mmap and its page faults per call
# (a whole-block evaluation made figure1 30 % slower).  These guard the draw
# of one chunk and the lemma-2 sweep as
# test_batch_max_holds_at_most_three_complex_arrays_of_one_chunk guards the
# evaluation.
@pytest.mark.parametrize("complex_z0", [False, True])
def test_cone_chunk_draw_holds_its_outputs_and_at_most_2_mib_more(complex_z0):
    n = analysis._SCAN_CHUNK
    peak = _traced_peak(lambda: analysis._draw_cone_chunk(1, 0, 0, n, complex_z0))
    assert peak <= 3 * 16 * 16384 + (2 << 20)


def test_lemma2_sweep_holds_under_4_mib():
    # 70 000 samples: a full block and one of 4464 points
    assert _traced_peak(lambda: lemma2_random_min_gap(seed=1, samples=70_000)) < 4 << 20


@pytest.mark.parametrize("scan, grid_points, inputs", [
    # thm1: one 2402 x 2402 batch, a few 2402-vectors of input
    (thm1_threshold_scan, 2402**2, 4 * 16 * 2402),
    # thm2: 41 batches of 241 x 241, with the z0 scale y and t * y as input
    (thm2_real_grid_scan, 41 * 241**2, 2 * 8 * 241**2),
], ids=["thm1", "thm2"])
def test_grid_scans_hold_a_few_chunk_arrays_plus_their_inputs(scan, grid_points, inputs):
    # each grid is one ordered _batch_max evaluation (thm2: one per t) with no
    # precomputed zz, so S's arrays of one chunk, zz among them, and |S|
    bound = 5 * 16 * analysis._SCAN_CHUNK + inputs + (256 << 10)
    assert bound < 16 * grid_points // 10  # far below the grid materialised as complex
    assert _traced_peak(lambda: scan(0.3)) <= bound


def test_sharp_real_triplet_sits_on_unit_circle():
    theta = 1.0 / 3.0
    pt = thm2_sharp_point(theta)
    assert cone_condition(pt)
    assert eval_stability_function(theta, pt) == 1.0 + 0.0j


@pytest.mark.parametrize("theta", [0.3, 0.4, 0.5])
def test_cubic_coefficient_matches_closed_form(theta):
    got = thm3_cubic_coefficient(theta)
    want = 40.0 * theta * theta - 16.0 * theta
    assert abs(got - want) <= max(1e-3, 0.01 * abs(want))


def test_cubic_coefficient_sign_flips_at_two_fifths():
    assert thm3_cubic_coefficient(0.38) < 0.0
    assert thm3_cubic_coefficient(0.42) > 0.0


@given(hst.floats(min_value=1e-6, max_value=1e150))
@settings(deadline=None)
def test_cubic_coefficient_is_the_rounded_closed_form(theta):
    t = Fraction(theta)
    assert thm3_cubic_coefficient(theta) == float(40 * t * t - 16 * t)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("theta", [0.3, 0.38, 0.4, 0.42, 0.5])
@pytest.mark.parametrize("a", [-1e-2, -1e-3])
def test_cubic_certificate_polynomials_match_stability_function(theta, a):
    # the exact N and D behind the certificate are the numerator and
    # denominator of the float evaluator's S on the family z0 = -2a, z1 = z2 = a(1+i)
    a1i = ([0, 1], [0, 1])
    n, d, scale = certificates.mcs_parts(Fraction(theta), ([0, -2], []), a1i, a1i)
    fa = Fraction(a)
    abs2 = [(_horner(u[0], fa) ** 2 + _horner(u[1], fa) ** 2) / scale**2 for u in (n, d)]
    s = complex(stability_function(theta, -2.0 * a, a * (1 + 1j), a * (1 + 1j)))
    assert abs(abs(s) ** 2 - 1.0 - float(abs2[0] / abs2[1] - 1)) <= 1e-14


def test_threshold_ratio_values():
    assert thm4_ratio(0.0) == 0.0
    assert thm4_ratio(2.0) == 5.0 / 12.0
    with pytest.raises(DomainError):
        thm4_ratio(-0.1)
    xs = np.array([0.0, 1.0, 2.0, 10.0])
    vec = thm4_ratio(xs)
    assert vec.shape == (4,)
    assert all(vec[i] == thm4_ratio(float(xs[i])) for i in range(4))


def test_nan_is_out_of_range():
    # every range test is written so that NaN fails it
    with pytest.raises(DomainError, match=r"r must lie in \[0, 1\]"):
        thm5_bound(0.5, math.nan, 0.0)
    with pytest.raises(DomainError, match="x must be nonnegative"):
        thm4_ratio(math.nan)
    with pytest.raises(DomainError, match="requires Re z1 <= 0"):
        lemma2_gap(0.5, complex(math.nan, 0.0), -1.0)


def test_threshold_ratio_maximum():
    assert thm4_maximize() == (2.0, 5.0 / 12.0)


@pytest.mark.parametrize("part, power", [(0, 3), (1, 0)], ids=["num_x3", "den_const"])
def test_a_wrong_threshold_ratio_breaks_its_certificate(monkeypatch, capsys, part, power):
    exact = certificates.thm4_polynomials

    def perturbed():
        polys = exact()
        polys[part][power] += Fraction(1, 1 << 40)
        return polys

    monkeypatch.setattr(certificates, "thm4_polynomials", perturbed)
    with pytest.raises(ArithmeticError, match="5/12 certificate"):
        certificates.thm4_certify()
    assert main(["verify", "--theorem", "4"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "numerical breakdown: the 5/12 certificate of the threshold ratio does not hold"]


def test_ratio_certificate_polynomials_match_threshold_ratio():
    num, den = certificates.thm4_polynomials()
    for x in (0.0, 0.3, 1.0, 1.9, 2.0, 2.5, 7.0, 40.0, 1e3):
        got = _horner([float(c) for c in num], x) / _horner([float(c) for c in den], x)
        assert got == pytest.approx(thm4_ratio(x), rel=1e-14, abs=1e-300)


def test_witness_exists_below_threshold_only():
    wit = thm4_witness_search(0.40)
    assert wit is not None
    assert cone_condition(wit)
    assert abs(eval_stability_function(0.40, wit)) > 1.0 + 1e-10
    assert thm4_witness_search(5.0 / 12.0) is None
    assert thm4_witness_search(0.45) is None
    with pytest.raises(DomainError):
        thm4_witness_search(0.0)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf, "0.3", 1j])
@pytest.mark.parametrize("call", [
    lambda t: verify_theorem(3, theta=t),
    lambda t: figure1_scan(samples=10, thetas=(0.3, t)),
    lambda t: complex_z0_scan((t,), samples=10),
    thm4_witness_search,
    lambda t: lemma2_gap(t, -1.0 + 0.0j, -1.0 + 0.0j),
    lambda t: thm5_bound(t, 0.5, 0.0),
    thm1_threshold_scan,
    thm2_real_grid_scan,
    thm2_sharp_point,
    thm3_cubic_coefficient,
], ids=["verify_theorem", "figure1_scan", "complex_z0_scan", "thm4_witness_search",
        "lemma2_gap", "thm5_bound", "thm1_threshold_scan", "thm2_real_grid_scan",
        "thm2_sharp_point", "thm3_cubic_coefficient"])
def test_theta_outside_the_positive_reals_is_a_domain_error(call, theta):
    with pytest.raises(DomainError, match=f"^theta must be positive and finite, got {theta!r}$"):
        call(theta)


_NOT_ITERABLE = "thetas must be an iterable of theta values, got "


@pytest.mark.parametrize("call, message", [
    (lambda: figure1_scan(samples=10, thetas=(0.3, None)), "theta must be positive and finite, got None"),
    (lambda: complex_z0_scan((None,), samples=10), "theta must be positive and finite, got None"),
    (lambda: figure1_scan(samples=10, thetas=0.3), _NOT_ITERABLE + "0.3"),
    (lambda: complex_z0_scan(0.3, samples=10), _NOT_ITERABLE + "0.3"),
    (lambda: complex_z0_scan(None, samples=10), _NOT_ITERABLE + "None"),
], ids=["figure1_scan-None", "complex_z0_scan-None", "figure1_scan-float", "complex_z0_scan-float",
        "complex_z0_scan-thetas-None"])
def test_scan_theta_none_or_a_bare_number_is_a_domain_error(call, message):
    # a scan's thetas are an iterable of values, None among them an error;
    # verify_theorem(3, theta=None) instead means its default thetas
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("theta", [0.3, 0.40, 0.41, 5.0 / 12.0, 0.45])
def test_witness_search_matches_point_by_point_loop(theta):
    # Reference: the family walked one point at a time in x-major order,
    # keeping the first strictly larger |S| above 1 + 1e-10.
    g = np.geomspace(0.005, 0.6, 12)
    best, best_s = None, 1.0 + 1e-10
    for x in np.linspace(0.2, 5.0, 193):
        z1 = -x / theta
        radius = 2.0 * abs(z1)
        for phi in np.concatenate([-g[::-1], g]):
            z0 = (1.0 - 1e-12) * radius * complex(math.cos(phi), math.sin(phi))
            s = abs(stability_function(theta, z0, z1 + 0.0j, z1 + 0.0j))
            if s > best_s:
                best, best_s = SpectralPoint(z0, z1, z1), s
    assert thm4_witness_search(theta) == best


def test_lemma2_gap_stays_nonnegative_under_sampling():
    assert lemma2_random_min_gap(seed=0, samples=200_000) >= -1e-12


_SEED_RANGE = "seed must be an integer in [0, 2**64), got "


@pytest.mark.parametrize("call, message", [
    (lambda: figure1_scan(seed=2**64, samples=10), _SEED_RANGE + str(2**64)),
    (lambda: figure1_scan(seed=1.5, samples=10), _SEED_RANGE + "1.5"),
    (lambda: complex_z0_scan((0.3,), seed=-1, samples=10), _SEED_RANGE + "-1"),
    (lambda: lemma2_random_min_gap(seed=2**64, samples=10), _SEED_RANGE + str(2**64)),
    (lambda: verify_theorem(1, seed=-1), _SEED_RANGE + "-1"),
    (lambda: verify_theorem(1, samples=0), "samples must be positive"),
], ids=["figure1_scan-2**64", "figure1_scan-1.5", "complex_z0_scan--1", "lemma2-2**64",
        "verify_theorem-seed", "verify_theorem-samples"])
def test_scan_seed_and_sample_count_off_their_range_are_domain_errors(call, message):
    # 2**64 would key Philox like seed 0 while the report records 2**64
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_scan_seed_range_ends_at_the_64_bit_key_word():
    top = 2**64 - 1
    assert figure1_scan(seed=np.uint64(top), samples=10, thetas=(0.3,)) == \
        figure1_scan(seed=top, samples=10, thetas=(0.3,))
    assert figure1_scan(seed=top, samples=10, thetas=(0.3,)).seed == top


@pytest.mark.parametrize("call", [
    lambda: figure1_scan(seed=0, samples=1.5, thetas=(0.3,)),
    lambda: lemma2_random_min_gap(samples=2.0),
    lambda: verify_theorem(1, samples=1.5),
], ids=["figure1_scan", "lemma2", "verify_theorem"])
def test_scan_sample_count_must_be_an_integer(call):
    # a float count used to reach range() and raise a bare TypeError
    with pytest.raises(DomainError, match="^samples must be an integer, got "):
        call()


@pytest.mark.parametrize("samples", [0, -3])
def test_lemma2_sweep_without_samples_is_a_domain_error(samples):
    # a minimum over no draws would be inf, which passes every lower bound
    with pytest.raises(DomainError, match="^samples must be positive$"):
        lemma2_random_min_gap(seed=0, samples=samples)


# -------------------------------------------------------------- verify_theorem


def test_verify_rejects_unknown_theorem():
    # 1.0 used to pass the range test and fail indexing the check table
    for n in (0, 6, 1.0, 2.5, "1"):
        with pytest.raises(DomainError, match="^theorem number must be 1..5, got "):
            verify_theorem(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_theorem_all_checks_pass(n):
    checks = verify_theorem(n, samples=65_536)
    assert checks
    names = [c.name for c in checks]
    assert len(set(names)) == len(names)
    for c in checks:
        assert isinstance(c, CheckResult)
        assert c.passed, f"{c.name}: measured {c.measured!r} ({c.detail})"
        assert math.isfinite(c.measured)


def test_verify_theorem3_accepts_parameter_override():
    checks = verify_theorem(3, theta=0.3)
    assert [(c.name, c.detail) for c in checks] == [
        ("cubic_coefficient_at_0_3", "exact coefficient vs closed form -1.2"),
        ("error_term_negative_at_0_3",
         "negative cubic term: not stable on this family (theta < 2/5)"),
    ]
    assert checks[0].passed and abs(checks[0].measured - (-1.2)) <= 0.012


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_verify_theorem_rejects_theta_unless_theorem_3(n):
    # only theorem 3 reads theta; the others used to ignore it silently
    with pytest.raises(DomainError, match=f"^theorem {n} does not read theta$"):
        verify_theorem(n, theta=0.3)


@pytest.mark.parametrize(
    "theta, tag, kind",
    [(1e-5, "1e-05", "negative"), (0.39999, "0_39999", "negative"),
     (0.4 - 2**-54, "0_39999999999999997", "negative"), (0.4, "0_4", "vanishes"),
     (0.4 + 2**-54, "0_4000000000000001", "positive"), (0.4000001, "0_4000001", "positive"),
     (0.1 + 0.2, "0_30000000000000004", "negative"), (100.0, "100", "positive"),
     (1e60, "1e+60", "positive")],
)
def test_verify_theorem3_rows_name_the_theta_and_its_side_of_two_fifths(theta, tag, kind):
    # a tag reads back as its theta, so no two thetas share a row name; only
    # the float 0.4 gets the sign-change row, any other theta is on one side
    # of 2/5 and its cubic coefficient has that sign
    checks = verify_theorem(3, theta=theta)
    assert [c.name for c in checks] == [f"cubic_coefficient_at_{tag}",
                                        f"error_term_{kind}_at_{tag}"]
    assert all(c.passed for c in checks)


_VERIFY_ROWS = [
    (1, "margin_zero_at_1_4", "imaginary-axis criterion margin vanishes exactly at theta = 1/4"),
    (1, "margin_zero_at_1_2", "criterion margin vanishes exactly at theta = 1/2"),
    (1, "margin_nonnegative_above_1_4", "criterion margin >= 0 on a 301-point grid over [1/4, 1]"),
    (1, "margin_negative_below_1_4", "criterion margin < 0 at theta = 0.24"),
    *[(1, f"imaginary_axis_coeff_{tag}",
       f"exact |D|^2 - |N|^2 = c (b1 + b2)^4 on the imaginary axis, c {op} 0 at theta = {t}")
      for tag, op, t in (("at_1_4", ">=", "0.25"), ("at_1_2", ">=", "0.5"), ("at_1", ">=", "1"),
                         ("negative_at_0_24", "<", "0.24"))],
    (2, "sharp_point_on_unit_circle",
     "|S| = 1 at the boundary triplet (-2/theta, -1/theta, -1/theta), theta = 1/3"),
    *[(2, f"real_cone_upper_bound_at_{tag}",
       f"exact D - N factorization and its discriminant prove S <= 1 "
       f"on the all-real cone at theta = {t}")
      for tag, t in (("1_3", "1/3"), ("1_2", "1/2"))],
    (2, "real_cone_lower_bound_at_1_3",
     "exact 2 (N + D) = (z0 + X)^2 + R >= 3 proves S > -1 on the all-real cone at theta = 1/3"),
    (2, "sharp_point_excess_at_0_32",
     "exact S at the boundary triplet well above 1 at theta = 0.32"),
    (2, "real_cone_lower_bound_at_1_2",
     "exact 2 (N + D) = (z0 + X)^2 + R >= 3 proves S > -1 on the all-real cone at theta = 1/2"),
    (3, "cubic_coefficient_at_0_38", "exact coefficient vs closed form -0.304"),
    (3, "error_term_negative_at_0_38",
     "negative cubic term: not stable on this family (theta < 2/5)"),
    (3, "cubic_coefficient_at_0_4", "exact coefficient vs closed form 0"),
    (3, "error_term_vanishes_at_0_4", "cubic term changes sign at theta = 2/5"),
    (3, "cubic_coefficient_at_0_42", "exact coefficient vs closed form 0.336"),
    (3, "error_term_positive_at_0_42", "positive cubic term: decay on this family (theta > 2/5)"),
    (4, "ratio_argmax_at_2", "maximizer of the threshold ratio"),
    (4, "ratio_max_is_5_12", "maximum of the threshold ratio equals 5/12"),
    (4, "ratio_at_2_exact", "ratio(2) = 5/12 holds exactly in floating point"),
    (4, "instability_witness_below_5_12", "cone triplet with |S| > 1 exists at theta = 0.40"),
    (4, "no_witness_at_5_12",
     "the witness family stays inside the unit disk at theta = 0.416667"),
    (4, "no_witness_at_0_45", "the witness family stays inside the unit disk at theta = 0.45"),
    (5, "bound_equals_1_at_phi_0",
     "the cone bound collapses to 1 at phase 0 for theta in {1/2, 3/4, 1}"),
    (5, "bound_nonincreasing_in_phase",
     "forward differences of the bound in phi are <= 0 for theta >= 1/2"),
    (5, "complex_cone_max_at_0_50", "sampled max |S| with complex z0 at theta = 0.5"),
    (5, "complex_cone_max_at_0_75", "sampled max |S| with complex z0 at theta = 0.75"),
]


def test_verify_rows_keep_their_names_details_and_exact_values():
    checks = {(n, c.name): c for n in range(1, 6) for c in verify_theorem(n, samples=65_536)}
    assert [(n, name, c.detail) for (n, name), c in checks.items()] == _VERIFY_ROWS
    exact = {
        "margin_zero_at_1_4": 0.0,
        "margin_zero_at_1_2": 0.0,
        "margin_negative_below_1_4": -0.020000000000000004,
        "imaginary_axis_coeff_at_1_4": 0.0,
        "imaginary_axis_coeff_at_1_2": 0.0,
        "imaginary_axis_coeff_at_1": 0.75,
        "imaginary_axis_coeff_negative_at_0_24": float(_c1(0.24)),
        "real_cone_upper_bound_at_1_3": 0.0,
        "real_cone_upper_bound_at_1_2": -4.0,
        "real_cone_lower_bound_at_1_3": 3.0,
        "real_cone_lower_bound_at_1_2": 3.0,
        "sharp_point_excess_at_0_32": 1.1953125,
        "ratio_argmax_at_2": 2.0,
        "ratio_max_is_5_12": 5.0 / 12.0,
        "ratio_at_2_exact": 5.0 / 12.0,
        "cubic_coefficient_at_0_38": float(_c3(0.38)),
        "error_term_negative_at_0_38": float(_c3(0.38)),
        "cubic_coefficient_at_0_4": float(_c3(0.4)),
        "error_term_vanishes_at_0_4": float(_c3(0.4)),
        "cubic_coefficient_at_0_42": float(_c3(0.42)),
        "error_term_positive_at_0_42": float(_c3(0.42)),
    }
    assert {name: checks[n, name].measured for n, name in checks if name in exact} == exact


def test_theorem_5_bound_rows_equal_the_loop_over_theta_and_r(monkeypatch):
    # the checks evaluate each grid in one broadcast call; its values are those
    # of one call per theta (and per r) on the same points, bit for bit
    radii, phases = np.linspace(0.0, 1.0, 101), np.linspace(0.0, math.pi, 361)
    flat = [np.asarray(thm5_bound(t, radii, 0.0)) for t in (0.5, 0.75, 1.0)]
    curves = [np.asarray(thm5_bound(t, r, phases))
              for t in (0.5, 0.6, 0.75, 0.9, 1.0) for r in np.linspace(0.0, 1.0, 21)]
    seen = []
    monkeypatch.setattr(analysis, "thm5_bound", lambda *a: seen.append(thm5_bound(*a)) or seen[-1])
    rows = {c.name: c.measured for c in verify_theorem(5, samples=65_536)}
    assert [a.shape for a in seen] == [(3, 101), (5, 21, 361)]
    assert np.array_equal(seen[0], np.stack(flat))
    assert np.array_equal(seen[1].reshape(-1, 361), np.stack(curves))
    assert rows["bound_equals_1_at_phi_0"] == max(float(np.max(np.abs(f - 1.0))) for f in flat)
    assert rows["bound_nonincreasing_in_phase"] == max(float(np.max(np.diff(c))) for c in curves)


#: Calls of each shared computation that `verify_theorem(n)` makes, by n.
_VERIFY_WORK = {
    1: {"thm1_threshold_scan": 0, "certificates.thm1_coefficient": 4},
    2: {"thm2_real_grid_scan": 0, "certificates.thm2_upper": 2, "certificates.thm2_lower": 2},
    3: {"certificates.thm3_cubic": 3},
    4: {"thm4_maximize": 1, "thm4_witness_search": 3},
    5: {"complex_z0_scan": 1},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_runs_each_shared_computation_once_and_only_its_own(monkeypatch, n):
    # the checks must find these through the module globals when they run, as
    # a tracer that rebinds them would, and share one result between rows;
    # a dotted name lives in that module, any other in `analysis`
    calls = {name: 0 for work in _VERIFY_WORK.values() for name in work}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        module, _, attr = name.rpartition(".")
        module = certificates if module else analysis
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    assert all(c.passed for c in verify_theorem(n, samples=65_536))
    assert calls == {**dict.fromkeys(calls, 0), **_VERIFY_WORK[n]}

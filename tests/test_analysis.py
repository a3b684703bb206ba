import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mcs_adi import analysis
from mcs_adi.analysis import (
    BLOCK_SAMPLES,
    CheckResult,
    ScanReport,
    check_monotone_evidence,
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
    stability_function,
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
def test_scan_draws_each_block_once(monkeypatch, complex_z0):
    # one task per (block, theta): whichever task needs a block first draws
    # it, and the 41 others of that block reuse the same arrays
    samples = 2 * BLOCK_SAMPLES + 1234  # three blocks, the last one partial
    calls = []
    draw = analysis._draw_cone_block

    def counting_draw(seed, block, n, cz0):
        calls.append((block, n, cz0))
        return draw(seed, block, n, cz0)

    monkeypatch.setattr(analysis, "_draw_cone_block", counting_draw)
    thetas = tuple(0.25 + k / 160.0 for k in range(42))
    for threads in (1, 2, 3):
        calls.clear()
        if complex_z0:
            complex_z0_scan(thetas, seed=1, samples=samples, threads=threads)
        else:
            figure1_scan(seed=1, samples=samples, thetas=thetas, threads=threads)
        assert sorted(calls) == [
            (0, BLOCK_SAMPLES, complex_z0),
            (1, BLOCK_SAMPLES, complex_z0),
            (2, 1234, complex_z0),
        ]


def test_scan_fold_does_not_depend_on_task_completion_order(monkeypatch):
    # Blocks 1 and 2 are the complex conjugate of block 0, so every block
    # ties on max |S|, and block 0 has a witness of its own; the first
    # (block, theta) task is held back so that it completes last.  A fold in
    # completion order, or one that keeps the last maximum, reports the
    # conjugate witness.
    block0 = analysis._draw_cone_block(9, 0, BLOCK_SAMPLES, False)
    conj = tuple(np.conj(z) for z in block0)
    blocks = [block0, conj, conj]
    batch_max = analysis._batch_max
    first = []

    def first_task_late(theta, z0, *rest):
        if not first:
            first.append(theta)
            time.sleep(0.02)
        return batch_max(theta, z0, *rest)

    monkeypatch.setattr(analysis, "_draw_cone_block", lambda seed, b, n, cz0: blocks[b])
    monkeypatch.setattr(analysis, "_batch_max", first_task_late)
    thetas = (0.26, 0.3, 1.0 / 3.0, 0.45)
    want = [_serial_first_max((theta, *z) for z in blocks) for theta in thetas]
    for theta, (mx, wit) in zip(thetas, want):
        tie = _serial_first_max([(theta, *blocks[1])])
        assert tie[0] == mx and tie[1] != wit
    for threads in (1, 2, 3):
        first.clear()
        r = figure1_scan(seed=9, samples=3 * BLOCK_SAMPLES, thetas=thetas, threads=threads)
        assert first == [thetas[0]]
        assert list(zip(r.max_abs_s, r.witnesses)) == want


def test_scan_hands_every_evaluation_the_block_sum(monkeypatch):
    # z0 + (z1 + z2) is computed once per block, bit for bit as
    # stability_function would compute it itself
    seen = []

    def checked(theta, z0, z1, z2, work=None, zz=None):
        seen.append(theta)
        assert zz is not None and np.array_equal(zz, z0 + (z1 + z2))
        return stability_function(theta, z0, z1, z2, work=work, zz=zz)

    monkeypatch.setattr(analysis, "stability_function", checked)
    figure1_scan(seed=4, samples=SMALL, thetas=(0.3, 0.45), threads=2)
    complex_z0_scan((0.3, 0.45), seed=4, samples=SMALL, threads=2)
    assert len(seen) == 8


def test_scan_holds_at_most_one_block_per_worker_plus_one(monkeypatch):
    # Small blocks make many of them; a block counts as alive from its draw
    # until its arrays are freed after the last of its tasks.  Eight workers
    # on a short switch interval stress the shared draw/release bookkeeping:
    # a lost update draws a block twice or never releases it.
    monkeypatch.setattr(analysis, "BLOCK_SAMPLES", 1024)
    draw = analysis._draw_cone_block
    lock = threading.Lock()
    alive, peak, drawn = [0], [0], []

    def released():
        with lock:
            alive[0] -= 1

    def tracked_draw(seed, block, n, cz0):
        z = draw(seed, block, n, cz0)
        with lock:
            drawn.append(block)
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
        weakref.finalize(z[0], released)
        return z

    thetas = tuple(0.25 + k / 80.0 for k in range(21))
    want = figure1_scan(seed=3, samples=24 * 1024 - 5, thetas=thetas, threads=1)
    monkeypatch.setattr(analysis, "_draw_cone_block", tracked_draw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 3, 8):
            peak[0] = 0
            drawn.clear()
            got = figure1_scan(seed=3, samples=24 * 1024 - 5, thetas=thetas, threads=threads)
            assert got == want
            assert sorted(drawn) == list(range(24))
            assert alive[0] == 0
            assert 1 <= peak[0] <= threads + 1
    finally:
        sys.setswitchinterval(interval)


def test_default_worker_count_is_the_usable_cpu_count(monkeypatch):
    workers = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert analysis._pool_map(abs, [-1, 2], None) == [1, 2]
    monkeypatch.delattr(os, "sched_getaffinity")
    analysis._pool_map(abs, [-1], None)
    analysis._pool_map(abs, [-1], 0)
    analysis._pool_map(abs, [-1], 3)
    assert workers == [3, 8, 1, 3]


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


def _fake_report(thetas, maxima):
    wit = tuple(SpectralPoint(0.0, -1.0, -1.0) for _ in thetas)
    return ScanReport(thetas=tuple(thetas), max_abs_s=tuple(maxima),
                      witnesses=wit, samples_per_theta=10, seed=0)


def test_monotone_evidence_accepts_single_crossing():
    report = _fake_report((0.30, 0.32, 0.34, 0.36), (1.05, 1.01, 0.9995, 0.9990))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_monotone_evidence(report)


def test_monotone_evidence_sorts_by_theta_first():
    report = _fake_report((0.45, 0.30), (0.99, 1.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_monotone_evidence(report)


def test_monotone_evidence_flags_recrossing():
    report = _fake_report((0.30, 0.32, 0.34, 0.36), (1.05, 0.999, 1.01, 0.98))
    with pytest.warns(UserWarning):
        assert not check_monotone_evidence(report)


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


def test_grid_scans_do_not_depend_on_threads_or_batching(monkeypatch):
    # References: thm1 folded serially over 256-row batches, thm2 over one
    # batch per t.  At theta = 1 every thm1 batch attains the maximum 1, so
    # a fold that keeps the last maximum or folds in completion order fails;
    # the first thm1 batch is held back so that it also completes last.
    mags = 10.0 ** np.linspace(-3.0, 3.0, 1201)
    b = np.concatenate([-mags[::-1], mags])
    batch_max = analysis._batch_max
    sizes = set()

    def first_batch_late(theta, z0, z1, z2):
        sizes.add(np.broadcast(z0, z1, z2).size)
        if z1.flat[0] == 1j * b[0]:
            time.sleep(0.02)
        return batch_max(theta, z0, z1, z2)

    monkeypatch.setattr(analysis, "_batch_max", first_batch_late)
    for theta in (0.24, 0.25, 0.5, 1.0):
        want = _serial_first_max(
            (theta, 0.0, 1j * b[i : i + 256, None], 1j * b[None, :])
            for i in range(0, b.size, 256)
        )
        for threads in (1, 2, 3):
            r = thm1_threshold_scan(theta, threads=threads)
            assert (r.max_abs_s, r.witness) == want
    mags = 10.0 ** np.linspace(-3.0, 3.0, 241)
    y = 2.0 * np.sqrt(mags[:, None] * mags[None, :])
    for theta in (0.32, 1.0 / 3.0, 0.5):
        want = _serial_first_max(
            (theta, t * y, -mags[:, None], -mags[None, :]) for t in np.linspace(-1.0, 1.0, 41)
        )
        for threads in (1, 2, 3):
            r = thm2_real_grid_scan(theta, threads=threads)
            assert (r.max_abs_s, r.witness) == want
    assert max(sizes) <= BLOCK_SAMPLES


def _full_batches():
    mags = 10.0 ** np.linspace(-3.0, 3.0, 1201)
    b = np.concatenate([-mags[::-1], mags])
    rows = slice(0, BLOCK_SAMPLES // b.size)
    mags2 = 10.0 ** np.linspace(-3.0, 3.0, 241)
    y = 2.0 * np.sqrt(mags2[:, None] * mags2[None, :])
    return {
        "complex_block": analysis._draw_cone_block(2, 0, BLOCK_SAMPLES, True),
        "thm1_band": (0.0, 1j * b[rows, None], 1j * b[None, :]),
        "thm2_band": (-0.5 * y, -mags2[:, None], -mags2[None, :]),
    }


@pytest.mark.parametrize("kind", ["complex_block", "thm1_band", "thm2_band"])
def test_batch_max_allocates_no_temporaries_once_warm(kind):
    # each batch used to allocate about 6 MiB of fresh temporaries; with the
    # per-thread workspace only the witness and a few index arrays are new
    batch = _full_batches()[kind]
    analysis._batch_max(0.3, *batch)  # warm-up: allocates this thread's workspace
    tracemalloc.start()
    try:
        val, wit = analysis._batch_max(0.3, *batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(eval_stability_function(0.3, wit)) == pytest.approx(val, rel=1e-12)


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


def test_threshold_ratio_values():
    assert thm4_ratio(0.0) == 0.0
    assert thm4_ratio(2.0) == 5.0 / 12.0
    with pytest.raises(DomainError):
        thm4_ratio(-0.1)
    xs = np.array([0.0, 1.0, 2.0, 10.0])
    vec = thm4_ratio(xs)
    assert vec.shape == (4,)
    assert all(vec[i] == thm4_ratio(float(xs[i])) for i in range(4))


def test_threshold_ratio_maximum():
    x, value = thm4_maximize()
    assert abs(x - 2.0) <= 1e-12
    assert abs(value - 5.0 / 12.0) <= 1e-15


def test_witness_exists_below_threshold_only():
    wit = thm4_witness_search(0.40)
    assert wit is not None
    assert cone_condition(wit)
    assert abs(eval_stability_function(0.40, wit)) > 1.0 + 1e-10
    assert thm4_witness_search(5.0 / 12.0) is None
    assert thm4_witness_search(0.45) is None
    with pytest.raises(DomainError):
        thm4_witness_search(0.0)


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


# -------------------------------------------------------------- verify_theorem


def test_verify_rejects_unknown_theorem():
    with pytest.raises(DomainError):
        verify_theorem(0)
    with pytest.raises(DomainError):
        verify_theorem(6)


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
    assert len(checks) == 2
    assert checks[0].passed and abs(checks[0].measured - (-1.2)) <= 0.012
    assert checks[1].name == "error_term_negative_at_0_3"

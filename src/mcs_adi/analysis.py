"""Stability-region scans: Monte-Carlo cone sampling and threshold checks.

The scans answer one question in several ways: for which theta does the MCS
amplification factor stay inside the unit disk on the whole cone

    Re z1 <= 0,  Re z2 <= 0,  |z0| <= 2 sqrt(Re z1 Re z2) ?

`figure1_scan` draws cone triplets with log-uniform magnitudes over five
decades (real z0, the discretization case) and records max |S| per theta;
the transition of the maxima through 1 localizes the threshold near
theta = 1/3.  `complex_z0_scan` is the same engine with z0 given a random
phase, the regime whose sharp threshold is 5/12.

The thmN_* helpers verify the five closed-form thresholds

    1/4   pure imaginary z1, z2 (no mixed term),
    1/3   all-real triplets on the cone,
    2/5   sign change of the leading cubic error term on a diagonal family,
    5/12  complex z0 on the cone (maximum of an explicit rational function),
    1/2   sufficiency on the full cone via a phase-monotone bound,

each against quantities this package computes independently of the scans:
deterministic sweeps of closed-form bounds, exact floating-point spot values,
and for 1/4, both sides of 1/3, 2/5 and 5/12 exact certificates -- polynomial
identities, scaled to integer coefficients, that prove the closed form (module
`certificates`).  `verify_theorem(n)` runs theorem n's named pass/fail checks
for the CLI, computing each value they share once; the grid scans of |S|
are float cross-checks outside them.

Every max |S| search -- Monte-Carlo blocks, the theorem-1 and theorem-2
grids and the theorem-4 witness family -- runs on one path: `_batch_max`
evaluates a batch of triplets and returns the first maximum with its
witness, and `_first_max` folds the maxima in a fixed order with a strict >,
so the reported witness depends neither on the batch or chunk size nor on
the thread count.  A batch holds at most BLOCK_SAMPLES points (a
Monte-Carlo block, or a band of grid rows), and is drawn and evaluated in
leading-axis chunks of at most _SCAN_CHUNK points (block elements, or grid
rows), one `stability_function` call per chunk, so that the temporaries of a
draw or of an evaluation are a few chunk-sized arrays, not block-sized ones.

Every scan over many batches -- the cone scans and the two grids -- runs on
one driver, `_max_scan`, which first checks each theta.  It is a pipeline on
one pool of W threads with W batch draws in flight: each draws its batch
with the theta-free sum z0 + (z1 + z2) and submits one task per theta
(common random numbers); the oldest batch is folded, in batch order, before
the next draw, so at most W batches live and O(W * thetas) tasks wait at any
batch count.

Randomness is counter-based (Philox): a sample block is a pure function of
(seed, stream, block index), so scans are reproducible bit-for-bit for any
thread count.  Real and complex z0 scans own one stream each, lemma 2 a third.
All three draw one way: `_uniform_chunks` yields a block's uniform rows a
chunk at a time, and `_cone_z_pair` turns each chunk into (z1, z2).
Seed and sample count are checked in one place, `_blocks`, which every seeded
sweep and `verify_theorem` call: a seed outside [0, 2**64), or a sample
count that is not a positive integer, is a DomainError.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from . import __version__, certificates
from .stability import (
    DomainError,
    SpectralPoint,
    check_positive,
    cone_condition,
    eval_stability_function,
    imaginary_axis_margin,
    lemma2_gap,
    stability_function,
    thm5_bound,
)

LN10 = math.log(10.0)

#: Samples per Monte-Carlo block; block boundaries define the reduction order.
BLOCK_SAMPLES = 1 << 16

#: Points per scan chunk: a batch is drawn and evaluated in leading-axis
#: slices of at most this many points, so its scratch arrays stay this small.
_SCAN_CHUNK = 1 << 14

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 2_000_000

#: Sample count of the quick per-theorem checks (seconds, not minutes).
DEFAULT_VERIFY_SAMPLES = 200_000

#: Stream ids: real-z0 scans draw from stream 0, complex-z0 scans from
#: _COMPLEX_STREAM_BASE; the lemma-2 sweep owns a third stream.
_LEMMA2_STREAM = 1 << 32
_COMPLEX_STREAM_BASE = 1 << 33


def _block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator positioned at one (seed, stream, block) coordinate.

    The 128-bit Philox key carries (seed, stream); the counter is offset by
    the block index so blocks never overlap regardless of evaluation order.
    """
    key = int(seed) | (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=int(block) << 128))


def _uniform_chunks(seed: int, stream: int, block: int, n: int, cols: int):
    """(slice, rows) of a block's n uniform rows of `cols` columns, _SCAN_CHUNK rows at a time.

    The block's one generator refills one buffer, so a chunk's rows hold until
    the next is drawn: the bits of one (n, cols) draw, a chunk in memory.
    """
    g = _block_generator(seed, stream, block)
    buf = np.empty((min(n, _SCAN_CHUNK), cols))
    for lo in range(0, n, _SCAN_CHUNK):
        s = slice(lo, min(lo + _SCAN_CHUNK, n))
        yield s, g.random(out=buf[: s.stop - lo])


def _cone_z_pair(r: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> None:
    """Fill z1, z2 with log-uniform magnitudes 10^[-4, 1] from uniform columns 1..6 of r.

    Columns: 1, 3 -> real-part exponents; 2, 4 -> imaginary-part exponents;
    5, 6 -> imaginary-part sign bits.  Real parts are strictly negative.
    Storing the parts gives the bits of re + 1j * im, as no part is zero.
    """
    for z, (re, im, sign) in ((z1, (1, 2, 5)), (z2, (3, 4, 6))):
        # exp on a fresh contiguous array: with a strided out= numpy falls back to libm's exp
        z.real = -np.exp(LN10 * (1.0 - 5.0 * r[:, re]))
        z.imag = np.where(r[:, sign] < 0.5, 1.0, -1.0) * np.exp(LN10 * (1.0 - 5.0 * r[:, im]))


def _draw_cone_block(seed: int, block: int, n: int, complex_z0: bool):
    """Draw n cone triplets; z0 fills the cone cross-section at each (z1, z2).

    Column 0 is the signed radial coordinate of z0 in [-1, 1] times the cone
    radius 2 sqrt(Re z1 Re z2); with complex_z0 an eighth column adds a
    uniform phase, and the block comes from the complex-z0 stream.  Each
    chunk of `_uniform_chunks` is computed into its part of z0, z1 and z2:
    the bits of one draw of all n rows, with chunk-sized temporaries.
    """
    stream = _COMPLEX_STREAM_BASE if complex_z0 else 0
    z0, z1, z2 = (np.empty(n, complex) for _ in range(3))
    for s, r in _uniform_chunks(seed, stream, block, n, 8 if complex_z0 else 7):
        _cone_z_pair(r, z1[s], z2[s])
        x = (2.0 * r[:, 0] - 1.0) * (2.0 * np.sqrt(z1.real[s] * z2.real[s]))  # rad * y
        z0[s] = x * np.exp(2j * np.pi * r[:, 7]) if complex_z0 else x
    return z0, z1, z2


@dataclass(frozen=True)
class ScanReport:
    """Per-theta maxima of |S| over one Monte-Carlo cone scan."""

    thetas: tuple[float, ...]
    max_abs_s: tuple[float, ...]
    witnesses: tuple[SpectralPoint, ...]
    samples_per_theta: int
    seed: int
    complex_z0: bool = False

    def __post_init__(self):
        if not (len(self.thetas) == len(self.max_abs_s) == len(self.witnesses)):
            raise DomainError("scan report columns have mismatched lengths")
        if self.samples_per_theta <= 0:
            raise DomainError("samples_per_theta must be positive")


def default_theta_grid() -> tuple[float, ...]:
    """101 equally spaced theta values from 1/4 to 1/2 (step 1/400)."""
    return tuple(0.25 + k / 400.0 for k in range(101))


def _blocks(seed: int, samples: int) -> Iterator[tuple[int, int]]:
    """(block index, sample count) of each block of a sweep, lazily; checks both inputs first."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 64):
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed}")
    if not isinstance(samples, numbers.Integral):
        raise DomainError(f"samples must be an integer, got {samples}")
    if samples <= 0:
        raise DomainError("samples must be positive")
    return (
        (b, min(BLOCK_SAMPLES, samples - b * BLOCK_SAMPLES))
        for b in range(-(-samples // BLOCK_SAMPLES))
    )


def _batch_max(theta, z0, z1, z2, zz=None) -> tuple[float, SpectralPoint]:
    """Max |S| over the broadcast of (z0, z1, z2) and its first attaining point.

    Evaluated in leading-axis slices of at most _SCAN_CHUNK points (elements
    of a cone block, rows of a grid band), each by one `stability_function`
    call; `_first_max` folds the slice maxima, with their flat indices in the
    batch, in order, and only the winner becomes a SpectralPoint.
    """
    zs = np.broadcast_arrays(z0, z1, z2, *(() if zz is None else (zz,)))
    row = math.prod(zs[0].shape[1:])
    step = max(_SCAN_CHUNK // row, 1)

    def slice_max(lo):
        v = np.abs(stability_function(theta, *[z[lo : lo + step] for z in zs]))
        i = int(v.argmax())
        return v.item(i), lo * row + i

    # an overflow shows as a NaN or inf maximum, which callers report; set here
    # because pool threads do not inherit the submitting thread's errstate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val, k = _first_max(slice_max(lo) for lo in range(0, len(zs[0]), step))
    i = np.unravel_index(k, zs[0].shape)
    return val, SpectralPoint(*(z[i] for z in zs[:3]))


def _workers(threads) -> int:
    """Pool size: `threads` (at least 1), at most the usable CPUs (their count by default)."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if not (threads is None or isinstance(threads, numbers.Integral)):
        raise DomainError(f"threads must be an integer, got {threads!r}")
    if threads is not None and threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    # capped: the executor starts a thread per task submitted while none is idle
    return cpus if threads is None else min(threads, cpus)


def _row_slices(rows: int, cols: int) -> list[slice]:
    """Row batches of a rows x cols grid, each at most BLOCK_SAMPLES points (>= 1 row)."""
    step = max(BLOCK_SAMPLES // cols, 1)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _first_max(pairs) -> tuple[float, object]:
    """Fold (max, witness) pairs in the given order; a later pair wins only if larger.

    A witness is a SpectralPoint, or a flat index inside `_batch_max`.  The
    fixed order makes the reported witness independent of how the pairs
    were computed (thread count, batch or chunk boundaries).  A NaN (an
    overflowed |S|) beats every number, as in np.max.
    """
    best, wit = -math.inf, None
    for val, pt in pairs:
        if val > best or (val != val and best == best):
            best, wit = val, pt
    return best, wit


def _max_scan(thetas, batches, threads) -> list[tuple[float, SpectralPoint]]:
    """(max |S|, first witness) per theta over `batches`, callables returning (z0, z1, z2).

    The one scan driver: W batch draws are in flight on a pool of W threads;
    each draws its batch with the theta-free sum z0 + (z1 + z2) and submits
    one `_batch_max` task per theta, which evaluates the batch chunk by
    chunk.  The oldest draw is folded, in batch order, before the next is
    submitted.  So a live batch holds its four arrays, and each running task
    a few arrays of one chunk.
    """
    for t in thetas:
        check_positive("theta", t)

    def evaluate(theta, block):  # the task holds the list, which the fold empties
        return _batch_max(theta, *block)

    def draw(batch):
        z0, z1, z2 = batch()
        block = [z0, z1, z2, z0 + (z1 + z2)]
        return block, [pool.submit(evaluate, theta, block) for theta in thetas]

    workers, batches = _workers(threads), iter(batches)
    best = [(-math.inf, None)] * len(thetas)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        draws = deque(pool.submit(draw, b) for b in islice(batches, workers))
        while draws:  # in batch order; the next draw waits, so at most W batches live
            block, evals = draws.popleft().result()
            best = [_first_max((kept, f.result())) for kept, f in zip(best, evals)]
            block.clear()  # frees the arrays now; a worker drops its last task's arguments later
            draws.extend(pool.submit(draw, b) for b in islice(batches, 1))  # the next, if any
    finally:  # after a failed task, the queued ones are dropped, not run
        pool.shutdown(cancel_futures=True)
    return best


def _cone_scan(thetas, seed, samples, threads, complex_z0) -> ScanReport:
    """`_max_scan` over the Monte-Carlo cone blocks of (seed, samples)."""
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise DomainError("need at least one theta")
    blocks = (partial(_draw_cone_block, seed, b, n, complex_z0)
              for b, n in _blocks(seed, samples))
    maxima, witnesses = zip(*_max_scan(thetas, blocks, threads))
    return ScanReport(
        thetas=thetas,
        max_abs_s=maxima,
        witnesses=witnesses,
        samples_per_theta=samples,
        seed=int(seed),
        complex_z0=complex_z0,
    )


def figure1_scan(
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    thetas=None,
    threads: int | None = None,
) -> ScanReport:
    """Max |S| per theta over random cone triplets with real z0.

    The default grid covers theta in [1/4, 1/2]; maxima sit visibly above 1
    up to about theta = 1/3 and at or below 1 beyond it.
    """
    if thetas is None:
        thetas = default_theta_grid()
    return _cone_scan(thetas, seed, samples, threads, complex_z0=False)


def complex_z0_scan(
    thetas,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    threads: int | None = None,
) -> ScanReport:
    """Max |S| per theta with z0 drawn with a uniform phase (full cone)."""
    return _cone_scan(thetas, seed, samples, threads, complex_z0=True)


_SCAN_CSV_HEADER = (
    "theta,max_abs_s,witness_z0_re,witness_z0_im,"
    "witness_z1_re,witness_z1_im,witness_z2_re,witness_z2_im"
)


def write_scan_csv(path, report: ScanReport) -> None:
    """Write a scan as CSV plus a '<path>.meta' sidecar with the provenance.

    Full float precision (%.17g) so a scan can be reloaded bit-for-bit;
    `sampler = 2` marks the shared draw (every theta sees the same blocks).
    """
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_SCAN_CSV_HEADER + "\n")
        for theta, mx, w in zip(report.thetas, report.max_abs_s, report.witnesses):
            fh.write(
                f"{theta:.17g},{mx:.17g},"
                f"{w.z0.real:.17g},{w.z0.imag:.17g},"
                f"{w.z1.real:.17g},{w.z1.imag:.17g},"
                f"{w.z2.real:.17g},{w.z2.imag:.17g}\n"
            )
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"seed = {report.seed}\n")
        fh.write(f"samples_per_theta = {report.samples_per_theta}\n")
        fh.write(f"complex_z0 = {'true' if report.complex_z0 else 'false'}\n")
        fh.write("sampler = 2\n")
        fh.write(f"package_version = {__version__}\n")


# ---------------------------------------------------------------------------
# Deterministic grid scans behind the individual thresholds


@dataclass(frozen=True)
class GridScanResult:
    """Maximum of |S| over a deterministic grid, with the attaining point."""

    max_abs_s: float
    witness: SpectralPoint


def thm1_threshold_scan(theta: float, threads: int | None = None) -> GridScanResult:
    """Max |S(0, i b1, i b2)| over a log grid of pure-imaginary eigenvalues.

    Magnitudes cover [1e-3, 1e3] at 200 points per decade, with both signs;
    z0 = 0.  The maximum stays at 1 exactly for theta >= 1/4 and exceeds it
    below.
    """
    mags = 10.0 ** np.linspace(-3.0, 3.0, 1201)
    b = np.concatenate([-mags[::-1], mags])
    z2 = 1j * b[None, :]
    bands = (partial(np.broadcast_arrays, 0.0, 1j * b[rows, None], z2)
             for rows in _row_slices(b.size, b.size))
    return GridScanResult(*_max_scan((theta,), bands, threads)[0])


def thm2_real_grid_scan(theta: float, threads: int | None = None) -> GridScanResult:
    """Max |S| over all-real cone triplets on a log-magnitude grid.

    z1, z2 run over -10^[-3, 3] at 40 points per decade; z0 = t * 2 sqrt(z1 z2)
    with t on 41 equally spaced points of [-1, 1].  The maximum is 1 for
    theta >= 1/3 and grows past 1.15 a short distance below (the sharp family
    is z1 = z2 = -1/theta, t = -1).
    """
    mags = 10.0 ** np.linspace(-3.0, 3.0, 241)
    z1 = -mags[:, None]
    z2 = -mags[None, :]
    y = 2.0 * np.sqrt(mags[:, None] * mags[None, :])
    bands = (partial(np.broadcast_arrays, t * y[rows], z1[rows], z2)
             for t in np.linspace(-1.0, 1.0, 41) for rows in _row_slices(mags.size, mags.size))
    return GridScanResult(*_max_scan((theta,), bands, threads)[0])


def thm2_sharp_point(theta: float) -> SpectralPoint:
    """All-real cone triplet (-2/theta, -1/theta, -1/theta) of the sharp family.

    There S - 1 = (1 - 3 theta) / (2 theta^2): S = 1 at theta = 1/3 and S > 1
    below it (153/128 at theta = 0.32).
    """
    check_positive("theta", theta)
    return SpectralPoint(-2.0 / theta, -1.0 / theta, -1.0 / theta)


def thm3_cubic_coefficient(theta: float) -> float:
    """Leading coefficient of |S|^2 - 1 on the family z0 = -2a, z1 = z2 = a(1+i).

    On this family |S|^2 - 1 = C(theta) a^3 + O(a^4) with
    C(theta) = 40 theta^2 - 16 theta, so the sign flips at theta = 2/5.
    C is computed exactly, from |S|^2 - 1 = (|N|^2 - |D|^2) / |D|^2 with
    |D|^2 = 1 + O(a), and rounded to a float.
    """
    check_positive("theta", theta)
    return certificates.thm3_cubic(theta)[0]


def thm4_ratio(x):
    """Rational function whose maximum over x >= 0 is the threshold 5/12.

    ratio(x) = (x^3 + 2 p x^2) / (p^3 + p^2 x) with p = 1 + x + x^2/4; the
    maximum sits at x = 2 where p = 4 and the value is 40/96 = 5/12.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    p = 1.0 + x_arr + 0.25 * x_arr * x_arr
    val = (x_arr**3 + 2.0 * p * x_arr * x_arr) / (p**3 + p * p * x_arr)
    return val.item() if val.ndim == 0 else val


def thm4_maximize() -> tuple[float, float]:
    """Maximum of `thm4_ratio` over x >= 0, certified exactly: (2.0, 5/12).

    `certificates.thm4_certify` proves ratio <= 5/12 on x >= 0 with equality
    only at x = 2; raises ArithmeticError if its identity fails.
    """
    certificates.thm4_certify()
    return 2.0, thm4_ratio(2.0)


def thm4_witness_search(theta: float) -> Optional[SpectralPoint]:
    """Cone triplet with |S| > 1, or None if the search family has none.

    Family: z1 = z2 = -x/theta real for 193 x in [0.2, 5], z0 on the cone
    boundary circle (radius pulled in by one part in 1e12 so rounding cannot
    push it outside) at the 24 phase angles +/-geomspace(0.005, 0.6, 12).
    For theta below 5/12 this family exposes instability; at and above 5/12
    it does not.  A returned point is re-verified against the cone condition
    and both evaluation forms.
    """
    check_positive("theta", theta)
    g = np.geomspace(0.005, 0.6, 12)
    z1 = (-np.linspace(0.2, 5.0, 193) / theta)[:, None] + 0.0j
    phi = np.concatenate([-g[::-1], g])[None, :]
    z0 = (1.0 - 1e-12) * (2.0 * np.abs(z1.real)) * (np.cos(phi) + 1j * np.sin(phi))
    val, best = _batch_max(theta, z0, z1, z1)
    if not val > 1.0 + 1e-10:
        return None
    if not cone_condition(best):
        return None
    eval_stability_function(theta, best)  # cross-checks the two forms
    return best


def lemma2_random_min_gap(seed: int = DEFAULT_SEED, samples: int = 1_000_000) -> float:
    """Minimum of the Cauchy-Schwarz gap over random (theta, z1, z2).

    theta is uniform on (0, 1], z1 and z2 log-uniform over the left
    half-plane by the cone draw, a chunk at a time.  The gap is nonnegative
    in exact arithmetic; the observed minimum sits at roundoff scale.
    """
    worst = math.inf
    for b, n in _blocks(seed, samples):
        for _, r in _uniform_chunks(seed, _LEMMA2_STREAM, b, n, 7):
            z1, z2 = np.empty(len(r), complex), np.empty(len(r), complex)
            _cone_z_pair(r, z1, z2)
            worst = min(worst, float(np.min(lemma2_gap(1.0 - r[:, 0], z1, z2))))
    return worst


# ---------------------------------------------------------------------------
# Named checks behind `verify --theorem N`


@dataclass(frozen=True)
class CheckResult:
    """One named verification with its measured value."""

    name: str
    measured: float
    passed: bool
    detail: str = ""


def _thm1_checks(seed, samples, threads, theta) -> list[CheckResult]:
    """Imaginary-axis criterion margins and the exact coefficient around theta = 1/4."""
    at_1_4, at_1_2, below = (imaginary_axis_margin(t) for t in (0.25, 0.5, 0.24))
    least = float(min(imaginary_axis_margin(float(t)) for t in np.linspace(0.25, 1.0, 301)))
    checks = [
        CheckResult("margin_zero_at_1_4", at_1_4, at_1_4 == 0.0,
                    "imaginary-axis criterion margin vanishes exactly at theta = 1/4"),
        CheckResult("margin_zero_at_1_2", at_1_2, at_1_2 == 0.0,
                    "criterion margin vanishes exactly at theta = 1/2"),
        CheckResult("margin_nonnegative_above_1_4", least, least >= 0.0,
                    "criterion margin >= 0 on a 301-point grid over [1/4, 1]"),
        CheckResult("margin_negative_below_1_4", below, below < 0.0,
                    "criterion margin < 0 at theta = 0.24"),
    ]
    for t, tag in ((0.25, "at_1_4"), (0.5, "at_1_2"), (1.0, "at_1"), (0.24, "negative_at_0_24")):
        c = certificates.thm1_coefficient(t)
        checks.append(CheckResult(f"imaginary_axis_coeff_{tag}", c, (c < 0.0) == (t < 0.25),
                                  f"exact |D|^2 - |N|^2 = c (b1 + b2)^4 on the imaginary axis, "
                                  f"c {'<' if t < 0.25 else '>='} 0 at theta = {t:.6g}"))
    return checks


def _thm2_checks(seed, samples, threads, theta) -> list[CheckResult]:
    """The exact all-real cone certificates at 1/3 and 1/2, and the sharp family around 1/3."""
    on_circle = abs(eval_stability_function(1.0 / 3.0, thm2_sharp_point(1.0 / 3.0)) - 1.0)
    excess = certificates.exact_real_s(0.32, thm2_sharp_point(0.32))
    upper = "exact D - N factorization and its discriminant prove S <= 1 on the all-real cone"
    lower = "exact 2 (N + D) = (z0 + X)^2 + R >= 3 proves S > -1 on the all-real cone"
    return [
        CheckResult("sharp_point_on_unit_circle", on_circle, on_circle <= 1e-14,
                    "|S| = 1 at the boundary triplet (-2/theta, -1/theta, -1/theta), theta = 1/3"),
        CheckResult("real_cone_upper_bound_at_1_3", *certificates.thm2_upper("1/3"),
                    f"{upper} at theta = 1/3"),
        CheckResult("real_cone_upper_bound_at_1_2", *certificates.thm2_upper("1/2"),
                    f"{upper} at theta = 1/2"),
        CheckResult("real_cone_lower_bound_at_1_3", *certificates.thm2_lower("1/3"),
                    f"{lower} at theta = 1/3"),
        CheckResult("sharp_point_excess_at_0_32", excess, excess >= 1.15,
                    "exact S at the boundary triplet well above 1 at theta = 0.32"),
        CheckResult("real_cone_lower_bound_at_1_2", *certificates.thm2_lower("1/2"),
                    f"{lower} at theta = 1/2"),
    ]


def _thm3_checks(seed, samples, threads, theta) -> list[CheckResult]:
    """The exact cubic coefficient and its sign at 0.38, 0.40 and 0.42, or at `theta` alone."""
    checks = []
    for th in (0.38, 0.40, 0.42) if theta is None else (float(theta),):
        coeff, exact = certificates.thm3_cubic(th)
        tag = (f"{th:.6g}" if float(f"{th:.6g}") == th else repr(th)).replace(".", "_")
        # the float 0.4 is the one nearest 2/5, and above it: th < 0.4 iff th < 2/5 exactly
        if th == 0.4:
            kind, passed = "vanishes", abs(coeff) <= 1e-3
            detail = "cubic term changes sign at theta = 2/5"
        elif th < 0.4:
            kind, passed = "negative", coeff < 0.0
            detail = "negative cubic term: not stable on this family (theta < 2/5)"
        else:
            kind, passed = "positive", coeff > 0.0
            detail = "positive cubic term: decay on this family (theta > 2/5)"
        checks += [
            CheckResult(f"cubic_coefficient_at_{tag}", coeff, exact,
                        f"exact coefficient vs closed form {40.0 * th * th - 16.0 * th:.6g}"),
            CheckResult(f"error_term_{kind}_at_{tag}", coeff, passed, detail),
        ]
    return checks


def _thm4_checks(seed, samples, threads, theta) -> list[CheckResult]:
    """The certified maximum 5/12 of `thm4_ratio`, and the witness family on both sides of it."""
    argmax, peak = thm4_maximize()
    # |S| at the witness the search finds at each theta, 0.0 where it finds none
    witnesses = {t: thm4_witness_search(t) for t in (0.40, 5.0 / 12.0, 0.45)}
    below, at_5_12, at_0_45 = (0.0 if wit is None else abs(eval_stability_function(t, wit))
                               for t, wit in witnesses.items())
    return [
        CheckResult("ratio_argmax_at_2", argmax, abs(argmax - 2.0) <= 1e-9,
                    "maximizer of the threshold ratio"),
        CheckResult("ratio_max_is_5_12", peak, abs(peak - 5.0 / 12.0) <= 1e-15,
                    "maximum of the threshold ratio equals 5/12"),
        CheckResult("ratio_at_2_exact", peak, peak == 5.0 / 12.0,
                    "ratio(2) = 5/12 holds exactly in floating point"),
        CheckResult("instability_witness_below_5_12", below, below > 1.0 + 1e-10,
                    "cone triplet with |S| > 1 exists at theta = 0.40"),
        CheckResult("no_witness_at_5_12", at_5_12, at_5_12 == 0.0,
                    "the witness family stays inside the unit disk at theta = 0.416667"),
        CheckResult("no_witness_at_0_45", at_0_45, at_0_45 == 0.0,
                    "the witness family stays inside the unit disk at theta = 0.45"),
    ]


def _thm5_checks(seed, samples, threads, theta) -> list[CheckResult]:
    """The phase-monotone bound behind 1/2, and the sampled complex-z0 cone maximum above it."""
    # the scan goes first: run after the grids, whose temporaries reach 0.6 MB
    # each, it left the process's peak RSS about 1.5 MiB higher
    scan = complex_z0_scan((0.5, 0.75), seed=seed, samples=samples, threads=threads)
    # one broadcast call per grid: theta runs down the leading axis, phi along the last
    radii, phases = np.linspace(0.0, 1.0, 101), np.linspace(0.0, math.pi, 361)
    flat = thm5_bound(np.array([[0.5], [0.75], [1.0]]), radii, 0.0)
    off_1 = float(np.max(np.abs(flat - 1.0)))
    curves = thm5_bound(np.array([0.5, 0.6, 0.75, 0.9, 1.0])[:, None, None],
                        np.linspace(0.0, 1.0, 21)[:, None], phases)
    rise = float(np.max(np.diff(curves)))
    return [
        CheckResult("bound_equals_1_at_phi_0", off_1, off_1 <= 1e-13,
                    "the cone bound collapses to 1 at phase 0 for theta in {1/2, 3/4, 1}"),
        CheckResult("bound_nonincreasing_in_phase", rise, rise <= 1e-12,
                    "forward differences of the bound in phi are <= 0 for theta >= 1/2"),
        *(CheckResult(f"complex_cone_max_at_{t:.2f}".replace(".", "_"), mx, mx <= 1.0 + 1e-12,
                      f"sampled max |S| with complex z0 at theta = {t:.6g}")
          for t, mx in zip(scan.thetas, scan.max_abs_s)),
    ]


def verify_theorem(
    n: int,
    seed: int = DEFAULT_SEED,
    samples: int | None = None,
    threads: int | None = None,
    theta: float | None = None,
) -> list[CheckResult]:
    """Run the named checks of threshold n (1..5); quick by construction.

    `theta` redirects the exact cubic coefficient of n = 3 to a
    caller-chosen parameter value; any other n raises DomainError for it.
    """
    if not (isinstance(n, numbers.Integral) and 1 <= n <= 5):
        raise DomainError(f"theorem number must be 1..5, got {n}")
    if theta is not None:
        if n != 3:
            raise DomainError(f"theorem {n} does not read theta")
        check_positive("theta", theta)
    if samples is None:
        samples = DEFAULT_VERIFY_SAMPLES
    # every theorem checks the scan inputs, used or not
    _blocks(seed, samples)
    _workers(threads)
    checks = (_thm1_checks, _thm2_checks, _thm3_checks, _thm4_checks, _thm5_checks)[n - 1]
    return checks(seed, samples, threads, theta)

"""Stability-region scans: Monte-Carlo cone sampling and threshold checks.

The scans answer one question in several ways: for which theta does the MCS
amplification factor stay inside the unit disk on the whole cone

    Re z1 <= 0,  Re z2 <= 0,  |z0| <= 2 sqrt(Re z1 Re z2) ?

`figure1_scan` draws cone triplets with log-uniform magnitudes over six
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
exact rational arithmetic where the numbers allow it, deterministic grid
sweeps and Richardson extrapolation elsewhere.  `verify_theorem` bundles
them into named pass/fail checks for the CLI.

Every max |S| search -- Monte-Carlo blocks, the theorem-1 and theorem-2
grids and the theorem-4 witness family -- runs on one path: `_batch_max`
evaluates a batch of triplets with one `stability_function` call and
returns the first maximum with its witness, and `_first_max` folds the
batches in a fixed order with a strict >, so the reported witness depends
neither on the batch size nor on the thread count.  A batch holds at most
BLOCK_SAMPLES points (a Monte-Carlo block, or a band of grid rows) and is
evaluated into its worker thread's reused workspace of four such arrays
(dropped when the thread draws or releases a block); the tasks of a scan --
grid bands, or (Monte-Carlo block, theta) pairs -- run on one thread pool.

Randomness is counter-based (Philox): a sample block is a pure function of
(seed, stream, block index), so scans are reproducible bit-for-bit for any
thread count.  Each block is drawn once, with its theta-free sum z0 + (z1 +
z2), by its first task, and released by its last, so W workers hold at most
W + 1 blocks; every theta of the grid is evaluated on it (common random
numbers).  Real and complex z0 scans own one stream each, the lemma-2 sweep
a third.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stability import (
    DomainError,
    SpectralPoint,
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
    key = (int(seed) & ((1 << 64) - 1)) | (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=int(block) << 128))


def _cone_z_pair(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) with log-uniform magnitudes 10^[-4, 1] from uniform columns 1..6.

    Columns: 1, 3 -> real-part exponents; 2, 4 -> imaginary-part exponents;
    5, 6 -> imaginary-part sign bits.  Real parts are strictly negative.
    """
    re1 = -np.exp(LN10 * (1.0 - 5.0 * r[:, 1]))
    im1 = np.where(r[:, 5] < 0.5, 1.0, -1.0) * np.exp(LN10 * (1.0 - 5.0 * r[:, 2]))
    re2 = -np.exp(LN10 * (1.0 - 5.0 * r[:, 3]))
    im2 = np.where(r[:, 6] < 0.5, 1.0, -1.0) * np.exp(LN10 * (1.0 - 5.0 * r[:, 4]))
    return re1 + 1j * im1, re2 + 1j * im2


def _draw_cone_block(seed: int, block: int, n: int, complex_z0: bool):
    """Draw n cone triplets; z0 fills the cone cross-section at each (z1, z2).

    Column 0 is the signed radial coordinate of z0 in [-1, 1] times the cone
    radius 2 sqrt(Re z1 Re z2); with complex_z0 an eighth column adds a
    uniform phase, and the block comes from the complex-z0 stream.
    """
    g = _block_generator(seed, _COMPLEX_STREAM_BASE if complex_z0 else 0, block)
    r = g.random((n, 8 if complex_z0 else 7))
    z1, z2 = _cone_z_pair(r)
    y = 2.0 * np.sqrt(z1.real * z2.real)
    rad = 2.0 * r[:, 0] - 1.0
    if complex_z0:
        z0 = rad * y * np.exp(2j * np.pi * r[:, 7])
    else:
        z0 = (rad * y).astype(complex)
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


def _blocks(samples: int) -> list[tuple[int, int]]:
    """(block index, sample count) of each Monte-Carlo block of a sweep."""
    return [
        (b, min(BLOCK_SAMPLES, samples - b * BLOCK_SAMPLES))
        for b in range(-(-samples // BLOCK_SAMPLES))
    ]


#: `work`: this thread's four scratch arrays for `_batch_max`; |S| goes in the last.
_scratch = threading.local()


def _batch_max(theta, z0, z1, z2, zz=None) -> tuple[float, SpectralPoint]:
    """Max |S| over the broadcast of (z0, z1, z2) and its first attaining point."""
    n = np.broadcast(z0, z1, z2).size
    work = getattr(_scratch, "work", None)
    if work is None or work[0].size < n:
        work = _scratch.work = [np.empty(max(n, BLOCK_SAMPLES), complex) for _ in range(4)]
    s = stability_function(theta, z0, z1, z2, work=work, zz=zz)
    v = np.abs(s, out=work[3].view(float)[:n].reshape(s.shape))
    i = np.unravel_index(int(np.argmax(v)), v.shape)
    return float(v[i]), SpectralPoint(*(z[i] for z in np.broadcast_arrays(z0, z1, z2)))


def _pool_map(fn, items, threads) -> list:
    """[fn(x) for x in items] on a thread pool, results in item order.

    `threads` None gives one worker per CPU this process may run on; any
    other value gives max(threads, 1) workers.
    """
    if threads is None:
        affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
        threads = len(affinity(0)) if affinity else os.cpu_count()
    with ThreadPoolExecutor(max_workers=max(threads or 1, 1)) as pool:
        return list(pool.map(fn, items))


def _row_slices(rows: int, cols: int) -> list[slice]:
    """Row batches of a rows x cols grid, each at most BLOCK_SAMPLES points (>= 1 row)."""
    step = max(BLOCK_SAMPLES // cols, 1)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _first_max(pairs) -> tuple[float, Optional[SpectralPoint]]:
    """Fold (max, witness) pairs in the given order; a later pair wins only if larger.

    The fixed order makes the reported witness independent of how the pairs
    were computed (thread count, batch boundaries).  A NaN (an overflowed
    |S|) beats every number, as in np.max.
    """
    best, wit = -math.inf, None
    for val, pt in pairs:
        if val > best or (val != val and best == best):
            best, wit = val, pt
    return best, wit


def _max_scan(thetas, seed, samples, threads, complex_z0) -> ScanReport:
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise DomainError("need at least one theta")
    if any(t <= 0.0 for t in thetas):
        raise DomainError("theta values must be positive")
    if samples <= 0:
        raise DomainError("samples must be positive")

    blocks = _blocks(samples)
    locks = [threading.Lock() for _ in blocks]
    live = {}  # block index -> [(z0, z1, z2, zz), tasks not yet finished]

    def run(task):
        b, theta = task[0], thetas[task[1]]
        with locks[b]:  # the block's first task draws it, the others wait
            if b not in live:
                vars(_scratch).pop("work", None)  # not held while a block is drawn
                z0, z1, z2 = _draw_cone_block(seed, *blocks[b], complex_z0)
                live[b] = [(z0, z1, z2, z0 + (z1 + z2)), len(thetas)]
            arrays = live[b][0]
        result = _batch_max(theta, *arrays)
        with locks[b]:  # the block's last task releases it
            live[b][1] -= 1
            if not live[b][1]:
                del live[b]
                vars(_scratch).pop("work", None)  # so the next workspace reuses its memory
        return result

    bs, ks = range(len(blocks)), range(len(thetas))
    # block b + 1's first task, its draw, runs ahead of block b's other tasks
    tasks = sorted(((b, k) for b in bs for k in ks), key=lambda t: (t[0] + (t[1] > 0), t[1]))
    results = dict(zip(tasks, _pool_map(run, tasks, threads)))
    maxima, witnesses = zip(*(_first_max(results[b, k] for b in bs) for k in ks))
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
    return _max_scan(thetas, seed, samples, threads, complex_z0=False)


def complex_z0_scan(
    thetas,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    threads: int | None = None,
) -> ScanReport:
    """Max |S| per theta with z0 drawn with a uniform phase (full cone)."""
    return _max_scan(thetas, seed, samples, threads, complex_z0=True)


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
    from . import __version__  # deferred: the package imports this module

    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"seed = {report.seed}\n")
        fh.write(f"samples_per_theta = {report.samples_per_theta}\n")
        fh.write(f"complex_z0 = {'true' if report.complex_z0 else 'false'}\n")
        fh.write("sampler = 2\n")
        fh.write(f"package_version = {__version__}\n")


def check_monotone_evidence(report: ScanReport, tol: float = 1e-9) -> bool:
    """Soft sanity check: the unstable thetas should precede the stable ones.

    Sorted by theta, the indicator max|S| > 1 + tol is expected to be a
    prefix of the grid (unstable region first).  A violation does not raise
    -- maxima of finite samples are noisy near the threshold -- it emits a
    warning and returns False.
    """
    if not report.thetas:
        return True
    order = np.argsort(np.asarray(report.thetas), kind="stable")
    above = np.asarray(report.max_abs_s)[order] > 1.0 + tol
    if above.any() and not above.all():
        first_ok = int(np.argmin(above))
        last_above = int(np.nonzero(above)[0][-1])
        if first_ok < last_above:
            warnings.warn(
                "scan maxima cross 1 more than once: "
                f"stable at index {first_ok}, unstable again at {last_above}",
                stacklevel=2,
            )
            return False
    return True


# ---------------------------------------------------------------------------
# Deterministic grid scans behind the individual thresholds


@dataclass(frozen=True)
class GridScanResult:
    """Maximum of |S| over a deterministic grid, with the attaining point."""

    max_abs_s: float
    witness: SpectralPoint


def thm1_threshold_scan(
    theta: float, points_per_decade: int = 200, threads: int | None = None
) -> GridScanResult:
    """Max |S(0, i b1, i b2)| over a log grid of pure-imaginary eigenvalues.

    Magnitudes cover [1e-3, 1e3] with both signs; z0 = 0.  The maximum stays
    at 1 exactly for theta >= 1/4 and exceeds it below.
    """
    mags = 10.0 ** np.linspace(-3.0, 3.0, 6 * points_per_decade + 1)
    b = np.concatenate([-mags[::-1], mags])
    z2 = 1j * b[None, :]

    def run(rows):
        return _batch_max(theta, 0.0, 1j * b[rows, None], z2)

    return GridScanResult(*_first_max(_pool_map(run, _row_slices(b.size, b.size), threads)))


def thm2_real_grid_scan(
    theta: float, points_per_decade: int = 40, t_points: int = 41, threads: int | None = None
) -> GridScanResult:
    """Max |S| over all-real cone triplets on a log-magnitude grid.

    z1, z2 run over -10^[-3, 3]; z0 = t * 2 sqrt(z1 z2) with t uniform on
    [-1, 1].  The maximum is 1 for theta >= 1/3 and grows past 1.15 a short
    distance below (the sharp family is z1 = z2 = -1/theta, t = -1).
    """
    mags = 10.0 ** np.linspace(-3.0, 3.0, 6 * points_per_decade + 1)
    z1 = -mags[:, None]
    z2 = -mags[None, :]
    y = 2.0 * np.sqrt(mags[:, None] * mags[None, :])

    def run(batch):
        t, rows = batch
        return _batch_max(theta, t * y[rows], z1[rows], z2)

    batches = [(t, rows) for t in np.linspace(-1.0, 1.0, t_points)
               for rows in _row_slices(mags.size, mags.size)]
    return GridScanResult(*_first_max(_pool_map(run, batches, threads)))


def thm2_sharp_point(theta: float) -> SpectralPoint:
    """All-real cone triplet (-2/theta, -1/theta, -1/theta) where |S| = 1."""
    return SpectralPoint(-2.0 / theta, -1.0 / theta, -1.0 / theta)


def thm3_cubic_coefficient(theta: float, a0: float = -1e-2) -> float:
    """Leading coefficient of |S|^2 - 1 on the family z0 = -2a, z1 = z2 = a(1+i).

    On this family |S|^2 - 1 = C(theta) a^3 + O(a^4) with
    C(theta) = 40 theta^2 - 16 theta, so the sign flips at theta = 2/5.
    Estimated by Richardson extrapolation of (|S|^2 - 1)/a^3 at a0, a0/2,
    a0/4, which cancels the a^4 and a^5 terms.
    """
    eta = 1.0 + 1.0j
    h = []
    for a in (a0, a0 / 2.0, a0 / 4.0):
        s = stability_function(theta, -2.0 * a, a * eta, a * eta)
        h.append((abs(s) ** 2 - 1.0) / a**3)
    return (8.0 * h[2] - 6.0 * h[1] + h[0]) / 3.0


def thm4_ratio(x):
    """Rational function whose maximum over x >= 0 is the threshold 5/12.

    ratio(x) = (x^3 + 2 p x^2) / (p^3 + p^2 x) with p = 1 + x + x^2/4; the
    maximum sits at x = 2 where p = 4 and the value is 40/96 = 5/12.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise DomainError("x must be nonnegative")
    p = 1.0 + x_arr + 0.25 * x_arr * x_arr
    val = (x_arr**3 + 2.0 * p * x_arr * x_arr) / (p**3 + p * p * x_arr)
    return val.item() if val.ndim == 0 else val


def _thm4_dnum(x: float) -> float:
    """Numerator of d(ratio)/dx; positive left of the maximum, negative right."""
    p = 1.0 + x + 0.25 * x * x
    dp = 1.0 + 0.5 * x
    num = x**3 + 2.0 * p * x * x
    den = p**3 + p * p * x
    dnum = 3.0 * x * x + 2.0 * dp * x * x + 4.0 * p * x
    dden = 3.0 * p * p * dp + 2.0 * p * dp * x + p * p
    return dnum * den - num * dden


def thm4_maximize(x_max: float = 100.0, coarse_points: int = 2001) -> tuple[float, float]:
    """Locate the maximum of `thm4_ratio` on [0, x_max].

    Coarse grid, then golden-section to ~1e-6, then bisection on the sign of
    the derivative numerator down to an interval of 1e-13 (golden-section
    alone stalls at sqrt(eps) next to a quadratic maximum).  Returns
    (argmax, value).
    """
    xs = np.linspace(0.0, x_max, coarse_points)
    i = int(np.argmax(thm4_ratio(xs)))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, coarse_points - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = thm4_ratio(c), thm4_ratio(d)
    while b - a > 1e-6:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = thm4_ratio(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = thm4_ratio(c)
    x = 0.5 * (a + b)
    lo, hi = max(x - 1e-3, 0.0), x + 1e-3
    flo, fhi = _thm4_dnum(lo), _thm4_dnum(hi)
    if flo > 0.0 > fhi:
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            fm = _thm4_dnum(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if fm > 0.0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
    return x, float(thm4_ratio(x))


def thm4_witness_search(theta: float, x_grid=None, phi_grid=None) -> Optional[SpectralPoint]:
    """Cone triplet with |S| > 1, or None if the search family has none.

    Family: z1 = z2 = -x/theta real, z0 on the cone boundary circle (radius
    pulled in by one part in 1e12 so rounding cannot push it outside) at
    small phase angles phi.  For theta below 5/12 this family exposes
    instability; at and above 5/12 it does not.  A returned point is
    re-verified against the cone condition and both evaluation forms.
    """
    if not theta > 0.0:
        raise DomainError("theta must be positive")
    if x_grid is None:
        x_grid = np.linspace(0.2, 5.0, 193)
    if phi_grid is None:
        g = np.geomspace(0.005, 0.6, 12)
        phi_grid = np.concatenate([-g[::-1], g])
    z1 = (-np.asarray(x_grid, dtype=float) / theta)[:, None] + 0.0j
    phi = np.asarray(phi_grid, dtype=float)[None, :]
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
    half-plane as in the cone sampler.  The gap is nonnegative in exact
    arithmetic; the observed minimum sits at roundoff scale.
    """
    worst = math.inf
    for b, n in _blocks(samples):
        r = _block_generator(seed, _LEMMA2_STREAM, b).random((n, 7))
        z1, z2 = _cone_z_pair(r)
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


def _verify_thm1(seed, samples, threads) -> list[CheckResult]:
    checks = []
    m = imaginary_axis_margin(0.25)
    checks.append(
        CheckResult(
            "margin_zero_at_1_4", m, m == 0.0,
            "imaginary-axis criterion margin vanishes exactly at theta = 1/4",
        )
    )
    m = imaginary_axis_margin(0.5)
    checks.append(
        CheckResult(
            "margin_zero_at_1_2", m, m == 0.0,
            "criterion margin vanishes exactly at theta = 1/2",
        )
    )
    grid = np.linspace(0.25, 1.0, 301)
    worst = float(min(imaginary_axis_margin(float(t)) for t in grid))
    checks.append(
        CheckResult(
            "margin_nonnegative_above_1_4", worst, worst >= 0.0,
            "criterion margin >= 0 on a 301-point grid over [1/4, 1]",
        )
    )
    m = imaginary_axis_margin(0.24)
    checks.append(
        CheckResult(
            "margin_negative_below_1_4", m, m < 0.0,
            "criterion margin < 0 at theta = 0.24",
        )
    )
    for theta, tag in ((0.25, "1_4"), (0.5, "1_2"), (1.0, "1")):
        r = thm1_threshold_scan(theta, threads=threads)
        checks.append(
            CheckResult(
                f"imaginary_axis_max_at_{tag}", r.max_abs_s, r.max_abs_s <= 1.0 + 1e-12,
                f"max |S| over pure-imaginary grid at theta = {theta:.6g}",
            )
        )
    r = thm1_threshold_scan(0.24, threads=threads)
    checks.append(
        CheckResult(
            "imaginary_axis_excess_at_0_24", r.max_abs_s, r.max_abs_s >= 1.0 + 1e-4,
            "max |S| over pure-imaginary grid exceeds 1 at theta = 0.24",
        )
    )
    return checks


def _verify_thm2(seed, samples, threads) -> list[CheckResult]:
    checks = []
    theta = 1.0 / 3.0
    s = eval_stability_function(theta, thm2_sharp_point(theta))
    dev = abs(s - 1.0)
    checks.append(
        CheckResult(
            "sharp_point_on_unit_circle", dev, dev <= 1e-14,
            "|S| = 1 at the boundary triplet (-2/theta, -1/theta, -1/theta), theta = 1/3",
        )
    )
    r = thm2_real_grid_scan(theta, threads=threads)
    checks.append(
        CheckResult(
            "real_grid_max_at_1_3", r.max_abs_s, r.max_abs_s <= 1.0 + 1e-12,
            "max |S| over the all-real cone grid at theta = 1/3",
        )
    )
    r = thm2_real_grid_scan(0.32, threads=threads)
    checks.append(
        CheckResult(
            "real_grid_excess_at_0_32", r.max_abs_s, r.max_abs_s >= 1.15,
            "max |S| over the all-real cone grid well above 1 at theta = 0.32",
        )
    )
    r = thm2_real_grid_scan(0.5, threads=threads)
    checks.append(
        CheckResult(
            "real_grid_max_at_1_2", r.max_abs_s, r.max_abs_s <= 1.0 + 1e-12,
            "max |S| over the all-real cone grid at theta = 1/2",
        )
    )
    return checks


def _thm3_tolerance(want: float) -> float:
    # 1% relative, floored at 1e-3 absolute where the closed form vanishes
    return max(1e-3, 0.01 * abs(want))


def _verify_thm3(seed, samples, threads, theta=None) -> list[CheckResult]:
    checks = []
    thetas = (0.38, 0.40, 0.42) if theta is None else (float(theta),)
    for th in thetas:
        got = thm3_cubic_coefficient(th)
        want = 40.0 * th * th - 16.0 * th
        tag = f"{th:.6g}".replace(".", "_")
        checks.append(
            CheckResult(
                f"cubic_coefficient_at_{tag}", got,
                abs(got - want) <= _thm3_tolerance(want),
                f"Richardson estimate vs closed form {want:.6g}",
            )
        )
        if want < -1e-3:
            checks.append(
                CheckResult(
                    f"error_term_negative_at_{tag}", got, got < 0.0,
                    "negative cubic term: not stable on this family (theta < 2/5)",
                )
            )
        elif want > 1e-3:
            checks.append(
                CheckResult(
                    f"error_term_positive_at_{tag}", got, got > 0.0,
                    "positive cubic term: decay on this family (theta > 2/5)",
                )
            )
        else:
            checks.append(
                CheckResult(
                    f"error_term_vanishes_at_{tag}", got, abs(got) <= 1e-3,
                    "cubic term changes sign at theta = 2/5",
                )
            )
    return checks


def _verify_thm4(seed, samples, threads) -> list[CheckResult]:
    checks = []
    x, value = thm4_maximize()
    checks.append(
        CheckResult(
            "ratio_argmax_at_2", x, abs(x - 2.0) <= 1e-9,
            "maximizer of the threshold ratio",
        )
    )
    checks.append(
        CheckResult(
            "ratio_max_is_5_12", value, abs(value - 5.0 / 12.0) <= 1e-15,
            "maximum of the threshold ratio equals 5/12",
        )
    )
    v2 = thm4_ratio(2.0)
    checks.append(
        CheckResult(
            "ratio_at_2_exact", v2, v2 == 5.0 / 12.0,
            "ratio(2) = 5/12 holds exactly in floating point",
        )
    )
    wit = thm4_witness_search(0.40)
    measured = abs(eval_stability_function(0.40, wit)) if wit is not None else 0.0
    checks.append(
        CheckResult(
            "instability_witness_below_5_12", measured,
            wit is not None and measured > 1.0 + 1e-10,
            "cone triplet with |S| > 1 exists at theta = 0.40",
        )
    )
    for theta, tag in ((5.0 / 12.0, "5_12"), (0.45, "0_45")):
        wit = thm4_witness_search(theta)
        measured = 0.0 if wit is None else abs(eval_stability_function(theta, wit))
        checks.append(
            CheckResult(
                f"no_witness_at_{tag}", measured, wit is None,
                f"the witness family stays inside the unit disk at theta = {theta:.6g}",
            )
        )
    return checks


def _verify_thm5(seed, samples, threads) -> list[CheckResult]:
    checks = []
    rr = np.linspace(0.0, 1.0, 101)
    dev = max(
        float(np.max(np.abs(np.asarray(thm5_bound(theta, rr, 0.0)) - 1.0)))
        for theta in (0.5, 0.75, 1.0)
    )
    checks.append(
        CheckResult(
            "bound_equals_1_at_phi_0", dev, dev <= 1e-13,
            "the cone bound collapses to 1 at phase 0 for theta in {1/2, 3/4, 1}",
        )
    )
    phis = np.linspace(0.0, math.pi, 361)
    worst_inc = -math.inf
    for theta in (0.5, 0.6, 0.75, 0.9, 1.0):
        for r in np.linspace(0.0, 1.0, 21):
            b = np.asarray(thm5_bound(theta, r, phis))
            worst_inc = max(worst_inc, float(np.max(np.diff(b))))
    checks.append(
        CheckResult(
            "bound_nonincreasing_in_phase", worst_inc, worst_inc <= 1e-12,
            "forward differences of the bound in phi are <= 0 for theta >= 1/2",
        )
    )
    report = complex_z0_scan((0.5, 0.75), seed=seed, samples=samples, threads=threads)
    for theta, mx in zip(report.thetas, report.max_abs_s):
        tag = f"{theta:.2f}".replace(".", "_")
        checks.append(
            CheckResult(
                f"complex_cone_max_at_{tag}", mx, mx <= 1.0 + 1e-12,
                f"sampled max |S| with complex z0 at theta = {theta:.6g}",
            )
        )
    return checks


_VERIFIERS = {1: _verify_thm1, 2: _verify_thm2, 3: _verify_thm3, 4: _verify_thm4, 5: _verify_thm5}


def verify_theorem(
    n: int,
    seed: int = DEFAULT_SEED,
    samples: int | None = None,
    threads: int | None = None,
    theta: float | None = None,
) -> list[CheckResult]:
    """Run the named checks of threshold n (1..5); quick by construction.

    `theta` only affects n = 3, where it redirects the cubic-coefficient
    estimate to a caller-chosen parameter value.
    """
    if n not in _VERIFIERS:
        raise DomainError(f"theorem number must be 1..5, got {n}")
    if samples is None:
        samples = DEFAULT_VERIFY_SAMPLES
    if n == 3:
        return _verify_thm3(seed, samples, threads, theta=theta)
    return _VERIFIERS[n](seed, samples, threads)

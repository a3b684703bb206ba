"""Periodic finite-difference splitting and the ADI time steppers.

The spatial operator of the convection-diffusion problem splits into

    A0  nine-point mixed-derivative stencil (treated explicitly),
    A1  x-direction diffusion + convection (tridiagonal, treated implicitly),
    A2  y-direction diffusion + convection (tridiagonal, treated implicitly),

all on a uniform periodic grid, second-order central differences.  One MCS
step with parameter theta advances U by

    Y0   = U + dt (A0 + A1 + A2) U
    Yj   = solve(I - theta dt Aj, Y_{j-1} - theta dt Aj U)        j = 1, 2
    Yh0  = Y0 + theta dt A0 (Y2 - U)
    Yt0  = Yh0 + (1/2 - theta) dt (A0 + A1 + A2)(Y2 - U)
    Ytj  = solve(I - theta dt Aj, Yt_{j-1} - theta dt Aj U)       j = 1, 2
    U+   = Yt2

and the Douglas step is the first three lines alone.  The implicit stages
are constant-coefficient cyclic tridiagonal systems, circulant along their
direction, so an FFT along the axis, a product with the reciprocal
eigenvalues 1/lam_k and the inverse FFT solve every grid line at once.  Each
SplitOperators checks the eigenvalues of a stage matrix for singularity and
then caches what its solves need per (direction, theta*dt); a singular stage
matrix is never cached and raises SingularSystemError on every call.  For
solve lengths up to _DENSE_MAX that is the dense inverse of the stage
matrix, made once by the FFT solve of the identity, and a solve is one
matrix product with it (O(n) flops per point against O(log n) for the FFTs,
so above _DENSE_MAX the FFT round trip is faster), unless the stage is so
ill conditioned that rounding in that product could fail the backward-error
check below (the rule is derived in SplitOperators._stage).  Every other
stage caches 1/lam_k, as a multiply is cheaper than a complex division: the
half spectrum for the y-solve, an rfft/irfft pair along the contiguous axis
1, and the full spectrum for the x-solve.  As the stage matrix M is real,
the x-solve takes each pair of adjacent columns as one complex column,
M^-1 (u_2l + i u_2l+1) = M^-1 u_2l + i M^-1 u_2l+1, and runs a complex
fft/ifft pair along axis 0 of the complex128 view of the field, of shape
(m1, m2 / 2), which costs less than an rfft/irfft pair along the strided
axis 0.  Every right-hand side is converted to float64 on entry, so the
FFTs always run in double precision, and one that is not C-ordered or has
odd width is first copied into a zero-padded array.
Every solve is verified a posteriori by its normwise backward error in
physical space.

Every tridiagonal product, A_j u for j = 1, 2 and M x of a stage matrix in
the backward-error check, is formed by one kernel as
(diag u + sub u[i-1]) + sup u[i+1].  Its periodic shifts are not rolled
copies of the field.  The product weight * u[i - 1] along axis 0 reads row
slices of u, and the wrap row on its own.  Along axis 1 it is one multiply
over the field's rows taken as one flat array, which in the wrap column
pairs each row with the last entry of the row above, followed by a strided
multiply that redoes the wrap column; every operand is one-dimensional, so
numpy needs no iterator buffers for it.  The mixed stencil reads its nine
neighbours from a copy of the field with one periodic ghost layer on every
side, and adds the neighbours that share a weight before multiplying, so A0
is four weighted sums
w++ (h++ + h--) + w-+ (h-+ + h+-) + we ((h+0 + h-0) + h0+ + h0-) + wc h00,
with a group of weight zero left out.  The sums run on the halo rows, of
width W = m2 + 2, as one flat array: neighbour (di, dj) of B rows is its
slice of length (B - 1) W + m2 from offset (1 + di) W + 1 + dj, the
accumulator has the same layout (its ghost columns are never read), and one
copy moves its interior into the result.  Every sum is formed in the same
order as with rolled copies, so the results are bit-identical to them.

The stencils and the backward-error check of a solve run in row bands of
at most _BAND_POINTS = 2^15 grid points, 256 KiB per float64 array, so that
the operands and scratch of a band stay in a 2 MiB L2 cache between the
passes over it, where a 512^2 field spills it.  A0 fills the halo of one
band, of shape (B + 2, m2 + 2) for B rows, sums on it into the band's
residual scratch, and copies the band's rows out; the check forms
r = ((m_diag x + m_sub x[i-1]) + m_sup x[i+1]) - rhs on one band and takes
the max of |r|, |x| and |rhs| there before it reads the next.  A grid of
at most _BAND_POINTS points is one band.  The FFTs, the matrix products
and the stage sums of a step run on whole fields.  Each grid point gets the
same operations in the same order in any band, so the bands change no bit
of a result.

A step allocates the arrays of its solves (one matrix product result, or
the arrays of an FFT round trip), the last of which it returns, and the
finiteness masks of `validate_field`.  Each thread that steps with a
SplitOperators gets its own workspace of float64 grid fields and band
scratch, built on its first use (building the operators stays cheap), and
every stage value, stencil product and solve residual is written there by
ufunc `out=` calls.  The stages are formed in the order of the formulas
above, with a product such as theta dt A1 U computed once for predictor and
corrector; only operands of the IEEE-commutative `+` and `*` may swap
places, so a step is bit-identical to the plain array expressions.  A
returned field is never a workspace array: two step results can be kept
side by side.

`mode_amplification` closes the loop with the Fourier analysis: it runs the
actual stepper on a cosine/sine mode pair and projects out the complex
per-step factor, which must match the closed-form amplification factor to
rounding accuracy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .spectrum import FourierMode, GridSpec, PdeCoefficients, fourier_symbol_grid
from .stability import DomainError, SchemeParams, SpectralPoint, eval_stability_function

#: Relative tolerance of the normwise backward-error check of solve_directional.
_RESIDUAL_RTOL = 1e-10

#: Unit roundoff of float64 (half the machine epsilon).
_EPS = np.finfo(float).eps / 2

#: Longest solve length whose stage matrix is inverted densely and applied by matmul.
_DENSE_MAX = 256

#: Most grid points in one row band of the stencil and residual kernels (256 KiB of float64).
_BAND_POINTS = 1 << 15

#: (m_sub, m_diag, m_sup, rlam, inv) of one cached stage matrix; see SplitOperators._stage.
_Stage = tuple[float, float, float, np.ndarray | None, np.ndarray | None]


class SingularSystemError(ArithmeticError):
    """An implicit stage system was (numerically) singular."""


class SplitOperators:
    """Stencil coefficients of A0, A1, A2 on one grid.

    Each unidirectional stencil is one (sub, diag, sup, n) entry, read
    through directional_stencil(j).  The mixed stencil is the
    beta-weighted combination of the two diagonal four-point stencils,
    with four distinct weights over the nine-point neighborhood:

        (1 + beta) s     at (+1,+1) and (-1,-1)
        -(1 - beta) s    at (-1,+1) and (+1,-1)
        -2 beta s        at the edge midpoints (+-1,0) and (0,+-1)
        4 beta s         at the centre (0,0)

    where s = (d12 + d21) / (4 dx dy).  A0 runs as one weighted sum per
    weight over the offsets that share it; a group of weight zero is left
    out (beta = 0 drops the centre and edges, beta = +-1 one diagonal pair).
    """

    def __init__(self, coeffs: PdeCoefficients, grid: GridSpec):
        self.coeffs = coeffs
        self.grid = grid
        dx, dy = grid.dx, grid.dy
        self._stencils = {
            j: (d / h**2 - c / (2.0 * h), -2.0 * d / h**2, d / h**2 + c / (2.0 * h), n)
            for j, c, d, h, n in ((1, coeffs.c1, coeffs.d11, dx, grid.m1),
                                  (2, coeffs.c2, coeffs.d22, dy, grid.m2))
        }
        s = coeffs.mixed_sum / (4.0 * dx * dy)
        beta = grid.beta
        weights = ((1.0 + beta) * s, -(1.0 - beta) * s, -2.0 * beta * s, 4.0 * beta * s)
        if not all(map(math.isfinite, self._stencils[1][:3] + self._stencils[2][:3] + weights)):
            raise DomainError("stencil coefficients overflow (d/dx^2, c/dx or d12/(dx dy))")
        offsets = (((1, 1), (-1, -1)), ((-1, 1), (1, -1)), ((1, 0), (-1, 0), (0, 1), (0, -1)),
                   ((0, 0),))
        self._mixed_groups = tuple((w, o) for w, o in zip(weights, offsets) if w != 0.0)
        self._stages: dict[tuple[int, float], _Stage] = {}
        self._local = threading.local()

    def _workspace(self) -> _Workspace:
        """This thread's step workspace, built on the first call."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = _Workspace(self.grid.shape, self._mixed_groups)
        return ws

    def directional_stencil(self, j: int) -> tuple[float, float, float, int]:
        """(sub, diag, sup, n) of the implicit direction j in {1, 2}."""
        if j in (1, 2):
            return self._stencils[j]
        raise DomainError(f"implicit direction must be 1 or 2, got {j}")

    def _stage(self, j: int, theta_dt: float) -> _Stage:
        """(m_sub, m_diag, m_sup, rlam, inv) of the stage matrix M = I - theta_dt * A_j.

        Raises SingularSystemError when the eigenvalues lam_k of M have
        min|lam_k| <= n eps max|lam_k|.  Only stages that passed this check
        are cached, so a singular key raises on every call.

        inv is the real matrix with x = inv @ rhs (j = 1) or x = rhs @ inv
        (j = 2), M^-1 or its transpose, made by FFT solves of the identity.
        It is kept iff n <= _DENSE_MAX and n u ||M|| ||inv|| <= _RESIDUAL_RTOL
        (max-norms, u the unit roundoff).  Rounding in the product leaves
        |x - inv rhs| <= n u |inv| |rhs| entrywise, which adds at most
        n u ||M|| ||inv|| ||rhs|| to the residual M x - rhs (the solves that
        form inv leave one of the same order); the backward-error bound of
        solve_directional is at least _RESIDUAL_RTOL ||rhs||, so under the
        rule a dense solve passes it for any rhs.  Beyond the rule, large
        entries of inv can cancel (on a rhs of one Fourier mode) and miss it,
        so such a stage takes the FFT solve, whose residual is a few
        u log n (||M|| ||x|| + ||rhs||) at any conditioning that passes the
        eigenvalue test.  Then inv is None and rlam holds 1/lam_k in the
        layout its FFT path multiplies by: the full spectrum, shape (n, 1),
        for the fft of the x-solve, and the half spectrum, shape
        (n // 2 + 1,), for the rfft of the y-solve; a dense stage has rlam None.
        """
        stage = self._stages.get((j, theta_dt))
        if stage is not None:
            return stage
        sub, diag, sup, n = self.directional_stencil(j)
        m_sub, m_diag, m_sup = -theta_dt * sub, 1.0 - theta_dt * diag, -theta_dt * sup
        phi = (2.0 * math.pi / n) * np.arange(n // 2 + 1)
        lam = m_diag + (m_sub + m_sup) * np.cos(phi) + 1j * ((m_sup - m_sub) * np.sin(phi))
        mag = np.abs(lam)
        if not mag.min() > n * np.finfo(float).eps * mag.max():
            raise SingularSystemError(
                f"direction {j} system with theta*dt = {theta_dt!r} has min |eigenvalue| "
                f"<= n eps max |eigenvalue| (min {mag.min():.3e}, max {mag.max():.3e}, n = {n})"
            )
        rlam = inv = None
        if n <= _DENSE_MAX:
            eye_hat = np.fft.rfft(np.eye(n), axis=j - 1)
            inv = np.fft.irfft(eye_hat / (lam[:, None] if j == 1 else lam), n=n, axis=j - 1)
            norm_m = abs(m_diag) + abs(m_sub) + abs(m_sup)
            if n * _EPS * norm_m * np.abs(inv).sum(axis=2 - j).max() > _RESIDUAL_RTOL:
                inv = None
        if inv is None:
            rlam = 1.0 / lam
            if j == 1:  # lam_{n-k} = conj(lam_k) completes the spectrum of a real M
                rlam = np.concatenate([rlam, rlam[1 : (n + 1) // 2][::-1].conj()])[:, None]
        stage = (m_sub, m_diag, m_sup, rlam, inv)
        self._stages[(j, theta_dt)] = stage
        return stage


class _Workspace:
    """One thread's scratch arrays for the stage-wise step.

    `y0`, `a1`, `a2` and `rhs` carry stage values between the calls of one
    step, and `aux` holds one stage product at a time.  The stencil and
    residual kernels run band by band over `bands` (see _Band), which share
    the band-sized scratch `tmp`, `res` and `halo` and write their max-abs
    values to the rows of `peaks`.  `res` is flat, three bands for a solve
    check and two of the halo's width for A0.
    """

    def __init__(self, shape: tuple[int, int], mixed_groups):
        m1, m2 = shape
        rows = min(m1, max(1, _BAND_POINTS // m2))
        self.y0, self.a1, self.a2, self.rhs, self.aux = (np.empty(shape) for _ in range(5))
        self.tmp, self.res = np.empty((rows, m2)), np.empty(rows * max(3 * m2, 2 * m2 + 4))
        self.halo = np.empty((rows + 2, m2 + 2))
        starts = range(0, m1, rows)
        self.peaks = np.empty((len(starts), 3))
        self.bands = tuple(_Band(self, k, r0, min(r0 + rows, m1), mixed_groups)
                           for k, r0 in enumerate(starts))


class _Band:
    """Rows r0:r1 of the grid, and the workspace views that their kernels use.

    `tmp` is the band's rows of the workspace scratch, `res` those of the
    stacked residual, |x| and |rhs| of a solve check (split in `res_parts`),
    and `peaks` the workspace row that takes their three maxima.  `shifts`
    maps (j, shift) to the (destination, source index) pairs with which
    _band_product writes tmp = weight * u[i - shift] along axis j - 1, for
    shift = +-1: for j = 1 the sources are row slices of u, the wrap row of
    the first or last band on its own; for j = 2 they index the flattened
    field, one contiguous pass over the band's rows, whose products cross
    from one row into the next in the wrap column, and then a strided pass
    that redoes the wrap column.
    `halo_rows` and `halo_cols` fill the (r1 - r0 + 2, m2 + 2) periodic halo
    of the band, the rows from u and the ghost columns from the halo itself,
    and `a0_terms` holds, for each nonzero weight of A0, the weight and the
    flat slices of the halo that it multiplies.  A0 sums them in `res`, by
    group into `a0_sum` and in total into `a0_acc`, whose interior is `a0_out`.
    """

    def __init__(self, ws: _Workspace, k: int, r0: int, r1: int, mixed_groups):
        m1, m2 = ws.y0.shape
        h, a, b = r1 - r0, r0 * m2, r1 * m2
        self.rows = slice(r0, r1)
        t = self.tmp = ws.tmp[:h]
        self.res = ws.res[: 3 * h * m2].reshape(3, h, m2)
        self.res_parts = tuple(self.res)
        self.peaks = ws.peaks[k]
        flat = t.reshape(-1)
        up = ((t, slice(r0 - 1, r1 - 1)),) if r0 > 0 else ((t[1:], slice(0, r1 - 1)), (t[0], m1 - 1))
        down = ((t, slice(r0 + 1, r1 + 1)),) if r1 < m1 else ((t[:-1], slice(r0 + 1, m1)), (t[-1], 0))
        self.shifts = {
            (1, 1): up,
            (1, -1): down,
            (2, 1): ((flat[1:], slice(a, b - 1)), (t[:, 0], slice(a + m2 - 1, b, m2))),
            (2, -1): ((flat[:-1], slice(a + 1, b)), (t[:, -1], slice(a, b, m2))),
        }
        hb = ws.halo[: h + 2]
        self.halo_rows = ((hb[1:-1, 1:-1], self.rows), (hb[0, 1:-1], (r0 - 1) % m1),
                          (hb[-1, 1:-1], r1 % m1))
        self.halo_cols = ((hb[:, 0], hb[:, -2]), (hb[:, -1], hb[:, 1]))
        w, n = m2 + 2, (h - 1) * (m2 + 2) + m2
        self.a0_acc, self.a0_sum = ws.res[:n], ws.res[h * w : h * w + n]
        self.a0_out = ws.res[: h * w].reshape(h, w)[:, :m2]
        self.a0_terms = tuple(
            (weight, tuple(hb.reshape(-1)[(1 + di) * w + 1 + dj :][:n] for di, dj in offsets))
            for weight, offsets in mixed_groups
        )


def _band_product(band: _Band, j: int, sub: float, diag: float, sup: float, u: np.ndarray,
                  src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (diag u + sub u[i-1]) + sup u[i+1] along axis j - 1 on the band's rows, periodic.

    The one tridiagonal product of the module: A_j u for a stencil of
    directional_stencil(j), and M x for a stage matrix (m_sub, m_diag, m_sup).
    src is u for j = 1 and u.reshape(-1) for j = 2; `out` has the band's
    shape and must not be band.tmp, which takes each shifted product in turn.
    As diag u + sub u[i-1] equals sub u[i-1] + diag u exactly, A_j u is
    bit-identical to the sum sub u[i-1] + diag u + sup u[i+1] of rolled copies.
    """
    np.multiply(diag, u[band.rows], out=out)
    for weight, shift in ((sub, 1), (sup, -1)):
        for dst, index in band.shifts[j, shift]:
            np.multiply(weight, src[index], out=dst)
        np.add(out, band.tmp, out=out)
    return out


def build_split_operators(coeffs: PdeCoefficients, grid: GridSpec) -> SplitOperators:
    """Assemble the three split operators of one discretization."""
    return SplitOperators(coeffs, grid)


def validate_field(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Check that u is a finite real float array of the grid's shape."""
    u = np.asarray(u)
    if u.shape != grid.shape:
        raise DomainError(f"field shape {u.shape} does not match grid {grid.shape}")
    if u.dtype.kind != "f":
        raise DomainError(f"field must be a real float array, got dtype {u.dtype}")
    if not np.isfinite(u).all():
        raise DomainError("field contains non-finite entries")
    return u


def apply_split_operator(
    ops: SplitOperators, j: int, u: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply A_j (j in {0, 1, 2}) to a grid field.

    The result is written to `out`, a float64 grid field that must not
    overlap u (DomainError otherwise), or to a new array when `out` is None.
    """
    u = validate_field(ops.grid, u)
    if j not in (0, 1, 2):
        raise DomainError(f"operator index must be 0, 1 or 2, got {j}")
    if out is None:
        out = np.empty(u.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == u.shape):
        raise DomainError(f"out must be a float64 array of shape {u.shape}")
    elif np.may_share_memory(out, u):
        raise DomainError("out must not overlap the input field")
    ws = ops._workspace()
    if j == 0:
        if not ops._mixed_groups:
            out.fill(0.0)
            return out
        flags = []
        # the ghost columns' sums may overflow where no result entry does, so
        # the sums run silently; a result that overflowed runs them again
        # under the caller's errstate, to warn or raise as the rolled sum does
        with np.errstate(over="call", invalid="call", call=lambda *_: flags.append(1)):
            _apply_a0(ws, u, out)
        if flags and not np.isfinite(out).all():
            _apply_a0(ws, u, out)
        return out
    sub, diag, sup, _ = ops.directional_stencil(j)
    src = u if j == 1 else u.reshape(-1)
    for band in ws.bands:
        _band_product(band, j, sub, diag, sup, u, src, out[band.rows])
    return out


def _apply_a0(ws: _Workspace, u: np.ndarray, out: np.ndarray) -> None:
    """out = A0 u, band by band on the halo of each band (see _Band)."""
    for band in ws.bands:
        for dst, index in band.halo_rows:
            dst[...] = u[index]
        for dst, ghost in band.halo_cols:
            dst[...] = ghost
        o, tmp = band.a0_acc, band.a0_sum
        for k, (weight, (acc, *rest)) in enumerate(band.a0_terms):
            # o (+)= weight * (((h_a + h_b) + h_c) + h_d) over the group's neighbours
            for nb in rest:
                acc = np.add(acc, nb, out=tmp)
            if k == 0:
                np.multiply(weight, acc, out=o)
            else:
                np.add(o, np.multiply(weight, acc, out=tmp), out=o)
        out[band.rows] = band.a0_out


def solve_directional(ops: SplitOperators, j: int, theta_dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - theta_dt * A_j) x = rhs for an implicit direction j in {1, 2}.

    The stage matrix M, with stencil (m_sub, m_diag, m_sup), is circulant
    along axis j - 1, so Fourier mode k of n is an eigenvector of M with
    eigenvalue lam_k = m_diag + (m_sub + m_sup) cos(phi_k) + i (m_sup - m_sub)
    sin(phi_k), phi_k = 2 pi k / n.  Where SplitOperators._stage keeps the
    dense inverse of M, all grid lines are solved at once by one product
    with it.  Otherwise the y-solve is an rfft along axis 1, a product with
    the cached 1/lam_k and the irfft.  The x-solve uses that M is real, so that
    M^-1 (u_even + i u_odd) = M^-1 u_even + i M^-1 u_odd for the column
    pairs of rhs: it runs a complex fft along axis 0 of the complex128 view
    of rhs, of shape (m1, m2 / 2), multiplies by 1/lam_k and views the ifft
    as float64 again.  The rhs is converted to float64 on entry, so the FFTs
    always run in double precision, and one that is not C-ordered or has odd
    m2 is first copied into a zero-padded array.  A diagonal M (e.g.
    theta_dt = 0) returns rhs / m_diag exactly.

    SingularSystemError is raised whenever min|lam_k| <= n eps max|lam_k|,
    whatever the right-hand side (for PSD operators and theta_dt > 0 every
    |lam_k| >= 1), and when x misses the normwise backward error
    ||M x - rhs||_inf <= 1e-10 (||M||_inf ||x||_inf + ||rhs||_inf), checked in
    physical space with ||M||_inf = |m_diag| + |m_sub| + |m_sup|.
    """
    rhs = np.asarray(validate_field(ops.grid, rhs), dtype=np.float64)
    m_sub, m_diag, m_sup, rlam, inv = ops._stage(j, theta_dt)
    if m_sub == 0.0 and m_sup == 0.0:
        return np.divide(rhs, m_diag)
    ws = ops._workspace()
    if inv is not None:
        x = inv @ rhs if j == 1 else rhs @ inv
    elif j == 1:
        m1, m2 = rhs.shape
        pairs = rhs
        if not (rhs.flags.c_contiguous and m2 % 2 == 0):
            pairs = np.zeros((m1, m2 + m2 % 2))
            pairs[:, :m2] = rhs
        xh = np.fft.fft(pairs.view(np.complex128), axis=0)
        xh *= rlam
        x = np.fft.ifft(xh, axis=0).view(np.float64)[:, :m2]
    else:
        xh = np.fft.rfft(rhs, axis=1)
        xh *= rlam
        x = np.fft.irfft(xh, n=rhs.shape[1], axis=1)
    residual, x_max, rhs_max = _check_peaks(ws, j, m_sub, m_diag, m_sup, x, rhs)
    bound = _RESIDUAL_RTOL * ((abs(m_diag) + abs(m_sub) + abs(m_sup)) * x_max + rhs_max)
    if not residual <= bound:
        raise SingularSystemError(
            f"direction {j} solve failed the backward-error check "
            f"(residual {residual:.3e} > {bound:.3e}, theta*dt = {theta_dt!r})"
        )
    return x


def _check_peaks(ws: _Workspace, j: int, m_sub: float, m_diag: float, m_sup: float,
                 x: np.ndarray, rhs: np.ndarray) -> tuple[float, float, float]:
    """max |M x - rhs|, max |x| and max |rhs| of a direction-j solve.

    r = ((m_diag x + m_sub x[i-1]) + m_sup x[i+1]) - rhs is formed band by
    band, with the max of |r|, |x| and |rhs| over the band in one reduction;
    a NaN anywhere reaches `peaks` and fails the check.
    """
    src = x if j == 1 else x.reshape(-1)
    for band in ws.bands:
        r, abs_x, abs_rhs = band.res_parts
        rhs_band = rhs[band.rows]
        _band_product(band, j, m_sub, m_diag, m_sup, x, src, r)
        np.abs(np.subtract(r, rhs_band, out=r), out=r)
        np.abs(x[band.rows], out=abs_x)
        np.abs(rhs_band, out=abs_rhs)
        band.res.max(axis=(1, 2), out=band.peaks)
    return tuple(ws.peaks.max(axis=0).tolist())


def _douglas_predictor(ops: SplitOperators, params: SchemeParams, u: np.ndarray,
                       ws: _Workspace) -> np.ndarray:
    """Douglas stage Y2 from U; leaves Y0, td A1 U and td A2 U in ws.y0, ws.a1, ws.a2."""
    dt, td = params.dt, params.theta * params.dt
    y0 = apply_split_operator(ops, 0, u, out=ws.y0)
    a1 = apply_split_operator(ops, 1, u, out=ws.a1)
    a2 = apply_split_operator(ops, 2, u, out=ws.a2)
    np.add(y0, a1, out=y0)  # Y0 = U + dt ((A0 U + A1 U) + A2 U)
    np.add(y0, a2, out=y0)
    np.multiply(dt, y0, out=y0)
    np.add(u, y0, out=y0)
    np.multiply(td, a1, out=a1)
    np.multiply(td, a2, out=a2)
    rhs = np.subtract(solve_directional(ops, 1, td, np.subtract(y0, a1, out=ws.rhs)), a2, out=ws.rhs)
    return solve_directional(ops, 2, td, rhs)


def step_mcs(ops: SplitOperators, params: SchemeParams, u: np.ndarray) -> np.ndarray:
    """Advance a field by one MCS step."""
    theta, dt = params.theta, params.dt
    td = theta * dt
    ws = ops._workspace()
    dy = _douglas_predictor(ops, params, u, ws)
    np.subtract(dy, u, out=dy)  # Y2 - U, in the memory of Y2
    y0, aux = ws.y0, ws.aux
    a0dy = apply_split_operator(ops, 0, dy, out=ws.rhs)
    np.add(y0, np.multiply(td, a0dy, out=aux), out=y0)  # Yh0
    np.add(a0dy, apply_split_operator(ops, 1, dy, out=aux), out=a0dy)
    np.add(a0dy, apply_split_operator(ops, 2, dy, out=aux), out=a0dy)
    np.add(y0, np.multiply((0.5 - theta) * dt, a0dy, out=a0dy), out=y0)  # Yt0
    del dy  # freed before the solves allocate their arrays
    rhs = np.subtract(solve_directional(ops, 1, td, np.subtract(y0, ws.a1, out=y0)), ws.a2,
                      out=ws.rhs)
    return solve_directional(ops, 2, td, rhs)


def step_douglas(ops: SplitOperators, params: SchemeParams, u: np.ndarray) -> np.ndarray:
    """Advance a field by one Douglas step (the MCS predictor alone)."""
    return _douglas_predictor(ops, params, u, ops._workspace())


_STEP_FUNCTIONS = {"mcs": step_mcs, "douglas": step_douglas}


def get_step_function(scheme: str):
    """Map a scheme name ("mcs" or "douglas") to its step function."""
    try:
        return _STEP_FUNCTIONS[scheme]
    except KeyError:
        raise DomainError(f"unknown scheme {scheme!r}, expected one of {sorted(_STEP_FUNCTIONS)}")


def predicted_amplification(scheme: str, theta: float, pt: SpectralPoint) -> complex:
    """Closed-form per-step factor of either scheme at one spectral point."""
    get_step_function(scheme)
    if scheme == "douglas":
        return 1.0 + (pt.z0 + pt.z) / pt.p(theta)
    return eval_stability_function(theta, pt)


def mode_amplification(
    scheme: str,
    coeffs: PdeCoefficients,
    grid: GridSpec,
    params: SchemeParams,
    mode: FourierMode,
) -> complex:
    """Per-step factor of one Fourier mode, measured on the actual stepper.

    Runs one step on the cosine and sine fields of the mode and projects the
    results onto the complex mode; for a correct implementation this equals
    the closed-form amplification factor to rounding accuracy.
    """
    step = get_step_function(scheme)
    ops = build_split_operators(coeffs, grid)
    ang = mode.phase_field(grid)
    uc, us = np.cos(ang), np.sin(ang)
    wc = step(ops, params, uc)
    ws = step(ops, params, us)
    m = uc + 1j * us
    return complex(np.vdot(m, wc + 1j * ws) / np.vdot(m, m))


@dataclass(frozen=True)
class ManufacturedProblem:
    """Periodic test problem made of a few Fourier modes.

    The semi-discrete system u' = (A0 + A1 + A2) u acts diagonally on the
    modes, so its exact solution at any time is available in closed form
    and the full time-discretization error of a stepper can be measured
    directly.
    """

    coeffs: PdeCoefficients
    grid: GridSpec
    theta: float
    modes: tuple[tuple[int, int, float], ...]
    t_final: float
    coarsest_steps: int

    def initial_field(self) -> np.ndarray:
        u = np.zeros(self.grid.shape)
        for k1, k2, amp in self.modes:
            u += amp * np.cos(FourierMode(k1, k2).phase_field(self.grid))
        return u

    def semi_discrete_reference(self) -> np.ndarray:
        """Exact solution of the semi-discrete system at t_final, mode by mode via the FFT."""
        z0, z1, z2 = fourier_symbol_grid(self.coeffs, self.grid, self.t_final)
        return np.fft.ifft2(np.fft.fft2(self.initial_field()) * np.exp(z0 + z1 + z2)).real


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a convergence study."""

    dt: float
    max_error: float
    observed_order: float  # nan on the coarsest level


def default_convergence_problem() -> ManufacturedProblem:
    """Two-mode convection-diffusion fixture with a genuine mixed term."""
    return ManufacturedProblem(
        coeffs=PdeCoefficients(c1=0.4, c2=-0.3, d11=0.05, d12=0.015, d21=0.015, d22=0.03),
        grid=GridSpec(m1=12, m2=12, dx=1.0 / 12.0, dy=1.0 / 12.0, beta=0.0),
        theta=1.0 / 3.0,
        modes=((1, 1, 1.0), (2, 1, 0.4)),
        t_final=1.0,
        coarsest_steps=8,
    )


def run_convergence_study(
    problem: ManufacturedProblem | None = None,
    scheme: str = "mcs",
    levels: int = 4,
) -> list[ConvergenceRow]:
    """Error of the stepper against the exact semi-discrete solution.

    Halves dt `levels` times starting from t_final / coarsest_steps and
    reports the max-norm error at t_final plus the observed order
    log2(err_coarse / err_fine) between consecutive levels.
    """
    if problem is None:
        problem = default_convergence_problem()
    step = get_step_function(scheme)
    ops = build_split_operators(problem.coeffs, problem.grid)
    reference = problem.semi_discrete_reference()
    rows: list[ConvergenceRow] = []
    prev_err = math.nan
    for level in range(levels):
        steps = problem.coarsest_steps << level
        dt = problem.t_final / steps
        params = SchemeParams(problem.theta, dt)
        u = problem.initial_field()
        for _ in range(steps):
            u = step(ops, params, u)
        err = float(np.max(np.abs(u - reference)))
        order = math.log2(prev_err / err) if rows and err > 0.0 else math.nan
        rows.append(ConvergenceRow(dt, err, order))
        prev_err = err
    return rows


def field_max_norm(u: np.ndarray) -> float:
    """Max-norm of a grid field."""
    return float(np.abs(u).max())


def field_l2(u: np.ndarray) -> float:
    """Grid-normalized discrete L2 norm sqrt(mean(u^2))."""
    u = np.asarray(u, dtype=float)
    return float(math.sqrt(float(np.mean(u * u))))


def write_field_csv(path, u: np.ndarray) -> None:
    """Write a field as CSV rows "i,j,u" in row-major order, full precision."""
    u = np.asarray(u)
    # one %-format per grid row, whose template has the row index spliced in as text
    row_fmt = "".join(f"%d,{j},%.17g\n" for j in range(u.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,u\n")
        for i, row in enumerate(u):
            fh.write(row_fmt.replace("%d", str(i)) % tuple(row.tolist()))

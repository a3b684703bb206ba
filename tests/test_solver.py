import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mcs_adi.solver import (
    _BAND_POINTS,
    _DENSE_MAX,
    _EPS,
    _RESIDUAL_RTOL,
    _check_peaks,
    ManufacturedProblem,
    SingularSystemError,
    apply_split_operator,
    build_split_operators,
    default_convergence_problem,
    field_l2,
    field_max_norm,
    get_step_function,
    mode_amplification,
    predicted_amplification,
    run_convergence_study,
    solve_directional,
    step_douglas,
    step_mcs,
    validate_field,
    write_field_csv,
)
from mcs_adi.spectrum import FourierMode, GridSpec, PdeCoefficients, fourier_symbols
from mcs_adi.stability import DomainError, SchemeParams, eval_stability_function

COEFFS = PdeCoefficients(c1=0.7, c2=-0.4, d11=0.3, d12=0.1, d21=0.05, d22=0.2)
GRID = GridSpec(m1=7, m2=9, dx=0.2, dy=0.25, beta=-0.5)
# solves by FFTs, its stencils and solve checks in three row bands of 126, 126 and 5 rows
FFT_GRID = GridSpec(m1=_DENSE_MAX + 1, m2=_DENSE_MAX + 3, dx=0.2, dy=0.25, beta=-0.5)


def dense_operator(coeffs, grid, which):
    """Independent dense transcription of the three split operators.

    Written from the difference quotients directly (loops + modular index
    arithmetic); the mixed stencil is the central cross plus beta times the
    tensor product of 1D second differences.
    """
    m1, m2, dx, dy = grid.m1, grid.m2, grid.dx, grid.dy
    n = m1 * m2
    mat = np.zeros((n, n))

    def idx(i, j):
        return (i % m1) * m2 + (j % m2)

    sec = {-1: 1.0, 0: -2.0, 1: 1.0}
    w = (coeffs.d12 + coeffs.d21) / (4.0 * dx * dy)
    for i in range(m1):
        for j in range(m2):
            row = idx(i, j)
            if which == 1:
                mat[row, idx(i + 1, j)] += coeffs.d11 / dx**2 + coeffs.c1 / (2.0 * dx)
                mat[row, idx(i - 1, j)] += coeffs.d11 / dx**2 - coeffs.c1 / (2.0 * dx)
                mat[row, row] += -2.0 * coeffs.d11 / dx**2
            elif which == 2:
                mat[row, idx(i, j + 1)] += coeffs.d22 / dy**2 + coeffs.c2 / (2.0 * dy)
                mat[row, idx(i, j - 1)] += coeffs.d22 / dy**2 - coeffs.c2 / (2.0 * dy)
                mat[row, row] += -2.0 * coeffs.d22 / dy**2
            else:
                for di in (-1, 1):
                    for dj in (-1, 1):
                        mat[row, idx(i + di, j + dj)] += w * di * dj
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        mat[row, idx(i + di, j + dj)] += grid.beta * w * sec[di] * sec[dj]
    return mat


@pytest.mark.parametrize("which", [0, 1, 2])
def test_apply_matches_dense_transcription(which):
    ops = build_split_operators(COEFFS, GRID)
    mat = dense_operator(COEFFS, GRID, which)
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(5):
        u = rng.standard_normal(GRID.shape)
        got = apply_split_operator(ops, which, u)
        want = (mat @ u.ravel()).reshape(GRID.shape)
        scale = float(np.max(np.abs(want))) + 1.0
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def _apply_rolled(ops, j, u):
    # reference: each stencil as a sum of np.roll copies, in the solver's order;
    # A0 adds the neighbours that share a weight before weighting their sum,
    # with the weights of the SplitOperators docstring
    if j == 0:
        mix = ops.coeffs.mixed_sum / (4.0 * ops.grid.dx * ops.grid.dy)
        beta = ops.grid.beta

        def nb(di, dj):
            return np.roll(u, (-di, -dj), axis=(0, 1))

        groups = [
            ((1.0 + beta) * mix, nb(1, 1) + nb(-1, -1)),
            (-(1.0 - beta) * mix, nb(-1, 1) + nb(1, -1)),
            (-2.0 * beta * mix, ((nb(1, 0) + nb(-1, 0)) + nb(0, 1)) + nb(0, -1)),
            (4.0 * beta * mix, u),
        ]
        terms = [weight * s for weight, s in groups if weight != 0.0]
        return sum(terms[1:], terms[0]) if terms else np.zeros_like(u)
    sub, diag, sup, _ = ops.directional_stencil(j)
    return sub * np.roll(u, 1, j - 1) + diag * u + sup * np.roll(u, -1, j - 1)


@pytest.mark.parametrize("beta", [0.0, 0.5, -1.0, 1.0])
@pytest.mark.parametrize(
    # 257x259 runs in three bands (126, 126 and 5 rows), 3x40000 in bands of one row
    "shape", [(3, 3), (3, 5), (5, 3), (8, 6), (257, 259), (3, 40000)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_apply_matches_rolled_stencils_bitwise(shape, beta):
    grid = GridSpec(m1=shape[0], m2=shape[1], dx=0.2, dy=0.25, beta=beta)
    ops = build_split_operators(COEFFS, grid)
    u = np.random.Generator(np.random.Philox(key=13)).standard_normal(shape)
    for j in (0, 1, 2):
        want = _apply_rolled(ops, j, u)
        assert np.array_equal(apply_split_operator(ops, j, u), want)
        out = np.full(shape, np.nan)  # stale contents must not leak into the result
        assert apply_split_operator(ops, j, u, out=out) is out
        assert np.array_equal(out, want)


def test_apply_rejects_bad_operator_index():
    ops = build_split_operators(COEFFS, GRID)
    with pytest.raises(DomainError):
        apply_split_operator(ops, 3, np.zeros(GRID.shape))


def test_apply_rejects_out_overlapping_its_input():
    ops = build_split_operators(COEFFS, GRID)
    u = np.ones(GRID.shape)
    for j in (0, 1, 2):
        with pytest.raises(DomainError, match="overlap"):
            apply_split_operator(ops, j, u, out=u)


@pytest.mark.parametrize("out", [
    np.zeros((3, 3)), np.zeros(GRID.shape, np.int64), np.zeros(GRID.shape, np.float32),
    np.zeros(GRID.shape, complex), np.zeros(GRID.shape).tolist(),
], ids=["shape", "int64", "float32", "complex128", "list"])
def test_apply_rejects_out_that_is_not_a_float64_grid_field(out):
    ops = build_split_operators(COEFFS, GRID)
    u = np.ones(GRID.shape)
    for j in (0, 1, 2):
        with pytest.raises(DomainError, match="^out must be a float64 array of shape "):
            apply_split_operator(ops, j, u, out=out)


def test_constant_field_annihilated():
    # derivative operators kill constants; exactly for pure diffusion
    # (the +a, -2a, +a products share one rounding), to roundoff otherwise
    ops = build_split_operators(COEFFS, GRID)
    u = np.full(GRID.shape, 3.7)
    for j in (0, 1, 2):
        assert float(np.max(np.abs(apply_split_operator(ops, j, u)))) <= 1e-13
    pure = build_split_operators(PdeCoefficients(d11=0.4, d22=0.2), GRID)
    assert np.all(apply_split_operator(pure, 1, u) == 0.0)
    assert np.all(apply_split_operator(pure, 2, u) == 0.0)


def test_field_validation():
    with pytest.raises(DomainError):
        validate_field(GRID, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        validate_field(GRID, np.zeros(GRID.shape, dtype=int))
    bad = np.zeros(GRID.shape)
    bad[0, 0] = math.nan
    with pytest.raises(DomainError):
        validate_field(GRID, bad)


@pytest.mark.parametrize(
    "dtype, accepted",
    [(np.float16, True), (np.float32, True), (np.float64, True),
     (np.int64, False), (bool, False), (np.complex128, False), (object, False)],
    ids=lambda v: v if isinstance(v, bool) else np.dtype(v).name,
)
def test_validate_field_accepts_real_float_dtypes_only(dtype, accepted):
    u = np.zeros(GRID.shape, dtype=dtype)
    if accepted:
        assert validate_field(GRID, u) is u
    else:
        with pytest.raises(DomainError, match="real float"):
            validate_field(GRID, u)


# ---------------------------------------------------------- directional solves


def test_solve_directional_zero_shift_copies():
    ops = build_split_operators(COEFFS, GRID)
    rhs = np.arange(63, dtype=float).reshape(GRID.shape)
    out = solve_directional(ops, 1, 0.0, rhs)
    assert np.array_equal(out, rhs) and out is not rhs


@pytest.mark.parametrize("j", [1, 2])
def test_solve_directional_roundtrip(j):
    ops = build_split_operators(COEFFS, GRID)
    rng = np.random.Generator(np.random.Philox(key=3))
    rhs = rng.standard_normal(GRID.shape)
    x = solve_directional(ops, j, 0.07, rhs)
    back = x - 0.07 * apply_split_operator(ops, j, x)
    assert float(np.max(np.abs(back - rhs))) <= 1e-12


EVEN_GRID = GridSpec(m1=8, m2=16, dx=0.2, dy=0.25, beta=-0.5)


def _stage_matrix(ops, j, td):
    # dense M = I - td A_j along axis j - 1, entries as in SplitOperators._stage
    sub, diag, sup, n = ops.directional_stencil(j)
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = 1.0 - td * diag
        mat[i, (i + 1) % n] = -td * sup
        mat[i, (i - 1) % n] = -td * sub
    return mat


@pytest.mark.parametrize(
    "j, grid, td, tol",
    [
        pytest.param(1, GRID, 0.11, 1e-11, id="1"),
        pytest.param(2, GRID, 0.11, 1e-11, id="2"),
        # even n has a Nyquist mode; measured error 4.4e-16 in both directions
        pytest.param(1, EVEN_GRID, 0.11, 1e-11, id="even-1"),
        pytest.param(2, EVEN_GRID, 0.11, 1e-11, id="even-2"),
        # stiff theta*dt, cond(M) up to 7.8e6 (cond * eps ~ 1.7e-9);
        # measured errors 6.2e-11, 7.6e-11 (7x9) and 3.9e-11, 4.6e-11 (8x16)
        pytest.param(1, GRID, 2.6e5, 1e-9, id="stiff-1"),
        pytest.param(2, GRID, 2.6e5, 1e-9, id="stiff-2"),
        pytest.param(1, EVEN_GRID, 2.6e5, 1e-9, id="stiff-even-1"),
        pytest.param(2, EVEN_GRID, 2.6e5, 1e-9, id="stiff-even-2"),
    ],
)
def test_solve_directional_matches_dense_solve(j, grid, td, tol):
    ops = build_split_operators(COEFFS, grid)
    mat = _stage_matrix(ops, j, td)
    rng = np.random.Generator(np.random.Philox(key=5))
    rhs = rng.standard_normal(grid.shape)
    got = solve_directional(ops, j, td, rhs)
    if j == 1:
        want = np.linalg.solve(mat, rhs)
    else:
        want = np.linalg.solve(mat, rhs.T).T
    assert float(np.max(np.abs(got - want))) <= tol


def test_residual_guard_rejects_perturbed_solution(monkeypatch):
    # GRID solves by the cached dense inverses, in one row band; FFT_GRID
    # solves by FFTs, in three row bands of 126, 126 and 5 rows.  A
    # perturbation of x confined to the periodic wrap (the last row for j = 1)
    # or to the last band (the last entry of the last column for j = 2 on
    # FFT_GRID) must still fail the check
    assert len(range(0, FFT_GRID.m1, _BAND_POINTS // FFT_GRID.m2)) == 3
    for grid in (GRID, FFT_GRID):
        ops = build_split_operators(COEFFS, grid)
        rhs = np.random.Generator(np.random.Philox(key=17)).standard_normal(grid.shape)
        for j in (1, 2):  # the unperturbed solves pass the guard
            x = solve_directional(ops, j, 0.11, rhs)
            assert float(np.max(np.abs(x - 0.11 * apply_split_operator(ops, j, x) - rhs))) <= 1e-12
        # x = inv @ rhs (j = 1) or rhs @ inv (j = 2) on GRID; the FFT x-solve
        # ends in a complex ifft, the y-solve in an irfft
        for j, inverse, where in ((1, "ifft", np.s_[-1]), (2, "irfft", np.s_[-1, -1])):
            with monkeypatch.context() as patch:
                if grid is GRID:
                    for key, (m_sub, m_diag, m_sup, rlam, inv) in list(ops._stages.items()):
                        inv = inv.copy()
                        inv[np.s_[-1] if key[0] == 1 else np.s_[:, -1]] *= 1.0 + 1e-6
                        patch.setitem(ops._stages, key, (m_sub, m_diag, m_sup, rlam, inv))
                else:
                    def perturbed(*args, f=getattr(np.fft, inverse), where=where, **kwargs):
                        x = f(*args, **kwargs)
                        x[where] *= 1.0 + 1e-6
                        return x

                    patch.setattr(np.fft, inverse, perturbed)
                with pytest.raises(SingularSystemError, match="backward-error"):
                    solve_directional(ops, j, 0.11, rhs)


@pytest.mark.parametrize("n, coeffs, td", [
    (16, PdeCoefficients(c1=1.0, d11=0.05, d22=0.05), 2.6e5),
    (256, PdeCoefficients(d11=1.0), 1e7),
    (64, PdeCoefficients(c1=1.0, d11=0.5), 1e8),
], ids=["16-convection", "256-diffusion", "64-convection"])
def test_stiff_one_mode_stage_is_solved_by_ffts_with_one_check(n, coeffs, td, monkeypatch):
    # stiff stages (cond(M) = 1.3e7, 2.6e12, 8.2e11) with n u ||M|| ||inv|| past
    # _RESIDUAL_RTOL (2.4e-8 at n = 16): on the Nyquist mode along x the large
    # k = 0 entries of a dense inverse cancel, and x = inv @ rhs missed the
    # backward-error check (by 3.9x at n = 16; at n = 256 and 64 even after a
    # refinement step, residual 5.1e-9 and 3.0e-9 against 2.0e-10).  _stage
    # keeps no inverse for them, and the FFT solve passes its one check
    grid = GridSpec(m1=n, m2=6, dx=1.0 / n, dy=1.0 / 6)
    ops = build_split_operators(coeffs, grid)
    calls = []

    def counted(*args):
        calls.append(args)
        return _check_peaks(*args)

    monkeypatch.setattr("mcs_adi.solver._check_peaks", counted)
    rhs = np.repeat(np.cos(np.pi * np.arange(n))[:, None], 6, axis=1)
    x = solve_directional(ops, 1, td, rhs)
    m_sub, m_diag, m_sup, _, inv = ops._stage(1, td)
    assert inv is None and len(calls) == 1
    # the Nyquist mode is an eigenvector of M with eigenvalue m_diag - m_sub - m_sup;
    # measured error 0
    want = rhs / (m_diag - m_sub - m_sup)
    assert float(np.max(np.abs(x - want))) <= 1e-9 * float(np.max(np.abs(want)))


@pytest.mark.parametrize("grid", [GRID, FFT_GRID], ids=["dense-one-band", "fft-three-bands"])
@pytest.mark.parametrize("j", [1, 2])
def test_check_peaks_reports_the_dense_residual(j, grid):
    # a random x leaves a residual of the size of M x, so a wrong shift or
    # weight in the band kernel shows far above the few ulps of rounding
    ops = build_split_operators(COEFFS, grid)
    m_sub, m_diag, m_sup = ops._stage(j, 0.11)[:3]
    rng = np.random.Generator(np.random.Philox(key=43))
    x, rhs = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    residual, x_max, rhs_max = _check_peaks(ops._workspace(), j, m_sub, m_diag, m_sup, x, rhs)
    mat = _stage_matrix(ops, j, 0.11)
    mx = mat @ x if j == 1 else x @ mat.T
    assert x_max == float(np.max(np.abs(x))) and rhs_max == float(np.max(np.abs(rhs)))
    scale = (abs(m_diag) + abs(m_sub) + abs(m_sup)) * x_max + rhs_max
    assert abs(residual - float(np.max(np.abs(mx - rhs)))) <= 4 * np.finfo(float).eps * scale


def _half_spectrum(ops, j, td):
    # eigenvalues of M = I - td A_j for Fourier modes k = 0 .. n // 2, by the
    # closed form of the solve_directional docstring (cond(M) reaches 1e4 here,
    # so other roundings of lam move the solves by more than 1e-13)
    sub, diag, sup, n = ops.directional_stencil(j)
    m_sub, m_diag, m_sup = -td * sub, 1.0 - td * diag, -td * sup
    phi = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    return m_diag + (m_sub + m_sup) * np.cos(phi) + 1j * ((m_sup - m_sub) * np.sin(phi))


@pytest.mark.parametrize("n", [3, 16, _DENSE_MAX, _DENSE_MAX + 1])
@pytest.mark.parametrize("j", [1, 2])
def test_dense_and_fft_solves_agree(j, n):
    # random PSD problems; the solver keeps the dense inverse iff n <= _DENSE_MAX
    # and n u ||M|| ||inv|| <= _RESIDUAL_RTOL, and both formulas are checked
    # against it.  Measured worst: 2.2e-15.
    rng = np.random.Generator(np.random.Philox(key=37 + n))
    axis = j - 1
    dense_draws = 0
    for _ in range(12):
        d11, d22 = rng.uniform(0.0, 1.0, 2)
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        shape = (n, 6) if j == 1 else (6, n)
        grid = GridSpec(m1=shape[0], m2=shape[1], dx=1.0 / shape[0], dy=1.0 / shape[1])
        ops = build_split_operators(PdeCoefficients(c1=c1, c2=c2, d11=d11, d22=d22), grid)
        td = 10.0 ** rng.uniform(-5.0, -1.0)
        rhs = rng.standard_normal(shape)
        x = solve_directional(ops, j, td, rhs)
        lam = _half_spectrum(ops, j, td)
        lam = lam[:, None] if j == 1 else lam
        fft = np.fft.irfft(np.fft.rfft(rhs, axis=axis) / lam, n=n, axis=axis)
        inv = np.fft.irfft(np.fft.rfft(np.eye(n), axis=axis) / lam, n=n, axis=axis)
        norm_m = float(np.abs(_stage_matrix(ops, j, td)).sum(axis=1).max())
        norm_inv = float(np.abs(inv).sum(axis=1 if j == 1 else 0).max())
        kept = n <= _DENSE_MAX and n * _EPS * norm_m * norm_inv <= _RESIDUAL_RTOL
        assert (ops._stage(j, td)[4] is not None) == kept
        dense_draws += kept
        dense = inv @ rhs if j == 1 else rhs @ inv
        scale = float(np.max(np.abs(fft)))
        assert float(np.max(np.abs(x - fft))) <= 1e-13 * scale
        assert float(np.max(np.abs(x - dense))) <= 1e-13 * scale
    assert dense_draws > 0 if n <= _DENSE_MAX else dense_draws == 0


@pytest.mark.parametrize("layout", ["C", "F", "float32"])
@pytest.mark.parametrize("m2", [5, 6], ids=["odd", "even"])
@pytest.mark.parametrize("m1", [_DENSE_MAX + 1, _DENSE_MAX + 4, 2 * _DENSE_MAX + 1])
def test_fft_x_solve_matches_rfft_formula_on_any_layout(m1, m2, layout):
    # the rhs is converted to float64 on entry; a C-ordered one of even width is
    # viewed as complex column pairs, any other is copied into a zero-padded
    # array first.  Even m1 has a Nyquist mode, which the full spectrum of
    # 1/lam_k must not repeat
    grid = GridSpec(m1=m1, m2=m2, dx=1.0 / m1, dy=1.0 / m2, beta=0.5)
    ops = build_split_operators(COEFFS, grid)
    rhs = np.random.Generator(np.random.Philox(key=41)).standard_normal(grid.shape)
    rhs = {"C": rhs, "F": np.asfortranarray(rhs), "float32": rhs.astype(np.float32)}[layout]
    kept = rhs.copy(order="K")
    x = solve_directional(ops, 1, 0.01, rhs)
    lam = _half_spectrum(ops, 1, 0.01)[:, None]
    want = np.fft.irfft(np.fft.rfft(rhs.astype(np.float64), axis=0) / lam, n=m1, axis=0)
    assert x.dtype == np.float64 and x.shape == grid.shape
    assert float(np.max(np.abs(x - want))) <= 1e-13 * float(np.max(np.abs(want)))
    assert np.array_equal(rhs, kept) and rhs.dtype == kept.dtype
    assert rhs.flags.f_contiguous == kept.flags.f_contiguous
    for buf in vars(ops._workspace()).values():
        assert not (isinstance(buf, np.ndarray) and np.shares_memory(x, buf))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("n", [16, _DENSE_MAX + 4], ids=["dense", "fft"])
@pytest.mark.parametrize("j", [1, 2])
def test_solve_directional_solves_low_precision_rhs_in_double(j, n, dtype):
    # single-precision FFTs of a float32 rhs used to miss the 1e-10 backward-error
    # bound; the last two cases have a diagonal stage matrix (theta dt = 0, or no
    # coefficients), solved by one division that used to keep the rhs's precision
    shape = (n, 6) if j == 1 else (6, n)
    grid = GridSpec(m1=shape[0], m2=shape[1], dx=1.0 / shape[0], dy=1.0 / shape[1])
    rhs = np.random.Generator(np.random.Philox(key=43)).standard_normal(shape).astype(dtype)
    for coeffs, td in ((COEFFS, 0.01), (COEFFS, 0.0), (PdeCoefficients(), 0.01)):
        ops = build_split_operators(coeffs, grid)
        x = solve_directional(ops, j, td, rhs)
        want = solve_directional(ops, j, td, rhs.astype(np.float64))
        assert x.dtype == np.float64
        assert float(np.max(np.abs(x - want))) <= 1e-13 * float(np.max(np.abs(want)))


def test_stage_eigenvalue_cache_is_keyed_by_direction_and_theta_dt():
    ops = build_split_operators(COEFFS, GRID)
    rhs = np.random.Generator(np.random.Philox(key=19)).standard_normal(GRID.shape)
    for j, td in ((1, 0.11), (2, 0.11), (1, 0.2), (2, 0.2), (1, 0.11)):
        fresh = build_split_operators(COEFFS, GRID)
        assert np.array_equal(solve_directional(ops, j, td, rhs),
                              solve_directional(fresh, j, td, rhs))


def test_solve_directional_rejects_bad_direction():
    ops = build_split_operators(COEFFS, GRID)
    with pytest.raises(DomainError):
        solve_directional(ops, 0, 0.1, np.zeros(GRID.shape))


def test_singular_system_detected():
    # I - td*A1 for pure diffusion on a 4-point ring has eigenvalues
    # 1 - 2 td (1 - cos(pi k / 2)): 1, 0.5, 0, 0.5 at td = -0.25 and
    # 1, 0, -1, 0 at td = -0.5.  A singular stage matrix raises whatever the
    # right-hand side, including one in its range (ones at -0.25, the
    # alternating field at -0.5).
    ops = build_split_operators(
        PdeCoefficients(d11=1.0), GridSpec(m1=4, m2=4, dx=1.0, dy=1.0)
    )
    alternating = np.tile(np.array([[1.0], [-1.0]]), (2, 4))
    for td, rhs in ((-0.25, np.ones((4, 4))), (-0.25, alternating), (-0.5, alternating)):
        with pytest.raises(SingularSystemError):
            solve_directional(ops, 1, td, rhs)


# ------------------------------------------------------------------ stepping


def test_zero_coefficients_step_is_identity():
    ops = build_split_operators(PdeCoefficients(), GridSpec(m1=8, m2=8, dx=0.1, dy=0.1))
    u = np.arange(64, dtype=float).reshape(8, 8)
    params = SchemeParams(0.5, 0.125)
    assert np.array_equal(step_mcs(ops, params, u), u)
    assert np.array_equal(step_douglas(ops, params, u), u)


def _step_reference(scheme, ops, params, u):
    # the allocating array expressions of the stage formulas, in their order
    theta, dt = params.theta, params.dt
    td = theta * dt
    a0u, a1u, a2u = (_apply_rolled(ops, j, u) for j in (0, 1, 2))
    y0 = u + dt * (a0u + a1u + a2u)
    y1 = solve_directional(ops, 1, td, y0 - td * a1u)
    y2 = solve_directional(ops, 2, td, y1 - td * a2u)
    if scheme == "douglas":
        return y2
    dy = y2 - u
    a0dy = _apply_rolled(ops, 0, dy)
    yh0 = y0 + td * a0dy
    yt0 = yh0 + (0.5 - theta) * dt * (a0dy + _apply_rolled(ops, 1, dy) + _apply_rolled(ops, 2, dy))
    yt1 = solve_directional(ops, 1, td, yt0 - td * a1u)
    return solve_directional(ops, 2, td, yt1 - td * a2u)


@pytest.mark.parametrize("scheme", ["mcs", "douglas"])
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize(
    "shape",
    # (260, 6) and (6, 260) solve one direction by FFT, the others both by
    # dense inverses; the last two run their kernels in several row bands, the
    # last of them shorter (32, 32 and 3 rows; 819 and 211 rows), and also mix
    # the dense and FFT solves
    [(3, 3), (3, 4), (3, 5), (8, 6), (64, 48), (_DENSE_MAX + 4, 6), (6, _DENSE_MAX + 4),
     (67, 1024), (1030, 40)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_step_matches_allocating_stage_expressions_bitwise(shape, beta, scheme):
    grid = GridSpec(m1=shape[0], m2=shape[1], dx=0.2, dy=0.25, beta=beta)
    ops = build_split_operators(COEFFS, grid)
    step = get_step_function(scheme)
    for theta in (1.0 / 3.0, 0.5):  # 1/3: the (1/2 - theta) term of Yt0 is not zero
        params = SchemeParams(theta, 0.05)
        u = want = np.random.Generator(np.random.Philox(key=23)).standard_normal(shape)
        for _ in range(4):
            u, want = step(ops, params, u), _step_reference(scheme, ops, params, want)
            assert np.array_equal(u, want)


def _solve_core_peak(u):
    # what the step may not avoid: one product with a cached inverse, or one
    # FFT round trip (an rfft/irfft pair along axis 0 allocates 2.0 fields at
    # 260^2, the x-solve's fft/ifft pair on the column pairs 2.2)
    inv = np.eye(u.shape[0])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if u.shape[0] <= _DENSE_MAX:
            inv @ u
        else:
            np.fft.irfft(np.fft.rfft(u, axis=0), n=u.shape[0], axis=0)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [128, _DENSE_MAX + 4], ids=["dense", "fft"])
def test_warm_step_allocates_only_its_solve_arrays(n):
    grid = GridSpec(m1=n, m2=n, dx=1.0 / n, dy=1.0 / n, beta=0.5)
    ops = build_split_operators(COEFFS, grid)
    params = SchemeParams(1.0 / 3.0, 1e-3)
    u = step_mcs(ops, params, np.random.Generator(np.random.Philox(key=29)).standard_normal(grid.shape))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        u = step_mcs(ops, params, u)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the product allocates 1 field and, with numpy 2, the FFT pair about 2, so
    # the bound is about 3 or 4 fields; the step peaked at 2.5 (dense, 128^2)
    # and 2.4 (FFT); with its temporaries allocated it peaked at about 15
    assert peak < _solve_core_peak(u) + 2 * u.nbytes


@pytest.mark.parametrize("n", [16, 128])
def test_axis_1_stencil_allocates_only_the_finiteness_mask(n):
    # the shifts along axis 1 run as flat passes over contiguous rows, so numpy
    # needs no iterator buffers for them (which cost 3.5 fields at 16^2 and 1.5
    # at 128^2 when they added transposed views); nor does A0, whose neighbours
    # are flat slices of the band halo (2-D halo views cost 2.7 and 1.0 fields);
    # what remains is the boolean mask and reduction of validate_field, which
    # every apply makes
    grid = GridSpec(m1=n, m2=n, dx=1.0 / n, dy=1.0 / n, beta=0.5)
    ops = build_split_operators(COEFFS, grid)
    u = np.random.Generator(np.random.Philox(key=53)).standard_normal(grid.shape)
    out = np.empty(grid.shape)
    apply_split_operator(ops, 2, u, out=out)  # builds the workspace

    def peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    mask = peak(lambda: validate_field(grid, u))
    for j in (0, 2):
        assert peak(lambda: apply_split_operator(ops, j, u, out=out)) - mask < 0.05 * u.nbytes


def test_threads_sharing_operators_step_like_serial_runs():
    grid = GridSpec(m1=32, m2=24, dx=0.2, dy=0.25, beta=0.5)
    ops = build_split_operators(COEFFS, grid)
    params = SchemeParams(1.0 / 3.0, 0.05)
    rng = np.random.Generator(np.random.Philox(key=31))
    starts = [rng.standard_normal(grid.shape) for _ in range(4)]  # more threads than cores

    def run(u, scheme, steps=25):
        step = get_step_function(scheme)
        for _ in range(steps):
            u = step(ops, params, u)
        return u

    jobs = [(u, scheme) for u, scheme in zip(starts, ["mcs", "douglas"] * 2)]
    want = [run(*job) for job in jobs]
    got = [None] * len(jobs)

    def worker(k):
        got[k] = run(*jobs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("scheme", ["mcs", "douglas"])
def test_step_results_do_not_share_memory(scheme):
    ops = build_split_operators(COEFFS, GRID)
    params = SchemeParams(1.0 / 3.0, 0.05)
    step = get_step_function(scheme)
    u = np.random.Generator(np.random.Philox(key=37)).standard_normal(GRID.shape)
    first = step(ops, params, u)
    second = step(ops, params, first)
    kept = first.copy()
    third = step(ops, params, second)
    assert np.array_equal(first, kept)
    results = (u, first, second, third)
    for k, a in enumerate(results):
        for b in results[k + 1:]:
            assert not np.shares_memory(a, b)


def test_get_step_function_dispatch():
    assert get_step_function("mcs") is step_mcs
    assert get_step_function("douglas") is step_douglas
    with pytest.raises(DomainError):
        get_step_function("adi")


# ------------------------------------------------- amplification cross-check


def _random_case(rng):
    m1 = int(rng.integers(4, 33))
    m2 = int(rng.integers(4, 33))
    dx, dy = rng.uniform(0.02, 0.5, 2)
    e = rng.standard_normal((2, 2))
    d = e.T @ e * rng.uniform(0.1, 2.0)
    mix = 2.0 * d[0, 1]
    split = rng.uniform(0.0, 1.0)
    c1, c2 = rng.uniform(-2.0, 2.0, 2)
    beta = rng.uniform(-1.0, 1.0)
    theta = [1.0 / 3.0, 0.4, 0.5, 0.75, 1.0][int(rng.integers(0, 5))]
    k1 = int(rng.integers(0, m1))
    k2 = int(rng.integers(0, m2))
    # keep dt under an explicit-stability-style bound so magnitudes stay tame
    lam = (
        4.0 * (d[0, 0] / dx**2 + d[1, 1] / dy**2)
        + abs(c1) / dx + abs(c2) / dy + abs(mix) / (dx * dy) + 1.0
    )
    dt = rng.uniform(0.05, 5.0) / lam
    coeffs = PdeCoefficients(c1=c1, c2=c2, d11=d[0, 0], d12=mix * split,
                             d21=mix * (1.0 - split), d22=d[1, 1])
    grid = GridSpec(m1=m1, m2=m2, dx=dx, dy=dy, beta=beta)
    return coeffs, grid, SchemeParams(theta, dt), FourierMode(k1, k2)


def test_mode_amplification_matches_closed_form():
    rng = np.random.Generator(np.random.Philox(key=2718))
    for _ in range(10):
        coeffs, grid, params, mode = _random_case(rng)
        pt = fourier_symbols(coeffs, grid, params.dt, mode)
        for scheme in ("mcs", "douglas"):
            pred = predicted_amplification(scheme, params.theta, pt)
            if abs(pred) < 0.05:
                continue  # skip ill-conditioned relative comparisons
            meas = mode_amplification(scheme, coeffs, grid, params, mode)
            assert abs(meas - pred) <= 1e-12 * abs(pred)


def test_douglas_factor_is_mcs_without_correction_terms():
    # with z0 = 0 and theta = 1/2 the corrector stages change nothing
    pt = fourier_symbols(PdeCoefficients(c1=0.5, d11=0.2, d22=0.3),
                         GRID, 0.05, FourierMode(2, 3))
    assert pt.z0 == 0.0
    d = predicted_amplification("douglas", 0.5, pt)
    s = eval_stability_function(0.5, pt)
    assert abs(d - s) <= 1e-14 * max(1.0, abs(s))


def test_zero_mode_amplification_is_one():
    params = SchemeParams(0.5, 0.3)
    s = mode_amplification("mcs", COEFFS, GRID, params, FourierMode(0, 0))
    assert abs(s - 1.0) <= 1e-13


# ------------------------------------------------------------- convergence


def test_default_problem_initial_field_is_cosine_sum():
    prob = default_convergence_problem()
    u = prob.initial_field()
    grid = prob.grid
    ii = np.arange(grid.m1)[:, None]
    jj = np.arange(grid.m2)[None, :]
    want = np.zeros(grid.shape)
    for k1, k2, amp in prob.modes:
        want += amp * np.cos(2.0 * np.pi * (k1 * ii / grid.m1 + k2 * jj / grid.m2))
    assert float(np.max(np.abs(u - want))) <= 1e-13


def test_convergence_rows_show_second_order():
    rows = run_convergence_study(levels=2)
    assert math.isnan(rows[0].observed_order)
    assert rows[1].dt == rows[0].dt / 2.0
    assert rows[1].max_error < rows[0].max_error
    assert 1.8 <= rows[1].observed_order <= 2.2


def test_convergence_study_accepts_custom_problem():
    prob = dataclasses.replace(default_convergence_problem(), theta=0.5)
    rows = run_convergence_study(prob, scheme="douglas", levels=2)
    assert len(rows) == 2 and rows[1].max_error < rows[0].max_error


# ------------------------------------------------------------ field helpers


def test_field_norms():
    u = np.array([[3.0, -4.0], [0.0, 0.0]])
    assert field_max_norm(u) == 4.0
    assert abs(field_l2(u) - 2.5) <= 1e-15


def test_write_field_csv_roundtrip(tmp_path):
    u = np.array([[1.0, 2.5], [-3.25, 1e-17]])
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,u"
    assert len(lines) == 5
    i, j, val = lines[3].split(",")
    assert (int(i), int(j)) == (1, 0)
    assert float(val) == -3.25


def _write_field_csv_per_element(path, u):
    # reference: one f-string and one write per grid point
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,u\n")
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                fh.write(f"{i},{j},{u[i, j]:.17g}\n")


def test_write_field_csv_matches_per_element_writer(tmp_path):
    u = np.random.default_rng(5).standard_normal((7, 12)) * 10.0 ** np.arange(-6, 6)
    u[0, :6] = [-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1]
    u[3, 11] = -2.2250738585072014e-308
    write_field_csv(tmp_path / "new.csv", u)
    _write_field_csv_per_element(tmp_path / "old.csv", u)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert "\n0,0,-0\n" in (tmp_path / "new.csv").read_text()


@pytest.mark.parametrize(
    "coeffs, grid",
    [
        (PdeCoefficients(d11=0.05), GridSpec(m1=8, m2=8, dx=1e-160, dy=0.1)),
        (PdeCoefficients(d11=1e308), GridSpec(m1=8, m2=8, dx=0.1, dy=0.1)),
    ],
)
def test_split_operators_reject_overflowing_stencil(coeffs, grid):
    with pytest.raises(DomainError, match="stencil"):
        build_split_operators(coeffs, grid)

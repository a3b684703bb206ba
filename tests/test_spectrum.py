import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mcs_adi.spectrum import (
    ConeReport,
    FourierMode,
    GridSpec,
    PdeCoefficients,
    fourier_symbol_grid,
    fourier_symbols,
    verify_cone_all_modes,
)
from mcs_adi.stability import DomainError, cone_condition


# ------------------------------------------------------------- coefficients


def test_coefficients_default_to_zero():
    c = PdeCoefficients()
    assert (c.c1, c.c2, c.d11, c.d12, c.d21, c.d22) == (0.0,) * 6
    assert c.mixed_sum == 0.0


def test_coefficients_reject_negative_diagonal():
    with pytest.raises(DomainError):
        PdeCoefficients(d11=-0.1, d22=1.0)
    with pytest.raises(DomainError):
        PdeCoefficients(d11=math.nan, d22=1.0)


def test_coefficients_reject_indefinite_matrix():
    # d11*d22 = 0.01 < ((d12+d21)/2)^2 = 1
    with pytest.raises(DomainError):
        PdeCoefficients(d11=0.1, d22=0.1, d12=1.0, d21=1.0)
    # huge entries: unscaled, det and its tolerance both overflow to -inf
    for kwargs in (dict(d12=1e200, d21=1e200), dict(d12=1e308)):
        with pytest.raises(DomainError, match="positive semidefinite"):
            PdeCoefficients(**kwargs)


def test_coefficients_accept_degenerate_psd():
    c = PdeCoefficients(d11=0.7, d22=0.175, d12=0.35, d21=0.35)
    assert c.mixed_sum == 0.7  # equality case (d12+d21)^2 = 4 d11 d22
    for big in (1e200, 1e308):  # the same equality case, where d11*d22 overflows
        PdeCoefficients(d11=big, d22=big, d12=big, d21=big)


# --------------------------------------------------------------------- grid


def test_grid_validation():
    GridSpec(m1=3, m2=3, dx=0.1, dy=0.1)
    with pytest.raises(DomainError):
        GridSpec(m1=2, m2=3, dx=0.1, dy=0.1)
    with pytest.raises(DomainError):
        GridSpec(m1=4, m2=4, dx=0.0, dy=0.1)
    with pytest.raises(DomainError):
        GridSpec(m1=4, m2=4, dx=1e-300, dy=0.1)  # dx*dx underflows to 0
    with pytest.raises(DomainError):
        GridSpec(m1=4, m2=4, dx=0.1, dy=math.inf)
    with pytest.raises(DomainError):
        GridSpec(m1=4, m2=4, dx=0.1, dy=0.1, beta=1.5)


def test_grid_and_mode_reject_non_integers():
    # a float size fails later with a bare TypeError; a float wavenumber
    # answers for a wave that is not a grid mode
    with pytest.raises(DomainError, match="integers"):
        GridSpec(m1=4.5, m2=4, dx=1.0, dy=1.0)
    with pytest.raises(DomainError, match="integers"):
        FourierMode(1.5, 0)
    # the numpy product 2**32 * 2**32 wraps to 0 and would pass the size guard
    with pytest.raises(DomainError, match="too large"):
        GridSpec(np.int64(2**32), np.int64(2**32), 1.0, 1.0)
    assert GridSpec(np.int64(4), np.int64(5), 1.0, 1.0).shape == (4, 5)
    assert FourierMode(np.int64(1), 0).phases(GridSpec(4, 4, 1.0, 1.0)) == (math.pi / 2.0, 0.0)


def test_grid_shape_and_scales():
    g = GridSpec(m1=6, m2=8, dx=0.5, dy=0.25)
    assert g.shape == (6, 8)
    a1, a2, b = g.symbol_scales(2.0)
    assert (a1, a2, b) == (8.0, 32.0, 16.0)


def test_mode_validation():
    with pytest.raises(DomainError):
        FourierMode(-1, 0)
    g = GridSpec(m1=4, m2=4, dx=0.1, dy=0.1)
    with pytest.raises(DomainError):
        FourierMode(4, 0).phases(g)
    phi1, phi2 = FourierMode(1, 2).phases(g)
    assert phi1 == 2.0 * math.pi / 4.0
    assert phi2 == math.pi


# ------------------------------------------------------------------ symbols


def test_zero_mode_has_zero_symbols():
    coeffs = PdeCoefficients(c1=1.0, c2=-1.0, d11=0.5, d12=0.2, d21=0.2, d22=0.5)
    grid = GridSpec(m1=8, m2=8, dx=0.1, dy=0.1, beta=0.3)
    pt = fourier_symbols(coeffs, grid, 0.01, FourierMode(0, 0))
    assert pt.z0 == 0.0 and pt.z1 == 0.0 and pt.z2 == 0.0


def test_convection_only_symbols_are_imaginary():
    coeffs = PdeCoefficients(c1=0.8, c2=-0.6)
    grid = GridSpec(m1=8, m2=8, dx=0.1, dy=0.2)
    pt = fourier_symbols(coeffs, grid, 0.05, FourierMode(1, 3))
    assert pt.z0 == 0.0
    assert pt.z1.real == 0.0 and pt.z2.real == 0.0
    assert pt.z1.imag != 0.0 and pt.z2.imag != 0.0


def test_diffusion_only_symbols_are_real_nonpositive():
    coeffs = PdeCoefficients(d11=0.5, d22=0.25)
    grid = GridSpec(m1=8, m2=8, dx=0.1, dy=0.2)
    for k1 in range(8):
        for k2 in range(8):
            pt = fourier_symbols(coeffs, grid, 0.05, FourierMode(k1, k2))
            assert pt.z1.imag == 0.0 and pt.z2.imag == 0.0
            assert pt.z1.real <= 0.0 and pt.z2.real <= 0.0


def test_mixed_symbol_is_real():
    coeffs = PdeCoefficients(d11=0.5, d12=0.3, d21=0.1, d22=0.5)
    grid = GridSpec(m1=6, m2=10, dx=0.1, dy=0.15, beta=-0.7)
    for k1 in range(6):
        for k2 in range(10):
            pt = fourier_symbols(coeffs, grid, 0.02, FourierMode(k1, k2))
            assert pt.z0.imag == 0.0


def test_symbol_grid_matches_per_mode_exactly():
    coeffs = PdeCoefficients(c1=0.7, c2=-0.4, d11=0.3, d12=0.1, d21=0.05, d22=0.2)
    grid = GridSpec(m1=7, m2=9, dx=0.2, dy=0.25, beta=-0.5)
    z0, z1, z2 = fourier_symbol_grid(coeffs, grid, 0.13)
    assert z0.shape == (7, 9) and z1.shape == (7, 9) and z2.shape == (7, 9)
    assert np.isrealobj(z0)
    for k1 in range(7):
        for k2 in range(9):
            pt = fourier_symbols(coeffs, grid, 0.13, FourierMode(k1, k2))
            assert pt.z0 == complex(z0[k1, k2])
            assert pt.z1 == complex(z1[k1, k2])
            assert pt.z2 == complex(z2[k1, k2])


def test_symbols_scale_bitwise_with_dt_doubling():
    # dt enters every symbol as an exact linear factor; doubling dt is a
    # power-of-two scaling, which commutes with rounding
    coeffs = PdeCoefficients(c1=0.7, c2=-0.4, d11=0.3, d12=0.1, d21=0.05, d22=0.2)
    grid = GridSpec(m1=7, m2=9, dx=0.2, dy=0.25, beta=0.4)
    za = fourier_symbol_grid(coeffs, grid, 0.3)
    zb = fourier_symbol_grid(coeffs, grid, 0.6)
    for a, b in zip(za, zb):
        assert np.array_equal(2.0 * a, b)


# ------------------------------------------------------------- cone checks


def test_cone_report_all_modes_psd():
    coeffs = PdeCoefficients(c1=0.5, c2=-0.5, d11=0.4, d12=0.15, d21=0.15, d22=0.3)
    grid = GridSpec(m1=12, m2=10, dx=0.1, dy=0.12, beta=0.5)
    rep = verify_cone_all_modes(coeffs, grid, 0.05)
    assert isinstance(rep, ConeReport)
    assert rep.ok and rep.min_margin >= -1e-12
    # the reported worst mode really is a mode of the grid
    pt = fourier_symbols(coeffs, grid, 0.05, rep.worst_mode)
    assert cone_condition(pt, slack=1e-12)


@pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda c, g, dt: fourier_symbols(c, g, dt, FourierMode(1, 2)),
    fourier_symbol_grid,
    verify_cone_all_modes,
], ids=["fourier_symbols", "fourier_symbol_grid", "verify_cone_all_modes"])
def test_symbols_reject_a_time_step_that_is_not_positive_and_finite(call, dt):
    # a negative dt puts Re z1 and Re z2 above 0, off the cone, yet the cone
    # margin reads only their product and |z0|, so it used to report ok
    coeffs = PdeCoefficients(c1=0.4, c2=-0.3, d11=0.05, d12=0.015, d21=0.015, d22=0.03)
    grid = GridSpec(m1=24, m2=24, dx=1.0 / 24, dy=1.0 / 24)
    with pytest.raises(DomainError, match=f"^dt must be positive and finite, got {dt!r}$"):
        call(coeffs, grid, dt)


def test_cone_report_tie_resolves_to_first_mode():
    # no diffusion and no mixed term: every margin is exactly zero, and the
    # lexicographically first mode wins the tie
    coeffs = PdeCoefficients(c1=1.0, c2=1.0)
    grid = GridSpec(m1=5, m2=5, dx=0.1, dy=0.1)
    rep = verify_cone_all_modes(coeffs, grid, 0.01)
    assert rep.min_margin == 0.0
    assert rep.worst_mode == FourierMode(0, 0)


def test_degenerate_diffusion_touches_cone_at_nyquist():
    # d12 + d21 = 2 sqrt(d11 d22) with beta = 1: the Nyquist mode lands
    # exactly on the cone boundary (margin 0 up to rounding), with a
    # genuinely nonzero mixed symbol
    coeffs = PdeCoefficients(d11=0.7, d12=0.35, d21=0.35, d22=0.175)
    grid = GridSpec(m1=8, m2=8, dx=0.25, dy=0.25, beta=1.0)
    pt = fourier_symbols(coeffs, grid, 0.1, FourierMode(4, 4))
    bound = 2.0 * math.sqrt(pt.z1.real * pt.z2.real)
    assert abs(pt.z0) > 1.0
    assert abs(bound - abs(pt.z0)) <= 1e-10
    rep = verify_cone_all_modes(coeffs, grid, 0.1)
    assert rep.min_margin >= -1e-12


@given(
    e11=hst.floats(min_value=-1.5, max_value=1.5),
    e12=hst.floats(min_value=-1.5, max_value=1.5),
    e21=hst.floats(min_value=-1.5, max_value=1.5),
    e22=hst.floats(min_value=-1.5, max_value=1.5),
    split=hst.floats(min_value=0.0, max_value=1.0),
    beta=hst.floats(min_value=-1.0, max_value=1.0),
    c1=hst.floats(min_value=-2.0, max_value=2.0),
    c2=hst.floats(min_value=-2.0, max_value=2.0),
    m1=hst.integers(min_value=3, max_value=12),
    m2=hst.integers(min_value=3, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_psd_coefficients_keep_all_modes_in_cone(
    e11, e12, e21, e22, split, beta, c1, c2, m1, m2
):
    # D = E^T E is PSD by construction; the mixed coefficient is split
    # arbitrarily between d12 and d21 (only the sum matters)
    d11 = e11 * e11 + e21 * e21
    d22 = e12 * e12 + e22 * e22
    mix = 2.0 * (e11 * e12 + e21 * e22)
    coeffs = PdeCoefficients(
        c1=c1, c2=c2, d11=d11, d12=mix * split, d21=mix * (1.0 - split), d22=d22
    )
    grid = GridSpec(m1=m1, m2=m2, dx=0.2, dy=0.25, beta=beta)
    rep = verify_cone_all_modes(coeffs, grid, 0.1)
    assert rep.min_margin >= -1e-12

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from mcs_adi.analysis import BLOCK_SAMPLES, _draw_cone_block, _row_slices
from mcs_adi.stability import (
    DomainError,
    PoleError,
    SchemeParams,
    SpectralPoint,
    cone_condition,
    eval_stability_function,
    imaginary_axis_margin,
    lemma2_gap,
    stability_function,
    stability_function_quadratic,
    thm5_bound,
)

finite = hst.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- dataclasses


def test_scheme_params_validation():
    SchemeParams(0.5, 0.1)
    with pytest.raises(DomainError):
        SchemeParams(0.0, 0.1)
    with pytest.raises(DomainError):
        SchemeParams(-0.3, 0.1)
    with pytest.raises(DomainError):
        SchemeParams(0.5, 0.0)
    with pytest.raises(DomainError):
        SchemeParams(0.5, float("inf"))
    with pytest.raises(DomainError):
        SchemeParams(float("nan"), 0.1)
    # numpy orders complex numbers lexicographically: 1j > 0 there
    for theta in (1j, 0.5 + 0j, "0.5", None):
        with pytest.raises(DomainError, match=r"^theta must be positive and finite, got "):
            SchemeParams(theta, 0.1)


def test_spectral_point_coercion_and_sum():
    pt = SpectralPoint(1, -2.0, 3j)
    assert isinstance(pt.z0, complex) and pt.z0 == 1 + 0j
    assert pt.z == -2.0 + 3j


def test_spectral_point_p_is_the_denominator_of_s():
    # S * p^2 = z0^2/2 + w*z0 + q is a quadratic in z0 with leading
    # coefficient 1/2, so its second difference with step h is exactly h^2
    theta, h = 0.37, 0.25 - 0.5j
    z1, z2 = -1.2 + 0.4j, -0.5 - 2.0j
    p = SpectralPoint(0.0, z1, z2).p(theta)
    lhs = [stability_function_quadratic(theta, 0.3 + k * h, z1, z2) * p * p for k in (-1, 0, 1)]
    assert abs(lhs[0] - 2.0 * lhs[1] + lhs[2] - h * h) <= 1e-13 * max(1.0, abs(lhs[1]))


# ------------------------------------------------------- stability function


def test_stability_function_at_origin_is_one():
    assert stability_function(0.5, 0.0, 0.0, 0.0) == 1.0
    assert stability_function_quadratic(0.3, 0.0, 0.0, 0.0) == 1.0


def test_boundary_triplet_value_is_exactly_one():
    # the all-real cone-boundary triplet (-2/theta, -1/theta, -1/theta)
    # evaluates to exactly 1.0 in floating point at theta = 1/3
    theta = 1.0 / 3.0
    s = eval_stability_function(theta, SpectralPoint(-6.0, -3.0, -3.0))
    assert s == 1.0 + 0.0j


@given(
    theta=hst.floats(min_value=0.1, max_value=1.0),
    re0=hst.floats(min_value=-3, max_value=3),
    im0=hst.floats(min_value=-3, max_value=3),
    re1=hst.floats(min_value=-3, max_value=3),
    im1=hst.floats(min_value=-3, max_value=3),
    re2=hst.floats(min_value=-3, max_value=3),
    im2=hst.floats(min_value=-3, max_value=3),
)
@example(theta=1.0, re0=-1.9254240922487968, im0=0.0, re1=0.97265625, im1=0.0,
         re2=0.953125, im2=0.0)  # near a pole: |S| ~ 417 but the summed terms ~ 2.3e6
@settings(max_examples=300)
def test_two_forms_agree(theta, re0, im0, re1, im1, re2, im2):
    z0, z1, z2 = complex(re0, im0), complex(re1, im1), complex(re2, im2)
    p = (1.0 - theta * z1) * (1.0 - theta * z2)
    if abs(p) < 1e-6:
        return
    s1 = stability_function(theta, z0, z1, z2)
    s2 = stability_function_quadratic(theta, z0, z1, z2)
    # the forms sum different terms, of sizes up to |zz/p|^2 and |z0/p|^2, so
    # their rounding scales with those, not with |S|
    zz = z0 + z1 + z2
    scale = max(1.0, abs(zz / p), abs(zz / p) ** 2, abs(z0 / p) ** 2)
    assert abs(s1 - s2) <= 1e-13 * scale


def test_stability_function_broadcasts():
    theta = 0.4
    z0 = np.array([0.0, -0.5, 1.0 + 1.0j])
    z1 = np.array([-1.0, -2.0 + 1.0j, -0.1])
    z2 = np.array([-1.0, -0.3, -4.0 - 2.0j])
    vec = stability_function(theta, z0, z1, z2)
    for i in range(3):
        # scalar and SIMD complex paths may differ in the last ulp
        one = stability_function(theta, z0[i], z1[i], z2[i])
        assert abs(vec[i] - one) <= 1e-13 * max(1.0, abs(one))


def _reference_stability_function(theta, z0, z1, z2):
    # the out-of-place expression, whose bits the evaluation's in-place add and
    # divide must keep
    z = z1 + z2
    p = (1.0 - theta * z1) * (1.0 - theta * z2)
    zz = z0 + z
    return 1.0 + zz / p + (theta * z0 * zz + (0.5 - theta) * zz * zz) / (p * p)


def _scan_batches():
    """(name, z0, z1, z2) of every kind of batch the scans evaluate."""
    cplx = _draw_cone_block(3, 0, BLOCK_SAMPLES, True)
    real = _draw_cone_block(3, 1, BLOCK_SAMPLES, False)
    yield "complex_z0_block", *cplx
    yield "complex_z0_one_element", *(z[:1] for z in cplx)
    yield "real_z0_block", *real
    yield "real_z0_block_float_z0", real[0].real.copy(), *real[1:]
    mags = 10.0 ** np.linspace(-3.0, 3.0, 1201)
    b = np.concatenate([-mags[::-1], mags])
    bands = _row_slices(b.size, b.size)
    assert len(range(b.size)[bands[-1]]) == 26  # the partial last band
    for rows in (bands[0], bands[-1]):
        yield f"thm1_band_{rows.start}", 0.0, 1j * b[rows, None], 1j * b[None, :]
    mags = 10.0 ** np.linspace(-3.0, 3.0, 241)
    y = 2.0 * np.sqrt(mags[:, None] * mags[None, :])
    yield "thm2_band", -0.7 * y, -mags[:, None], -mags[None, :]
    x = np.linspace(0.2, 5.0, 193)[:, None]
    phi = np.linspace(-0.6, 0.6, 24)[None, :]
    z1 = -x / 0.4 + 0.0j
    yield "thm4_grid", 2.0 * np.abs(z1.real) * (np.cos(phi) + 1j * np.sin(phi)), z1, z1
    # numpy scalars; Python complex scalars take CPython's complex arithmetic
    # in both the reference and the evaluation
    yield "scalar", np.complex128(-0.3 + 0.2j), np.complex128(-1.5 + 0.7j), np.complex128(-0.2 - 2.0j)


@pytest.mark.parametrize("theta", [0.24, 0.25, 1.0 / 3.0, 0.4, 5.0 / 12.0, 0.5, 1.0])
def test_evaluation_is_bit_identical_to_the_expression(theta):
    for name, z0, z1, z2 in _scan_batches():
        want = _reference_stability_function(theta, z0, z1, z2)
        got = stability_function(theta, z0, z1, z2)
        assert np.asarray(want).dtype == np.asarray(got).dtype, name
        assert np.array_equal(want, got), name
        # the scans hand in the theta-free sum once per block
        hoisted = stability_function(theta, z0, z1, z2, zz=z0 + (z1 + z2))
        assert np.asarray(hoisted).dtype == np.asarray(want).dtype, name
        assert np.array_equal(want, hoisted), name
        if name == "thm2_band":
            assert got.dtype == np.float64


def test_eval_raises_at_pole():
    # theta*z1 = 1 makes the implicit denominator exactly zero
    with pytest.raises(PoleError):
        eval_stability_function(0.5, SpectralPoint(0.0, 2.0, -1.0))


def test_eval_raises_when_a_form_is_not_finite():
    # on the cone at theta = 0.4, where the exact |S| is 0.875: p^2 overflows,
    # so the additive form reads S = -1.5 and the quadratic form NaN
    pt = SpectralPoint(5.162e67 + 4.075e67j, -3.728e154 + 276.8j, -5.93e-20 - 1.954e-8j)
    assert cone_condition(pt)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError):
        eval_stability_function(0.4, pt)


def test_eval_returns_python_complex():
    s = eval_stability_function(0.5, SpectralPoint(0.0, -1.0, -1.0))
    assert isinstance(s, complex)


# ------------------------------------------------------------ cone condition


def test_cone_condition_basic():
    assert cone_condition(SpectralPoint(0.0, -1.0, -1.0))
    assert cone_condition(SpectralPoint(2.0, -1.0, -1.0))  # exactly on boundary
    assert not cone_condition(SpectralPoint(2.0000001, -1.0, -1.0))
    assert not cone_condition(SpectralPoint(0.0, 1e-12, -1.0))  # Re z1 > 0
    assert cone_condition(SpectralPoint(0.0, 1e-12, -1.0), slack=1e-9)


def test_cone_condition_zero_real_part_no_nan():
    # Re z1 = 0 makes the product 0; the clamp keeps sqrt well defined
    assert cone_condition(SpectralPoint(0.0, 1j, -1.0))
    assert not cone_condition(SpectralPoint(0.1, 1j, -1.0))


@given(t=hst.floats(min_value=1e-150, max_value=1e150))
@settings(max_examples=300)
def test_cone_boundary_never_rejected_by_rounding(t):
    # |z0| = 2t with Re z1 = Re z2 = -t sits exactly on the cone boundary;
    # sqrt(fl(t*t)) >= t in IEEE double (away from subnormals), so the
    # boundary point is always admitted
    assert cone_condition(SpectralPoint(2.0 * t, -t, -t))


# --------------------------------------------------- imaginary-axis margin


def test_imaginary_axis_margin_zeros_and_signs():
    assert imaginary_axis_margin(0.25) == 0.0
    assert imaginary_axis_margin(0.5) == 0.0
    assert imaginary_axis_margin(0.24) < 0.0
    assert imaginary_axis_margin(0.3) > 0.0
    assert imaginary_axis_margin(1.0) == 0.5


# -------------------------------------------------------------- lemma2 gap


def test_lemma2_gap_exact_zero_case():
    # z1 = z2 = -1, theta = 1/2: |p/2theta| - |p/2theta + z| = 2.25 - 0.25 = 2
    # equals the cone radius 2*sqrt(1*1) exactly
    assert lemma2_gap(0.5, -1.0 + 0.0j, -1.0 + 0.0j) == 0.0


def test_lemma2_gap_domain_errors():
    with pytest.raises(DomainError):
        lemma2_gap(0.5, 0.1 + 0.0j, -1.0 + 0.0j)
    with pytest.raises(DomainError):
        lemma2_gap(-0.5, -1.0 + 0.0j, -1.0 + 0.0j)
    with pytest.raises(DomainError):
        lemma2_gap(0.0, -1.0 + 0.0j, -1.0 + 0.0j)


def test_lemma2_gap_array_input():
    theta = np.array([0.5, 0.3])
    z1 = np.array([-1.0 + 1.0j, -2.0 - 1.0j])
    z2 = np.array([-1.0 - 1.0j, -0.5 + 0.0j])
    g = lemma2_gap(theta, z1, z2)
    assert g.shape == (2,)
    assert np.all(g >= -1e-12)


@given(
    theta=hst.floats(min_value=0.1, max_value=1.0),
    a1=hst.floats(min_value=1e-3, max_value=10),
    b1=hst.floats(min_value=-10, max_value=10),
    a2=hst.floats(min_value=1e-3, max_value=10),
    b2=hst.floats(min_value=-10, max_value=10),
)
@settings(max_examples=300)
def test_lemma2_gap_matches_direct_formula_and_is_nonnegative(theta, a1, b1, a2, b2):
    # on moderate magnitudes the naive |A| - |A+z| difference is accurate
    # enough to serve as an independent oracle for the rearranged formula
    z1, z2 = complex(-a1, b1), complex(-a2, b2)
    g = lemma2_gap(theta, z1, z2)
    a = (1.0 - theta * z1) * (1.0 - theta * z2) / (2.0 * theta)
    naive = abs(a) - abs(a + z1 + z2) - 2.0 * math.sqrt(a1 * a2)
    assert abs(g - naive) <= 1e-9
    assert g >= -1e-12


# ------------------------------------------------------------- thm5 pieces


def test_thm5_bound_spot_value():
    # e = -1.5: f1 = |1 - 0.75| = 0.25, f2 = |2 - 3| = 1; (0.25 + 0.25 + 1) / 2
    assert thm5_bound(0.5, 0.5, math.pi) == 0.75


def test_thm5_bound_domain():
    with pytest.raises(DomainError):
        thm5_bound(0.5, 1.5, 0.0)
    with pytest.raises(DomainError):
        thm5_bound(0.5, -0.1, 0.0)
    with pytest.raises(DomainError):
        thm5_bound(0.0, 0.5, 0.0)
    with pytest.raises(DomainError, match=r"^theta must be positive and finite, got 1j$"):
        thm5_bound(1j, 0.5, 0.1)


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_thm5_bound_is_one_at_zero_phase(theta):
    r = np.linspace(0.0, 1.0, 57)
    dev = np.abs(np.asarray(thm5_bound(theta, r, 0.0)) - 1.0)
    assert float(dev.max()) <= 1e-13


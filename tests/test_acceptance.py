"""End-to-end acceptance criteria.

Each test pins one headline guarantee of the package with explicit
tolerances.  They are numbered so `pytest -v` reads as a checklist; each one
also prints a summary line (visible with `pytest -s` or on failure).  The
Monte-Carlo tests use fixed seeds and full production sample counts, so this
module takes ~10 s; everything is deterministic and thread-count invariant.
"""

import dataclasses
import math

import numpy as np

from mcs_adi.analysis import (
    complex_z0_scan,
    default_theta_grid,
    figure1_scan,
    lemma2_random_min_gap,
    thm1_threshold_scan,
    thm2_real_grid_scan,
    thm3_cubic_coefficient,
    thm4_maximize,
    thm4_witness_search,
)
from mcs_adi.solver import (
    build_split_operators,
    default_convergence_problem,
    field_l2,
    mode_amplification,
    predicted_amplification,
    run_convergence_study,
    step_mcs,
)
from mcs_adi.spectrum import (
    FourierMode,
    GridSpec,
    PdeCoefficients,
    fourier_symbols,
    verify_cone_all_modes,
)
from mcs_adi.stability import (
    SchemeParams,
    cone_condition,
    eval_stability_function,
    imaginary_axis_margin,
    thm5_bound,
)

FULL_SAMPLES = 2_000_000
DESK_SAMPLES = 200_000


def test_criterion_01_monte_carlo_scan_reproduces_instability_profile():
    # At theta = 1/3 the sampled max |S| sits visibly above 1; from 0.4 on it
    # stays at or below 1 to within sampling slack.
    third = figure1_scan(seed=0, samples=FULL_SAMPLES, thetas=(1.0 / 3.0,))
    peak = third.max_abs_s[0]
    assert 1.005 <= peak <= 1.04

    desk = figure1_scan(seed=0, samples=DESK_SAMPLES, thetas=(1.0 / 3.0,))
    assert 1.0 <= desk.max_abs_s[0] <= 1.05

    upper = tuple(t for t in default_theta_grid() if t >= 0.4 - 1e-12)
    assert len(upper) == 41
    report = figure1_scan(seed=0, samples=FULL_SAMPLES, thetas=upper)
    worst = max(report.max_abs_s)
    assert worst <= 1.0 + 1e-9
    print(f"ACCEPTANCE 1 PASS: max|S| at theta=1/3 is {peak:.5f} "
          f"(desk-scale {desk.max_abs_s[0]:.5f}); worst over theta>=0.4 is {worst:.12f}")


def test_criterion_02_pure_imaginary_spectrum_threshold_at_one_quarter():
    assert abs(imaginary_axis_margin(0.25)) <= 1e-15
    assert abs(imaginary_axis_margin(0.5)) <= 1e-15
    assert imaginary_axis_margin(0.24) < 0.0
    for theta in (0.25, 0.5, 1.0):
        assert thm1_threshold_scan(theta).max_abs_s <= 1.0 + 1e-12
    below = thm1_threshold_scan(0.24).max_abs_s
    assert below >= 1.0 + 1e-4
    print(f"ACCEPTANCE 2 PASS: imaginary-axis max|S| <= 1 for theta in "
          f"{{1/4, 1/2, 1}}, and reaches {below:.6f} at theta = 0.24")


def test_criterion_03_all_real_spectrum_threshold_at_one_third():
    for theta in (1.0 / 3.0, 0.5):
        assert thm2_real_grid_scan(theta).max_abs_s <= 1.0 + 1e-12
    r = thm2_real_grid_scan(0.32)
    assert r.max_abs_s >= 1.15
    assert cone_condition(r.witness)
    assert abs(eval_stability_function(0.32, r.witness)) > 1.0
    print(f"ACCEPTANCE 3 PASS: all-real cone max|S| <= 1 at theta >= 1/3; "
          f"reaches {r.max_abs_s:.4f} at theta = 0.32")


def test_criterion_04_cubic_error_coefficient_flips_sign_at_two_fifths():
    worst = 0.0
    for theta in (0.3, 0.4, 0.5):
        got = thm3_cubic_coefficient(theta)
        want = 40.0 * theta * theta - 16.0 * theta
        err = abs(got - want)
        assert err <= max(1e-3, 0.01 * abs(want))
        worst = max(worst, err)
    assert thm3_cubic_coefficient(0.3) < 0.0
    assert thm3_cubic_coefficient(0.5) > 0.0
    print(f"ACCEPTANCE 4 PASS: cubic coefficient matches 40 theta^2 - 16 theta "
          f"at theta in {{0.3, 0.4, 0.5}} (worst error {worst:.2e})")


def test_criterion_05_unit_disk_threshold_is_five_twelfths():
    x, value = thm4_maximize()
    assert abs(x - 2.0) <= 1e-8
    assert abs(value - 5.0 / 12.0) <= 1e-10
    wit = thm4_witness_search(0.40)
    assert wit is not None
    assert cone_condition(wit)
    grow = abs(eval_stability_function(0.40, wit))
    assert grow > 1.0 + 1e-10
    assert thm4_witness_search(0.45) is None
    print(f"ACCEPTANCE 5 PASS: threshold ratio peaks at x={x:.12g} with value "
          f"5/12; growth witness |S|={grow:.6f} at theta=0.40, none at 0.45")


def test_criterion_06_unconditional_bound_at_and_above_one_half():
    rr = np.linspace(0.0, 1.0, 100)
    phis = np.linspace(0.0, math.pi, 200)
    for theta in (0.5, 0.75, 1.0):
        flat = np.asarray(thm5_bound(theta, rr, 0.0))
        assert float(np.max(np.abs(flat - 1.0))) <= 1e-12
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            curve = np.asarray(thm5_bound(theta, r, phis))
            assert float(np.max(np.diff(curve))) <= 1e-12
    report = complex_z0_scan((0.5, 0.75, 1.0), seed=0, samples=1_000_000)
    worst = max(report.max_abs_s)
    assert worst <= 1.0 + 1e-12
    print(f"ACCEPTANCE 6 PASS: phase-dependent bound is 1 at phase 0 and "
          f"nonincreasing; sampled complex-cone max|S| = {worst:.9f}")


def test_criterion_07_quadratic_form_gap_never_goes_negative():
    gap = lemma2_random_min_gap(seed=0, samples=1_000_000)
    assert gap >= -1e-12
    print(f"ACCEPTANCE 7 PASS: minimum Cauchy-Schwarz gap over 1e6 draws is "
          f"{gap:.3e} (>= -1e-12)")


def test_criterion_08_every_grid_mode_satisfies_the_cone_condition():
    rng = np.random.Generator(np.random.Philox(key=13579))
    worst = math.inf
    for _ in range(10_000):
        e = rng.standard_normal((2, 2))
        d = e.T @ e
        split = rng.uniform(0.0, 1.0)
        c1, c2 = rng.uniform(-3.0, 3.0, 2)
        beta = rng.uniform(-1.0, 1.0)
        m1 = int(rng.integers(3, 17))
        m2 = int(rng.integers(3, 17))
        dx, dy = rng.uniform(0.05, 0.5, 2)
        dt = rng.uniform(0.01, 1.0)
        coeffs = PdeCoefficients(
            c1=c1, c2=c2, d11=d[0, 0], d12=2.0 * d[0, 1] * split,
            d21=2.0 * d[0, 1] * (1.0 - split), d22=d[1, 1],
        )
        grid = GridSpec(m1=m1, m2=m2, dx=dx, dy=dy, beta=beta)
        worst = min(worst, verify_cone_all_modes(coeffs, grid, dt).min_margin)
    assert worst >= -1e-12

    # sharpness: a rank-one diffusion matrix with beta = 1 touches the bound
    # at the Nyquist mode, where the mixed symbol is far from zero
    coeffs = PdeCoefficients(d11=0.7, d12=0.35, d21=0.35, d22=0.175)
    grid = GridSpec(m1=8, m2=8, dx=0.25, dy=0.25, beta=1.0)
    pt = fourier_symbols(coeffs, grid, 0.1, FourierMode(4, 4))
    bound = 2.0 * math.sqrt(pt.z1.real * pt.z2.real)
    assert abs(pt.z0) > 1.0
    assert abs(bound - abs(pt.z0)) <= 1e-10
    print(f"ACCEPTANCE 8 PASS: min cone margin over 1e4 random PSD setups is "
          f"{worst:.3e}; degenerate setup touches the bound (|z0| = {abs(pt.z0):.3f})")


def _random_step_case(rng):
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
    lam = (
        4.0 * (d[0, 0] / dx**2 + d[1, 1] / dy**2)
        + abs(c1) / dx + abs(c2) / dy + abs(mix) / (dx * dy) + 1.0
    )
    dt = rng.uniform(0.05, 5.0) / lam
    coeffs = PdeCoefficients(c1=c1, c2=c2, d11=d[0, 0], d12=mix * split,
                             d21=mix * (1.0 - split), d22=d[1, 1])
    grid = GridSpec(m1=m1, m2=m2, dx=dx, dy=dy, beta=beta)
    return coeffs, grid, SchemeParams(theta, dt), FourierMode(k1, k2)


def test_criterion_09_stepper_amplification_matches_closed_form():
    rng = np.random.Generator(np.random.Philox(key=987654321))
    worst = {"mcs": 0.0, "douglas": 0.0}
    accepted = {"mcs": 0, "douglas": 0}
    for _ in range(100):
        coeffs, grid, params, mode = _random_step_case(rng)
        pt = fourier_symbols(coeffs, grid, params.dt, mode)
        for scheme in ("mcs", "douglas"):
            pred = predicted_amplification(scheme, params.theta, pt)
            if abs(pred) < 0.05:
                continue  # relative comparison is meaningless near a zero
            meas = mode_amplification(scheme, coeffs, grid, params, mode)
            rel = abs(meas - pred) / abs(pred)
            worst[scheme] = max(worst[scheme], rel)
            accepted[scheme] += 1
    assert accepted["mcs"] >= 70 and accepted["douglas"] >= 70
    assert worst["mcs"] <= 1e-12
    assert worst["douglas"] <= 1e-12
    print(f"ACCEPTANCE 9 PASS: worst relative gap measured-vs-closed-form over "
          f"{accepted['mcs']}+{accepted['douglas']} cases: "
          f"mcs {worst['mcs']:.2e}, douglas {worst['douglas']:.2e}")


def test_criterion_10_second_order_in_time_where_expected():
    finest = {}
    rows = run_convergence_study(levels=4)
    finest["mcs @ 1/3"] = rows[-1].observed_order
    assert rows[-1].observed_order >= 1.9
    prob = dataclasses.replace(default_convergence_problem(), theta=0.5)
    rows = run_convergence_study(prob, levels=4)
    finest["mcs @ 1/2"] = rows[-1].observed_order
    assert rows[-1].observed_order >= 1.9
    rows = run_convergence_study(scheme="douglas", levels=4)
    finest["douglas @ 1/3"] = rows[-1].observed_order
    assert 0.8 <= rows[-1].observed_order <= 1.2
    print("ACCEPTANCE 10 PASS: observed orders at the finest step: "
          + ", ".join(f"{k} = {v:.3f}" for k, v in finest.items()))


def test_criterion_11_large_step_run_stays_bounded_at_one_half():
    coeffs = PdeCoefficients(c1=0.4, c2=-0.25, d11=0.08, d12=0.04, d21=0.04, d22=0.05)
    dx = 1.0 / 24.0
    grid = GridSpec(m1=24, m2=24, dx=dx, dy=dx, beta=0.0)
    dt = 1000.0 * dx * dx  # far beyond any explicit-scheme step restriction
    ops = build_split_operators(coeffs, grid)
    params = SchemeParams(0.5, dt)
    rng = np.random.Generator(np.random.Philox(key=42))
    u = rng.standard_normal(grid.shape)
    worst_ratio = -math.inf
    for _ in range(100):
        v = step_mcs(ops, params, u)
        worst_ratio = max(worst_ratio, field_l2(v) / field_l2(u))
        u = v
    assert worst_ratio <= 1.0 + 1e-10
    print(f"ACCEPTANCE 11 PASS: worst per-step L2 growth ratio over 100 steps "
          f"at 1000x the diffusion step is {worst_ratio:.6f}")

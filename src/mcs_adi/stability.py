"""Amplification factor of the MCS scheme and its sharp-threshold toolkit.

Applied to the split scalar test equation u' = (l0 + l1 + l2) u, one step of
the MCS scheme multiplies the solution by a rational function S of the scaled
eigenvalues zj = dt*lj.  With z = z1 + z2 and p = (1 - theta*z1)(1 - theta*z2),

    S = 1 + (z0 + z)/p + theta*z0*(z0 + z)/p^2 + (1/2 - theta)*(z0 + z)^2/p^2,

which regroups into the quadratic-in-z0 form (z0^2/2 + w*z0 + q)/p^2 with
q = p^2 + p*z + (1/2 - theta)*z^2 and w = p + (1 - theta)*z.  Both forms are
implemented and cross-checked.

The mixed-derivative eigenvalue z0 of a real cross-diffusion term always
satisfies the cone condition

    Re z1 <= 0,  Re z2 <= 0,  |z0| <= 2*sqrt(Re z1 * Re z2),

so unconditional stability questions reduce to: for which theta is |S| <= 1
on the whole cone?  The helpers below expose the closed-form quantities the
threshold analysis is built from (the imaginary-axis criterion for theta >=
1/4, a Cauchy-Schwarz gap, and the bound whose maximum over the cone is
exactly 1 for theta >= 1/2).

Everything here is a pure function; the evaluators broadcast over numpy
arrays so the Monte-Carlo scans in `analysis` can reuse them unchanged.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Relative pole guard: evaluation requires |p| >= POLE_RTOL * max(1, |z1||z2|theta^2).
POLE_RTOL = 1e-14

#: The two algebraic forms of S must agree to this (scaled) relative tolerance.
FORM_AGREEMENT_RTOL = 1e-13


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(ArithmeticError):
    """Evaluation requested too close to a pole of the amplification factor."""


def check_positive(name: str, value) -> None:
    """DomainError unless value is real, 0 < value < inf; an array must hold there elementwise."""
    v = np.asarray(value)
    # numpy orders complex numbers lexicographically, so 1j would pass the bounds
    real = v.dtype.kind in "biuf" or all(isinstance(x, numbers.Real) for x in v.flat)
    if not (real and np.all(v > 0.0) and np.all(v < math.inf)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameter theta and time step of one splitting run."""

    theta: float
    dt: float

    def __post_init__(self):
        check_positive("theta", self.theta)
        check_positive("dt", self.dt)


@dataclass(frozen=True)
class SpectralPoint:
    """Scaled eigenvalue triplet (z0, z1, z2) of the split test equation.

    z0 belongs to the mixed (explicitly treated) part, z1 and z2 to the two
    implicitly treated unidirectional parts.
    """

    z0: complex
    z1: complex
    z2: complex

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))

    @property
    def z(self) -> complex:
        """Sum z1 + z2 of the implicit eigenvalues."""
        return self.z1 + self.z2

    def p(self, theta: float) -> complex:
        """Implicit-stage denominator (1 - theta*z1)(1 - theta*z2)."""
        return (1.0 - theta * self.z1) * (1.0 - theta * self.z2)


def stability_function(theta, z0, z1, z2, zz=None):
    """Amplification factor of one MCS step, additive form.

    Broadcasts over numpy arrays; no pole or consistency checks are applied
    (this is the hot path of the scans).  S is evaluated as
    1 + zz/p + ((theta*z0)*zz + ((1/2 - theta)*zz)*zz)/(p*p), zz = z0 + (z1 + z2),
    in that operation order.  Many thetas on one batch may share a
    precomputed, read-only `zz`.
    """
    if zz is None:
        zz = z0 + (z1 + z2)
    p = (1.0 - theta * z1) * (1.0 - theta * z2)
    # the in-place add and divide keep the peak at three batch-sized arrays
    s = (theta * z0) * zz
    s += ((0.5 - theta) * zz) * zz
    s /= p * p
    return 1.0 + zz / p + s


def stability_function_quadratic(theta, z0, z1, z2):
    """Amplification factor written as (z0^2/2 + w*z0 + q)/p^2.

    Algebraically identical to `stability_function`; kept as an independent
    evaluation path for consistency checking.
    """
    z = z1 + z2
    p = (1.0 - theta * z1) * (1.0 - theta * z2)
    q = p * p + p * z + (0.5 - theta) * z * z
    w = p + (1.0 - theta) * z
    return (0.5 * z0 * z0 + w * z0 + q) / (p * p)


def eval_stability_function(theta: float, pt: SpectralPoint) -> complex:
    """Evaluate the amplification factor at one spectral point.

    Raises PoleError when |p| falls under the relative pole guard, and
    ArithmeticError unless both algebraic forms are finite and agree to
    FORM_AGREEMENT_RTOL (scaled by max(1, |S|)); anything else signals an
    ill-conditioned evaluation rather than a usable value.
    """
    p = pt.p(theta)
    tol = POLE_RTOL * max(1.0, abs(pt.z1) * abs(pt.z2) * theta * theta)
    if abs(p) < tol:
        raise PoleError(f"|p| = {abs(p):.3e} below pole tolerance {tol:.3e}")
    s1 = complex(stability_function(theta, pt.z0, pt.z1, pt.z2))
    s2 = complex(stability_function_quadratic(theta, pt.z0, pt.z1, pt.z2))
    agree = abs(s1 - s2) <= FORM_AGREEMENT_RTOL * max(1.0, abs(s1), abs(s2))
    if not (agree and cmath.isfinite(s1) and cmath.isfinite(s2)):
        raise ArithmeticError(
            f"stability function forms disagree or are not finite: {s1!r} vs {s2!r}"
        )
    return s1


def cone_condition(pt: SpectralPoint, slack: float = 0.0) -> bool:
    """Check Re z1 <= 0, Re z2 <= 0 and |z0| <= 2*sqrt(Re z1 * Re z2).

    `slack` is added to every right-hand side.  The product under the square
    root is clamped at zero so signed zeros and slack-admitted positive real
    parts cannot produce a NaN.
    """
    re1 = pt.z1.real
    re2 = pt.z2.real
    if re1 > slack or re2 > slack:
        return False
    prod = re1 * re2
    bound = 2.0 * math.sqrt(prod if prod > 0.0 else 0.0) + slack
    return abs(pt.z0) <= bound


def imaginary_axis_margin(theta: float) -> float:
    """Margin theta^2 - |theta^2 - 2*theta + 1/2| of the imaginary-axis criterion.

    Nonnegative exactly when |S(0, i*b1, i*b2)| <= 1 for all real b1, b2,
    i.e. for theta >= 1/4.  Zero at theta = 1/4 and theta = 1/2.
    """
    return theta * theta - abs(theta * theta - 2.0 * theta + 0.5)


def lemma2_gap(theta, z1, z2):
    """Cauchy-Schwarz gap |p/(2 theta)| - |p/(2 theta) + z| - 2*sqrt(Re z1 * Re z2).

    Nonnegative for every theta > 0 and Re z1 <= 0, Re z2 <= 0; this is the
    inequality that dominates |z0| on the cone by the implicit denominators.
    The difference of absolute values is computed through |A|^2 - |B|^2 to
    avoid the cancellation that would otherwise swamp the gap for small
    theta, where |p/(2 theta)| is huge.

    Accepts scalars or broadcasting numpy arrays; raises DomainError when
    any real part is positive or theta is not positive and finite.
    """
    check_positive("theta", theta)
    theta_a = np.asarray(theta, dtype=float)
    z1a = np.asarray(z1, dtype=complex)
    z2a = np.asarray(z2, dtype=complex)
    if not (np.all(z1a.real <= 0.0) and np.all(z2a.real <= 0.0)):
        raise DomainError("lemma2_gap requires Re z1 <= 0 and Re z2 <= 0")
    z = z1a + z2a
    a = (1.0 - theta_a * z1a) * (1.0 - theta_a * z2a) / (2.0 * theta_a)
    # |a| - |a + z| = (|a|^2 - |a + z|^2) / (|a| + |a + z|)
    denom = np.abs(a) + np.abs(a + z)
    num = -(2.0 * (np.conj(a) * z).real + z.real * z.real + z.imag * z.imag)
    gap = num / denom - 2.0 * np.sqrt(np.maximum(z1a.real * z2a.real, 0.0))
    return _maybe_scalar(gap)


def thm5_bound(theta, r, phi):
    """Cone-maximum bound ((1-r)^2 + 2(1-r) f1 + f2) / (8 theta^2) on |S|.

    Here r*e^{i phi} parameterizes 1 + 2*theta*z/p with 0 <= r <= 1 on the
    cone, and with e = r*e^{i phi} - 1 the two moduli are
    f1 = |2*theta + (1 - theta)*e| and f2 = |8*theta^2 + 4*theta*e + (1 - 2 theta)*e^2|.
    At phi = 0 the bound collapses to exactly 1 for every r, and for
    1/2 <= theta <= 1 it is nonincreasing in phi on [0, pi], which is what
    makes theta >= 1/2 sufficient for |S| <= 1 on the whole cone.
    theta, r and phi may be arrays that broadcast against each other.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr <= 1.0)):
        raise DomainError("r must lie in [0, 1]")
    check_positive("theta", theta)
    one_m_r = 1.0 - r_arr
    e = r_arr * np.exp(1j * np.asarray(phi, dtype=float)) - 1.0
    f1 = np.abs(2.0 * theta + (1.0 - theta) * e)
    f2 = np.abs(8.0 * theta * theta + 4.0 * theta * e + (1.0 - 2.0 * theta) * e * e)
    val = (one_m_r * one_m_r + 2.0 * one_m_r * f1 + f2) / (8.0 * theta * theta)
    return _maybe_scalar(val)


def _maybe_scalar(x):
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x

"""Fourier symbols of the finite-difference splitting on a periodic grid.

The PDE is the 2D convection-diffusion equation

    u_t = d11 u_xx + (d12 + d21) u_xy + d22 u_yy + c1 u_x + c2 u_y

discretized with second-order central differences on a uniform periodic
grid.  The splitting assigns the mixed derivative to the explicit operator
(index 0) and the unidirectional parts to the two implicit operators
(indices 1 and 2).  On the periodic grid the three operators share the
Fourier basis, so one step of either scheme acts diagonally; the scaled
eigenvalues (z0, z1, z2) of a mode feed straight into `stability`.

The mixed stencil is the beta-weighted average of the two classical
four-point cross stencils; its symbol is real,

    z0 = (d12 + d21) * dt/(dx*dy) * (-sin(phi1)sin(phi2)
                                     + beta (1-cos(phi1))(1-cos(phi2))),

and for any positive-semidefinite diffusion matrix and |beta| <= 1 it obeys
the cone condition with respect to z1 and z2 -- `verify_cone_all_modes`
measures the margin over every mode of a grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .stability import DomainError, SpectralPoint, check_positive

#: Relative tolerance of the positive-semidefiniteness validation.
PSD_RTOL = 1e-12


@dataclass(frozen=True)
class PdeCoefficients:
    """Constant coefficients of the convection-diffusion operator.

    The diffusion matrix [[d11, d12], [d21, d22]] must be positive
    semidefinite (only the sum d12 + d21 enters the discretization, but the
    matrix itself is what the well-posedness of the PDE constrains).
    """

    c1: float = 0.0
    c2: float = 0.0
    d11: float = 0.0
    d12: float = 0.0
    d21: float = 0.0
    d22: float = 0.0

    def __post_init__(self):
        values = (self.c1, self.c2, self.d11, self.d12, self.d21, self.d22)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"PDE coefficients must be finite, got {values!r}")
        scale = max(abs(self.d11), abs(self.d22), abs(self.d12), abs(self.d21), 1.0)
        lin_tol = PSD_RTOL * scale
        if self.d11 < -lin_tol or self.d22 < -lin_tol:
            raise DomainError(
                f"diagonal diffusion must be nonnegative, got d11={self.d11!r} d22={self.d22!r}"
            )
        # PSD of the symmetric part: d11*d22 >= ((d12+d21)/2)^2, on the entries
        # divided by scale so that neither side overflows
        mixed = self.d12 / scale + self.d21 / scale
        det = (self.d11 / scale) * (self.d22 / scale) - 0.25 * mixed * mixed
        if det < -PSD_RTOL:
            raise DomainError(
                "diffusion matrix is not positive semidefinite "
                f"(d11*d22 - ((d12+d21)/2)^2 = {det!r} * {scale!r}^2)"
            )

    @property
    def mixed_sum(self) -> float:
        """Total mixed-derivative coefficient d12 + d21."""
        return self.d12 + self.d21


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with the mixed-stencil weight beta.

    beta = 0 is the plain four-point cross stencil; beta = +/-1 adds the
    corner-averaged correction that keeps the symbol inside the cone with a
    one-sided touch.
    """

    m1: int
    m2: int
    dx: float
    dy: float
    beta: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.m1, numbers.Integral) and isinstance(self.m2, numbers.Integral)):
            raise DomainError(f"grid sizes must be integers, got {self.m1!r}x{self.m2!r}")
        if self.m1 < 3 or self.m2 < 3:
            raise DomainError(f"need at least 3 points per direction, got {self.m1}x{self.m2}")
        # a complex128 field's bytes, on Python ints: a numpy product would wrap
        if int(self.m1) * int(self.m2) * 16 > np.iinfo(np.intp).max:
            raise DomainError(f"grid {self.m1}x{self.m2} is too large for this machine's arrays")
        # min(dx, dy)**2 > 0 also keeps dx*dx, dy*dy and dx*dy from underflowing to 0
        spacings_ok = 0.0 < self.dx < math.inf and 0.0 < self.dy < math.inf
        if not (spacings_ok and min(self.dx, self.dy) ** 2 > 0.0):
            raise DomainError(
                "grid spacings must be positive and finite with nonzero squares, "
                f"got dx={self.dx!r} dy={self.dy!r}"
            )
        if not -1.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [-1, 1], got {self.beta!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m1, self.m2)

    def symbol_scales(self, dt: float) -> tuple[float, float, float]:
        """Parabolic mesh ratios (dt/dx^2, dt/dy^2, dt/(dx*dy))."""
        return (dt / (self.dx * self.dx), dt / (self.dy * self.dy), dt / (self.dx * self.dy))


@dataclass(frozen=True)
class FourierMode:
    """Integer wavenumber pair of one discrete Fourier mode."""

    k1: int
    k2: int

    def __post_init__(self):
        if not (isinstance(self.k1, numbers.Integral) and isinstance(self.k2, numbers.Integral)):
            raise DomainError(f"wavenumbers must be integers, got {(self.k1, self.k2)}")
        if self.k1 < 0 or self.k2 < 0:
            raise DomainError(f"wavenumbers must be nonnegative, got {(self.k1, self.k2)}")

    def phases(self, grid: GridSpec) -> tuple[float, float]:
        """Per-cell phase angles (2 pi k1 / m1, 2 pi k2 / m2)."""
        if self.k1 >= grid.m1 or self.k2 >= grid.m2:
            raise DomainError(
                f"mode {(self.k1, self.k2)} does not fit grid {grid.m1}x{grid.m2}"
            )
        return (2.0 * math.pi * self.k1 / grid.m1, 2.0 * math.pi * self.k2 / grid.m2)

    def phase_field(self, grid: GridSpec) -> np.ndarray:
        """Phase phi1 * i + phi2 * j of the mode at every grid point (i, j)."""
        phi1, phi2 = self.phases(grid)
        return phi1 * np.arange(grid.m1)[:, None] + phi2 * np.arange(grid.m2)[None, :]


def _symbol_block(coeffs: PdeCoefficients, grid: GridSpec, dt: float, k1, k2):
    """(z0, z1, z2) of the modes k1 x k2 (1-D wavenumber arrays), shaped to broadcast.

    z1 and z2 are assembled from their real and imaginary parts, so a zero
    part keeps the sign its formula gives.  DomainError unless dt is positive
    and finite.
    """
    check_positive("dt", dt)
    phi1 = 2.0 * math.pi * k1 / grid.m1
    phi2 = 2.0 * math.pi * k2 / grid.m2
    s1, c1_ = np.sin(phi1)[:, None], np.cos(phi1)[:, None]
    s2, c2_ = np.sin(phi2)[None, :], np.cos(phi2)[None, :]
    a1, a2, b = grid.symbol_scales(dt)
    z0 = coeffs.mixed_sum * b * (-s1 * s2 + grid.beta * (1.0 - c1_) * (1.0 - c2_))
    z1 = np.empty(s1.shape, complex)
    z1.real = -2.0 * coeffs.d11 * a1 * (1.0 - c1_)
    z1.imag = coeffs.c1 * dt / grid.dx * s1
    z2 = np.empty(s2.shape, complex)
    z2.real = -2.0 * coeffs.d22 * a2 * (1.0 - c2_)
    z2.imag = coeffs.c2 * dt / grid.dy * s2
    return z0, z1, z2


def fourier_symbols(
    coeffs: PdeCoefficients, grid: GridSpec, dt: float, mode: FourierMode
) -> SpectralPoint:
    """Scaled eigenvalues (z0, z1, z2) of one Fourier mode: entry (k1, k2) of the grid.

    z0 is real (the mixed stencil is symmetric under the simultaneous point
    reflection); z1 and z2 carry the convection terms in their imaginary
    parts.
    """
    mode.phases(grid)  # DomainError when the mode does not fit the grid
    z0, z1, z2 = _symbol_block(coeffs, grid, dt, np.array([mode.k1]), np.array([mode.k2]))
    return SpectralPoint(z0[0, 0], z1[0, 0], z2[0, 0])


def fourier_symbol_grid(coeffs: PdeCoefficients, grid: GridSpec, dt: float):
    """Symbols of every mode at once.

    Returns (z0, z1, z2) arrays of shape (m1, m2); z0 is a real float array,
    z1 and z2 are complex.  Row/column order matches wavenumbers
    k1 = 0..m1-1, k2 = 0..m2-1.
    """
    z0, z1, z2 = _symbol_block(coeffs, grid, dt, np.arange(grid.m1), np.arange(grid.m2))
    return z0, np.broadcast_to(z1, grid.shape), np.broadcast_to(z2, grid.shape)


@dataclass(frozen=True)
class ConeReport:
    """Outcome of the all-modes cone check of one discretization."""

    min_margin: float
    worst_mode: FourierMode

    @property
    def ok(self) -> bool:
        return self.min_margin >= 0.0


def verify_cone_all_modes(coeffs: PdeCoefficients, grid: GridSpec, dt: float) -> ConeReport:
    """Minimum of 2*sqrt(Re z1 * Re z2) - |z0| over every Fourier mode.

    A nonnegative minimum certifies that the discretization feeds only
    cone-interior (or boundary) triplets to the scheme.  Ties resolve to the
    lexicographically first (k1, k2).
    """
    z0, z1, z2 = fourier_symbol_grid(coeffs, grid, dt)
    margin = 2.0 * np.sqrt(np.maximum((-z1.real) * (-z2.real), 0.0)) - np.abs(z0)
    flat = int(np.argmin(margin))
    k1, k2 = divmod(flat, grid.m2)
    return ConeReport(float(margin[k1, k2]), FourierMode(k1, k2))

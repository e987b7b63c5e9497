"""Leading-order far-zone evaluation of the angular-spectrum integral.

For ``G(r) = integral of f(kx, ky) * exp(i*(kx*x + ky*y + kz*z))`` over the
real spectral plane, the stationary point of the phase sits at
``(k0*x/r, k0*y/r)``.  Confining the integration to the local
steepest-descent window, freezing f at the saddle, and truncating the
on-path phase at second order produces a 2-D Gaussian whose closed form is

    value = f(saddle) * exp(i*k0*r) * J * pi / (k0*r * theta)
          = -2*pi*i * k0 * theta * f(saddle) * exp(i*k0*r) / r,

where ``J = kzs^2 * (1-i)^2`` is the measure factor
``dkx dky = J dxi deta`` of the path parametrization and
``theta = z/r``.  The constant is pinned by an exact cross-check: with the
spherical-wave spectrum ``f = i/(2*pi*kz)`` the formula returns
``exp(i*k0*r)/r`` identically.

The approximation carries a relative error of order ``1/(k0*r)`` and is
meaningful only for ``theta`` above ``theta0 = (k0*r)**-0.5``; results
below the gate are computed and flagged, never refused, so the degradation
across the boundary can be charted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, require_positive
from .oracle import _leggauss
from .spectra import SpectrumFunction
from .spectral import (
    ObservationPoint,
    SaddleData,
    _phase_grid,
    local_half_width,
    saddle_point,
)

__all__ = [
    "QuadraticForm",
    "AsymptoticResult",
    "quadratic_coeffs",
    "gaussian_closed_form",
    "leading_order",
    "local_sdp_integral",
    "validity_threshold",
]


@dataclass(frozen=True)
class QuadraticForm:
    """Real coefficients of the second-order phase model.

    ``a = 1 - y^2/r^2``, ``b = 1 - x^2/r^2``, ``c = x*y/r^2``; the
    determinant obeys the algebraic identity ``a*b - c^2 = (z/r)^2``, so the
    form is positive definite whenever z > 0.
    """

    a: float
    b: float
    c: float
    theta: float

    @property
    def det(self) -> float:
        return self.a * self.b - self.c * self.c


@dataclass(frozen=True)
class AsymptoticResult:
    """Leading-order value plus the validity bookkeeping around it."""

    value: complex
    k0r: float
    theta: float
    theta0: float
    saddle: SaddleData
    spectrum_at_saddle: complex

    @property
    def validity_margin(self) -> float:
        return self.theta / self.theta0

    @property
    def is_valid(self) -> bool:
        return self.validity_margin > 1.0


def quadratic_coeffs(p: ObservationPoint) -> QuadraticForm:
    """Quadratic-phase coefficients of the observation point."""
    r2 = p.r ** 2
    return QuadraticForm(
        a=1.0 - p.y * p.y / r2,
        b=1.0 - p.x * p.x / r2,
        c=p.x * p.y / r2,
        theta=p.theta,
    )


def gaussian_closed_form(q: QuadraticForm, k0r: float) -> float:
    """Closed form of the full-plane Gaussian integral
    ``integral exp[-k0r*(a*xi^2 + b*eta^2 - 2*c*xi*eta)] dxi deta``.

    Diagonalizing the form with a linear transformation that removes the
    cross product gives ``pi / (k0r * sqrt(a*b - c^2))``, which the
    determinant identity simplifies to ``pi / (k0r * theta)``.  Real and
    positive; fails for det <= 0 (grazing observation, theta = 0).
    """
    require_positive("k0r", k0r)
    det = q.det
    if det <= 0.0:
        raise DomainError(
            f"quadratic form is not positive definite (det={det}); "
            "grazing observation z = 0 is outside the domain"
        )
    return math.pi / (k0r * math.sqrt(det))


def validity_threshold(k0: float, r: float) -> float:
    """Minimum direction cosine ``theta0 = (k0*r)**-0.5``."""
    return 1.0 / math.sqrt(require_positive("k0", k0) * require_positive("r", r))


def leading_order(
    f: SpectrumFunction, p: ObservationPoint, k0: float
) -> AsymptoticResult:
    """Leading-order approximation of the angular-spectrum integral.

    Evaluates ``-2*pi*i * k0 * theta * f(saddle) * exp(i*k0*r) / r`` and
    populates the validity fields.  The value is computed regardless of
    whether ``theta > theta0`` holds; callers read ``is_valid`` and
    ``validity_margin``.  A value that overflows the floating-point range
    (for example at r near the origin) is a :class:`~asx.errors.DomainError`.
    """
    s = saddle_point(p, k0)
    fs = f.evaluate(s.kxs, s.kys, s.kzs, k0)
    theta = p.theta
    with np.errstate(all="ignore"):
        value = complex(-2j * math.pi * k0 * theta * fs * np.exp(1j * s.k0r) / p.r)
    if not cmath.isfinite(value):
        raise DomainError(
            f"leading-order value overflows at k0 = {k0:g}, r = {p.r:g}: the "
            "point is outside the floating-point range of the closed form"
        )
    return AsymptoticResult(
        value=value,
        k0r=s.k0r,
        theta=theta,
        theta0=s.theta0,
        saddle=s,
        spectrum_at_saddle=fs,
    )


def local_sdp_integral(
    f: SpectrumFunction, p: ObservationPoint, k0: float, n: int = 64
) -> complex:
    """Numerical integral over the local steepest-descent window.

    Integrates ``f(kx, ky, kz) * exp(i*k0*r*U(xi, eta))`` with the exact
    on-path phase U (not its quadratic model) over
    ``[-h, h]^2``, ``h = local_half_width(k0*r) = 6/sqrt(k0*r)``, by
    tensor-product Gauss-Legendre quadrature with ``n`` nodes per axis,
    then applies the path measure ``J = kzs^2*(1-i)^2`` and the carrier
    ``exp(i*k0*r)``.

    This is the mid-level verification between the brute-force oracle and
    :func:`leading_order`: it shares the window with the closed form but
    keeps phase and spectrum exact.
    """
    if n < 16:
        raise ConfigError(f"need n >= 16 quadrature nodes per axis, got {n}")
    s = saddle_point(p, k0)
    half_width = local_half_width(s.k0r)
    t, w = _leggauss(n)
    xi = half_width * t
    wi = half_width * w
    u, kx, ky, kz = _phase_grid(s, p, xi[:, None], xi[None, :])
    integrand = f.evaluate(kx, ky, kz, k0) * np.exp(1j * s.k0r * u)
    jacobian = s.kzs * s.kzs * (1.0 - 1.0j) ** 2
    return complex(
        jacobian * np.exp(1j * s.k0r) * np.einsum("i,j,ij->", wi, wi, integrand)
    )

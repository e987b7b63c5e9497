"""Branch-correct spectral geometry.

Everything downstream builds on four ingredients defined here:

* the top-sheet square root ``k_z = sqrt(k0^2 - kx^2 - ky^2)`` with
  ``Im(k_z) >= 0`` for real arguments,
* the stationary (saddle) wave vector ``(k0*x/r, k0*y/r, k0*z/r)`` of the
  far-zone phase,
* the local steepest-descent parametrization
  ``kx = kxs + kzs*(1-i)*xi``, ``ky = kys + kzs*(1-i)*eta``,
* the normalized phase ``U(xi, eta) = (kx*x + ky*y + kz*z)/(k0*r) - 1``,
  which vanishes together with its gradient at the saddle; ``k0*r*U`` is
  formed from terms that are each second order in the window, so it carries
  no cancellation at any ``k0*r``.

The branch choice lives here and only here; other modules consume ``kz``
values instead of recomputing square roots.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive

__all__ = [
    "ObservationPoint",
    "SaddleData",
    "kz_branch",
    "saddle_point",
    "local_half_width",
]


@dataclass(frozen=True)
class ObservationPoint:
    """Cartesian observation location in the upper half space z > 0.

    Lengths are measured in units of 1/k0 when k0 = 1. Degenerate inputs
    (z <= 0 or r = 0) are rejected at construction because every downstream
    formula divides by r or by theta = z/r.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise DomainError("observation point coordinates must be finite")
        if self.z <= 0.0:
            raise DomainError(f"observation point must satisfy z > 0, got z={self.z}")

    @property
    def r(self) -> float:
        # hypot only where the squares overflow or underflow: elsewhere it
        # can differ from the sum of squares in the last ulp, and that ulp
        # shows in exp(i*k0*r) and every output derived from it
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if sys.float_info.min <= r2 < math.inf:
            return math.sqrt(r2)
        return math.hypot(self.x, self.y, self.z)

    @property
    def theta(self) -> float:
        """Direction cosine z/r, in (0, 1]."""
        return self.z / self.r

    @property
    def rho_xy(self) -> float:
        """Transverse distance sqrt(x^2 + y^2)."""
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class SaddleData:
    """Saddle-point wave vector and validity scale."""

    kxs: float
    kys: float
    kzs: float
    k0: float
    k0r: float
    theta0: float


def kz_branch(kx, ky, k0):
    """Longitudinal wavenumber on the top Riemann sheet.

    ``k0*sqrt(1 - (kx/k0)^2 - (ky/k0)^2)``, the principal root in units of
    k0, so that no ``k0^2`` leaves the floating-point range.  For real
    ``(kx, ky)`` that is the branch ``Im(kz) >= 0``: real nonnegative inside
    the circle ``kx^2 + ky^2 <= k0^2`` and purely imaginary with positive
    imaginary part outside.  For complex arguments (points of the
    steepest-descent path) it is the analytic continuation from the saddle;
    :func:`_sdp_grid` shows why.

    Accepts scalars or numpy arrays.  ``kz = 0`` on the branch circle is
    returned as-is; callers handle it.
    """
    require_positive("k0", k0)
    ux, uy = np.asarray(kx) / k0, np.asarray(ky) / k0
    kz = k0 * np.sqrt(np.asarray(1.0 - ux * ux - uy * uy, dtype=complex))
    if kz.ndim == 0:
        return complex(kz)
    return kz


def saddle_point(p: ObservationPoint, k0: float) -> SaddleData:
    """Saddle-point data for observation point ``p`` at wavenumber ``k0``.

    The saddle sits at ``(k0*x/r, k0*y/r)`` with ``kzs = k0*z/r > 0``; the
    validity threshold is ``theta0 = (k0*r)**-0.5``.  A product ``k0*r``
    that overflows or underflows is a :class:`~asx.errors.DomainError`, and
    so is a direction cosine ``z/r`` or a ``kzs`` that underflows below the
    smallest normal float (``1/kzs`` could overflow): the saddle would sit
    on the branch circle, a grazing observation.
    """
    require_positive("k0", k0)
    r = p.r
    k0r = require_positive("k0*r", k0 * r, DomainError)
    kzs = k0 * p.z / r
    if not min(p.z / r, kzs) >= sys.float_info.min:
        raise DomainError(
            f"direction cosine z/r = {p.z / r:g} underflows at z = {p.z:g}, "
            f"r = {r:g}: grazing observation is outside the domain"
        )
    return SaddleData(
        kxs=k0 * p.x / r,
        kys=k0 * p.y / r,
        kzs=kzs,
        k0=k0,
        k0r=k0r,
        theta0=1.0 / math.sqrt(k0r),
    )


def local_half_width(k0r: float) -> float:
    """Default half-width of the local (xi, eta) domain, ``6 / sqrt(k0*r)``.

    The Gaussian decay ``exp(-k0*r*theta^2*|xi|^2)`` of the on-path
    integrand makes the truncated tail at most ``exp(-36)`` relative for
    theta near 1; smaller theta is the job of the validity gate, not of a
    wider window.
    """
    return 6.0 / math.sqrt(require_positive("k0r", k0r))


def _sdp_grid(s: SaddleData, xi, eta):
    """Steepest-descent map of local coordinates: returns (kx, ky, kz).

    ``kx = kxs + kzs*(1-i)*xi`` and ``ky = kys + kzs*(1-i)*eta`` over
    scalars or arrays xi, eta that broadcast against each other.  ``kz`` is
    the principal root, which continues the top-sheet branch from ``kzs`` at
    the origin: on the ray t*(xi, eta), ``kz^2/kzs^2 = w(t) =
    1 - 2*u*t + 2i*(u*t + v2*t^2)`` with ``u = (kxs*xi + kys*eta)/kzs`` and
    ``v2 = xi^2 + eta^2``.  Im(w) is zero only at t = 0 and t* = -u/v2,
    where ``Re(w) = 1 + 2*u^2/v2 >= 1``: kz^2 never meets the branch cut.
    """
    slope = s.kzs * (1.0 - 1.0j)
    kx = s.kxs + slope * np.asarray(xi)
    ky = s.kys + slope * np.asarray(eta)
    return kx, ky, kz_branch(kx, ky, s.k0)


def _phase_grid(s: SaddleData, p: ObservationPoint, xi, eta):
    """On-path phase ``k0*r*U``, ``U = (kx*x + ky*y + kz*z)/(k0*r) - 1``, with
    the (kx, ky, kz) it was computed from, over broadcast (xi, eta).

    U vanishes with its gradient at the saddle, so that sum would cancel and
    leave about k0*r ulps of rounding in the phase.  With ``d = (k -
    k_saddle)/k0`` and ``q = k0*p``, the sphere ``|k| = k0`` gives

        k0*r*U = [(dx*qx + dy*qy)*dz - qz*(dx^2 + dy^2)] / den,
        dz = -(dx*(2*kxs/k0 + dx) + dy*(2*kys/k0 + dy)) / den,

    with ``den = (kz + kzs)/k0``: every term is second order in the window,
    and ``Re(den) > 0`` on the principal branch.  Intended for the local
    domain ``|xi|, |eta| <= local_half_width``.
    """
    kx, ky, kz = _sdp_grid(s, xi, eta)
    k0 = s.k0
    slope = s.kzs / k0 * (1.0 - 1.0j)
    dx, dy = slope * np.asarray(xi), slope * np.asarray(eta)
    inv = k0 / (kz + s.kzs)  # 1/den
    # in place on the full-grid arrays, which saves their temporaries
    dz = dx * (-2.0 * s.kxs / k0 - dx) - dy * (2.0 * s.kys / k0 + dy)
    dz *= inv
    phase = dx * (k0 * p.x) + dy * (k0 * p.y)
    phase *= dz
    qz = k0 * p.z
    phase -= qz * dx * dx + qz * dy * dy
    phase *= inv
    return phase, kx, ky, kz

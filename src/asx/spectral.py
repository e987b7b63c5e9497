"""Branch-correct spectral geometry.

Everything downstream builds on four ingredients defined here:

* the top-sheet square root ``k_z = sqrt(k0^2 - kx^2 - ky^2)`` with
  ``Im(k_z) >= 0`` for real arguments,
* the stationary (saddle) wave vector ``(k0*x/r, k0*y/r, k0*z/r)`` of the
  far-zone phase,
* the local steepest-descent parametrization
  ``kx = kxs + kzs*(1-i)*xi``, ``ky = kys + kzs*(1-i)*eta``,
* the normalized phase ``U(xi, eta) = (kx*x + ky*y + kz*z)/(k0*r) - 1``,
  which vanishes together with its gradient at the saddle.

The branch choice lives here and only here; other modules consume ``kz``
values instead of recomputing square roots.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BranchContinuationError, DomainError, require_positive

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

    For real ``(kx, ky)`` the branch ``Im(kz) >= 0`` is enforced: the result
    is real nonnegative inside the circle ``kx^2 + ky^2 <= k0^2`` and purely
    imaginary with positive imaginary part outside.  For complex arguments
    (points of the steepest-descent path) the principal square root of
    ``k0^2 - kx^2 - ky^2`` is returned, which is the analytic continuation
    from the saddle; see :func:`_sdp_grid` for the certification of that claim.

    Accepts scalars or numpy arrays.  ``kz = 0`` on the branch circle is
    returned as-is; callers handle it.
    """
    require_positive("k0", k0)
    kx = np.asarray(kx)
    ky = np.asarray(ky)
    kz2 = k0 * k0 - kx * kx - ky * ky
    if np.isrealobj(kx) and np.isrealobj(ky):
        kz2 = np.real(kz2)
        inside = kz2 >= 0.0
        kz = np.where(inside, np.sqrt(np.abs(kz2)), 0.0) + 1j * np.where(
            inside, 0.0, np.sqrt(np.abs(-kz2))
        )
    else:
        kz = np.sqrt(kz2.astype(complex))
    if kz.ndim == 0:
        return complex(kz)
    return kz


def saddle_point(p: ObservationPoint, k0: float) -> SaddleData:
    """Saddle-point data for observation point ``p`` at wavenumber ``k0``.

    The saddle sits at ``(k0*x/r, k0*y/r)`` with ``kzs = k0*z/r > 0``; the
    validity threshold is ``theta0 = (k0*r)**-0.5``.  A product ``k0*r``
    that overflows or underflows is a :class:`~asx.errors.DomainError`, and
    so is a direction cosine ``z/r`` or a ``kzs`` that underflows to 0: the
    saddle would sit on the branch circle, a grazing observation.
    """
    require_positive("k0", k0)
    r = p.r
    k0r = require_positive("k0*r", k0 * r, DomainError)
    kzs = k0 * p.z / r
    if not (p.z / r > 0.0 and kzs > 0.0):
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


def _certify_on_sheet(s: SaddleData, xi, eta) -> None:
    """Check that k_z^2 stays off the negative real axis along the rays
    from the saddle to each (xi, eta).

    On the straight ray t -> (t*xi, t*eta) the image is, relative to kzs^2,

        w(t) = 1 - 2*u*t + 2i*(u*t + v2*t^2),
        u = (kxs*xi + kys*eta)/kzs,   v2 = xi^2 + eta^2.

    Im(w) vanishes only at t = 0 and t* = -u/v2; a branch-cut crossing
    needs Re(w(t*)) <= 0 with t* in (0, 1].  Geometrically Re(w(t*)) =
    1 + 2*u^2/v2 > 0, so this never fires in exact arithmetic; the check
    certifies that claim against the actual floating-point numbers.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    u = (s.kxs * xi + s.kys * eta) / s.kzs
    v2 = xi * xi + eta * eta
    # v2 = 0 only at the saddle itself, where no ray exists: park t* off-path
    t_star = np.where(v2 > 0.0, -u / np.where(v2 > 0.0, v2, 1.0), -1.0)
    on_path = (t_star > 0.0) & (t_star <= 1.0)
    re_at_star = 1.0 - 2.0 * u * t_star
    if np.any(on_path & (re_at_star <= 0.0)):
        raise BranchContinuationError(
            "k_z^2 crossed the negative real axis along the local path; "
            "the principal square root no longer continues the saddle branch"
        )


def _sdp_grid(s: SaddleData, xi, eta):
    """Steepest-descent map of local coordinates: returns (kx, ky, kz).

    ``kx = kxs + kzs*(1-i)*xi`` and ``ky = kys + kzs*(1-i)*eta``; ``kz`` is
    the analytic continuation of the top-sheet branch from the saddle,
    equal to ``kzs`` at the origin.  ``xi`` and ``eta`` are scalars or
    arrays that broadcast against each other.  The continuation is
    certified before the square root is taken; a crossing of ``k_z^2``
    over the negative real axis raises
    :class:`~asx.errors.BranchContinuationError`.
    """
    _certify_on_sheet(s, xi, eta)
    slope = s.kzs * (1.0 - 1.0j)
    kx = s.kxs + slope * np.asarray(xi)
    ky = s.kys + slope * np.asarray(eta)
    return kx, ky, kz_branch(kx, ky, s.k0)


def _phase_grid(s: SaddleData, p: ObservationPoint, xi, eta):
    """Normalized on-path phase ``U = (kx*x + ky*y + kz*z)/(k0*r) - 1`` with
    the (kx, ky, kz) it was computed from, over broadcast (xi, eta).

    ``U(0, 0) = 0`` up to rounding and the first derivatives vanish at the
    origin.  Intended for the local domain ``|xi|, |eta| <= local_half_width``.
    """
    kx, ky, kz = _sdp_grid(s, xi, eta)
    u = (kx * p.x + ky * p.y + kz * p.z) / (s.k0 * p.r) - 1.0
    return u, kx, ky, kz

"""Brute-force quadrature of the angular-spectrum integral over the plane.

This is the ground truth every asymptotic claim is checked against, so the
design optimizes for controlled error rather than speed:

* wavenumbers in units of k0, lengths in units of 1/k0 (q = k0*p), except
  in f's arguments; each part and est_error scale back by k0*(k0*part);
* polar spectral coordinates (k_rho, phi); the radial integral runs along
  one contour in the kz plane with two legs that meet at the branch circle
  k_rho = 1, the only non-smooth locus of the integrand, in one variable t
  whose sign is the leg, and the integrand |t|*exp(i*kz*z)*Phi on both;
* the propagating leg is t = kz in [0, 1] (k_rho dk_rho = -kz dkz), which
  turns the 1/kz Weyl-type singularity into a smooth integrand;
* the evanescent leg is t = -s <= 0 (kz = -i*t = i*s, s = sqrt(k_rho^2 -
  1)), so the weight becomes exp(-s*z) and the truncation point s_max is
  chosen where exp(-s*z) < rel_tol/100; the tail beyond it is bounded by
  the probed max|f|, times J0's envelope sqrt(2/(pi*k_rho*rho_xy)) for a
  radial spectrum off axis;
* the azimuthal integral is a Bessel sum by the Jacobi-Anger expansion,
  2*pi*sum_m c_m*i^m*J_m(k_rho*rho_xy)*exp(i*m*phi0) with phi0 the azimuth
  of the point and c_m the Fourier coefficients of f alone on the circle
  k_rho, so its cost follows the bandwidth of f, not that of the phase;
* a radial spectrum has c_0 = f(k_rho) only: one spectrum element per
  radial node and 2*pi*f*J0(k_rho*rho_xy), the Sommerfeld identity (on
  axis 2*pi*f, with no Bessel call);
* any other (parsed) spectrum is sampled on a ring of nodes per radial
  node, doubled onto itself until the Fourier tail of f is below the
  row's floor; the c_m come from an FFT along the ring, a doubling joined
  to it by one butterfly whose twiddles are the sampler's cached circle of
  twice the ring's size;
* every sample of f (radial rows, rings and the tail probe) is taken and
  counted by one circle sampler, _ring_values, in one spectrum call of at
  most _BLOCK_ELEMENTS elements (one ring if wider, 195 panels if radial);
* J0 alone (the radial path) is the 64-node trapezoid of Bessel's
  integral below x = 25, one cosine sum per x, and Hankel's expansion from
  there on;
* J_m for all orders of a ring's call comes, below x = max(25, top), from
  one FFT of the same integral, whose n-node trapezoid holds every order at
  once, and from there on from Hankel's expansion for J0 and J1 followed by
  the forward recurrence; orders where (x/2)^m/m! <= e^-42 at the call's
  largest x are left out of the sum;
* one heap of 21-point Gauss-Kronrod panels in t (interior nodes, so the
  branch circle t = 0, an edge from the start, is never evaluated) is split
  in rounds until their summed |K21 - G10| and the tail bound meet
  rel_tol * |value|; the initial panels, a tail extension and a round's
  halves are evaluated 195 panels a call, whichever leg they lie on;
* a leg starts with at least 8 panels of _phase_span(rel_tol) of phase
  each (11.1 rad at rel_tol 1e-7): uniform in s on the evanescent leg, and
  on the propagating leg uniform in the polar angle, kz = sin(pi*j/(2n)),
  where the phase moves at most k0r a radian, while in kz it speeds up
  without bound towards the branch circle;
* a ring that reaches _MAX_PHI_NODES unpassed ends the run, unconverged
  and with est_error = inf: no bound holds for a row it cannot resolve;
* a spectrum with a shift, f = g*exp(i*(a*kx + b*ky + c*kz)) (see
  parse_spectrum), is integrated as its remainder g at p + (a, b, c), the
  shift theorem, on the radial path when g is radial, where the shifted
  point has z > 0 and passes the envelope, the cutoff and the bandwidth;
  elsewhere f itself is integrated at p, as any other spectrum is.

Cost grows with k0*r (and, for a parsed spectrum, with the bandwidth of f),
so the oracle refuses k0*r above ORACLE_K0R_ENVELOPE.  Identical inputs
produce identical outputs: panels are refined and summed in a fixed
deterministic order.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    SpectrumEvaluationError,
    require_positive,
)
from .spectra import SpectrumFunction
from .spectral import ObservationPoint

__all__ = [
    "QuadratureConfig",
    "OracleResult",
    "oracle_eval",
]

ORACLE_K0R_ENVELOPE = 300.0  # desk-scale limit on k0*r
# Beyond this azimuthal bandwidth k_rho*rho_xy the point is too close to
# grazing for the oracle.  A parsed spectrum's own bandwidth grows with k_rho
# too, so the wall still bounds its rings; it holds for every spectrum, so one
# rule decides which points the oracle refuses.
_MAX_PHI_BANDWIDTH = float(1 << 18)
_MAX_PHI_NODES = 1 << 15  # a ring not passed at this size ends the run
# Complex elements per spectrum call: 64 KB arrays, one ring at least
_BLOCK_ELEMENTS = 1 << 12
# Radial panels take the Gauss rule of this many nodes inside its Kronrod
# extension (G10K21), 2*_GAUSS_NODES + 1 radial rows a panel
_GAUSS_NODES = 10
# c of the Gauss rule's error c*f^(2n)(xi) on [-1, 1] (Davis & Rabinowitz,
# Methods of Numerical Integration): on exp(i*w*t) its error is at most
# c*w^(2n), 1.2e-24*w^20 for G10
_GAUSS_ERROR = (
    2.0 ** (2 * _GAUSS_NODES + 1)
    * math.factorial(_GAUSS_NODES) ** 4
    / ((2 * _GAUSS_NODES + 1) * math.factorial(2 * _GAUSS_NODES) ** 3)
)
_PANEL_BATCH = _BLOCK_ELEMENTS // (2 * _GAUSS_NODES + 1)  # 195 panels a call
_RING_START = 32  # nodes of the first ring of f on each circle
# The orders cut from a ring's Bessel sum may take this share of its floor:
# the cut error is spent in full, unlike the tail the doubling test bounds
_CUT_SHARE = 1e-3
# J0 and J1 take Hankel's expansion from this edge on, and every J_m below it
# takes Bessel's integral
_J_HANKEL_EDGE = 25.0
_J0_WEIGHTS = np.array([2.0] + [4.0] * 15 + [2.0]) / 64.0  # _integral_j0's; sum 1


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and budget knobs for the oracle.

    rel_tol      target relative accuracy, within [1e-12, 1e-2]
    k_max        cap on the evanescent truncation radius in k_rho
                 (the decay-based cutoff applies regardless)
    max_panels   total radial panel budget across both legs
    """

    rel_tol: float = 1e-7
    k_max: float = math.inf
    max_panels: int = 1024

    def __post_init__(self):
        if not (1e-12 <= self.rel_tol <= 1e-2):
            raise ConfigError(
                f"rel_tol must lie in [1e-12, 1e-2], got {self.rel_tol}"
            )
        if self.max_panels < 16:
            raise ConfigError(f"max_panels must be >= 16, got {self.max_panels}")
        if not self.k_max > 0.0:
            raise ConfigError(f"k_max must be positive, got {self.k_max}")


@dataclass(frozen=True)
class OracleResult:
    """Quadrature value with its split, error estimate and cost.

    ``limit`` names what stopped the run short of ``rel_tol`` (empty when
    it converged).  ``est_error`` sums the panels' |K21 - G10| and the tail
    bound.  A ring of f stopped at its azimuthal cap ends the run with
    ``est_error`` inf and ``limit`` naming the cap and the ring's k_rho; the
    value and its parts are the panels' last sums, 0 if the cap came first.
    """

    value: complex
    est_error: float
    evaluations: int
    propagating_part: complex
    evanescent_part: complex
    limit: str = ""

    @property
    def converged(self) -> bool:
        return not self.limit


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _kronrod() -> tuple[np.ndarray, np.ndarray]:
    """The (2n + 1)-point Gauss-Kronrod rule on [-1, 1], n = _GAUSS_NODES,
    shared read-only, from the eigenvectors of the Jacobi-Kronrod matrix that
    Laurie's algorithm (Math. Comp. 66, 1997; Gautschi's r_kronrod) builds
    from the Legendre b_k; its odd-index nodes are those of _leggauss(n), so
    the Gauss rule reuses the Kronrod rows."""
    n = _GAUSS_NODES
    k = np.arange(1, 3 * n // 2 + 1)  # b_0..b_(3n/2) seed it; every a_k = 0 (even weight)
    b = np.concatenate(([2.0], k * k / (4.0 * k * k - 1.0), np.zeros(n // 2)))
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(b[1:]), -1))
    nodes = 0.5 * (nodes - nodes[::-1])  # symmetric, as the rule is
    nodes[1::2] = _leggauss(n)[0]
    weights = vectors[0] ** 2 + vectors[0, ::-1] ** 2  # b_0 = 2 is their sum
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _hankel_coefficients(nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (P_j, Q_j) of Hankel's expansion of J_nu (A&S 9.2.5, 9.2.9),
    J_nu(x) = sqrt(2/(pi*x))*(P*cos(chi) - Q*sin(chi)) with
    chi = x - (nu/2 + 1/4)*pi, P = sum P_j/x^2j, Q = sum Q_j/x^(2j+1),
    P_j = (-1)^j*a_2j, Q_j = (-1)^j*a_(2j+1), a_0 = 1 and
    a_k = a_(k-1)*(4*nu^2 - (2k - 1)^2)/(8k), cut where |a_k|/x^k falls
    below 2^-60 at _J_HANKEL_EDGE; and the reach of each row, the x below
    which row j still counts, (|a_2j|*2^60)^(1/2j).  The reach falls with
    j, so the rows an x needs are a prefix."""
    a = [1.0]
    while abs(a[-1]) / _J_HANKEL_EDGE ** (len(a) - 1) > 2.0**-60 or len(a) % 2:
        k = len(a)
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    pairs = np.reshape(a, (-1, 2))
    j = np.arange(1, len(pairs))
    hankel = pairs * (-1.0) ** np.arange(len(pairs))[:, None]
    reach = np.concatenate(([math.inf], (np.abs(pairs[1:, 0]) * 2.0**60) ** (0.5 / j)))
    return hankel, reach


def _integral_j0(x: np.ndarray, top: int) -> np.ndarray:
    """J0 of x < _J_HANKEL_EDGE (top = 0) by the 64-node trapezoid of Bessel's
    integral (1/2pi)*int cos(x*sin t) dt (A&S 9.1.18), folded onto the 17
    distinct |sin t| of the 64-node circle, weights (2, 4, ..., 4, 2)/64.  The
    integrand is periodic and analytic, so the rule's error is its aliasing,
    2*sum_k J_64k(x) <= 2*(x/2)^64/64! < 3e-19 for x <= 25; J0(0) is exactly
    1.  Each row is summed by itself, so its bits depend on its own x only
    (a BLAS product would not promise that)."""
    return (np.cos(x[:, None] * _circle(64, 0.0)[1, 0, :17]) * _J0_WEIGHTS).sum(axis=1)


def _integral_orders(x: np.ndarray, top: int) -> np.ndarray:
    """J_0..J_top of x < max(_J_HANKEL_EDGE, top), one row per order, by one
    FFT of Bessel's integral: the n-node trapezoid of exp(i*x*sin t) over a
    period holds J_k(x) in its k-th Fourier coefficient, plus the aliases
    J_(k +- jn).  n is the power of two at least top + max(61, e*x_edge),
    x_edge = max(_J_HANKEL_EDGE, top): an alias's order is then at least
    e*x, where |J_k(x)| <= (e*x/(2k))^k <= 2^-k < 2^-61.  n follows top
    alone, so each row's bits depend on its own x and top only."""
    from numpy import fft

    n = 1 << (top + max(61, math.ceil(math.e * max(_J_HANKEL_EDGE, top))) - 1).bit_length()
    sin = _circle(n, 0.0)[1]
    return fft.fft(np.exp(1j * x[:, None] * sin), axis=1)[:, : top + 1].real.T / n


def _hankel(x: np.ndarray, nu: int) -> np.ndarray:
    """J_nu of x >= _J_HANKEL_EDGE, nu = 0 or 1, by Hankel's expansion, P and
    x*Q summed together in 1/x^2 over the rows the smallest x needs.  The
    cos and sin of chi = x - (nu/2 + 1/4)*pi come from those of x: chi
    itself would round off up to half an ulp of x (4e-14 in J at x = 3e5)."""
    hankel, reach = _hankel_coefficients(nu)
    rows = hankel[: np.count_nonzero(reach > x.min())]
    p, xq = np.polynomial.polynomial.polyval(1.0 / (x * x), rows)
    c, s = np.cos(x), np.sin(x)
    # sqrt(2)*(cos(chi), -sin(chi)), the sqrt(2) taken into the prefactor
    a, b = (c + s, c - s) if nu == 0 else (s - c, c + s)
    return np.sqrt(1.0 / (math.pi * x)) * (p * a + xq / x * b)


def _hankel_orders(x: np.ndarray, top: int) -> np.ndarray:
    """J_0..J_top of x >= max(_J_HANKEL_EDGE, top), one row per order: J0
    and J1 by Hankel's expansion, the rest by the forward recurrence
    J_{m+1} = (2m/x)*J_m - J_{m-1}, which is stable while m stays below x."""
    out = np.empty((top + 1, x.size))
    out[0] = _hankel(x, 0)
    if top:
        out[1] = _hankel(x, 1)
        factors = np.arange(top)[:, None] * (2.0 / x)  # row m: 2m/x
        for m in range(1, top):
            np.multiply(factors[m], out[m], out=out[m + 1])
            out[m + 1] -= out[m - 1]
    return out


def _bessel_orders(x: np.ndarray, top: int) -> np.ndarray:
    """Bessel J_0..J_top of real x >= 0, shape (top + 1, x.size): Hankel's
    expansion and the forward recurrence where x >= _J_HANKEL_EDGE and
    x >= top, and Bessel's integral below that, J0 alone (top = 0) by the
    cosine sum of _integral_j0 and J_0..J_top by the FFT of
    _integral_orders.  Against scipy.special.jv, measured on 200,001 points
    of [0, 25], J0 (top = 0) is within 8.3e-16 (at x = 18.3) and J1 (top = 1)
    within 6.7e-16 (at x = 13.4); on 300,001 points of [25, 3e5] both are
    within 6e-17.  The number of Hankel terms follows the smallest x of its
    part of the call."""
    out = np.empty((top + 1, x.size))
    hankel = (x >= _J_HANKEL_EDGE) & (x >= top)
    integral = _integral_orders if top else _integral_j0
    for part, kernel in ((~hankel, integral), (hankel, _hankel_orders)):
        if part.any():
            out[:, part] = kernel(x[part], top)
    return out


@dataclass(slots=True)
class _Counter:
    """Spectrum evaluations."""

    n: int = 0


class _RingCapped(Exception):
    """A ring of f reached _MAX_PHI_NODES without passing its doubling test:
    the Fourier tail of f on it is unknown, so no error bound holds."""


@functools.cache
def _circle(n: int, shift: float) -> np.ndarray:
    """cos and sin of the n azimuths 2*pi*(j + shift)/n as the rows of one
    read-only (2, 1, n) array: every panel samples the same few circles."""
    phi = 2.0 * math.pi * (np.arange(n) + shift) / n
    circle = np.array((np.cos(phi), np.sin(phi)))[:, None]
    circle.flags.writeable = False
    return circle


def _ring_values(f, krho, kz, k0: float, n: int, shift: float, count: _Counter):
    """f at the n azimuths 2*pi*(j + shift)/n on each circle k0*krho[r] (at
    k0*kz[r]), one row per circle: the oracle's one spectrum call, counted here
    (n = 1 gives the radial rows, with ky = +0.0).  _phi_integrals keeps a call
    of rings within _BLOCK_ELEMENTS elements (one ring at least), and
    oracle_eval's batches of at most 195 panels keep a radial call there."""
    kx, ky = krho[:, None] * (k0 * _circle(n, shift))
    count.n += kx.size
    # a copy costs less than np.broadcast_to at these sizes
    return f.evaluate(kx, ky, (k0 * kz)[:, None].repeat(n, axis=1), k0)


def _order_cap(x_max: float, top: int) -> int:
    """The first order m >= x_max with (x_max/2)^m/m! <= e^-42, or top if
    lower: as |J_m(x)| <= (x/2)^m/m! for 0 <= x <= x_max, the orders above
    it add at most 2^-60 of their coefficients to a sum."""
    log_half = math.log(x_max) - math.log(2.0) if x_max > 0.0 else -math.inf
    m = max(1, math.ceil(x_max))
    while m < top and m * log_half - math.lgamma(m + 1) > -42.0:
        m += 1
    return min(m, top)


def _bessel_sum(c: np.ndarray, x: np.ndarray, p: ObservationPoint) -> np.ndarray:
    """2*pi*sum_m c_m*i^m*J_m(x)*exp(i*m*phi0) per row, phi0 = atan2(y, x):
    the azimuthal integral of f*exp(i*(kx*x + ky*y)) by the Jacobi-Anger
    expansion, with c[:, m] holding order m for |m| <= c.shape[1] // 2 and
    the negative orders counted from the end, summed up to _order_cap of the
    largest x.  On axis only c_0 counts."""
    value = 2.0 * math.pi * c[:, 0]
    if p.rho_xy == 0.0:
        return value
    top = c.shape[1] // 2
    if top:
        top = _order_cap(float(x.max()), top)
    j = _bessel_orders(x, top)
    value = value * j[0]
    if top:
        m = np.arange(1, top + 1)
        turn = np.exp(1j * m * math.atan2(p.y, p.x))
        i_m = np.array([1, 1j, -1, -1j])[m % 4]
        pairs = i_m * (c[:, 1 : top + 1] * turn + c[:, : -top - 1 : -1] * turn.conj())
        value = value + 2.0 * math.pi * (pairs * j[1:].T).sum(axis=1)
    return value


def _phi_integrals(
    f: SpectrumFunction,
    krho: np.ndarray,
    kz: np.ndarray,
    p: ObservationPoint,
    k0: float,
    rel_tol: float,
    count: _Counter,
) -> np.ndarray:
    """Azimuthal integrals of f * exp(i*(kx*x + ky*y)), one per row (k_rho, kz).

    By the Jacobi-Anger expansion the integral is 2*pi*sum_m c_m*i^m*
    J_m(k_rho*rho_xy)*exp(i*m*phi0) with c_m the Fourier coefficients of f
    alone on the circle, so its cost follows the bandwidth of f, not that of
    the phase.  A radial spectrum has c_0 = f(k_rho) only (the Sommerfeld
    identity, one spectrum element per row).

    Any other takes its c_m from a ring of f on each circle.  Each ring
    starts at _RING_START nodes and doubles onto its own nodes, at least
    once, until the tail of its spectrum is within the row's floor,
    rel_tol/30 of the rms of f on the ring; a row still failing at
    _MAX_PHI_NODES raises _RingCapped.  A tail is measured as
    sqrt(sum |c_m|^2): as sum J_m^2 = 1, that bounds what the orders in it
    add to the Bessel sum, and the rounding of f adds to it no more than it
    does to one sample.  The test takes the upper half of the band; each
    row's coefficients, from an FFT along the ring, are cut above the highest
    order whose tail from there up still exceeds _CUT_SHARE of its floor, so
    a row's sum does not depend on the rows that share its group.  Rows that
    stop at the same ring size take one Bessel sum; each spectrum call takes
    at most _BLOCK_ELEMENTS // size rows (one row at least) of size fresh
    nodes each.
    """
    x = krho * p.rho_xy
    if f.radial:
        return _bessel_sum(_ring_values(f, krho, kz, k0, 1, 0.0, count), x, p)
    from numpy.fft import fft  # here: importing asx must not load numpy.fft

    out = np.empty(krho.size, dtype=complex)
    # noise floor for the radial error estimator sitting on top of this
    floor = (rel_tol / 30.0) ** 2
    # rows and the coefficients of their ring so far, none before the first
    # call (2*_RING_START nodes: the first ring and its first doubling);
    # c[:, m] holds order m for |m| <= n, the negative orders counted from
    # the end
    work = [(np.arange(krho.size), np.empty((krho.size, 0), dtype=complex))]
    while work:
        rows, c = work.pop()
        size = c.shape[1] or 2 * _RING_START  # the nodes this call adds
        step = max(1, _BLOCK_ELEMENTS // size)
        if rows.size > step:  # the other rows wait for their own call
            work.append((rows[step:], c[step:]))
            rows, c = rows[:step], c[:step]
        shift = 0.5 if c.shape[1] else 0.0  # a doubling's nodes sit halfway
        fresh = fft(_ring_values(f, krho[rows], kz[rows], k0, size, shift, count), axis=1)
        if not c.shape[1]:
            c = fresh / size
        else:
            # one butterfly joins the transform of the new nodes to the ring's,
            # with twiddles exp(-i*pi*m/size)/size from the circle of 2*size
            cos, sin = _circle(2 * size, 0.0)[:, 0, :size]
            fresh *= (cos - 1j * sin) / size
            c = 0.5 * np.concatenate((c + fresh, c - fresh), axis=1)
        n = c.shape[1] // 2  # the band: orders -n..n, order -m at column 2n - m
        power = c.real * c.real + c.imag * c.imag  # overflow silenced by oracle_eval
        total = power.sum(axis=1)
        # a row whose squares overflow or underflow is tested on c scaled by
        # an exact power of two, which leaves the test and the cut as they are
        extreme = ~((total >= 2.0**-900) & (total <= 2.0**900))
        if extreme.any():
            scaled = c[extreme]
            scale = -np.frexp(np.abs(scaled).max(axis=1))[1][:, None]
            re, im = np.ldexp(scaled.real, scale), np.ldexp(scaled.imag, scale)
            power[extreme] = re * re + im * im
            total[extreme] = power[extreme].sum(axis=1)
        ring_floor = floor * total
        passed = power[:, n // 2 : 3 * n // 2 + 1].sum(axis=1) <= ring_floor
        if 2 * n >= _MAX_PHI_NODES and not passed.all():
            at = float(krho[rows[~passed][0]])
            raise _RingCapped(f"the {_MAX_PHI_NODES}-node azimuthal cap at k_rho = {at:.9g}")
        if passed.any():
            done = power[passed]
            # the tails from order n - 1 down to 1: sum of |c_k|^2 + |c_-k|^2
            # over m <= k <= n
            tail = np.cumsum(done[:, n - 1 : 0 : -1] + done[:, n + 1 :], axis=1)
            tail += done[:, n, None]
            above = tail > _CUT_SHARE**2 * ring_floor[passed, None]
            tops = np.count_nonzero(above, axis=1)
            top = int(tops.max())
            orders = np.concatenate((c[passed, : top + 1], c[passed, 2 * n - top :]), axis=1)
            cut = np.arange(1, top + 1) > tops[:, None]
            orders[:, 1 : top + 1][cut] = 0.0
            orders[:, top + 1 :][cut[:, ::-1]] = 0.0
            out[rows[passed]] = _bessel_sum(orders, x[rows[passed]], p)
        if not passed.all():
            work.append((rows[~passed], c[~passed]))
    return out


def _integrand(f, p, k0: float, rel_tol: float, count: _Counter, t):
    """The radial integrand |t|*exp(i*kz*z)*Phi at the contour's one variable
    t (units of k0, p in 1/k0), with Phi from _phi_integrals: t = kz in
    [0, 1] on the propagating leg, k_rho = sqrt(1 - t^2), and t = -s <= 0 on
    the evanescent one, kz = -i*t and k_rho = sqrt(1 + t^2)."""
    evanescent = t < 0.0
    krho = np.sqrt(np.where(evanescent, 1.0 + t * t, np.maximum(1.0 - t * t, 0.0)))
    kz = np.where(evanescent, -1j * t, t)
    return np.abs(t) * np.exp(1j * kz * p.z) * _phi_integrals(f, krho, kz, p, k0, rel_tol, count)


def _panels(h, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of h over the panels [lo[i], hi[i]] by the 21-point Gauss-
    Kronrod rule, with |K21 - G10| as their errors; h takes the nodes of all
    panels in one array, so that disjoint panels share a call."""
    nodes, weights = _kronrod()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = h((mid[:, None] + half[:, None] * nodes).ravel()).reshape(lo.size, nodes.size)
    # weighted sums by numpy's own reduction: the first np.dot faults
    # 128 KB of BLAS code into the resident set
    fine = half * (weights * values).sum(axis=1)
    coarse = half * (_leggauss(_GAUSS_NODES)[1] * values[:, 1::2]).sum(axis=1)
    return fine, np.abs(fine - coarse)


def _phase_span(rel_tol: float) -> float:
    """The phase an initial panel spans: the width at which the Gauss rule
    alone meets rel_tol/100 on a pure oscillation, 2*(rel_tol/(100*c))^(1/2n)
    (11.1 rad at rel_tol 1e-7, 7.0 at 1e-11), capped at 12 rad, where the
    Kronrod rule is still about 100 times the more accurate, so that
    |K21 - G10| stays an honest estimate at loose tolerances."""
    return min(12.0, 2.0 * (rel_tol / (100.0 * _GAUSS_ERROR)) ** (0.5 / _GAUSS_NODES))


def _evanescent_cutoff(z: float, k_max: float, rel_tol: float) -> tuple[float, float]:
    """Truncation point in s = sqrt(k_rho^2 - 1) where the decay drops below
    rel_tol/100 at z = k0*p.z, and the cap on s set by k_max (inf if uncapped),
    in units of k0."""
    s_cap = math.sqrt((k_max - 1.0) * (k_max + 1.0))
    s_max = min(math.log(100.0 / rel_tol) / z if z else math.inf, s_cap)
    # k_rho at the cutoff (s_max is infinite for denormal z) and the 1/z^2 of
    # the tail bound (z^2 underflows below ~1e-154) must stay finite
    z_sq = z * z
    if not (math.isfinite(1.0 + s_max * s_max) and z_sq > 0.0 and 1.0 / z_sq < math.inf):
        raise DomainError(
            f"evanescent cutoff s = {s_max:.3g}*k0 is out of range at k0*z = {z:g}: "
            "the observation point is too close to the z = 0 plane for the oracle"
        )
    return s_max, s_cap


def _check_envelope(k0r: float) -> None:
    """Refuse k0*r beyond ORACLE_K0R_ENVELOPE, with a few ulps of slack:
    sweep points at the envelope are rebuilt from (theta, k0r) and carry
    rounding in r."""
    if not k0r <= ORACLE_K0R_ENVELOPE * (1.0 + 1e-12):
        raise ConfigError(
            f"k0*r = {k0r:g} is outside the oracle's desk-scale envelope "
            f"k0*r <= {ORACLE_K0R_ENVELOPE:g}"
        )


def _check_bandwidth(p: ObservationPoint, s_max: float) -> None:
    """Refuse a cutoff whose widest ring, k_rho = sqrt(1 + s_max^2), has an
    azimuthal bandwidth k_rho*rho_xy beyond _MAX_PHI_BANDWIDTH; every
    radial row of both legs lies on or inside that ring."""
    widest = math.sqrt(1.0 + s_max * s_max) * p.rho_xy
    if not widest <= _MAX_PHI_BANDWIDTH:
        raise DomainError(
            f"azimuthal bandwidth k_rho*rho_xy = {widest:.3g} is beyond the "
            "oracle's reach: the observation point is too close to grazing"
        )


def _scaled(p: ObservationPoint, k0: float, cfg: QuadratureConfig):
    """p in units of 1/k0 and the evanescent cutoff (s_max, s_cap) there,
    once the cutoff and the bandwidth pass their checks."""
    s_max, s_cap = _evanescent_cutoff(k0 * p.z, cfg.k_max / k0, cfg.rel_tol)
    q = ObservationPoint(k0 * p.x, k0 * p.y, k0 * p.z)  # the cutoff refused k0*z = 0
    _check_bandwidth(q, s_max)
    return q, s_max, s_cap


def _integrated(f: SpectrumFunction, p: ObservationPoint, k0: float, cfg: QuadratureConfig):
    """The spectrum integrated, the point it is integrated at in units of
    1/k0, and the cutoff (s_max, s_cap) there.  A spectrum with a shift is
    integrated as its remainder g at p + shift, the shift theorem, where
    that point passes the oracle's checks (z > 0, the envelope, the cutoff
    and the bandwidth).  Elsewhere f itself is integrated at p, whose
    checks stand: there a g that decays in the evanescent region converges,
    and one that does not ends in DivergenceError."""
    if f.shifted is not None:
        shift, g = f.shifted
        try:
            at = ObservationPoint(*(a + b for a, b in zip((p.x, p.y, p.z), shift)))
            _check_envelope(k0 * at.r)
            return (g, *_scaled(at, k0, cfg))
        except (ConfigError, DomainError):
            pass  # f at p
    return (f, *_scaled(p, k0, cfg))


def _tail_bound(f, p, k0, s_max, count) -> float:
    """Upper bound on the discarded evanescent tail beyond s_max:
    2*pi * max|f| * b * exp(-s_max*z) * ((s_max + 1)/z + 1/z^2), with max|f|
    probed on an 8 x 8 grid of s and phi.  b bounds |J0| along the tail: a
    radial spectrum's Phi is 2*pi*f*J0(k_rho*rho_xy), |J0(x)| < sqrt(2/(pi*x))
    for x > 0 (Watson, Theory of Bessel Functions, 13.74) and k_rho >=
    sqrt(1 + s_max^2) there, so b = min(1, sqrt(2/(pi*sqrt(1 + s_max^2)*rho_xy)));
    b = 1 for any other spectrum and on axis."""
    probe_s = np.linspace(s_max, s_max * 1.5 + 1.0, 8)
    krho = np.sqrt(1.0 + probe_s**2)
    fmax = float(np.max(np.abs(_ring_values(f, krho, 1j * probe_s, k0, 8, 0.0, count))))
    if f.radial and p.rho_xy > 0.0:
        fmax *= min(1.0, math.sqrt(2.0 / (math.pi * float(krho[0]) * p.rho_xy)))
    z = p.z
    return 2.0 * math.pi * fmax * math.exp(-s_max * z) * ((s_max + 1.0) / z + 1.0 / (z * z))


# a spectrum's values may overflow the sums: a round whose sums are not
# finite ends the run with SpectrumEvaluationError, not a warning
@np.errstate(over="ignore", invalid="ignore")
def oracle_eval(
    f: SpectrumFunction,
    p: ObservationPoint,
    k0: float,
    cfg: QuadratureConfig | None = None,
) -> OracleResult:
    """Evaluate the full-plane spectral integral at observation point p.

    Returns the value with the propagating/evanescent split (the value is
    their exact sum), an error estimate, and the evaluation count, all
    from a quadrature in units of k0, the same for every k0 at one k0*p.  If a
    limit stops the run before ``est_error <= rel_tol * |value|`` (the
    panel budget, the k_max cap, the rounding floor of the panel errors,
    or the azimuthal node cap, which sets ``est_error`` inf) the last value
    is returned with ``converged=False`` and ``limit`` naming it.  A
    spectrum with a shift is integrated as its remainder at p + shift where
    that point has z > 0 and passes the envelope, cutoff and bandwidth
    checks, and as itself at p elsewhere.  A
    persistently growing error estimate under refinement raises
    :class:`~asx.errors.DivergenceError`, and a value or error estimate that
    is not finite (a spectrum large enough to overflow the sums) raises
    :class:`~asx.errors.SpectrumEvaluationError`.  ``k0*r`` above
    ``ORACLE_K0R_ENVELOPE`` is a :class:`~asx.errors.ConfigError`, a value
    that overflows once scaled, or a nonzero one that falls below the smallest
    normal float, a :class:`~asx.errors.DomainError`.
    """
    cfg = cfg or QuadratureConfig()
    require_positive("k0", k0)
    _check_envelope(k0 * p.r)
    if cfg.k_max <= k0:
        raise ConfigError(f"k_max must exceed k0, got k_max={cfg.k_max} with k0={k0}")
    g, q, s_max, s_cap = _integrated(f, p, k0, cfg)
    count = _Counter()
    h = functools.partial(_integrand, g, q, k0, cfg.rel_tol, count)
    # worst-first; on equal errors the left edge
    heap: list[tuple[float, float, float, complex]] = []

    def push(lo: np.ndarray, hi: np.ndarray):  # panels [lo[i], hi[i]] in t
        for start in range(0, lo.size, _PANEL_BATCH):
            a, b = lo[start : start + _PANEL_BATCH], hi[start : start + _PANEL_BATCH]
            fine, errors = _panels(h, a, b)
            for entry in zip((-errors).tolist(), a.tolist(), b.tolist(), fine.tolist()):
                heapq.heappush(heap, entry)

    values, best_err, limit = [0j, 0j], math.inf, ""
    try:
        # initial panels span _phase_span(rel_tol) of phase each: uniform in s
        # on the evanescent leg, whose phase is rho*s, and on the propagating
        # leg uniform in the polar angle a (kz = cos(a)), from exactly 0 to 1,
        # as the phase z*cos(a) +- rho*sin(a) moves at most k0r a radian of
        # a, while in kz the J0 argument rho*sqrt(1 - kz^2) speeds up without
        # bound as kz -> 1
        span = _phase_span(cfg.rel_tol)
        n_prop, n_evan = (
            max(8, min(math.ceil(phase / span), cfg.max_panels // 4))
            for phase in (q.r * math.pi / 2.0, q.rho_xy * s_max)
        )
        kz = np.sin(np.linspace(0.0, 0.5 * math.pi, n_prop + 1))
        s = np.linspace(0.0, s_max, n_evan + 1)
        push(np.concatenate((kz[:-1], -s[1:])), np.concatenate((kz[1:], -s[:-1])))
        tail = _tail_bound(g, q, k0, s_max, count)
        while True:
            # panels left to right, the propagating (lo >= 0) and evanescent
            # (lo < 0) parts apart: the sums depend on the panel set only
            values, err = [0.0 + 0.0j, 0.0 + 0.0j], 0.0
            for neg_err, lo, _, value in sorted(heap, key=lambda e: e[1]):
                values[lo < 0.0] += value
                err -= neg_err
            total, err = values[0] + values[1], err + tail
            if not (math.isfinite(err) and cmath.isfinite(total)):
                raise SpectrumEvaluationError(
                    f"spectrum {f.label!r} overflows the oracle's sums: "
                    f"value {total} with error estimate {err}"
                )
            best_err = min(best_err, err)
            if err <= cfg.rel_tol * abs(total):
                break
            if len(heap) >= cfg.max_panels:
                limit = f"the radial panel budget max_panels={cfg.max_panels}"
                break
            if err > 100.0 * best_err and err > 10.0 * cfg.rel_tol * abs(total):
                raise DivergenceError(
                    "error estimate grew 100x beyond its minimum under refinement; "
                    "the spectrum does not appear to be integrable"
                )
            # When the truncation bound dominates, pushing s_max out is the only
            # move that helps; each extension drops the bound a hundredfold.
            if tail >= 0.5 * err:
                s = np.linspace(s_max, s_max + math.log(100.0) / q.z, 5)
                if s[-1] > s_cap:
                    limit = f"the evanescent cap k_max={cfg.k_max:g}"
                    break
                _check_bandwidth(q, s[-1])
                push(-s[1:], -s[:-1])
                s_max = float(s[-1])
                tail = _tail_bound(g, q, k0, s_max, count)
                continue
            if -heap[0][0] <= 1e-16 * abs(total):
                limit = "the rounding floor of the radial panel errors"
                break
            # a round splits the worst panel and the next within a quarter of it
            # until they cover the excess, fill a call of halves or the budget
            worst, excess = -heap[0][0], err - cfg.rel_tol * abs(total)
            room, split, covered = min(_PANEL_BATCH // 2, cfg.max_panels - len(heap)), [], 0.0
            while heap and len(split) < room and covered < excess and -heap[0][0] >= 0.25 * worst:
                split.append(heapq.heappop(heap))
                covered -= split[-1][0]
            lo, hi = np.array([e[1:3] for e in split]).T
            mid = 0.5 * (lo + hi)
            push(np.concatenate((lo, mid)), np.concatenate((mid, hi)))
    except _RingCapped as cap:
        err, limit = math.inf, str(cap)

    prop, evan = k0 * (k0 * values[0]), k0 * (k0 * values[1])  # dkx*dky
    if not cmath.isfinite(prop + evan):
        raise DomainError(f"oracle value overflows at k0 = {k0:g}, r = {p.r:g}")
    # a nonzero value scaled below the smallest normal float keeps too few bits
    if abs(prop + evan) < sys.float_info.min and values[0] + values[1]:
        raise DomainError(f"oracle value underflows at k0 = {k0:g}, r = {p.r:g}")
    return OracleResult(
        value=prop + evan,
        est_error=k0 * (k0 * err),
        evaluations=count.n,
        propagating_part=prop,
        evanescent_part=evan,
        limit=limit,
    )

"""Brute-force quadrature of the angular-spectrum integral over the plane.

This is the ground truth every asymptotic claim is checked against, so the
design optimizes for controlled error rather than speed:

* polar spectral coordinates (k_rho, phi); the radial integral runs along
  one contour in the kz plane with two legs that meet at the branch circle
  k_rho = k0, the only non-smooth locus of the integrand;
* the propagating leg is kz in [0, k0] (k_rho dk_rho = -kz dkz), which
  turns the 1/kz Weyl-type singularity into a smooth integrand;
* the evanescent leg is kz = i*s with s = sqrt(k_rho^2 - k0^2), so the
  weight becomes exp(-s*z) and the truncation point s_max is chosen where
  exp(-s*z) < rel_tol/10, provably below the accuracy target;
* for a radial spectrum the azimuthal integral is exact by the Sommerfeld
  identity, 2*pi*f(k_rho)*J0(k_rho*rho_xy), one spectrum element per
  radial node (on axis, J0 = 1 and no Bessel call is made); J0 is an
  in-module kernel (power series, Miller's backward recurrence, Hankel's
  asymptotic expansion);
* for any other (parsed) spectrum the azimuthal integral is a periodic
  trapezoid rule sized by the oscillation scale k_rho*rho_xy and doubled
  to convergence (spectrally accurate for smooth periodic integrands);
* both legs share one heap of adaptive Gauss-Legendre panels (interior
  nodes, so the branch circle itself is never evaluated), refined
  worst-first until the summed panel error estimate meets
  rel_tol * |value|;
* for the trapezoid, one panel is one (nodes x phi) block, doubled row by
  row: the radial nodes of both Gauss rules take their trapezoids together,
  each row freezing once it passes its doubling test, and the spectrum
  sees at most _BLOCK_ELEMENTS elements per call (one row if wider).
  A trapezoid stopped at its node cap ends the refinement, since the
  value cannot converge.

Cost grows roughly linearly with k0*r on the J0 path and quadratically on
the trapezoid, so the oracle refuses k0*r above ORACLE_K0R_ENVELOPE.
Identical inputs produce identical outputs: panels are refined and summed
in a fixed deterministic order.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, require_positive
from .spectra import SpectrumFunction
from .spectral import ObservationPoint

__all__ = [
    "QuadratureConfig",
    "OracleResult",
    "oracle_eval",
]

ORACLE_K0R_ENVELOPE = 300.0  # desk-scale limit on k0*r
_PANEL_NODES = 16  # Gauss-Legendre size per panel; error gauged against 2x
# Beyond this azimuthal bandwidth k_rho*rho_xy the first trapezoid would need
# more than 2^19 nodes (8 MB per complex array): the point is too close to
# grazing for the oracle.  The wall holds for radial spectra as well, so one
# rule decides which points the oracle refuses.
_MAX_PHI_BANDWIDTH = float(1 << 18)
_MAX_PHI_NODES = 1 << 15  # azimuthal doubling stops here, flagged unless passed
# Complex elements per spectrum call over a block: 32 KB arrays, so that a
# call's temporaries stay near those of the widest single rings
_BLOCK_ELEMENTS = 1 << 11
_PROP, _EVAN = 0, 1  # legs of the kz contour: kz in [0, k0], then kz = i*s
# J0 takes its power series below the first edge (where the recurrence would
# overflow) and Hankel's expansion from the second on
_J0_SERIES_EDGE = 1.0
_J0_HANKEL_EDGE = 25.0


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
    it converged); ``est_error`` is the radial estimate and does not
    include the residual of an azimuthal trapezoid stopped at its cap.
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
def _j0_coefficients() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients made by recurrence, cut where their terms fall below
    2^-60 at the edge of their range:

    series  1/(k!)^2, the power series of J0 in -x^2/4;
    hankel  rows (P_j, Q_j) of Hankel's expansion (A&S 9.2.5, 9.2.9),
            J0(x) = sqrt(2/(pi*x))*(P*cos(x - pi/4) - Q*sin(x - pi/4)) with
            P = sum P_j/x^2j, Q = sum Q_j/x^(2j+1), P_j = (-1)^j*a_2j,
            Q_j = -(-1)^j*a_(2j+1), a_0 = 1, a_k = a_(k-1)*(2k - 1)^2/(8k);
    reach   the x below which row j still counts, (a_2j*2^60)^(1/2j);
            it falls with j, so the rows an x needs are a prefix.
    """
    series = [1.0]
    while series[-1] * (0.25 * _J0_SERIES_EDGE**2) ** (len(series) - 1) > 2.0**-60:
        k = len(series)
        series.append(series[-1] / (k * k))
    a = [1.0]
    while a[-1] / _J0_HANKEL_EDGE ** (len(a) - 1) > 2.0**-60 or len(a) % 2:
        k = len(a)
        a.append(a[-1] * (2 * k - 1) ** 2 / (8 * k))
    pairs = np.reshape(a, (-1, 2))
    j = np.arange(1, len(pairs))
    hankel = pairs * (-1.0) ** np.arange(len(pairs))[:, None] * [1.0, -1.0]
    reach = np.concatenate(([math.inf], (pairs[1:, 0] * 2.0**60) ** (0.5 / j)))
    return np.array(series), hankel, reach


def _series_j0(x: np.ndarray) -> np.ndarray:
    """J0 for x < _J0_SERIES_EDGE by its power series."""
    return np.polynomial.polynomial.polyval(-0.25 * x * x, _j0_coefficients()[0])


def _miller_j0(x: np.ndarray) -> np.ndarray:
    """J0 for _J0_SERIES_EDGE <= x < _J0_HANKEL_EDGE by Miller's backward
    recurrence J_{k-1} = (2k/x)*J_k - J_{k+1}, started at J_n = 1,
    J_{n+1} = 0 from an even order n set by the largest x, and normalized
    by J0 + 2*(J2 + J4 + ...) = 1.  The unnormalized values grow by at most
    prod(2k/x) <= 2^n*n! < 1e105, as n <= 62; below _J0_SERIES_EDGE they
    would overflow."""
    top = float(x.max())
    n = 2 * math.ceil((top + 12.0 + 8.0 * top ** (1.0 / 3.0)) / 2.0)
    two_over_x = 2.0 / x
    above, at = np.zeros(x.shape), np.ones(x.shape)  # J_{k+1}, J_k at k = n
    even_sum = at.copy()  # J_n + J_{n-2} + ... down to the current k
    for k in range(n, 0, -2):
        odd = k * two_over_x * at - above
        above, at = odd, (k - 1) * two_over_x * odd - at
        even_sum += at
    return at / (2.0 * even_sum - at)


def _hankel_j0(x: np.ndarray) -> np.ndarray:
    """J0 for x >= _J0_HANKEL_EDGE by Hankel's expansion, P and x*Q summed
    together in 1/x^2 over the rows the smallest x needs."""
    _, hankel, reach = _j0_coefficients()
    rows = hankel[: np.count_nonzero(reach > x.min())]
    p, xq = np.polynomial.polynomial.polyval(1.0 / (x * x), rows)
    chi = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - xq / x * np.sin(chi))


_J0_KERNELS = (
    (0.0, _J0_SERIES_EDGE, _series_j0),
    (_J0_SERIES_EDGE, _J0_HANKEL_EDGE, _miller_j0),
    (_J0_HANKEL_EDGE, math.inf, _hankel_j0),
)


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 of real x >= 0, elementwise; within 1e-15 of
    scipy.special.j0 on [0, 3e5]."""
    out = np.empty(x.shape)
    for lo, hi, kernel in _J0_KERNELS:
        part = (lo <= x) & (x < hi)
        if part.any():
            out[part] = kernel(x[part])
    return out


class _Counter:
    """Spectrum evaluations, and radial nodes whose azimuthal trapezoid
    stopped at its cap without passing the doubling test."""

    __slots__ = ("n", "capped")

    def __init__(self):
        self.n = 0
        self.capped = 0


def _block_means(f, krho, kz, p: ObservationPoint, k0: float, phi, count: _Counter):
    """Mean of f * exp(i*(kx*x + ky*y)) over the azimuths phi on each circle
    krho[j] (at kz[j]), and the largest modulus on it.  Rows go to the
    spectrum in blocks of at most _BLOCK_ELEMENTS elements, one row at least."""
    cos, sin = np.cos(phi), np.sin(phi)
    means = np.empty(krho.size, dtype=complex)
    peaks = np.empty(krho.size)
    step = max(1, _BLOCK_ELEMENTS // phi.size)
    for lo in range(0, krho.size, step):
        rows = slice(lo, lo + step)
        kx = krho[rows, None] * cos
        ky = krho[rows, None] * sin
        count.n += kx.size
        # in place, so a block holds its spectrum call and one array more
        g = 1j * (kx * p.x + ky * p.y)
        np.exp(g, out=g)
        g *= f.evaluate(kx, ky, np.broadcast_to(kz[rows, None], kx.shape), k0)
        means[rows] = g.mean(axis=1)
        peaks[rows] = np.abs(g).max(axis=1)
    return means, peaks


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

    A radial spectrum takes the Sommerfeld identity, 2*pi*f*J0(k_rho*rho_xy),
    one spectrum element per row.  Otherwise the integrand is smooth and
    2*pi-periodic, so the trapezoid rule converges spectrally once the node
    count exceeds the Bessel-type bandwidth k_rho*rho_xy of the phase
    factor.  Rows that start from the same node count form one (rows x phi)
    block, doubled together; each doubling reuses all previous nodes, a row
    that passes its test is frozen and leaves the block, at least one
    doubling test runs, and a row still failing at _MAX_PHI_NODES is
    counted in ``count.capped``.
    """
    rho = p.rho_xy
    if f.radial:
        count.n += krho.size
        ring = 2.0 * math.pi * f.evaluate(krho, np.zeros(krho.shape), kz, k0)
        return ring if rho == 0.0 else ring * _j0(krho * rho)

    # rows by starting node count; plain Python, since the first call of
    # np.unique or of an integer == costs RSS out of proportion to 48 rows
    blocks: dict[int, list[int]] = {}
    for row, log_n in enumerate(np.ceil(np.log2(krho * rho + 32)).astype(int).tolist()):
        blocks.setdefault(1 << log_n, []).append(row)
    # noise floor for the radial error estimator sitting on top of this
    phi_rel = rel_tol / 30.0
    out = np.empty(krho.size, dtype=complex)
    for n, block in sorted(blocks.items()):
        rows = np.array(block)
        phi = 2.0 * math.pi * np.arange(n) / n
        mean, gmax = _block_means(f, krho[rows], kz[rows], p, k0, phi, count)
        value = 2.0 * math.pi * mean
        while True:
            phi = 2.0 * math.pi * (np.arange(n) + 0.5) / n
            mean, peak = _block_means(f, krho[rows], kz[rows], p, k0, phi, count)
            refined = 0.5 * (value + 2.0 * math.pi * mean)
            gmax = np.maximum(gmax, peak)
            floor = phi_rel * (np.abs(refined) + 1e-3 * 2.0 * math.pi * gmax)
            failed = ~(np.abs(refined - value) <= floor)
            out[rows] = refined
            n *= 2
            if not failed.any():
                break
            if n >= _MAX_PHI_NODES:
                count.capped += int(np.count_nonzero(failed))
                break
            rows, value, gmax = rows[failed], refined[failed], gmax[failed]
    return out


def _panel(h, a: float, b: float) -> tuple[complex, float]:
    """Value of h over [a, b] by 2*_PANEL_NODES-point Gauss-Legendre, and
    its distance from the _PANEL_NODES-point rule as the error; h takes
    the nodes of both rules in one array."""
    coarse_nodes, coarse_weights = _leggauss(_PANEL_NODES)
    fine_nodes, fine_weights = _leggauss(2 * _PANEL_NODES)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = h(mid + half * np.concatenate((coarse_nodes, fine_nodes)))
    # weighted sums by numpy's own reduction: the first np.dot faults
    # 128 KB of BLAS code into the resident set
    coarse = half * (coarse_weights * values[:_PANEL_NODES]).sum()
    fine = half * (fine_weights * values[_PANEL_NODES:]).sum()
    return complex(fine), float(abs(fine - coarse))


def _leg_sums(heap) -> tuple[list[complex], list[float]]:
    """Value and summed error estimate of each leg, panels taken left to
    right, so the sums depend on the panel set only."""
    values, errors = [0.0 + 0.0j, 0.0 + 0.0j], [0.0, 0.0]
    for neg_err, leg, _, _, value in sorted(heap, key=lambda e: e[1:3]):
        values[leg] += value
        errors[leg] -= neg_err
    return values, errors


def _evanescent_cutoff(
    p: ObservationPoint, k0: float, cfg: QuadratureConfig
) -> tuple[float, float]:
    """Truncation point in s = sqrt(k_rho^2 - k0^2) where the decay drops
    below rel_tol/10, and the cap on s set by cfg.k_max (inf if uncapped)."""
    if cfg.k_max <= k0:
        raise ConfigError(f"k_max must exceed k0, got k_max={cfg.k_max} with k0={k0}")
    s_cap = math.sqrt((cfg.k_max - k0) * (cfg.k_max + k0))
    s_max = min(math.log(10.0 / cfg.rel_tol) / p.z, s_cap)
    # k_rho at the cutoff must stay finite (s_max is infinite for denormal z),
    # and so must the 1/z^2 of the tail bound (z^2 underflows below ~1e-154,
    # also when k_max keeps s_max finite)
    z_sq = p.z * p.z
    if not (math.isfinite(k0 * k0 + s_max * s_max) and z_sq > 0.0 and 1.0 / z_sq < math.inf):
        raise DomainError(
            f"evanescent cutoff s = {s_max:.3g} is out of range at z = {p.z:g}: "
            "the observation point is too close to the z = 0 plane for the oracle"
        )
    return s_max, s_cap


def _check_bandwidth(p: ObservationPoint, k0: float, s_max: float) -> None:
    """Refuse a cutoff whose widest ring, k_rho = sqrt(k0^2 + s_max^2), has
    an azimuthal bandwidth k_rho*rho_xy beyond _MAX_PHI_BANDWIDTH; every
    radial row of both legs lies on or inside that ring."""
    widest = math.sqrt(k0 * k0 + s_max * s_max) * p.rho_xy
    if not widest <= _MAX_PHI_BANDWIDTH:
        raise DomainError(
            f"azimuthal bandwidth k_rho*rho_xy = {widest:.3g} is beyond the "
            "oracle's reach: the observation point is too close to grazing"
        )


def _tail_bound(f, p, k0, s_max, count) -> float:
    """Upper bound on the discarded evanescent tail beyond s_max:
    2*pi * max|f| * exp(-s_max*z) * ((s_max + k0)/z + 1/z^2), with max|f|
    probed on an 8 x 8 grid of s and phi."""
    probe_s = np.linspace(s_max, s_max * 1.5 + 1.0, 8)
    krho = np.sqrt(k0 * k0 + probe_s**2)[:, None]
    phi = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    sample = f.evaluate(
        krho * np.cos(phi),
        krho * np.sin(phi),
        np.broadcast_to((1j * probe_s)[:, None], (8, 8)),
        k0,
    )
    count.n += sample.size
    fmax = float(np.max(np.abs(sample)))
    z = p.z
    return 2.0 * math.pi * fmax * math.exp(-s_max * z) * ((s_max + k0) / z + 1.0 / (z * z))


def oracle_eval(
    f: SpectrumFunction,
    p: ObservationPoint,
    k0: float,
    cfg: QuadratureConfig | None = None,
) -> OracleResult:
    """Evaluate the full-plane spectral integral at observation point p.

    Returns the value with the propagating/evanescent split (the value is
    their exact sum), an error estimate, and the evaluation count.  If a
    limit stops the run before ``est_error <= rel_tol * |value|`` (the
    panel budget, the k_max cap, the rounding floor of the panel errors,
    or the azimuthal node cap) the best value is returned with
    ``converged=False`` and ``limit`` naming it.  A persistently growing
    error estimate under refinement raises
    :class:`~asx.errors.DivergenceError`.  ``k0*r`` above
    ``ORACLE_K0R_ENVELOPE`` is a :class:`~asx.errors.ConfigError`.
    """
    cfg = cfg or QuadratureConfig()
    require_positive("k0", k0)
    k0r = k0 * p.r
    # a few ulps of slack: sweep points at the envelope are rebuilt from
    # (theta, k0r) and carry rounding in r
    if not k0r <= ORACLE_K0R_ENVELOPE * (1.0 + 1e-12):
        raise ConfigError(
            f"k0*r = {k0r:g} is outside the oracle's desk-scale envelope "
            f"k0*r <= {ORACLE_K0R_ENVELOPE:g}"
        )
    s_max, s_cap = _evanescent_cutoff(p, k0, cfg)
    _check_bandwidth(p, k0, s_max)
    count = _Counter()

    def h_prop(kz: np.ndarray) -> np.ndarray:
        krho = np.sqrt(np.maximum(k0 * k0 - kz * kz, 0.0))
        phi_int = _phi_integrals(f, krho, kz, p, k0, cfg.rel_tol, count)
        return kz * np.exp(1j * kz * p.z) * phi_int

    def h_evan(s: np.ndarray) -> np.ndarray:
        krho = np.sqrt(k0 * k0 + s * s)
        phi_int = _phi_integrals(f, krho, 1j * s, p, k0, cfg.rel_tol, count)
        return s * np.exp(-s * p.z) * phi_int

    legs = (h_prop, h_evan)
    # worst-first; on equal errors the propagating leg, then the left edge
    heap: list[tuple[float, int, float, float, complex]] = []

    def push(leg: int, a: float, b: float):
        value, err = _panel(legs[leg], a, b)
        heapq.heappush(heap, (-err, leg, a, b, value))

    def push_panels(leg: int, a: float, b: float, panels: int):
        edges = np.linspace(a, b, panels + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            push(leg, left, right)

    # initial panel density scales linearly with the total phase
    cap = max(8, cfg.max_panels // 4)
    push_panels(_PROP, 0.0, k0, max(8, min(int(math.ceil(k0r / 4.0)), cap)))
    push_panels(_EVAN, 0.0, s_max, max(8, int(math.ceil(min(p.rho_xy * s_max / 4.0, cap)))))
    tail = _tail_bound(f, p, k0, s_max, count)

    best_err = math.inf
    limit = ""
    while True:
        values, errors = _leg_sums(heap)
        total = values[_PROP] + values[_EVAN]
        err = errors[_PROP] + errors[_EVAN] + tail
        best_err = min(best_err, err)
        # a trapezoid stopped at its cap leaves the value unconverged
        # whatever the radial panels do, so refining them is wasted
        if count.capped:
            break
        if err <= cfg.rel_tol * abs(total) or err < 1e-300:
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
            new_s_max = s_max + math.log(100.0) / p.z
            if new_s_max > s_cap:
                limit = f"the evanescent cap k_max={cfg.k_max:g}"
                break
            _check_bandwidth(p, k0, new_s_max)
            push_panels(_EVAN, s_max, new_s_max, 4)
            s_max = new_s_max
            tail = _tail_bound(f, p, k0, s_max, count)
            continue
        if -heap[0][0] <= 1e-16 * abs(total):
            limit = "the rounding floor of the radial panel errors"
            break
        _, leg, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        push(leg, a, mid)
        push(leg, mid, b)

    if count.capped:
        phi_limit = f"the {_MAX_PHI_NODES}-node azimuthal cap at {count.capped} radial nodes"
        limit = f"{limit} and {phi_limit}" if limit else phi_limit
    return OracleResult(
        value=total,
        est_error=err,
        evaluations=count.n,
        propagating_part=values[_PROP],
        evanescent_part=values[_EVAN],
        limit=limit,
    )

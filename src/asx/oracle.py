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
* the azimuthal integral is a periodic trapezoid rule sized by the
  oscillation scale k_rho*rho_xy and doubled to convergence (spectrally
  accurate for smooth periodic integrands); on axis it collapses to
  2*pi*f for radially symmetric spectra;
* both legs share one heap of adaptive Gauss-Legendre panels (interior
  nodes, so the branch circle itself is never evaluated), refined
  worst-first until the summed panel error estimate meets
  rel_tol * |value|.

Cost grows roughly quadratically with k0*r, so the oracle refuses
k0*r above ORACLE_K0R_ENVELOPE.  Identical inputs produce identical
outputs: panels are refined and summed in a fixed deterministic order.
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
# grazing for the oracle.
_MAX_PHI_BANDWIDTH = float(1 << 18)
_MAX_PHI_NODES = 1 << 15  # azimuthal doubling stops here, flagged unless passed
_PROP, _EVAN = 0, 1  # legs of the kz contour: kz in [0, k0], then kz = i*s


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


class _Counter:
    """Spectrum evaluations, and radial nodes whose azimuthal trapezoid
    stopped at its cap without passing the doubling test."""

    __slots__ = ("n", "capped")

    def __init__(self):
        self.n = 0
        self.capped = 0


def _ring(f, krho, kz, p: ObservationPoint, k0: float, phi, count: _Counter):
    """f * exp(i*(kx*x + ky*y)) at azimuths phi on the circle k_rho."""
    kx = krho * np.cos(phi)
    ky = krho * np.sin(phi)
    count.n += kx.size
    return f.evaluate(kx, ky, np.broadcast_to(kz, kx.shape), k0) * np.exp(
        1j * (kx * p.x + ky * p.y)
    )


def _phi_integral(
    f: SpectrumFunction,
    krho: float,
    kz: complex,
    p: ObservationPoint,
    k0: float,
    rel_tol: float,
    count: _Counter,
) -> complex:
    """Azimuthal integral of f * exp(i*(kx*x + ky*y)) at fixed k_rho, kz.

    The integrand is smooth and 2*pi-periodic, so the trapezoid rule
    converges spectrally once the node count exceeds the Bessel-type
    bandwidth k_rho*rho_xy of the phase factor.  Each doubling reuses all
    previous nodes; at least one doubling test runs, and a test still
    failing at _MAX_PHI_NODES is counted in ``count.capped``.
    """
    rho = p.rho_xy
    if rho == 0.0 and f.radial:
        count.n += 1
        return 2.0 * math.pi * f.evaluate(krho, 0.0, kz, k0)

    bandwidth = krho * rho
    if not bandwidth <= _MAX_PHI_BANDWIDTH:
        raise DomainError(
            f"azimuthal bandwidth k_rho*rho_xy = {bandwidth:.3g} is beyond the "
            "oracle's reach: the observation point is too close to grazing"
        )
    n = 1 << int(np.ceil(np.log2(bandwidth + 32)))
    g = _ring(f, krho, kz, p, k0, 2.0 * math.pi * np.arange(n) / n, count)
    value = 2.0 * math.pi * np.mean(g)
    gmax = float(np.max(np.abs(g)))
    # noise floor for the radial error estimator sitting on top of this
    phi_rel = rel_tol / 30.0
    while True:
        gm = _ring(f, krho, kz, p, k0, 2.0 * math.pi * (np.arange(n) + 0.5) / n, count)
        refined = 0.5 * (value + 2.0 * math.pi * np.mean(gm))
        gmax = max(gmax, float(np.max(np.abs(gm))))
        change = abs(refined - value)
        value = refined
        n *= 2
        if change <= phi_rel * (abs(value) + 1e-3 * 2.0 * math.pi * gmax):
            return complex(value)
        if n >= _MAX_PHI_NODES:
            count.capped += 1
            return complex(value)


def _panel(h, a: float, b: float) -> tuple[complex, float]:
    """Value of h over [a, b] by 2*_PANEL_NODES-point Gauss-Legendre, and
    its distance from the _PANEL_NODES-point rule as the error."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def quad(nodes: int) -> complex:
        total = 0.0 + 0.0j
        for ti, wi in zip(*_leggauss(nodes)):
            total += wi * h(mid + half * ti)
        return half * total

    coarse = quad(_PANEL_NODES)
    fine = quad(2 * _PANEL_NODES)
    return fine, abs(fine - coarse)


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
    # k_rho at the cutoff must stay finite (s_max is infinite for denormal z)
    if not math.isfinite(k0 * k0 + s_max * s_max):
        raise DomainError(
            f"evanescent cutoff s = {s_max:.3g} is out of range at z = {p.z:g}: "
            "the observation point is too close to the z = 0 plane for the oracle"
        )
    return s_max, s_cap


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
    count = _Counter()

    def h_prop(kz: float) -> complex:
        krho = math.sqrt(max(k0 * k0 - kz * kz, 0.0))
        phi_int = _phi_integral(f, krho, kz, p, k0, cfg.rel_tol, count)
        return kz * np.exp(1j * kz * p.z) * phi_int

    def h_evan(s: float) -> complex:
        krho = math.sqrt(k0 * k0 + s * s)
        phi_int = _phi_integral(f, krho, 1j * s, p, k0, cfg.rel_tol, count)
        return s * math.exp(-s * p.z) * phi_int

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

"""Brute-force quadrature of the angular-spectrum integral over the plane.

This is the ground truth every asymptotic claim is checked against, so the
design optimizes for controlled error rather than speed:

* polar spectral coordinates (k_rho, phi), split at the branch circle
  k_rho = k0, the only non-smooth locus of the integrand;
* on the propagating disk the radial variable is substituted to kz
  (k_rho dk_rho = -kz dkz), which turns the 1/kz Weyl-type singularity
  into a smooth integrand;
* the evanescent region is substituted to s = sqrt(k_rho^2 - k0^2), so the
  weight becomes exp(-s*z) and the truncation point s_max is chosen where
  exp(-s*z) < rel_tol/10, provably below the accuracy target;
* the azimuthal integral is a periodic trapezoid rule sized by the
  oscillation scale k_rho*rho_xy and doubled to convergence (spectrally
  accurate for smooth periodic integrands); on axis it collapses to
  2*pi*f for radially symmetric spectra;
* radial integrals use adaptive Gauss-Legendre panels (interior nodes, so
  the branch circle itself is never evaluated) refined worst-first until
  the summed panel error estimate meets rel_tol * |value|.

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and budget knobs for the oracle.

    rel_tol      target relative accuracy, within [1e-12, 1e-2]
    k_max        cap on the evanescent truncation radius in k_rho
                 (the decay-based cutoff applies regardless)
    max_panels   total radial panel budget across both regions
    phi_nodes    minimum azimuthal node count
    """

    rel_tol: float = 1e-7
    k_max: float = math.inf
    max_panels: int = 1024
    phi_nodes: int = 32

    def __post_init__(self):
        if not (1e-12 <= self.rel_tol <= 1e-2):
            raise ConfigError(
                f"rel_tol must lie in [1e-12, 1e-2], got {self.rel_tol}"
            )
        if self.max_panels < 16:
            raise ConfigError(f"max_panels must be >= 16, got {self.max_panels}")
        if self.phi_nodes < 4:
            raise ConfigError(f"phi_nodes must be >= 4, got {self.phi_nodes}")
        if not self.k_max > 0.0:
            raise ConfigError(f"k_max must be positive, got {self.k_max}")


@dataclass(frozen=True)
class OracleResult:
    """Quadrature value with its split, error estimate and cost."""

    value: complex
    est_error: float
    evaluations: int
    propagating_part: complex
    evanescent_part: complex
    converged: bool


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _phi_integral(
    f: SpectrumFunction,
    krho: float,
    kz: complex,
    p: ObservationPoint,
    k0: float,
    cfg: QuadratureConfig,
    count: _Counter,
) -> complex:
    """Azimuthal integral of f * exp(i*(kx*x + ky*y)) at fixed k_rho, kz.

    The integrand is smooth and 2*pi-periodic, so the trapezoid rule
    converges spectrally once the node count exceeds the Bessel-type
    bandwidth k_rho*rho_xy of the phase factor.  Doubling reuses all
    previous nodes.
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
    n = 1 << max(int(np.ceil(np.log2(max(cfg.phi_nodes, bandwidth + 32)))), 2)
    phi = 2.0 * math.pi * np.arange(n) / n
    kx = krho * np.cos(phi)
    ky = krho * np.sin(phi)
    g = f.evaluate(kx, ky, np.broadcast_to(kz, kx.shape), k0) * np.exp(
        1j * (kx * p.x + ky * p.y)
    )
    count.n += n
    value = 2.0 * math.pi * np.mean(g)
    gmax = float(np.max(np.abs(g)))
    # noise floor for the radial error estimator sitting on top of this
    phi_rel = cfg.rel_tol / 30.0
    while n < (1 << 15):
        mid = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        kx = krho * np.cos(mid)
        ky = krho * np.sin(mid)
        gm = f.evaluate(kx, ky, np.broadcast_to(kz, kx.shape), k0) * np.exp(
            1j * (kx * p.x + ky * p.y)
        )
        count.n += n
        refined = 0.5 * (value + 2.0 * math.pi * np.mean(gm))
        gmax = max(gmax, float(np.max(np.abs(gm))))
        change = abs(refined - value)
        value = refined
        n *= 2
        if change <= phi_rel * (abs(value) + 1e-3 * 2.0 * math.pi * gmax):
            break
    return complex(value)


class _Region:
    """Adaptive Gauss-Legendre panel stack over one radial interval.

    Panels are kept in a worst-error heap keyed by (-error, left edge), so
    refinement order is deterministic.  The region value is re-summed in
    left-to-right panel order, keeping results independent of refinement
    history beyond the panel set itself.
    """

    def __init__(self, integrand, a: float, b: float, initial_panels: int):
        self.integrand = integrand
        self.heap: list[tuple[float, float, float, complex]] = []
        self.panel_count = 0
        edges = np.linspace(a, b, initial_panels + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            self._push(left, right)

    def _push(self, a: float, b: float):
        value, err = self._panel(a, b)
        heapq.heappush(self.heap, (-err, a, b, value))
        self.panel_count += 1

    def _quad(self, a: float, b: float, nodes: int) -> complex:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total = 0.0 + 0.0j
        for ti, wi in zip(*_leggauss(nodes)):
            total += wi * self.integrand(mid + half * ti)
        return half * total

    def _panel(self, a: float, b: float) -> tuple[complex, float]:
        coarse = self._quad(a, b, _PANEL_NODES)
        fine = self._quad(a, b, 2 * _PANEL_NODES)
        return fine, abs(fine - coarse)

    def refine_worst(self):
        neg_err, a, b, _ = heapq.heappop(self.heap)
        self.panel_count -= 1
        mid = 0.5 * (a + b)
        self._push(a, mid)
        self._push(mid, b)

    def extend(self, new_edge: float, panels: int):
        """Append panels beyond the current right edge (tail extension)."""
        old_edge = max(entry[2] for entry in self.heap)
        edges = np.linspace(old_edge, new_edge, panels + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            self._push(left, right)

    @property
    def err(self) -> float:
        return sum(-entry[0] for entry in self.heap)

    @property
    def worst_err(self) -> float:
        return -self.heap[0][0] if self.heap else 0.0

    def value(self) -> complex:
        total = 0.0 + 0.0j
        for _, _, _, panel_value in sorted(self.heap, key=lambda e: e[1]):
            total += panel_value
        return total


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


def _prop_region(f, p, k0, cfg, count) -> _Region:
    """Propagating disk in the kz variable: kz in [0, k0], integrand
    kz * exp(i*kz*z) * (azimuthal integral).  Initial panel density scales
    linearly with the total phase k0*r."""

    def h_prop(kz: float) -> complex:
        krho = math.sqrt(max(k0 * k0 - kz * kz, 0.0))
        return kz * np.exp(1j * kz * p.z) * _phi_integral(f, krho, kz, p, k0, cfg, count)

    cap = max(8, cfg.max_panels // 4)
    n_prop = max(8, min(int(math.ceil(k0 * p.r / 4.0)), cap))
    return _Region(h_prop, 0.0, k0, n_prop)


def _evan_region(f, p, k0, cfg, count, s_max) -> _Region:
    """Evanescent region in s = sqrt(k_rho^2 - k0^2): s in (0, s_max],
    weight s * exp(-s*z)."""

    def h_evan(s: float) -> complex:
        krho = math.sqrt(k0 * k0 + s * s)
        return s * math.exp(-s * p.z) * _phi_integral(f, krho, 1j * s, p, k0, cfg, count)

    cap = max(8, cfg.max_panels // 4)
    n_evan = max(8, int(math.ceil(min(p.rho_xy * s_max / 4.0, cap))))
    return _Region(h_evan, 0.0, s_max, n_evan)


def _tail_bound(f, p, k0, s_max, count) -> float:
    """Upper bound on the discarded evanescent tail beyond s_max:
    2*pi * max|f| * exp(-s_max*z) * ((s_max + k0)/z + 1/z^2)."""
    probe_s = np.linspace(s_max, s_max * 1.5 + 1.0, 8)
    krho = np.sqrt(k0 * k0 + probe_s**2)
    fmax = 0.0
    for s, kr in zip(probe_s, krho):
        sample = f.evaluate(
            kr * np.cos(np.linspace(0.0, 2 * np.pi, 8, endpoint=False)),
            kr * np.sin(np.linspace(0.0, 2 * np.pi, 8, endpoint=False)),
            np.broadcast_to(1j * s, (8,)),
            k0,
        )
        count.n += 8
        fmax = max(fmax, float(np.max(np.abs(sample))))
    z = p.z
    return (
        2.0
        * math.pi
        * fmax
        * math.exp(-s_max * z)
        * ((s_max + k0) / z + 1.0 / (z * z))
    )


def oracle_eval(
    f: SpectrumFunction,
    p: ObservationPoint,
    k0: float,
    cfg: QuadratureConfig | None = None,
) -> OracleResult:
    """Evaluate the full-plane spectral integral at observation point p.

    Returns the value with the propagating/evanescent split (the value is
    their exact sum), an error estimate, and the evaluation count.  If the
    panel budget runs out before ``est_error <= rel_tol * |value|`` the
    best value is returned with ``converged=False``.  A persistently
    growing error estimate under refinement raises
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
    prop = _prop_region(f, p, k0, cfg, count)
    evan = _evan_region(f, p, k0, cfg, count, s_max)
    tail = _tail_bound(f, p, k0, s_max, count)

    best_err = math.inf
    converged = False
    while True:
        total = prop.value() + evan.value()
        err = prop.err + evan.err + tail
        best_err = min(best_err, err)
        if err <= cfg.rel_tol * abs(total) or err < 1e-300:
            converged = True
            break
        if prop.panel_count + evan.panel_count >= cfg.max_panels:
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
                break  # capped by k_max: the bound cannot shrink further
            evan.extend(new_s_max, 4)
            s_max = new_s_max
            tail = _tail_bound(f, p, k0, s_max, count)
            continue
        if prop.worst_err <= 1e-16 * abs(total) and evan.worst_err <= 1e-16 * abs(total):
            break  # panel errors at the rounding floor: refinement is spent
        if prop.worst_err >= evan.worst_err:
            prop.refine_worst()
        else:
            evan.refine_worst()

    p_val = prop.value()
    e_val = evan.value()
    return OracleResult(
        value=p_val + e_val,
        est_error=prop.err + evan.err + tail,
        evaluations=count.n,
        propagating_part=p_val,
        evanescent_part=e_val,
        converged=converged,
    )

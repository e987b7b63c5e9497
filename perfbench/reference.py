"""Reference values computed apart from asx.

Nothing here imports asx.  The spectra are re-implemented from their
definitions, the leading-order value is recomputed from the paper's formula,
and the true integrals come from exact closed forms or from a 1-D Sommerfeld
integral:

* Weyl ``i/(2*pi*kz)``:            ``exp(i*k0*R)/R``;
* translated Weyl
  ``i/(2*pi*kz)*exp(-i*a*kx + i*b*ky)``: the same at ``(x-a, y+b, z)``
  (shift theorem);
* constant ``1``:                  ``-2*pi * d/dz (exp(i*k0*r)/r)``;
* Gaussian ``exp(-(kx^2+ky^2))``:  ``2*pi * int f(k) J0(k*rho) exp(i*kz*z) k dk``,
  by ``scipy.integrate.quad`` with ``scipy.special.j0``.

Run as a script it reads a JSON list of ``[key, x, y, z, k0]`` requests on
stdin and prints ``[re, im, abs_err]`` for each, so that scipy is never
imported into the measured process.
"""

from __future__ import annotations

import cmath
import json
import math
import subprocess
import sys

import numpy as np

# Shift of the translated Weyl spectrum, as written into its expression.
SHIFT_A = 1.5
SHIFT_B = 0.75

# key -> (builtin name or None, expression or None)
SPECTRA = {
    "weyl": ("weyl", None),
    "constant": ("constant", None),
    "gauss": ("gaussian(2)", None),
    "pweyl": (None, "i/(2*pi*kz)"),
    "pgauss": (None, "exp(-(kx^2+ky^2))"),
    "tweyl": (None, f"i/(2*pi*kz)*exp(-i*{SHIFT_A}*kx + i*{SHIFT_B}*ky)"),
}


def amplitude(key: str, kx, ky, kz):
    """The spectrum ``key`` evaluated from its definition."""
    if key in ("weyl", "pweyl"):
        return 1j / (2.0 * math.pi * kz)
    if key == "constant":
        return 1.0 + 0.0j
    if key in ("gauss", "pgauss"):
        return np.exp(-(kx * kx + ky * ky))
    if key == "tweyl":
        return 1j / (2.0 * math.pi * kz) * np.exp(-1j * SHIFT_A * kx + 1j * SHIFT_B * ky)
    raise KeyError(key)


def leading_order(key: str, x: float, y: float, z: float, k0: float) -> complex:
    """``-2*pi*i * k0 * theta * f(saddle) * exp(i*k0*r) / r`` with the saddle
    at ``k0*(x, y, z)/r``."""
    r = math.sqrt(x * x + y * y + z * z)
    f = complex(amplitude(key, k0 * x / r, k0 * y / r, k0 * z / r))
    return -2j * math.pi * k0 * (z / r) * f * cmath.exp(1j * k0 * r) / r


def spherical_wave(x: float, y: float, z: float, k0: float) -> complex:
    r = math.sqrt(x * x + y * y + z * z)
    return cmath.exp(1j * k0 * r) / r


def constant_exact(x: float, y: float, z: float, k0: float) -> complex:
    """``-2*pi * d/dz (exp(i*k0*r)/r) = -2*pi * (z/r) * (i*k0 - 1/r) * exp(i*k0*r)/r``."""
    r = math.sqrt(x * x + y * y + z * z)
    return -2.0 * math.pi * (z / r) * (1j * k0 - 1.0 / r) * cmath.exp(1j * k0 * r) / r


def _quad_complex(fn, a: float, b: float, pieces: int) -> tuple[complex, float]:
    from scipy.integrate import quad

    edges = np.linspace(a, b, pieces + 1)
    total, err = 0.0 + 0.0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        re, e_re = quad(lambda t: fn(t).real, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        im, e_im = quad(lambda t: fn(t).imag, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += complex(re, im)
        err += e_re + e_im
    return total, err


def gaussian_sommerfeld(x: float, y: float, z: float, k0: float) -> tuple[complex, float]:
    """``2*pi * int_0^inf exp(-k^2) J0(k*rho) exp(i*kz*z) k dk`` and its error bound.

    The propagating part runs in ``t = kz`` (``k dk = -t dt``) and the
    evanescent part in ``s = -i*kz`` (``k dk = s ds``), both smooth; the
    evanescent part is cut where ``exp(-k^2)`` is below 1e-30.
    """
    from scipy.special import j0

    rho = math.hypot(x, y)

    def prop(t):
        k = math.sqrt(max(k0 * k0 - t * t, 0.0))
        return math.exp(-k * k) * j0(k * rho) * cmath.exp(1j * t * z) * t

    def evan(s):
        k = math.sqrt(k0 * k0 + s * s)
        return math.exp(-k * k) * j0(k * rho) * math.exp(-s * z) * s

    s_max = math.sqrt(max(70.0 - k0 * k0, 1.0))
    # one piece per few oscillations of J0(k*rho) keeps every quad call easy
    pieces = max(1, int(k0 * rho / 20.0))
    p_val, p_err = _quad_complex(prop, 0.0, k0, pieces)
    e_val, e_err = _quad_complex(evan, 0.0, s_max, max(1, int(s_max * rho / 20.0)))
    return 2.0 * math.pi * (p_val + e_val), 2.0 * math.pi * (p_err + e_err)


def true_value(key: str, x: float, y: float, z: float, k0: float) -> tuple[complex, float]:
    """The exact integral for spectrum ``key`` at ``(x, y, z)`` and a bound on
    the error of this reference itself."""
    if key in ("weyl", "pweyl"):
        v = spherical_wave(x, y, z, k0)
    elif key == "tweyl":
        v = spherical_wave(x - SHIFT_A, y + SHIFT_B, z, k0)
    elif key == "constant":
        v = constant_exact(x, y, z, k0)
    elif key in ("gauss", "pgauss"):
        return gaussian_sommerfeld(x, y, z, k0)
    else:
        raise KeyError(key)
    return v, 1e-13 * abs(v)


def compute_in_subprocess(requests: list[tuple], python: str) -> list[tuple[complex, float]]:
    """Evaluate :func:`true_value` for each request in a separate interpreter."""
    proc = subprocess.run(
        [python, __file__],
        input=json.dumps(requests),
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference computation failed: {proc.stderr.strip()}")
    return [(complex(re, im), err) for re, im, err in json.loads(proc.stdout)]


if __name__ == "__main__":
    out = []
    for key, x, y, z, k0 in json.load(sys.stdin):
        v, err = true_value(key, x, y, z, k0)
        out.append([v.real, v.imag, err])
    json.dump(out, sys.stdout)

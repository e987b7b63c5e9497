"""Spectrum registry: builtin amplitudes and parsed user expressions.

A spectrum is an evaluable complex amplitude ``f(kx, ky, kz, k0)``.  The
``kz`` argument is always supplied by the caller (ultimately from
:func:`asx.spectral.kz_branch`); the evaluator never recomputes the
branch, so oracle and asymptotics cannot end up on different sheets.

Builtins:

* ``weyl``         ``i / (2*pi*kz)``, whose integral is the outgoing
  spherical wave ``exp(i*k0*r)/r``;
* ``constant``     ``1``;
* ``gaussian(w)``  ``exp(-w^2*(kx^2 + ky^2)/4)`` with ``w > 0``.

The registry documents but does not enforce the regularity assumption on
user spectra; the oracle's divergence detection is the backstop.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr
from .errors import ConfigError, SpectrumEvaluationError

__all__ = [
    "SpectrumFunction",
    "weyl",
    "constant",
    "gaussian",
    "builtin_spectrum",
    "parse_spectrum",
]


@dataclass(frozen=True)
class SpectrumFunction:
    """An immutable, side-effect-free spectral amplitude.

    ``radial`` marks amplitudes that depend on (kx, ky) only through
    kx^2 + ky^2; the oracle uses it to collapse the on-axis azimuthal
    integral analytically.
    """

    label: str
    radial: bool
    _fn: Callable = field(repr=False, compare=False)

    def evaluate(self, kx, ky, kz, k0: float):
        """Evaluate at scalars or numpy arrays; faults raise
        :class:`~asx.errors.SpectrumEvaluationError`."""
        scalar = np.ndim(kx) == 0 and np.ndim(ky) == 0 and np.ndim(kz) == 0
        with np.errstate(all="ignore"):
            out = self._fn(kx, ky, kz, k0)
        shape = np.broadcast_shapes(np.shape(kx), np.shape(ky), np.shape(kz))
        out = np.broadcast_to(np.asarray(out, dtype=complex), shape)
        if not np.all(np.isfinite(out)):
            raise SpectrumEvaluationError(
                f"spectrum {self.label!r} produced a non-finite value"
            )
        if scalar:
            return complex(out)
        return out


def _weyl_fn(kx, ky, kz, k0):
    if np.any(np.asarray(kz) == 0):
        raise SpectrumEvaluationError("weyl spectrum is singular at kz = 0")
    return 1j / (2.0 * np.pi * np.asarray(kz, dtype=complex))


def weyl() -> SpectrumFunction:
    """Spectrum of the outgoing spherical wave, ``i/(2*pi*kz)``."""
    return SpectrumFunction(label="weyl", radial=True, _fn=_weyl_fn)


def constant() -> SpectrumFunction:
    """The unit spectrum, f = 1."""
    return SpectrumFunction(
        label="constant",
        radial=True,
        _fn=lambda kx, ky, kz, k0: np.ones(
            np.broadcast_shapes(np.shape(kx), np.shape(ky), np.shape(kz)),
            dtype=complex,
        ),
    )


def gaussian(w: float = 1.0) -> SpectrumFunction:
    """Gaussian spectrum ``exp(-w^2*(kx^2 + ky^2)/4)``, w > 0."""
    if not (w > 0.0) or not math.isfinite(w):
        raise ConfigError(f"gaussian width must be positive and finite, got {w}")

    def fn(kx, ky, kz, k0):
        kx = np.asarray(kx, dtype=complex)
        ky = np.asarray(ky, dtype=complex)
        return np.exp(-w * w * (kx * kx + ky * ky) / 4.0)

    return SpectrumFunction(label=f"gaussian({w:g})", radial=True, _fn=fn)


_GAUSSIAN_RE = re.compile(r"gaussian\(([^)]*)\)\Z")


def builtin_spectrum(name: str) -> SpectrumFunction:
    """Resolve a builtin by name: ``weyl``, ``constant``, ``gaussian`` or
    ``gaussian(<width>)``."""
    text = name.strip()
    if text == "weyl":
        return weyl()
    if text == "constant":
        return constant()
    if text == "gaussian":
        return gaussian()
    m = _GAUSSIAN_RE.match(text)
    if m:
        try:
            width = float(m.group(1))
        except ValueError:
            raise ConfigError(f"bad gaussian width {m.group(1)!r}") from None
        return gaussian(width)
    raise ConfigError(
        f"unknown builtin spectrum {name!r}; choose weyl, constant or gaussian(w)"
    )


def parse_spectrum(src: str) -> SpectrumFunction:
    """Parse an expression such as ``"i/(2*pi*kz)"`` into a spectrum.

    The normalized form of the expression becomes the label; syntax and
    unknown-identifier problems raise
    :class:`~asx.errors.SpectrumParseError` with a column position.
    """
    tree = expr.parse_expression(src)
    label = expr.format_expression(tree)

    def fn(kx, ky, kz, k0):
        return expr.evaluate_tree(tree, {"kx": kx, "ky": ky, "kz": kz, "k0": k0})

    return SpectrumFunction(label=label, radial=False, _fn=fn)

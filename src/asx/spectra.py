"""Spectrum registry: builtin amplitudes and parsed user expressions.

A spectrum is an evaluable complex amplitude ``f(kx, ky, kz, k0)``.  The
``kz`` argument is always supplied by the caller and follows the
top-sheet rule of :mod:`asx.spectral`; the evaluator never recomputes the
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

import cmath
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
    kx^2 + ky^2: the builtins, and parsed expressions in which kx and ky
    occur only as the sum ``kx^2+ky^2`` (see :func:`parse_spectrum`).  The
    oracle then evaluates f once per circle k_rho and takes the
    azimuthal integral as 2*pi*f(k_rho)*J0(k_rho*rho_xy); for any other
    spectrum it takes the Fourier coefficients of f from a ring of samples
    on the circle and sums them against J_m(k_rho*rho_xy).

    ``shifted`` is the shift (a, b, c) and the remainder g of a parsed
    f = g*exp(i*(a*kx + b*ky + c*kz)) with real constants a, b, c (see
    :func:`parse_spectrum`), and None for any other spectrum: by the shift
    theorem the integral of f at p is that of g at p + (a, b, c), where the
    oracle takes it when it can.  ``label``, ``radial`` and :meth:`evaluate`
    describe f itself.
    """

    label: str
    radial: bool
    _fn: Callable = field(repr=False, compare=False)
    shifted: tuple[tuple[float, float, float], SpectrumFunction] | None = None

    def evaluate(self, kx, ky, kz, k0: float):
        """Evaluate at scalars or numpy arrays; faults raise
        :class:`~asx.errors.SpectrumEvaluationError`."""
        with np.errstate(all="ignore"):
            out = self._fn(kx, ky, kz, k0)
        shape = np.shape(kx)
        # scalar arguments with a scalar value need no numpy array
        if not (shape or np.shape(ky) or np.shape(kz) or np.shape(out)):
            value = complex(out)
            if not cmath.isfinite(value):
                raise self._non_finite()
            return value
        # the oracle's calls pass arrays of one shape and get a complex array
        # of that shape back, which needs no broadcast or conversion
        if not (
            type(out) is np.ndarray
            and out.dtype == complex
            and out.shape == shape == np.shape(ky) == np.shape(kz)
        ):
            shape = np.broadcast_shapes(shape, np.shape(ky), np.shape(kz))
            out = np.broadcast_to(np.asarray(out, dtype=complex), shape)
        if not np.isfinite(out).all():
            raise self._non_finite()
        return out

    def _non_finite(self) -> SpectrumEvaluationError:
        return SpectrumEvaluationError(f"spectrum {self.label!r} produced a non-finite value")


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
        _fn=lambda kx, ky, kz, k0: 1.0,
    )


def gaussian(w: float = 1.0) -> SpectrumFunction:
    """Gaussian spectrum ``exp(-w^2*(kx^2 + ky^2)/4)``, w > 0."""
    if not (w > 0.0) or not math.isfinite(w):
        raise ConfigError(f"gaussian width must be positive and finite, got {w}")

    def fn(kx, ky, kz, k0):
        # the exponent in real arithmetic where kx, ky are real; a complex exp
        # keeps every value to the bit (a real one is 1 ulp off on some)
        return np.exp(-w * w * (kx * kx + ky * ky) / 4.0, dtype=complex)

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


# kx^2 + ky^2 as the parser writes it, in either order
_RHO_SQUARED = tuple(
    expr.BinOp("+", expr.Power(expr.Name(a), 2), expr.Power(expr.Name(b), 2))
    for a, b in (("kx", "ky"), ("ky", "kx"))
)


def _is_radial(node: expr.Node) -> bool:
    """Whether kx and ky occur in a tree only as the operands of a sum
    kx^2 + ky^2 (_RHO_SQUARED)."""
    if node in _RHO_SQUARED:
        return True
    if isinstance(node, expr.Name):
        return node.ident not in ("kx", "ky")
    if isinstance(node, (expr.Neg, expr.Call)):
        return _is_radial(node.arg)
    if isinstance(node, expr.Power):
        return _is_radial(node.base)
    if isinstance(node, expr.BinOp):
        return _is_radial(node.left) and _is_radial(node.right)
    return True


_COORDINATES = ("kx", "ky", "kz")


def _linear(node: expr.Node) -> tuple[complex, complex, complex, complex] | None:
    """The coefficients (constant, kx, ky, kz) of a tree that is linear in
    kx, ky and kz, or None.  Constants are built from numbers, i and pi by
    the arithmetic operators; k0 counts as a variable, and a call, a power
    of a term in kx, ky or kz other than ^1 or a division by zero gives
    None.  An operand whose kx, ky and kz coefficients are all zero counts
    as a constant."""
    if isinstance(node, expr.Number):
        return (complex(node.value), 0j, 0j, 0j)
    if isinstance(node, expr.Name):
        if node.ident in expr.CONSTANTS:
            return (complex(expr.CONSTANTS[node.ident]), 0j, 0j, 0j)
        if node.ident not in _COORDINATES:
            return None
        return tuple(complex(name == node.ident) for name in ("", *_COORDINATES))
    if isinstance(node, expr.Neg):
        arg = _linear(node.arg)
        return None if arg is None else tuple(-c for c in arg)
    if isinstance(node, expr.Power):
        base = _linear(node.base)
        if base is None or node.exponent == 1:
            return base
        if any(base[1:]) or (base[0] == 0 and node.exponent < 0):
            return None
        try:
            return (base[0] ** node.exponent, 0j, 0j, 0j)
        except OverflowError:
            return None
    if not isinstance(node, expr.BinOp):
        return None
    left, right = _linear(node.left), _linear(node.right)
    if left is None or right is None:
        return None
    if node.op in "+-":
        sign = 1.0 if node.op == "+" else -1.0
        return tuple(a + sign * b for a, b in zip(left, right))
    if node.op == "*":
        if any(right[1:]):
            left, right = right, left
        return None if any(right[1:]) else tuple(c * right[0] for c in left)
    if any(right[1:]) or right[0] == 0:
        return None
    return tuple(c / right[0] for c in left)


def _factors(node: expr.Node, divides: bool = False) -> list[tuple[expr.Node, bool]]:
    """The factors of a product and quotient chain, each with whether it
    divides; any other tree is a chain of one factor."""
    if isinstance(node, expr.BinOp) and node.op in "*/":
        return _factors(node.left, divides) + _factors(node.right, divides != (node.op == "/"))
    return [(node, divides)]


def _without(node: expr.Node, factor: expr.Node) -> expr.Node | None:
    """A chain with one of its factors dropped; None for the factor itself."""
    if node is factor:
        return None
    if not (isinstance(node, expr.BinOp) and node.op in "*/"):
        return node
    left, right = _without(node.left, factor), _without(node.right, factor)
    if right is None:
        return left
    if left is None:
        return right if node.op == "*" else expr.BinOp("/", expr.Number(1.0), right)
    return expr.BinOp(node.op, left, right)


def _shift(tree: expr.Node) -> tuple[tuple[float, float, float], expr.Node] | None:
    """The shift (a, b, c) and the remainder g of a chain g*exp(L), or None.

    L must be i*(a*kx + b*ky + c*kz) with real constants a, b, c: linear in
    kx, ky and kz, with no constant term and coefficients of zero real part.
    Exactly one factor of the chain may be such an exp; as a divisor it
    shifts by -(a, b, c)."""
    found = []
    for node, divides in _factors(tree):
        if isinstance(node, expr.Call) and node.func == "exp":
            form = _linear(node.arg)
            if (
                form is not None
                and form[0] == 0
                and all(c.real == 0 and math.isfinite(c.imag) for c in form[1:])
            ):
                sign = -1.0 if divides else 1.0
                found.append((node, tuple(sign * c.imag + 0.0 for c in form[1:])))
    if len(found) != 1:
        return None
    (factor, shift), = found
    rest = _without(tree, factor)
    return shift, expr.Number(1.0) if rest is None else rest


def _tree_spectrum(tree: expr.Node, shifted=None) -> SpectrumFunction:
    def fn(kx, ky, kz, k0):
        return expr.evaluate_tree(tree, {"kx": kx, "ky": ky, "kz": kz, "k0": k0})

    label = expr.format_expression(tree)
    return SpectrumFunction(label=label, radial=_is_radial(tree), _fn=fn, shifted=shifted)


def parse_spectrum(src: str) -> SpectrumFunction:
    """Parse an expression such as ``"i/(2*pi*kz)"`` into a spectrum.

    The normalized form of the expression becomes the label; syntax and
    unknown-identifier problems raise
    :class:`~asx.errors.SpectrumParseError` with a column position.  An
    expression is radial when every ``kx`` and ``ky`` in it sits in a sum
    ``kx^2+ky^2`` or ``ky^2+kx^2`` of its own, as in
    ``exp(-(kx^2+ky^2)/4)``.  The test is syntactic and errs one way only:
    ``1+kx^2+ky^2`` parses as ``(1+kx^2)+ky^2`` and ``exp(-kx^2)*exp(-ky^2)``
    names kx^2 alone, so both stay on the oracle's ring path, which is
    slower but exact for any spectrum.

    A product and quotient chain with exactly one factor
    ``exp(i*(a*kx + b*ky + c*kz))``, its coefficients real constants built
    from numbers, ``i`` and ``pi`` and no constant term, carries the shift
    (a, b, c), negated for a divisor, and the chain without that factor as
    its remainder, radial or not by the test above, in ``shifted``:
    ``i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)`` is the Weyl spectrum shifted
    by (-1.5, 0.75, 0).  This rule is syntactic and conservative too.
    ``k0`` counts as a variable, so ``exp(i*kx/k0)`` carries no shift, and
    neither do a real or mixed exponent (``exp(-kx)``), a sum
    (``1 + exp(i*kx)``), a nonlinear form (``exp(i*kx*ky)``), two such
    factors (``exp(i*kx)*exp(i*ky)``) or a ``cos`` of a linear form; all of
    them take the ring path.
    """
    tree = expr.parse_expression(src)
    found = _shift(tree)
    shifted = None if found is None else (found[0], _tree_spectrum(found[1]))
    return _tree_spectrum(tree, shifted)

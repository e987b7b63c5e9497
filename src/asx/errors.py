"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, domain
violations exit 3, numerical non-convergence exits 4.
"""

from __future__ import annotations

import math


class AsxError(Exception):
    """Base class for all package errors."""


class ConfigError(AsxError, ValueError):
    """Invalid tool configuration: tolerances, grids, flags, parameters."""


class DomainError(AsxError, ValueError):
    """Geometric domain violation: z <= 0, r = 0, grazing observation."""


class ConvergenceError(AsxError, ArithmeticError):
    """A numerical procedure failed its convergence check."""


class DivergenceError(ConvergenceError):
    """Refinement made the quadrature error estimate grow instead of shrink,
    typically a symptom of a non-integrable spectrum."""


class SpectrumParseError(AsxError, ValueError):
    """Malformed spectrum expression.

    Attributes
    ----------
    position : int
        1-based column of the offending token.
    expected : tuple of str
        Token classes that would have been accepted at that position.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.position = position
        self.expected = expected


class SpectrumEvaluationError(AsxError, ArithmeticError):
    """Spectrum evaluation hit a fault: division by zero, overflow, NaN."""


class InsufficientDataError(AsxError, ValueError):
    """Not enough (or degenerate) records for the requested fit."""


def require_positive(
    name: str, value: float, error: type[AsxError] = ConfigError
) -> float:
    """Return ``value`` if it is finite and positive, else raise ``error``.

    The one positivity check of the package: NaN and infinity fail it too.
    """
    if not (value > 0.0 and math.isfinite(value)):
        raise error(f"{name} must be positive and finite, got {value}")
    return value

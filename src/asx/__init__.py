"""asx: far-zone angular-spectrum integrals.

Leading-order saddle-point evaluation of plane-wave superposition
integrals over the upper half space, validated against a brute-force
adaptive quadrature oracle, with sweep tooling for convergence and
validity-boundary studies.
"""

from .asymptotics import (
    AsymptoticResult,
    QuadraticForm,
    gaussian_closed_form,
    leading_order,
    local_sdp_integral,
    quadratic_coeffs,
)
from .errors import (
    AsxError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    SpectrumEvaluationError,
    SpectrumParseError,
)
from .harness import (
    ComparisonRecord,
    SweepConfig,
    emit,
    fit_convergence_slope,
    point_from_parameters,
    run_sweep,
    validity_map,
)
from .oracle import (
    OracleResult,
    QuadratureConfig,
    oracle_eval,
)
from .spectra import (
    SpectrumFunction,
    builtin_spectrum,
    constant,
    gaussian,
    parse_spectrum,
    weyl,
)
from .spectral import (
    ObservationPoint,
    SaddleData,
    kz_branch,
    local_half_width,
    saddle_point,
)

__version__ = "0.1.0"

__all__ = [
    "AsxError",
    "AsymptoticResult",
    "ComparisonRecord",
    "ConfigError",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "InsufficientDataError",
    "ObservationPoint",
    "OracleResult",
    "QuadratureConfig",
    "QuadraticForm",
    "SaddleData",
    "SpectrumEvaluationError",
    "SpectrumFunction",
    "SpectrumParseError",
    "SweepConfig",
    "builtin_spectrum",
    "constant",
    "emit",
    "fit_convergence_slope",
    "gaussian",
    "gaussian_closed_form",
    "kz_branch",
    "leading_order",
    "local_half_width",
    "local_sdp_integral",
    "oracle_eval",
    "parse_spectrum",
    "point_from_parameters",
    "quadratic_coeffs",
    "run_sweep",
    "saddle_point",
    "validity_map",
    "weyl",
]

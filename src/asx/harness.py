"""Parameter sweeps comparing the leading-order value against the oracle.

The controlling parameters of the approximation are theta = z/r and the
dimensionless distance k0*r, so sweeps are configured in those terms and
observation points are constructed as

    r = k0r/k0,  z = theta*r,  rho_xy = r*sqrt(1 - theta^2)

at a chosen azimuth.  Each grid cell yields one ComparisonRecord; a cell
whose evaluation fails is flagged instead of aborting the sweep.  Records
are emitted in deterministic grid order (theta-major, then k0r) and numbers
are serialized with 17 significant digits so that parsing them back is
lossless.  The same serializer and writer carry the single-row output of
the CLI's point commands.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .asymptotics import leading_order
from .errors import AsxError, ConfigError, InsufficientDataError, require_positive
from .oracle import ORACLE_K0R_ENVELOPE, QuadratureConfig, oracle_eval
from .spectra import SpectrumFunction
from .spectral import ObservationPoint

__all__ = [
    "ComparisonRecord",
    "SweepConfig",
    "point_from_parameters",
    "run_sweep",
    "fit_convergence_slope",
    "validity_map",
    "emit",
    "serialize",
    "write",
    "read_csv_records",
    "CSV_FIELDS",
]

CSV_FIELDS = (
    "k0r",
    "theta",
    "x",
    "y",
    "z",
    "asym_re",
    "asym_im",
    "oracle_re",
    "oracle_im",
    "rel_error",
    "validity_margin",
)


@dataclass(frozen=True)
class ComparisonRecord:
    """One (k0r, theta) sample of asymptotic vs oracle."""

    k0r: float
    theta: float
    point: ObservationPoint
    asym: complex
    oracle: complex
    rel_error: float
    validity_margin: float
    wall_time_oracle: float
    failed: bool = False
    note: str = ""


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for a sweep.

    theta values must lie in (0, 1]; k0r values must be positive and stay
    within the oracle's desk-scale envelope (``ORACLE_K0R_ENVELOPE``).
    """

    spectrum: SpectrumFunction
    k0: float
    theta_values: tuple[float, ...]
    k0r_values: tuple[float, ...]
    azimuth: float = 0.0
    oracle_cfg: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        object.__setattr__(self, "theta_values", tuple(self.theta_values))
        object.__setattr__(self, "k0r_values", tuple(self.k0r_values))
        require_positive("k0", self.k0)
        if not self.theta_values or not self.k0r_values:
            raise ConfigError("theta_values and k0r_values must be nonempty")
        if any(not (0.0 < t <= 1.0) for t in self.theta_values):
            raise ConfigError("theta values must lie in (0, 1]")
        for v in self.k0r_values:
            require_positive("k0r", v)
        if not math.isfinite(self.azimuth):
            raise ConfigError(f"azimuth must be finite, got {self.azimuth}")
        if any(v > ORACLE_K0R_ENVELOPE for v in self.k0r_values):
            raise ConfigError(
                f"k0r values beyond {ORACLE_K0R_ENVELOPE:g} are outside the "
                "oracle's desk-scale envelope"
            )


def point_from_parameters(
    theta: float, k0r: float, k0: float, azimuth: float = 0.0
) -> ObservationPoint:
    """Observation point with the given direction cosine and k0*r."""
    r = k0r / k0
    z = theta * r
    rho = r * math.sqrt(max(1.0 - theta * theta, 0.0))
    return ObservationPoint(
        x=rho * math.cos(azimuth), y=rho * math.sin(azimuth), z=z
    )


def _one_record(cfg: SweepConfig, theta: float, k0r: float) -> ComparisonRecord:
    p = point_from_parameters(theta, k0r, cfg.k0, cfg.azimuth)
    asym = oracle_value = complex(math.nan, math.nan)
    margin = rel = math.nan
    start = time.perf_counter()
    try:  # one bad cell, one flag
        lo = leading_order(cfg.spectrum, p, cfg.k0)
        asym, margin = lo.value, lo.validity_margin
        start = time.perf_counter()
        result = oracle_eval(cfg.spectrum, p, cfg.k0, cfg.oracle_cfg)
        oracle_value = result.value
        rel = (
            abs(asym - oracle_value) / abs(oracle_value)
            if oracle_value != 0
            else math.inf
        )
        failed = not result.converged
        note = "" if result.converged else f"oracle stopped by {result.limit}"
    except AsxError as exc:
        failed = True
        note = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return ComparisonRecord(
        k0r=k0r,
        theta=theta,
        point=p,
        asym=asym,
        oracle=oracle_value,
        rel_error=rel,
        validity_margin=margin,
        wall_time_oracle=elapsed,
        failed=failed,
        note=note,
    )


def run_sweep(cfg: SweepConfig) -> list[ComparisonRecord]:
    """One record per (theta, k0r) grid cell, in deterministic grid order."""
    return [_one_record(cfg, t, v) for t in cfg.theta_values for v in cfg.k0r_values]


def fit_convergence_slope(
    records: Iterable[ComparisonRecord], theta_fixed: float
) -> float:
    """Least-squares slope of log(rel_error) against log(k0r) at fixed theta.

    Needs at least 4 records with distinct k0r at the given theta; zero,
    non-finite or missing errors make the fit degenerate.
    """
    selected = [
        rec
        for rec in records
        if not rec.failed and abs(rec.theta - theta_fixed) <= 1e-9
    ]
    k0rs = sorted({rec.k0r for rec in selected})
    if len(k0rs) < 4:
        raise InsufficientDataError(
            f"need >= 4 records with distinct k0r at theta={theta_fixed}, "
            f"got {len(k0rs)}"
        )
    errs = np.array([rec.rel_error for rec in selected])
    if not np.all(np.isfinite(errs)) or np.any(errs <= 0.0):
        raise InsufficientDataError(
            "relative errors must be positive and finite for a log-log fit"
        )
    xs = np.log([rec.k0r for rec in selected])
    return float(np.polyfit(xs, np.log(errs), 1)[0])


def validity_map(cfg: SweepConfig) -> list[ComparisonRecord]:
    """Sweep charting rel_error against the validity margin theta/theta0.

    The theta grid must reach down toward the validity threshold of the
    chosen k0r values (min(theta) <= 2*theta0) and extend above it,
    otherwise there is no boundary to map.
    """
    theta0_max = max(1.0 / math.sqrt(v) for v in cfg.k0r_values)
    if min(cfg.theta_values) > 2.0 * theta0_max:
        raise ConfigError(
            f"theta grid (min {min(cfg.theta_values):g}) does not approach the "
            f"validity threshold theta0 <= {theta0_max:g}"
        )
    if max(cfg.theta_values) <= theta0_max:
        raise ConfigError(
            f"theta grid (max {max(cfg.theta_values):g}) does not extend above "
            f"the validity threshold theta0 = {theta0_max:g}"
        )
    return run_sweep(cfg)


def _g17(value: float) -> str:
    return format(value, ".17g")


def _field(value, fmt: str) -> str:
    """One value as text: floats with 17 significant digits, everything
    else (and NaN/Infinity in obj) in its JSON spelling."""
    if isinstance(value, float) and (fmt == "csv" or math.isfinite(value)):
        return _g17(value)
    return json.dumps(value)


def serialize(
    fields: Sequence[str],
    rows: Iterable[Mapping[str, object]],
    fmt: str,
    trailer: str | float | None = None,
) -> str:
    """Rows as CSV (header line first) or as JSON lines ("obj").

    ``trailer`` appends one final ``# slope,<value>`` comment line (CSV)
    or ``{"slope": "<value>"}`` object (obj); a number is written with 17
    significant digits.
    """
    if fmt not in ("csv", "obj"):
        raise ConfigError(f"format must be 'csv' or 'obj', got {fmt!r}")
    if fmt == "csv":
        lines = [",".join(fields)]
        lines += [",".join(_field(row[k], fmt) for k in fields) for row in rows]
    else:
        lines = [
            "{" + ", ".join(f'"{k}": {_field(row[k], fmt)}' for k in fields) + "}"
            for row in rows
        ]
    if trailer is not None:
        if isinstance(trailer, float):
            trailer = _g17(trailer)
        lines.append(f"# slope,{trailer}" if fmt == "csv" else json.dumps({"slope": trailer}))
    return "\n".join(lines) + "\n"


def write(text: str, destination: str | Path | IO[str] | None = None) -> None:
    """Write ``text`` to a path, an open text stream, or None/'-' for stdout.

    A path that cannot be written is a :class:`~asx.errors.ConfigError`.
    """
    if destination is None or destination == "-":
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        try:
            Path(destination).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {destination}: {exc.strerror or exc}") from None


def _record_row(rec: ComparisonRecord) -> dict[str, float]:
    return {
        "k0r": rec.k0r,
        "theta": rec.theta,
        "x": rec.point.x,
        "y": rec.point.y,
        "z": rec.point.z,
        "asym_re": rec.asym.real,
        "asym_im": rec.asym.imag,
        "oracle_re": rec.oracle.real,
        "oracle_im": rec.oracle.imag,
        "rel_error": rec.rel_error,
        "validity_margin": rec.validity_margin,
    }


def emit(
    records: Sequence[ComparisonRecord],
    fmt: str = "csv",
    destination: str | Path | IO[str] | None = None,
    trailer: str | float | None = None,
) -> None:
    """Write records as CSV or as JSON lines ("obj") with the same fields.

    ``destination`` is passed to :func:`write`; ``trailer`` to
    :func:`serialize`, used by the CLI for the convergence-slope summary.
    """
    write(serialize(CSV_FIELDS, map(_record_row, records), fmt, trailer), destination)


def read_csv_records(source: str | Path) -> list[dict[str, float]]:
    """Parse CSV produced by :func:`emit` back into per-row field dicts.

    ``source`` is a path, or the CSV text itself if it contains a newline.
    Comment lines (leading '#') are skipped.  Values parse back to the
    exact doubles that were written.
    """
    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append({name: float(val) for name, val in zip(header, parts)})
    return rows

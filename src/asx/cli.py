"""Command-line surface.

Subcommands: eval, oracle, compare, validity-map, parse-check.  All data
output is machine-parseable and goes to --out (stdout by default);
diagnostics go to stderr.  Exit codes: 0 success, 2 usage/configuration,
3 domain violation, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import harness
from .asymptotics import leading_order
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SpectrumEvaluationError,
    SpectrumParseError,
)
from .oracle import QuadratureConfig, oracle_eval
from .spectra import SpectrumFunction, builtin_spectrum, parse_spectrum
from .spectral import ObservationPoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGED = 4

WEYL_EXACT_CUTOFF = 1e-10  # all rel_error below this: report slope as "exact"


def _parse_point(text: str) -> ObservationPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--point expects 'x,y,z', got {text!r}")
    try:
        x, y, z = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"--point expects three reals, got {text!r}") from None
    return ObservationPoint(x=x, y=y, z=z)


def _parse_grid(text: str, flag: str) -> list[float]:
    """Grid syntax a:b:n or a:b:n:log."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ConfigError(f"{flag} expects 'a:b:n[:log]', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{flag} expects numeric bounds and count, got {text!r}") from None
    if n < 1 or not 0.0 < a < b < math.inf:
        raise ConfigError(f"{flag} needs 0 < a < b < inf and n >= 1, got {text!r}")
    spacing = np.geomspace if len(parts) == 4 else np.linspace
    return [float(v) for v in spacing(a, b, n)]


def _resolve_spectrum(args: argparse.Namespace) -> SpectrumFunction:
    has_builtin = getattr(args, "spectrum", None) is not None
    has_expr = getattr(args, "spectrum_expr", None) is not None
    if has_builtin == has_expr:
        raise ConfigError("exactly one of --spectrum / --spectrum-expr is required")
    if has_builtin:
        return builtin_spectrum(args.spectrum)
    return parse_spectrum(args.spectrum_expr)


def _emit_row(row: dict[str, object], fmt: str, destination: str) -> None:
    """Single-record output: one JSON object, or a CSV header plus row."""
    harness.write(harness.serialize(tuple(row), [row], fmt), destination)


def _cmd_eval(args: argparse.Namespace) -> int:
    f = _resolve_spectrum(args)
    p = _parse_point(args.point)
    result = leading_order(f, p, args.k0)
    row = {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "k0r": result.k0r,
        "theta": result.theta,
        "theta0": result.theta0,
        "validity_margin": result.validity_margin,
        "is_valid": result.is_valid,
        "spectrum_at_saddle_re": result.spectrum_at_saddle.real,
        "spectrum_at_saddle_im": result.spectrum_at_saddle.imag,
    }
    _emit_row(row, args.format or "obj", args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    f = _resolve_spectrum(args)
    p = _parse_point(args.point)
    cfg = QuadratureConfig(
        rel_tol=args.tol,
        k_max=args.kmax if args.kmax is not None else math.inf,
        max_panels=args.max_panels,
    )
    result = oracle_eval(f, p, args.k0, cfg)
    row = {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "est_error": result.est_error,
        "evaluations": result.evaluations,
        "propagating_re": result.propagating_part.real,
        "propagating_im": result.propagating_part.imag,
        "evanescent_re": result.evanescent_part.real,
        "evanescent_im": result.evanescent_part.imag,
        "converged": result.converged,
    }
    _emit_row(row, args.format or "obj", args.out)
    if not result.converged:
        print(f"oracle: stopped by {result.limit} before reaching rel_tol", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _sweep_config(args: argparse.Namespace, thetas, k0rs) -> harness.SweepConfig:
    return harness.SweepConfig(
        spectrum=_resolve_spectrum(args),
        k0=args.k0,
        theta_values=tuple(thetas),
        k0r_values=tuple(k0rs),
        azimuth=args.azimuth,
        oracle_cfg=QuadratureConfig(rel_tol=args.tol),
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    k0rs = _parse_grid(args.k0r_grid, "--k0r-grid")
    if len(k0rs) < 4:
        raise ConfigError("--k0r-grid needs at least 4 points for a slope fit")
    cfg = _sweep_config(args, [args.theta], k0rs)
    records = harness.run_sweep(cfg)
    usable = [rec.rel_error for rec in records if not rec.failed]
    if usable and all(err < WEYL_EXACT_CUTOFF for err in usable):
        trailer = "exact"
    else:
        try:
            trailer = harness.fit_convergence_slope(records, args.theta)
        except InsufficientDataError:
            trailer = "insufficient-data"
    harness.emit(records, args.format or "csv", args.out, trailer=trailer)
    return EXIT_OK


def _cmd_validity_map(args: argparse.Namespace) -> int:
    thetas = _parse_grid(args.theta_grid, "--theta-grid")
    cfg = _sweep_config(args, thetas, [args.k0r])
    records = harness.validity_map(cfg)
    harness.emit(records, args.format or "csv", args.out)
    return EXIT_OK


def _cmd_parse_check(args: argparse.Namespace) -> int:
    if args.spectrum_expr is None:
        raise ConfigError("parse-check requires --spectrum-expr")
    fmt = args.format or "obj"
    try:
        f = parse_spectrum(args.spectrum_expr)
    except SpectrumParseError as exc:
        row = {"ok": False, "error": str(exc), "position": exc.position}
        if fmt == "obj":
            row["expected"] = list(exc.expected)
        _emit_row(row, fmt, args.out)
        return EXIT_USAGE
    _emit_row({"ok": True, "normalized": f.label}, fmt, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The asx parser, built once: parse_args reads it and leaves it as it
    was, so every main call shares it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--k0", type=float, default=1.0, help="wavenumber (default 1.0)")
    shared.add_argument("--spectrum", help="builtin spectrum: weyl, constant, gaussian(w)")
    shared.add_argument("--spectrum-expr", help="spectrum expression in kx, ky, kz, k0")
    shared.add_argument("--out", default="-", help="output path, '-' for stdout")
    shared.add_argument("--format", choices=("csv", "obj"), default=None)

    parser = argparse.ArgumentParser(
        prog="asx",
        description="Far-zone angular-spectrum integrals: leading-order "
        "saddle-point values, a brute-force oracle, and comparison sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="leading-order value at a point")
    p_eval.add_argument("--point", required=True, help="observation point 'x,y,z'")
    p_eval.set_defaults(func=_cmd_eval)

    p_oracle = sub.add_parser("oracle", parents=[shared], help="brute-force quadrature at a point")
    p_oracle.add_argument("--point", required=True, help="observation point 'x,y,z'")
    p_oracle.add_argument("--tol", type=float, default=1e-7, help="relative tolerance")
    p_oracle.add_argument("--kmax", type=float, default=None, help="cap on the spectral radius")
    p_oracle.add_argument("--max-panels", type=int, default=1024)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_cmp = sub.add_parser("compare", parents=[shared], help="sweep k0r at fixed theta, fit the error slope")
    p_cmp.add_argument("--theta", type=float, required=True)
    p_cmp.add_argument("--k0r-grid", required=True, help="grid 'a:b:n[:log]'")
    p_cmp.add_argument("--azimuth", type=float, default=0.0)
    p_cmp.add_argument("--tol", type=float, default=1e-7)
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validity-map", parents=[shared], help="sweep theta across theta0 at fixed k0r")
    p_val.add_argument("--k0r", type=float, required=True)
    p_val.add_argument("--theta-grid", required=True, help="grid 'a:b:n'")
    p_val.add_argument("--azimuth", type=float, default=0.0)
    p_val.add_argument("--tol", type=float, default=1e-7)
    p_val.set_defaults(func=_cmd_validity_map)

    p_chk = sub.add_parser("parse-check", parents=[shared], help="check a spectrum expression")
    p_chk.set_defaults(func=_cmd_parse_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpectrumParseError) as exc:
        print(f"asx: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"asx: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConvergenceError, SpectrumEvaluationError) as exc:
        print(f"asx: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())

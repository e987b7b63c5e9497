"""Oracle cost and accuracy on a fixed matrix, one checkout against another.

    python bench/oracle_matrix.py --before OTHER_CHECKOUT --out BENCH.json

Runs ``oracle_eval`` (rel_tol 1e-7, k0 = 1, azimuth 0.4) on 48 cases:
the spectra weyl, gauss (gaussian(2)), tweyl (a parsed translated Weyl)
and pgauss (gaussian(2) parsed, ``exp(-(kx^2+ky^2))``) of
perfbench/reference.py, theta in {1, .7, .3}, k0*r in {20, 100, 300},
then weyl, tweyl, dipole (``i*kx/(2*pi*kz)``) and ring (the Weyl times
``cos(1.5*kx - 0.75*ky)``, the mean of tweyl and its mirror image) at
three points near grazing: (299.9, 0, 0.5), (299.9, 0, 5) and (100, 0, 3).
The dipole and the ring are the ring path's cost: no shift is found in
either.  Each case records seconds, ``evaluations``, ``est_error``,
``converged``, ``path`` ("radial" where the oracle took its J0 path, "ring"
where it sampled rings of f; a spectrum with a shift takes the path of its
remainder where the oracle integrates that at the shifted point) and the
true error where an exact form exists (the Weyl spectra are spherical
waves, from perfbench/reference.py, the dipole is
``(x/r)*(1 + i/r)*exp(i*r)/r``).  It also records ``spectrum_calls``, the
calls the oracle made to the spectrum it integrated (f, or the remainder
of its shift), counted in a second, untimed run through recording
wrappers around the ``evaluate`` of both, and ``peak_mb``, the peak of
the allocations tracemalloc traced in that run (numpy's arrays included),
in MB of 2^20 bytes.
Then it runs the 72-case honesty grid, exact Weyl at theta in
{1, .9, .7, .5, .3, .15}, k0*r in {5, 20, 80, 250} and rel_tol in
{1e-4, 1e-7, 1e-10}, and keeps the worst ratio of true error to
``est_error`` and the worst true error over ``rel_tol``.

The asx under OTHER_CHECKOUT/src ("before") and the one beside this
script ("after") each run in a fresh interpreter, alternating, REPEATS
times, each after one untimed warm-up case; a case keeps its median time,
with the fastest and slowest beside it in ``seconds_range``.  The summary
counts the cases whose ``value``, ``est_error``, ``evaluations`` and
``spectrum_calls`` are bit-identical on both sides (``identical_cases``,
out of all), and gives per spectrum the range of the relative change in
``evaluations`` and the largest change of ``value``, relative and in
units of the before side's ``est_error``; then the range of
``spectrum_calls`` on each side, the summed median seconds of all cases
(``matrix_seconds``) and of the cases on the radial path on both sides
(``radial_seconds``, which no ring path drowns), and each
side's worst ratio of true error to ``est_error`` over the matrix cases
with an exact form, beside that of the grid, and each side's largest
``peak_mb``.  Beside them it gives each side's summed ``evaluations`` and
``spectrum_calls`` (``summed_counts``), over all cases and over the 36
theta x k0*r cases, which a claim on cost can rest on where the seconds
spread too wide to resolve it, and the grid's worst true error over
``rel_tol`` (``honesty_worst_error_over_tol``).  Needs only the standard
library and what asx itself imports (numpy).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import reference  # noqa: E402  (spectra and exact values, apart from asx)

SPECTRA = ("weyl", "gauss", "tweyl", "pgauss")  # keys of reference.SPECTRA
A, B = reference.SHIFT_A, reference.SHIFT_B
# the ring path's exact cases, which carry no shift
RING_SPECTRA = {"dipole": "i*kx/(2*pi*kz)", "ring": f"i*cos({A}*kx - {B}*ky)/(2*pi*kz)"}
EXACT = ("weyl", "tweyl", *RING_SPECTRA)  # spectra with a closed-form true value
REPEATS = 5
THETAS = (1.0, 0.7, 0.3)
K0RS = (20.0, 100.0, 300.0)
AZIMUTH = 0.4
GRAZING = ((299.9, 0.0, 0.5), (299.9, 0.0, 5.0), (100.0, 0.0, 3.0))  # (x, y, z)
GRAZING_SPECTRA = ("weyl", "tweyl", *RING_SPECTRA)
HONESTY = {
    "theta": (1.0, 0.9, 0.7, 0.5, 0.3, 0.15),
    "k0r": (5.0, 20.0, 80.0, 250.0),
    "rel_tol": (1e-4, 1e-7, 1e-10),
}


def exact(key: str, p) -> complex:
    if key == "dipole":
        return p.x / p.r * (1.0 + 1j / p.r) * reference.spherical_wave(p.x, p.y, p.z, 1.0)
    if key == "ring":
        waves = (reference.spherical_wave(p.x - s * A, p.y + s * B, p.z, 1.0) for s in (1, -1))
        return 0.5 * sum(waves)
    return reference.true_value(key, p.x, p.y, p.z, 1.0)[0]


def spectrum_text(key: str) -> str:
    return RING_SPECTRA.get(key) or reference.SPECTRA[key][0] or reference.SPECTRA[key][1]


def measure(src: str) -> dict:
    """Run the matrix and the honesty grid on the asx found in src."""
    sys.path.insert(0, src)
    from asx import (
        ObservationPoint,
        QuadratureConfig,
        builtin_spectrum,
        oracle_eval,
        parse_spectrum,
        weyl,
    )
    from asx.harness import point_from_parameters

    def untimed(f, p) -> tuple[int, float, str]:
        """Spectrum calls, peak traced MB and path of one run, the calls
        counted on the spectrum the oracle integrated: f, or the remainder of
        its shift (a checkout without the shift rule has no ``shifted``)."""
        called = []

        def recorded(g):
            def recording(kx, ky, kz, k0):
                called.append(g)
                return g.evaluate(kx, ky, kz, k0)

            return dataclasses.replace(g, _fn=recording)

        probe = recorded(f)
        shifted = getattr(f, "shifted", None)
        if shifted is not None:
            probe = dataclasses.replace(probe, shifted=(shifted[0], recorded(shifted[1])))
        tracemalloc.start()
        oracle_eval(probe, p, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return len(called), peak / 2**20, "radial" if called[0].radial else "ring"

    points = [
        (key, theta, k0r, point_from_parameters(theta, k0r, 1.0, AZIMUTH))
        for key in SPECTRA
        for theta in THETAS
        for k0r in K0RS
    ]
    for key in GRAZING_SPECTRA:
        for p in (ObservationPoint(*xyz) for xyz in GRAZING):
            points.append((key, p.theta, p.r, p))
    # one untimed run first: the quadrature rules and numpy's lazy set-up are
    # built once a process, and would otherwise be timed in the first case
    oracle_eval(weyl(), points[0][3], 1.0)
    cases = []
    for key, theta, k0r, p in points:
        builtin = reference.SPECTRA.get(key, (None,))[0]
        f = builtin_spectrum(builtin) if builtin else parse_spectrum(spectrum_text(key))
        start = time.perf_counter()
        res = oracle_eval(f, p, 1.0)
        seconds = time.perf_counter() - start
        calls, peak_mb, path = untimed(f, p)
        cases.append(
            {
                "spectrum": key,
                "theta": theta,
                "k0r": k0r,
                "point": [p.x, p.y, p.z],
                "seconds": seconds,
                "value": [res.value.real, res.value.imag],
                "evaluations": res.evaluations,
                "spectrum_calls": calls,
                "peak_mb": peak_mb,
                "est_error": res.est_error,
                "true_error": abs(res.value - exact(key, p)) if key in EXACT else None,
                "converged": res.converged,
                "path": path,
            }
        )
    ratios, over_tol = [], []
    start = time.perf_counter()
    for theta in HONESTY["theta"]:
        for k0r in HONESTY["k0r"]:
            for rel_tol in HONESTY["rel_tol"]:
                p = point_from_parameters(theta, k0r, 1.0, AZIMUTH)
                res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=rel_tol))
                error = abs(res.value - exact("weyl", p))
                ratios.append(error / res.est_error)
                over_tol.append(error / rel_tol)
    return {
        "cases": cases,
        "honesty": {
            "cases": len(ratios),
            "worst_ratio": max(ratios),
            "worst_error_over_tol": max(over_tol),
            "seconds": time.perf_counter() - start,
        },
    }


def run_side(src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def combine(runs: list[dict]) -> dict:
    """Median time per case over the runs of one side, with their range;
    the other fields are deterministic and taken from the first run."""
    first = runs[0]
    for i, case in enumerate(first["cases"]):
        seconds = [run["cases"][i]["seconds"] for run in runs]
        case["seconds"] = statistics.median(seconds)
        case["seconds_range"] = [min(seconds), max(seconds)]
    first["honesty"]["seconds"] = statistics.median(run["honesty"]["seconds"] for run in runs)
    first["matrix_seconds"] = sum(case["seconds"] for case in first["cases"])
    return first


def identical(b: dict, a: dict) -> bool:
    """Whether a case reads the same on both sides, bit for bit (repr tells
    -0.0 from 0.0, which == does not)."""
    fields = ("value", "est_error", "evaluations", "spectrum_calls")
    return all(repr(b[field]) == repr(a[field]) for field in fields)


def matrix_worst_ratio(side: dict) -> float:
    """Worst true_error/est_error over the cases with an exact form."""
    return max(
        case["true_error"] / case["est_error"]
        for case in side["cases"]
        if case["true_error"] is not None
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--out", type=Path, help="JSON file (default: stdout)")
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(args.measure), sys.stdout)
        return 0
    if args.before is None:
        parser.error("--before is required")

    sides = {"before": args.before.resolve() / "src", "after": REPO / "src"}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for _ in range(REPEATS):
        for side, src in sides.items():
            runs[side].append(run_side(src))
    before, after = combine(runs["before"]), combine(runs["after"])

    for b, a in zip(before["cases"], after["cases"]):
        vb, va = complex(*b["value"]), complex(*a["value"])
        a["value_rel_change"] = abs(va - vb) / abs(vb)
        a["value_change_over_est_error"] = abs(va - vb) / b["est_error"]
        a["evaluations_change"] = a["evaluations"] / b["evaluations"] - 1.0

    keys = [*SPECTRA, *RING_SPECTRA]

    def by_spectrum(field: str, reduce) -> dict:
        return {
            key: reduce([a[field] for a in after["cases"] if a["spectrum"] == key]) for key in keys
        }

    radial = [b["path"] == a["path"] == "radial" for b, a in zip(before["cases"], after["cases"])]
    grid = len(SPECTRA) * len(THETAS) * len(K0RS)  # the theta x k0r cases come first

    def summed(field: str) -> dict:
        return {
            cases: [sum(c[field] for c in side["cases"][:stop]) for side in (before, after)]
            for cases, stop in (("all", None), ("theta_k0r", grid))
        }

    report = {
        "matrix": "oracle_eval, rel_tol 1e-7, k0 1, azimuth 0.4; "
        + f"theta {list(THETAS)}; k0r {list(K0RS)}; "
        + f"{', '.join(GRAZING_SPECTRA)} at (x, y, z) {list(GRAZING)}",
        "spectra": {key: spectrum_text(key) for key in keys},
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "timing": f"{REPEATS} alternating runs per side, median time per case",
        "before": before,
        "after": after,
        "summary": {
            "identical_cases": [
                sum(identical(b, a) for b, a in zip(before["cases"], after["cases"])),
                len(after["cases"]),
            ],
            "matrix_seconds": [before["matrix_seconds"], after["matrix_seconds"]],
            "radial_seconds": [
                sum(case["seconds"] for case, r in zip(side["cases"], radial) if r)
                for side in (before, after)
            ],
            "honesty_worst_ratio": [
                before["honesty"]["worst_ratio"],
                after["honesty"]["worst_ratio"],
            ],
            "honesty_worst_error_over_tol": [
                before["honesty"]["worst_error_over_tol"],
                after["honesty"]["worst_error_over_tol"],
            ],
            "matrix_worst_ratio": [matrix_worst_ratio(before), matrix_worst_ratio(after)],
            "max_value_rel_change": by_spectrum("value_rel_change", max),
            "max_value_change_over_est_error": by_spectrum("value_change_over_est_error", max),
            "evaluations_change": by_spectrum("evaluations_change", lambda c: [min(c), max(c)]),
            "spectrum_calls": {
                side: [min(calls), max(calls)]
                for side, calls in (
                    ("before", [b["spectrum_calls"] for b in before["cases"]]),
                    ("after", [a["spectrum_calls"] for a in after["cases"]]),
                )
            },
            "summed_counts": {field: summed(field) for field in ("evaluations", "spectrum_calls")},
            "peak_mb": [
                max(b["peak_mb"] for b in before["cases"]),
                max(a["peak_mb"] for a in after["cases"]),
            ],
            "converged_not_worse": all(
                a["converged"] or not b["converged"]
                for a, b in zip(after["cases"], before["cases"])
            ),
        },
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

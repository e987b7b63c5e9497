"""The three workloads: their inputs, their operations and the checks on them.

Each workload builds a fixed list of operations (one round) from its seed.
The seed sets the azimuths and a small jitter of every cell; the kinds of
cell, and so the cost of a round, do not depend on it.  Operations of
different kinds are interleaved, so that a slow stretch of the host hits all
kinds alike.  ``run`` performs one operation through the public asx API or
CLI and returns its raw output; ``check_round`` compares a whole round of
outputs against values computed by :mod:`reference`, never against asx.
"""

from __future__ import annotations

import csv
import math
import os
import random

import reference as ref

import asx
from asx import cli

K0 = 1.0
REL_TOL = 1e-7  # the oracle's default tolerance, requested by every workload
SDP_NODES = 64
CSV_FIELDS = [
    "k0r", "theta", "x", "y", "z", "asym_re", "asym_im",
    "oracle_re", "oracle_im", "rel_error", "validity_margin",
]


def point(theta: float, k0r: float, azimuth: float) -> tuple[float, float, float]:
    r = k0r / K0
    rho = r * math.sqrt(max(1.0 - theta * theta, 0.0))
    return rho * math.cos(azimuth), rho * math.sin(azimuth), theta * r


def spectrum(key: str):
    builtin, expression = ref.SPECTRA[key]
    if builtin is not None:
        return asx.builtin_spectrum(builtin)
    return asx.parse_spectrum(expression)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def _lo_tol(k0r: float) -> float:
    # exp(i*k0*r) carries a phase rounding of about k0r ulps
    return 1e-13 + 4e-16 * k0r


class Cell:
    """One observation point of an operation, with its independent reference."""

    __slots__ = ("key", "theta", "k0r", "azimuth", "xyz", "truth", "truth_err")

    def __init__(self, key: str, theta: float, k0r: float, azimuth: float):
        self.key, self.theta, self.k0r, self.azimuth = key, theta, k0r, azimuth
        self.xyz = point(theta, k0r, azimuth)
        self.truth: complex | None = None
        self.truth_err = 0.0

    def check_leading_order(self, value: complex) -> list[str]:
        problems = []
        expected = ref.leading_order(self.key, *self.xyz, K0)
        if not _rel(value, expected) <= _lo_tol(self.k0r):
            problems.append(f"{self}: leading_order {value} != formula {expected}")
        if self.key == "constant":
            law = 1.0 / math.sqrt(1.0 + self.k0r**2)
            err = _rel(value, ref.constant_exact(*self.xyz, K0))
            if not abs(err / law - 1.0) <= 1e-6:
                problems.append(f"{self}: constant error {err:.6e} != (1+(k0r)^2)^-1/2 = {law:.6e}")
        return problems

    def check_oracle(self, value: complex, rel_tol: float = REL_TOL) -> list[str]:
        err = abs(value - self.truth)
        if not err <= rel_tol * abs(self.truth) + self.truth_err:
            return [f"{self}: oracle off its reference by {err / abs(self.truth):.3e} relative"]
        return []

    def __str__(self):
        return f"{self.key}@(theta={self.theta:.6g}, k0r={self.k0r:.6g}, az={self.azimuth:.4g})"


class Workload:
    """A fixed round of operations plus the checks on its outputs."""

    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.ops: list = []

    def jitter(self, value: float, share: float = 0.02) -> float:
        return value * (1.0 + share * (2.0 * self.rng.random() - 1.0))

    def azimuth(self) -> float:
        return 2.0 * math.pi * self.rng.random()

    def cells(self) -> list[Cell]:
        """Cells whose oracle value needs an independent reference."""
        return []

    def set_references(self, values: list[tuple[complex, float]]) -> None:
        for cell, (truth, err) in zip(self.cells(), values, strict=True):
            cell.truth, cell.truth_err = truth, err

    def run(self, op):
        raise NotImplementedError

    def check_round(self, outputs: list) -> list[list[str]]:
        """Problems found in each operation's output, one list per operation."""
        raise NotImplementedError


class SweepOp:
    __slots__ = ("command", "key", "argv", "cells", "out", "tol")

    def __init__(self, command, key, argv, cells, out, tol):
        self.command, self.key, self.argv, self.cells, self.out = command, key, argv, cells, out
        self.tol = tol


def _spectrum_flags(key: str) -> list[str]:
    builtin, expression = ref.SPECTRA[key]
    return ["--spectrum", builtin] if builtin is not None else ["--spectrum-expr", expression]


class Sweep(Workload):
    """``asx compare`` and ``asx validity-map`` through ``asx.cli.main``.

    One operation is one command writing CSV to a file.  The round holds an
    odd number of commands so that the median latency falls inside one kind
    of command rather than between two.
    """

    name = "sweep"
    # (command, spectrum, theta or k0r, grid lower end, grid upper end, --tol).
    # Weyl runs at --tol 1e-11, where its slope line must read "exact".
    PLAN = [
        ("compare", "weyl", 1.0, 60.0, 290.0, 1e-11),
        ("compare", "constant", 0.7, 20.0, 100.0, REL_TOL),
        ("compare", "gauss", 0.3, 20.0, 60.0, REL_TOL),
        ("compare", "tweyl", 1.0, 20.0, 100.0, REL_TOL),
        ("compare", "pgauss", 0.7, 20.0, 100.0, REL_TOL),
        ("compare", "weyl", 0.3, 20.0, 60.0, 1e-11),
        ("validity-map", "tweyl", 40.0, 0.1, 0.9, REL_TOL),
    ]
    POINTS = 4

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        for key in sorted({plan[1] for plan in self.PLAN}):
            spectrum(key)  # set-up parses each expression once; every command parses it again
        n = self.POINTS
        for i, (command, key, fixed, lo, hi, tol) in enumerate(self.PLAN):
            az = self.azimuth()
            out = os.path.join(out_dir, f"sweep-{i}.csv")
            if command == "compare":
                theta = fixed if fixed == 1.0 else round(self.jitter(fixed), 6)
                a, b = round(self.jitter(lo), 4), round(self.jitter(hi), 4)
                grid = f"{a!r}:{b!r}:{n}:log"
                cells = [Cell(key, theta, a * (b / a) ** (j / (n - 1)), az) for j in range(n)]
                fixed_flags = ["--theta", repr(theta), "--k0r-grid", grid]
            else:
                k0r = round(self.jitter(fixed), 4)
                grid = f"{lo!r}:{hi!r}:{n}"
                cells = [Cell(key, lo + (hi - lo) * j / (n - 1), k0r, az) for j in range(n)]
                fixed_flags = ["--k0r", repr(k0r), "--theta-grid", grid]
            argv = [command, *_spectrum_flags(key), *fixed_flags,
                    "--azimuth", repr(az), "--tol", repr(tol), "--out", out]
            self.ops.append(SweepOp(command, key, argv, cells, out, tol))

    def cells(self) -> list[Cell]:
        return [cell for op in self.ops for cell in op.cells]

    def run(self, op: SweepOp):
        if os.path.exists(op.out):
            os.remove(op.out)
        return cli.main(list(op.argv))

    def check_round(self, outputs):
        return [[] if code is None else self._check(op, code) for op, code in zip(self.ops, outputs)]

    def _check(self, op: SweepOp, code: int) -> list[str]:
        if code != 0:
            return [f"{op.command} {op.key}: exit code {code}"]
        with open(op.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        trailer = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        if not rows or rows[0] != CSV_FIELDS:
            return [f"{op.command} {op.key}: bad CSV header {rows[:1]}"]
        if len(rows) - 1 != len(op.cells):
            return [f"{op.command} {op.key}: {len(rows) - 1} rows, expected {len(op.cells)}"]
        problems = []
        for cell, row in zip(op.cells, rows[1:]):
            v = dict(zip(CSV_FIELDS, map(float, row)))
            asym = complex(v["asym_re"], v["asym_im"])
            oracle = complex(v["oracle_re"], v["oracle_im"])
            if not (abs(v["k0r"] / cell.k0r - 1) <= 1e-12 and abs(v["theta"] / cell.theta - 1) <= 1e-12):
                problems.append(f"{cell}: grid value ({v['k0r']}, {v['theta']}) out of place")
                continue
            if max(abs(v[c] - e) for c, e in zip("xyz", cell.xyz)) > 1e-12 * cell.k0r:
                problems.append(f"{cell}: point ({v['x']}, {v['y']}, {v['z']}) != {cell.xyz}")
            problems += cell.check_leading_order(asym)
            problems += cell.check_oracle(oracle, op.tol)
            if not abs(v["rel_error"] - _rel(asym, oracle)) <= 1e-12 * v["rel_error"]:
                problems.append(f"{cell}: rel_error column {v['rel_error']} != |asym-oracle|/|oracle|")
            if not abs(v["validity_margin"] / (cell.theta * math.sqrt(cell.k0r)) - 1) <= 1e-12:
                problems.append(f"{cell}: validity_margin {v['validity_margin']}")
        if op.command == "compare":
            # documented: "exact" when every rel_error is below 1e-10, else the fitted slope
            slope = trailer[0].split(",", 1)[1] if len(trailer) == 1 else None
            errors = [float(row[CSV_FIELDS.index("rel_error")]) for row in rows[1:]]
            if all(e < 1e-10 for e in errors) or op.key == "weyl":
                if slope != "exact":
                    problems.append(f"compare {op.key}: slope line {trailer}, expected 'exact'")
            elif slope is None or not math.isfinite(_float_or_nan(slope)):
                problems.append(f"compare {op.key}: slope line {trailer} is not a number")
        elif trailer:
            problems.append(f"validity-map {op.key}: unexpected trailer {trailer}")
        return problems


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class CellOp:
    __slots__ = ("cell", "spectrum", "point")

    def __init__(self, cell: Cell, spectrum, point):
        self.cell, self.spectrum, self.point = cell, spectrum, point


class Grazing(Workload):
    """``leading_order`` plus ``oracle_eval`` at cells at or below theta0.

    Two of the three cell kinds cost about 0.4 s and the one nearest to
    grazing about 0.7 s; each round holds each kind once per spectrum, in
    turn, so the median latency lies well inside the cheaper cluster.
    """

    name = "grazing"
    # (k0r, theta/theta0)
    CELLS = [(50.0, 1.0), (30.0, 0.6), (20.0, 0.3)]
    SPECTRA = ["weyl", "constant", "gauss"]

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        spectra = {key: spectrum(key) for key in self.SPECTRA}
        self.config = asx.QuadratureConfig(rel_tol=REL_TOL)
        self.worst_honesty = 0.0
        for k0r, share in self.CELLS:
            for key in self.SPECTRA:
                k0r_j = self.jitter(k0r)
                cell = Cell(key, self.jitter(share) / math.sqrt(k0r_j), k0r_j, self.azimuth())
                self.ops.append(CellOp(cell, spectra[key], asx.ObservationPoint(*cell.xyz)))

    def cells(self) -> list[Cell]:
        return [op.cell for op in self.ops]

    def run(self, op: CellOp):
        lo = asx.leading_order(op.spectrum, op.point, K0)
        return lo.value, asx.oracle_eval(op.spectrum, op.point, K0, self.config)

    def check_round(self, outputs):
        problems = []
        for op, out in zip(self.ops, outputs):
            if out is None:
                problems.append([])
                continue
            cell, (lo, result) = op.cell, out
            found = cell.check_leading_order(lo) + cell.check_oracle(result.value)
            if not result.converged:
                found.append(f"{cell}: oracle did not converge")
            if cell.truth_err < 0.01 * result.est_error:
                ratio = abs(result.value - cell.truth) / result.est_error
                self.worst_honesty = max(self.worst_honesty, ratio)
            problems.append(found)
        return problems


class ClosedForm(Workload):
    """``leading_order`` then ``local_sdp_integral`` at many points.

    Every point is evaluated with every spectrum, in turn, so the parsed
    twins of ``weyl`` and ``gaussian(2)`` can be compared with them, and
    each (theta, azimuth) pair runs a ladder of k0r values for the
    convergence check.
    """

    name = "closed-form"
    THETAS = [1.0, 0.9, 0.7, 0.5, 0.3, 0.15, 0.05]
    LADDER = [5.0, 15.0, 50.0, 150.0, 500.0, 1500.0, 5000.0, 10000.0]
    AZIMUTHS = 2
    SPECTRA = ["weyl", "pweyl", "constant", "gauss", "pgauss", "tweyl"]
    TWINS = [("weyl", "pweyl"), ("gauss", "pgauss")]
    # The gap is checked to shrink only in the far zone: below this theta
    # the window 6/sqrt(k0r) cuts the on-path Gaussian at exp(-36*theta^2),
    # a floor under the gap by design, and below this k0r the phase of the
    # translated Weyl spectrum still varies across the window.
    LADDER_MIN_THETA = 0.5
    LADDER_MIN_K0R = 40.0
    GAP_FLOOR = 1e-11  # rounding floor of the gap for the exact Weyl case

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        spectra = {key: spectrum(key) for key in self.SPECTRA}
        points = []
        for theta in self.THETAS:
            for _ in range(self.AZIMUTHS):
                t = theta if theta == 1.0 else self.jitter(theta)
                az = self.azimuth()
                points += [(t, self.jitter(k0r), az) for k0r in self.LADDER]
        self.rng.shuffle(points)
        for theta, k0r, az in points:
            for key in self.SPECTRA:
                cell = Cell(key, theta, k0r, az)
                self.ops.append(CellOp(cell, spectra[key], asx.ObservationPoint(*cell.xyz)))

    def run(self, op: CellOp):
        lo = asx.leading_order(op.spectrum, op.point, K0)
        return lo.value, asx.local_sdp_integral(op.spectrum, op.point, K0, n=SDP_NODES)

    def check_round(self, outputs):
        problems = [[] for _ in self.ops]
        by_cell = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            c, (lo, sdp) = op.cell, out
            problems[i] += c.check_leading_order(lo)
            by_cell[(c.key, c.theta, c.k0r, c.azimuth)] = (i, lo, sdp)
            if not (math.isfinite(sdp.real) and math.isfinite(sdp.imag)):
                problems[i].append(f"{c}: local_sdp_integral is not finite")
        for (key, theta, k0r, az), (i, lo, sdp) in by_cell.items():
            for builtin, parsed in self.TWINS:
                twin = by_cell.get((builtin, theta, k0r, az))
                if key == parsed and twin is not None:
                    _, lo_b, sdp_b = twin
                    if not (_rel(lo, lo_b) <= 1e-14 and _rel(sdp, sdp_b) <= 1e-12):
                        problems[i].append(f"{self.ops[i].cell}: parsed twin differs from {builtin}")
        ladders = {}
        for (key, theta, k0r, az), (i, lo, sdp) in by_cell.items():
            if theta >= self.LADDER_MIN_THETA and k0r >= self.LADDER_MIN_K0R:
                ladders.setdefault((key, theta, az), []).append((k0r, i, _rel(sdp, lo)))
        for rungs in ladders.values():
            rungs.sort()
            for (_, _, gap_a), (_, i, gap_b) in zip(rungs, rungs[1:]):
                if not (gap_b < gap_a or gap_b <= self.GAP_FLOOR):
                    problems[i].append(f"{self.ops[i].cell}: gap {gap_b:.3e} to the closed form "
                                       f"did not shrink from {gap_a:.3e}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, Grazing, ClosedForm)}

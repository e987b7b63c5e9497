"""Benchmark of asx: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload sweep|grazing|closed-form \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository: asx is imported from ``src/`` beside
this directory, so nothing needs installing.  A run measures set-up in fresh
interpreters, computes the reference values in another, then repeats the
workload's fixed round of operations until ``--seconds`` is spent (at least
three rounds) and checks every output.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
progress and diagnostics go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 7  # fresh interpreters timed per run; the first of SETUP_RUNS + 1 is a warm-up
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import asx, workloads
workloads.WORKLOADS[{name!r}]({seed!r}, {out!r})
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int) -> float:
    """Median time of a fresh interpreter to import asx and build the
    workload's spectra and points."""
    code = SETUP_CHILD.format(src=SRC, here=HERE, name=name, seed=seed, out=OUT)
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


class Tally:
    """Operations attempted and failed, and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []

    def add_round(self, workload, outputs, errors) -> None:
        problems = workload.check_round(outputs)
        for error, found in zip(errors, problems, strict=True):
            self.attempted += 1
            if error is not None or found:
                self.failed += 1
            if found:
                self.correct = False
            self.messages += ([error] if error else []) + found


def run_round(workload):
    """Run every operation once, in order; outputs of raising ones are None."""
    latencies, outputs, errors = [], [], []
    start = time.perf_counter()
    for op in workload.ops:
        t = time.perf_counter()
        try:
            outputs.append(workload.run(op))
            errors.append(None)
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
    return time.perf_counter() - start, latencies, outputs, errors


def measure(workload, seconds: float, tally: Tally) -> dict:
    walls, latencies = [], []
    start = time.perf_counter()
    while True:
        wall, lat, outputs, errors = run_round(workload)
        tally.add_round(workload, outputs, errors)
        walls.append(wall)
        latencies += lat
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            break
    log(f"{len(walls)} rounds of {len(workload.ops)} operations in {elapsed:.1f} s; "
        f"round times {' '.join(f'{w:.3f}' for w in walls)}")
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        log(f"op_s.p90 {p90:.6g} s over {len(latencies)} operations")
    return {
        # the mean round: the host's speed swings both ways within a run, and
        # only the mean weighs every stretch of the run by its length
        "wall_s": (statistics.fmean(walls), "s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_UNITS = {"calls": "count", "evaluations": "count", "elements": "count",
               "scalar_calls": "count", "bytes": "bytes", "evals_per_s": "1/s"}


def measure_traced(workload, seconds: float, tally: Tally, rebuild) -> dict:
    """Alternate untraced and traced rounds; per-layer figures of each traced
    round, their median, and the difference in round time as the overhead."""
    import tracer

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        wall, _, outputs, errors = run_round(workload)
        tally.add_round(workload, outputs, errors)
        untraced.append(wall)
        t = tracer.Tracer()
        with tracer.installed(t):
            rebuild()
            wall, _, outputs, errors = run_round(workload)
        tally.add_round(workload, outputs, errors)
        traced.append(wall)
        layers.append(tracer.layer_metrics(t))
        elapsed = time.perf_counter() - start
        if (len(layers) >= MIN_TRACED_PAIRS
                and elapsed + statistics.median(untraced) + statistics.median(traced) > seconds):
            break
    log(f"{len(layers)} traced and {len(untraced)} untraced rounds in {elapsed:.1f} s")
    for name in tracer.EXACT_COUNTS:
        values = {round_[name] for round_ in layers}
        if len(values) != 1:
            tally.correct = False
            tally.messages.append(f"count {name} differs between traced rounds: {sorted(values)}")
    metrics = {}
    for name in layers[0]:
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        if name in tracer.EXACT_COUNTS:
            metrics[name] = (layers[0][name], unit)
        else:
            metrics[name] = (statistics.median(round_[name] for round_ in layers), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "grazing", "closed-form"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "asx", "__init__.py")):
        log(f"asx sources not found under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import reference
    import workloads

    os.makedirs(OUT, exist_ok=True)
    setup_s = measure_setup(args.workload, args.seed)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, OUT)
    cells = workload.cells()
    if cells:
        requests = [(c.key, *c.xyz, workloads.K0) for c in cells]
        workload.set_references(reference.compute_in_subprocess(requests, sys.executable))
    try:  # warm-up: lazy tables and first-call costs stay out of the timing
        workload.run(workload.ops[0])
    except Exception:
        pass

    tally = Tally()
    if args.trace:
        metrics = measure_traced(workload, args.seconds, tally, lambda: cls(args.seed, OUT))
    else:
        metrics = {"setup_s": (setup_s, "s"), **measure(workload, args.seconds, tally)}
    if getattr(workload, "worst_honesty", 0.0):
        log(f"worst |oracle - reference| / est_error: {workload.worst_honesty:.3g}")
    for message in tally.messages[:20]:
        log(message)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

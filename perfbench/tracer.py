"""Per-layer tracing from outside the program.

While :func:`installed` is active, the public functions of each asx module
(and ``SpectrumFunction.evaluate``) are replaced, in every asx namespace that
binds them, by wrappers that time the call and count work.  Each thread keeps
its own span stack, so a span's self time is its duration minus the time of
the spans it called directly on the same thread.  Spans are aggregated as
they close; nothing is kept per call.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, after=None, outermost_only: bool = False):
        """Span ``name`` around ``fn``; ``after(result, args, kwargs)`` counts
        work.  With ``outermost_only`` a recursive call runs untraced."""
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            if outermost_only:
                if getattr(local, name, False):
                    return fn(*args, **kwargs)
                setattr(local, name, True)
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if outermost_only:
                    setattr(local, name, False)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += elapsed
                    tracer.self_s[name] += elapsed - children
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _count_evaluate(tracer: Tracer):
    def after(result, args, kwargs):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args[1:4]))
        tracer.count("spectra.evaluate.elements", math.prod(shape))
        if not shape:
            tracer.count("spectra.evaluate.scalar_calls", 1)

    return after


def _count_emit(tracer: Tracer):
    def after(result, args, kwargs):
        dest = kwargs.get("destination", args[2] if len(args) > 2 else None)
        if isinstance(dest, (str, os.PathLike)) and dest != "-":
            tracer.count("harness.emit.bytes", os.path.getsize(dest))

    return after


@contextmanager
def installed(tracer: Tracer):
    """Route asx's public layer functions through ``tracer`` until exit."""
    from asx import asymptotics, cli, expr, harness, oracle, spectra, spectral

    def count_evaluations(result, args, kwargs):
        tracer.count("oracle.evaluations", result.evaluations)

    functions = [
        (oracle, "oracle_eval", "oracle.oracle_eval", count_evaluations, False),
        (expr, "parse_expression", "expr.parse_expression", None, False),
        (expr, "evaluate_tree", "expr.evaluate_tree", None, True),
        (asymptotics, "leading_order", "asymptotics.leading_order", None, False),
        (asymptotics, "local_sdp_integral", "asymptotics.local_sdp_integral", None, False),
        (spectral, "saddle_point", "spectral.saddle_point", None, False),
        (harness, "run_sweep", "harness.run_sweep", None, False),
        (harness, "emit", "harness.emit", _count_emit(tracer), False),
        (harness, "fit_convergence_slope", "harness.fit_convergence_slope", None, False),
        (cli, "main", "cli.main", None, False),
    ]
    namespaces = [m for n, m in list(sys.modules.items()) if n == "asx" or n.startswith("asx.")]
    restore = []
    for module, attr, name, after, outermost in functions:
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, after, outermost)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    restore.append((ns, key, original))
    cls = spectra.SpectrumFunction
    evaluate = cls.evaluate
    cls.evaluate = tracer.wrap("spectra.evaluate", evaluate, _count_evaluate(tracer))
    try:
        yield tracer
    finally:
        cls.evaluate = evaluate
        for ns, key, original in reversed(restore):
            setattr(ns, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round, keyed by metric name."""
    t, c, n = tracer.total_s, tracer.calls, tracer.counts
    evaluations = n["oracle.evaluations"]
    oracle_s = t["oracle.oracle_eval"]
    return {
        "oracle.oracle_eval.calls": c["oracle.oracle_eval"],
        "oracle.oracle_eval.s": oracle_s,
        "oracle.self_s": tracer.self_s["oracle.oracle_eval"],
        "oracle.evaluations": evaluations,
        "oracle.evals_per_s": evaluations / oracle_s if oracle_s > 0 else 0.0,
        "spectra.evaluate.calls": c["spectra.evaluate"],
        "spectra.evaluate.scalar_calls": n["spectra.evaluate.scalar_calls"],
        "spectra.evaluate.elements": n["spectra.evaluate.elements"],
        "spectra.evaluate.s": t["spectra.evaluate"],
        "expr.parse_expression.s": t["expr.parse_expression"],
        "expr.evaluate_tree.calls": c["expr.evaluate_tree"],
        "expr.evaluate_tree.s": t["expr.evaluate_tree"],
        "asymptotics.leading_order.calls": c["asymptotics.leading_order"],
        "asymptotics.leading_order.s": t["asymptotics.leading_order"],
        "asymptotics.local_sdp_integral.calls": c["asymptotics.local_sdp_integral"],
        "asymptotics.local_sdp_integral.s": t["asymptotics.local_sdp_integral"],
        "spectral.saddle_point.calls": c["spectral.saddle_point"],
        "spectral.saddle_point.s": t["spectral.saddle_point"],
        "harness.run_sweep.s": t["harness.run_sweep"],
        "harness.emit.s": t["harness.emit"],
        "harness.emit.bytes": n["harness.emit.bytes"],
        "harness.fit_convergence_slope.s": t["harness.fit_convergence_slope"],
        "cli.main.calls": c["cli.main"],
        "cli.main.s": t["cli.main"],
    }


# Figures that must repeat exactly between rounds and runs of one seed.
EXACT_COUNTS = (
    "oracle.oracle_eval.calls",
    "oracle.evaluations",
    "spectra.evaluate.calls",
    "spectra.evaluate.scalar_calls",
    "spectra.evaluate.elements",
    "expr.evaluate_tree.calls",
    "asymptotics.leading_order.calls",
    "asymptotics.local_sdp_integral.calls",
    "spectral.saddle_point.calls",
    "harness.emit.bytes",
    "cli.main.calls",
)

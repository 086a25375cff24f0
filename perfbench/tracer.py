"""In-memory span recorder wrapped around the public names of spsdflow.

Spans are recorded by the benchmark's own code only: :func:`instrument`
replaces the names that the library modules look up at call time (and the
``numpy.linalg`` entry points) with thin wrappers, and puts the originals
back afterwards.  No library source is changed.

A span is ``(id, name, start, end, parent, run_id)``; a span name is
``<module>.<function>`` and the module is its layer.  ``numpy.linalg``
calls are not spans: they are counted per innermost open span, so ratios
such as QR calls per descent step are measured where the work happens.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LINALG = ("qr", "eigh", "eigvalsh", "norm", "solve", "eigvals", "svd")


class Tracer:
    """Spans of one workload execution plus counters keyed by open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []      # (id, name, start, end, parent, run_id)
        self.counts: Counter = Counter()  # (innermost span name, linalg function) -> calls
        self.totals: Counter = Counter()  # steps taken, bytes written
        self._stack: list[tuple[int, str]] = []

    @property
    def current(self) -> str:
        return self._stack[-1][1] if self._stack else "bench"

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)           # reserve the id in start order
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span named ``name``; ``on_result`` runs after the span."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out
        return wrapper

    def counted(self, key: str, fn):
        """``fn`` counting its calls under the innermost open span, without a span."""
        def wrapper(*args, **kwargs):
            self.counts[(self.current, key)] += 1
            return fn(*args, **kwargs)
        return wrapper


def _bytes_written(tracer: Tracer, paths) -> None:
    tracer.totals["bytes_written"] += sum(p.stat().st_size for p in paths)


def _rgd_steps(tracer: Tracer, run) -> None:
    tracer.totals["rgd.steps"] += run.iters


def _flow_steps(tracer: Tracer, res) -> None:
    tracer.totals["flows.steps"] += len(res.records) - 1


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced name for the duration of the block, then restore them."""
    import numpy as np

    import spsdflow
    from spsdflow import cli, experiments, flows, rgd, spurious

    spans = [
        # (owner, attribute, span name, on_result)
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "experiments.run_experiment", None),
        (experiments, "run_single", "experiments.run_single", None),
        (experiments, "emit_summary", "experiments.emit_summary", _bytes_written),
        (experiments, "make_ground_truth", "spurious.make_ground_truth", None),
        (experiments, "spurious_point", "spurious.spurious_point", None),
        (experiments, "sample_spurious_tuple", "spurious.sample_spurious_tuple", None),
        (experiments, "perturb_near", "spurious.perturb_near", None),
        (experiments, "haar_orthonormal", "spurious.haar_orthonormal", None),
        (experiments, "run_rgd", "rgd.run_rgd", _rgd_steps),
        (experiments, "integrate", "flows.integrate", _flow_steps),
        (spurious, "retract", "manifold.retract", None),
        (rgd, "retract", "manifold.retract", None),
        (rgd, "rgd_step", "rgd.rgd_step", None),
        (spsdflow, "iteration_jacobian", "rgd.iteration_jacobian", None),
        (spsdflow, "fd_iteration_matrix", "rgd.fd_iteration_matrix", None),
        (spsdflow, "fd_directional", "oracles.fd_directional", None),
        (spsdflow, "sin_theta_check", "oracles.sin_theta_check", None),
        (flows.RescaledFlowJacobian, "spectrum", "flows.rescaled_spectrum", None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in spans:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, on_result))
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, tracer.counted(attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


LAYERS = ("cli", "experiments", "spurious", "manifold", "rgd", "flows", "oracles")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced execution: name -> (value, unit).

    A layer's self time is the duration of its spans minus the part covered
    by their child spans.  Metrics of a layer the workload does not reach
    read 0.  The run-time percentiles need samples: p90 is reported only
    from 100 ``run_single`` calls up and reads 0 below that.
    """
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered: dict[int, float] = defaultdict(float)
    parent_name: dict[int, str] = {}
    durations: dict[str, list[float]] = defaultdict(list)
    for sid, name, start, end, parent, _ in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        parent_name[sid] = name
        if parent is not None:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in tracer.spans:
        self_time[name] += end - start - covered[sid]

    out: dict[str, tuple[float, str]] = {}
    out["cli.config_s"] = (self_time["cli.main"], "s")
    singles = sorted(durations["experiments.run_single"])
    p50 = statistics.median(singles) if singles else 0.0
    p90 = statistics.quantiles(singles, n=10)[-1] if len(singles) >= 100 else 0.0
    out["experiments.run_single.p50_ms"] = (1e3 * p50, "ms")
    out["experiments.run_single.p90_ms"] = (1e3 * p90, "ms")
    out["experiments.run_single.samples"] = (len(singles), "count")
    out["experiments.aggregate.self_s"] = (self_time["experiments.run_experiment"], "s")
    out["experiments.emit_summary.s"] = (total["experiments.emit_summary"], "s")
    out["experiments.bytes_written"] = (tracer.totals["bytes_written"], "bytes")
    for name in ("spurious.make_ground_truth", "spurious.perturb_near", "manifold.retract"):
        out[f"{name}.s"] = (total[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    draws = sum(1 for _, name, _, _, parent, _ in tracer.spans
                if name == "manifold.retract" and parent is not None
                and parent_name[parent] == "spurious.perturb_near")
    out["spurious.perturb_near.draws_per_call"] = (
        draws / calls["spurious.perturb_near"] if calls["spurious.perturb_near"] else 0.0, "ratio")
    out["spurious.sample_spurious_tuple.s"] = (total["spurious.sample_spurious_tuple"], "s")
    for layer, span in (("rgd", "rgd.run_rgd"), ("flows", "flows.integrate")):
        steps = tracer.totals[f"{layer}.steps"]
        per_step = 1.0 / steps if steps else 0.0
        linalg = {fn: tracer.counts[(span, fn)] for fn in LINALG}
        out[f"{span}.s"] = (total[span], "s")
        out[f"{layer}.steps"] = (steps, "count")
        out[f"{layer}.us_per_step"] = (1e6 * total[span] * per_step, "us")
        out[f"{layer}.linalg_per_step"] = (sum(linalg.values()) * per_step, "1/step")
        for fn in ("qr", "eigh", "eigvalsh", "norm"):
            out[f"{layer}.linalg_per_step.{fn}"] = (linalg[fn] * per_step, "1/step")
    # integrate calls QR only to re-orthonormalize the factor.
    out["flows.reorth_per_step"] = out["flows.linalg_per_step.qr"]
    for name in ("rgd.iteration_jacobian", "rgd.fd_iteration_matrix", "flows.rescaled_spectrum",
                 "oracles.fd_directional", "oracles.sin_theta_check"):
        out[f"{name}.s"] = (total[name], "s")
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".")[0]] += value
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out

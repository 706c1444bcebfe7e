"""Per-layer spans for the traced pass, recorded from outside the program.

:class:`Recorder` swaps each public call in :data:`TARGETS` for a wrapper
that appends one span -- name, parent, serve-call index, start and end
(``perf_counter_ns``) -- to in-memory columns, then restores the original
on exit.  No file under ``src/`` knows it is being measured.  A span's
parent is the innermost wrapped call still open when it started, so a
layer's self time is its span's duration minus its wrapped children's.

If a target no longer exists (a later change renamed it), the recorder
warns and that layer's metrics read 0; everything else still runs.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

import numpy as np

#: (span name, module, attribute) of every wrapped public call.
TARGETS = (
    ("api.from_spec", "repro.api.deployment", "Deployment.from_spec"),
    ("loop.run", "repro.serving.loop", "ServingLoop.run"),
    ("gateway.offer", "repro.serving.gateway", "RequestGateway.offer"),
    ("gateway.drain", "repro.serving.gateway", "RequestGateway.drain"),
    ("batcher.add", "repro.serving.batching", "Batcher.add"),
    ("batcher.flush_ready", "repro.serving.batching", "Batcher.flush_ready"),
    ("batcher.flush_all", "repro.serving.batching", "Batcher.flush_all"),
    ("simulation.run", "repro.scheduler.simulation", "ClusterSimulator.run"),
    ("heats.place", "repro.scheduler.heats", "HeatsScheduler.place"),
    ("heats.reschedule", "repro.scheduler.heats", "HeatsScheduler.reschedule"),
    ("cache.get", "repro.serving.cache", "PredictionScoreCache.get"),
    ("cluster.feasible", "repro.scheduler.cluster", "Cluster.feasible_node_names"),
    ("federation.place", "repro.federation.federation", "FederatedScheduler.place"),
    ("federation.reschedule", "repro.federation.federation",
     "FederatedScheduler.reschedule"),
    ("autoscale.control", "repro.autoscale.controller", "Autoscaler.control"),
    # Patched where it is looked up: run_scenario calls the runner's name.
    ("scenarios.build_workload", "repro.scenarios.runner", "build_workload"),
    ("telemetry.start_span", "repro.telemetry.trace", "Tracer.start_span"),
)
NAMES = tuple(name for name, _, _ in TARGETS)
#: wrapped calls whose non-None return marks a useful attempt (a placement
#: found, a cache hit); the rest are retries or misses.
JUDGED = ("heats.place", "cache.get")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Recorder:
    """Wraps :data:`TARGETS` while active; spans live in memory columns."""

    def __init__(self) -> None:
        # int64 columns: 40 bytes a span, where lists of ints take ~150.
        self.codes = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.useful = [0] * len(TARGETS)
        #: index of the serve call in flight; -1 outside serve calls.
        self.op = -1
        self.served = 0
        self._stack: List[int] = []
        self._saved: list = []

    @contextmanager
    def serving(self) -> Iterator[None]:
        """Tag the spans recorded inside the block with the next op id."""
        self.op = self.served
        self.served += 1
        try:
            yield
        finally:
            self.op = -1

    def __enter__(self) -> "Recorder":
        for code, (name, module, attribute) in enumerate(TARGETS):
            try:
                owner, attr, raw = _resolve(module, attribute)
            except (ImportError, AttributeError):
                print(f"warning: {module}.{attribute} not found; "
                      f"layer {name} reads 0", file=sys.stderr)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, code)))
            else:
                setattr(owner, attr, self._wrap(raw, code))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, code: int):
        codes, parents, ops = self.codes, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        useful = self.useful
        judged = NAMES[code] in JUDGED
        clock = time.perf_counter_ns
        recorder = self

        def wrapper(*args, **kwargs):
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if judged and result is not None:
                useful[code] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line, gzipped.

        Args:
            path: the ``.jsonl.gz`` file to create.
        """
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, code in enumerate(self.codes):
                out.write(
                    f'{{"id":{index},"name":"{NAMES[code]}",'
                    f'"parent":{self.parents[index]},"op":{self.ops[index]},'
                    f'"start_ns":{self.starts[index] - origin},'
                    f'"end_ns":{self.ends[index] - origin}}}\n'
                )


def layer_metrics(
    recorder: Recorder, serve_ns: Sequence[int], reports: Sequence[object]
) -> Dict[str, float]:
    """Fold the recorded spans into per-layer metrics, per serve call.

    Args:
        recorder: the recorder after the traced trials.
        serve_ns: the benchmark's own wall time of every traced serve call.
        reports: the ``ServingReport`` of every traced serve call.

    Returns:
        Metric name -> value; a layer the run never reached reads 0.
    """
    codes = np.asarray(recorder.codes, dtype=np.int64)
    parents = np.asarray(recorder.parents, dtype=np.int64)
    served = np.asarray(recorder.ops, dtype=np.int64) >= 0
    duration = np.asarray(recorder.ends, dtype=np.int64) - np.asarray(
        recorder.starts, dtype=np.int64
    )
    nested = parents >= 0
    children = np.bincount(
        parents[nested], weights=duration[nested], minlength=len(codes)
    )
    self_ns = duration - children
    calls = max(len(serve_ns), 1)

    def of(name: str) -> np.ndarray:
        return (codes == NAMES.index(name)) & served

    def count(*names: str) -> float:
        return float(sum(int(of(name).sum()) for name in names)) / calls

    def self_ms(*names: str) -> float:
        return float(sum(self_ns[of(name)].sum() for name in names)) / 1e6 / calls

    def percentile_us(name: str, q: float) -> float:
        values = duration[of(name)]
        return float(np.percentile(values, q)) / 1e3 if len(values) else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call_ns(name: str) -> float:
        mask = of(name)
        return ratio(float(duration[mask].sum()), int(mask.sum()))

    def total(attribute) -> float:
        return float(sum(attribute(report) for report in reports))

    place_calls = int(of("heats.place").sum())
    tasks = total(lambda r: len(r.simulation.completed) + len(r.simulation.unplaced))
    from_spec = duration[codes == NAMES.index("api.from_spec")]
    federations = [r.federation_stats for r in reports if r.federation_stats is not None]
    roots = served & (parents < 0)
    return {
        "gateway.offer.calls": count("gateway.offer"),
        "gateway.offer.ns_per_call": per_call_ns("gateway.offer"),
        "gateway.self_ms": self_ms("gateway.offer", "gateway.drain"),
        "gateway.admit_ratio": ratio(total(lambda r: r.admitted),
                                     total(lambda r: r.offered)),
        "batcher.add.calls": count("batcher.add"),
        "batcher.add.ns_per_call": per_call_ns("batcher.add"),
        "batcher.self_ms": self_ms("batcher.add", "batcher.flush_ready",
                                   "batcher.flush_all"),
        "batcher.mean_batch_size": ratio(total(lambda r: r.admitted),
                                         total(lambda r: r.batches)),
        "loop.self_ms": self_ms("loop.run"),
        "simulation.self_ms": self_ms("simulation.run"),
        "simulation.tasks": tasks / calls,
        "simulation.us_per_task": ratio(
            float(duration[of("simulation.run")].sum()) / 1e3, tasks
        ),
        "simulation.migrations": total(lambda r: r.simulation.num_migrations) / calls,
        "heats.place.calls": count("heats.place"),
        "heats.place.self_ms": self_ms("heats.place"),
        "heats.place.us_p50": percentile_us("heats.place", 50),
        "heats.place.us_p99": percentile_us("heats.place", 99),
        "heats.place.success_ratio": ratio(
            recorder.useful[NAMES.index("heats.place")], place_calls
        ),
        "heats.reschedule.calls": count("heats.reschedule"),
        "heats.reschedule.self_ms": self_ms("heats.reschedule"),
        "cache.hit_rate": ratio(
            recorder.useful[NAMES.index("cache.get")], int(of("cache.get").sum())
        ),
        "cluster.feasible.calls": count("cluster.feasible"),
        "cluster.feasible.self_ms": self_ms("cluster.feasible"),
        "cluster.feasible.miss_ratio": ratio(
            int(of("cluster.feasible").sum()), place_calls
        ),
        "federation.place.calls": count("federation.place"),
        "federation.place.self_ms": self_ms("federation.place"),
        "federation.place.us_p99": percentile_us("federation.place", 99),
        "federation.reschedule.self_ms": self_ms("federation.reschedule"),
        "federation.affinity_hit_rate": ratio(
            sum(stats.affinity_hits for stats in federations),
            sum(stats.affinity_hits + stats.affinity_misses for stats in federations),
        ),
        "autoscale.control.calls": count("autoscale.control"),
        "autoscale.control.self_ms": self_ms("autoscale.control"),
        "autoscale.actions": total(
            lambda r: len(r.autoscale_report.decisions) if r.autoscale_report else 0
        ) / calls,
        "scenarios.build_workload.ms": float(
            duration[of("scenarios.build_workload")].sum()
        ) / 1e6 / calls,
        "telemetry.start_span.calls": count("telemetry.start_span"),
        "telemetry.start_span.self_ms": self_ms("telemetry.start_span"),
        "telemetry.spans": total(
            lambda r: len(r.trace_spans) if r.trace_spans is not None else 0
        ) / calls,
        "api.from_spec.ms": float(np.median(from_spec)) / 1e6 if len(from_spec) else 0.0,
        "bench.coverage": ratio(float(duration[roots].sum()), float(sum(serve_ns))),
    }

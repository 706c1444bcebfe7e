"""The deployment session: build the backend once, serve many workloads.

The old facade rebuilt everything per call -- cluster, profiling
campaigns, score caches, telemetry -- which made "serve another workload
on the same deployment" cost a full cold start.  A :class:`Deployment`
inverts that: :meth:`Deployment.from_spec` validates the spec, builds
the backend exactly once (the only profiling the session ever pays for a
static topology), and then :meth:`serve` / :meth:`serve_iter` replay any
number of workloads against the warm state.  Session-level telemetry
(``deployment.serve_runs``, ``deployment.profiling_campaigns``) makes
the warm-reuse claim assertable rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.backend import Backend
from repro.api.spec import DeploymentSpec
from repro.scheduler.modeling import profiling_run_count
from repro.serving.loop import ServingReport, ServingWorkload
from repro.serving.sla import percentile
from repro.telemetry.registry import MetricsRegistry, MetricsSnapshot
from repro.telemetry.trace import SpanTable, Tracer

#: session-counter names recorded on every deployment's bus.
SERVE_RUNS_METRIC = "deployment.serve_runs"
PROFILING_METRIC = "deployment.profiling_campaigns"


@dataclass(frozen=True)
class ServingTick:
    """One dashboard tick of a serving run's timeline.

    Produced by :meth:`Deployment.serve_iter`: the run's timeline cut
    into fixed windows, each summarising the arrivals and completions
    that fell inside it.
    """

    index: int
    start_s: float
    end_s: float
    arrivals: int
    completed: int
    cumulative_completed: int
    p50_latency_s: float
    p95_latency_s: float
    #: spans that *ended* inside this window, counted per stage name --
    #: populated only when the deployment traces (``telemetry.tracing``).
    stage_spans: Optional[Dict[str, int]] = None

    def summary(self) -> Dict[str, object]:
        """A compact dict rendering (one dashboard row).

        Returns:
            The tick's window bounds, counts, latency percentiles, and
            (when the run was traced) per-stage span counts.
        """
        rendered: Dict[str, object] = {
            "tick": self.index,
            "window_s": (round(self.start_s, 3), round(self.end_s, 3)),
            "arrivals": self.arrivals,
            "completed": self.completed,
            "cumulative_completed": self.cumulative_completed,
            "p50_latency_s": round(self.p50_latency_s, 3),
            "p95_latency_s": round(self.p95_latency_s, 3),
        }
        if self.stage_spans is not None:
            rendered["stage_spans"] = dict(sorted(self.stage_spans.items()))
        return rendered


class Deployment:
    """One built backend serving many workloads against warm state."""

    def __init__(
        self,
        spec: DeploymentSpec,
        backend: Backend,
        metrics: MetricsRegistry,
        system: Optional[object] = None,
    ) -> None:
        """Wrap an already-built backend (use :meth:`from_spec` instead).

        Args:
            spec: the validated spec the backend was built from.
            backend: the built backend.
            metrics: the session's metrics bus (always present; also the
                hot-path bus when the spec enables telemetry).
            system: the owning :class:`~repro.core.ecosystem.LegatoSystem`
                when deployed through ``LegatoSystem.deploy``; folded
                into :meth:`snapshot`.
        """
        self.spec = spec
        self.backend = backend
        self._metrics = metrics
        self._system = system
        self._closed = False
        self._last_report: Optional[ServingReport] = None
        #: the session's tracer; disabled (a no-op) unless the spec sets
        #: ``telemetry.tracing``.
        self.tracer: Tracer = backend.tracer or Tracer.disabled()
        self._serve_runs = metrics.counter(SERVE_RUNS_METRIC)
        self._profilings = metrics.counter(PROFILING_METRIC)

    @classmethod
    def from_spec(
        cls, spec: DeploymentSpec, system: Optional[object] = None
    ) -> "Deployment":
        """Validate the spec and build the backend (the one cold start).

        Args:
            spec: the deployment spec; validated with every problem
                reported at once.
            system: optional owning facade, recorded for snapshots.

        Returns:
            A ready deployment session.

        Raises:
            SpecValidationError: listing every validation problem.
        """
        spec.check()
        metrics = MetricsRegistry(
            default_histogram_window=spec.telemetry.histogram_window
        )
        before = profiling_run_count()
        tracer = Tracer(enabled=spec.telemetry.tracing)
        backend = Backend(
            spec,
            metrics if spec.telemetry.enabled else None,
            tracer=tracer if spec.telemetry.tracing else None,
        )
        deployment = cls(spec, backend, metrics, system=system)
        deployment._profilings.inc(profiling_run_count() - before)
        return deployment

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Deployment":
        """Enter the context manager.

        Returns:
            This deployment.
        """
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Close the session on context exit.

        Args:
            exc_type: exception type, if the body raised.
            exc_value: exception value, if the body raised.
            traceback: traceback, if the body raised.
        """
        self.close()

    def close(self) -> None:
        """End the session; further serving raises.

        Closing is idempotent.  The backend's state (and the metrics
        bus) stay readable -- ``metrics()`` and ``snapshot()`` keep
        working -- so a closed deployment can still be audited.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether the session was closed."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this deployment session is closed")

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self, workload: ServingWorkload, batch_policy: Optional[object] = None
    ) -> ServingReport:
        """Serve one workload against the warm backend.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional
                :class:`~repro.serving.batching.BatchPolicy` override of
                the spec's batching section for this run only.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run.
        """
        self._ensure_open()
        before = profiling_run_count()
        report = self.backend.serve(workload, batch_policy=batch_policy)
        # A static topology profiles zero times here; an autoscaled run
        # legitimately probes nodes it grows, and the counter records it.
        self._profilings.inc(profiling_run_count() - before)
        self._serve_runs.inc()
        self._last_report = report
        return report

    def run_scenario(
        self, spec: object, batch_policy: Optional[object] = None
    ) -> object:
        """Serve a scenario: generated workload plus chaos injections.

        Materialises the scenario's request stream, applies its
        :class:`~repro.scenarios.spec.ChaosSchedule` through the
        backend's scheduler seams for the duration of one serve call,
        and restores the backend afterwards so the session stays warm
        and reusable.  Equal specs on equally-seeded deployments
        reproduce the outcome bit-identically.

        Args:
            spec: a :class:`~repro.scenarios.spec.ScenarioSpec`;
                validated here with every issue reported at once.
            batch_policy: optional
                :class:`~repro.serving.batching.BatchPolicy` override of
                the spec's batching section for this run only.

        Returns:
            The :class:`~repro.scenarios.runner.ScenarioOutcome`
            bundling the serving report with the chaos report.
        """
        # Imported lazily: repro.scenarios sits above repro.api in the
        # layering (its spec module imports repro.api.spec), so a
        # module-level import here would be a cycle.
        from repro.scenarios.runner import run_scenario

        return run_scenario(self, spec, batch_policy=batch_policy)

    def serve_iter(
        self,
        workload: ServingWorkload,
        tick_s: float = 5.0,
        batch_policy: Optional[object] = None,
    ) -> Iterator[ServingTick]:
        """Serve one workload and stream its timeline as dashboard ticks.

        The discrete-event run is executed in full (same path as
        :meth:`serve`; the complete report lands in :attr:`last_report`),
        then its timeline is replayed as fixed windows: arrivals from the
        workload, completions and latency percentiles from the report's
        per-member completion instants.

        Args:
            workload: tenants plus their request stream.
            tick_s: window width of the tick stream.
            batch_policy: optional per-run batching override.

        Returns:
            An iterator of :class:`ServingTick`, ordered by window start,
            covering the whole serving horizon.
        """
        if tick_s <= 0:
            raise ValueError("tick width must be positive")
        report = self.serve(workload, batch_policy=batch_policy)

        def ticks() -> Iterator[ServingTick]:
            arrivals = sorted(request.arrival_s for request in workload.requests)
            completed: List[Tuple[float, float]] = sorted(
                zip(report.completions_s, report.latencies_s)
            )
            # When the run was traced, bucket span *end* instants into the
            # same windows so each tick carries its per-stage activity.
            traced = report.trace_spans is not None
            stage_events: List[Tuple[float, str]] = []
            if traced:
                table = SpanTable.of(report.trace_spans)
                ended = np.flatnonzero(~np.isnan(table.ends))
                stage_events = sorted(
                    zip(
                        table.ends[ended].tolist(),
                        map(table.names.__getitem__, table.name_codes[ended].tolist()),
                    )
                )
            stage_pos = 0
            horizon = max(
                report.horizon_s,
                arrivals[-1] if arrivals else 0.0,
                completed[-1][0] if completed else 0.0,
            )
            cumulative = 0
            index = 0
            arrival_pos = 0
            completed_pos = 0
            while index * tick_s < horizon or index == 0:
                start = index * tick_s
                end = start + tick_s
                # The final window is closed on the right: an event landing
                # exactly on the horizon (e.g. the last completion when the
                # makespan is a multiple of the tick width) must not be
                # dropped between the half-open windows.
                last = end >= horizon
                arrived = 0
                while arrival_pos < len(arrivals) and (
                    last or arrivals[arrival_pos] < end
                ):
                    arrived += 1
                    arrival_pos += 1
                window_latencies: List[float] = []
                while completed_pos < len(completed) and (
                    last or completed[completed_pos][0] < end
                ):
                    window_latencies.append(completed[completed_pos][1])
                    completed_pos += 1
                cumulative += len(window_latencies)
                stage_spans: Optional[Dict[str, int]] = None
                if traced:
                    stage_spans = {}
                    while stage_pos < len(stage_events) and (
                        last or stage_events[stage_pos][0] < end
                    ):
                        name = stage_events[stage_pos][1]
                        stage_spans[name] = stage_spans.get(name, 0) + 1
                        stage_pos += 1
                yield ServingTick(
                    index=index,
                    start_s=start,
                    end_s=end,
                    arrivals=arrived,
                    completed=len(window_latencies),
                    cumulative_completed=cumulative,
                    p50_latency_s=percentile(window_latencies, 50),
                    p95_latency_s=percentile(window_latencies, 95),
                    stage_spans=stage_spans,
                )
                index += 1

        return ticks()

    @property
    def last_report(self) -> Optional[ServingReport]:
        """The most recent serving report, or None before the first run."""
        return self._last_report

    @property
    def serve_runs(self) -> int:
        """How many workloads this session has served."""
        return int(self._serve_runs.value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def metrics(self) -> MetricsSnapshot:
        """A point-in-time view of the session's metrics bus.

        Always carries the session counters
        (``deployment.serve_runs``, ``deployment.profiling_campaigns``);
        when the spec enables telemetry it additionally carries every
        hot-path instrument (admission, batching, placement, routing).
        Host time is not measured here: ``benchmarks/e2e/run.py --trace 1``
        times each layer from outside the program.

        Returns:
            The :class:`~repro.telemetry.registry.MetricsSnapshot`.
        """
        return self._metrics.snapshot()

    def snapshot(self) -> Dict[str, object]:
        """Current topology plus how the spec differs from the defaults.

        Reuses :meth:`~repro.core.ecosystem.LegatoSystem.describe` for
        the owning system's view when the deployment was created through
        ``LegatoSystem.deploy``.

        Returns:
            Name, backend topology (elastic changes included), session
            counters, the full spec dict, and the spec's diff against
            ``DeploymentSpec()`` defaults.
        """
        snapshot: Dict[str, object] = {
            "name": self.spec.name,
            "closed": self._closed,
            "serve_runs": self.serve_runs,
            "profiling_campaigns": int(self._profilings.value),
            "topology": self.backend.topology(),
            "spec": self.spec.to_dict(),
            "spec_overrides": self.spec.diff(),
        }
        if self._system is not None:
            snapshot["system"] = self._system.describe()
        return snapshot

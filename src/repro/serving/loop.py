"""The serving loop: admission -> batching -> placement -> SLA report.

``ServingLoop.run`` replays a time-ordered stream of user requests through
the front-end: each request is admitted (or rejected) by the gateway at
its arrival instant, admitted requests are coalesced by the batcher, and
flushed batches become :class:`TaskRequest` tasks replayed on the existing
discrete-event :class:`~repro.scheduler.simulation.ClusterSimulator` under
whatever placement backend the loop was built with -- a single HEATS
cluster, or a :class:`~repro.federation.federation.Federation`'s union
cluster and federated scheduler (in which case the report additionally
carries the federation's routing telemetry).  Completions are mapped back
to the member requests to produce per-tenant SLA telemetry.

The front half is columnar: the stream becomes arrival, tick-bin and
tenant columns once per run, every admission is decided in one pass per
tenant, and the admitted rows are batched in one batcher pass from their
add instants and drain order.  Tasks come from per-batch reductions, and
the rollup gathers each completed task's finish time and energy, and its
members' arrivals, deadlines and tenants, by member row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.scheduler.cluster import Cluster
from repro.scheduler.simulation import ClusterSimulator, SchedulerProtocol, SimulationResult
from repro.scheduler.workload import TaskRequest
from repro.serving.batching import Batch, Batcher, BatchPolicy, _member_rows, _Rows
from repro.serving.cache import CacheStats
from repro.serving.gateway import (
    _ADMISSION_OUTCOMES,
    _ADMITTED,
    _REJECTED_UNKNOWN_TENANT,
    AdmissionDecision,
    RequestGateway,
    ServingRequest,
    Tenant,
)
from repro.serving.sla import SlaTracker, TenantSlaReport, percentiles
from repro.telemetry.trace import Span, Tracer, TraceSummary, summarize_trace

_ARRIVAL = attrgetter("arrival_s")
_TENANT = attrgetter("tenant")
_FINISH = attrgetter("finish_s")
_TASK_ID = attrgetter("task_id")
_ENERGY = attrgetter("energy_j")


def _groups(codes: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Rows grouped by code with one stable argsort.

    Returns:
        The grouping order (row indices, ascending within a code) and one
        ``(code, start, stop)`` slice of it per code present, in code
        order; the cost does not grow with the number of possible codes.
    """
    order = np.argsort(codes, kind="stable")
    grouped = codes[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=grouped[:1] - 1)).tolist()
    stops = starts[1:] + [len(order)]
    return order, list(zip(grouped[starts].tolist(), starts, stops))


def _replay_order(
    requests: Sequence[ServingRequest],
) -> Tuple[List[ServingRequest], np.ndarray]:
    """The stream in replay order (arrival, ties by request id) and its arrivals.

    One stable argsort of the arrival column; only runs of equal arrivals
    are sorted again, by request id.  No key object is built per request:
    a key tuple per request also pushes the garbage collector into a full
    collection on a large stream.
    """
    if not isinstance(requests, (list, tuple)):
        requests = list(requests)
    arrivals = np.fromiter(map(_ARRIVAL, requests), dtype=float, count=len(requests))
    order = np.argsort(arrivals, kind="stable")
    ordered = arrivals[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(tied):
        for run in np.split(tied, np.flatnonzero(np.diff(tied) != 1) + 1):
            rows = order[run[0]:run[-1] + 2].tolist()
            rows.sort(key=lambda row: requests[row].request_id)
            order[run[0]:run[-1] + 2] = rows
        # Tied arrivals compare equal but may differ in sign (0.0, -0.0).
        ordered = arrivals[order]
    return list(map(requests.__getitem__, order.tolist())), ordered


def _tick_bins(arrivals: np.ndarray, tick: float) -> np.ndarray:
    """Per arrival, the largest ``k`` with ``k * tick <= arrival``.

    Found with the walk's own comparison (``(k + 1) * tick <= arrival``),
    so a bin boundary lands where the walk crosses a tick even when the
    tick is not exactly representable.
    """
    if len(arrivals) and arrivals[-1] / tick >= 2.0**53:
        raise ValueError(
            f"arrival {arrivals[-1]} s is beyond the exact range of the "
            f"{tick} s flush-tick grid"
        )
    bins = (arrivals / tick).astype(np.int64)
    while True:
        early = (bins + 1) * tick <= arrivals
        if not early.any():
            break
        bins += early
    while True:
        late = bins * tick > arrivals
        if not late.any():
            break
        bins -= late
    return bins


def _last_tick(time_s: float, tick: float) -> int:
    """The largest ``k`` with ``k * tick <= time_s`` (0 when there is none)."""
    at = max(0, int(time_s / tick))
    while (at + 1) * tick <= time_s:
        at += 1
    while at > 0 and at * tick > time_s:
        at -= 1
    return at


def _drain_order(bins: np.ndarray, tenants: np.ndarray) -> np.ndarray:
    """Admitted rows (in replay order) in the order they reach the batcher.

    Each tick drains the admissions of the tick bin before it round-robin
    across tenants in registration order: one per tenant per round, each
    tenant's in arrival order.  So rows sort by bin, then by rank among
    their tenant's admissions in the bin, then by tenant.
    """
    count = len(bins)
    grouped = np.lexsort((tenants, bins))
    fresh = np.ones(count, dtype=bool)
    fresh[1:] = (np.diff(bins[grouped]) != 0) | (np.diff(tenants[grouped]) != 0)
    index = np.arange(count)
    rank = np.empty(count, dtype=np.int64)
    rank[grouped] = index - np.maximum.accumulate(np.where(fresh, index, 0))
    return np.lexsort((tenants, rank, bins))


@dataclass(frozen=True)
class ServingWorkload:
    """A multi-tenant request stream plus the tenants' contracts.

    Both fields accept any iterable -- a generator produced by an arrival
    process streams in as readily as a materialised list -- and are
    normalised to tuples exactly once at construction, so every later
    consumer (including ``Deployment.serve_iter``'s second pass over the
    requests) sees a stable, re-iterable sequence.
    """

    tenants: Tuple[Tenant, ...]
    requests: Tuple[ServingRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.tenants:
            raise ValueError("a serving workload needs at least one tenant")
        names = {tenant.name for tenant in self.tenants}
        if len(names) != len(self.tenants):
            raise ValueError("tenant names must be unique")
        unknown = {r.tenant for r in self.requests} - names
        if unknown:
            raise ValueError(f"requests reference unregistered tenants: {sorted(unknown)}")

    @classmethod
    def synthetic(
        cls,
        tenants: Sequence[Tenant],
        endpoint_mix: Dict[str, Dict[str, float]],
        offered_rps: float = 20.0,
        duration_s: float = 60.0,
        seed: int = 2020,
    ) -> "ServingWorkload":
        """Generate a reproducible Poisson traffic stream for the tenants.

        Args:
            tenants: the tenants offering traffic.
            endpoint_mix: per-tenant endpoint-name -> relative weight.
            offered_rps: aggregate offered request rate.
            duration_s: length of the arrival window.
            seed: RNG seed for the traffic generator.

        Returns:
            A workload pairing the tenants with the generated requests.
        """
        from repro.serving.endpoints import synthesize_traffic

        requests = synthesize_traffic(
            tenants, endpoint_mix, offered_rps=offered_rps, duration_s=duration_s, seed=seed
        )
        return cls(tenants=tuple(tenants), requests=tuple(requests))


@dataclass
class ServingReport:
    """Outcome of one serving run, per tenant and overall."""

    tenant_reports: Dict[str, TenantSlaReport]
    simulation: SimulationResult
    horizon_s: float
    batches: int
    offered: int
    admitted: int
    completed: int
    dropped: int
    latencies_s: List[float] = field(default_factory=list)
    #: per-member completion instants, index-aligned with ``latencies_s``
    #: (what ``Deployment.serve_iter`` buckets into its tick stream).
    completions_s: List[float] = field(default_factory=list)
    #: this run's score-cache delta (a snapshot -- later runs on a warm
    #: session never mutate it); None when the scheduler has no cache.
    cache_stats: Optional[CacheStats] = None
    #: routing telemetry when the backend is a federation (a
    #: :class:`~repro.federation.federation.FederationStats`), else None.
    federation_stats: Optional[object] = None
    #: elastic-scaling telemetry when an autoscaler drove the run (an
    #: :class:`~repro.autoscale.controller.AutoscaleReport`), else None.
    autoscale_report: Optional[object] = None
    #: request-scoped spans drained from the deployment's tracer after the
    #: run; None when tracing was disabled (the pay-nothing default).
    trace_spans: Optional[List[Span]] = None
    #: memoised (p50, p95, p99) over ``latencies_s`` -- the three
    #: percentile properties and ``summary()`` share one vectorised
    #: numpy pass instead of re-sorting the sample per read.
    _latency_percentiles: Optional[Tuple[float, float, float]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: memoised :func:`summarize_trace` result (the fold is O(spans)).
    _trace_summary: Optional[TraceSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _percentile(self, index: int) -> float:
        if self._latency_percentiles is None:
            p50, p95, p99 = percentiles(self.latencies_s, (50.0, 95.0, 99.0))
            self._latency_percentiles = (p50, p95, p99)
        return self._latency_percentiles[index]

    @property
    def rejected(self) -> int:
        """Requests the gateway turned away at admission."""
        return self.offered - self.admitted

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def ops_per_sec(self) -> float:
        """Completed requests per second over the serving horizon."""
        return self.completed / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end request latency in seconds."""
        return self._percentile(0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end request latency in seconds."""
        return self._percentile(1)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end request latency in seconds."""
        return self._percentile(2)

    @property
    def energy_per_request_j(self) -> float:
        """Task energy spent per completed request, in joules."""
        if not self.completed:
            return 0.0
        return self.simulation.task_energy_j / self.completed

    def trace_summary(self) -> Optional[TraceSummary]:
        """Fold the run's spans into a per-stage latency breakdown.

        Returns:
            The :class:`~repro.telemetry.trace.TraceSummary` (per-stage
            count/p50/p99, critical-path attribution, terminal verdict
            counts), or ``None`` when the run was not traced.
        """
        if self.trace_spans is None:
            return None
        if self._trace_summary is None:
            self._trace_summary = summarize_trace(self.trace_spans)
        return self._trace_summary

    def summary(self) -> Dict[str, object]:
        """Render the overall and per-tenant outcome as one dict.

        Returns:
            Counts, rates, latency percentiles, energy per request, the
            per-tenant sub-summaries, and -- when the backend was a
            federation -- its routing telemetry.
        """
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "batches": self.batches,
            "rejection_rate": round(self.rejection_rate, 4),
            "ops_per_sec": round(self.ops_per_sec, 3),
            "p50_latency_s": round(self.p50_latency_s, 3),
            "p99_latency_s": round(self.p99_latency_s, 3),
            "energy_per_request_j": round(self.energy_per_request_j, 2),
            "tenants": {name: r.summary() for name, r in self.tenant_reports.items()},
            **(
                {"federation": self.federation_stats.summary()}
                if self.federation_stats is not None
                else {}
            ),
            **(
                {"autoscale": self.autoscale_report.summary()}
                if self.autoscale_report is not None
                else {}
            ),
            **(
                {"trace": self.trace_summary().to_dict()}
                if self.trace_spans is not None
                else {}
            ),
        }


class ServingLoop:
    """Drives admission, batching and cluster placement for one run."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SchedulerProtocol,
        gateway: RequestGateway,
        batch_policy: Optional[BatchPolicy] = None,
        tracker: Optional[SlaTracker] = None,
        flush_tick_s: float = 0.5,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if flush_tick_s <= 0:
            raise ValueError("flush tick must be positive")
        self.cluster = cluster
        self.scheduler = scheduler
        self.gateway = gateway
        self.batcher = Batcher(batch_policy, metrics=metrics)
        self.tracker = tracker if tracker is not None else SlaTracker()
        self.flush_tick_s = flush_tick_s
        self.tracer = tracer
        #: single cached boolean so every hot-path instrumentation site is
        #: one branch when tracing is off (pay-for-what-you-use).
        self._trace = tracer is not None and tracer.enabled
        # Open spans keyed by request id, closed as requests cross seams.
        self._request_roots: Dict[str, Span] = {}
        self._gateway_spans: Dict[str, Span] = {}
        self._batch_wait_spans: Dict[str, Span] = {}
        #: last arrival of the stream, set by ``_ingest``; the horizon's floor.
        self._arrivals_end_s = 0.0
        #: the admitted rows in add order (tenant codes in registration
        #: order), and per row its arrival; set by ``_ingest``.
        self._rows = _Rows(())
        self._row_arrivals = np.empty(0)
        self._consumed = False

    # ------------------------------------------------------------------ #
    # Front half: admission and batching
    # ------------------------------------------------------------------ #
    def _ingest(self, requests: Sequence[ServingRequest]) -> List[Batch]:
        """Admit the stream and batch the admissions; returns batches in flush order.

        The stream is sorted once into replay order (:func:`_replay_order`)
        and turned into columns: arrival, tick bin (the tick index the walk stands on when
        the request arrives) and tenant.  The gateway's queues drain into
        the batcher once per tick, not per offer, so a tenant's queue depth
        at an offer is the number of its admissions earlier in the same
        tick bin.  That makes admission independent of batching: it is
        decided up front, in one gateway pass per tenant, and a burst
        arriving within one tick still fills the bounded queues (queue-full
        backpressure can fire).

        Batching is one batcher pass over the admitted rows (in replay
        order, each with its place in the drain order, :func:`_drain_order`).
        A bin's admissions are added at the next tick, ``(bin + 1) * tick``,
        before that tick's flush check; the last bin's are added at the
        last arrival, after which the checks run on up to
        ``end + max_delay + tick`` and every batch still open flushes at
        the end of stream.  Every instant is ``index * tick`` (never
        repeated addition), so the checks land exactly on the grid even
        when the tick is not exactly representable in binary floating
        point, and no flush is ever stamped behind a member's add.

        Raises:
            ValueError: if the gateway has queued requests or the batcher
                has open batches (the replay starts from empty ones).
        """
        if self.gateway.queued_count or self.batcher.open_batches:
            raise ValueError(
                "a serving loop replays its stream from empty gateway queues "
                "and no open batches"
            )
        tick = self.flush_tick_s
        ordered, arrivals = _replay_order(requests)
        count = len(ordered)
        end = self._arrivals_end_s = ordered[-1].arrival_s if ordered else 0.0
        bins = _tick_bins(arrivals, tick)
        outcomes, tenants = self._admission_pass(ordered, arrivals, bins)
        admitted = outcomes == _ADMITTED
        requests = list(compress(ordered, admitted.tolist()))
        admitted = np.flatnonzero(admitted)
        drained = _drain_order(bins[admitted], tenants[admitted])
        sequence = np.empty(len(admitted), dtype=np.int64)
        sequence[drained] = np.arange(len(admitted))
        positions = bins[admitted] + 1
        adds_s = positions * tick
        if count:
            adds_s[positions == bins[-1] + 1] = end
        if self._trace:
            self._trace_front_half(
                ordered, outcomes, bins, admitted[drained].tolist(), adds_s[drained].tolist()
            )
        del ordered, outcomes, bins, drained
        self._rows = _Rows(
            requests, tenants[admitted].astype(np.min_scalar_type(len(self.gateway.tenants)))
        )
        self._row_arrivals = arrivals[admitted]
        del tenants, arrivals, admitted
        last = _last_tick(end + self.batcher.policy.max_delay_s + tick, tick)
        return self.batcher._batch(
            self._rows, adds_s, positions, tick, last, max(last * tick, end), sequence
        )

    def _admission_pass(
        self, ordered: Sequence[ServingRequest], arrivals: np.ndarray, bins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decide every offer, one gateway pass per tenant.

        Offers to unregistered tenants are rejected here: the tracker
        counts them as offered and rejected, the gateway never sees them.

        Returns:
            Per offer, its outcome code and its tenant's code (the
            registration index; unregistered tenants share the next one).
        """
        names = list(map(_TENANT, ordered))
        registered = [tenant.name for tenant in self.gateway.tenants]
        index = {name: code for code, name in enumerate(registered)}
        unknown = len(registered)
        codes = np.fromiter(
            map(index.get, names, repeat(unknown)), dtype=np.int64, count=len(names)
        )
        order, groups = _groups(codes)
        outcomes = np.full(len(names), _REJECTED_UNKNOWN_TENANT, dtype=np.uint8)
        for code, start, stop in groups:
            rows = order[start:stop]
            if code == unknown:
                for name, count in Counter(map(names.__getitem__, rows.tolist())).items():
                    self.tracker.record_offers(name, count, 0)
                continue
            name = registered[code]
            decided = self.gateway._admit(name, arrivals[rows].tolist(), bins[rows].tolist())
            outcomes[rows] = np.frombuffer(decided, dtype=np.uint8)
            self.tracker.record_offers(name, len(decided), decided.count(_ADMITTED))
        return outcomes, codes

    # ------------------------------------------------------------------ #
    # Tracing seams (only reached when ``self._trace`` is set)
    # ------------------------------------------------------------------ #
    def _trace_admission(self, request: ServingRequest, decision: AdmissionDecision) -> None:
        """Open the request root span; rejections terminate immediately."""
        root = self.tracer.start_span(
            "request", request.arrival_s, request.request_id, tenant=request.tenant
        )
        if decision.admitted:
            self._request_roots[request.request_id] = root
            self._gateway_spans[request.request_id] = self.tracer.start_span(
                "request.gateway", request.arrival_s, request.request_id, parent=root
            )
        else:
            root.annotate("terminal", True)
            root.end(request.arrival_s, verdict=decision.value)

    def _trace_front_half(
        self,
        ordered: Sequence[ServingRequest],
        outcomes: np.ndarray,
        bins: np.ndarray,
        added: List[int],
        adds_s: List[float],
    ) -> None:
        """Open the front half's spans in the order a tick-by-tick walk opens them.

        Per tick bin the stream touches: first the hand-over of the
        admissions of earlier bins (drained at the tick the walk crossed
        into this bin), then this bin's admissions in arrival order; the
        last bin's hand-over comes last.
        """
        bounds = np.flatnonzero(np.diff(bins, prepend=-1)).tolist() + [len(ordered)]
        bins = bins.tolist()
        handed = 0
        for step in range(len(bounds) - 1):
            first = bounds[step]
            while handed < len(added) and bins[added[handed]] < bins[first]:
                self._trace_hand_over(ordered[added[handed]], adds_s[handed])
                handed += 1
            for row in range(first, bounds[step + 1]):
                self._trace_admission(ordered[row], _ADMISSION_OUTCOMES[outcomes[row]])
        for row, add_s in zip(added[handed:], adds_s[handed:]):
            self._trace_hand_over(ordered[row], add_s)

    def _trace_hand_over(self, admitted: ServingRequest, now: float) -> None:
        """Close an admission's gateway span and open its batch-wait span at ``now``."""
        gate = self._gateway_spans.pop(admitted.request_id, None)
        if gate is not None:
            gate.end(now)
        self._batch_wait_spans[admitted.request_id] = self.tracer.start_span(
            "request.batch_wait",
            now,
            admitted.request_id,
            parent=self._request_roots.get(admitted.request_id),
        )

    def _trace_flushes(self, batches: Sequence[Batch]) -> None:
        """Close every member's batch-wait span at its batch's flush instant."""
        for batch in batches:
            for member in batch.requests:
                span = self._batch_wait_spans.pop(member.request_id, None)
                if span is not None:
                    span.end(batch.flushed_s, batch_id=batch.batch_id)

    def _trace_completions(self, done, completed, hits, misses) -> None:
        """Close every completed member's root span at its task's finish."""
        outcomes = zip(hits.tolist(), misses.tolist())
        for task, batch in zip(completed, done):
            for member, (hit, miss) in zip(batch.requests, outcomes):
                root = self._request_roots.pop(member.request_id, None)
                if root is not None:
                    root.annotate("terminal", True)
                    root.end(
                        task.finish_s,
                        verdict="completed",
                        task_id=task.task_id,
                        deadline_met=True if hit else False if miss else None,
                    )

    def _to_task_requests(self, batches: Sequence[Batch]) -> List[TaskRequest]:
        """One task per batch, in (arrival, task id) order: ids compare as strings."""
        weights = {tenant.name: tenant.energy_weight for tenant in self.gateway.tenants}
        tasks = [
            batch.to_task_request(batch.flushed_s, weights[batch.key[0]]) for batch in batches
        ]
        tasks.sort(key=lambda t: (t.arrival_s, t.task_id))
        return tasks

    def _member_outcomes(
        self, done: Sequence[Batch], completed: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[np.ndarray, list]]:
        """Per member of each completed task, in completion order.

        Args:
            done: the completed tasks' batches.
            completed: the completed tasks, aligned with ``done``.

        Returns:
            Each task's member count; then per member the latency
            (``finish - arrival`` clipped at 0), the deadline-hit and
            deadline-miss masks (a member without a deadline is in
            neither); and the members grouped by tenant code
            (:func:`_groups`).
        """
        sizes, members = _member_rows(done)
        by_tenant = _groups(self._rows.tenant[members])
        finish = np.fromiter(map(_FINISH, completed), dtype=float, count=len(done))
        finish = np.repeat(finish, sizes)
        deadlines = self._rows.deadline_s[members]
        # A missing deadline is NaN, which no finish time is <=.
        met = finish <= deadlines
        has_deadline = ~np.isnan(deadlines)
        latency = finish - self._row_arrivals[members]
        latency[latency < 0.0] = 0.0
        return sizes, latency, has_deadline & met, has_deadline & ~met, by_tenant

    # ------------------------------------------------------------------ #
    # Full round trip
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[ServingRequest]) -> ServingReport:
        """Replay a request stream through the full serving round trip.

        Args:
            requests: time-ordered user requests to offer to the gateway.

        Returns:
            The :class:`ServingReport` for the run (per-tenant SLA
            telemetry, simulation outcome, cache and federation stats).
        """
        if self._consumed:
            # Gateway buckets, tracker accumulators, and cluster state all
            # carry the previous run; reusing them would corrupt the report.
            raise RuntimeError(
                "a ServingLoop can only run once; build a fresh loop "
                "(and cluster) per serving run"
            )
        self._consumed = True
        # Baseline for the per-run cache delta: on a warm session the live
        # CacheStats keeps accumulating across runs, and attaching the live
        # object would let a later run retroactively mutate this report.
        cache = getattr(self.scheduler, "score_cache", None)
        cache_baseline = (
            CacheStats(**vars(cache.stats)) if cache is not None else None
        )
        for tenant in self.gateway.tenants:
            self.tracker.set_latency_slo(tenant.name, tenant.latency_slo_s)
        batches = self._ingest(requests)
        if self._trace:
            self._trace_flushes(batches)
        by_task_id: Dict[str, Batch] = {batch.batch_id: batch for batch in batches}
        tasks = self._to_task_requests(batches)

        simulator = ClusterSimulator(
            self.cluster,
            self.scheduler,
            tracer=self.tracer if self._trace else None,
        )
        simulation = simulator.run(tasks)

        horizon = max(self._arrivals_end_s, simulation.makespan_s)
        return self._rollup(
            simulation, by_task_id, batches, horizon, cache, cache_baseline
        )

    def _rollup(
        self, simulation, by_task_id, batches, horizon, cache, cache_baseline
    ) -> ServingReport:
        """Map completions back to members and assemble the report.

        Each completed task's finish time and per-member energy are
        gathered onto its members (in completion order, members in batch
        order); latency is ``finish - arrival`` clipped at 0 and deadline
        hits are one vector compare.  Each tenant's entries then go to the
        tracker in one call.
        """
        completed = simulation.completed
        done = list(map(by_task_id.__getitem__, map(_TASK_ID, completed)))
        tenants = [tenant.name for tenant in self.gateway.tenants]
        # Only registered tenants' requests are admitted, so only they complete.
        sizes, latency, hits, misses, (order, groups) = self._member_outcomes(done, completed)
        energy = np.repeat(
            np.fromiter(map(_ENERGY, completed), dtype=float, count=len(done)) / sizes, sizes
        )
        for code, start, stop in groups:
            rows = order[start:stop]
            self.tracker.record_completions(
                tenants[code],
                latency[rows],
                energy[rows],
                deadline_hits=int(np.count_nonzero(hits[rows])),
                deadline_misses=int(np.count_nonzero(misses[rows])),
            )
        del energy, order
        latencies = latency.tolist()
        del latency
        # Members share their task's finish-time float: peak memory stays
        # at one float object per completed member.
        completions = list(
            chain.from_iterable(map(repeat, map(_FINISH, completed), sizes.tolist()))
        )
        if self._trace:
            self._trace_completions(done, completed, hits, misses)
        dropped = 0
        for task_id in simulation.unplaced:
            batch = by_task_id[task_id]
            self.tracker.record_dropped(batch.key[0], batch.size)
            dropped += batch.size
            if self._trace:
                for member in batch.requests:
                    root = self._request_roots.pop(member.request_id, None)
                    if root is not None:
                        root.annotate("terminal", True)
                        root.end(
                            max(horizon, root.start_s),
                            verdict="dropped",
                            task_id=task_id,
                        )
        # Totals come from the tracker (which saw every offer, including
        # unknown-tenant rejections the gateway keeps no stats for), so the
        # overall numbers always agree with the per-tenant reports.
        tenant_reports = self.tracker.reports(horizon)
        if cache is not None:
            cache_stats = CacheStats(
                hits=cache.stats.hits - cache_baseline.hits,
                misses=cache.stats.misses - cache_baseline.misses,
                evictions=cache.stats.evictions - cache_baseline.evictions,
            )
        else:
            cache_stats = None
        autoscaler = getattr(self.scheduler, "autoscaler", None)
        return ServingReport(
            tenant_reports=tenant_reports,
            simulation=simulation,
            horizon_s=horizon,
            batches=len(batches),
            offered=sum(r.offered for r in tenant_reports.values()),
            admitted=sum(r.admitted for r in tenant_reports.values()),
            completed=len(latencies),
            dropped=dropped,
            latencies_s=latencies,
            completions_s=completions,
            cache_stats=cache_stats,
            federation_stats=getattr(self.scheduler, "federation_stats", None),
            autoscale_report=(
                autoscaler.report(horizon) if autoscaler is not None else None
            ),
            trace_spans=self.tracer.drain() if self._trace else None,
        )

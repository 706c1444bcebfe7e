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
tenant, and only the admitted requests walk the tick grid into the
batcher.  The rollup gathers each completed task's finish time and energy
onto its members in bulk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, is_not
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.scheduler.cluster import Cluster
from repro.scheduler.simulation import ClusterSimulator, SchedulerProtocol, SimulationResult
from repro.scheduler.workload import TaskRequest
from repro.serving.batching import Batch, Batcher, BatchPolicy
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

#: replay order of a request stream: arrival, ties by request id.
_REPLAY_ORDER = attrgetter("arrival_s", "request_id")
_ARRIVAL = attrgetter("arrival_s")
_TENANT = attrgetter("tenant")
_DEADLINE = attrgetter("deadline_s")
_MEMBERS = attrgetter("requests")
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


def _member_outcomes(
    done: Sequence[Batch], completed: Sequence[object], tenant_codes: Dict[str, int]
) -> Tuple[np.ndarray, List[float], np.ndarray, np.ndarray, Tuple[np.ndarray, list]]:
    """Per member of each completed task, in completion order.

    Args:
        done: the completed tasks' batches.
        completed: the completed tasks, aligned with ``done``.
        tenant_codes: a code per tenant the members can belong to.

    Returns:
        Each task's member count; then per member the latency
        (``finish - arrival`` clipped at 0, as Python floats), the
        deadline-hit and deadline-miss masks (a member without a deadline
        is in neither); and the members grouped by tenant code
        (:func:`_groups`).
    """
    per_task = list(map(_MEMBERS, done))
    sizes = np.fromiter(map(len, per_task), dtype=np.int64, count=len(done))
    members = list(chain.from_iterable(per_task))
    count = len(members)
    by_tenant = _groups(
        np.fromiter(
            map(tenant_codes.__getitem__, map(_TENANT, members)), dtype=np.int32, count=count
        )
    )
    finish = np.repeat(np.fromiter(map(_FINISH, completed), dtype=float, count=len(done)), sizes)
    deadlines = list(map(_DEADLINE, members))
    has_deadline = np.fromiter(map(is_not, deadlines, repeat(None)), dtype=bool, count=count)
    # A missing deadline converts to NaN, which no finish time is <=.
    met = finish <= np.array(deadlines, dtype=float)
    latency = np.fromiter(map(_ARRIVAL, members), dtype=float, count=count)
    np.subtract(finish, latency, out=latency)
    latency[latency < 0.0] = 0.0
    # The latency floats outlive this call: drop the member-sized
    # temporaries first, so they are not alive when the floats are made.
    del per_task, members, finish, deadlines
    return sizes, latency.tolist(), has_deadline & met, has_deadline & ~met, by_tenant


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
        self._consumed = False

    # ------------------------------------------------------------------ #
    # Front half: admission and batching
    # ------------------------------------------------------------------ #
    def _ingest(self, requests: Sequence[ServingRequest]) -> List[Batch]:
        """Admit the stream, walk admissions through the batcher; returns batches.

        The stream is sorted once into arrival order and turned into
        columns: arrival, tick bin (the tick index the walk stands on when
        the request arrives) and tenant.  The gateway's queues drain into
        the batcher once per tick, not per offer, so a tenant's queue depth
        at an offer is the number of its admissions earlier in the same
        tick bin.  That makes admission independent of the walk: it is
        decided up front, in one gateway pass per tenant, and a burst
        arriving within one tick still fills the bounded queues (queue-full
        backpressure can fire).

        The walk is event-driven over the tick grid: ticks where nothing
        can happen (no queued admissions, no batch stale or deadline-due
        yet) are provably no-ops and are skipped wholesale, so the cost
        scales with tick bins + admissions + flushes instead of the
        horizon.  The drained tail and every flush are stamped on a
        monotone clock (the batcher enforces it), never behind a member's
        add time.  The clock is always ``index * tick`` (not repeated
        addition), so skipping ahead lands exactly on the grid a naive full
        scan would walk even when the tick is not exactly representable in
        binary floating point.
        """
        tick = self.flush_tick_s
        ordered = sorted(requests, key=_REPLAY_ORDER)
        arrivals = np.fromiter(map(_ARRIVAL, ordered), dtype=float, count=len(ordered))
        self._arrivals_end_s = ordered[-1].arrival_s if ordered else 0.0
        bins = _tick_bins(arrivals, tick)
        outcomes = self._admission_pass(ordered, arrivals, bins)

        flushed: List[Batch] = []
        #: tick counter; the clock is always ``index * tick`` so skipping
        #: ahead lands exactly on the grid the legacy scan walked.
        index = 0

        def last_index_at(time_s: float) -> int:
            """Largest tick index whose instant is <= ``time_s``."""
            at = max(index, int(time_s / tick))
            while (at + 1) * tick <= time_s:
                at += 1
            while at > index and at * tick > time_s:
                at -= 1
            return at

        add = self._admit_to_batcher if self._trace else self.batcher.add

        def hand_over(now: float) -> None:
            """Drain the gateway queues into the batcher at ``now``."""
            for admitted in self.gateway.drain():
                full = add(admitted, now)
                if full:
                    flushed.extend(full)

        def run_tick() -> None:
            nonlocal index
            index += 1
            now = index * tick
            hand_over(now)
            flushed.extend(self.batcher.flush_ready(now))

        def advance_to(time_s: float) -> None:
            nonlocal index
            while (index + 1) * tick <= time_s:
                if self.gateway.queued_count == 0:
                    due = self.batcher.next_flush_due_s()
                    if due is None or due > time_s:
                        # Every remaining tick up to the target is a no-op;
                        # jump straight to the grid position the legacy
                        # scan would have ended on.
                        index = last_index_at(time_s)
                        return
                    if due > (index + 1) * tick:
                        # Skip to just before the first tick that could
                        # flush; flush_ready stays the authority at the
                        # ticks from there on.
                        index = max(index, last_index_at(due) - 1)
                run_tick()

        # One step per tick bin the stream touches: advance to the bin's
        # first arrival (where the per-request walk crossed into it), then
        # queue the bin's admissions for the next tick's drain.
        bounds = np.flatnonzero(np.diff(bins, prepend=-1)).tolist() + [len(ordered)]
        admitted_rows = np.flatnonzero(outcomes == _ADMITTED)
        cuts = np.searchsorted(admitted_rows, bounds).tolist()
        admitted = [ordered[row] for row in admitted_rows.tolist()]
        for step in range(len(bounds) - 1):
            arrival = ordered[bounds[step]].arrival_s
            if (index + 1) * tick <= arrival:
                advance_to(arrival)
            if self._trace:
                for row in range(bounds[step], bounds[step + 1]):
                    self._trace_admission(ordered[row], _ADMISSION_OUTCOMES[outcomes[row]])
            self.gateway._enqueue(admitted[cuts[step]:cuts[step + 1]])
        end = self._arrivals_end_s
        advance_to(end)
        # Drain the post-last-arrival admissions on the monotone clock:
        # the batcher stamps them at ``end`` (>= the last processed tick).
        hand_over(end)
        # Keep walking the grid past the last arrival so the tail still
        # flushes through the deadline-/staleness-aware path rather than
        # being stamped wholesale at end + max_delay.
        advance_to(end + self.batcher.policy.max_delay_s + tick)
        flushed.extend(self.batcher.flush_all(max(index * tick, end)))
        return flushed

    def _admission_pass(
        self, ordered: Sequence[ServingRequest], arrivals: np.ndarray, bins: np.ndarray
    ) -> np.ndarray:
        """Decide every offer, one gateway pass per tenant; returns outcome codes.

        Offers to unregistered tenants are rejected here: the tracker
        counts them as offered and rejected, the gateway never sees them.
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
        return outcomes

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

    def _admit_to_batcher(self, admitted: ServingRequest, now: float) -> List[Batch]:
        """Hand one drained admission to the batcher, crossing the trace seam.

        Only the traced walk goes through here; untraced, the walk calls
        :meth:`Batcher.add` directly.

        Args:
            admitted: the request the gateway just drained.
            now: the monotone ingest clock.

        Returns:
            Batches the add caused to flush (the batcher's return value).
        """
        gate = self._gateway_spans.pop(admitted.request_id, None)
        if gate is not None:
            gate.end(now)
        self._batch_wait_spans[admitted.request_id] = self.tracer.start_span(
            "request.batch_wait",
            now,
            admitted.request_id,
            parent=self._request_roots.get(admitted.request_id),
        )
        return self.batcher.add(admitted, now)

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
        tasks: List[TaskRequest] = []
        for batch in batches:
            tenant = self.gateway.tenant(batch.requests[0].tenant)
            assert batch.flushed_s is not None
            tasks.append(batch.to_task_request(batch.flushed_s, tenant.energy_weight))
        tasks.sort(key=lambda t: (t.arrival_s, t.task_id))
        return tasks

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
        sizes, latencies, hits, misses, (order, groups) = _member_outcomes(
            done, completed, {name: code for code, name in enumerate(tenants)}
        )
        # Members share their task's finish-time float and the tracker
        # shares the report's latency floats: peak memory stays at one
        # float object per completed member.
        completions = list(
            chain.from_iterable(map(repeat, map(_FINISH, completed), sizes.tolist()))
        )
        energy = np.repeat(
            np.fromiter(map(_ENERGY, completed), dtype=float, count=len(done)) / sizes, sizes
        )
        for code, start, stop in groups:
            rows = order[start:stop]
            self.tracker.record_completions(
                tenants[code],
                # Indexing with the array's own scalars builds no list of
                # row ints: the tracker shares the report's float objects.
                list(map(latencies.__getitem__, rows)),
                energy[rows],
                deadline_hits=int(np.count_nonzero(hits[rows])),
                deadline_misses=int(np.count_nonzero(misses[rows])),
            )
        if self._trace:
            self._trace_completions(done, completed, hits, misses)
        dropped = 0
        for task_id in simulation.unplaced:
            batch = by_task_id[task_id]
            self.tracker.record_dropped(batch.requests[0].tenant, batch.size)
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

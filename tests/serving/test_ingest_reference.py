"""``ServingLoop.run`` against a slow, per-request reference oracle.

The serving loop builds columns from the request stream, decides every
admission in one pass per tenant, forms every batch from per-row key
codes and add instants, and gathers the rollup per member row.  The
reference below is the per-object front half it replaced, kept verbatim:
one offer and one tracker entry per request, the tick walk draining the
gateway queues into a per-request batcher, and one tracker entry per
completed member.  Since ``RequestGateway.offer``/``drain``,
``Batcher.add``/``flush_ready``/``flush_all`` and
``SlaTracker.record_offered``/``record_completion`` are now thin calls
into the bulk implementations under test, the reference carries their
per-object bodies too (offer through ``TokenBucket.try_consume``, and its
own copy of the per-request ``Batch``/``Batcher`` including
``to_task_request``), acting on the same gateway and tracker state.  It
shares only the simulator with the library.

Four guards:

* hypothesis properties asserting the two agree exactly -- batches (ids,
  keys, members, open and flush instants, in flush order), the batcher's
  metrics (the batch-size histogram in flush order), gateway stats and
  token-bucket state, tracker reports, per-member latencies and
  completions, and (traced) the span sequence -- on arbitrary tenant
  sets, bursts that overflow the queues, ``burst=1`` buckets, tied
  arrivals with out-of-order ids, ticks binary floating point cannot
  represent, size-cap, staleness and deadline flushes (alone and on the
  same tick), memory on a bucket boundary, unknown tenants and empty
  streams;
* a pinned unknown-tenant conservation case on both paths;
* a loud failure for arrivals past the exact range of the tick grid;
* a sha256 golden of one warm-sweep-shaped deployment's reports, which
  catches a change *between* commits (the properties above only compare
  the code against the reference).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, TopologySpec
from repro.api.deployment import Deployment
from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.scheduler.simulation import ClusterSimulator
from repro.scheduler.workload import TaskRequest
from repro.serving.batching import BatchKey, BatchPolicy
from repro.serving.cache import CacheStats
from repro.serving.endpoints import endpoint
from repro.serving.gateway import AdmissionDecision, RequestGateway, ServingRequest, Tenant
from repro.serving.loop import ServingLoop, ServingReport, ServingWorkload
from repro.serving.sla import SlaTracker
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.trace import Span

#: learned models fitted once; every example replays on a fresh cluster.
MODELS = ProfilingCampaign(Cluster.heats_testbed(scale=1), seed=11).run().fit()

KINDS = (WorkloadKind.MEMORY_BOUND, WorkloadKind.SCALAR, WorkloadKind.STREAMING)

#: a tenant name no gateway in this file registers.
GHOST = "ghost"


# ----------------------------------------------------------------------
# Reference front half (the per-object implementation, kept verbatim)
# ----------------------------------------------------------------------


def _offer(gateway: RequestGateway, request: ServingRequest) -> AdmissionDecision:
    """One request's admission: queue bound, then one token-bucket call."""
    tenant = gateway._tenants.get(request.tenant)
    if tenant is None:
        return AdmissionDecision.REJECTED_UNKNOWN_TENANT
    stats = gateway._stats[request.tenant]
    stats.offered += 1
    queue = gateway._queues[request.tenant]
    if len(queue) >= tenant.max_queue_depth:
        stats.rejected_queue_full += 1
        return AdmissionDecision.REJECTED_QUEUE_FULL
    if not gateway._buckets[request.tenant].try_consume(request.arrival_s):
        stats.rejected_rate_limit += 1
        return AdmissionDecision.REJECTED_RATE_LIMIT
    queue.append(request)
    gateway._queued_total += 1
    stats.admitted += 1
    return AdmissionDecision.ADMITTED


def _drain(gateway: RequestGateway) -> List[ServingRequest]:
    """Pop every queued request, round-robin across tenants."""
    drained: List[ServingRequest] = []
    queues = [q for q in gateway._queues.values() if q]
    while queues:
        for queue in list(queues):
            drained.append(queue.popleft())
            if not queue:
                queues.remove(queue)
    gateway._queued_total -= len(drained)
    return drained


def _record_offered(tracker: SlaTracker, tenant: str, admitted: bool) -> None:
    acc = tracker._acc(tenant)
    acc.offered += 1
    if admitted:
        acc.admitted += 1
    else:
        acc.rejected += 1


def _record_completion(tracker: SlaTracker, tenant, latency_s, energy_j, deadline_met) -> None:
    acc = tracker._acc(tenant)
    acc.latencies_s.append(np.array([latency_s]))
    acc.energy_j += energy_j
    if deadline_met is True:
        acc.deadline_hits += 1
    elif deadline_met is False:
        acc.deadline_misses += 1


@dataclass
class _Batch:
    """A group of compatible requests flushed as one cluster task."""

    batch_id: str
    key: BatchKey
    requests: List[ServingRequest]
    opened_s: float
    flushed_s: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def total_gops(self) -> float:
        return sum(request.gops for request in self.requests)

    @property
    def earliest_deadline_s(self) -> Optional[float]:
        deadlines = [r.deadline_s for r in self.requests if r.deadline_s is not None]
        return min(deadlines) if deadlines else None

    def to_task_request(self, flush_s: float, energy_weight: float) -> TaskRequest:
        """The schedulable task this batch becomes when flushed."""
        head = self.requests[0]
        # A member deadline that already passed by flush time cannot be
        # carried on the task (arrival would be at/after it); the batch
        # still runs, and the SLA tracker scores the miss per member.
        # One walk over the members computes the aggregate resource shape
        # (same accumulation order as the per-property passes, so the
        # floats are identical).
        total_gops = 0.0
        cores = 0
        memory_gib = 0.0
        deadline: Optional[float] = None
        for r in self.requests:
            total_gops += r.gops
            if r.cores > cores:
                cores = r.cores
            if r.memory_gib > memory_gib:
                memory_gib = r.memory_gib
            if r.deadline_s is not None and (deadline is None or r.deadline_s < deadline):
                deadline = r.deadline_s
        if deadline is not None and deadline <= flush_s:
            deadline = None
        return TaskRequest(
            task_id=self.batch_id,
            arrival_s=flush_s,
            workload=head.workload,
            gops=total_gops,
            cores=cores,
            memory_gib=memory_gib,
            energy_weight=energy_weight,
            deadline_s=deadline,
            tenant=head.tenant,
        )


class _Batcher:
    """Open-batch table keyed by (tenant, use case, resource shape)."""

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        self._open: Dict[BatchKey, _Batch] = {}
        self._ids = itertools.count()
        self._last_now_s = float("-inf")
        # Bound once; each flush records one counter add + one ring write.
        if metrics is not None:
            self._m_flushes = metrics.counter("batcher.flushes")
            self._m_batch_size = metrics.histogram("batcher.batch_size")
        else:
            self._m_flushes = None
            self._m_batch_size = None

    def _key(self, request: ServingRequest) -> BatchKey:
        bucket = int(request.memory_gib / self.policy.memory_bucket_gib)
        return (request.tenant, request.use_case, request.workload, request.cores, bucket)

    def _observe_clock(self, now_s: float) -> None:
        """Enforce the monotone-clock contract of the batching timeline.

        A batch must never flush earlier than any of its members was
        added; rejecting a backwards clock at the door makes that
        invariant structural instead of an accident of the caller's tick
        arithmetic.
        """
        if now_s < self._last_now_s:
            raise ValueError(
                f"batcher observed time going backwards "
                f"({now_s} after {self._last_now_s})"
            )
        self._last_now_s = now_s

    def next_flush_due_s(self) -> Optional[float]:
        """Earliest instant any open batch becomes flushable, or None.

        The staleness rule fires a batch at ``opened + max_delay`` and the
        deadline rule at ``deadline - margin``; the minimum over open
        batches is the next time a time-driven flush can possibly happen,
        which lets an event-driven serving loop skip every quiet tick
        before it.  Size-cap flushes happen inside :meth:`add` and need no
        clock.
        """
        due: Optional[float] = None
        for batch in self._open.values():
            batch_due = batch.opened_s + self.policy.max_delay_s
            deadline = batch.earliest_deadline_s
            if deadline is not None:
                batch_due = min(batch_due, deadline - self.policy.deadline_margin_s)
            if due is None or batch_due < due:
                due = batch_due
        return due

    @property
    def open_batches(self) -> List[_Batch]:
        return list(self._open.values())

    # ------------------------------------------------------------------ #
    # Filling and flushing
    # ------------------------------------------------------------------ #
    def add(self, request: ServingRequest, now_s: float) -> List[_Batch]:
        """Append a request; returns any batches this add caused to flush."""
        # _observe_clock inlined (one call per admitted request).
        if now_s < self._last_now_s:
            raise ValueError(
                f"batcher observed time going backwards "
                f"({now_s} after {self._last_now_s})"
            )
        self._last_now_s = now_s
        policy = self.policy
        key = (
            request.tenant,
            request.use_case,
            request.workload,
            request.cores,
            int(request.memory_gib / policy.memory_bucket_gib),
        )
        batch = self._open.get(key)
        if batch is None:
            batch = _Batch(
                batch_id=f"batch-{next(self._ids)}-{request.tenant}-{request.use_case}",
                key=key,
                requests=[request],
                opened_s=now_s,
            )
            self._open[key] = batch
        else:
            batch.requests.append(request)
        if len(batch.requests) >= policy.max_batch_size:
            return [self._flush(key, now_s)]
        return []

    def flush_ready(self, now_s: float) -> List[_Batch]:
        """Flush batches that are stale or whose deadline slack ran out."""
        self._observe_clock(now_s)
        flushed: List[_Batch] = []
        for key, batch in list(self._open.items()):
            if now_s - batch.opened_s >= self.policy.max_delay_s:
                flushed.append(self._flush(key, now_s))
                continue
            deadline = batch.earliest_deadline_s
            if deadline is not None and now_s >= deadline - self.policy.deadline_margin_s:
                flushed.append(self._flush(key, now_s))
        return flushed

    def flush_all(self, now_s: float) -> List[_Batch]:
        """Drain every open batch (end of stream)."""
        self._observe_clock(now_s)
        return [self._flush(key, now_s) for key in list(self._open)]

    def _flush(self, key: BatchKey, now_s: float) -> _Batch:
        batch = self._open.pop(key)
        batch.flushed_s = now_s
        if self._m_flushes is not None:
            self._m_flushes.inc()
            self._m_batch_size.record(float(batch.size))
        return batch


class _Reference:
    """The per-request ``_ingest`` / ``_rollup`` over a loop's parts.

    Batching goes through the reference's own per-request batcher, built
    with the loop's policy and metrics registry.
    """

    def __init__(self, loop: ServingLoop, metrics: Optional[MetricsRegistry] = None) -> None:
        self.loop = loop
        self.batcher = _Batcher(loop.batcher.policy, metrics=metrics)
        self.trace = loop.tracer is not None and loop.tracer.enabled
        self.request_roots: Dict[str, Span] = {}
        self.gateway_spans: Dict[str, Span] = {}
        self.batch_wait_spans: Dict[str, Span] = {}

    def ingest(self, requests: Sequence[ServingRequest]) -> List[_Batch]:
        loop = self.loop
        batcher = self.batcher
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        flushed: List[_Batch] = []
        tick = loop.flush_tick_s
        index = 0

        def last_index_at(time_s: float) -> int:
            at = max(index, int(time_s / tick))
            while (at + 1) * tick <= time_s:
                at += 1
            while at > index and at * tick > time_s:
                at -= 1
            return at

        def run_tick() -> None:
            nonlocal index
            index += 1
            now = index * tick
            for admitted in _drain(loop.gateway):
                flushed.extend(self.admit_to_batcher(admitted, now))
            flushed.extend(batcher.flush_ready(now))

        def advance_to(time_s: float) -> None:
            nonlocal index
            while (index + 1) * tick <= time_s:
                if loop.gateway.queued_count == 0:
                    due = batcher.next_flush_due_s()
                    if due is None or due > time_s:
                        index = last_index_at(time_s)
                        return
                    if due > (index + 1) * tick:
                        index = max(index, last_index_at(due) - 1)
                run_tick()

        for request in ordered:
            if (index + 1) * tick <= request.arrival_s:
                advance_to(request.arrival_s)
            decision = _offer(loop.gateway, request)
            _record_offered(loop.tracker, request.tenant, decision.admitted)
            if self.trace:
                self.trace_admission(request, decision)
        end = ordered[-1].arrival_s if ordered else 0.0
        advance_to(end)
        for admitted in _drain(loop.gateway):
            flushed.extend(self.admit_to_batcher(admitted, end))
        advance_to(end + batcher.policy.max_delay_s + tick)
        flushed.extend(batcher.flush_all(max(index * tick, end)))
        return flushed

    def trace_admission(self, request, decision) -> None:
        tracer = self.loop.tracer
        root = tracer.start_span(
            "request", request.arrival_s, request.request_id, tenant=request.tenant
        )
        if decision.admitted:
            self.request_roots[request.request_id] = root
            self.gateway_spans[request.request_id] = tracer.start_span(
                "request.gateway", request.arrival_s, request.request_id, parent=root
            )
        else:
            root.annotate("terminal", True)
            root.end(request.arrival_s, verdict=decision.value)

    def admit_to_batcher(self, admitted, now: float) -> List[_Batch]:
        if self.trace:
            gate = self.gateway_spans.pop(admitted.request_id, None)
            if gate is not None:
                gate.end(now)
            self.batch_wait_spans[admitted.request_id] = self.loop.tracer.start_span(
                "request.batch_wait",
                now,
                admitted.request_id,
                parent=self.request_roots.get(admitted.request_id),
            )
        return self.batcher.add(admitted, now)

    def trace_flushes(self, batches) -> None:
        for batch in batches:
            for member in batch.requests:
                span = self.batch_wait_spans.pop(member.request_id, None)
                if span is not None:
                    span.end(batch.flushed_s, batch_id=batch.batch_id)

    def to_task_requests(self, batches) -> List[TaskRequest]:
        tasks: List[TaskRequest] = []
        for batch in batches:
            tenant = self.loop.gateway.tenant(batch.requests[0].tenant)
            tasks.append(batch.to_task_request(batch.flushed_s, tenant.energy_weight))
        tasks.sort(key=lambda t: (t.arrival_s, t.task_id))
        return tasks

    def run(self, requests: Sequence[ServingRequest]) -> ServingReport:
        loop = self.loop
        cache = getattr(loop.scheduler, "score_cache", None)
        cache_baseline = CacheStats(**vars(cache.stats)) if cache is not None else None
        for tenant in loop.gateway.tenants:
            loop.tracker.set_latency_slo(tenant.name, tenant.latency_slo_s)
        batches = self.flushed = self.ingest(requests)
        if self.trace:
            self.trace_flushes(batches)
        by_task_id = {batch.batch_id: batch for batch in batches}
        tasks = self.to_task_requests(batches)
        simulator = ClusterSimulator(
            loop.cluster, loop.scheduler, tracer=loop.tracer if self.trace else None
        )
        simulation = simulator.run(tasks)
        arrivals_end = max((r.arrival_s for r in requests), default=0.0)
        horizon = max(arrivals_end, simulation.makespan_s)
        return self.rollup(simulation, by_task_id, batches, horizon, cache, cache_baseline)

    def rollup(self, simulation, by_task_id, batches, horizon, cache, cache_baseline):
        loop = self.loop
        latencies: List[float] = []
        completions: List[float] = []
        completed_requests = 0
        for task in simulation.completed:
            batch = by_task_id[task.task_id]
            finish_s = task.finish_s
            energy_per_member = task.energy_j / batch.size
            for member in batch.requests:
                latency = finish_s - member.arrival_s
                if latency < 0.0:
                    latency = 0.0
                deadline_met = (
                    finish_s <= member.deadline_s if member.deadline_s is not None else None
                )
                _record_completion(
                    loop.tracker, member.tenant, latency, energy_per_member, deadline_met
                )
                if self.trace:
                    root = self.request_roots.pop(member.request_id, None)
                    if root is not None:
                        root.annotate("terminal", True)
                        root.end(
                            task.finish_s,
                            verdict="completed",
                            task_id=task.task_id,
                            deadline_met=deadline_met,
                        )
                latencies.append(latency)
                completions.append(finish_s)
                completed_requests += 1
        dropped = 0
        for task_id in simulation.unplaced:
            batch = by_task_id[task_id]
            loop.tracker.record_dropped(batch.requests[0].tenant, batch.size)
            dropped += batch.size
            if self.trace:
                for member in batch.requests:
                    root = self.request_roots.pop(member.request_id, None)
                    if root is not None:
                        root.annotate("terminal", True)
                        root.end(max(horizon, root.start_s), verdict="dropped", task_id=task_id)
        tenant_reports = loop.tracker.reports(horizon)
        if cache is not None:
            cache_stats = CacheStats(
                hits=cache.stats.hits - cache_baseline.hits,
                misses=cache.stats.misses - cache_baseline.misses,
                evictions=cache.stats.evictions - cache_baseline.evictions,
            )
        else:
            cache_stats = None
        return ServingReport(
            tenant_reports=tenant_reports,
            simulation=simulation,
            horizon_s=horizon,
            batches=len(batches),
            offered=sum(r.offered for r in tenant_reports.values()),
            admitted=sum(r.admitted for r in tenant_reports.values()),
            completed=completed_requests,
            dropped=dropped,
            latencies_s=latencies,
            completions_s=completions,
            cache_stats=cache_stats,
            trace_spans=loop.tracer.drain() if self.trace else None,
        )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _loop(
    tenants, policy: BatchPolicy, tick: float, traced: bool
) -> Tuple[ServingLoop, MetricsRegistry, list]:
    """A fresh loop that records the batches its ingest hands back, in order."""
    metrics = MetricsRegistry()
    loop = ServingLoop(
        Cluster.heats_testbed(scale=1),
        HeatsScheduler(MODELS),
        RequestGateway(tenants),
        batch_policy=policy,
        tracker=SlaTracker(),
        flush_tick_s=tick,
        metrics=metrics,
        tracer=Tracer() if traced else None,
    )
    seen: list = []
    ingest = loop._ingest

    def recording(requests):
        out = ingest(requests)
        seen.extend(out)
        return out

    loop._ingest = recording
    return loop, metrics, seen


def _batches(seen) -> list:
    return [
        (b.batch_id, b.key, [m.request_id for m in b.requests], b.opened_s, b.flushed_s)
        for b in seen
    ]


def _batcher_metrics(metrics: MetricsRegistry) -> tuple:
    """The batcher's instruments, the batch-size samples in flush order."""
    sizes = metrics.histogram("batcher.batch_size")
    return (
        metrics.counter("batcher.flushes").value,
        sizes.count,
        sizes.total,
        sizes.window_values(),
    )


def _gateway_state(gateway: RequestGateway) -> dict:
    return {
        name: (
            vars(stats),
            # hex: bit for bit, so 0.0 and -0.0 differ
            gateway._buckets[name]._tokens.hex(),
            gateway._buckets[name]._last_refill_s.hex(),
            gateway.queue_depth(name),
        )
        for name, stats in gateway.all_stats().items()
    }


def _tracker_state(tracker: SlaTracker) -> dict:
    """Every accumulator field, the latency runs as one list of floats."""
    return {
        name: {
            **vars(acc),
            "latencies_s": [float(x) for run in acc.latencies_s for x in run],
        }
        for name, acc in tracker._tenants.items()
    }


def _spans(spans: Optional[List[Span]]) -> Optional[list]:
    if spans is None:
        return None
    names = {span.span_id: span.name for span in spans}
    return [
        (
            span.name,
            span.trace_id,
            span.start_s,
            span.end_s,
            names.get(span.parent_id),
            sorted((k, repr(v)) for k, v in span.annotations.items()),
        )
        for span in spans
    ]


def _assert_same_run(
    tenants, requests, policy: BatchPolicy, tick: float, traced: bool
) -> ServingReport:
    fast_loop, fast_metrics, fast_seen = _loop(tenants, policy, tick, traced)
    slow_loop, slow_metrics, _ = _loop(tenants, policy, tick, traced)
    reference = _Reference(slow_loop, slow_metrics)
    fast = fast_loop.run(requests)
    slow = reference.run(requests)

    assert _batches(fast_seen) == _batches(reference.flushed)
    assert _batcher_metrics(fast_metrics) == _batcher_metrics(slow_metrics)
    assert _gateway_state(fast_loop.gateway) == _gateway_state(slow_loop.gateway)
    assert _tracker_state(fast_loop.tracker) == _tracker_state(slow_loop.tracker)
    # Dataclass equality compares every field, energy_j with ``==``.
    assert fast.tenant_reports == slow.tenant_reports
    assert [type(x) for x in fast.latencies_s] == [float] * len(fast.latencies_s)
    assert [type(x) for x in fast.completions_s] == [float] * len(fast.completions_s)
    assert fast.latencies_s == slow.latencies_s
    assert fast.completions_s == slow.completions_s
    for field in ("horizon_s", "batches", "offered", "admitted", "completed", "dropped"):
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast.summary() == slow.summary()
    assert _spans(fast.trace_spans) == _spans(slow.trace_spans)
    return fast


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------

#: 0.1 and 0.3 are not exactly representable; 0.25 and 1.0 are.
TICKS = (0.1, 0.3, 0.25, 0.5, 1.0)


@st.composite
def cases(draw):
    """Tenants, a request stream, a batch policy and a flush tick."""
    tenants = [
        Tenant(
            name=f"t{index}",
            # burst / rate * rate is not burst for 0.7 and 3: a full
            # refill must still land exactly on the bucket's own floats.
            rate_limit_rps=draw(st.sampled_from([0.5, 0.7, 2.0, 6.0, 40.0])),
            burst=draw(st.sampled_from([1, 1, 2, 3, 4, 16])),
            max_queue_depth=draw(st.integers(min_value=1, max_value=6)),
            energy_weight=draw(st.sampled_from([0.0, 0.3, 1.0])),
            latency_slo_s=draw(st.sampled_from([None, 1.0, 30.0])),
        )
        for index in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    count = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    grid = draw(st.booleans())  # arrivals on a coarse grid: ties and tick hits
    deadline_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    ghost_share = draw(st.sampled_from([0.0, 0.1]))
    policy = BatchPolicy(
        max_batch_size=draw(st.integers(min_value=1, max_value=6)),
        max_delay_s=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])),
        # 0.2 / 0.1 is 2.0 but 0.3 / 0.1 is 2.9999999999999996: both land
        # in bucket 2, and 0.5, 1.0 and 1.5 sit exactly on 0.5 boundaries.
        memory_bucket_gib=draw(st.sampled_from([0.1, 0.5, 4.0])),
        deadline_margin_s=draw(st.sampled_from([0.0, 0.5])),
    )
    tick = draw(st.sampled_from(TICKS))

    rng = np.random.default_rng(seed)
    if grid:
        # k * 0.1 and k / 10 differ in the last bit; for some k one of
        # them sits on the other side of a tick than ``int(a / tick)`` says.
        tenths = rng.integers(0, 40, count)
        arrivals = np.where(rng.random(count) < 0.5, tenths * 0.1, tenths / 10.0)
    else:
        arrivals = rng.uniform(0.0, draw(st.sampled_from([6.0, 15.0])), count)
    ids = rng.permutation(count)  # tied arrivals get out-of-order ids
    names = [tenant.name for tenant in tenants]
    requests = []
    for index in range(count):
        arrival = float(arrivals[index])
        tenant = GHOST if rng.random() < ghost_share else names[rng.integers(len(names))]
        deadline = (
            arrival + float(rng.choice([0.2, 0.6, 1.5, 4.0]))
            if rng.random() < deadline_share
            else None
        )
        requests.append(
            ServingRequest(
                request_id=f"q{ids[index]:03d}",
                tenant=tenant,
                use_case=f"uc{rng.integers(3)}",
                arrival_s=arrival,
                workload=KINDS[rng.integers(3)],
                gops=float(rng.uniform(1.0, 30.0)),
                cores=int(rng.choice([1, 2])),
                # 512 GiB fits no testbed node: that batch is dropped.
                memory_gib=float(
                    rng.choice(
                        [0.2, 0.3, 0.5, 1.0, 1.5, 3.0, 512.0],
                        p=[0.15, 0.15, 0.2, 0.2, 0.1, 0.15, 0.05],
                    )
                ),
                deadline_s=deadline,
            )
        )
    return tenants, requests, policy, tick


#: an empty stream, and a one-tick burst into a queue of depth 2.
EMPTY = ([Tenant(name="t0")], [], BatchPolicy(), 0.1)
BURST = (
    [Tenant(name="t0", rate_limit_rps=40.0, burst=8, max_queue_depth=2)],
    [
        ServingRequest(f"b{i}", "t0", "uc", 0.31, WorkloadKind.SCALAR, 2.0, 1, 0.5)
        for i in (4, 1, 3, 0, 2)
    ],
    BatchPolicy(max_batch_size=3),
    0.3,
)


#: 1.7 / 0.1 rounds up to 17, but 17 * 0.1 > 1.7: the walk is still in
#: tick bin 16, so 1.7 finds the depth-1 queue full.  4.3 / 0.1 rounds
#: down to 42, but 43 * 0.1 == 4.3: 4.3 opens bin 43 and is admitted.
TICK_EDGE = (
    [Tenant(name="t0", rate_limit_rps=40.0, burst=8, max_queue_depth=1)],
    [
        ServingRequest(f"e{i}", "t0", "uc", arrival, WorkloadKind.SCALAR, 2.0, 1, 0.5)
        for i, arrival in enumerate((1.65, 1.7, 4.25, 4.3))
    ],
    BatchPolicy(),
    0.1,
)
#: a drained bucket idle for longer than burst / rate refills to
#: (3 / 0.7) * 0.7 tokens, one ulp short of the burst of 3.
IDLE_REFILL = (
    [Tenant(name="t0", rate_limit_rps=0.7, burst=3)],
    [
        ServingRequest(f"i{i}", "t0", "uc", arrival, WorkloadKind.SCALAR, 2.0, 1, 0.5)
        for i, arrival in enumerate((0.0, 0.0, 0.0, 10.0))
    ],
    BatchPolicy(),
    0.5,
)

#: 0.0 and -0.0 tie; replayed in id order, the bucket's clock ends on -0.0.
SIGNED_ZERO = (
    [Tenant(name="t0")],
    [
        ServingRequest(request_id, "t0", "uc", arrival, WorkloadKind.SCALAR, 2.0, 1, 0.5)
        for request_id, arrival in (("b", -0.0), ("a", 0.0))
    ],
    BatchPolicy(),
    0.5,
)

#: 40 tenants, traffic on every third one (interleaved, with queue-full
#: bursts), plus two distinct unregistered names.
MANY_TENANTS = (
    [
        Tenant(
            name=f"m{i:02d}",
            rate_limit_rps=(40.0, 3.0)[i % 2],
            burst=(8, 2)[i % 2],
            max_queue_depth=1 + i % 4 // 2,
        )
        for i in range(40)
    ],
    [
        ServingRequest(
            f"m{i:03d}",
            ("nobody", GHOST)[i % 2] if i % 17 == 0 else f"m{3 * (i % 13):02d}",
            "uc",
            0.05 * (i // 4),
            WorkloadKind.SCALAR,
            2.0,
            1,
            0.5,
        )
        for i in range(120)
    ],
    BatchPolicy(max_batch_size=4),
    0.3,
)




def _req(request_id, arrival, use_case="uc", deadline=None, memory=0.5, tenant="t0"):
    return ServingRequest(
        request_id, tenant, use_case, arrival, WorkloadKind.SCALAR, 2.0, 1, memory, deadline
    )


#: a fast tenant whose bucket and queue never reject (the batcher is under test).
OPEN_DOOR = Tenant(name="t0", rate_limit_rps=1000.0, burst=64, max_queue_depth=64)

#: every request is its own batch and flushes at its own add.
SIZE_ONE = (
    [OPEN_DOOR],
    [_req(f"s{i}", 0.07 * i, use_case=f"uc{i % 2}") for i in range(9)],
    BatchPolicy(max_batch_size=1),
    0.1,
)
#: with no delay every batch flushes on the tick it opened, after that
#: tick's whole drain; the last bin's batches open at the last arrival.
ZERO_DELAY = (
    [OPEN_DOOR, Tenant(name="t1", rate_limit_rps=1000.0, burst=64, max_queue_depth=64)],
    [_req(f"z{i}", 0.15 * (i // 3), use_case=f"uc{i % 2}", tenant=f"t{i % 2}") for i in range(12)],
    BatchPolicy(max_batch_size=4, max_delay_s=0.0),
    0.3,
)
#: on the 1.0 s tick key "cap" fills (size-cap flush during the drain) and
#: key "late" reaches its deadline margin (flush_ready after the drain):
#: "late" opened first, so flush order and id order disagree.
CAP_AND_DEADLINE = (
    [OPEN_DOOR],
    [
        _req("d0", 0.1, use_case="late", deadline=1.4),
        _req("c0", 0.2, use_case="cap"),
        _req("x0", 0.3, use_case="idle"),
        _req("c1", 0.7, use_case="cap"),
        _req("c2", 2.2, use_case="cap"),
    ],
    BatchPolicy(max_batch_size=2, max_delay_s=10.0, deadline_margin_s=0.5),
    0.5,
)
#: memory on and next to bucket boundaries, three keys from one endpoint.
BUCKET_EDGES = (
    [OPEN_DOOR],
    [_req(f"m{i}", 0.05 * i, memory=memory) for i, memory in enumerate(
        (0.2, 0.3, 0.30000000000000004, 0.4, 0.5, 0.2, 0.3, 0.4, 0.1, 0.2)
    )],
    BatchPolicy(max_batch_size=3, memory_bucket_gib=0.1),
    0.25,
)
#: four keys on one tenant, and a last tick bin holding several
#: admissions (drained at the last arrival, 1.9, not on a tick).
LAST_BIN = (
    [OPEN_DOOR],
    [_req(f"l{i}", 0.1 + 0.25 * i, use_case=f"early{i % 2}") for i in range(5)]
    + [_req(f"n{i}", 1.9, use_case=f"uc{i % 4}", deadline=2.5 + i) for i in range(7)],
    BatchPolicy(max_batch_size=3, max_delay_s=1.0, deadline_margin_s=0.5),
    0.5,
)
#: twelve batches flushing at one instant: the tasks run in
#: (arrival, task id) order, so "batch-10-..." runs before "batch-2-...".
SAME_INSTANT = (
    [OPEN_DOOR],
    [_req(f"u{i:02d}", 0.01 * i, use_case=f"uc{i}") for i in range(12)],
    BatchPolicy(max_delay_s=1.0),
    0.5,
)
BATCHING_EDGES = (SIZE_ONE, ZERO_DELAY, CAP_AND_DEADLINE, BUCKET_EDGES, LAST_BIN, SAME_INSTANT)


@settings(max_examples=200, deadline=None)
@given(cases())
@example(EMPTY)
@example(BURST)
@example(TICK_EDGE)
@example(IDLE_REFILL)
@example(SIGNED_ZERO)
@example(MANY_TENANTS)
@example(SIZE_ONE)
@example(ZERO_DELAY)
@example(CAP_AND_DEADLINE)
@example(BUCKET_EDGES)
@example(LAST_BIN)
@example(SAME_INSTANT)
def test_columnar_front_half_matches_the_reference(case):
    tenants, requests, policy, tick = case
    _assert_same_run(tenants, requests, policy, tick, traced=False)


@settings(max_examples=60, deadline=None)
@given(cases())
@example(EMPTY)
@example(BURST)
@example(MANY_TENANTS)
@example(CAP_AND_DEADLINE)
@example(LAST_BIN)
def test_traced_front_half_matches_the_reference_span_for_span(case):
    tenants, requests, policy, tick = case
    _assert_same_run(tenants, requests, policy, tick, traced=True)


def test_the_generated_cases_reach_every_admission_outcome():
    """The burst example really overflows its queue, and ghosts are rejected."""
    tenants, requests, policy, tick = BURST
    requests = requests + [
        ServingRequest("g0", GHOST, "uc", 0.32, WorkloadKind.SCALAR, 2.0, 1, 0.5)
    ]
    report = _assert_same_run(tenants, requests, policy, tick, traced=False)
    assert report.offered == 6 and report.admitted == 2
    loop, _, _ = _loop(tenants, policy, tick, traced=False)
    loop.run(requests)
    stats = loop.gateway.stats("t0")
    assert (stats.offered, stats.admitted, stats.rejected_queue_full) == (5, 2, 3)


def _reference_batches(case) -> list:
    tenants, requests, policy, tick = case
    loop, _, _ = _loop(tenants, policy, tick, traced=False)
    reference = _Reference(loop)
    reference.run(requests)
    return reference.flushed


def test_the_batching_edge_cases_reach_what_they_name():
    for case in BATCHING_EDGES:
        assert _assert_same_run(*case, traced=False).admitted == len(case[1])
    assert {b.size for b in _reference_batches(SIZE_ONE)} == {1}
    zero = _reference_batches(ZERO_DELAY)
    assert all(b.flushed_s == b.opened_s for b in zero[:-2])
    assert {b.opened_s for b in zero[-2:]} == {ZERO_DELAY[1][-1].arrival_s}
    cap, late = _reference_batches(CAP_AND_DEADLINE)[:2]
    assert (cap.key[1], cap.size, late.key[1]) == ("cap", 2, "late")
    assert cap.flushed_s == late.flushed_s == 1.0
    assert late.batch_id.startswith("batch-0-") and cap.batch_id.startswith("batch-1-")
    assert [m.request_id for m in _reference_batches(BUCKET_EDGES)[0].requests] == [
        "m0", "m1", "m5"
    ]
    last = [b for b in _reference_batches(LAST_BIN) if b.opened_s == 1.9]
    assert len(last) == 4 and sum(b.size for b in last) == 7
    tied = _reference_batches(SAME_INSTANT)
    assert len({b.flushed_s for b in tied}) == 1 and len(tied) == 12
    loop, _, _ = _loop(*SAME_INSTANT[:1], SAME_INSTANT[2], SAME_INSTANT[3], traced=False)
    order = [t.task_id for t in _Reference(loop).to_task_requests(tied)]
    assert order.index("batch-10-t0-uc10") < order.index("batch-2-t0-uc2")


# ----------------------------------------------------------------------
# Unknown tenants: offered and rejected in the tracker, never in the gateway
# ----------------------------------------------------------------------


def _ghost_stream() -> List[ServingRequest]:
    return [
        ServingRequest(f"r{i}", GHOST if i % 3 == 0 else "t0", "uc", 0.4 * i,
                       WorkloadKind.SCALAR, 3.0, 1, 0.5)
        for i in range(9)
    ]


def _check_ghost_conservation(loop: ServingLoop, report: ServingReport) -> None:
    ghost = report.tenant_reports[GHOST]
    assert (ghost.offered, ghost.admitted, ghost.rejected) == (3, 0, 3)
    assert report.offered == 9
    assert report.rejected == 3 + report.tenant_reports["t0"].rejected
    assert set(loop.gateway.all_stats()) == {"t0"}
    assert loop.gateway.stats("t0").offered == 6


def test_unknown_tenant_conservation_on_the_columnar_path():
    loop, _, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
    _check_ghost_conservation(loop, loop.run(_ghost_stream()))


def test_unknown_tenant_conservation_on_the_reference_path():
    loop, _, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
    _check_ghost_conservation(loop, _Reference(loop).run(_ghost_stream()))


def test_arrivals_beyond_the_exact_tick_grid_fail_loudly():
    """Tick bins are int64; past 2**53 ticks the grid is no longer exact."""
    loop, _, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
    far = ServingRequest("r0", "t0", "uc", 1e300, WorkloadKind.SCALAR, 3.0, 1, 0.5)
    with pytest.raises(ValueError, match="flush-tick grid"):
        loop.run([far])


# ----------------------------------------------------------------------
# Golden: a warm-sweep-shaped deployment, pinned across commits
# ----------------------------------------------------------------------

#: sha256 over two warm serve calls' summaries, latencies and completions.
WARM_SWEEP_GOLDEN = "99521bbd44d6287210b500b59728a9e52132c4cb5532f6f50d2d326409acd250"


def _warm_sweep_workloads(calls: int, seed: int) -> List[ServingWorkload]:
    """Two tenants offered six times what their token buckets admit."""
    tenants = (
        Tenant(name="sweep-a", rate_limit_rps=20.0, burst=20, energy_weight=0.4),
        Tenant(name="sweep-b", rate_limit_rps=20.0, burst=20, energy_weight=0.8),
    )
    shapes = [endpoint(name) for name in ("ml_inference", "smartmirror", "iot_gateway")]
    weights = np.array([0.6, 0.25, 0.15])
    rng = np.random.default_rng(seed)
    workloads = []
    for call in range(calls):
        requests = []
        for tenant in tenants:
            count = int(rng.poisson(60.0 * 10.0))
            arrivals = np.sort(rng.uniform(0.0, 10.0, count))
            picks = rng.choice(len(shapes), size=count, p=weights)
            for index, (arrival, pick) in enumerate(zip(arrivals, picks)):
                shape = shapes[pick]
                requests.append(
                    ServingRequest(
                        request_id=f"c{call}-{tenant.name}-{index:06d}",
                        tenant=tenant.name,
                        use_case=shape.name,
                        arrival_s=float(arrival),
                        workload=shape.workload,
                        gops=shape.gops_per_request,
                        cores=shape.cores,
                        memory_gib=shape.memory_gib,
                        deadline_s=float(arrival) + shape.default_deadline_s,
                    )
                )
        requests.sort(key=lambda r: (r.arrival_s, r.request_id))
        workloads.append(ServingWorkload(tenants, requests))
    return workloads


def test_warm_sweep_reports_match_the_golden():
    deployment = Deployment.from_spec(
        DeploymentSpec(name="warm_sweep", topology=TopologySpec(cluster_scale=4))
    )
    digest = hashlib.sha256()
    for workload in _warm_sweep_workloads(calls=2, seed=1):
        report = deployment.serve(workload)
        digest.update(json.dumps(report.summary(), sort_keys=True, default=str).encode())
        digest.update(np.asarray(report.latencies_s, dtype=float).tobytes())
        digest.update(np.asarray(report.completions_s, dtype=float).tobytes())
    assert digest.hexdigest() == WARM_SWEEP_GOLDEN

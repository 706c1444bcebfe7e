"""``ServingLoop.run`` against a slow, per-request reference oracle.

The serving loop builds columns from the request stream, decides every
admission in one pass per tenant and gathers the rollup per task.  The
reference below is the per-object front half it replaced, kept verbatim:
one offer and one tracker entry per request, the tick walk draining the
gateway queues, and one tracker entry per completed member.  Since
``RequestGateway.offer``/``drain`` and ``SlaTracker.record_offered``/
``record_completion`` are now thin calls into the bulk implementations
under test, the reference carries their per-object bodies too (offer
through ``TokenBucket.try_consume``), acting on the same gateway and
tracker state.  It shares the batcher and simulator with the library, but
none of the admission, drain, tracker-entry, ingest or rollup code.

Four guards:

* hypothesis properties asserting the two agree exactly -- batches (ids,
  members, flush instants), gateway stats and token-bucket state, tracker
  reports, per-member latencies and completions, and (traced) the span
  sequence -- on arbitrary tenant sets, bursts that overflow the queues,
  ``burst=1`` buckets, tied arrivals with out-of-order ids, ticks binary
  floating point cannot represent, deadline-driven flushes, unknown
  tenants and empty streams;
* a pinned unknown-tenant conservation case on both paths;
* a loud failure for arrivals past the exact range of the tick grid;
* a sha256 golden of one warm-sweep-shaped deployment's reports, which
  catches a change *between* commits (the properties above only compare
  the code against the reference).
"""

from __future__ import annotations

import hashlib
import json
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
from repro.serving.batching import Batch, BatchPolicy
from repro.serving.cache import CacheStats
from repro.serving.endpoints import endpoint
from repro.serving.gateway import AdmissionDecision, RequestGateway, ServingRequest, Tenant
from repro.serving.loop import ServingLoop, ServingReport, ServingWorkload
from repro.serving.sla import SlaTracker
from repro.telemetry import Tracer
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
    acc.latencies_s.append(latency_s)
    acc.energy_j += energy_j
    if deadline_met is True:
        acc.deadline_hits += 1
    elif deadline_met is False:
        acc.deadline_misses += 1


class _Reference:
    """Today's per-request ``_ingest`` / ``_rollup`` over a loop's parts."""

    def __init__(self, loop: ServingLoop) -> None:
        self.loop = loop
        self.trace = loop.tracer is not None and loop.tracer.enabled
        self.request_roots: Dict[str, Span] = {}
        self.gateway_spans: Dict[str, Span] = {}
        self.batch_wait_spans: Dict[str, Span] = {}

    def ingest(self, requests: Sequence[ServingRequest]) -> List[Batch]:
        loop = self.loop
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        flushed: List[Batch] = []
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
            flushed.extend(loop.batcher.flush_ready(now))

        def advance_to(time_s: float) -> None:
            nonlocal index
            while (index + 1) * tick <= time_s:
                if loop.gateway.queued_count == 0:
                    due = loop.batcher.next_flush_due_s()
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
        advance_to(end + loop.batcher.policy.max_delay_s + tick)
        flushed.extend(loop.batcher.flush_all(max(index * tick, end)))
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

    def admit_to_batcher(self, admitted, now: float) -> List[Batch]:
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
        return self.loop.batcher.add(admitted, now)

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
        batches = self.ingest(requests)
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


def _loop(tenants, policy: BatchPolicy, tick: float, traced: bool) -> Tuple[ServingLoop, list]:
    """A fresh loop whose batcher records every batch it hands back."""
    loop = ServingLoop(
        Cluster.heats_testbed(scale=1),
        HeatsScheduler(MODELS),
        RequestGateway(tenants),
        batch_policy=policy,
        tracker=SlaTracker(),
        flush_tick_s=tick,
        tracer=Tracer() if traced else None,
    )
    seen: list = []
    batcher = loop.batcher
    for name in ("add", "flush_ready", "flush_all"):
        method = getattr(batcher, name)

        def recording(*args, _method=method, **kwargs):
            out = _method(*args, **kwargs)
            seen.extend(out)
            return out

        setattr(batcher, name, recording)
    return loop, seen


def _batches(seen) -> list:
    return [
        (b.batch_id, b.key, [m.request_id for m in b.requests], b.opened_s, b.flushed_s)
        for b in seen
    ]


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
    return {name: vars(acc) for name, acc in tracker._tenants.items()}


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
    fast_loop, fast_seen = _loop(tenants, policy, tick, traced)
    slow_loop, slow_seen = _loop(tenants, policy, tick, traced)
    fast = fast_loop.run(requests)
    slow = _Reference(slow_loop).run(requests)

    assert _batches(fast_seen) == _batches(slow_seen)
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
        memory_bucket_gib=draw(st.sampled_from([0.5, 4.0])),
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
                use_case=f"uc{rng.integers(2)}",
                arrival_s=arrival,
                workload=KINDS[rng.integers(3)],
                gops=float(rng.uniform(1.0, 30.0)),
                cores=int(rng.choice([1, 2])),
                # 512 GiB fits no testbed node: that batch is dropped.
                memory_gib=float(rng.choice([0.5, 1.0, 3.0, 512.0], p=[0.4, 0.3, 0.25, 0.05])),
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


@settings(max_examples=200, deadline=None)
@given(cases())
@example(EMPTY)
@example(BURST)
@example(TICK_EDGE)
@example(IDLE_REFILL)
@example(SIGNED_ZERO)
@example(MANY_TENANTS)
def test_columnar_front_half_matches_the_reference(case):
    tenants, requests, policy, tick = case
    _assert_same_run(tenants, requests, policy, tick, traced=False)


@settings(max_examples=60, deadline=None)
@given(cases())
@example(EMPTY)
@example(BURST)
@example(MANY_TENANTS)
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
    loop, _ = _loop(tenants, policy, tick, traced=False)
    loop.run(requests)
    stats = loop.gateway.stats("t0")
    assert (stats.offered, stats.admitted, stats.rejected_queue_full) == (5, 2, 3)


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
    loop, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
    _check_ghost_conservation(loop, loop.run(_ghost_stream()))


def test_unknown_tenant_conservation_on_the_reference_path():
    loop, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
    _check_ghost_conservation(loop, _Reference(loop).run(_ghost_stream()))


def test_arrivals_beyond_the_exact_tick_grid_fail_loudly():
    """Tick bins are int64; past 2**53 ticks the grid is no longer exact."""
    loop, _ = _loop([Tenant(name="t0")], BatchPolicy(), 0.5, traced=False)
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

"""Monotone-clock regressions for the serving ingest path.

The batching timeline must never run backwards: a batch may not flush at
an instant earlier than any of its members was added, even when arrivals
land mid-tick (between two grid points of the flush cadence) and the
end-of-stream drain stamps them at the raw arrival instant rather than a
grid tick.  The batcher enforces the invariant structurally, and the
columnar ingest (one batching pass) must flush exactly as an exhaustive
tick-by-tick scan through ``Batcher.add``/``flush_ready``/``flush_all``
does -- pinned here against a reference scan implemented in the test.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster
from repro.serving.batching import Batch, Batcher, BatchPolicy
from repro.serving.gateway import RequestGateway, ServingRequest, Tenant
from repro.serving.loop import ServingLoop


class NullScheduler:
    name = "null"
    supports_rescheduling = False

    def place(self, request, cluster, time_s):
        return None

    def reschedule(self, running, cluster, time_s):
        return []


class RecordingBatcher(Batcher):
    """Batcher that logs every clock instant its batching pass covers.

    The pass stands for a timeline: the rows before flush check ``k`` are
    added, then check ``k`` runs at ``k * tick``; the end-of-stream flush
    comes last.  The log lists those instants in that order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.observed: List[Tuple[str, float]] = []

    def _batch(self, rows, adds_s, positions, tick=1.0, last=0, final_s=None, sequence=None):
        timeline = sorted(
            [(int(position), 0, float(add_s)) for position, add_s in zip(positions, adds_s)]
            + [(check, 1, check * tick) for check in range(1, last + 1)]
        )
        self.observed.extend(
            ("flush_ready" if kind else "add", instant) for _, kind, instant in timeline
        )
        if final_s is not None:
            self.observed.append(("flush_all", final_s))
        return super()._batch(rows, adds_s, positions, tick, last, final_s, sequence)


def make_request(request_id: str, arrival_s: float, deadline_s=None, tenant="t"):
    return ServingRequest(
        request_id=request_id,
        tenant=tenant,
        use_case="unit",
        arrival_s=arrival_s,
        workload=WorkloadKind.SCALAR,
        gops=1.0,
        cores=1,
        memory_gib=0.5,
        deadline_s=deadline_s,
    )


def build_loop(flush_tick_s: float = 0.5, policy=None):
    gateway = RequestGateway([Tenant(name="t", rate_limit_rps=100.0, burst=64)])
    loop = ServingLoop(
        Cluster.from_models({"apalis-arm-soc": 1}),
        NullScheduler(),
        gateway,
        batch_policy=policy,
        flush_tick_s=flush_tick_s,
    )
    recording = RecordingBatcher(loop.batcher.policy)
    loop.batcher = recording
    return loop, recording


def reference_tick_scan(loop: ServingLoop, requests) -> List[Batch]:
    """The retired pre-overhaul scan: every tick on the grid is visited.

    Re-implemented here (against the loop's own gateway/batcher/tracker)
    as the oracle the event-driven walk is checked against; the clock is
    the same integer tick index (``index * tick``), so both agree on the
    grid bit-for-bit.
    """
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    flushed: List[Batch] = []
    tick = loop.flush_tick_s
    index = 0

    def advance_to(time_s: float) -> None:
        nonlocal index
        while (index + 1) * tick <= time_s:
            index += 1
            now = index * tick
            for admitted in loop.gateway.drain():
                flushed.extend(loop.batcher.add(admitted, now))
            flushed.extend(loop.batcher.flush_ready(now))

    for request in ordered:
        advance_to(request.arrival_s)
        decision = loop.gateway.offer(request)
        loop.tracker.record_offered(request.tenant, decision.admitted)
    end = ordered[-1].arrival_s if ordered else 0.0
    advance_to(end)
    for admitted in loop.gateway.drain():
        flushed.extend(loop.batcher.add(admitted, end))
    advance_to(end + loop.batcher.policy.max_delay_s + tick)
    flushed.extend(loop.batcher.flush_all(max(index * tick, end)))
    return flushed


MID_TICK_ARRIVALS = [0.2, 0.74, 0.74, 1.9, 2.26, 2.26, 5.13]


class TestMonotoneIngest:
    def test_mid_tick_arrivals_keep_the_batcher_clock_monotone(self):
        loop, recording = build_loop()
        requests = [
            make_request(f"r{index}", arrival)
            for index, arrival in enumerate(MID_TICK_ARRIVALS)
        ]
        batches = loop._ingest(requests)
        times = [instant for _, instant in recording.observed]
        assert len(times) > len(requests)
        assert times == sorted(times)
        # Every member was admitted and flushed, none behind its add time.
        assert sum(batch.size for batch in batches) == len(requests)
        for batch in batches:
            for member in batch.requests:
                assert batch.flushed_s >= member.arrival_s

    def test_deadline_flushes_stay_monotone_with_mid_tick_arrivals(self):
        loop, recording = build_loop(
            policy=BatchPolicy(max_batch_size=16, max_delay_s=4.0,
                               deadline_margin_s=0.5),
        )
        requests = [
            make_request("a", 0.3, deadline_s=2.1),
            make_request("b", 0.85, deadline_s=6.0),
            make_request("c", 3.33),
        ]
        batches = loop._ingest(requests)
        times = [instant for _, instant in recording.observed]
        assert times == sorted(times)
        assert sum(batch.size for batch in batches) == len(requests)
        for batch in batches:
            for member in batch.requests:
                assert batch.flushed_s >= member.arrival_s


def test_event_driven_ingest_matches_the_reference_tick_scan_exactly():
    """Skipping quiet ticks must not move any flush: same batches, same
    membership, same flush instants as the exhaustive reference scan."""
    requests = [
        make_request(f"r{index}", arrival)
        for index, arrival in enumerate(MID_TICK_ARRIVALS)
    ] + [make_request("late", 14.05, deadline_s=17.0)]
    fast_loop, _ = build_loop()
    slow_loop, _ = build_loop()
    fast = fast_loop._ingest(requests)
    slow = reference_tick_scan(slow_loop, requests)
    assert [
        (batch.flushed_s, [member.request_id for member in batch.requests])
        for batch in fast
    ] == [
        (batch.flushed_s, [member.request_id for member in batch.requests])
        for batch in slow
    ]


def test_batcher_rejects_a_backwards_clock():
    batcher = Batcher(BatchPolicy())
    batcher.add(make_request("r0", 1.0), now_s=2.0)
    with pytest.raises(ValueError, match="backwards"):
        batcher.flush_ready(1.5)
    with pytest.raises(ValueError, match="backwards"):
        batcher.add(make_request("r1", 1.0), now_s=0.5)

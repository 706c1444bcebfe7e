"""Batcher unit tests: coalescing, size/delay/deadline flushing.

Besides the single-call cases, two properties pin the columnar pass: an
open batch's earliest deadline is a running minimum equal to a rescan of
its members, and one bulk pass over a block of rows (with batches carried
in from earlier adds) equals the timeline of single adds and flush checks
it stands for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.microserver import WorkloadKind
from repro.serving.batching import Batcher, BatchPolicy
from repro.serving.gateway import ServingRequest


def make_request(
    request_id: str,
    tenant: str = "acme",
    use_case: str = "ml_inference",
    arrival_s: float = 0.0,
    gops: float = 3.0,
    cores: int = 2,
    memory_gib: float = 0.5,
    deadline_s=None,
    workload: WorkloadKind = WorkloadKind.DNN_INFERENCE,
) -> ServingRequest:
    return ServingRequest(
        request_id=request_id,
        tenant=tenant,
        use_case=use_case,
        arrival_s=arrival_s,
        workload=workload,
        gops=gops,
        cores=cores,
        memory_gib=memory_gib,
        deadline_s=deadline_s,
    )


def test_compatible_requests_share_a_batch():
    batcher = Batcher(BatchPolicy(max_batch_size=8))
    for i in range(3):
        assert batcher.add(make_request(f"r{i}"), now_s=0.0) == []
    assert len(batcher.open_batches) == 1
    assert batcher.open_batches[0].size == 3


def test_incompatible_requests_get_separate_batches():
    batcher = Batcher(BatchPolicy(max_batch_size=8))
    batcher.add(make_request("r0"), now_s=0.0)
    batcher.add(make_request("r1", tenant="beta"), now_s=0.0)
    batcher.add(make_request("r2", use_case="smartmirror"), now_s=0.0)
    batcher.add(make_request("r3", cores=4), now_s=0.0)
    batcher.add(make_request("r4", memory_gib=3.0), now_s=0.0)
    batcher.add(make_request("r5", workload=WorkloadKind.CRYPTO), now_s=0.0)
    assert len(batcher.open_batches) == 6


def test_size_cap_flushes_immediately():
    batcher = Batcher(BatchPolicy(max_batch_size=2))
    assert batcher.add(make_request("r0"), now_s=0.0) == []
    flushed = batcher.add(make_request("r1"), now_s=0.5)
    assert len(flushed) == 1
    assert flushed[0].size == 2
    assert flushed[0].flushed_s == 0.5
    assert batcher.open_batches == []


def test_stale_batch_flushes_after_max_delay():
    batcher = Batcher(BatchPolicy(max_batch_size=8, max_delay_s=2.0))
    batcher.add(make_request("r0"), now_s=1.0)
    assert batcher.flush_ready(2.5) == []
    flushed = batcher.flush_ready(3.0)
    assert len(flushed) == 1


def test_deadline_forces_early_flush():
    policy = BatchPolicy(max_batch_size=8, max_delay_s=100.0, deadline_margin_s=0.5)
    batcher = Batcher(policy)
    batcher.add(make_request("r0", arrival_s=0.0, deadline_s=5.0), now_s=0.0)
    assert batcher.flush_ready(4.0) == []
    flushed = batcher.flush_ready(4.6)  # within margin of the 5s deadline
    assert len(flushed) == 1


def test_flush_all_drains_everything():
    batcher = Batcher()
    batcher.add(make_request("r0"), now_s=0.0)
    batcher.add(make_request("r1", tenant="beta"), now_s=0.0)
    flushed = batcher.flush_all(9.0)
    assert len(flushed) == 2
    assert all(b.flushed_s == 9.0 for b in flushed)
    assert batcher.open_batches == []


def test_to_task_request_aggregates_members():
    batcher = Batcher(BatchPolicy(max_batch_size=3, memory_bucket_gib=1.0))
    batcher.add(make_request("r0", gops=2.0, memory_gib=0.4, deadline_s=50.0), 0.0)
    batcher.add(make_request("r1", gops=3.0, memory_gib=0.6, deadline_s=20.0), 0.0)
    [batch] = batcher.add(make_request("r2", gops=5.0, memory_gib=0.5), 1.0)
    task = batch.to_task_request(flush_s=1.0, energy_weight=0.8)
    assert task.task_id == batch.batch_id
    assert task.arrival_s == 1.0
    assert task.gops == pytest.approx(10.0)
    assert task.cores == 2
    assert task.memory_gib == pytest.approx(0.6)  # max over members
    assert task.energy_weight == 0.8
    assert task.deadline_s == 20.0  # earliest member deadline


def test_expired_deadline_is_dropped_from_task_not_crashing():
    batcher = Batcher(BatchPolicy(max_batch_size=2))
    batcher.add(make_request("r0", arrival_s=0.0, deadline_s=1.0), 0.0)
    [batch] = batcher.flush_all(5.0)  # flushed after the member deadline passed
    task = batch.to_task_request(flush_s=5.0, energy_weight=0.5)
    assert task.deadline_s is None  # expired deadline cannot precede arrival
    live = batch.to_task_request(flush_s=0.5, energy_weight=0.5)
    assert live.deadline_s == 1.0  # still carried while it is ahead


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch_size=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_delay_s=-1.0)
    with pytest.raises(ValueError):
        BatchPolicy(memory_bucket_gib=0.0)


def _recomputed_deadline(batch):
    deadlines = [r.deadline_s for r in batch.requests if r.deadline_s is not None]
    return min(deadlines) if deadlines else None


def test_earliest_deadline_is_a_running_minimum_that_matches_a_rescan():
    rng = np.random.default_rng(7)
    batcher = Batcher(BatchPolicy(max_batch_size=5, max_delay_s=3.0, deadline_margin_s=0.5))
    now = 0.0
    for index in range(200):
        now += float(rng.choice([0.0, 0.1, 0.7]))
        deadline = now + float(rng.uniform(0.5, 9.0)) if rng.random() < 0.7 else None
        request = make_request(
            f"r{index}", tenant=f"t{index % 3}", arrival_s=now, deadline_s=deadline,
            memory_gib=float(rng.choice([0.5, 1.0])),
        )
        batcher.add(request, now)
        if index % 7 == 0:
            batcher.flush_ready(now)
        for batch in batcher.open_batches:
            assert batch.earliest_deadline_s == _recomputed_deadline(batch)
        due = [
            b.opened_s + 3.0 if b.earliest_deadline_s is None
            else min(b.opened_s + 3.0, b.earliest_deadline_s - 0.5)
            for b in batcher.open_batches
        ]
        assert batcher.next_flush_due_s() == (min(due) if due else None)
    for batch in batcher.flush_all(now + 1.0):
        assert batch.earliest_deadline_s == _recomputed_deadline(batch)


def _replay_one_call_at_a_time(batcher, requests, positions, tick, last, final_s):
    """The per-call timeline the bulk pass stands for: adds, then each check."""
    flushed = []
    pending = sorted(range(len(requests)), key=lambda row: positions[row])
    for check in range(1, last + 2):
        while pending and positions[pending[0]] == check:
            row = pending.pop(0)
            flushed.extend(batcher.add(requests[row], adds_s_of(row, positions, tick, final_s)))
        if check <= last:
            flushed.extend(batcher.flush_ready(check * tick))
    flushed.extend(batcher.flush_all(final_s))
    return flushed


def adds_s_of(row, positions, tick, final_s):
    """Rows before check k are added at (k - 1) * tick + a quarter tick."""
    return (positions[row] - 1) * tick + tick / 4


def _summary(batches):
    return [
        (b.batch_id, [r.request_id for r in b.requests], b.opened_s, b.flushed_s,
         b.total_gops, b.earliest_deadline_s)
        for b in batches
    ]


@pytest.mark.parametrize("seed", range(12))
def test_one_bulk_pass_equals_one_call_per_add_and_check(seed):
    """The block pass, with batches carried in from earlier adds, equals the
    timeline of single adds and flush checks it stands for."""
    rng = np.random.default_rng(seed)
    policy = BatchPolicy(
        max_batch_size=int(rng.integers(1, 5)),
        max_delay_s=float(rng.choice([0.0, 0.4, 1.0])),
        deadline_margin_s=float(rng.choice([0.0, 0.3])),
    )
    tick, last = 0.25, 12
    count = int(rng.integers(1, 40))
    positions = np.sort(rng.integers(1, last + 2, count))
    requests = []
    for row in range(count):
        arrival = adds_s_of(row, positions, tick, None)
        requests.append(make_request(
            f"r{row:02d}", tenant=f"t{rng.integers(2)}", use_case=f"u{rng.integers(2)}",
            arrival_s=arrival, gops=float(rng.uniform(0.1, 9.0)),
            deadline_s=arrival + float(rng.uniform(0.1, 3.0)) if rng.random() < 0.6 else None,
        ))
    head = [make_request(f"h{i}", tenant=f"t{i % 2}", use_case="u0") for i in range(3)]
    final_s = (last + 1) * tick

    bulk, single = Batcher(policy), Batcher(policy)
    early = [b for request in head for b in bulk.add(request, 0.0)]
    assert _summary(early) == _summary([b for r in head for b in single.add(r, 0.0)])
    from repro.serving.batching import _Rows

    adds_s = np.array([adds_s_of(row, positions, tick, None) for row in range(count)])
    flushed = bulk._batch(_Rows(requests), adds_s, positions, tick, last, final_s)
    expected = _replay_one_call_at_a_time(single, requests, positions, tick, last, final_s)
    assert _summary(flushed) == _summary(expected)
    assert bulk.open_batches == single.open_batches == []

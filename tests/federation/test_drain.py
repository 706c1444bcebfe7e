"""Drain-hook tests: scale-down never loses or double-places a request.

PR 2 could migrate *saturated* shards but had no path for retiring one:
dropping a shard with work on it would have stranded its placements.  The
drain hook closes that hole; these tests pin the conservation invariants
across a full scale-down under arbitrary workloads (hypothesis): every
placed task stays placed on exactly one node, queued work routes around
the draining shard, and removal is refused until the shard is empty.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import Federation, FederationConfig
from repro.hardware.microserver import WorkloadKind
from repro.scheduler.placement import PlacementEngine
from repro.scheduler.workload import TaskRequest

task_shapes = st.lists(
    st.tuples(
        st.sampled_from(list(WorkloadKind)),
        st.floats(min_value=5.0, max_value=500.0),  # gops
        st.integers(min_value=1, max_value=4),  # cores
        st.floats(min_value=0.25, max_value=2.0),  # memory GiB
        st.floats(min_value=0.0, max_value=1.0),  # energy weight
    ),
    min_size=1,
    max_size=24,
)


def build_federation(num_shards=3):
    return Federation.build(
        num_shards=num_shards,
        shard_scale=1,
        federation_config=FederationConfig(drain_migrations_per_cycle=64),
        seed=13,
    )


def place_all(federation, engine, shapes):
    """Place one task per shape through the federated scheduler."""
    placed = []
    for index, (workload, gops, cores, memory, weight) in enumerate(shapes):
        request = TaskRequest(
            task_id=f"task-{index}",
            arrival_s=0.0,
            workload=workload,
            gops=gops,
            cores=cores,
            memory_gib=memory,
            energy_weight=weight,
            tenant=f"tenant-{index % 3}",
        )
        node = federation.scheduler.place(request, federation.cluster, 0.0)
        if node is not None:
            engine.instantiate(request, node, 0.0)
            placed.append(request.task_id)
    return placed


def hosting_nodes(federation, task_id):
    """Every node across the federation currently hosting a task id."""
    return [node.name for node in federation.cluster if task_id in node.running]


def apply_decisions(engine, decisions, time_s):
    """Apply migration decisions the way the simulator does (skip full)."""
    applied = 0
    for task_id, target in decisions:
        try:
            engine.migrate(task_id, target, time_s)
            applied += 1
        except (ValueError, KeyError):
            continue
    return applied


@given(task_shapes)
@settings(max_examples=40, deadline=None)
def test_scale_down_conserves_every_placed_task(shapes):
    federation = build_federation()
    engine = PlacementEngine(federation.cluster)
    placed = place_all(federation, engine, shapes)

    # Drain the shard carrying the most work (the hardest case).
    by_shard = {}
    for task_id in placed:
        shard = federation.scheduler.shard_of_node(hosting_nodes(federation, task_id)[0])
        by_shard.setdefault(shard, []).append(task_id)
    victim = max(federation.shards, key=lambda s: len(by_shard.get(s.name, []))).name
    federation.begin_drain(victim)

    # Run rescheduling passes until the drain stops making progress.
    time_s, stalled = 10.0, 0
    while stalled < 3:
        decisions = federation.scheduler.reschedule(
            engine.running, federation.cluster, time_s
        )
        # No task is decided twice within one pass (no double placement).
        decided = [task_id for task_id, _ in decisions]
        assert len(decided) == len(set(decided))
        if apply_decisions(engine, decisions, time_s) == 0:
            stalled += 1
        time_s += 10.0
        if not federation.scheduler.shard(victim).has_running_tasks():
            break

    # Conservation: every placed task is still placed, on exactly one node.
    for task_id in placed:
        hosts = hosting_nodes(federation, task_id)
        assert len(hosts) == 1, f"{task_id} hosted by {hosts}"
    assert sorted(p.request.task_id for p in engine.running) == sorted(placed)

    if not federation.scheduler.shard(victim).has_running_tasks():
        # Fully drained: removal succeeds and nothing was lost with it.
        removed = federation.finalize_drain(victim)
        assert removed is not None
        assert len(federation.shards) == 2
        for task_id in placed:
            assert len(hosting_nodes(federation, task_id)) == 1
    else:
        # Receivers are full: the drain hook must refuse the removal
        # rather than drop the stragglers.
        assert federation.finalize_drain(victim) is None
        with pytest.raises(ValueError, match="drain"):
            federation.scheduler.remove_shard(victim)


@given(task_shapes)
@settings(max_examples=25, deadline=None)
def test_queued_work_routes_around_a_draining_shard(shapes):
    federation = build_federation(num_shards=2)
    victim = federation.shards[0].name
    federation.begin_drain(victim)
    engine = PlacementEngine(federation.cluster)
    placed = place_all(federation, engine, shapes)
    for task_id in placed:
        host_shard = federation.scheduler.shard_of_node(hosting_nodes(federation, task_id)[0])
        assert host_shard != victim


def test_drain_rebalances_pinned_tenants_before_retirement():
    federation = build_federation(num_shards=2)
    engine = PlacementEngine(federation.cluster)
    request = TaskRequest(
        task_id="pin", arrival_s=0.0, workload=WorkloadKind.SCALAR,
        gops=50.0, cores=1, memory_gib=0.5, tenant="sticky",
    )
    node = federation.scheduler.place(request, federation.cluster, 0.0)
    engine.instantiate(request, node, 0.0)
    pinned = federation.scheduler.affinity_shard("sticky")
    assert pinned is not None
    federation.begin_drain(pinned)
    # The pin moved to a surviving shard, and the move was counted.
    assert federation.scheduler.affinity_shard("sticky") != pinned
    assert federation.stats.affinity_rebalanced >= 1


def test_cannot_drain_the_last_active_shard():
    federation = build_federation(num_shards=2)
    federation.begin_drain(federation.shards[0].name)
    with pytest.raises(ValueError, match="last active shard"):
        federation.begin_drain(federation.shards[1].name)

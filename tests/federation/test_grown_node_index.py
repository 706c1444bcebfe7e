"""A node grown into a shard is a full member of that shard.

``Federation.grow_node`` adds a node to a running shard.  Every consumer
that asks which shard owns a node must then name that shard: the
scheduler's ``shard_of_node``, the rescheduling pass that hands running
tasks to their shard's HEATS scheduler, the chaos actuator that reaps a
failed node, the shard retirement in ``finalize_drain``, and the
simulator's trace spans the live console tiles are built from.  One test
per consumer, plus a property over random elastic histories: the shard
clusters are the only record of membership, and every view agrees with
them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AutoscaleSpec,
    Deployment,
    DeploymentSpec,
    TelemetrySpec,
    TopologySpec,
)
from repro.federation import Federation
from repro.hardware.microserver import MICROSERVER_CATALOG, WorkloadKind
from repro.scenarios.chaos import FederationActuator
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.placement import Placement, PlacementEngine
from repro.scheduler.simulation import ClusterSimulator
from repro.scheduler.workload import TaskRequest
from repro.serving import ServingWorkload, Tenant
from repro.telemetry.console import build_frames


@pytest.fixture
def grown():
    """A 2-shard federation whose second shard grew one node."""
    deployment = Deployment.from_spec(
        DeploymentSpec(topology=TopologySpec(cluster_scale=2, shards=2))
    )
    federation = deployment.backend.federation
    shard = federation.shards[1].name
    node = federation.grow_node(shard, "arm64-server")
    return federation, shard, node


def _run_on(federation, node: str) -> PlacementEngine:
    """An engine with one task running on ``node``."""
    engine = PlacementEngine(federation.cluster)
    request = TaskRequest(
        task_id="on-grown", arrival_s=0.0, workload=WorkloadKind.SCALAR,
        gops=50.0, cores=1, memory_gib=0.5,
    )
    engine.instantiate(request, node, 0.0)
    return engine


def test_scheduler_knows_grown_node_shard(grown):
    federation, shard, node = grown
    assert federation.scheduler.shard_of_node(node) == shard


def test_finalize_drain_removes_shard_with_grown_node(grown):
    federation, shard, node = grown
    federation.begin_drain(shard)
    assert federation.finalize_drain(shard) is not None
    assert [s.name for s in federation.shards] == [federation.shards[0].name]
    assert node not in {n.name for n in federation.cluster.nodes}


def test_reschedule_hands_grown_node_tasks_to_their_shard(grown, monkeypatch):
    federation, shard, node = grown
    engine = _run_on(federation, node)
    heats = federation.scheduler.shard(shard).scheduler
    groups = []
    original = heats.reschedule

    def recording(running, cluster, time_s):
        groups.append([(p.request.task_id, p.node) for p in running])
        return original(running, cluster, time_s)

    monkeypatch.setattr(heats, "reschedule", recording)
    federation.scheduler.reschedule(engine.running, federation.cluster, 10.0)
    assert groups == [[("on-grown", node)]]


def test_actuator_reaps_an_idle_grown_node(grown):
    federation, shard, node = grown
    actuator = FederationActuator(federation)
    engine = _run_on(federation, node)
    assert actuator.remove_node(node) is False  # still busy
    engine.complete("on-grown", 5.0)
    assert actuator.remove_node(node) is True
    assert node not in {n.name for n in federation.cluster.nodes}
    assert node not in {n.name for n in federation.scheduler.shard(shard).cluster}


def test_a_node_no_shard_owns_is_a_loud_miss(grown):
    """Every placed node has a shard, so a lookup miss raises, never skips."""
    federation, shard, node = grown
    simulator = ClusterSimulator(federation.cluster, federation.scheduler)
    assert simulator._trace_shard(node) == shard
    with pytest.raises(KeyError):
        simulator._trace_shard("ghost")
    request = TaskRequest(
        task_id="lost", arrival_s=0.0, workload=WorkloadKind.SCALAR,
        gops=50.0, cores=1, memory_gib=0.5,
    )
    with pytest.raises(KeyError):
        federation.scheduler.reschedule(
            [Placement(request, "ghost", 0.0, 10.0)], federation.cluster, 10.0
        )
    # A single cluster has no shard notion: its spans name no shard.
    cluster = Cluster.heats_testbed(scale=1)
    single = ClusterSimulator(cluster, HeatsScheduler.with_learned_models(cluster))
    assert single._trace_shard(cluster.nodes[0].name) is None


def test_traced_spans_on_grown_nodes_name_their_shard():
    """Console tiles count grown-node tasks in the shard that owns the node.

    The load is pinned to the first shard's region, so the autoscaler grows
    the second shard; a grown node's name starts with its shard's name.
    """
    deployment = Deployment.from_spec(
        DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, shards=2),
            autoscale=AutoscaleSpec(enabled=True, min_shards=2, max_shards=2),
            telemetry=TelemetrySpec(enabled=True, tracing=True),
        )
    )
    tenant = Tenant(name="north", rate_limit_rps=1000.0, burst=500, region="eu-north")
    workload = ServingWorkload.synthetic(
        [tenant],
        {"north": {"ml_inference": 0.5, "smartmirror": 0.5}},
        offered_rps=200.0,
        duration_s=20.0,
        seed=5,
    )
    ticks = list(deployment.serve_iter(workload, tick_s=5.0))
    spans = deployment.last_report.trace_spans
    topology = deployment.backend.topology()
    shard_names = [entry["name"] for entry in topology["shards"]]
    assert shard_names[0] != shard_names[1]

    def owner(node: str) -> str:
        """The owning shard, read off the node name alone."""
        if "-auto" in node:
            return node.split("-auto")[0]
        index = node.split("-")[0][len("shard"):]
        return next(name for name in shard_names if name.startswith(f"shard-{index}-"))

    executes = [s for s in spans if s.name == "task.execute"]
    on_grown = [s for s in executes if "-auto" in s.annotations["node"]]
    assert {owner(s.annotations["node"]) for s in on_grown} == {shard_names[1]}
    for span in on_grown:
        assert span.annotations["shard"] == owner(span.annotations["node"])

    # Every tile's running count is the execute spans open on its shard's
    # nodes at the tick's end.
    frames = build_frames(ticks, topology, spans)
    for frame in frames:
        for tile in frame.tiles:
            expected = sum(
                1
                for s in executes
                if owner(s.annotations["node"]) == tile.shard
                and s.start_s <= frame.end_s
                and (s.end_s is None or s.end_s > frame.end_s)
            )
            assert tile.running == expected
    grown_running = [
        sum(
            1
            for s in on_grown
            if s.start_s <= frame.end_s and (s.end_s is None or s.end_s > frame.end_s)
        )
        for frame in frames
    ]
    assert any(grown_running)


#: one elastic operation: (kind, shard pick, catalogue model pick).
elastic_steps = st.lists(
    st.tuples(
        st.sampled_from(["add_shard", "grow", "shrink", "drain", "cancel"]),
        st.integers(min_value=0, max_value=7),
        st.sampled_from(sorted(MICROSERVER_CATALOG)),
    ),
    max_size=16,
)


@given(elastic_steps)
@settings(max_examples=30, deadline=None)
def test_membership_follows_the_shard_clusters(steps):
    federation = Federation.build(num_shards=2, shard_scale=1, seed=5)
    scheduler = federation.scheduler
    expected = {
        node.name: shard.name for shard in federation.shards for node in shard.cluster
    }
    gone = set()
    for kind, pick, model in steps:
        shard = federation.shards[pick % len(federation.shards)].name
        if kind == "add_shard":
            if len(federation.shards) < 4:
                added = federation.add_shard()
                expected.update((node.name, added.name) for node in added.cluster)
        elif kind == "grow":
            expected[federation.grow_node(shard, model)] = shard
        elif kind == "shrink":
            removed = federation.shrink_node(shard)
            if removed is not None:
                del expected[removed]
                gone.add(removed)
        elif len(federation.shards) > 1:
            federation.begin_drain(shard)
            if kind == "cancel":
                federation.cancel_drain(shard)
            else:
                retired = federation.finalize_drain(shard)
                assert retired is not None
                for name in [n for n, owner in expected.items() if owner == shard]:
                    del expected[name]
                    gone.add(name)

        per_shard = [node.name for s in federation.shards for node in s.cluster]
        assert len(per_shard) == len(set(per_shard))  # disjoint
        assert {node.name for node in federation.cluster} == set(per_shard)
        assert set(per_shard) == set(expected)
        for name, owner in expected.items():
            assert scheduler.shard_of_node(name) == owner
            assert name in federation.cluster
        for name in gone - set(expected):
            assert name not in federation.cluster
            with pytest.raises(KeyError):
                scheduler.shard_of_node(name)

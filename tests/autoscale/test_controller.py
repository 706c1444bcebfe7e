"""Autoscaler control-loop tests: decisions, cooldowns, accounting."""

from __future__ import annotations

import pytest

from repro import DeploymentSpec, LegatoSystem, MetricsRegistry, ServingWorkload
from repro.api import AutoscaleSpec, TelemetrySpec, TopologySpec
from repro.autoscale import Autoscaler, AutoscaleConfig, ScalingAction
from repro.federation import Federation, FederationConfig
from repro.serving import Tenant

QUICK = AutoscaleConfig(
    control_interval_s=2.0,
    scale_up_cooldown_s=0.0,
    scale_down_cooldown_s=0.0,
)


def build_federation(num_shards=1, config: FederationConfig = None):
    return Federation.build(
        num_shards=num_shards,
        shard_scale=1,
        metrics=MetricsRegistry(),
        federation_config=config
        if config is not None
        else FederationConfig(rescheduling_interval_s=2.0),
    )


def saturate(federation, fraction=1.0):
    """Reserve a fraction of every node's cores directly."""
    for node in federation.cluster:
        cores = max(1, int(node.total.cores * fraction))
        node.reserve(f"fill-{node.name}", min(cores, node.available.cores), 0.1)


class TestScaleUp:
    def test_saturation_grows_a_node_in_the_hottest_shard(self):
        federation = build_federation()
        scaler = Autoscaler(federation, config=QUICK)
        before = federation.total_nodes
        saturate(federation)
        scaler.control(2.0, [])
        actions = [d.action for d in scaler.decisions]
        assert actions == [ScalingAction.GROW_NODE]
        assert federation.total_nodes == before + 1
        # The grown node is immediately placeable: it has learned models
        # and lives in both the shard index and the union index.
        shard = federation.shards[0]
        new_node = [n for n in shard.cluster if "auto" in n.name][0]
        assert new_node.name in shard.scheduler.models
        assert federation.scheduler.shard_of_node(new_node.name) == shard.name
        assert new_node.name in federation.cluster

    def test_cooldown_blocks_consecutive_scale_ups(self):
        federation = build_federation()
        scaler = Autoscaler(
            federation,
            config=AutoscaleConfig(
                control_interval_s=2.0, scale_up_cooldown_s=10.0
            ),
        )
        saturate(federation)
        scaler.control(2.0, [])
        scaler.control(4.0, [])  # inside the cooldown window
        assert len(scaler.decisions) == 1
        scaler.control(12.0, [])  # cooldown elapsed
        assert len(scaler.decisions) == 2

    def test_shard_added_when_all_shards_at_node_cap(self):
        federation = build_federation()
        scaler = Autoscaler(
            federation,
            config=AutoscaleConfig(
                control_interval_s=2.0,
                scale_up_cooldown_s=0.0,
                scale_down_cooldown_s=0.0,
                max_nodes_per_shard=4,  # the build size: no node headroom
            ),
        )
        saturate(federation)
        scaler.control(2.0, [])
        assert [d.action for d in scaler.decisions] == [ScalingAction.ADD_SHARD]
        assert len(federation.shards) == 2
        # The new shard is routable: an idle federation places there.
        assert federation.total_nodes == 8


    def test_growth_falls_through_to_cooler_shards_with_headroom(self):
        federation = build_federation(num_shards=2)
        scaler = Autoscaler(
            federation,
            config=AutoscaleConfig(
                control_interval_s=2.0,
                scale_up_cooldown_s=0.0,
                scale_down_cooldown_s=0.0,
                max_nodes_per_shard=5,
                max_shards=2,  # no shard headroom: node growth is the only lever
            ),
        )
        hottest = federation.shards[0]
        federation.grow_node(hottest.name, "xeon-d-x86")  # hottest at the 5-node cap
        saturate(federation)
        scaler.control(2.0, [])
        decisions = [d for d in scaler.decisions if d.action is ScalingAction.GROW_NODE]
        assert len(decisions) == 1
        # The hottest shard is full, so the cooler shard got the node.
        assert decisions[0].target.startswith(federation.shards[1].name)

    def test_autoscaler_requires_instrumented_federation(self):
        federation = Federation.build(num_shards=1, shard_scale=1)
        with pytest.raises(ValueError, match="MetricsRegistry"):
            Autoscaler(federation)


class TestScaleDown:
    def test_idle_federation_drains_and_removes_a_shard(self):
        federation = build_federation(num_shards=2)
        scaler = Autoscaler(federation, config=QUICK)
        scaler.control(2.0, [])
        assert [d.action for d in scaler.decisions] == [ScalingAction.BEGIN_DRAIN]
        drained = scaler.decisions[0].target
        assert federation.scheduler.is_draining(drained)
        # Next tick: the shard is empty, so the drain finalises.
        scaler.control(4.0, [])
        action_kinds = [d.action for d in scaler.decisions]
        assert ScalingAction.REMOVE_SHARD in action_kinds
        assert len(federation.shards) == 1
        assert drained not in [s.name for s in federation.shards]

    def test_never_scales_below_min_shards(self):
        federation = build_federation(num_shards=1)
        scaler = Autoscaler(federation, config=QUICK)
        for tick in range(1, 6):
            scaler.control(2.0 * tick, [])
        assert len(federation.shards) == 1
        assert not any(
            d.action in (ScalingAction.BEGIN_DRAIN, ScalingAction.SHRINK_NODE)
            for d in scaler.decisions
        )

    def test_grown_nodes_are_shrunk_before_shards_are_drained(self):
        federation = build_federation(num_shards=2)
        scaler = Autoscaler(federation, config=QUICK)
        grown = federation.grow_node(federation.shards[0].name, "xeon-d-x86")
        scaler.control(2.0, [])
        first = scaler.decisions[0]
        assert first.action is ScalingAction.SHRINK_NODE
        assert first.target == grown
        assert federation.total_nodes == 8

    def test_scale_up_pressure_cancels_an_active_drain(self):
        federation = build_federation(num_shards=2)
        scaler = Autoscaler(federation, config=QUICK)
        draining = federation.shards[1].name
        federation.begin_drain(draining)
        saturate(federation)  # both shards fully loaded -> up pressure
        scaler.control(2.0, [])
        assert [d.action for d in scaler.decisions] == [ScalingAction.CANCEL_DRAIN]
        assert not federation.scheduler.is_draining(draining)


class TestAccounting:
    def test_node_seconds_integrate_across_topology_changes(self):
        federation = build_federation()
        scaler = Autoscaler(federation, config=QUICK)
        saturate(federation)
        scaler.control(10.0, [])  # 4 nodes for 10 s, then grows to 5
        report = scaler.report(horizon_s=20.0)  # 5 nodes for the next 10 s
        assert report.node_seconds == pytest.approx(4 * 10.0 + 5 * 10.0)
        assert report.peak_nodes == 5
        assert report.min_nodes == 4
        assert report.final_nodes == 5
        assert report.control_ticks == 1
        assert report.action_count(ScalingAction.GROW_NODE) == 1
        assert report.summary()["actions"] == {"grow_node": 1}

    def test_gauges_reflect_current_topology(self):
        federation = build_federation()
        scaler = Autoscaler(federation, config=QUICK)
        scaler.control(2.0, [])
        snapshot = federation.metrics.snapshot()
        assert snapshot.gauges["autoscale.nodes"] == federation.total_nodes
        assert snapshot.gauges["autoscale.shards"] == len(federation.shards)


class TestFacade:
    def test_autoscaled_deployment_runs_elastically(self):
        tenants = [
            Tenant(name="hot", rate_limit_rps=400.0, burst=200, energy_weight=0.2),
            Tenant(name="cold", rate_limit_rps=400.0, burst=200, energy_weight=0.8),
        ]
        workload = ServingWorkload.synthetic(
            tenants,
            {
                "hot": {"ml_inference": 0.6, "smartmirror": 0.4},
                "cold": {"iot_gateway": 1.0},
            },
            offered_rps=150.0,
            duration_s=20.0,
            seed=5,
        )
        deployment = LegatoSystem().deploy(DeploymentSpec.preset("autoscaled"))
        report = deployment.serve(workload)
        # Round-trip conservation still holds under elastic topology...
        assert report.completed > 0
        assert report.admitted == report.completed + report.dropped
        # ...the elastic history is attached and the overload grew capacity.
        auto = report.autoscale_report
        assert auto is not None
        assert auto.control_ticks > 0
        assert auto.peak_nodes > 4
        assert auto.node_seconds > 0
        assert report.summary()["autoscale"]["peak_nodes"] == auto.peak_nodes

    def test_autoscaled_backend_attaches_controller(self):
        spec = DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, shards=2),
            autoscale=AutoscaleSpec(enabled=True),
            telemetry=TelemetrySpec(enabled=True),
        )
        scaler = LegatoSystem().deploy(spec).backend.autoscaler
        assert scaler.federation.scheduler.autoscaler is scaler
        assert scaler.federation.metrics is not None
        # Control heartbeat aligned with the federation's rescheduler.
        assert (
            scaler.federation.scheduler.config.rescheduling_interval_s
            == scaler.config.control_interval_s
        )


class TestShrinkNodeSafety:
    def test_failed_shrink_leaves_union_and_shard_consistent(self):
        federation = build_federation(num_shards=2)
        foreign = federation.shards[1].cluster.nodes[0]
        # Asking shard 0 to shrink a node owned by shard 1 must fail
        # without touching either index.
        with pytest.raises(KeyError):
            federation.shrink_node(federation.shards[0].name, foreign.name)
        assert federation.scheduler.shard_of_node(foreign.name) == federation.shards[1].name
        assert foreign.name in federation.cluster
        assert foreign.name in [n.name for n in federation.shards[1].cluster]

    def test_busy_node_shrink_refused_atomically(self):
        federation = build_federation(num_shards=1)
        node = federation.shards[0].cluster.nodes[0]
        node.reserve("t", 1, 0.5)
        with pytest.raises(ValueError, match="still running"):
            federation.shrink_node(federation.shards[0].name, node.name)
        # Both views still index the node.
        assert federation.scheduler.shard_of_node(node.name) == federation.shards[0].name
        assert node.name in federation.cluster
        assert node.name in [n.name for n in federation.shards[0].cluster]

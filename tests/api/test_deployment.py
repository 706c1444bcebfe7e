"""Deployment sessions: warm reuse, lifecycle, tick streams, snapshots."""

from __future__ import annotations

import pytest

from repro import Deployment, DeploymentSpec, LegatoSystem, ServingWorkload
from repro.api import AutoscaleSpec, TelemetrySpec, TopologySpec
from repro.api.deployment import PROFILING_METRIC, SERVE_RUNS_METRIC
from repro.core.seeding import SeedPolicy
from repro.serving import Tenant


def _tenants():
    return [
        Tenant(name="perf", rate_limit_rps=25.0, burst=25, energy_weight=0.2,
               latency_slo_s=120.0),
        Tenant(name="eco", rate_limit_rps=15.0, burst=15, energy_weight=0.8,
               region="eu-north"),
    ]


def _workload(seed: int = 5, rps: float = 12.0) -> ServingWorkload:
    return ServingWorkload.synthetic(
        _tenants(),
        {
            "perf": {"ml_inference": 0.7, "smartmirror": 0.3},
            "eco": {"iot_gateway": 0.8, "ml_inference": 0.2},
        },
        offered_rps=rps,
        duration_s=12.0,
        seed=seed,
    )


class TestBackendSelection:
    def test_single_shape(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        assert deployment.backend.name == "single"
        assert deployment.backend.federation is None
        assert deployment.snapshot()["topology"]["backend"] == "single"

    def test_federated_shape(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("federated"))
        assert deployment.backend.name == "federated"
        assert deployment.backend.autoscaler is None
        topology = deployment.backend.topology()
        assert topology["total_nodes"] == 16
        assert len(topology["shards"]) == 4

    def test_autoscaled_shape(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("autoscaled"))
        assert deployment.backend.name == "autoscaled"
        assert deployment.backend.autoscaler is not None
        assert deployment.backend.topology()["bounds"]["max_shards"] == 4

    def test_invalid_spec_is_rejected_on_deploy(self):
        with pytest.raises(ValueError):
            Deployment.from_spec(
                DeploymentSpec(topology=TopologySpec(cluster_scale=3, shards=2))
            )


class TestWarmReuse:
    @pytest.mark.parametrize("preset", ["single", "federated"])
    def test_two_serves_without_reprofiling(self, preset):
        deployment = Deployment.from_spec(DeploymentSpec.preset(preset))
        built = deployment.metrics().counter(PROFILING_METRIC)
        assert built >= 1  # the cold start profiled the topology

        first = deployment.serve(_workload(seed=5))
        second = deployment.serve(_workload(seed=6))
        assert first.completed > 0 and second.completed > 0
        metrics = deployment.metrics()
        # Warm reuse, asserted via the session counters: two serves, and
        # not a single additional profiling campaign after the build.
        assert metrics.counter(SERVE_RUNS_METRIC) == 2.0
        assert metrics.counter(PROFILING_METRIC) == built
        assert deployment.serve_runs == 2

    def test_warm_state_is_deterministic_per_workload(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        first = deployment.serve(_workload(seed=9))
        second = deployment.serve(_workload(seed=9))
        # Same models, same cluster, same workload -> identical outcome
        # (the warm score cache changes cost, never placement results).
        assert first.summary() == second.summary()
        assert first.latencies_s == second.latencies_s

    def test_federated_stats_are_per_run(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("federated"))
        first = deployment.serve(_workload(seed=5))
        second = deployment.serve(_workload(seed=5))
        # Routing telemetry must describe one run, not the session total.
        assert second.federation_stats.placements == first.federation_stats.placements
        assert second.completed == first.completed

    def test_autoscaled_serves_twice_with_fresh_controller(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("autoscaled"))
        first = deployment.serve(_workload(seed=5, rps=30.0))
        first_controller = deployment.backend.autoscaler
        second = deployment.serve(_workload(seed=5, rps=30.0))
        second_controller = deployment.backend.autoscaler
        assert first.autoscale_report is not None
        assert second.autoscale_report is not None
        assert second_controller is not first_controller
        # Per-run accounting: were the controller state cumulative across
        # the session, the identical workload's second report would carry
        # roughly double the ticks and a node-second integral exceeding
        # one run's own envelope (peak nodes x this run's horizon).
        auto = second.autoscale_report
        assert auto.control_ticks <= first.autoscale_report.control_ticks * 1.5 + 2
        # One control interval of slack: the last reschedule tick may land
        # just past the completion horizon.
        control_interval = deployment.spec.autoscale.control_interval_s
        assert auto.node_seconds <= auto.peak_nodes * (
            second.horizon_s + control_interval
        )
        assert deployment.serve_runs == 2


class TestInterleaveGuard:
    @pytest.mark.parametrize("preset", ["single", "federated", "autoscaled"])
    def test_serve_refuses_a_busy_cluster_until_it_is_released(self, preset):
        deployment = Deployment.from_spec(DeploymentSpec.preset(preset))
        backend = deployment.backend
        host = backend.federation if backend.federation is not None else backend
        node = host.cluster.nodes[0]
        # Leftover reservations are what interleaving two runs on the
        # shared cluster state would look like.
        node.reserve("leftover", 1, 0.5)
        with pytest.raises(RuntimeError, match="back-to-back, not interleaved"):
            deployment.serve(_workload())
        assert deployment.serve_runs == 0
        node.release("leftover")
        report = deployment.serve(_workload())
        assert report.completed > 0
        assert deployment.serve_runs == 1


class TestLifecycle:
    def test_context_manager_closes(self):
        with Deployment.from_spec(DeploymentSpec.preset("single")) as deployment:
            deployment.serve(_workload())
        assert deployment.closed
        with pytest.raises(RuntimeError, match="closed"):
            deployment.serve(_workload())

    def test_closed_deployment_is_still_auditable(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        deployment.serve(_workload())
        deployment.close()
        assert deployment.metrics().counter(SERVE_RUNS_METRIC) == 1.0
        assert deployment.snapshot()["closed"] is True

    def test_reentering_closed_session_raises(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        deployment.close()
        with pytest.raises(RuntimeError):
            deployment.__enter__()


class TestServeIter:
    def test_tick_stream_covers_the_run(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        workload = _workload()
        ticks = list(deployment.serve_iter(workload, tick_s=4.0))
        report = deployment.last_report
        assert report is not None
        assert ticks, "a served workload must produce at least one tick"
        assert ticks[0].start_s == 0.0
        # Windows tile the timeline without gaps.
        for earlier, later in zip(ticks, ticks[1:]):
            assert later.start_s == pytest.approx(earlier.end_s)
        # Conservation: the tick stream accounts for every arrival and
        # every completion the final report knows about.
        assert sum(tick.arrivals for tick in ticks) == len(workload.requests)
        assert sum(tick.completed for tick in ticks) == report.completed
        assert ticks[-1].cumulative_completed == report.completed
        assert ticks[-1].end_s >= report.horizon_s
        summary = ticks[0].summary()
        assert summary["tick"] == 0

    def test_tick_width_must_be_positive(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        with pytest.raises(ValueError):
            deployment.serve_iter(_workload(), tick_s=0.0)

    def test_boundary_events_are_not_dropped(self):
        # A tick width dividing the horizon exactly puts the last
        # completion on a window edge; the closed final window keeps it.
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        workload = _workload()
        ticks = list(deployment.serve_iter(workload, tick_s=1.0))
        report = deployment.last_report
        horizon_aligned = list(
            Deployment.from_spec(DeploymentSpec.preset("single")).serve_iter(
                workload, tick_s=report.horizon_s
            )
        )
        assert sum(t.completed for t in ticks) == report.completed
        assert sum(t.completed for t in horizon_aligned) == report.completed
        assert sum(t.arrivals for t in horizon_aligned) == len(workload.requests)

    def test_serve_iter_counts_as_a_serve(self):
        deployment = Deployment.from_spec(DeploymentSpec.preset("single"))
        list(deployment.serve_iter(_workload(), tick_s=10.0))
        assert deployment.serve_runs == 1


class TestSnapshot:
    def test_snapshot_reports_topology_and_spec_diff(self):
        spec = DeploymentSpec(
            name="edge-fleet",
            topology=TopologySpec(cluster_scale=2, shards=2),
        )
        deployment = Deployment.from_spec(spec)
        snapshot = deployment.snapshot()
        assert snapshot["name"] == "edge-fleet"
        assert snapshot["topology"]["total_nodes"] == 8
        assert snapshot["spec_overrides"]["topology.shards"]["value"] == 2
        assert snapshot["spec"]["topology"]["cluster_scale"] == 2
        assert "system" not in snapshot  # not deployed through a facade

    def test_deploy_through_system_embeds_describe(self):
        deployment = LegatoSystem().deploy()
        snapshot = deployment.snapshot()
        # The satellite contract: Deployment.snapshot() reuses
        # LegatoSystem.describe(), which now carries version + sections.
        system_view = snapshot["system"]
        from repro import __version__

        assert system_view["version"] == __version__
        assert "serving" in system_view
        assert "federation" in system_view
        assert system_view["autoscale"]["enabled"] is False

    def test_autoscaled_snapshot_tracks_elastic_topology(self):
        deployment = Deployment.from_spec(
            DeploymentSpec(
                name="elastic",
                autoscale=AutoscaleSpec(enabled=True),
                telemetry=TelemetrySpec(enabled=True),
            )
        )
        before = deployment.snapshot()["topology"]["total_nodes"]
        deployment.serve(_workload(rps=60.0))
        after = deployment.snapshot()["topology"]["total_nodes"]
        # The snapshot reads the *current* topology; an elastic run may
        # have grown (or drained back), but the view must follow reality.
        assert after == deployment.backend.federation.total_nodes
        assert before == 4


class TestSeedPolicyCentralisation:
    def test_shard_seeds_match_the_historic_rule(self):
        policy = SeedPolicy()
        # The documented, centralised rules reproduce the magic numbers
        # they replaced: base 7, shard stride 101, probe stride 1009.
        assert [policy.shard_seed(index) for index in range(4)] == [7, 108, 209, 310]
        assert policy.probe_seed(policy.shard_seed(1), 0) == 108 + 1009

    def test_grow_node_probes_with_the_policy_seed(self):
        deployment = LegatoSystem().deploy(DeploymentSpec.preset("federated"))
        federation = deployment.backend.federation
        shard = federation.shards[0]
        node = shard.grow_node("xeon-d-x86")
        assert node.name.endswith("auto0-xeon-d-x86")
        assert shard.grown_nodes == 1

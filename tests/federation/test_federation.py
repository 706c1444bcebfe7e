"""Unit tests for the federated multi-cluster scheduling layer."""

from __future__ import annotations

import pytest

from repro import DeploymentSpec, LegatoSystem, ServingWorkload
from repro.api import TopologySpec
from repro.core.seeding import SeedPolicy
from repro.federation import (
    ClusterShard,
    Federation,
    FederatedScheduler,
    FederationConfig,
    ShardProfile,
    score_shards,
)
from repro.hardware.microserver import WorkloadKind
from repro.scheduler.workload import TaskRequest
from repro.serving import Tenant


def _request(task_id, cores=1, memory=0.5, weight=0.5, tenant=None, gops=50.0):
    return TaskRequest(
        task_id=task_id,
        arrival_s=0.0,
        workload=WorkloadKind.SCALAR,
        gops=gops,
        cores=cores,
        memory_gib=memory,
        energy_weight=weight,
        tenant=tenant,
    )


def _saturate(shard):
    """Reserve every core of every node of a shard."""
    for index, node in enumerate(shard.cluster):
        node.reserve(f"fill-{shard.name}-{index}", node.available.cores, 0.1)


@pytest.fixture
def federation():
    return Federation.build(num_shards=2, shard_scale=1, seed=11)


class TestFederationBuild:
    def test_shards_have_disjoint_nodes_and_distinct_seeds(self, federation):
        names_by_shard = [
            {node.name for node in shard.cluster} for shard in federation.shards
        ]
        assert not (names_by_shard[0] & names_by_shard[1])
        seeds = {shard.seed for shard in federation.shards}
        assert len(seeds) == len(federation.shards)

    def test_shards_never_share_config_or_cache_objects(self, federation):
        configs = [shard.scheduler.config for shard in federation.shards]
        caches = [shard.scheduler.score_cache for shard in federation.shards]
        assert configs[0] is not configs[1]
        assert caches[0] is not None and caches[0] is not caches[1]

    def test_shard_models_learned_independently(self, federation):
        # Different profiling seeds -> different measurement noise -> the
        # learned coefficients must differ between equally-built shards.
        first, second = federation.shards
        node_a = first.cluster.nodes[0].name
        node_b = second.cluster.nodes[0].name
        model_a = first.scheduler.models.model(node_a)
        model_b = second.scheduler.models.model(node_b)
        assert (
            model_a.time_seconds_per_gop[WorkloadKind.SCALAR]
            != model_b.time_seconds_per_gop[WorkloadKind.SCALAR]
        )

    def test_union_cluster_knows_every_shard(self, federation):
        union = federation.cluster
        assert len(union) == sum(len(shard.cluster) for shard in federation.shards)
        for shard in federation.shards:
            for node in shard.cluster:
                assert federation.scheduler.shard_of_node(node.name) == shard.name
                assert node.name in union

    def test_duplicate_node_names_rejected(self):
        shard = ClusterShard.build(0, ShardProfile("eu-north", 0.08))
        with pytest.raises(ValueError):
            FederatedScheduler([shard, shard])
        # Same index, other region: a distinct shard name over the same
        # node names, refused at construction and on admission alike.
        twin = ClusterShard.build(0, ShardProfile("us-east", 0.12))
        with pytest.raises(ValueError, match="more than one shard"):
            FederatedScheduler([shard, twin])
        scheduler = FederatedScheduler([shard])
        with pytest.raises(ValueError, match="more than one shard"):
            scheduler.add_shard(twin)
        assert scheduler.shards == [shard]

    def test_shard_seeds_follow_the_seed_policy(self):
        federation = Federation.build(num_shards=3, seed=31)
        policy = SeedPolicy(base=31)
        assert [shard.seed for shard in federation.shards] == [
            policy.shard_seed(index) for index in range(3)
        ]

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Federation.build(num_shards=0)
        with pytest.raises(ValueError):
            Federation.build(num_shards=1, shard_scale=0)


class TestShardScoring:
    def test_empty_is_empty(self):
        assert score_shards([], 0.5) == []

    def test_loaded_shard_scores_worse_than_idle_twin(self, federation):
        idle, other = federation.shards
        _saturate(other)
        ranked = score_shards(federation.shards, 0.0)
        assert ranked[0].shard == idle.name
        assert ranked[0].score < ranked[-1].score

    def test_energy_weight_prefers_cheap_region(self):
        profiles = [ShardProfile("pricey", 0.30), ShardProfile("cheap", 0.06)]
        federation = Federation.build(num_shards=2, shard_scale=1, profiles=profiles)
        ranked = score_shards(federation.shards, energy_weight=1.0)
        assert federation.scheduler.shard(ranked[0].shard).profile.region == "cheap"


class TestFederatedPlacement:
    def test_placed_node_belongs_to_reported_shard(self, federation):
        scheduler = federation.scheduler
        node = scheduler.place(_request("t0"), federation.cluster, 0.0)
        assert node is not None
        shard = scheduler.shard(scheduler.shard_of_node(node))
        assert node in {n.name for n in shard.cluster}

    def test_tenant_affinity_pins_and_sticks(self, federation):
        scheduler = federation.scheduler
        first = scheduler.place(_request("t0", tenant="acme"), federation.cluster, 0.0)
        pinned = scheduler.shard_of_node(first)
        assert scheduler.affinity_shard("acme") == pinned
        for index in range(1, 5):
            node = scheduler.place(
                _request(f"t{index}", tenant="acme"), federation.cluster, 0.0
            )
            assert scheduler.shard_of_node(node) == pinned
        assert scheduler.federation_stats.affinity_hits == 4
        assert scheduler.federation_stats.affinity_misses == 0

    def test_region_seeds_initial_affinity(self, federation):
        scheduler = federation.scheduler
        target = federation.shards[-1]
        scheduler.register_tenant_region("eco", target.profile.region)
        node = scheduler.place(_request("t0", tenant="eco"), federation.cluster, 0.0)
        assert scheduler.shard_of_node(node) == target.name
        assert scheduler.federation_stats.region_seeded == 1

    def test_saturated_pin_fails_over_and_repins(self, federation):
        scheduler = federation.scheduler
        first = scheduler.place(_request("t0", tenant="acme"), federation.cluster, 0.0)
        pinned = scheduler.shard_of_node(first)
        _saturate(scheduler.shard(pinned))
        node = scheduler.place(_request("t1", tenant="acme"), federation.cluster, 0.0)
        assert node is not None
        moved_to = scheduler.shard_of_node(node)
        assert moved_to != pinned
        assert scheduler.federation_stats.affinity_misses == 1
        assert scheduler.affinity_shard("acme") == moved_to

    def test_routing_follows_load_and_price_changes(self):
        profiles = [ShardProfile("west", 0.10), ShardProfile("east", 0.10)]
        federation = Federation.build(num_shards=2, shard_scale=1, profiles=profiles)
        scheduler = federation.scheduler
        first, second = federation.shards

        def routed(weight):
            node = scheduler.place(
                _request("probe", weight=weight), federation.cluster, 0.0
            )
            return scheduler.shard_of_node(node)

        # Idle twins tie on score; the shard name breaks the tie.
        assert routed(0.0) == first.name
        node = first.cluster.nodes[0]
        node.reserve("load", node.available.cores, 0.1)
        assert routed(0.0) == second.name
        node.release("load")
        assert routed(0.0) == first.name
        assert routed(1.0) == first.name
        federation.reprice_shard(first.name, 0.30)
        assert routed(1.0) == second.name
        federation.reprice_shard(first.name, 0.10)
        assert routed(1.0) == first.name

    def test_unplaceable_request_counts(self, federation):
        for shard in federation.shards:
            _saturate(shard)
        assert federation.scheduler.place(_request("big"), federation.cluster, 0.0) is None
        assert federation.scheduler.federation_stats.unplaced_requests == 1


class TestFederatedServing:
    @staticmethod
    def _workload(seed=5):
        tenants = [
            Tenant(name="perf", rate_limit_rps=100.0, burst=50, energy_weight=0.1),
            Tenant(
                name="eco",
                rate_limit_rps=100.0,
                burst=50,
                energy_weight=0.9,
                region="eu-north",
            ),
        ]
        mix = {
            "perf": {"ml_inference": 1.0},
            "eco": {"iot_gateway": 1.0},
        }
        return ServingWorkload.synthetic(
            tenants, mix, offered_rps=12.0, duration_s=15.0, seed=seed
        )

    def test_serve_populates_federation_stats(self):
        spec = DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, shards=2, seed=SeedPolicy(base=11))
        )
        report = LegatoSystem().deploy(spec).serve(self._workload())
        assert report.federation_stats is not None
        assert report.federation_stats.placements > 0
        assert "federation" in report.summary()
        assert report.admitted == report.completed + report.dropped

    def test_system_serve_with_shards(self):
        spec = DeploymentSpec(topology=TopologySpec(cluster_scale=2, shards=2))
        report = LegatoSystem().deploy(spec).serve(self._workload())
        assert report.federation_stats is not None
        assert report.completed > 0

    def test_system_serve_rejects_undivisible_scale(self):
        with pytest.raises(ValueError):
            LegatoSystem().deploy(
                DeploymentSpec(topology=TopologySpec(cluster_scale=3, shards=2))
            )

    def test_single_cluster_serve_has_no_federation_stats(self):
        report = LegatoSystem().deploy(DeploymentSpec()).serve(self._workload())
        assert report.federation_stats is None

"""One shard of the federation: a cluster plus its own HEATS scheduler.

A shard is an independently operated HEATS deployment: its own cluster,
its own profiling campaign (independent RNG seed, so measurement noise is
uncorrelated across shards), its own scheduler-config *copy* (so tuning
one shard can never drift into another), and its own prediction-score
cache (so tenant affinity keeps each shard's cache hot for the tenants it
serves).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.core.seeding import SeedPolicy
from repro.federation.policy import ShardProfile
from repro.hardware.microserver import MICROSERVER_CATALOG
from repro.scheduler.cluster import CapacitySnapshot, Cluster, ClusterNode
from repro.scheduler.heats import HeatsConfig, HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.serving.cache import PredictionScoreCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry


@dataclass
class ClusterShard:
    """One member cluster of a federation.

    Args:
        name: unique shard name within the federation.
        cluster: the shard's own cluster (node names must be unique across
            the whole federation).
        scheduler: the shard's own HEATS scheduler with models learned on
            this cluster.
        profile: regional profile (energy price) used by shard selection.
        seed: the RNG seed the shard's profiling campaign ran with.
    """

    name: str
    cluster: Cluster
    scheduler: HeatsScheduler
    profile: ShardProfile
    seed: int
    #: nodes grown into the shard since it was built (names/seeds derive
    #: from this counter so elastic additions stay unique and reproducible).
    grown_nodes: int = field(default=0)
    #: the deployment-wide seed-derivation rules; elastic growth probes
    #: with ``seed_policy.probe_seed(seed, grown_nodes)``.
    seed_policy: SeedPolicy = field(default_factory=SeedPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard needs a name")

    @classmethod
    def build(
        cls,
        index: int,
        profile: ShardProfile,
        scale: int = 1,
        heats_config: Optional[HeatsConfig] = None,
        use_score_cache: bool = True,
        noise_fraction: float = 0.05,
        metrics: Optional["MetricsRegistry"] = None,
        seed_policy: Optional[SeedPolicy] = None,
        cache_capacity: Optional[int] = None,
    ) -> "ClusterShard":
        """Build shard ``index`` with an independent seed and config copy.

        Args:
            index: position of the shard in the federation; determines the
                node-name prefix and the derived profiling seed.
            profile: regional profile assigned to the shard.
            scale: ``heats_testbed`` scale (4 * scale nodes per shard).
            heats_config: scheduler tunables; *copied* per shard so no two
                shards ever share a config object.
            use_score_cache: attach a per-shard prediction-score cache.
            noise_fraction: profiling measurement noise.
            metrics: optional shared telemetry bus; shard schedulers
                aggregate their placement signals into it.
            seed_policy: the deployment's seed-derivation rules (default
                ``SeedPolicy()``); the shard profiles with
                ``seed_policy.shard_seed(index)`` so shards draw from
                disjoint noise streams instead of replaying identical
                measurements.
            cache_capacity: LRU bound of the score cache; None keeps the
                cache's own default.

        Returns:
            A ready-to-route :class:`ClusterShard`.
        """
        if index < 0:
            raise ValueError("shard index must be non-negative")
        policy = seed_policy if seed_policy is not None else SeedPolicy()
        seed = policy.shard_seed(index)
        cluster = Cluster.heats_testbed(scale=scale, prefix=f"shard{index}")
        config = replace(heats_config) if heats_config is not None else HeatsConfig()
        if use_score_cache:
            cache = (
                PredictionScoreCache(capacity=cache_capacity)
                if cache_capacity is not None
                else PredictionScoreCache()
            )
        else:
            cache = None
        scheduler = HeatsScheduler.with_learned_models(
            cluster,
            config=config,
            noise_fraction=noise_fraction,
            seed=seed,
            score_cache=cache,
            metrics=metrics,
        )
        return cls(
            name=f"shard-{index}-{profile.region}",
            cluster=cluster,
            scheduler=scheduler,
            profile=profile,
            seed=seed,
            seed_policy=policy,
        )

    # ------------------------------------------------------------------ #
    # Elastic node membership (used by the autoscaler)
    # ------------------------------------------------------------------ #
    def grow_node(self, model: str, noise_fraction: float = 0.05) -> ClusterNode:
        """Add one catalogue node to the shard, learning its models first.

        The new node is probed and fitted *before* it joins the capacity
        index, so the HEATS scheduler can score it from the moment it
        becomes placeable (a node without learned models would silently
        never be chosen).  The probing seed derives from the shard seed
        and the grow counter via the shard's
        :class:`~repro.core.seeding.SeedPolicy`, so repeated growth is
        reproducible and disjoint from the original campaign.

        Args:
            model: microserver catalogue model name for the new node.
            noise_fraction: profiling measurement noise for the probes.

        Returns:
            The attached node.
        """
        if model not in MICROSERVER_CATALOG:
            raise KeyError(f"no catalogue model {model!r}")
        node = ClusterNode(
            name=f"{self.name}-auto{self.grown_nodes}-{model}",
            spec=MICROSERVER_CATALOG[model],
        )
        campaign = ProfilingCampaign(
            [node],
            noise_fraction=noise_fraction,
            seed=self.seed_policy.probe_seed(self.seed, self.grown_nodes),
        ).run()
        self.scheduler.models.add(campaign.fit().model(node.name))
        self.cluster.add_node(node)
        self.grown_nodes += 1
        return node

    def release_node(self, name: str) -> ClusterNode:
        """Remove an idle node from the shard, dropping its learned models.

        Args:
            name: the node to remove; must be hosting nothing.

        Returns:
            The detached node.
        """
        node = self.cluster.remove_node(name)
        self.scheduler.models.remove(name)
        return node

    # ------------------------------------------------------------------ #
    # Capacity views used by the routing policy
    # ------------------------------------------------------------------ #
    def capacity(self) -> CapacitySnapshot:
        """The shard cluster's O(1) free-capacity aggregates."""
        return self.cluster.capacity()

    def is_saturated(self, free_core_fraction_floor: float) -> bool:
        """Whether the shard's free-core fraction fell below the floor.

        Args:
            free_core_fraction_floor: saturation threshold in [0, 1).

        Returns:
            True when the shard should shed rather than attract load.
        """
        return self.capacity().free_core_fraction < free_core_fraction_floor

    def can_host(self, cores: int, memory_gib: float) -> bool:
        """Cheap pre-check: could *any* node of this shard fit the shape?

        Uses the aggregate snapshot first (a shard with fewer total free
        cores than requested can never fit), falling back to the indexed
        feasibility scan only when the aggregates cannot rule the shard
        out.

        Args:
            cores: requested cores.
            memory_gib: requested memory.

        Returns:
            True when at least one node currently fits the request.
        """
        capacity = self.capacity()
        if capacity.free_cores < cores or capacity.free_memory_gib < memory_gib:
            return False
        return bool(self.cluster.feasible_nodes(cores, memory_gib))

    def has_running_tasks(self) -> bool:
        """Whether any node of the shard is still hosting a task.

        O(1) via the capacity aggregates: the shard is busy exactly when
        some of its cores are reserved (every task reserves at least one).

        Returns:
            True while the shard cannot be retired.
        """
        capacity = self.capacity()
        return capacity.free_cores < capacity.total_cores

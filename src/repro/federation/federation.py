"""Federated multi-cluster scheduling over sharded HEATS deployments.

The federation is the layer the ROADMAP's "millions of users" north star
needs above a single cluster: N independently operated HEATS shards behind
one scheduler.  Placement is two-level -- a cheap shard pick from O(1)
capacity aggregates (free CPU/memory, thermal headroom, regional energy
price), then the existing node-level HEATS scoring *inside* the chosen
shard only -- so per-request placement work shrinks as the fleet is cut
into more shards.  Tenant affinity keeps each tenant's traffic on one
shard (re-routing only when it saturates) so the per-shard prediction
score caches stay hot, and a cross-shard rescheduling pass drains
saturated shards into shards with headroom.

:class:`FederatedScheduler` implements the same ``SchedulerProtocol`` the
discrete-event :class:`~repro.scheduler.simulation.ClusterSimulator`
drives, over a plain :class:`~repro.scheduler.cluster.Cluster` that
unions the shard clusters (sharing node objects, so both views stay
incrementally indexed).  The whole simulator machinery -- queueing,
completions, migration accounting, energy -- therefore works unchanged on
a federation.  The shard clusters are the only record of which shard owns
a node; the union holds no node -> shard map of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.core.seeding import SeedPolicy
from repro.federation.policy import (
    DEFAULT_SHARD_PROFILES,
    FederationConfig,
    ShardProfile,
    ShardScore,
    score_shards,
)
from repro.federation.shard import ClusterShard
from repro.scheduler.cluster import CapacitySnapshot, Cluster
from repro.scheduler.heats import HeatsConfig
from repro.scheduler.placement import Placement
from repro.scheduler.workload import TaskRequest


@dataclass
class FederationStats:
    """Routing telemetry accumulated by a federated scheduler."""

    placements_by_shard: Dict[str, int] = field(default_factory=dict)
    affinity_hits: int = 0
    affinity_misses: int = 0
    region_seeded: int = 0
    cross_shard_migrations: int = 0
    unplaced_requests: int = 0
    drain_migrations: int = 0
    affinity_rebalanced: int = 0

    @property
    def placements(self) -> int:
        """Total number of successful placements across all shards."""
        return sum(self.placements_by_shard.values())

    @property
    def affinity_hit_rate(self) -> float:
        """Fraction of pinned-tenant placements that stayed on the pin."""
        attempts = self.affinity_hits + self.affinity_misses
        return self.affinity_hits / attempts if attempts else 0.0

    def summary(self) -> Dict[str, object]:
        """A compact dict rendering of the routing telemetry.

        Returns:
            Placement counts per shard plus affinity and migration totals.
        """
        return {
            "placements_by_shard": dict(self.placements_by_shard),
            "affinity_hit_rate": round(self.affinity_hit_rate, 4),
            "affinity_hits": self.affinity_hits,
            "affinity_misses": self.affinity_misses,
            "region_seeded": self.region_seeded,
            "cross_shard_migrations": self.cross_shard_migrations,
            "unplaced_requests": self.unplaced_requests,
            "drain_migrations": self.drain_migrations,
            "affinity_rebalanced": self.affinity_rebalanced,
        }


class FederatedScheduler:
    """Two-level scheduler: shard selection, then in-shard HEATS placement."""

    name = "federated_heats"
    supports_rescheduling = True

    def __init__(
        self,
        shards: Sequence[ClusterShard],
        config: Optional[FederationConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Wire the shards into one scheduling domain.

        Args:
            shards: member shards; names and node names must be unique
                across the federation (each shard must be an independent
                cluster -- shared node objects across shards would corrupt
                both capacity indices).
            config: federation tunables; defaults to ``FederationConfig()``.
            metrics: optional telemetry bus; when given, the routing hot
                path emits O(1) signals (placements, unplaced attempts,
                queueing delay, per-tenant demand) the autoscale
                controller subscribes to.
        """
        if not shards:
            raise ValueError("a federation needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        self.shards: List[ClusterShard] = list(shards)
        self._by_name: Dict[str, ClusterShard] = {s.name: s for s in self.shards}
        self.config = config if config is not None else FederationConfig()
        seen: Set[str] = set()
        for shard in self.shards:
            for node in shard.cluster:
                if node.name in seen:
                    raise ValueError(
                        f"node {node.name!r} appears in more than one shard"
                    )
                seen.add(node.name)
        self._affinity: Dict[str, str] = {}
        self._tenant_regions: Dict[str, str] = {}
        self._draining: Set[str] = set()
        #: elastic control loop attached via Autoscaler; consulted at the
        #: top of every rescheduling pass when present.
        self.autoscaler = None
        self.federation_stats = FederationStats()
        self._perf_weight_total = self.config.cpu_weight + self.config.memory_weight
        self._energy_weight_total = self.config.thermal_weight + self.config.price_weight
        self._price_norm: Dict[str, float] = {}
        self._rebuild_price_norm()
        # shard name -> (capacity snapshot, price norm, perf pressure,
        # energy pressure): a shard's pressures only move when its
        # memoised snapshot is replaced or its price is re-normalised.
        self._pressures: Dict[str, Tuple[CapacitySnapshot, float, float, float]] = {}
        # Hot-path instruments are bound once here; recording is a float
        # add / ring write per event, never a registry lookup.
        self.metrics = metrics
        if metrics is not None:
            self._m_place_calls = metrics.counter("router.place_calls")
            self._m_placements = metrics.counter("router.placements")
            self._m_unplaced = metrics.counter("router.unplaced")
            self._m_queue_delay = metrics.histogram("router.queue_delay_s")
            self._m_demand: Dict[str, object] = {}
        else:
            self._m_place_calls = None
            self._m_placements = None
            self._m_unplaced = None
            self._m_queue_delay = None
            self._m_demand = {}

    def _rebuild_price_norm(self) -> None:
        """Re-normalise regional prices; runs on every membership change.

        Prices are normalised against the *current* member shards, so the
        shard score stays in [0, 1] as shards come and go.
        """
        max_price = max(s.profile.energy_price_per_kwh for s in self.shards)
        self._price_norm = {
            s.name: s.profile.energy_price_per_kwh / max_price for s in self.shards
        }

    # ------------------------------------------------------------------ #
    # Elastic shard membership
    # ------------------------------------------------------------------ #
    def add_shard(self, shard: ClusterShard) -> None:
        """Admit a new shard into the scheduling domain (scale-up).

        Args:
            shard: the joining shard; its name and node names must be
                unique across the federation.
        """
        if shard.name in self._by_name:
            raise ValueError(f"shard {shard.name!r} is already a member")
        for node in shard.cluster:
            if any(node.name in member.cluster for member in self.shards):
                raise ValueError(f"node {node.name!r} appears in more than one shard")
        self.shards.append(shard)
        self._by_name[shard.name] = shard
        self._rebuild_price_norm()

    def remove_shard(self, name: str) -> ClusterShard:
        """Retire a fully drained shard (scale-down, last step).

        The drain protocol is: :meth:`begin_drain` (stop routing to the
        shard, rebalance pinned tenants away), let rescheduling passes
        migrate its running tasks out, then remove once empty.  Removing a
        shard that still hosts tasks is refused -- that is exactly the
        request-loss bug the drain hook exists to prevent.

        Args:
            name: the shard to retire.

        Returns:
            The detached shard.
        """
        shard = self.shard(name)
        if len(self.shards) == 1:
            raise ValueError("a federation needs at least one shard")
        if shard.has_running_tasks():
            raise ValueError(
                f"shard {name!r} still hosts running tasks; drain it first"
            )
        self.shards.remove(shard)
        del self._by_name[name]
        self._draining.discard(name)
        self._pressures.pop(name, None)
        # Any pin still pointing at the removed shard would silently count
        # an affinity miss per request forever; drop the stale pins.
        for tenant, pinned in list(self._affinity.items()):
            if pinned == name:
                del self._affinity[tenant]
        self._rebuild_price_norm()
        return shard

    def begin_drain(self, name: str) -> None:
        """Mark a shard draining: no new placements, pins rebalanced away.

        Queued (not yet placed) requests stop routing to the shard from
        this call on; running placements are migrated out by the following
        rescheduling passes, and :meth:`remove_shard` completes the
        scale-down once the shard is empty.

        Args:
            name: the shard to drain.
        """
        shard = self.shard(name)
        active = [s for s in self.shards if s.name not in self._draining]
        if len(active) <= 1 and shard.name in {s.name for s in active}:
            raise ValueError("cannot drain the last active shard")
        self._draining.add(name)
        self.rebalance_affinity(name)

    def cancel_drain(self, name: str) -> None:
        """Un-retire a draining shard (scale-up pressure mid-drain).

        The shard immediately rejoins the routing order; tenants re-pin to
        it organically as their traffic lands there again.

        Args:
            name: the draining shard to reinstate.
        """
        if name not in self._draining:
            raise ValueError(f"shard {name!r} is not draining")
        self._draining.discard(name)

    def is_draining(self, name: str) -> bool:
        """Whether a shard is currently draining.

        Args:
            name: shard name.

        Returns:
            True between :meth:`begin_drain` and :meth:`remove_shard`.
        """
        return name in self._draining

    @property
    def draining_shards(self) -> List[str]:
        """Names of shards currently draining."""
        return sorted(self._draining)

    def rebalance_affinity(self, from_shard: str) -> int:
        """Re-pin tenants away from a shard about to be retired.

        Each affected tenant moves to the best-scoring non-draining shard
        (neutral energy weight: no request is in hand), so its next
        request routes straight to the new home instead of paying an
        affinity miss against a vanishing pin.

        Args:
            from_shard: the shard whose pins are being evacuated.

        Returns:
            Number of tenants re-pinned.
        """
        targets = [
            shard
            for shard in self.shards
            if shard.name != from_shard and shard.name not in self._draining
        ]
        # Re-pinning does not change any shard's score, so one ranking
        # serves every evacuated tenant.
        best = (
            min(targets, key=lambda shard: (self._shard_score(shard, 0.5), shard.name))
            if targets
            else None
        )
        moved = 0
        for tenant, pinned in list(self._affinity.items()):
            if pinned != from_shard:
                continue
            if best is not None:
                self._affinity[tenant] = best.name
            else:
                del self._affinity[tenant]
            moved += 1
        self.federation_stats.affinity_rebalanced += moved
        return moved

    # ------------------------------------------------------------------ #
    # Tenant affinity
    # ------------------------------------------------------------------ #
    def register_tenant_region(self, tenant: str, region: str) -> None:
        """Seed a tenant's shard affinity from a preferred energy region.

        Args:
            tenant: tenant name as it appears on task requests.
            region: region name matched against the shard profiles; the
                first matching shard becomes the tenant's initial pin.
        """
        self._tenant_regions[tenant] = region

    def affinity_shard(self, tenant: str) -> Optional[str]:
        """The shard a tenant is currently pinned to, if any.

        Args:
            tenant: tenant name.

        Returns:
            The pinned shard's name, or None when the tenant is unpinned.
        """
        return self._affinity.get(tenant)

    def _region_shard(self, tenant: str) -> Optional[ClusterShard]:
        region = self._tenant_regions.get(tenant)
        if region is None:
            return None
        for shard in self.shards:
            if shard.profile.region == region:
                return shard
        return None

    def _shard_score(self, shard: ClusterShard, energy_weight: float) -> float:
        """The aggregate shard score without building score objects.

        Same formula as :func:`~repro.federation.policy.score_shards`, but
        kept allocation-free (it runs once per shard per placement) and
        with prices normalised against *all* member shards -- every
        routing decision (placement and migration) therefore scores a
        shard identically for identical cluster state, regardless of
        which subset of shards is under consideration.
        """
        capacity = shard.cluster.capacity()
        price = self._price_norm[shard.name]
        memo = self._pressures.get(shard.name)
        if memo is None or memo[0] is not capacity or memo[1] != price:
            config = self.config
            perf_pressure = (
                config.cpu_weight * (1.0 - capacity.free_core_fraction)
                + config.memory_weight * (1.0 - capacity.free_memory_fraction)
            ) / self._perf_weight_total
            energy_pressure = (
                config.thermal_weight * (1.0 - capacity.thermal_headroom)
                + config.price_weight * price
            ) / self._energy_weight_total
            memo = (capacity, price, perf_pressure, energy_pressure)
            self._pressures[shard.name] = memo
        return (1.0 - energy_weight) * memo[2] + energy_weight * memo[3]

    def _routing_order(
        self, request: TaskRequest
    ) -> Tuple[Iterator[ClusterShard], Optional[str]]:
        """Shards to try in order, plus the tenant's pinned shard name.

        The tenant's preferred shard (its unsaturated pin, or the shard
        its region seeds) comes first; the other shards follow best score
        first.  The order is lazy, so a preferred shard that hosts the
        request spares scoring the rest.  Draining shards are excluded
        outright: anything not yet placed (queued requests included) must
        land on a shard that will still exist when the task finishes.
        """
        pinned: Optional[str] = None
        preferred: Optional[ClusterShard] = None
        if request.tenant is not None and self.config.sticky_affinity:
            pinned = self._affinity.get(request.tenant)
            if pinned is not None and pinned not in self._draining:
                shard = self._by_name[pinned]
                if not shard.is_saturated(self.config.saturation_free_core_fraction):
                    preferred = shard
            elif pinned is None:
                seeded = self._region_shard(request.tenant)
                if (
                    seeded is not None
                    and seeded.name not in self._draining
                    and not seeded.is_saturated(
                        self.config.saturation_free_core_fraction
                    )
                ):
                    preferred = seeded
                    self.federation_stats.region_seeded += 1
        return self._shards_in_order(preferred, request.energy_weight), pinned

    def _shards_in_order(
        self, preferred: Optional[ClusterShard], energy_weight: float
    ) -> Iterator[ClusterShard]:
        if preferred is not None:
            yield preferred
        candidates = (
            [s for s in self.shards if s.name not in self._draining]
            if self._draining
            else self.shards
        )
        # Shard names are unique, so the shard itself is never compared.
        ranked = sorted(
            (self._shard_score(shard, energy_weight), shard.name, shard)
            for shard in candidates
        )
        for _, name, shard in ranked:
            if preferred is None or name != preferred.name:
                yield shard

    # ------------------------------------------------------------------ #
    # SchedulerProtocol: placement
    # ------------------------------------------------------------------ #
    def place(self, request: TaskRequest, cluster: Cluster, time_s: float) -> Optional[str]:
        """Pick a node for a request: shard first, then HEATS inside it.

        Args:
            request: the task to place.
            cluster: the federated (union) cluster the simulator drives;
                placement itself descends into the shard clusters.
            time_s: simulation time of the placement attempt.

        Returns:
            The chosen node name, or None when no shard can host the
            request right now.
        """
        if self._m_place_calls is not None:
            self._m_place_calls.inc()
            if request.tenant is not None:
                demand = self._m_demand.get(request.tenant)
                if demand is None:
                    demand = self.metrics.counter(f"router.demand.{request.tenant}")
                    self._m_demand[request.tenant] = demand
                demand.inc()
        order, pinned = self._routing_order(request)
        for shard in order:
            # Aggregate pre-check only: a shard with fewer free cores (or
            # less free memory) in total than requested can never host, so
            # skip it without touching its node index.
            capacity = shard.cluster.capacity()
            if capacity.free_cores < request.cores or (
                capacity.free_memory_gib < request.memory_gib
            ):
                continue
            node = shard.scheduler.place(request, shard.cluster, time_s)
            if node is None:
                continue
            stats = self.federation_stats
            stats.placements_by_shard[shard.name] = (
                stats.placements_by_shard.get(shard.name, 0) + 1
            )
            if request.tenant is not None:
                if pinned is not None:
                    if shard.name == pinned:
                        stats.affinity_hits += 1
                    else:
                        stats.affinity_misses += 1
                # (Re-)pin so the tenant's next request follows its traffic.
                self._affinity[request.tenant] = shard.name
            if self._m_placements is not None:
                self._m_placements.inc()
                self._m_queue_delay.record(max(0.0, time_s - request.arrival_s))
            return node
        self.federation_stats.unplaced_requests += 1
        if self._m_unplaced is not None:
            self._m_unplaced.inc()
        return None

    # ------------------------------------------------------------------ #
    # SchedulerProtocol: rescheduling / cross-shard migration
    # ------------------------------------------------------------------ #
    def reschedule(
        self,
        running: Sequence[Placement],
        cluster: Cluster,
        time_s: float,
    ) -> List[Tuple[str, str]]:
        """Elastic control, drain evacuation, then the usual rebalancing.

        Four stages per pass:

        1. when an autoscaler is attached, it observes the telemetry
           signals and may mutate the topology (add shards, begin drains,
           grow/shrink nodes, retire empty draining shards);
        2. each *non-draining* shard's own scheduler proposes its usual
           in-shard migrations;
        3. every draining shard evacuates up to
           ``drain_migrations_per_cycle`` running tasks into non-draining
           shards (the drain hook: a shard is only removable once this
           emptied it, so scale-down can never lose a placed request);
        4. every saturated shard drains up to ``max_migrations_per_cycle``
           tasks into shards with migration headroom.

        Args:
            running: all running placements across the federation.
            cluster: the federated cluster (unused; shards are authoritative).
            time_s: simulation time of the rescheduling pass.

        Returns:
            (task_id, target_node) pairs; target nodes may live in a
            different shard than the task's current host.
        """
        if self.autoscaler is not None:
            self.autoscaler.control(time_s, running)
        decisions: List[Tuple[str, str]] = []
        moved: Set[str] = set()
        by_shard: Dict[str, List[Placement]] = {}
        for placement in running:
            by_shard.setdefault(self.shard_of_node(placement.node), []).append(placement)

        for shard in self.shards:
            if shard.name in self._draining:
                # In-shard moves on a vanishing shard are pure churn; the
                # drain stage below moves these tasks out instead.
                continue
            group = by_shard.get(shard.name, [])
            if not group:
                continue
            for task_id, target in shard.scheduler.reschedule(
                group, shard.cluster, time_s
            ):
                decisions.append((task_id, target))
                moved.add(task_id)

        # Planned-load overlay: target selection does not reserve anything,
        # so without it every drain decision in one pass would pick the
        # same (currently emptiest) node and all but the first would be
        # dropped by the placement engine -- overcounting the stats and
        # under-draining the shard.
        planned: Dict[str, Tuple[int, float]] = {}

        def fits_with_planned(node, cores: int, memory_gib: float) -> bool:
            planned_cores, planned_memory = planned.get(node.name, (0, 0.0))
            return node.available.fits(cores + planned_cores, memory_gib + planned_memory)

        def evacuate(shard: ClusterShard, budget: int, draining: bool) -> None:
            """Move tasks off a shard into the best other shards."""
            candidates = [
                placement
                for placement in by_shard.get(shard.name, [])
                if placement.request.task_id not in moved
            ]
            if not candidates:
                return
            # Cheapest-to-move first: migration downtime grows with the
            # task's memory footprint.
            candidates.sort(key=lambda p: (p.request.memory_gib, p.request.task_id))
            for placement in candidates:
                if budget <= 0:
                    break
                request = placement.request
                targets = sorted(
                    (
                        other
                        for other in self.shards
                        if other.name != shard.name
                        and other.name not in self._draining
                        and (
                            # A drain evacuates wherever there is room; the
                            # saturation rebalancer additionally demands
                            # real headroom so it does not just move the
                            # hot spot around.
                            draining
                            or other.capacity().free_core_fraction
                            >= self.config.migration_headroom_fraction
                        )
                    ),
                    # Rank with the same federation-wide score placement
                    # uses, so migration and placement agree on shard
                    # preference for identical cluster state.
                    key=lambda other: (
                        self._shard_score(other, request.energy_weight),
                        other.name,
                    ),
                )
                if not targets:
                    break
                for target_shard in targets:
                    nodes = [
                        node
                        for node in target_shard.cluster.feasible_nodes(
                            request.cores, request.memory_gib
                        )
                        if fits_with_planned(node, request.cores, request.memory_gib)
                    ]
                    scored = target_shard.scheduler.score_candidates(request, nodes)
                    if not scored:
                        continue
                    node_name = scored[0].node
                    planned_cores, planned_memory = planned.get(node_name, (0, 0.0))
                    planned[node_name] = (
                        planned_cores + request.cores,
                        planned_memory + request.memory_gib,
                    )
                    decisions.append((request.task_id, node_name))
                    moved.add(request.task_id)
                    if draining:
                        self.federation_stats.drain_migrations += 1
                    else:
                        self.federation_stats.cross_shard_migrations += 1
                    budget -= 1
                    break

        for name in sorted(self._draining):
            evacuate(self._by_name[name], self.config.drain_migrations_per_cycle, True)

        for shard in self.shards:
            if shard.name in self._draining:
                continue
            if not shard.is_saturated(self.config.saturation_free_core_fraction):
                continue
            evacuate(shard, self.config.max_migrations_per_cycle, False)
        return decisions

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shard(self, name: str) -> ClusterShard:
        """Look up a member shard by name.

        Args:
            name: shard name.

        Returns:
            The shard.
        """
        if name not in self._by_name:
            raise KeyError(f"no shard named {name!r}")
        return self._by_name[name]

    def shard_of_node(self, node_name: str) -> str:
        """Name of the shard owning a node.

        The shard clusters are the only record of membership, so this asks
        each of them in turn (a dict lookup per shard).

        Args:
            node_name: node of any member shard.

        Returns:
            The owning shard's name.
        """
        for shard in self.shards:
            if node_name in shard.cluster:
                return shard.name
        raise KeyError(f"no shard owns node {node_name!r}")


class Federation:
    """A built federation: shards, union cluster, scheduler, elastic topology.

    Topology plus routing only: serving goes through
    :class:`~repro.api.backend.Backend`, which keeps one federation warm
    across many serving runs and resets its per-run routing stats.
    """

    def __init__(
        self,
        shards: Sequence[ClusterShard],
        config: Optional[FederationConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Assemble a federation from pre-built shards.

        Args:
            shards: member shards with federation-unique node names.
            config: federation tunables; defaults to ``FederationConfig()``.
            metrics: optional telemetry bus shared by the router (and,
                when served through a backend, the gateway and batcher hot
                paths).
        """
        self.metrics = metrics
        self.scheduler = FederatedScheduler(shards, config=config, metrics=metrics)
        #: the union of the shard clusters, sharing their node objects so a
        #: reservation through either view updates both capacity indices.
        #: The simulator and placement engine drive this view; which shard
        #: owns a node is asked of the shards (``scheduler.shard_of_node``).
        self.cluster = Cluster(
            node for shard in self.scheduler.shards for node in shard.cluster
        )
        # Build parameters for shards added later by the autoscaler; the
        # defaults match ClusterShard.build and are overridden by build().
        self.seed_policy = SeedPolicy()
        self.default_shard_scale = 1
        self.default_heats_config: Optional[HeatsConfig] = None
        self.default_use_score_cache = True
        self.default_cache_capacity: Optional[int] = None
        self.profile_catalogue: Tuple[ShardProfile, ...] = DEFAULT_SHARD_PROFILES
        self.next_shard_index = len(self.scheduler.shards)

    @property
    def shards(self) -> List[ClusterShard]:
        """The current member shards (the scheduler's list is authoritative)."""
        return self.scheduler.shards

    @classmethod
    def build(
        cls,
        num_shards: int = 2,
        shard_scale: int = 1,
        heats_config: Optional[HeatsConfig] = None,
        federation_config: Optional[FederationConfig] = None,
        use_score_cache: bool = True,
        seed: int = 7,
        profiles: Optional[Sequence[ShardProfile]] = None,
        metrics: Optional["MetricsRegistry"] = None,
        seed_policy: Optional[SeedPolicy] = None,
        cache_capacity: Optional[int] = None,
    ) -> "Federation":
        """Build a federation of HEATS testbed shards.

        Every shard gets an independent profiling seed (shard ``i``
        profiles with ``seed_policy.shard_seed(i)``) and its own copy of
        the scheduler config, so no RNG stream, config object, or cache
        is ever shared between shards.

        Args:
            num_shards: number of member shards.
            shard_scale: ``heats_testbed`` scale per shard (4 * scale nodes
                each).
            heats_config: node-level scheduler tunables, copied per shard.
            federation_config: shard-selection / migration tunables.
            use_score_cache: attach a per-shard prediction-score cache.
            seed: federation-level base seed; ignored when ``seed_policy``
                is given, otherwise wrapped as ``SeedPolicy(base=seed)``.
            profiles: regional profiles; defaults to cycling
                ``DEFAULT_SHARD_PROFILES``.
            metrics: optional telemetry bus for the routing hot path.
            seed_policy: the deployment-wide seed-derivation rules.
            cache_capacity: LRU bound of each shard's score cache; None
                keeps the cache default.

        Returns:
            The built :class:`Federation`.
        """
        if num_shards <= 0:
            raise ValueError("a federation needs at least one shard")
        if shard_scale <= 0:
            raise ValueError("shard scale must be positive")
        policy = seed_policy if seed_policy is not None else SeedPolicy(base=seed)
        catalogue = tuple(profiles) if profiles else DEFAULT_SHARD_PROFILES
        profile_cycle = itertools.cycle(catalogue)
        shards = [
            ClusterShard.build(
                index,
                next(profile_cycle),
                scale=shard_scale,
                heats_config=heats_config,
                use_score_cache=use_score_cache,
                metrics=metrics,
                seed_policy=policy,
                cache_capacity=cache_capacity,
            )
            for index in range(num_shards)
        ]
        federation = cls(shards, config=federation_config, metrics=metrics)
        federation.seed_policy = policy
        federation.default_shard_scale = shard_scale
        federation.default_heats_config = heats_config
        federation.default_use_score_cache = use_score_cache
        federation.default_cache_capacity = cache_capacity
        federation.profile_catalogue = catalogue
        return federation

    @property
    def stats(self) -> FederationStats:
        """The scheduler's routing telemetry."""
        return self.scheduler.federation_stats

    # ------------------------------------------------------------------ #
    # Elastic topology (the autoscaler's actuation surface)
    # ------------------------------------------------------------------ #
    @property
    def total_nodes(self) -> int:
        """Current node count across all member shards."""
        return len(self.cluster)

    def add_shard(self, shard: Optional[ClusterShard] = None) -> ClusterShard:
        """Admit a shard, keeping scheduler and union cluster in lockstep.

        Args:
            shard: a pre-built shard; when None, a new one is built with
                the federation's build parameters (next profile in the
                catalogue, derived seed, config copy).

        Returns:
            The admitted shard.
        """
        if shard is None:
            profile = self.profile_catalogue[
                self.next_shard_index % len(self.profile_catalogue)
            ]
            shard = ClusterShard.build(
                self.next_shard_index,
                profile,
                scale=self.default_shard_scale,
                heats_config=self.default_heats_config,
                use_score_cache=self.default_use_score_cache,
                metrics=self.metrics,
                seed_policy=self.seed_policy,
                cache_capacity=self.default_cache_capacity,
            )
        self.scheduler.add_shard(shard)
        for node in shard.cluster:
            self.cluster.add_node(node)
        self.next_shard_index += 1
        return shard

    def begin_drain(self, shard_name: str) -> None:
        """Start retiring a shard: reroute, rebalance pins, evacuate.

        Args:
            shard_name: the shard to drain.
        """
        self.scheduler.begin_drain(shard_name)

    def cancel_drain(self, shard_name: str) -> None:
        """Reinstate a draining shard.

        Args:
            shard_name: the draining shard to bring back into routing.
        """
        self.scheduler.cancel_drain(shard_name)

    def finalize_drain(self, shard_name: str) -> Optional[ClusterShard]:
        """Remove a draining shard once it is empty.

        Args:
            shard_name: the draining shard.

        Returns:
            The removed shard, or None while it still hosts tasks (call
            again after further rescheduling passes).
        """
        shard = self.scheduler.shard(shard_name)
        if shard.has_running_tasks():
            return None
        removed = self.scheduler.remove_shard(shard_name)
        for node in removed.cluster:
            self.cluster.remove_node(node.name)
        return removed

    def grow_node(self, shard_name: str, model: str) -> str:
        """Grow one node inside a shard (profiled before it is placeable).

        Args:
            shard_name: the shard to grow.
            model: microserver catalogue model for the new node.

        Returns:
            The new node's name.
        """
        node = self.scheduler.shard(shard_name).grow_node(model)
        self.cluster.add_node(node)
        return node.name

    def shrink_node(self, shard_name: str, node_name: Optional[str] = None) -> Optional[str]:
        """Remove one idle node from a shard.

        Args:
            shard_name: the shard to shrink.
            node_name: the node to remove; when None, a fully idle node is
                chosen: while the shard holds grown nodes, only those, the
                latest grown first; otherwise the last idle node in the
                shard's capacity index.

        Returns:
            The removed node's name, or None when the shard has no such
            idle node (or only one node) to give up.
        """
        shard = self.scheduler.shard(shard_name)
        if node_name is None:
            idle = [node.name for node in shard.cluster.idle_nodes()]
            if shard.grown:
                # Elastic growth is undone before the shard's original
                # build population is touched, even when a grown node is
                # busy and an original one idle.
                idle_names = set(idle)
                idle = [name for name in shard.grown if name in idle_names]
            if not idle or len(shard.cluster) <= 1:
                return None
            node_name = idle[-1]
        # Shard first: it validates membership, idleness, and the
        # one-node floor before anything is mutated; only then does the
        # union view (which cannot fail on a node the shard just released)
        # drop it, so an invalid request never leaves the shard and the
        # union disagreeing about the node.
        shard.release_node(node_name)
        self.cluster.remove_node(node_name)
        return node_name

    def reprice_shard(self, shard_name: str, energy_price_per_kwh: float) -> float:
        """Change one shard's regional energy price mid-run.

        Models a regional price event (a spike or its restore): the
        shard's frozen profile is replaced and the scheduler's price
        normalisation rebuilt, so routing immediately reflects the new
        price.  The chaos layer's ``price_spike`` injection drives this.

        Args:
            shard_name: the shard whose region repriced.
            energy_price_per_kwh: the new price (must be positive).

        Returns:
            The previous price, for a later restore.
        """
        if energy_price_per_kwh <= 0:
            raise ValueError("energy price must be positive")
        shard = self.scheduler.shard(shard_name)
        previous = shard.profile.energy_price_per_kwh
        shard.profile = replace(
            shard.profile, energy_price_per_kwh=energy_price_per_kwh
        )
        self.scheduler._rebuild_price_norm()
        return previous

    def shard_scores(self, energy_weight: float = 0.5) -> List[ShardScore]:
        """Current shard ranking for a given energy weight.

        Args:
            energy_weight: energy/performance trade-off in [0, 1].

        Returns:
            Shard scores sorted best first.
        """
        return score_shards(self.shards, energy_weight, self.scheduler.config)

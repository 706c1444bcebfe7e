"""The serving backend: one build step, one serve path, three shapes.

The shape is decided *once*, from the validated spec: a single HEATS
cluster when ``topology.shards == 1`` and autoscaling is off, otherwise a
:class:`~repro.federation.federation.Federation`, with an
:class:`~repro.autoscale.controller.Autoscaler` attached when
``autoscale.enabled``.  The :class:`Backend` owns the warm state
(profiled prediction models, score caches, tenant affinity, telemetry
registry, elastically grown topology) and serves any number of workloads
against it through the one gateway -> serving-loop wiring.
:class:`~repro.api.deployment.Deployment` holds exactly one backend for
its whole lifetime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.api.spec import DeploymentSpec
from repro.federation.federation import Federation, FederationStats
from repro.federation.policy import FederationConfig
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.serving.cache import PredictionScoreCache
from repro.serving.gateway import RequestGateway
from repro.serving.loop import ServingLoop, ServingReport, ServingWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.controller import Autoscaler
    from repro.serving.batching import BatchPolicy
    from repro.telemetry.profile import PhaseProfiler
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.trace import Tracer


class Backend:
    """One built topology -- cluster or federation -- serving many workloads.

    The *topology* is session-warm: models, caches, affinity pins, and
    nodes or shards grown through one workload's spike are still there
    for the next workload.  Per-run state is rebuilt on every serve: the
    gateway, batcher and SLA tracker, the federation's routing stats, and
    (after the first run) the autoscale controller, whose cooldown clocks,
    node-second accounting and audit trail all restart at simulation time
    zero.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        profiler: Optional["PhaseProfiler"] = None,
    ) -> None:
        """Build the topology (one profiling campaign per cluster or shard).

        Args:
            spec: a *validated* deployment spec.
            metrics: the deployment's telemetry bus, wired through the
                placement, routing, admission and batching hot paths; None
                when telemetry is disabled (an autoscaled spec always
                carries one -- validation enforces it).
            tracer: optional request-scoped tracer threaded into every
                serving run and the controller's actuation events (None
                or disabled costs nothing).
            profiler: optional host-time phase profiler threaded into
                every serving run, the router and the controller (None or
                disabled costs nothing).
        """
        self.spec = spec
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        #: backend shape name shown in snapshots.
        self.name = (
            "autoscaled"
            if spec.autoscale.enabled
            else "federated" if spec.topology.shards > 1 else "single"
        )
        self.federation: Optional[Federation] = None
        self.autoscaler: Optional["Autoscaler"] = None
        self._runs = 0
        if self.name == "single":
            self.cluster = Cluster.heats_testbed(scale=spec.topology.cluster_scale)
            self.scheduler = HeatsScheduler.with_learned_models(
                self.cluster,
                config=spec.scheduler.to_heats_config(),
                noise_fraction=spec.scheduler.profiling_noise_fraction,
                seed=spec.topology.seed.shard_seed(0),
                score_cache=(
                    PredictionScoreCache(capacity=spec.scheduler.score_cache_capacity)
                    if spec.scheduler.score_cache
                    else None
                ),
                metrics=metrics,
            )
            return
        # The federation heartbeat is the scheduler's rescheduling
        # interval, or the control interval when a controller rides on it.
        heartbeat_s = (
            spec.autoscale.control_interval_s
            if spec.autoscale.enabled
            else spec.scheduler.rescheduling_interval_s
        )
        self.federation = Federation.build(
            num_shards=spec.topology.shards,
            shard_scale=spec.topology.scale_per_shard,
            heats_config=spec.scheduler.to_heats_config(),
            federation_config=FederationConfig(rescheduling_interval_s=heartbeat_s),
            use_score_cache=spec.scheduler.score_cache,
            metrics=metrics,
            seed_policy=spec.topology.seed,
            cache_capacity=spec.scheduler.score_cache_capacity,
        )
        if profiler is not None and profiler.enabled:
            # The router records its routing phase directly; attached the
            # same way the autoscaler attaches itself to the scheduler.
            self.federation.scheduler.attach_profiler(profiler)
        if spec.autoscale.enabled:
            self.autoscaler = self._new_autoscaler()

    def _new_autoscaler(self) -> "Autoscaler":
        from repro.autoscale.controller import Autoscaler

        return Autoscaler(
            self.federation,
            config=self.spec.autoscale.to_config(),
            tracer=self.tracer,
            profiler=self.profiler,
        )

    def serve(
        self, workload: ServingWorkload, batch_policy: Optional["BatchPolicy"] = None
    ) -> ServingReport:
        """Serve one workload against the warm topology.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional override of the spec's batching knobs.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run,
            with this run's routing telemetry in ``federation_stats`` and
            elastic history in ``autoscale_report`` where they apply.

        Raises:
            RuntimeError: when tasks of another run still hold cores.
        """
        # Read at serve time: a chaos session swaps the scheduler on its
        # host (the federation, or this backend) for one call.
        host = self.federation if self.federation is not None else self
        capacity = host.cluster.capacity()
        # A completed simulation releases every reservation, so a busy
        # cluster means two runs are being interleaved on shared state.
        if capacity.free_cores != capacity.total_cores:
            raise RuntimeError(
                f"the {self.name} backend still hosts running tasks from a "
                "previous run; serve runs back-to-back, not interleaved"
            )
        if self.autoscaler is not None and self._runs > 0:
            # Rebase so the previous run's counter totals do not read as
            # one giant first-tick delta.
            self.autoscaler = self._new_autoscaler()
            self.autoscaler.rebase_counters()
        self._runs += 1
        if self.federation is not None:
            # Routing telemetry is per run: the warm caches and pins carry
            # over, the counters must not.
            host.scheduler.federation_stats = FederationStats()
            for tenant in workload.tenants:
                if tenant.region is not None:
                    host.scheduler.register_tenant_region(tenant.name, tenant.region)
        loop = ServingLoop(
            host.cluster,
            host.scheduler,
            RequestGateway(workload.tenants, metrics=self.metrics),
            batch_policy=(
                batch_policy
                if batch_policy is not None
                else self.spec.serving.to_batch_policy()
            ),
            flush_tick_s=self.spec.serving.flush_tick_s,
            metrics=self.metrics,
            tracer=self.tracer,
            profiler=self.profiler,
        )
        return loop.run(workload.requests)

    def topology(self) -> Dict[str, object]:
        """The backend's *current* topology (elastic changes included).

        Returns:
            Backend shape and total nodes; the cluster scale for a single
            cluster, or one entry per member shard for a federation, plus
            the controller's shard/node bounds when autoscaled.
        """
        if self.federation is None:
            return {
                "backend": self.name,
                "total_nodes": len(self.cluster),
                "cluster_scale": self.spec.topology.cluster_scale,
            }
        described: Dict[str, object] = {
            "backend": self.name,
            "total_nodes": self.federation.total_nodes,
            "shards": [
                {
                    "name": shard.name,
                    "nodes": len(shard.cluster),
                    "region": shard.profile.region,
                    "energy_price_per_kwh": shard.profile.energy_price_per_kwh,
                    "seed": shard.seed,
                }
                for shard in self.federation.shards
            ],
        }
        if self.autoscaler is not None:
            config = self.autoscaler.config
            described["bounds"] = {
                "min_shards": config.min_shards,
                "max_shards": config.max_shards,
                "min_nodes_per_shard": config.min_nodes_per_shard,
                "max_nodes_per_shard": config.max_nodes_per_shard,
            }
        return described

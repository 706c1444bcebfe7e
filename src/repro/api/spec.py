"""The declarative deployment spec: one validated tree, whole stack.

:class:`DeploymentSpec` is the whole serving configuration (it replaced
the kwarg surface of ``LegatoSystem.serve/federate/autoscaler``, removed
in 1.6) in the shape production schedulers are actually driven by: a
frozen, serialisable tree of sections --

* :class:`TopologySpec`  -- shard count, cluster scale, seed policy;
* :class:`SchedulerSpec` -- HEATS tunables plus the prediction-score cache;
* :class:`ServingSpec`   -- batching and serving-loop cadence;
* :class:`AutoscaleSpec` -- the elastic control loop's knobs;
* :class:`TelemetrySpec` -- the metrics bus wiring;

-- with ``to_dict()/from_dict()`` plus lossless JSON and TOML round-trips,
cross-section validation that reports *all* problems with their spec
paths (not just the first), and :meth:`DeploymentSpec.preset` factories
for the three canonical backend shapes.

Sections deliberately do **not** raise in ``__post_init__``: a spec read
from a config file should surface every mistake at once through
:meth:`DeploymentSpec.validate` / :meth:`DeploymentSpec.check` rather
than one ``ValueError`` per edit-reload cycle.  (The exception is
:class:`~repro.core.seeding.SeedPolicy`, whose invariants other layers
rely on at construction time.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, get_type_hints

from repro.api.serialization import dumps_json, dumps_toml, loads_json, loads_toml
from repro.autoscale.policy import AutoscaleConfig
from repro.core.seeding import SeedPolicy
from repro.hardware.microserver import MICROSERVER_CATALOG
from repro.scheduler.heats import HeatsConfig
from repro.serving.batching import BatchPolicy


@dataclass(frozen=True)
class SpecIssue:
    """One validation problem, anchored to its path in the spec tree."""

    path: str
    message: str

    def __str__(self) -> str:
        """Render as ``path: message`` for error listings.

        Returns:
            The human-readable one-line form.
        """
        return f"{self.path}: {self.message}"


class SpecValidationError(ValueError):
    """A spec failed validation; carries *every* issue, path-tagged.

    Subclasses :class:`ValueError` so call sites that guarded the old
    kwarg facade with ``except ValueError`` keep working unchanged.
    """

    def __init__(self, issues: List[SpecIssue]) -> None:
        """Bundle the collected issues into one raisable error.

        Args:
            issues: every problem found, in spec-tree order.
        """
        self.issues = list(issues)
        lines = "\n".join(f"  - {issue}" for issue in self.issues)
        super().__init__(
            f"deployment spec has {len(self.issues)} problem(s):\n{lines}"
        )


@dataclass(frozen=True)
class TopologySpec:
    """Where the deployment runs: shards, scale, and seed derivation.

    Args:
        cluster_scale: total ``heats_testbed`` scale across the whole
            deployment (4 * scale nodes); must divide evenly by
            ``shards`` so shards are equally sized.
        shards: number of federation shards; 1 selects the
            single-cluster backend (unless autoscaling turns the
            deployment into a one-shard federation).
        seed: the :class:`~repro.core.seeding.SeedPolicy` every RNG
            stream in the deployment derives from.
    """

    cluster_scale: int = 1
    shards: int = 1
    seed: SeedPolicy = field(default_factory=SeedPolicy)

    @property
    def scale_per_shard(self) -> int:
        """``heats_testbed`` scale of each shard (total scale / shards)."""
        return self.cluster_scale // self.shards

    @property
    def total_nodes(self) -> int:
        """Node count the topology starts with (4 nodes per scale unit)."""
        return 4 * self.cluster_scale

    def validate(self, path: str = "topology") -> List[SpecIssue]:
        """Collect every problem with this section.

        Args:
            path: spec path prefix used in reported issues.

        Returns:
            All issues found (empty when the section is valid).
        """
        issues: List[SpecIssue] = []
        if self.cluster_scale < 1:
            issues.append(SpecIssue(f"{path}.cluster_scale", "must be >= 1"))
        if self.shards < 1:
            issues.append(SpecIssue(f"{path}.shards", "must be >= 1"))
        if self.cluster_scale >= 1 and self.shards >= 1 and self.cluster_scale % self.shards:
            issues.append(
                SpecIssue(
                    f"{path}.cluster_scale",
                    f"must be divisible by shards ({self.shards}) so shards "
                    "are equally sized",
                )
            )
        return issues


@dataclass(frozen=True)
class SchedulerSpec:
    """HEATS tunables plus the prediction-score cache on the hot path.

    Args:
        rescheduling_interval_s: cadence of the migration/rebalancing
            pass -- the in-shard HEATS cadence on a single cluster, the
            federation heartbeat on a sharded one (an enabled autoscaler
            overrides it with its control interval).
        migration_improvement_threshold: hysteresis margin a candidate
            node must beat the current host by before a migration.
        default_energy_weight: energy/performance blend used when a
            request carries no tenant weight.
        score_cache: attach prediction-score cache(s) to the scoring hot
            path (one per shard on a federation).
        score_cache_capacity: LRU entry bound of each score cache.
        profiling_noise_fraction: measurement noise of the profiling
            campaigns the prediction models are learned from.
    """

    rescheduling_interval_s: float = 60.0
    migration_improvement_threshold: float = 0.15
    default_energy_weight: float = 0.5
    score_cache: bool = True
    score_cache_capacity: int = 4096
    profiling_noise_fraction: float = 0.05

    def validate(self, path: str = "scheduler") -> List[SpecIssue]:
        """Collect every problem with this section.

        Args:
            path: spec path prefix used in reported issues.

        Returns:
            All issues found (empty when the section is valid).
        """
        issues: List[SpecIssue] = []
        if self.rescheduling_interval_s <= 0:
            issues.append(
                SpecIssue(f"{path}.rescheduling_interval_s", "must be positive")
            )
        if not (0.0 <= self.migration_improvement_threshold < 1.0):
            issues.append(
                SpecIssue(
                    f"{path}.migration_improvement_threshold", "must be in [0, 1)"
                )
            )
        if not (0.0 <= self.default_energy_weight <= 1.0):
            issues.append(
                SpecIssue(f"{path}.default_energy_weight", "must be in [0, 1]")
            )
        if self.score_cache_capacity < 1:
            issues.append(SpecIssue(f"{path}.score_cache_capacity", "must be >= 1"))
        if not (0.0 <= self.profiling_noise_fraction < 1.0):
            issues.append(
                SpecIssue(f"{path}.profiling_noise_fraction", "must be in [0, 1)")
            )
        return issues

    def to_heats_config(self) -> HeatsConfig:
        """The node-level scheduler config this section describes.

        Returns:
            A :class:`~repro.scheduler.heats.HeatsConfig`.
        """
        return HeatsConfig(
            rescheduling_interval_s=self.rescheduling_interval_s,
            migration_improvement_threshold=self.migration_improvement_threshold,
            default_energy_weight=self.default_energy_weight,
        )

    @classmethod
    def from_heats_config(
        cls,
        config: Optional[HeatsConfig],
        score_cache: bool = True,
        score_cache_capacity: int = 4096,
        profiling_noise_fraction: float = 0.05,
    ) -> "SchedulerSpec":
        """Translate the old kwarg shape into a spec section.

        Args:
            config: a legacy ``HeatsConfig`` (None means defaults).
            score_cache: the legacy ``use_score_cache`` flag.
            score_cache_capacity: LRU bound of each score cache.
            profiling_noise_fraction: profiling measurement noise.

        Returns:
            The equivalent :class:`SchedulerSpec`.
        """
        config = config if config is not None else HeatsConfig()
        return cls(
            rescheduling_interval_s=config.rescheduling_interval_s,
            migration_improvement_threshold=config.migration_improvement_threshold,
            default_energy_weight=config.default_energy_weight,
            score_cache=score_cache,
            score_cache_capacity=score_cache_capacity,
            profiling_noise_fraction=profiling_noise_fraction,
        )


@dataclass(frozen=True)
class ServingSpec:
    """Admission/batching/SLA knobs of the serving front-end.

    Per-tenant admission contracts (rate limits, queue depths, SLOs)
    live on the :class:`~repro.serving.gateway.Tenant` objects inside
    each workload; this section holds the deployment-wide knobs.

    Args:
        max_batch_size: coalescing cap per batch.
        max_delay_s: longest a batch may wait for more members.
        memory_bucket_gib: requests in the same memory bucket may share
            a batch.
        deadline_margin_s: safety margin subtracted from a member's
            deadline slack before a deadline-driven flush.
        flush_tick_s: cadence at which the gateway drains into the
            batcher and stale batches flush.
    """

    max_batch_size: int = 16
    max_delay_s: float = 2.0
    memory_bucket_gib: float = 0.5
    deadline_margin_s: float = 0.5
    flush_tick_s: float = 0.5

    def validate(self, path: str = "serving") -> List[SpecIssue]:
        """Collect every problem with this section.

        Args:
            path: spec path prefix used in reported issues.

        Returns:
            All issues found (empty when the section is valid).
        """
        issues: List[SpecIssue] = []
        if self.max_batch_size < 1:
            issues.append(SpecIssue(f"{path}.max_batch_size", "must be >= 1"))
        if self.max_delay_s < 0:
            issues.append(SpecIssue(f"{path}.max_delay_s", "must be non-negative"))
        if self.memory_bucket_gib <= 0:
            issues.append(SpecIssue(f"{path}.memory_bucket_gib", "must be positive"))
        if self.deadline_margin_s < 0:
            issues.append(
                SpecIssue(f"{path}.deadline_margin_s", "must be non-negative")
            )
        if self.flush_tick_s <= 0:
            issues.append(SpecIssue(f"{path}.flush_tick_s", "must be positive"))
        return issues

    def to_batch_policy(self) -> BatchPolicy:
        """The batcher policy this section describes.

        Returns:
            A :class:`~repro.serving.batching.BatchPolicy`.
        """
        return BatchPolicy(
            max_batch_size=self.max_batch_size,
            max_delay_s=self.max_delay_s,
            memory_bucket_gib=self.memory_bucket_gib,
            deadline_margin_s=self.deadline_margin_s,
        )

    @classmethod
    def from_batch_policy(
        cls, policy: Optional[BatchPolicy], flush_tick_s: float = 0.5
    ) -> "ServingSpec":
        """Translate the old kwarg shape into a spec section.

        Args:
            policy: a legacy ``BatchPolicy`` (None means defaults).
            flush_tick_s: the serving loop's flush cadence.

        Returns:
            The equivalent :class:`ServingSpec`.
        """
        policy = policy if policy is not None else BatchPolicy()
        return cls(
            max_batch_size=policy.max_batch_size,
            max_delay_s=policy.max_delay_s,
            memory_bucket_gib=policy.memory_bucket_gib,
            deadline_margin_s=policy.deadline_margin_s,
            flush_tick_s=flush_tick_s,
        )


@dataclass(frozen=True)
class AutoscaleSpec:
    """The elastic control loop, declaratively (mirrors AutoscaleConfig).

    Args:
        enabled: attach the control loop; requires telemetry to be
            enabled (every signal it acts on flows through the bus).
        control_interval_s: control-loop cadence; also becomes the
            federation's rescheduling heartbeat.
        scale_up_utilisation: utilisation at (or forecast to reach)
            which capacity is added.
        scale_down_utilisation: utilisation at or below which capacity
            may be removed.
        sla_violation_rate_high: late-placement fraction counted as SLA
            pressure.
        queue_delay_slo_s: queueing delay treated as an SLA violation.
        thermal_headroom_floor: minimum aggregate thermal headroom.
        scale_up_cooldown_s: minimum time between scale-up actuations;
            must be at least the control interval to ever bind.
        scale_down_cooldown_s: minimum time between scale-down
            actuations; must be at least the control interval.
        min_shards: lower bound on non-draining member shards.
        max_shards: upper bound on non-draining member shards.
        min_nodes_per_shard: per-shard node floor for shrinking.
        max_nodes_per_shard: per-shard node ceiling for growing.
        grow_node_models: microserver catalogue models cycled when
            growing nodes; every name must exist in the catalogue.
        forecast_alpha: Holt level-smoothing factor.
        forecast_beta: Holt trend-smoothing factor.
        forecast_horizon_ticks: control intervals the demand forecast
            looks ahead.
        forecast_ratio_clamp: bound on the predicted/current demand
            ratio used to project utilisation.
    """

    enabled: bool = False
    control_interval_s: float = 2.0
    scale_up_utilisation: float = 0.70
    scale_down_utilisation: float = 0.30
    sla_violation_rate_high: float = 0.10
    queue_delay_slo_s: float = 5.0
    thermal_headroom_floor: float = 0.05
    scale_up_cooldown_s: float = 4.0
    scale_down_cooldown_s: float = 20.0
    min_shards: int = 1
    max_shards: int = 4
    min_nodes_per_shard: int = 4
    max_nodes_per_shard: int = 12
    grow_node_models: Tuple[str, ...] = ("xeon-d-x86", "arm64-server")
    forecast_alpha: float = 0.5
    forecast_beta: float = 0.3
    forecast_horizon_ticks: int = 1
    forecast_ratio_clamp: float = 2.0

    def validate(self, path: str = "autoscale") -> List[SpecIssue]:
        """Collect every problem with this section.

        Args:
            path: spec path prefix used in reported issues.

        Returns:
            All issues found (empty when the section is valid).
        """
        issues: List[SpecIssue] = []
        if self.control_interval_s <= 0:
            issues.append(SpecIssue(f"{path}.control_interval_s", "must be positive"))
        if not (0.0 < self.scale_up_utilisation <= 1.0):
            issues.append(
                SpecIssue(f"{path}.scale_up_utilisation", "must be in (0, 1]")
            )
        if not (0.0 <= self.scale_down_utilisation < self.scale_up_utilisation):
            issues.append(
                SpecIssue(
                    f"{path}.scale_down_utilisation",
                    "must be in [0, scale_up_utilisation)",
                )
            )
        if not (0.0 <= self.sla_violation_rate_high <= 1.0):
            issues.append(
                SpecIssue(f"{path}.sla_violation_rate_high", "must be in [0, 1]")
            )
        if self.queue_delay_slo_s <= 0:
            issues.append(SpecIssue(f"{path}.queue_delay_slo_s", "must be positive"))
        if not (0.0 <= self.thermal_headroom_floor < 1.0):
            issues.append(
                SpecIssue(f"{path}.thermal_headroom_floor", "must be in [0, 1)")
            )
        if self.scale_up_cooldown_s < 0:
            issues.append(
                SpecIssue(f"{path}.scale_up_cooldown_s", "must be non-negative")
            )
        if self.scale_down_cooldown_s < 0:
            issues.append(
                SpecIssue(f"{path}.scale_down_cooldown_s", "must be non-negative")
            )
        if not (1 <= self.min_shards <= self.max_shards):
            issues.append(
                SpecIssue(f"{path}.min_shards", "must satisfy 1 <= min <= max_shards")
            )
        if not (1 <= self.min_nodes_per_shard <= self.max_nodes_per_shard):
            issues.append(
                SpecIssue(
                    f"{path}.min_nodes_per_shard",
                    "must satisfy 1 <= min <= max_nodes_per_shard",
                )
            )
        if not self.grow_node_models:
            issues.append(
                SpecIssue(f"{path}.grow_node_models", "needs at least one model")
            )
        for model in self.grow_node_models:
            if model not in MICROSERVER_CATALOG:
                issues.append(
                    SpecIssue(
                        f"{path}.grow_node_models",
                        f"unknown catalogue model {model!r}",
                    )
                )
        if not (0.0 < self.forecast_alpha <= 1.0):
            issues.append(SpecIssue(f"{path}.forecast_alpha", "must be in (0, 1]"))
        if not (0.0 <= self.forecast_beta <= 1.0):
            issues.append(SpecIssue(f"{path}.forecast_beta", "must be in [0, 1]"))
        if self.forecast_horizon_ticks < 1:
            issues.append(SpecIssue(f"{path}.forecast_horizon_ticks", "must be >= 1"))
        if self.forecast_ratio_clamp < 1.0:
            issues.append(SpecIssue(f"{path}.forecast_ratio_clamp", "must be >= 1"))
        return issues

    def to_config(self) -> AutoscaleConfig:
        """The control-loop config this section describes.

        Returns:
            An :class:`~repro.autoscale.policy.AutoscaleConfig`.
        """
        return AutoscaleConfig(
            control_interval_s=self.control_interval_s,
            scale_up_utilisation=self.scale_up_utilisation,
            scale_down_utilisation=self.scale_down_utilisation,
            sla_violation_rate_high=self.sla_violation_rate_high,
            queue_delay_slo_s=self.queue_delay_slo_s,
            thermal_headroom_floor=self.thermal_headroom_floor,
            scale_up_cooldown_s=self.scale_up_cooldown_s,
            scale_down_cooldown_s=self.scale_down_cooldown_s,
            min_shards=self.min_shards,
            max_shards=self.max_shards,
            min_nodes_per_shard=self.min_nodes_per_shard,
            max_nodes_per_shard=self.max_nodes_per_shard,
            grow_node_models=self.grow_node_models,
            forecast_alpha=self.forecast_alpha,
            forecast_beta=self.forecast_beta,
            forecast_horizon_ticks=self.forecast_horizon_ticks,
            forecast_ratio_clamp=self.forecast_ratio_clamp,
        )

    @classmethod
    def from_config(
        cls, config: Optional[AutoscaleConfig], enabled: bool = True
    ) -> "AutoscaleSpec":
        """Translate the old kwarg shape into a spec section.

        Args:
            config: a legacy ``AutoscaleConfig`` (None means defaults).
            enabled: whether the control loop should attach.

        Returns:
            The equivalent :class:`AutoscaleSpec`.
        """
        config = config if config is not None else AutoscaleConfig()
        return cls(
            enabled=enabled,
            control_interval_s=config.control_interval_s,
            scale_up_utilisation=config.scale_up_utilisation,
            scale_down_utilisation=config.scale_down_utilisation,
            sla_violation_rate_high=config.sla_violation_rate_high,
            queue_delay_slo_s=config.queue_delay_slo_s,
            thermal_headroom_floor=config.thermal_headroom_floor,
            scale_up_cooldown_s=config.scale_up_cooldown_s,
            scale_down_cooldown_s=config.scale_down_cooldown_s,
            min_shards=config.min_shards,
            max_shards=config.max_shards,
            min_nodes_per_shard=config.min_nodes_per_shard,
            max_nodes_per_shard=config.max_nodes_per_shard,
            grow_node_models=config.grow_node_models,
            forecast_alpha=config.forecast_alpha,
            forecast_beta=config.forecast_beta,
            forecast_horizon_ticks=config.forecast_horizon_ticks,
            forecast_ratio_clamp=config.forecast_ratio_clamp,
        )


@dataclass(frozen=True)
class TelemetrySpec:
    """The metrics-bus wiring of the deployment.

    Args:
        enabled: wire a :class:`~repro.telemetry.registry.MetricsRegistry`
            through the gateway-admission, batching, placement, and
            routing hot paths.  Required (and validated) when
            autoscaling is enabled.
        histogram_window: ring-buffer window of histograms created on
            the deployment's bus.
        tracing: additionally record request-scoped spans (admission,
            batching, placement, migration, autoscale actuations) through
            a per-deployment :class:`~repro.telemetry.trace.Tracer`,
            surfaced on ``ServingReport.trace_spans`` /
            ``trace_summary()``.  Requires ``enabled`` (tracing rides the
            telemetry wiring); off by default so the serving hot path
            pays nothing.
        profiling: attribute *host* wall-clock time to hot-path phases
            (ingest, simulate/placement, simulate/advance, routing,
            autoscale, rollup) through a per-deployment
            :class:`~repro.telemetry.profile.PhaseProfiler`, surfaced
            via ``Deployment.metrics()["profile"]``.  Independent of
            ``enabled``: the profiler measures the Python hot path
            itself and does not ride the metrics bus.  Off by default so
            the unprofiled fast path is unchanged.
    """

    enabled: bool = False
    histogram_window: int = 1024
    tracing: bool = False
    profiling: bool = False

    def validate(self, path: str = "telemetry") -> List[SpecIssue]:
        """Collect every problem with this section.

        Args:
            path: spec path prefix used in reported issues.

        Returns:
            All issues found (empty when the section is valid).
        """
        issues: List[SpecIssue] = []
        if self.histogram_window < 2:
            issues.append(SpecIssue(f"{path}.histogram_window", "must be >= 2"))
        if self.tracing and not self.enabled:
            issues.append(
                SpecIssue(f"{path}.tracing", "tracing requires telemetry.enabled")
            )
        return issues


#: preset names accepted by :meth:`DeploymentSpec.preset`, with the
#: backend shape each selects.
PRESETS: Tuple[Tuple[str, str], ...] = (
    ("single", "one HEATS cluster (4 nodes)"),
    ("federated", "4 equally sized shards behind the two-level router"),
    ("autoscaled", "1 elastic shard plus the telemetry-driven control loop"),
)


@dataclass(frozen=True)
class DeploymentSpec:
    """The whole deployment, declaratively.

    Args:
        name: deployment name (shown in snapshots and reports).
        topology: shard/scale/seed section.
        scheduler: HEATS tunables section.
        serving: batching and loop-cadence section.
        autoscale: elastic control-loop section.
        telemetry: metrics-bus section.
    """

    name: str = "deployment"
    topology: TopologySpec = field(default_factory=TopologySpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    autoscale: AutoscaleSpec = field(default_factory=AutoscaleSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> List[SpecIssue]:
        """Collect every problem in the tree, sections then cross-section.

        Returns:
            All issues found, path-tagged; empty when the spec is valid.
        """
        issues: List[SpecIssue] = []
        if not self.name:
            issues.append(SpecIssue("name", "must be non-empty"))
        issues.extend(self.topology.validate())
        issues.extend(self.scheduler.validate())
        issues.extend(self.serving.validate())
        issues.extend(self.autoscale.validate())
        issues.extend(self.telemetry.validate())

        # Cross-section rules: only meaningful once the sections are
        # individually sane, and only binding when autoscaling is on.
        if self.autoscale.enabled:
            if not self.telemetry.enabled:
                issues.append(
                    SpecIssue(
                        "telemetry.enabled",
                        "autoscaling reads every signal from the metrics "
                        "bus; enable telemetry",
                    )
                )
            interval = self.autoscale.control_interval_s
            if 0 < self.autoscale.scale_up_cooldown_s < interval:
                issues.append(
                    SpecIssue(
                        "autoscale.scale_up_cooldown_s",
                        f"shorter than the control interval ({interval}); "
                        "the cooldown could never bind",
                    )
                )
            if 0 < self.autoscale.scale_down_cooldown_s < interval:
                issues.append(
                    SpecIssue(
                        "autoscale.scale_down_cooldown_s",
                        f"shorter than the control interval ({interval}); "
                        "the cooldown could never bind",
                    )
                )
        return issues

    def check(self) -> "DeploymentSpec":
        """Raise with every collected issue, or return self when valid.

        Returns:
            This spec, for chaining (``spec.check().to_json()``).

        Raises:
            SpecValidationError: when :meth:`validate` found problems.
        """
        issues = self.validate()
        if issues:
            raise SpecValidationError(issues)
        return self

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def preset(cls, name: str) -> "DeploymentSpec":
        """A canonical spec for one of the three backend shapes.

        Args:
            name: one of ``"single"``, ``"federated"``, ``"autoscaled"``
                (see :data:`PRESETS`).

        Returns:
            The preset spec (already valid by construction).
        """
        if name == "single":
            return cls(name="single")
        if name == "federated":
            return cls(name="federated", topology=TopologySpec(cluster_scale=4, shards=4))
        if name == "autoscaled":
            return cls(
                name="autoscaled",
                autoscale=AutoscaleSpec(enabled=True),
                telemetry=TelemetrySpec(enabled=True),
            )
        known = ", ".join(repr(preset) for preset, _ in PRESETS)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Render the tree as plain dicts/scalars (JSON/TOML-safe).

        Returns:
            The nested dict; ``from_dict`` inverts it losslessly.
        """
        return {
            "name": self.name,
            "topology": {
                "cluster_scale": self.topology.cluster_scale,
                "shards": self.topology.shards,
                "seed": _section_to_dict(self.topology.seed),
            },
            "scheduler": _section_to_dict(self.scheduler),
            "serving": _section_to_dict(self.serving),
            "autoscale": _section_to_dict(self.autoscale),
            "telemetry": _section_to_dict(self.telemetry),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeploymentSpec":
        """Rebuild a spec from its dict form, reporting *all* shape errors.

        Unknown sections or fields, wrong types, and invalid nested
        values are all collected and raised together, path-tagged.  The
        result is shape-checked only; call :meth:`check` (or let
        :meth:`~repro.api.deployment.Deployment.from_spec` do it) for
        range and cross-section validation.

        Args:
            data: a mapping of the :meth:`to_dict` shape; missing
                sections/fields keep their defaults.

        Returns:
            The reconstructed spec.

        Raises:
            SpecValidationError: listing every malformed entry.
        """
        issues: List[SpecIssue] = []
        kwargs: Dict[str, Any] = {}
        section_types = {
            "topology": TopologySpec,
            "scheduler": SchedulerSpec,
            "serving": ServingSpec,
            "autoscale": AutoscaleSpec,
            "telemetry": TelemetrySpec,
        }
        for key, value in data.items():
            if key == "name":
                if isinstance(value, str):
                    kwargs["name"] = value
                else:
                    issues.append(SpecIssue("name", "must be a string"))
            elif key in section_types:
                if isinstance(value, Mapping):
                    section = _section_from_dict(section_types[key], value, key, issues)
                    if section is not None:
                        kwargs[key] = section
                else:
                    issues.append(SpecIssue(key, "must be a table/object"))
            else:
                issues.append(SpecIssue(key, "unknown section"))
        if issues:
            raise SpecValidationError(issues)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Serialise to JSON.

        Returns:
            A JSON document; :meth:`from_json` inverts it losslessly.
        """
        return dumps_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        """Deserialise from JSON.

        Args:
            text: a document produced by :meth:`to_json` (or written by
                hand in the same shape).

        Returns:
            The reconstructed spec.
        """
        return cls.from_dict(loads_json(text))

    def to_toml(self) -> str:
        """Serialise to TOML.

        Returns:
            A TOML document; :meth:`from_toml` inverts it losslessly.
        """
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "DeploymentSpec":
        """Deserialise from TOML (needs Python >= 3.11 for ``tomllib``).

        Args:
            text: a document produced by :meth:`to_toml` (or written by
                hand in the same shape).

        Returns:
            The reconstructed spec.
        """
        return cls.from_dict(loads_toml(text))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def diff(self, other: Optional["DeploymentSpec"] = None) -> Dict[str, Dict[str, Any]]:
        """Field-level differences against another spec (default: defaults).

        Args:
            other: the baseline spec; None compares against
                ``DeploymentSpec()`` so the diff reads as "what this
                deployment overrides".

        Returns:
            Spec path -> ``{"value": ..., "baseline": ...}`` for every
            leaf that differs.
        """
        baseline = other if other is not None else DeploymentSpec()
        changed: Dict[str, Dict[str, Any]] = {}

        def walk(mine: Mapping[str, Any], theirs: Mapping[str, Any], prefix: str) -> None:
            for key, value in mine.items():
                path = f"{prefix}.{key}" if prefix else key
                base = theirs.get(key)
                if isinstance(value, Mapping) and isinstance(base, Mapping):
                    walk(value, base, path)
                elif value != base:
                    changed[path] = {"value": value, "baseline": base}

        walk(self.to_dict(), baseline.to_dict(), "")
        return changed


def _section_to_dict(section: Any) -> Dict[str, Any]:
    """One flat dataclass section as a dict (tuples become lists)."""
    rendered: Dict[str, Any] = {}
    for spec_field in dataclass_fields(section):
        value = getattr(section, spec_field.name)
        rendered[spec_field.name] = list(value) if isinstance(value, tuple) else value
    return rendered


def _section_from_dict(
    cls: type, data: Mapping[str, Any], path: str, issues: List[SpecIssue]
) -> Optional[Any]:
    """Rebuild one section dataclass, appending shape issues as found."""
    hints = get_type_hints(cls)
    valid = {spec_field.name for spec_field in dataclass_fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        field_path = f"{path}.{key}"
        if key not in valid:
            issues.append(SpecIssue(field_path, "unknown field"))
            continue
        hint = hints[key]
        if hint is SeedPolicy:
            if not isinstance(value, Mapping):
                issues.append(SpecIssue(field_path, "must be a table/object"))
                continue
            nested = _section_from_dict(SeedPolicy, value, field_path, issues)
            if nested is not None:
                kwargs[key] = nested
            continue
        converted = _convert_scalar(hint, value, field_path, issues)
        if converted is not _CONVERSION_FAILED:
            kwargs[key] = converted
    try:
        return cls(**kwargs)
    except ValueError as exc:  # e.g. SeedPolicy stride invariants
        issues.append(SpecIssue(path, str(exc)))
        return None


#: sentinel distinguishing "conversion failed" from a legitimate value.
_CONVERSION_FAILED = object()


def _convert_scalar(hint: Any, value: Any, path: str, issues: List[SpecIssue]) -> Any:
    """Coerce one leaf value to its annotated type, or record an issue."""
    if hint is bool:
        if isinstance(value, bool):
            return value
        issues.append(SpecIssue(path, "must be a boolean"))
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        issues.append(SpecIssue(path, "must be an integer"))
    elif hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        issues.append(SpecIssue(path, "must be a number"))
    elif hint is str:
        if isinstance(value, str):
            return value
        issues.append(SpecIssue(path, "must be a string"))
    else:  # the only remaining spec leaf type: Tuple[str, ...]
        if isinstance(value, (list, tuple)) and all(
            isinstance(item, str) for item in value
        ):
            return tuple(value)
        issues.append(SpecIssue(path, "must be a list of strings"))
    return _CONVERSION_FAILED

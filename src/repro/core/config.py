"""Configuration of one LEGaTO deployment.

The configuration captures the two axes a LEGaTO user controls: the hardware
population (which microservers the RECS|BOX hosts) and which stack
optimisations are active.  Turning all optimisation flags off yields the
*baseline* system the goal metrics compare against (CPU-only,
performance-oriented scheduling, no undervolting, no selective replication,
no task checkpointing, no enclaves).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.autoscale.policy import AutoscaleConfig
from repro.hardware.recsbox import RecsBoxConfig
from repro.runtime.fault_tolerance import ReplicationPolicy
from repro.runtime.ompss import SchedulingPolicy


@dataclass(frozen=True)
class OptimisationFlags:
    """Which LEGaTO technologies are enabled."""

    energy_aware_scheduling: bool = True
    heterogeneous_offload: bool = True
    fpga_undervolting: bool = True
    selective_replication: bool = True
    task_checkpointing: bool = True
    enclave_security: bool = True

    @staticmethod
    def all_enabled() -> "OptimisationFlags":
        return OptimisationFlags()

    @staticmethod
    def baseline() -> "OptimisationFlags":
        """The un-optimised reference system."""
        return OptimisationFlags(
            energy_aware_scheduling=False,
            heterogeneous_offload=False,
            fpga_undervolting=False,
            selective_replication=False,
            task_checkpointing=False,
            enclave_security=False,
        )

    def enabled_count(self) -> int:
        return sum(
            1
            for flag in (
                self.energy_aware_scheduling,
                self.heterogeneous_offload,
                self.fpga_undervolting,
                self.selective_replication,
                self.task_checkpointing,
                self.enclave_security,
            )
            if flag
        )


@dataclass(frozen=True)
class LegatoConfig:
    """Full deployment configuration."""

    name: str = "legato"
    hardware: RecsBoxConfig = field(default_factory=RecsBoxConfig.balanced_demo)
    optimisations: OptimisationFlags = field(default_factory=OptimisationFlags.all_enabled)
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.ENERGY
    replication_policy: ReplicationPolicy = ReplicationPolicy.SELECTIVE
    undervolt_platform: str = "VC707"
    undervolt_max_accuracy_drop: float = 0.01
    #: elastic-scaling defaults reported by ``LegatoSystem.describe()``;
    #: a deployment takes its knobs from the spec's ``autoscale`` section.
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("configuration needs a name")
        if not (0.0 <= self.undervolt_max_accuracy_drop <= 1.0):
            raise ValueError("accuracy-drop budget must be a fraction in [0, 1]")

    # ------------------------------------------------------------------ #
    # Derived behaviour
    # ------------------------------------------------------------------ #
    @property
    def effective_scheduling_policy(self) -> SchedulingPolicy:
        """Baseline systems schedule for performance only."""
        if self.optimisations.energy_aware_scheduling:
            return self.scheduling_policy
        return SchedulingPolicy.PERFORMANCE

    @property
    def effective_replication_policy(self) -> ReplicationPolicy:
        """Baseline systems run without replication."""
        if self.optimisations.selective_replication:
            return self.replication_policy
        return ReplicationPolicy.NONE

    def device_models(self) -> Tuple[str, ...]:
        """The microserver models the runtime may schedule onto.

        Returns:
            Catalogue model names, restricted to CPU models when
            heterogeneous offload is disabled.
        """
        models = []
        for kind_models in self.hardware.carriers.values():
            models.extend(kind_models)
        if not self.optimisations.heterogeneous_offload:
            cpu_only = tuple(m for m in models if m.startswith(("xeon", "arm64", "apalis")))
            return cpu_only if cpu_only else ("xeon-d-x86",)
        return tuple(models)

    # ------------------------------------------------------------------ #
    # Variants
    # ------------------------------------------------------------------ #
    def as_baseline(self) -> "LegatoConfig":
        """The same deployment with every optimisation disabled.

        Returns:
            A ``-baseline``-suffixed copy with all flags off.
        """
        return replace(self, name=f"{self.name}-baseline", optimisations=OptimisationFlags.baseline())

    def with_optimisations(self, **flags: bool) -> "LegatoConfig":
        """A copy with individual optimisation flags overridden.

        Args:
            **flags: ``OptimisationFlags`` field names mapped to new values.

        Returns:
            The updated configuration copy.
        """
        return replace(self, optimisations=replace(self.optimisations, **flags))

    @staticmethod
    def default() -> "LegatoConfig":
        """The fully optimised demo deployment.

        Returns:
            A configuration with every optimisation enabled on the
            balanced demo hardware population.
        """
        return LegatoConfig()

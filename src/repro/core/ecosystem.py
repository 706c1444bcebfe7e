"""The integrated LEGaTO ecosystem facade.

:class:`LegatoSystem` is the composition root a user of the toolset works
with: it builds the simulated RECS|BOX population described by the
configuration, exposes the compiler toolchain, runs task graphs on the
OmpSs-like runtime (with the configured energy policy), layers the
fault-tolerance and security executors on top, couples the FPGA
undervolting operating-point selection with the accelerator energy model,
and evaluates the project-goal metrics against an un-optimised baseline
deployment of the same hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.deployment import Deployment
    from repro.api.spec import DeploymentSpec

from repro.compiler.toolchain import CompilationResult, Toolchain
from repro.core.config import LegatoConfig
from repro.core.goals import GoalAssessment, GoalReport, make_assessment
from repro.checkpoint.fti import CheckpointStrategy
from repro.checkpoint.heat2d import run_fig6_point
from repro.checkpoint.mtbf import CheckpointEfficiencyModel, sustainable_mtbf_ratio
from repro.hardware.microserver import DeviceKind
from repro.hardware.recsbox import RecsBox
from repro.runtime.devices import ExecutionDevice, build_devices
from repro.runtime.fault_tolerance import (
    FaultInjector,
    ReplicationPolicy,
    ResilienceReport,
    ResilientExecutor,
)
from repro.runtime.graph import TaskGraph
from repro.runtime.ompss import ExecutionTrace, OmpSsRuntime, SchedulingPolicy
from repro.runtime.task import Task
from repro.security.secure_task import SecureExecutionReport, SecureTaskExecutor
from repro.undervolting.mlresilience import UndervoltedInferenceStudy, VoltageAccuracyPoint
from repro.usecases.iot_gateway import SecureIotGateway
from repro.usecases.ml_inference import InferenceService

#: fraction of an FPGA microserver's board power on the undervolted BRAM rail.
_FPGA_BRAM_POWER_SHARE = 0.30

#: residual sensitive-data exposure even with enclaves (side channels,
#: metadata): the security proxy never claims more than a 1/residual gain.
_RESIDUAL_EXPOSURE_FRACTION = 0.08

#: hand-written lines of code per kernel per device target, used by the
#: productivity proxy (a conservative figure for CUDA/OpenCL/HLS ports).
_MANUAL_LOC_PER_KERNEL_TARGET = 60
#: pragma + signature lines per kernel in the LEGaTO programming model.
_PRAGMA_LOC_PER_KERNEL = 3


class LegatoSystem:
    """One deployed LEGaTO stack over a simulated RECS|BOX."""

    def __init__(self, config: Optional[LegatoConfig] = None) -> None:
        self.config = config if config is not None else LegatoConfig.default()
        self.recsbox = RecsBox.from_config(self.config.hardware)
        self.toolchain = Toolchain(
            fpga_platform=self.config.undervolt_platform
            if self.config.optimisations.heterogeneous_offload
            else None
        )
        self._undervolt_point: Optional[VoltageAccuracyPoint] = None

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def devices(self) -> List[ExecutionDevice]:
        """Fresh execution devices matching the configured population.

        Returns:
            One :class:`ExecutionDevice` per configured microserver model.
        """
        return build_devices(list(self.config.device_models()))

    def runtime(self) -> OmpSsRuntime:
        """A fresh OmpSs-like runtime over the configured devices.

        Returns:
            The runtime, using the configuration's effective scheduling
            policy.
        """
        return OmpSsRuntime(
            devices=self.devices(), policy=self.config.effective_scheduling_policy
        )

    # ------------------------------------------------------------------ #
    # Compilation and execution
    # ------------------------------------------------------------------ #
    def compile(self, source: str) -> CompilationResult:
        """Compile an annotated source program with the LEGaTO toolchain.

        Args:
            source: pragma-annotated task program text.

        Returns:
            The compilation result (lowered task graph plus diagnostics).
        """
        return self.toolchain.compile(source)

    def run_tasks(self, tasks: Sequence[Task]) -> ExecutionTrace:
        """Run a task list on the configured runtime and apply undervolting.

        When FPGA undervolting is enabled the energy of FPGA-executed tasks
        is reduced by the selected operating point's saving applied to the
        BRAM share of the board power.

        Args:
            tasks: the tasks to execute.

        Returns:
            The execution trace with undervolting-adjusted energies.
        """
        trace = self.runtime().run(list(tasks))
        if self.config.optimisations.fpga_undervolting:
            saving = self.undervolting_operating_point().power_saving_fraction
            factor = 1.0 - saving * _FPGA_BRAM_POWER_SHARE
            adjusted = []
            for execution in trace.executions:
                if DeviceKind(execution.device_kind).is_fpga:
                    adjusted.append(
                        type(execution)(
                            task=execution.task,
                            device_name=execution.device_name,
                            device_kind=execution.device_kind,
                            start_s=execution.start_s,
                            finish_s=execution.finish_s,
                            energy_j=execution.energy_j * factor,
                        )
                    )
                else:
                    adjusted.append(execution)
            trace.executions[:] = adjusted
        return trace

    def run_program(self, source: str) -> ExecutionTrace:
        """Compile an annotated program and run it.

        Args:
            source: pragma-annotated task program text.

        Returns:
            The execution trace of the compiled tasks.
        """
        result = self.compile(source)
        return self.run_tasks(result.lowered.tasks)

    def run_resilient(self, graph: TaskGraph, fault_probability: float = 0.05) -> ResilienceReport:
        """Execute a task graph under fault injection with replication.

        Args:
            graph: the task graph to run.
            fault_probability: per-task fault injection probability.

        Returns:
            The resilience report (failures, recoveries, overhead).
        """
        executor = ResilientExecutor(
            devices=self.devices(),
            policy=self.config.effective_replication_policy,
            injector=FaultInjector(fault_probability=fault_probability),
        )
        return executor.execute(graph)

    def run_secure(self, graph: TaskGraph) -> SecureExecutionReport:
        """Execute a task graph with enclave protection for secure tasks.

        Args:
            graph: the task graph to run.

        Returns:
            The secure-execution report (attestation, exposure accounting).
        """
        if not self.config.optimisations.enclave_security:
            raise RuntimeError(
                "enclave security is disabled in this configuration; "
                "enable it or use run_tasks for unprotected execution"
            )
        executor = SecureTaskExecutor(devices=self.devices())
        return executor.execute(graph)

    # ------------------------------------------------------------------ #
    # Request serving (cluster-as-a-service front-end)
    # ------------------------------------------------------------------ #
    def deploy(self, spec: Optional["DeploymentSpec"] = None) -> "Deployment":
        """Build a reusable serving session from a declarative spec.

        This is the serving entry point: the spec is validated (every
        problem reported at once, path-tagged), the backend -- single
        cluster, federation, or autoscaled federation -- is built exactly
        once, and the returned :class:`~repro.api.deployment.Deployment`
        serves any number of workloads against the warm state (profiled
        prediction models, score caches, affinity pins, telemetry bus,
        elastically grown topology).

        Args:
            spec: the :class:`~repro.api.spec.DeploymentSpec` to deploy;
                None deploys the ``"single"`` preset.

        Returns:
            The deployment session (also usable as a context manager).
        """
        from repro.api.deployment import Deployment
        from repro.api.spec import DeploymentSpec

        if spec is None:
            spec = DeploymentSpec.preset("single")
        return Deployment.from_spec(spec, system=self)

    # ------------------------------------------------------------------ #
    # Undervolting coupling
    # ------------------------------------------------------------------ #
    def undervolting_operating_point(self) -> VoltageAccuracyPoint:
        """The lowest safe-accuracy VCCBRAM operating point (cached).

        Returns:
            The operating point whose accuracy drop stays within the
            configured budget.
        """
        if self._undervolt_point is None:
            study = UndervoltedInferenceStudy(platform=self.config.undervolt_platform)
            self._undervolt_point = study.recommended_operating_point(
                max_accuracy_drop=self.config.undervolt_max_accuracy_drop
            )
        return self._undervolt_point

    # ------------------------------------------------------------------ #
    # Goal evaluation (Section VII)
    # ------------------------------------------------------------------ #
    def evaluate_goals(self, num_batches: int = 6) -> GoalReport:
        """Measure the four project-goal dimensions on a reference workload.

        The reference workload is the ML-inference use case (the workload the
        project itself uses to demonstrate the stack); security additionally
        uses the Secure IoT Gateway's sensitive-data accounting, reliability
        the checkpoint efficiency model plus selective replication coverage,
        and productivity the compiler front end's annotation counts.

        Args:
            num_batches: size of the reference ML-inference workload.

        Returns:
            The four-dimension :class:`GoalReport` against the baseline.
        """
        baseline_system = LegatoSystem(self.config.as_baseline())
        report = GoalReport(workload=f"ml-inference x{num_batches} batches")

        # --- energy ---------------------------------------------------- #
        service = InferenceService(policy=SchedulingPolicy.ENERGY)
        batches = service.make_batches(num_batches)
        tasks_baseline = service.build_tasks(batches)
        tasks_optimised = service.build_tasks(batches)
        baseline_trace = baseline_system.run_tasks(tasks_baseline)
        optimised_trace = self.run_tasks(tasks_optimised)
        report.assessments.append(
            make_assessment(
                "energy",
                baseline_value=baseline_trace.total_energy_j,
                optimised_value=optimised_trace.total_energy_j,
                metric="J per reference ML-inference workload",
            )
        )

        # --- security ---------------------------------------------------- #
        gateway = SecureIotGateway()
        graph = gateway.build_graph(windows=2)
        sensitive_bytes = sum(
            task.footprint_bytes for task in graph.tasks if task.requirements.secure
        )
        baseline_exposure = max(sensitive_bytes, 1.0)
        if self.config.optimisations.enclave_security:
            optimised_exposure = max(baseline_exposure * _RESIDUAL_EXPOSURE_FRACTION, 1.0)
            note = "unprotected sensitive bytes; enclaves leave a residual exposure floor"
        else:
            optimised_exposure = baseline_exposure
            note = "enclave security disabled"
        report.assessments.append(
            make_assessment(
                "security",
                baseline_value=baseline_exposure,
                optimised_value=optimised_exposure,
                metric="sensitive bytes processed outside an attested enclave",
                proxy_note=note,
            )
        )

        # --- reliability ------------------------------------------------- #
        if self.config.optimisations.task_checkpointing:
            initial_point = run_fig6_point(1, 4.0, CheckpointStrategy.INITIAL)
            async_point = run_fig6_point(1, 4.0, CheckpointStrategy.ASYNC)
            initial_model = CheckpointEfficiencyModel(
                checkpoint_cost_s=initial_point.checkpoint_time_s,
                recovery_cost_s=initial_point.recover_time_s,
            )
            async_model = CheckpointEfficiencyModel(
                checkpoint_cost_s=async_point.checkpoint_time_s,
                recovery_cost_s=async_point.recover_time_s,
            )
            mtbf_ratio = sustainable_mtbf_ratio(initial_model, async_model)
        else:
            mtbf_ratio = 1.0
        report.assessments.append(
            make_assessment(
                "reliability",
                baseline_value=1.0,
                optimised_value=mtbf_ratio,
                metric="sustainable failure-rate increase at equal FT overhead",
                proxy_note="Young-model MTBF ratio of async vs blocking checkpointing",
                higher_is_better=True,
            )
        )

        # --- productivity ------------------------------------------------ #
        num_kernels = max(1, len(tasks_optimised))
        # Manual development must port each kernel to every target class the
        # deployment uses (CPU plus GPU and FPGA when offload is enabled).
        num_targets = 1 + (2 if self.config.optimisations.heterogeneous_offload else 0)
        manual_loc = num_kernels * _MANUAL_LOC_PER_KERNEL_TARGET * num_targets
        pragma_loc = num_kernels * _PRAGMA_LOC_PER_KERNEL
        report.assessments.append(
            make_assessment(
                "productivity",
                baseline_value=float(manual_loc),
                optimised_value=float(pragma_loc),
                metric="developer-written lines of code for the workload",
                proxy_note="per-target manual ports vs single-source pragma annotations",
            )
        )
        return report

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """A compact description of the whole stack (used by examples).

        Beyond the PR-0 hardware view (inventory, optimisation flags,
        policies, peak power), the description carries the package
        version and the serving / federation / autoscale defaults this
        system would deploy with, so one dict answers "what would run
        here".  ``Deployment.snapshot()`` embeds this same view for
        deployments created through :meth:`deploy`.

        Returns:
            Name, version, inventory, optimisation flags, policies, peak
            power, and the serving/federation/autoscale default sections.
        """
        from dataclasses import asdict

        from repro import __version__
        from repro.api.spec import AutoscaleSpec, ServingSpec
        from repro.federation.policy import FederationConfig

        return {
            "name": self.config.name,
            "version": __version__,
            "microservers": self.recsbox.inventory(),
            "optimisations": self.config.optimisations,
            "scheduling_policy": self.config.effective_scheduling_policy.value,
            "replication_policy": self.config.effective_replication_policy.value,
            "peak_power_w": self.recsbox.peak_power_w(),
            "serving": asdict(ServingSpec()),
            "federation": asdict(FederationConfig()),
            "autoscale": asdict(
                AutoscaleSpec.from_config(self.config.autoscale, enabled=False)
            ),
        }

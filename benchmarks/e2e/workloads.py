"""The four end-to-end workloads: generated inputs, deployment specs, checks.

Every input is generated here from the benchmark's ``--seed``; the program
under test only ever receives the finished :class:`ServingWorkload` (or,
for ``elastic_chaos``, the :class:`ScenarioSpec` it materialises itself).
The generators are deliberately self-contained -- the memory-bound
flash-crowd stream is a copy, not an import, of the one in
``benchmarks/test_bench_core_speed.py`` -- so edits to other benchmarks
never change what this one measures.  Every size is a named constant
below; ``README.md`` mirrors them.

Each workload stresses a different layer (see ``README.md`` for the
per-layer shares):

* ``flash_crowd``: memory saturates while cores stay free, so the
  simulator's pending queue and HEATS placement retries dominate;
* ``federated_poisson``: an unsaturated four-shard federation, so routing
  and the serving front half dominate and retries stay idle;
* ``warm_sweep``: many small workloads on one warm deployment, so the
  per-call fixed cost and admission control dominate;
* ``elastic_chaos``: an autoscaled federation under chaos with tracing on,
  the only workload that mutates topology mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import DeploymentSpec
from repro.api.spec import AutoscaleSpec, ServingSpec, TelemetrySpec, TopologySpec
from repro.autoscale.policy import ScalingAction
from repro.core.seeding import SeedPolicy
from repro.hardware.microserver import WorkloadKind
from repro.scenarios import (
    ArrivalSpec,
    ChaosEventSpec,
    ChaosSchedule,
    ParetoSpec,
    ScenarioSpec,
    TenantTrafficSpec,
)
from repro.serving.endpoints import endpoint
from repro.serving.gateway import ServingRequest, Tenant
from repro.serving.loop import ServingWorkload

# --------------------------------------------------------------------------- #
# Sizes: (full, quick).  ``--quick`` exists for the self-test only.
# --------------------------------------------------------------------------- #
FLASH_CROWD_SCALE = (32, 4)  # heats_testbed scale: 4 nodes per unit
FLASH_CROWD_REQUESTS = (20_000, 600)
FLASH_CROWD_DURATION_S = (100.0, 10.0)
FLASH_CROWD_BATCH = ServingSpec(max_batch_size=4, max_delay_s=1.0, memory_bucket_gib=1.0)

FEDERATED_SCALE = (16, 4)  # split evenly over the shards
FEDERATED_SHARDS = 4
FEDERATED_RPS = (800.0, 400.0)
FEDERATED_DURATION_S = (120.0, 10.0)

WARM_SWEEP_SCALE = 4
WARM_SWEEP_CALLS = (200, 4)  # serve calls per trial
WARM_SWEEP_RPS = 120.0
WARM_SWEEP_DURATION_S = 10.0
WARM_SWEEP_TENANT_RPS = 20.0  # token-bucket rate of each of the two tenants

CHAOS_SCALE = 2
CHAOS_SHARDS = 2  # also the autoscaler's shard floor
CHAOS_MAX_SHARDS = 4
CHAOS_DURATION_S = (600.0, 80.0)
CHAOS_BASE_RPS = 10.0
CHAOS_SPIKE_RPS = 100.0
CHAOS_SPIKE_START_S = (200.0, 20.0)
CHAOS_SPIKE_DURATION_S = (100.0, 20.0)
CHAOS_STEADY_RPS = 10.0
CHAOS_FAILURE_AT_S = (250.0, 30.0)
CHAOS_THROTTLE_AT_S = (350.0, 45.0)
CHAOS_THROTTLE_FOR_S = (100.0, 20.0)

#: the endpoints every Poisson tenant draws from, with relative weights.
POISSON_MIX = (("ml_inference", 0.6), ("smartmirror", 0.25), ("iot_gateway", 0.15))


@dataclass(frozen=True)
class Prepared:
    """One workload, ready to run.

    Args:
        spec: the deployment every trial builds with ``Deployment.from_spec``.
        calls: the inputs of one trial's serve calls, in order -- a
            :class:`ServingWorkload` for ``Deployment.serve`` or a
            :class:`ScenarioSpec` for ``Deployment.run_scenario``.
        check: ``check(report, outcome)`` lists every way one call's
            report (and scenario outcome, or None) misses the property
            the workload was chosen for.
    """

    spec: DeploymentSpec
    calls: Tuple[object, ...]
    check: Callable[[object, Optional[object]], List[str]]


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def memory_bound_flash_crowd(
    tenants: Sequence[Tenant], count: int, duration_s: float, rng: np.random.Generator
) -> List[ServingRequest]:
    """A request stream that saturates memory while cores stay free.

    Demands of 2-7 GiB against a testbed whose SoC nodes hold 4-8 GiB keep
    hundreds of batches queued with free cores everywhere, so every
    completion retries placement for the pending queue.
    """
    kinds = [WorkloadKind.MEMORY_BOUND, WorkloadKind.SCALAR, WorkloadKind.STREAMING]
    arrivals = np.sort(rng.uniform(0.0, duration_s, count))
    return [
        ServingRequest(
            request_id=f"r{index:05d}",
            tenant=tenants[index % len(tenants)].name,
            use_case=f"uc{index % 6}",
            arrival_s=float(arrival),
            workload=kinds[index % 3],
            gops=float(rng.uniform(20.0, 80.0)),
            cores=int(rng.choice([1, 2, 4])),
            memory_gib=float(rng.choice([2.0, 3.0, 5.0, 7.0])),
        )
        for index, arrival in enumerate(arrivals)
    ]


def poisson_stream(
    tenants: Sequence[Tenant],
    offered_rps: float,
    duration_s: float,
    rng: np.random.Generator,
    prefix: str = "",
) -> List[ServingRequest]:
    """Independent Poisson arrivals per tenant, merged in time order.

    The offered rate is split evenly across tenants; each request draws its
    endpoint from :data:`POISSON_MIX` and carries that endpoint's shape and
    default deadline.
    """
    shapes = [endpoint(name) for name, _ in POISSON_MIX]
    weights = np.array([weight for _, weight in POISSON_MIX])
    weights = weights / weights.sum()
    per_tenant = offered_rps / len(tenants)
    requests: List[ServingRequest] = []
    for tenant in tenants:
        count = int(rng.poisson(per_tenant * duration_s))
        arrivals = np.sort(rng.uniform(0.0, duration_s, count))
        picks = rng.choice(len(shapes), size=count, p=weights)
        for index, (arrival, pick) in enumerate(zip(arrivals, picks)):
            shape = shapes[pick]
            arrival_s = float(arrival)
            requests.append(
                ServingRequest(
                    request_id=f"{prefix}{tenant.name}-{index:06d}",
                    tenant=tenant.name,
                    use_case=shape.name,
                    arrival_s=arrival_s,
                    workload=shape.workload,
                    gops=shape.gops_per_request,
                    cores=shape.cores,
                    memory_gib=shape.memory_gib,
                    deadline_s=arrival_s + shape.default_deadline_s,
                )
            )
    requests.sort(key=lambda r: (r.arrival_s, r.request_id))
    return requests


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def _flash_crowd(rng: np.random.Generator, q: int) -> Prepared:
    # Admission wide open: every offered request reaches placement.
    tenants = (
        Tenant(name="analytics", rate_limit_rps=10000.0, burst=8000, energy_weight=0.3),
        Tenant(name="training", rate_limit_rps=10000.0, burst=8000, energy_weight=0.6),
    )
    requests = memory_bound_flash_crowd(
        tenants, FLASH_CROWD_REQUESTS[q], FLASH_CROWD_DURATION_S[q], rng
    )
    spec = DeploymentSpec(
        name="flash_crowd",
        topology=TopologySpec(cluster_scale=FLASH_CROWD_SCALE[q]),
        serving=FLASH_CROWD_BATCH,
    )

    def check(report, outcome) -> List[str]:
        problems = []
        if report.rejected or report.dropped:
            problems.append(f"{report.rejected} rejected, {report.dropped} dropped")
        if report.simulation.mean_waiting_s <= 0:
            problems.append("nothing waited: memory never saturated")
        return problems

    return Prepared(spec, (ServingWorkload(tenants, requests),), check)


def _federated_poisson(rng: np.random.Generator, q: int) -> Prepared:
    # Token buckets and queues sized well above the offered load: the
    # workload measures routing, so nothing may be rejected at the door.
    tenants = (
        Tenant(name="nordic", rate_limit_rps=5000.0, burst=4000,
               max_queue_depth=1024, energy_weight=0.7, region="eu-north"),
        Tenant(name="global", rate_limit_rps=5000.0, burst=4000,
               max_queue_depth=1024, energy_weight=0.3),
    )
    requests = poisson_stream(tenants, FEDERATED_RPS[q], FEDERATED_DURATION_S[q], rng)
    spec = DeploymentSpec(
        name="federated_poisson",
        topology=TopologySpec(cluster_scale=FEDERATED_SCALE[q], shards=FEDERATED_SHARDS),
    )

    def check(report, outcome) -> List[str]:
        problems = []
        stats = report.federation_stats
        if report.rejected:
            problems.append(f"{report.rejected} rejected")
        used = sum(1 for count in stats.placements_by_shard.values() if count > 0)
        if used < FEDERATED_SHARDS:
            problems.append(f"only {used} of {FEDERATED_SHARDS} shards placed work")
        if stats.affinity_hit_rate < 0.9:
            problems.append(f"affinity hit rate {stats.affinity_hit_rate:.3f} < 0.9")
        return problems

    return Prepared(spec, (ServingWorkload(tenants, requests),), check)


def _warm_sweep(rng: np.random.Generator, q: int) -> Prepared:
    # Offered load is six times what the two token buckets admit, so
    # about two thirds of every call is rejected at admission.
    tenants = (
        Tenant(name="sweep-a", rate_limit_rps=WARM_SWEEP_TENANT_RPS, burst=20,
               energy_weight=0.4),
        Tenant(name="sweep-b", rate_limit_rps=WARM_SWEEP_TENANT_RPS, burst=20,
               energy_weight=0.8),
    )
    calls = tuple(
        ServingWorkload(
            tenants,
            poisson_stream(tenants, WARM_SWEEP_RPS, WARM_SWEEP_DURATION_S, rng,
                           prefix=f"c{index}-"),
        )
        for index in range(WARM_SWEEP_CALLS[q])
    )
    spec = DeploymentSpec(
        name="warm_sweep", topology=TopologySpec(cluster_scale=WARM_SWEEP_SCALE)
    )

    def check(report, outcome) -> List[str]:
        share = report.rejected / report.offered
        if 0.5 <= share <= 0.75:
            return []
        return [f"rejected share {share:.3f} outside [0.5, 0.75]"]

    return Prepared(spec, calls, check)


def _elastic_chaos(rng: np.random.Generator, q: int) -> Prepared:
    scenario = ScenarioSpec(
        name="elastic_chaos",
        duration_s=CHAOS_DURATION_S[q],
        traffic=(
            TenantTrafficSpec(
                name="crowd",
                arrival=ArrivalSpec(
                    kind="flash_crowd",
                    rate_rps=CHAOS_BASE_RPS,
                    spike_rps=CHAOS_SPIKE_RPS,
                    spike_start_s=CHAOS_SPIKE_START_S[q],
                    spike_duration_s=CHAOS_SPIKE_DURATION_S[q],
                ),
                endpoint_mix=(("ml_inference", 0.6), ("iot_gateway", 0.4)),
                rate_limit_rps=200.0,
                burst=200,
            ),
            TenantTrafficSpec(
                name="steady",
                arrival=ArrivalSpec(kind="poisson", rate_rps=CHAOS_STEADY_RPS),
                endpoint_mix=(("smartmirror", 1.0),),
                rate_limit_rps=50.0,
                burst=50,
            ),
        ),
        # Fixed victims: a seeded victim choice made the autoscaler's
        # trajectory (and so the host cost) bimodal across seeds.
        chaos=ChaosSchedule(events=(
            ChaosEventSpec(kind="node_failure", at_s=CHAOS_FAILURE_AT_S[q],
                           target="shard0-1-arm64-server"),
            ChaosEventSpec(kind="thermal_throttle", at_s=CHAOS_THROTTLE_AT_S[q],
                           duration_s=CHAOS_THROTTLE_FOR_S[q],
                           target="shard1-3-apalis-arm-soc"),
        )),
        sizes=ParetoSpec(alpha=1.6, lower=2.0, upper=8.0),
        deadlines=ParetoSpec(alpha=2.0, lower=0.8, upper=2.5),
        # The scenario's own streams (arrivals, sizes, deadlines) all
        # derive from this base, drawn from the benchmark seed.
        seed=SeedPolicy(base=int(rng.integers(1, 2**31))),
    )
    spec = DeploymentSpec(
        name="elastic_chaos",
        topology=TopologySpec(cluster_scale=CHAOS_SCALE, shards=CHAOS_SHARDS),
        autoscale=AutoscaleSpec(
            enabled=True, min_shards=CHAOS_SHARDS, max_shards=CHAOS_MAX_SHARDS
        ),
        telemetry=TelemetrySpec(enabled=True, tracing=True),
    )

    def check(report, outcome) -> List[str]:
        problems = [
            f"chaos {kind} never applied"
            for kind in ("node_failure", "thermal_throttle")
            if not outcome.chaos.applied(kind)
        ]
        count = report.autoscale_report.action_count
        if count(ScalingAction.ADD_SHARD) + count(ScalingAction.GROW_NODE) < 1:
            problems.append("never scaled up")
        if count(ScalingAction.BEGIN_DRAIN) + count(ScalingAction.SHRINK_NODE) < 1:
            problems.append("never drained or shrank")
        if not report.trace_spans:
            problems.append("no trace spans recorded")
        return problems

    return Prepared(spec, (scenario,), check)


_BUILDERS: Dict[str, Callable[[np.random.Generator, int], Prepared]] = {
    "flash_crowd": _flash_crowd,
    "federated_poisson": _federated_poisson,
    "warm_sweep": _warm_sweep,
    "elastic_chaos": _elastic_chaos,
}
WORKLOADS = tuple(_BUILDERS)


def prepare(name: str, seed: int, quick: bool = False) -> Prepared:
    """Generate one workload's inputs from the benchmark seed.

    Args:
        name: one of :data:`WORKLOADS`.
        seed: the benchmark seed; equal seeds give equal inputs.
        quick: use the self-test sizes.

    Returns:
        The deployment spec and the serve-call inputs of one trial.
    """
    return _BUILDERS[name](np.random.default_rng(seed), 1 if quick else 0)

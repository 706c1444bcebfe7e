"""Preset goldens: every backend shape's reports, pinned by sha256.

Each preset deployment serves the same fixed two-tenant workloads twice,
back to back, so the warm-state resets between runs (routing stats,
tenant-region seeding, the per-run autoscale controller) are part of
what is pinned.  Non-preset variants pin the spec fields the presets
leave at their defaults (batch policy, HEATS migration threshold, seed
base, score cache off) on the backend shapes they reach.  Every constant
was computed before serving moved onto one backend class.  One scenario
run with chaos on a federated deployment pins the scheduler-swapping
path as well.  The digest hashes the same fields as
``benchmarks/e2e/run.py:report_digest``: ``summary()`` without
``trace``, then ``latencies_s`` and ``completions_s``.

A digest changes only when a report does.  If a change is meant to alter
serving outcomes, recompute the constants and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Iterable

import numpy as np
import pytest

from repro.api import (
    AutoscaleSpec,
    Deployment,
    DeploymentSpec,
    SchedulerSpec,
    ServingSpec,
    TelemetrySpec,
    TopologySpec,
)
from repro.core.seeding import SeedPolicy
from repro.scenarios import (
    ArrivalSpec,
    ChaosEventSpec,
    ChaosSchedule,
    ParetoSpec,
    ScenarioSpec,
    TenantTrafficSpec,
)
from repro.scheduler.heats import HeatsConfig
from repro.serving import BatchPolicy, ServingWorkload, Tenant

PRESET_GOLDENS = {
    "single": "067c90ac21e36ef767036c53af401d5bc2c2a8e9d3d897abca0d6eec0e454f6c",
    "federated": "e00ea993e1f0feefc1e08cf7891f8b3d6cee9b575ea2b13f097fbccab0455463",
    "autoscaled": "cb320e827c9535bfcd17754eb618bdc1e629ba9899b9bad2ebc866d20230bb5c",
}
# The score cache memoises HEATS scores and must change no outcome, so the
# uncached variants of a preset keep that preset's digest.
VARIANT_GOLDENS = {
    "batched": "928ddd061727c779a331daaa4bc99ef476fd9044cd524f983f76767848ffea09",
    "federated_migration_threshold":
        "c7309e750395e9e94e56cad1eccae8b789acbc7417f8608b77675aa23ff7ae28",
    "autoscaled_federated":
        "87bc9077e69fb748c0870a1d2b35e2c535c2aeca862802ecfe29c9db905e5c8c",
    "uncached": PRESET_GOLDENS["single"],
    "federated_uncached": PRESET_GOLDENS["federated"],
}
SCENARIO_GOLDEN = "6e6c5894a1e6371cce87108c163107d03eb1ad9c9549175ab9e0edd3699f3d4c"


def _workload(seed: int) -> ServingWorkload:
    tenants = [
        Tenant(name="video", rate_limit_rps=200.0, burst=100, energy_weight=0.1,
               latency_slo_s=120.0),
        Tenant(name="sensors", rate_limit_rps=60.0, burst=30, energy_weight=0.9,
               region="eu-north"),
    ]
    return ServingWorkload.synthetic(
        tenants,
        {
            "video": {"smartmirror": 0.5, "ml_inference": 0.5},
            "sensors": {"iot_gateway": 0.7, "ml_inference": 0.3},
        },
        offered_rps=90.0,
        duration_s=20.0,
        seed=seed,
    )


def _variant(name: str) -> DeploymentSpec:
    if name == "batched":
        return DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, seed=SeedPolicy(base=11)),
            serving=ServingSpec.from_batch_policy(
                BatchPolicy(max_batch_size=8, max_delay_s=1.5)
            ),
        )
    if name == "federated_migration_threshold":
        return DeploymentSpec(
            topology=TopologySpec(cluster_scale=4, shards=2, seed=SeedPolicy(base=13)),
            scheduler=SchedulerSpec.from_heats_config(
                HeatsConfig(migration_improvement_threshold=0.1)
            ),
        )
    if name == "autoscaled_federated":
        return DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, shards=2, seed=SeedPolicy(base=17)),
            autoscale=AutoscaleSpec(enabled=True),
            telemetry=TelemetrySpec(enabled=True),
        )
    if name == "uncached":
        return replace(
            DeploymentSpec.preset("single"), scheduler=SchedulerSpec(score_cache=False)
        )
    if name == "federated_uncached":
        return replace(
            DeploymentSpec.preset("federated"), scheduler=SchedulerSpec(score_cache=False)
        )
    raise KeyError(name)


def _scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="golden-flash-crowd",
        duration_s=60.0,
        traffic=(
            TenantTrafficSpec(
                name="burst",
                arrival=ArrivalSpec(kind="flash_crowd", rate_rps=2.0, spike_rps=15.0,
                                    spike_start_s=15.0, spike_duration_s=15.0),
                endpoint_mix=(("ml_inference", 0.6), ("iot_gateway", 0.4)),
            ),
            TenantTrafficSpec(
                name="steady",
                arrival=ArrivalSpec(kind="poisson", rate_rps=2.0),
                join_s=5.0,
                leave_s=50.0,
            ),
        ),
        chaos=ChaosSchedule(events=(
            ChaosEventSpec(kind="node_failure", at_s=20.0),
            ChaosEventSpec(kind="thermal_throttle", at_s=10.0, duration_s=15.0),
        )),
        sizes=ParetoSpec(alpha=1.6, lower=0.5, upper=3.0),
        deadlines=ParetoSpec(alpha=2.0, lower=0.8, upper=2.5),
        seed=SeedPolicy(base=11),
    )


def _digest(reports: Iterable) -> str:
    digest = hashlib.sha256()
    for report in reports:
        summary = report.summary()
        summary.pop("trace", None)
        digest.update(json.dumps(summary, sort_keys=True, default=str).encode())
        digest.update(np.asarray(report.latencies_s, dtype=float).tobytes())
        digest.update(np.asarray(report.completions_s, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESET_GOLDENS))
def test_preset_serves_match_golden(preset: str) -> None:
    deployment = Deployment.from_spec(DeploymentSpec.preset(preset))
    reports = [deployment.serve(_workload(seed)) for seed in (31, 32)]
    assert all(report.completed > 0 for report in reports)
    assert _digest(reports) == PRESET_GOLDENS[preset]


@pytest.mark.parametrize("variant", sorted(VARIANT_GOLDENS))
def test_spec_variant_serves_match_golden(variant: str) -> None:
    deployment = Deployment.from_spec(_variant(variant))
    reports = [deployment.serve(_workload(seed)) for seed in (31, 32)]
    assert all(report.completed > 0 for report in reports)
    if not deployment.spec.scheduler.score_cache:
        assert all(report.cache_stats is None for report in reports)
    assert _digest(reports) == VARIANT_GOLDENS[variant]


def test_federated_scenario_matches_golden() -> None:
    deployment = Deployment.from_spec(DeploymentSpec.preset("federated"))
    outcome = deployment.run_scenario(_scenario())
    assert outcome.chaos.applied("node_failure")
    assert _digest([outcome.report]) == SCENARIO_GOLDEN

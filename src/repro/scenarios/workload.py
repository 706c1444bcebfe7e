"""Materialise a :class:`ScenarioSpec` into a serving workload.

Every random stream is derived from the spec's
:class:`~repro.core.seeding.SeedPolicy` with a fixed rule, so the same
spec always yields the same workload bit-for-bit:

* tenant ``i`` arrival stream:   ``default_rng(seed.shard_seed(i))``
* tenant ``i`` attribute stream: ``default_rng(seed.probe_seed(seed.shard_seed(i), 0))``

Splitting arrivals and attributes into independent streams means adding
a size sampler (say) never perturbs *when* requests arrive -- only what
they look like -- which keeps replay diffs readable.

A tenant's attribute stream is drawn as one ``(n, k)`` block of uniforms:
row ``i`` holds request ``i``'s endpoint uniform, then its size uniform
(when ``sizes`` is set), then its deadline uniform (when ``deadlines`` is
set).  Row-major order is the order a per-request generator would draw
them in, so the block is the same stream, mapped in bulk.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Tuple

import numpy as np

from repro.scenarios.samplers import BoundedPareto, categorical_picks
from repro.scenarios.spec import ScenarioSpec, TenantTrafficSpec
from repro.serving.endpoints import ServableEndpoint, endpoint
from repro.serving.gateway import ServingRequest, Tenant
from repro.serving.loop import ServingWorkload

__all__ = ["build_workload"]


def _tenant_contract(traffic: TenantTrafficSpec) -> Tenant:
    """Build the gateway contract for one tenant section."""
    return Tenant(
        name=traffic.name,
        rate_limit_rps=traffic.rate_limit_rps,
        burst=traffic.burst,
        energy_weight=traffic.energy_weight,
        latency_slo_s=traffic.latency_slo_s,
        region=traffic.region,
    )


def _normalised_mix(
    traffic: TenantTrafficSpec,
) -> Tuple[Tuple[ServableEndpoint, ...], np.ndarray]:
    """Resolve the endpoint mix into endpoints plus normalised weights."""
    endpoints = tuple(endpoint(name) for name, _ in traffic.endpoint_mix)
    weights = np.asarray([w for _, w in traffic.endpoint_mix], dtype=float)
    if not (weights > 0).all():
        raise ValueError(f"endpoint weights of {traffic.name!r} must be positive")
    return endpoints, weights / weights.sum()


def build_workload(spec: ScenarioSpec) -> ServingWorkload:
    """Generate the full request stream a scenario describes.

    Args:
        spec: a validated scenario spec (call :meth:`ScenarioSpec.check`
            first; this function assumes the tree is well-formed).

    Returns:
        A :class:`~repro.serving.loop.ServingWorkload` whose requests
        are globally sorted by arrival instant.  Equal specs produce
        bit-identical workloads.
    """
    requests: List[ServingRequest] = []
    tenants: List[Tenant] = []
    sizes = BoundedPareto(**vars(spec.sizes)) if spec.sizes else None
    deadlines = BoundedPareto(**vars(spec.deadlines)) if spec.deadlines else None
    for index, traffic in enumerate(spec.traffic):
        tenants.append(_tenant_contract(traffic))
        tenant_seed = spec.seed.shard_seed(index)
        arrival_rng = np.random.default_rng(tenant_seed)
        attribute_rng = np.random.default_rng(spec.seed.probe_seed(tenant_seed, 0))

        window_end = spec.duration_s if traffic.leave_s is None else min(
            traffic.leave_s, spec.duration_s
        )
        window = window_end - traffic.join_s
        if window <= 0:
            continue
        offsets = traffic.arrival.build().generate(window, arrival_rng)

        endpoints, weights = _normalised_mix(traffic)
        width = 1 + (sizes is not None) + (deadlines is not None)
        columns = iter(attribute_rng.random((len(offsets), width)).T)
        picks = categorical_picks(weights, next(columns)).tolist()
        size_factors = None if sizes is None else sizes.quantiles(next(columns).tolist())
        deadline_factors = (
            None if deadlines is None else deadlines.quantiles(next(columns).tolist())
        )
        for k, offset in enumerate(offsets):
            arrival_s = traffic.join_s + offset
            choice = endpoints[picks[k]]
            gops = choice.gops_per_request
            if size_factors is not None:
                gops *= size_factors[k]
            margin = choice.default_deadline_s
            if deadline_factors is not None:
                margin *= deadline_factors[k]
            requests.append(
                ServingRequest(
                    request_id=f"{traffic.name}-{k:06d}",
                    tenant=traffic.name,
                    use_case=choice.name,
                    arrival_s=arrival_s,
                    workload=choice.workload,
                    gops=gops,
                    cores=choice.cores,
                    memory_gib=choice.memory_gib,
                    deadline_s=arrival_s + margin,
                )
            )
    requests.sort(key=attrgetter("arrival_s", "request_id"))
    return ServingWorkload(tenants=tuple(tenants), requests=tuple(requests))

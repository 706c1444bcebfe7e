"""``build_workload`` against a slow, per-request reference oracle.

``build_workload`` draws each tenant's request attributes as one block of
uniforms and maps them in bulk.  The reference below is the per-request
generator it replaced, kept verbatim (the Lewis-Shedler thinning loop, a
``Generator.choice(p=...)`` call per request and a re-validated bounded-
Pareto draw per attribute).  It shares no sampling code with the library:
only the spec tree, the endpoint table and the request/tenant types.

Two guards:

* a hypothesis property asserting the two generators agree bit-for-bit on
  arbitrary spec shapes (every arrival kind, degenerate and absent
  samplers, tenant churn including empty windows, 1-3 endpoint mixes);
* a sha256 golden of one fixed spec's request fields, which catches a
  change to the random stream *between* commits (the property above and
  the seed-replay suites only compare code against itself).
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import SeedPolicy
from repro.scenarios import (
    ArrivalSpec,
    ParetoSpec,
    RecordedTrace,
    ScenarioSpec,
    TenantTrafficSpec,
    build_workload,
)
from repro.serving.endpoints import SERVABLE_ENDPOINTS, endpoint
from repro.serving.gateway import ServingRequest, Tenant
from repro.serving.loop import ServingWorkload


# ----------------------------------------------------------------------
# Reference generator (the per-request implementation, kept verbatim)
# ----------------------------------------------------------------------


def _reference_arrivals(process, duration_s: float, rng: np.random.Generator) -> List[float]:
    if isinstance(process, RecordedTrace):
        return [t for t in process.arrivals if t < duration_s]
    peak = process.peak_rate
    if peak <= 0 or duration_s <= 0:
        return []
    out: List[float] = []
    time_s = 0.0
    while True:
        time_s += float(rng.exponential(1.0 / peak))
        if time_s >= duration_s:
            break
        if float(rng.random()) * peak <= process.rate(time_s):
            out.append(time_s)
    return out


def _reference_pareto(rng: np.random.Generator, alpha: float, lower: float, upper: float) -> float:
    if alpha <= 0:
        raise ValueError("tail exponent must be positive")
    if not (0 < lower <= upper):
        raise ValueError("need 0 < lower <= upper")
    if lower == upper:
        rng.random()  # keep the draw count stable for degenerate bounds
        return lower
    u = rng.random()
    ratio = (lower / upper) ** alpha
    return lower * (1.0 - u * (1.0 - ratio)) ** (-1.0 / alpha)


def reference_workload(spec: ScenarioSpec) -> ServingWorkload:
    """The per-request workload generator ``build_workload`` must match."""
    requests: List[ServingRequest] = []
    tenants: List[Tenant] = []
    for index, traffic in enumerate(spec.traffic):
        tenants.append(
            Tenant(
                name=traffic.name,
                rate_limit_rps=traffic.rate_limit_rps,
                burst=traffic.burst,
                energy_weight=traffic.energy_weight,
                latency_slo_s=traffic.latency_slo_s,
                region=traffic.region,
            )
        )
        tenant_seed = spec.seed.shard_seed(index)
        arrival_rng = np.random.default_rng(tenant_seed)
        attribute_rng = np.random.default_rng(spec.seed.probe_seed(tenant_seed, 0))

        window_end = spec.duration_s if traffic.leave_s is None else min(
            traffic.leave_s, spec.duration_s
        )
        window = window_end - traffic.join_s
        if window <= 0:
            continue
        offsets = _reference_arrivals(traffic.arrival.build(), window, arrival_rng)

        endpoints = tuple(endpoint(name) for name, _ in traffic.endpoint_mix)
        weights = np.asarray([w for _, w in traffic.endpoint_mix], dtype=float)
        weights = weights / weights.sum()
        sizes = spec.sizes
        deadlines = spec.deadlines
        for k, offset in enumerate(offsets):
            arrival_s = traffic.join_s + offset
            choice = endpoints[
                int(attribute_rng.choice(len(endpoints), p=weights))
            ]
            gops = choice.gops_per_request
            if sizes is not None:
                gops *= _reference_pareto(
                    attribute_rng, sizes.alpha, sizes.lower, sizes.upper
                )
            margin = choice.default_deadline_s
            if deadlines is not None:
                margin *= _reference_pareto(
                    attribute_rng, deadlines.alpha, deadlines.lower, deadlines.upper
                )
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
    requests.sort(key=lambda r: (r.arrival_s, r.request_id))
    return ServingWorkload(tenants=tuple(tenants), requests=tuple(requests))


# ----------------------------------------------------------------------
# Spec-shape strategy
# ----------------------------------------------------------------------

_DURATION_S = 40.0

arrivals = st.one_of(
    st.builds(
        ArrivalSpec,
        kind=st.just("poisson"),
        rate_rps=st.floats(min_value=0.0, max_value=25.0),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("diurnal"),
        rate_rps=st.floats(min_value=0.0, max_value=25.0),
        amplitude=st.floats(min_value=0.0, max_value=1.0),
        period_s=st.floats(min_value=1.0, max_value=120.0),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("flash_crowd"),
        rate_rps=st.floats(min_value=0.0, max_value=10.0),
        spike_rps=st.floats(min_value=0.0, max_value=60.0),
        spike_start_s=st.floats(min_value=0.0, max_value=_DURATION_S),
        spike_duration_s=st.floats(min_value=0.0, max_value=20.0),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("trace"),
        trace=st.lists(
            st.floats(min_value=0.0, max_value=_DURATION_S + 10.0), max_size=60
        ).map(lambda ts: tuple(sorted(ts))),
    ),
)


@st.composite
def pareto_specs(draw):
    """None, a degenerate (lower == upper) or a proper bounded Pareto."""
    shape = draw(st.sampled_from(["none", "degenerate", "proper"]))
    if shape == "none":
        return None
    alpha = draw(st.floats(min_value=0.2, max_value=4.0))
    lower = draw(st.floats(min_value=0.05, max_value=5.0))
    if shape == "degenerate":
        return ParetoSpec(alpha=alpha, lower=lower, upper=lower)
    return ParetoSpec(alpha=alpha, lower=lower, upper=lower + draw(
        st.floats(min_value=1e-3, max_value=50.0)
    ))


@st.composite
def tenant_specs(draw, name: str):
    """One tenant: arrival shape, endpoint mix and a churn window."""
    names = draw(
        st.lists(
            st.sampled_from(sorted(SERVABLE_ENDPOINTS)),
            min_size=1, max_size=3, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=len(names), max_size=len(names),
        )
    )
    # A join past the scenario end gives an empty window: the builder's
    # ``window <= 0`` branch, which spec validation would reject up front,
    # so ``scenario_specs`` leaves its specs unchecked.
    join_s = draw(st.floats(min_value=0.0, max_value=_DURATION_S + 5.0))
    leave_s = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=1e-3, max_value=_DURATION_S).map(lambda d: join_s + d),
        )
    )
    return TenantTrafficSpec(
        name=name,
        arrival=draw(arrivals),
        endpoint_mix=tuple(zip(names, weights)),
        join_s=join_s,
        leave_s=leave_s,
    )


@st.composite
def scenario_specs(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    traffic = tuple(draw(tenant_specs(f"t{i}")) for i in range(count))
    return ScenarioSpec(
        name="reference",
        duration_s=_DURATION_S,
        traffic=traffic,
        sizes=draw(pareto_specs()),
        deadlines=draw(pareto_specs()),
        seed=SeedPolicy(base=draw(st.integers(min_value=0, max_value=2**31))),
    )


@settings(max_examples=60, deadline=None)
@given(spec=scenario_specs())
def test_build_workload_matches_reference(spec):
    built = build_workload(spec)
    reference = reference_workload(spec)
    assert built.requests == reference.requests
    assert built.tenants == reference.tenants


# ----------------------------------------------------------------------
# Golden: the request stream of one fixed spec, across commits
# ----------------------------------------------------------------------

GOLDEN_SPEC = ScenarioSpec(
    name="golden",
    duration_s=120.0,
    traffic=(
        TenantTrafficSpec(
            name="alpha",
            arrival=ArrivalSpec(
                kind="flash_crowd", rate_rps=8.0, spike_rps=40.0,
                spike_start_s=30.0, spike_duration_s=15.0,
            ),
            endpoint_mix=(("ml_inference", 3.0), ("smartmirror", 1.0), ("iot_gateway", 2.0)),
        ),
        TenantTrafficSpec(
            name="beta",
            arrival=ArrivalSpec(kind="diurnal", rate_rps=6.0, amplitude=0.8, period_s=60.0),
            endpoint_mix=(("iot_gateway", 1.0), ("ml_inference", 1.0)),
            join_s=20.0,
            leave_s=100.0,
        ),
        TenantTrafficSpec(
            name="gamma",
            arrival=ArrivalSpec(kind="poisson", rate_rps=4.0),
            endpoint_mix=(("smartmirror", 1.0),),
        ),
    ),
    sizes=ParetoSpec(alpha=1.3, lower=1.0, upper=8.0),
    deadlines=ParetoSpec(alpha=2.0, lower=1.0, upper=4.0),
    seed=SeedPolicy(base=2024),
)

#: sha256 over the repr of every request's fields, in workload order.
#: Update only together with a documented change of the draw layout
#: (see "Seeding" in docs/scenarios.md).
GOLDEN_SHA256 = "a51f35a3e225962d0653cc331bb5137434f8c04b5fd29a64f85299cfff9ed79e"
GOLDEN_COUNT = 2495


def request_digest(requests) -> str:
    """sha256 of the repr of each request's fields (floats repr exactly)."""
    digest = hashlib.sha256()
    for r in requests:
        fields = (
            r.request_id, r.tenant, r.use_case, r.arrival_s, r.workload.value,
            r.gops, r.cores, r.memory_gib, r.deadline_s,
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def test_golden_request_stream():
    GOLDEN_SPEC.check()
    requests = build_workload(GOLDEN_SPEC).requests
    assert len(requests) == GOLDEN_COUNT
    assert request_digest(requests) == GOLDEN_SHA256


def test_negative_endpoint_weight_fails_loudly():
    """An unchecked spec with a negative weight raises instead of mis-picking."""
    spec = ScenarioSpec(
        traffic=(
            TenantTrafficSpec(endpoint_mix=(("ml_inference", 1.0), ("iot_gateway", -0.5))),
        ),
    )
    with pytest.raises(ValueError):
        build_workload(spec)

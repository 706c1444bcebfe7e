"""SERVING: the multi-tenant front-end under increasing offered load.

Not a paper figure: this benchmark measures the cluster-as-a-service layer
the ROADMAP asks for.  Three experiments:

1. **Offered-load sweep** -- the same two tenants offer 3 traffic levels;
   reported per level: ops/sec actually served, p50/p99 end-to-end latency,
   admission rejection rate, and energy per request.  Throughput must rise
   with offered load and the tenants' rate limits must start rejecting at
   the highest level.
2. **Score-cache ablation** -- the identical workload replayed with the
   HEATS prediction-score cache on vs off (same learned models, fresh
   cluster per run).  The cached run must be measurably faster while
   serving the same number of requests.
3. **Federation shard sweep** -- the identical workload served by 1, 2,
   and 4 shards at a fixed total node count (1 shard = today's single
   HEATS cluster).  Per-request placement latency is measured around the
   scheduler's ``place`` calls; the 4-shard federation must place at least
   as fast as the single-cluster baseline because node-level scoring only
   ever runs over one shard's nodes.

The sweep emits ``BENCH_serving.json`` and the shard sweep
``BENCH_federation_sweep.json``; their tables render to
``benchmarks/results/serving_load.txt`` /
``benchmarks/results/federation_sweep.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro import DeploymentSpec, LegatoSystem, ServingWorkload
from repro.api import ServingSpec, TopologySpec
from repro.federation import Federation
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.serving import (
    BatchPolicy,
    PredictionScoreCache,
    RequestGateway,
    ServingLoop,
    Tenant,
)

LOAD_LEVELS_RPS = (8.0, 24.0, 72.0)
DURATION_S = 30.0
CLUSTER_SCALE = 4
#: capped batch size keeps per-batch service time bounded, so the post-arrival
#: drain tail is comparable across load levels.
SWEEP_BATCH_POLICY = BatchPolicy(max_batch_size=8, max_delay_s=2.0)


def _tenants():
    return [
        Tenant(name="perf-tenant", rate_limit_rps=20.0, burst=20, energy_weight=0.1,
               latency_slo_s=180.0),
        Tenant(name="eco-tenant", rate_limit_rps=20.0, burst=20, energy_weight=0.9),
    ]


def _mix():
    return {
        "perf-tenant": {"ml_inference": 0.6, "smartmirror": 0.4},
        "eco-tenant": {"iot_gateway": 0.7, "ml_inference": 0.3},
    }


def _workload(
    offered_rps: float, seed: int = 17, duration_s: float = DURATION_S
) -> ServingWorkload:
    return ServingWorkload.synthetic(
        _tenants(), _mix(), offered_rps=offered_rps, duration_s=duration_s, seed=seed
    )


def run_load_sweep(duration_s: float = DURATION_S):
    # One spec, one deployment per level: every load level replays on a
    # fresh (cold-cache) backend so the levels stay comparable.
    spec = DeploymentSpec(
        name="load-sweep",
        topology=TopologySpec(cluster_scale=CLUSTER_SCALE),
        serving=ServingSpec.from_batch_policy(SWEEP_BATCH_POLICY),
    )
    system = LegatoSystem()
    return {
        rps: system.deploy(spec).serve(_workload(rps, duration_s=duration_s))
        for rps in LOAD_LEVELS_RPS
    }


@pytest.mark.benchmark(group="serving")
def test_serving_offered_load_sweep(bench, smoke):
    # Smoke keeps the rate levels (the admission pressure that makes the
    # token buckets bite) and shortens the arrival window instead.
    duration_s = 10.0 if smoke else DURATION_S
    start = time.perf_counter()
    reports = run_load_sweep(duration_s)
    sweep_wall_s = time.perf_counter() - start

    rows = []
    for rps, report in reports.items():
        rows.append(
            [
                f"{rps:.0f}",
                report.offered,
                report.completed,
                f"{report.ops_per_sec:.2f}",
                f"{report.p50_latency_s:.2f}",
                f"{report.p99_latency_s:.2f}",
                f"{report.rejection_rate:.3f}",
                f"{report.energy_per_request_j:.2f}",
            ]
        )
    low, mid, high = (reports[rps] for rps in LOAD_LEVELS_RPS)
    run = bench("serving")
    # The headline metrics come from the highest load level -- the regime
    # that exercises admission control and the placement hot path.
    run.metric("ops_per_sec", high.ops_per_sec, direction="higher",
               tolerance=0.05)
    run.metric("p50_latency_s", high.p50_latency_s, direction="lower",
               tolerance=0.05)
    run.metric("p99_latency_s", high.p99_latency_s, direction="lower",
               tolerance=0.05)
    run.metric("node_seconds", 4 * CLUSTER_SCALE * high.horizon_s,
               direction="lower", tolerance=0.05)
    run.metric("completed_total",
               sum(report.completed for report in reports.values()),
               direction="higher", tolerance=0.01)
    run.metric("energy_per_request_j", high.energy_per_request_j,
               direction="lower", tolerance=0.05)
    run.metric("rejection_rate_high", high.rejection_rate, direction="lower",
               gate=False)
    run.metric("wall_clock_s", sweep_wall_s, direction="lower", gate=False)
    run.table(
        "serving_load",
        "Serving front-end -- two tenants, HEATS backend, rising offered load"
        + (" (smoke)" if smoke else ""),
        ["offered rps", "offered", "completed", "ops/sec", "p50 (s)", "p99 (s)",
         "reject rate", "J/request"],
        rows,
    )
    # Everything admitted completes (round-trip conservation) at every level.
    for report in (low, mid, high):
        assert report.completed > 0
        assert report.admitted == report.completed + report.dropped
        assert report.p99_latency_s >= report.p50_latency_s > 0
    # Served throughput rises with offered load.
    assert low.ops_per_sec < mid.ops_per_sec < high.ops_per_sec
    # The 20 rps/tenant token buckets bite only at the highest level.
    assert low.rejection_rate == 0.0
    assert high.rejection_rate > mid.rejection_rate
    assert high.rejection_rate > 0.2


def _ablation_run(models, workload, use_cache: bool):
    cluster = Cluster.heats_testbed(scale=CLUSTER_SCALE)
    scheduler = HeatsScheduler(
        models, score_cache=PredictionScoreCache() if use_cache else None
    )
    loop = ServingLoop(cluster, scheduler, RequestGateway(workload.tenants))
    start = time.perf_counter()
    report = loop.run(workload.requests)
    return time.perf_counter() - start, report


@pytest.mark.benchmark(group="serving")
def test_serving_score_cache_ablation(bench):
    # High request volume on generous limits: the scoring hot path dominates.
    tenants = [
        Tenant(name="perf-tenant", rate_limit_rps=500.0, burst=200, energy_weight=0.1),
        Tenant(name="eco-tenant", rate_limit_rps=500.0, burst=200, energy_weight=0.9),
    ]
    workload = ServingWorkload.synthetic(
        tenants, _mix(), offered_rps=150.0, duration_s=DURATION_S, seed=23
    )
    models = ProfilingCampaign(
        Cluster.heats_testbed(scale=CLUSTER_SCALE), seed=7
    ).run().fit()

    repeats = 5
    timings = {True: [], False: []}
    reports = {}
    for _ in range(repeats):
        for use_cache in (True, False):
            elapsed, report = _ablation_run(models, workload, use_cache)
            timings[use_cache].append(elapsed)
            reports[use_cache] = report
    cached_s, uncached_s = min(timings[True]), min(timings[False])
    speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
    hit_rate = reports[True].cache_stats.hit_rate

    run = bench("serving_cache_ablation")
    run.metric("cache_speedup", speedup, direction="higher",
               tolerance=0.50, abs_tolerance=0.40)
    run.metric("hit_rate", hit_rate, direction="higher", tolerance=0.05)
    run.metric("completed", reports[True].completed, direction="higher",
               tolerance=0.01)
    run.metric("wall_clock_s", cached_s, direction="lower", gate=False)
    run.table(
        "serving_cache_ablation",
        "Serving front-end -- HEATS score cache ablation (min of "
        f"{repeats} runs, {len(workload.requests)} requests)",
        ["score cache", "loop time (ms)", "hit rate", "completed", "ops/sec"],
        [
            ["on", f"{cached_s * 1e3:.1f}", f"{hit_rate:.2f}",
             reports[True].completed, f"{reports[True].ops_per_sec:.2f}"],
            ["off", f"{uncached_s * 1e3:.1f}", "-",
             reports[False].completed, f"{reports[False].ops_per_sec:.2f}"],
            ["speedup", f"{speedup:.2f}x", "", "", ""],
        ],
    )

    # The cache serves the same traffic...
    assert reports[True].offered == reports[False].offered
    assert reports[True].completed == reports[False].completed > 0
    # ...absorbs most scoring work (deterministic)...
    assert hit_rate > 0.5
    # ...and the min-of-N cached run beats the min-of-N uncached run.
    # (Typical margin is ~1.4x; the assertion is deliberately loose so a
    # noisy shared CI runner cannot flip it.)
    assert speedup > 1.0


# --------------------------------------------------------------------- #
# Federation shard sweep
# --------------------------------------------------------------------- #

#: fixed fleet size: heats_testbed scale 8 = 32 heterogeneous nodes.
FEDERATION_TOTAL_SCALE = 8
FEDERATION_SHARD_COUNTS = (1, 2, 4)


class _PlacementTimer:
    """Delegating scheduler wrapper timing every ``place`` call."""

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.place_time_s = 0.0
        self.place_calls = 0

    def __getattr__(self, name):
        return getattr(self._scheduler, name)

    def place(self, request, cluster, time_s):
        start = time.perf_counter()
        node = self._scheduler.place(request, cluster, time_s)
        self.place_time_s += time.perf_counter() - start
        self.place_calls += 1
        return node

    def reschedule(self, running, cluster, time_s):
        return self._scheduler.reschedule(running, cluster, time_s)

    @property
    def mean_place_latency_s(self) -> float:
        return self.place_time_s / self.place_calls if self.place_calls else 0.0


def _federation_run(workload, num_shards: int):
    """One serving run; returns (timer, report, federation stats or None)."""
    gateway_tenants = workload.tenants
    from repro.serving import RequestGateway as _Gateway

    if num_shards == 1:
        # Today's path: one HEATS scheduler over the whole 32-node fleet.
        cluster = Cluster.heats_testbed(scale=FEDERATION_TOTAL_SCALE)
        scheduler = HeatsScheduler.with_learned_models(
            cluster, seed=7, score_cache=PredictionScoreCache()
        )
        timer = _PlacementTimer(scheduler)
        loop = ServingLoop(cluster, timer, _Gateway(gateway_tenants))
        report = loop.run(workload.requests)
        return timer, report, None
    federation = Federation.build(
        num_shards=num_shards,
        shard_scale=FEDERATION_TOTAL_SCALE // num_shards,
        seed=7,
    )
    for tenant in gateway_tenants:
        if tenant.region is not None:
            federation.scheduler.register_tenant_region(tenant.name, tenant.region)
    timer = _PlacementTimer(federation.scheduler)
    loop = ServingLoop(federation.cluster, timer, _Gateway(gateway_tenants))
    report = loop.run(workload.requests)
    return timer, report, federation.stats


@pytest.mark.benchmark(group="serving")
def test_serving_federation_shard_sweep(bench, smoke):
    tenants = [
        Tenant(name="perf-tenant", rate_limit_rps=500.0, burst=200, energy_weight=0.1),
        Tenant(name="eco-tenant", rate_limit_rps=500.0, burst=200, energy_weight=0.9,
               region="eu-north"),
    ]
    offered_rps, duration_s, repeats = (40.0, 10.0, 2) if smoke else (120.0, 30.0, 3)
    workload = ServingWorkload.synthetic(
        tenants, _mix(), offered_rps=offered_rps, duration_s=duration_s, seed=29
    )

    best = {}
    reports = {}
    stats = {}
    for _ in range(repeats):
        for num_shards in FEDERATION_SHARD_COUNTS:
            timer, report, fed_stats = _federation_run(workload, num_shards)
            latency = timer.mean_place_latency_s
            if num_shards not in best or latency < best[num_shards][0]:
                best[num_shards] = (latency, timer.place_calls)
                reports[num_shards] = report
                stats[num_shards] = fed_stats

    rows = []
    for num_shards in FEDERATION_SHARD_COUNTS:
        latency, calls = best[num_shards]
        report = reports[num_shards]
        fed_stats = stats[num_shards]
        rows.append(
            [
                f"{num_shards}" + (" (single)" if num_shards == 1 else ""),
                4 * FEDERATION_TOTAL_SCALE,
                report.completed,
                calls,
                f"{latency * 1e6:.1f}",
                f"{report.ops_per_sec:.2f}",
                f"{fed_stats.affinity_hit_rate:.2f}" if fed_stats else "-",
                fed_stats.cross_shard_migrations if fed_stats else "-",
            ]
        )
    single, two, four = (reports[n] for n in FEDERATION_SHARD_COUNTS)
    run = bench("federation_sweep")
    place_speedup = (
        best[1][0] / best[4][0] if best[4][0] > 0 else float("inf")
    )
    # Per-place latency ratios are wall-clock: gated loosely.
    run.metric("place_latency_speedup_4shard", place_speedup,
               direction="higher", tolerance=0.50)
    run.metric("place_latency_us_1shard", best[1][0] * 1e6, direction="lower",
               gate=False)
    run.metric("place_latency_us_4shard", best[4][0] * 1e6, direction="lower",
               gate=False)
    run.metric("ops_per_sec", four.ops_per_sec, direction="higher",
               tolerance=0.05)
    run.metric("p50_latency_s", four.p50_latency_s, direction="lower",
               tolerance=0.05)
    run.metric("p99_latency_s", four.p99_latency_s, direction="lower",
               tolerance=0.05)
    run.metric("node_seconds", 4 * FEDERATION_TOTAL_SCALE * four.horizon_s,
               direction="lower", tolerance=0.05)
    run.metric("completed", four.completed, direction="higher", tolerance=0.01)
    run.metric("affinity_hit_rate_4shard", stats[4].affinity_hit_rate,
               direction="higher", gate=False)
    run.table(
        "federation_sweep",
        "Federation shard sweep -- same workload, fixed 32-node fleet "
        f"(min of {repeats} runs, {len(workload.requests)} requests"
        f"{', smoke' if smoke else ''})",
        ["shards", "nodes", "completed", "place calls", "place latency (us)",
         "ops/sec", "affinity hits", "x-shard migr"],
        rows,
    )
    # Identical traffic is served at every shard count...
    assert single.offered == two.offered == four.offered > 0
    for report in (single, two, four):
        assert report.completed > 0
        assert report.admitted == report.completed + report.dropped
    # ...routing telemetry is consistent (every placement has a shard)...
    for num_shards in (2, 4):
        assert stats[num_shards].placements == sum(
            stats[num_shards].placements_by_shard.values()
        )
        assert len(stats[num_shards].placements_by_shard) <= num_shards
    # ...region seeding was exercised (eco-tenant carries a region)...
    for num_shards in (2, 4):
        assert stats[num_shards].region_seeded >= 1
    # ...and the two-level router stays cheap: since the array-native
    # capacity table answers whole-fleet candidate discovery with one
    # memoised vectorised mask, per-place cost at this 32-node fleet is
    # dominated by fixed scoring work, not fleet size — so the
    # shard-ranking hop must stay a bounded fraction of a placement (it
    # is O(shards), skipped when a tenant's pinned shard hosts, and a
    # regression to O(fleet) routing would blow well past this bound).
    assert best[4][0] <= best[1][0] * 1.5

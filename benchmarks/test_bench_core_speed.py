"""CORE SPEED: the array-native discrete-event hot path, at two scales.

Not a paper figure: this benchmark tracks the serving simulator's core
hot path -- structured-array cluster capacity, the single event heap, and
the capacity-gated retry index -- on the memory-bound flash-crowd
workload (aggregate memory demand saturates the cluster while plenty of
cores stay free, the regime that degenerated the retired pre-PR-5 scan
path to O(pending x nodes)).

Two scale points:

1. **10k requests / 64 nodes** -- in both tiers (it is the ``--smoke``
   lane point, so CI's harness gate covers the array core directly).
   Each of ``TIMING_REPS`` repetitions serves the stream twice, untraced
   and with an enabled :class:`~repro.telemetry.trace.Tracer`, back to
   back and alternating which goes first.  Every untraced repetition
   must produce a bit-identical :class:`ServingReport`, and every traced
   one the same report plus its trace.  ``tracing_overhead`` is the
   median of the per-repetition traced/untraced wall ratios.
2. **100k requests / 512 nodes** (full tier only) -- the scale point the
   array rebuild targets; a single serve run with gated throughput.

The gated metrics are simulated-clock values (deterministic, tight
tolerances) plus ``tracing_overhead``.  Host time end to end and per
layer is measured from outside the program by ``benchmarks/e2e/run.py``
(its ``flash_crowd`` workload is this stream at 128 nodes); the walls
here are recorded ungated.  Peak structured-array bytes (cluster
capacity table + placement-engine task arrays) are reported per point as
ungated memory metrics for ``benchmarks/trend.py``.  Emitted to
``BENCH_core_speed.json``; the table renders to
``benchmarks/results/core_speed.txt``.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.serving.batching import BatchPolicy
from repro.serving.cache import PredictionScoreCache
from repro.serving.gateway import RequestGateway, ServingRequest, Tenant
from repro.serving.loop import ServingLoop
from repro.telemetry.trace import Tracer

#: untraced/traced serve pairs for the timed 10k point.
TIMING_REPS = 5

BATCH_POLICY = BatchPolicy(max_batch_size=4, max_delay_s=1.0, memory_bucket_gib=1.0)


def _tenants() -> List[Tenant]:
    # Admission wide open: this benchmark measures the placement hot
    # path, not the token buckets, so every offered request reaches it.
    return [
        Tenant(name="analytics", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.3),
        Tenant(name="training", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.6),
    ]


def memory_bound_flash_crowd(
    tenants: List[Tenant], count: int, duration_s: float, seed: int = 42
) -> List[ServingRequest]:
    """A request stream that saturates memory while cores stay free.

    Demands of 2-7 GiB against a testbed whose SoC nodes hold 4-8 GiB
    keep hundreds of batches queued with free cores everywhere -- the
    regime where per-completion placement retries dominate, which the
    shape-bucketed retry index must keep off the critical path.
    """
    rng = np.random.default_rng(seed)
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


def timed_run(
    tenants: List[Tenant],
    requests: List[ServingRequest],
    scale: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[object, float]:
    """Serve the stream on a fresh cluster; returns (report, seconds)."""
    cluster = Cluster.heats_testbed(scale=scale)
    scheduler = HeatsScheduler.with_learned_models(
        cluster, seed=7, score_cache=PredictionScoreCache()
    )
    loop = ServingLoop(
        cluster,
        scheduler,
        RequestGateway(tenants),
        batch_policy=BATCH_POLICY,
        tracer=tracer,
    )
    start = time.perf_counter()
    report = loop.run(requests)
    return report, time.perf_counter() - start


def _fingerprint(report) -> Tuple[object, ...]:
    """Everything two runs of the same stream must agree on, bit for bit."""
    return (
        report.summary(),
        report.latencies_s,
        report.completions_s,
        report.simulation.summary(),
        report.simulation.peak_array_bytes,
    )


def test_core_hot_path_speedup(bench, smoke):
    # The 10k/64 point runs in BOTH tiers (it is the smoke
    # point); the 100k/512 scale point rides only in the full tier.
    count, duration_s, scale = 10_000, 100.0, 16
    reps = 3 if smoke else TIMING_REPS
    tenants = _tenants()
    requests = memory_bound_flash_crowd(tenants, count, duration_s)

    untraced, traced, ratios = [], [], []
    for repetition in range(reps):
        # Back to back, alternating which serve goes first, so machine
        # drift over the run does not land on one side of the ratio.
        if repetition % 2:
            traced_run = timed_run(tenants, requests, scale, tracer=Tracer(enabled=True))
            plain_run = timed_run(tenants, requests, scale)
        else:
            plain_run = timed_run(tenants, requests, scale)
            traced_run = timed_run(tenants, requests, scale, tracer=Tracer(enabled=True))
        untraced.append(plain_run)
        traced.append(traced_run)
        ratios.append(traced_run[1] / plain_run[1])
    report = untraced[0][0]
    wall_s = min(seconds for _, seconds in untraced)
    # Determinism gate: every serve of the same stream must produce a
    # bit-identical report.
    reference = _fingerprint(report)
    for repeat, _ in untraced[1:]:
        assert _fingerprint(repeat) == reference
    assert report.dropped == 0 and report.rejected == 0
    # Tracing must not perturb the simulation, only observe it: the traced
    # summary is the untraced one plus its "trace" section.
    for traced_report, _ in traced:
        traced_summary = traced_report.summary()
        traced_summary.pop("trace")
        assert traced_summary == report.summary()
        assert traced_report.trace_spans
    assert report.trace_spans is None

    tracing_overhead = statistics.median(ratios)
    run = bench("core_speed")
    # The wall-clock ratio carries a loose tolerance (shared-runner
    # noise); simulated quantities are deterministic and gated tightly.
    run.metric("tracing_overhead", tracing_overhead, direction="lower",
               tolerance=0.50, abs_tolerance=0.50)
    run.metric("wall_clock_s", wall_s, direction="lower", gate=False)
    run.metric("ops_per_sec", report.ops_per_sec, direction="higher",
               tolerance=0.02)
    run.metric("p50_latency_s", report.p50_latency_s, direction="lower",
               tolerance=0.02)
    run.metric("p99_latency_s", report.p99_latency_s, direction="lower",
               tolerance=0.02)
    run.metric("node_seconds", 4 * scale * report.horizon_s,
               direction="lower", tolerance=0.02)
    run.metric("completed", report.completed, direction="higher",
               tolerance=0.01)
    # Memory, bounded honestly: peak structured-array bytes (capacity
    # table + placement-engine task arrays), ungated trend metric.
    run.metric("peak_array_bytes", report.simulation.peak_array_bytes,
               direction="lower", gate=False)
    run.attach_trace(traced[0][0].trace_summary())

    rows = [[
        len(requests),
        4 * scale,
        report.batches,
        f"{wall_s:.2f}",
        f"{tracing_overhead:.2f}x",
        f"{report.simulation.peak_array_bytes / 2**20:.2f}",
        "yes",
    ]]

    if not smoke:
        # The scale point the array rebuild targets: 100k requests on 512
        # nodes, heavier saturation, one serve run.  It must complete and
        # its throughput is gated like the 10k point's.
        scale_report, scale_wall_s = timed_run(
            tenants,
            memory_bound_flash_crowd(tenants, 100_000, 250.0),
            128,
        )
        assert scale_report.dropped == 0 and scale_report.rejected == 0
        run.metric("scale100k_ops_per_sec", scale_report.ops_per_sec,
                   direction="higher", tolerance=0.02)
        run.metric("scale100k_completed", scale_report.completed,
                   direction="higher", tolerance=0.01)
        run.metric("scale100k_p99_latency_s", scale_report.p99_latency_s,
                   direction="lower", tolerance=0.02)
        run.metric("scale100k_wall_clock_s", scale_wall_s, direction="lower",
                   gate=False)
        run.metric("scale100k_peak_array_bytes",
                   scale_report.simulation.peak_array_bytes,
                   direction="lower", gate=False)
        rows.append([
            100_000,
            512,
            scale_report.batches,
            f"{scale_wall_s:.2f}",
            "-",
            f"{scale_report.simulation.peak_array_bytes / 2**20:.2f}",
            "-",
        ])

    run.table(
        "core_speed",
        "Array-native core on the memory-bound flash crowd "
        f"(wall_s = best of {reps} untraced serves; traced_x = median "
        f"traced/untraced wall ratio over {reps} alternating pairs)"
        + (" (smoke)" if smoke else ""),
        ["requests", "nodes", "batches", "wall_s", "traced_x",
         "peak_array_mib", "identical_reports"],
        rows,
    )

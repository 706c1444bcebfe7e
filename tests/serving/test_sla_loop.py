"""SLA tracker unit tests plus the full serving round trip."""

from __future__ import annotations

import pytest

from repro import DeploymentSpec, LegatoSystem, ServingWorkload
from repro.api import SchedulerSpec, TopologySpec
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.serving import (
    BatchPolicy,
    RequestGateway,
    ServingLoop,
    SlaTracker,
    Tenant,
    endpoint,
    synthesize_traffic,
)


class TestSlaTracker:
    def test_percentiles_and_throughput(self):
        tracker = SlaTracker()
        for latency in range(1, 101):  # 1..100 seconds
            tracker.record_completion("acme", float(latency), energy_j=2.0)
        report = tracker.report("acme", horizon_s=50.0)
        assert report.completed == 100
        assert report.p50_latency_s == pytest.approx(50.5)
        assert report.p99_latency_s == pytest.approx(99.01)
        assert report.throughput_rps == pytest.approx(2.0)
        assert report.energy_per_request_j == pytest.approx(2.0)

    def test_rejection_and_deadline_accounting(self):
        tracker = SlaTracker()
        tracker.record_offered("acme", admitted=True)
        tracker.record_offered("acme", admitted=True)
        tracker.record_offered("acme", admitted=False)
        tracker.record_completion("acme", 1.0, 1.0, deadline_met=True)
        tracker.record_completion("acme", 9.0, 1.0, deadline_met=False)
        report = tracker.report("acme", horizon_s=10.0)
        assert report.rejection_rate == pytest.approx(1 / 3)
        assert report.deadline_hit_rate == pytest.approx(0.5)

    def test_slo_verdict(self):
        tracker = SlaTracker()
        tracker.set_latency_slo("acme", 5.0)
        tracker.record_completion("acme", 4.0, 1.0)
        assert tracker.report("acme", 10.0).slo_met
        tracker.record_completion("acme", 60.0, 1.0)
        assert not tracker.report("acme", 10.0).slo_met

    def test_slo_not_vacuously_met_when_all_traffic_dropped(self):
        tracker = SlaTracker()
        tracker.set_latency_slo("acme", 5.0)
        tracker.record_offered("acme", admitted=True)
        tracker.record_dropped("acme")
        report = tracker.report("acme", 10.0)
        assert report.completed == 0 and report.dropped == 1
        assert not report.slo_met

    def test_empty_tenant_report(self):
        report = SlaTracker().report("ghost", horizon_s=10.0)
        assert report.completed == 0
        assert report.p99_latency_s == 0.0
        assert report.deadline_hit_rate == 1.0

    def test_registered_tenant_with_zero_traffic_still_reported(self):
        tracker = SlaTracker()
        tracker.set_latency_slo("quiet", 5.0)
        reports = tracker.reports(horizon_s=10.0)
        assert "quiet" in reports
        assert reports["quiet"].offered == 0
        assert reports["quiet"].slo_met


class TestEndpoints:
    def test_known_endpoints(self):
        for name in ("ml_inference", "smartmirror", "iot_gateway"):
            assert endpoint(name).name == name
        with pytest.raises(KeyError):
            endpoint("nope")

    def test_traffic_is_sorted_and_reproducible(self):
        tenants = [Tenant(name="a"), Tenant(name="b")]
        mix = {"a": {"ml_inference": 1.0}, "b": {"iot_gateway": 1.0}}
        one = synthesize_traffic(tenants, mix, offered_rps=10.0, duration_s=20.0, seed=4)
        two = synthesize_traffic(tenants, mix, offered_rps=10.0, duration_s=20.0, seed=4)
        assert [r.request_id for r in one] == [r.request_id for r in two]
        arrivals = [r.arrival_s for r in one]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in one} == {"a", "b"}

    def test_missing_mix_rejected(self):
        with pytest.raises(ValueError):
            synthesize_traffic([Tenant(name="a")], {}, offered_rps=1.0, duration_s=1.0)


def _two_tenant_workload(offered_rps=20.0, duration_s=30.0, seed=9) -> ServingWorkload:
    tenants = [
        Tenant(name="perf-tenant", rate_limit_rps=40, burst=40, energy_weight=0.1,
               latency_slo_s=120.0),
        Tenant(name="eco-tenant", rate_limit_rps=8, burst=8, energy_weight=0.9),
    ]
    mix = {
        "perf-tenant": {"ml_inference": 0.6, "smartmirror": 0.4},
        "eco-tenant": {"iot_gateway": 0.7, "ml_inference": 0.3},
    }
    return ServingWorkload.synthetic(
        tenants, mix, offered_rps=offered_rps, duration_s=duration_s, seed=seed
    )


class TestServingLoop:
    def test_round_trip_conservation(self, heterogeneous_cluster):
        workload = _two_tenant_workload()
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        loop = ServingLoop(
            heterogeneous_cluster,
            HeatsScheduler(models),
            RequestGateway(workload.tenants),
            batch_policy=BatchPolicy(max_batch_size=8, max_delay_s=1.0),
        )
        report = loop.run(workload.requests)
        # Every offered request is accounted for exactly once.
        assert report.offered == len(workload.requests)
        assert report.admitted == report.completed + report.dropped
        assert report.rejected == report.offered - report.admitted
        assert len(report.latencies_s) == report.completed
        per_tenant = report.tenant_reports
        assert set(per_tenant) == {"perf-tenant", "eco-tenant"}
        assert sum(r.offered for r in per_tenant.values()) == report.offered
        assert sum(r.completed for r in per_tenant.values()) == report.completed
        # The tight rate limit on the eco tenant actually rejects traffic.
        assert per_tenant["eco-tenant"].rejected > 0
        assert report.ops_per_sec > 0
        assert report.p99_latency_s >= report.p50_latency_s > 0

    def test_facade_serve_round_trip(self):
        workload = _two_tenant_workload(offered_rps=12.0, duration_s=20.0)
        spec = DeploymentSpec(topology=TopologySpec(cluster_scale=2))
        report = LegatoSystem().deploy(spec).serve(workload)
        assert report.completed > 0
        assert report.cache_stats is not None
        assert report.cache_stats.lookups > 0
        summary = report.summary()
        assert set(summary["tenants"]) == {"perf-tenant", "eco-tenant"}

    def test_cache_off_matches_cache_on_outcome(self):
        workload = _two_tenant_workload(offered_rps=12.0, duration_s=20.0)
        topology = TopologySpec(cluster_scale=2)
        on = LegatoSystem().deploy(
            DeploymentSpec(topology=topology, scheduler=SchedulerSpec(score_cache=True))
        ).serve(workload)
        off = LegatoSystem().deploy(
            DeploymentSpec(topology=topology, scheduler=SchedulerSpec(score_cache=False))
        ).serve(workload)
        assert on.offered == off.offered
        assert on.completed == off.completed
        assert off.cache_stats is None

    def test_deadline_expiring_at_end_of_stream_does_not_crash(self, heterogeneous_cluster):
        # The lone request's deadline passes before the end-of-stream flush
        # (arrival + max_delay); the run must complete and score the miss.
        from repro.serving.endpoints import endpoint
        from repro.serving.gateway import ServingRequest

        shape = endpoint("ml_inference")
        tenant = Tenant(name="a")
        request = ServingRequest(
            request_id="r0",
            tenant="a",
            use_case=shape.name,
            arrival_s=10.0,
            workload=shape.workload,
            gops=shape.gops_per_request,
            cores=shape.cores,
            memory_gib=shape.memory_gib,
            deadline_s=10.5,
        )
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        loop = ServingLoop(
            heterogeneous_cluster,
            HeatsScheduler(models),
            RequestGateway([tenant]),
            batch_policy=BatchPolicy(max_batch_size=16, max_delay_s=2.0),
        )
        report = loop.run([request])
        assert report.completed == 1
        assert report.tenant_reports["a"].deadline_misses == 1

    def test_tail_batch_flushes_deadline_aware_not_at_max_delay(self, heterogeneous_cluster):
        # A tail request with slack (deadline at end+1.0 s, margin 0.5 s)
        # must flush via the deadline-aware path and meet its deadline, not
        # be held until end + max_delay (2.0 s) past the deadline.
        from repro.serving.endpoints import endpoint
        from repro.serving.gateway import ServingRequest

        shape = endpoint("iot_gateway")
        tenant = Tenant(name="a")
        request = ServingRequest(
            request_id="tail",
            tenant="a",
            use_case=shape.name,
            arrival_s=10.0,
            workload=shape.workload,
            gops=0.1,  # near-instant execution: latency is flush-dominated
            cores=shape.cores,
            memory_gib=shape.memory_gib,
            deadline_s=11.0,
        )
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        loop = ServingLoop(
            heterogeneous_cluster,
            HeatsScheduler(models),
            RequestGateway([tenant]),
            batch_policy=BatchPolicy(
                max_batch_size=16, max_delay_s=2.0, deadline_margin_s=0.5
            ),
        )
        report = loop.run([request])
        assert report.completed == 1
        assert report.tenant_reports["a"].deadline_hits == 1

    def test_bounded_queue_backpressure_fires_under_burst(self, heterogeneous_cluster):
        # 60 requests inside one flush tick against a depth-5 queue: the
        # token bucket admits them but the bounded queue must shed most.
        from repro.serving.endpoints import endpoint
        from repro.serving.gateway import ServingRequest

        shape = endpoint("ml_inference")
        tenant = Tenant(name="a", rate_limit_rps=1000.0, burst=100, max_queue_depth=5)
        requests = [
            ServingRequest(
                request_id=f"r{i}",
                tenant="a",
                use_case=shape.name,
                arrival_s=i * 0.001,
                workload=shape.workload,
                gops=shape.gops_per_request,
                cores=shape.cores,
                memory_gib=shape.memory_gib,
            )
            for i in range(60)
        ]
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        gateway = RequestGateway([tenant])
        loop = ServingLoop(
            heterogeneous_cluster, HeatsScheduler(models), gateway, flush_tick_s=0.5
        )
        report = loop.run(requests)
        assert gateway.stats("a").rejected_queue_full > 0
        assert report.admitted == 5
        assert report.admitted == report.completed + report.dropped

    def test_scheduler_rescheduling_interval_is_honoured(self, heterogeneous_cluster):
        intervals: dict = {}

        class RecordingScheduler:
            name = "recording"
            supports_rescheduling = True

            def __init__(self, interval):
                from repro.scheduler.heats import HeatsConfig

                self.config = HeatsConfig(rescheduling_interval_s=interval)

            def place(self, request, cluster, time_s):
                for node in cluster:
                    if node.can_host(request.cores, request.memory_gib):
                        return node.name
                return None

            def reschedule(self, running, cluster, time_s):
                intervals.setdefault("ticks", []).append(time_s)
                return []

        workload = _two_tenant_workload(offered_rps=6.0, duration_s=10.0)
        loop = ServingLoop(
            heterogeneous_cluster, RecordingScheduler(7.0), RequestGateway(workload.tenants)
        )
        loop.run(workload.requests)
        ticks = intervals.get("ticks", [])
        assert ticks, "rescheduling should have run"
        assert ticks[0] == pytest.approx(7.0)

    def test_unknown_tenant_request_keeps_totals_consistent(self, heterogeneous_cluster):
        # ServingLoop.run accepts raw requests; an unregistered tenant's
        # request is rejected but must still show up in the totals so
        # overall and per-tenant numbers agree.
        from repro.serving.endpoints import endpoint
        from repro.serving.gateway import ServingRequest

        shape = endpoint("ml_inference")
        stray = ServingRequest(
            request_id="s0",
            tenant="stranger",
            use_case=shape.name,
            arrival_s=0.0,
            workload=shape.workload,
            gops=shape.gops_per_request,
            cores=shape.cores,
            memory_gib=shape.memory_gib,
        )
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        loop = ServingLoop(
            heterogeneous_cluster, HeatsScheduler(models), RequestGateway([Tenant(name="a")])
        )
        report = loop.run([stray])
        assert report.offered == 1
        assert report.admitted == 0
        assert report.rejection_rate == 1.0
        assert report.tenant_reports["stranger"].rejected == 1

    def test_loop_refuses_reuse(self, heterogeneous_cluster):
        workload = _two_tenant_workload(offered_rps=4.0, duration_s=5.0)
        models = ProfilingCampaign(heterogeneous_cluster, seed=3).run().fit()
        loop = ServingLoop(
            heterogeneous_cluster, HeatsScheduler(models), RequestGateway(workload.tenants)
        )
        loop.run(workload.requests)
        with pytest.raises(RuntimeError, match="only run once"):
            loop.run(workload.requests)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            ServingWorkload(tenants=(), requests=())
        tenant = Tenant(name="a")
        with pytest.raises(ValueError):
            ServingWorkload(tenants=(tenant, tenant), requests=())
        stray = synthesize_traffic(
            [Tenant(name="b")], {"b": {"ml_inference": 1.0}}, offered_rps=5.0, duration_s=5.0
        )
        with pytest.raises(ValueError):
            ServingWorkload(tenants=(tenant,), requests=tuple(stray))

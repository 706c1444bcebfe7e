"""Gateway unit tests: token bucket, admission control, fair drain."""

from __future__ import annotations

import pytest

from repro.hardware.microserver import WorkloadKind
from repro.serving.gateway import (
    _ADMISSION_OUTCOMES,
    AdmissionDecision,
    RequestGateway,
    ServingRequest,
    Tenant,
    TokenBucket,
)


def make_request(request_id: str, tenant: str, arrival_s: float = 0.0) -> ServingRequest:
    return ServingRequest(
        request_id=request_id,
        tenant=tenant,
        use_case="ml_inference",
        arrival_s=arrival_s,
        workload=WorkloadKind.DNN_INFERENCE,
        gops=3.0,
        cores=2,
        memory_gib=0.5,
    )


class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=3)
        assert all(bucket.try_consume(0.0) for _ in range(3))
        assert not bucket.try_consume(0.0)

    def test_refill_at_rate(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=4)
        for _ in range(4):
            assert bucket.try_consume(0.0)
        assert not bucket.try_consume(0.4)  # only 0.8 tokens refilled
        assert bucket.try_consume(0.5)  # 1.0 token available now

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=5)
        assert bucket.available(1000.0) == pytest.approx(5.0)

    def test_time_must_be_monotonic(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1)
        bucket.try_consume(5.0)
        with pytest.raises(ValueError):
            bucket.try_consume(4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0)


class TestAdmission:
    def test_unknown_tenant_rejected(self):
        gateway = RequestGateway([Tenant(name="acme")])
        decision = gateway.offer(make_request("r0", "nobody"))
        assert decision is AdmissionDecision.REJECTED_UNKNOWN_TENANT
        assert not decision.admitted

    def test_rate_limit_rejection_counted(self):
        gateway = RequestGateway([Tenant(name="acme", rate_limit_rps=1.0, burst=2)])
        decisions = [gateway.offer(make_request(f"r{i}", "acme")) for i in range(4)]
        assert decisions[:2] == [AdmissionDecision.ADMITTED] * 2
        assert decisions[2:] == [AdmissionDecision.REJECTED_RATE_LIMIT] * 2
        stats = gateway.stats("acme")
        assert (stats.offered, stats.admitted, stats.rejected_rate_limit) == (4, 2, 2)
        assert stats.rejection_rate == pytest.approx(0.5)

    def test_bounded_queue_rejects_when_full(self):
        gateway = RequestGateway(
            [Tenant(name="acme", rate_limit_rps=100.0, burst=100, max_queue_depth=3)]
        )
        decisions = [gateway.offer(make_request(f"r{i}", "acme")) for i in range(5)]
        assert decisions.count(AdmissionDecision.ADMITTED) == 3
        assert decisions.count(AdmissionDecision.REJECTED_QUEUE_FULL) == 2
        assert gateway.queue_depth("acme") == 3

    def test_tokens_refill_over_arrival_time(self):
        gateway = RequestGateway([Tenant(name="acme", rate_limit_rps=1.0, burst=1)])
        assert gateway.offer(make_request("r0", "acme", arrival_s=0.0)).admitted
        assert not gateway.offer(make_request("r1", "acme", arrival_s=0.1)).admitted
        assert gateway.offer(make_request("r2", "acme", arrival_s=1.2)).admitted

    def test_queue_full_rejection_does_not_burn_tokens(self):
        gateway = RequestGateway(
            [Tenant(name="acme", rate_limit_rps=0.001, burst=2, max_queue_depth=1)]
        )
        assert gateway.offer(make_request("r0", "acme")).admitted
        # Queue now full: this rejection must not consume the second token.
        assert (
            gateway.offer(make_request("r1", "acme"))
            is AdmissionDecision.REJECTED_QUEUE_FULL
        )
        gateway.drain()
        # The spared token still admits the next request.
        assert gateway.offer(make_request("r2", "acme")).admitted

    def test_duplicate_tenant_registration_fails(self):
        gateway = RequestGateway([Tenant(name="acme")])
        with pytest.raises(ValueError):
            gateway.register(Tenant(name="acme"))


class TestDrain:
    def test_round_robin_across_tenants(self):
        gateway = RequestGateway(
            [Tenant(name="a", rate_limit_rps=100, burst=100),
             Tenant(name="b", rate_limit_rps=100, burst=100)]
        )
        for i in range(3):
            gateway.offer(make_request(f"a{i}", "a"))
        gateway.offer(make_request("b0", "b"))
        drained = gateway.drain()
        # Tenant b's single request is not stuck behind all of tenant a's.
        assert [r.request_id for r in drained] == ["a0", "b0", "a1", "a2"]
        assert gateway.queue_depth("a") == 0

    def test_drain_limit(self):
        gateway = RequestGateway([Tenant(name="a", rate_limit_rps=100, burst=100)])
        for i in range(5):
            gateway.offer(make_request(f"a{i}", "a"))
        assert len(gateway.drain(limit=2)) == 2
        assert gateway.queue_depth("a") == 3


class TestValidation:
    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Tenant(name="")
        with pytest.raises(ValueError):
            Tenant(name="x", rate_limit_rps=-1)
        with pytest.raises(ValueError):
            Tenant(name="x", energy_weight=1.5)
        with pytest.raises(ValueError):
            Tenant(name="x", latency_slo_s=0.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            make_request("r", "t", arrival_s=-1.0)
        with pytest.raises(ValueError):
            ServingRequest(
                request_id="r",
                tenant="t",
                use_case="u",
                arrival_s=5.0,
                workload=WorkloadKind.SCALAR,
                gops=1.0,
                cores=1,
                memory_gib=1.0,
                deadline_s=4.0,
            )


class TestTokenBucketLargeTimeJump:
    """Regression: a huge simulated-time gap must not over-credit a tenant."""

    def test_large_tick_jump_refills_exactly_to_burst(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5)
        assert all(bucket.try_consume(0.0) for _ in range(5))  # drained
        # A pathological horizon jump: the refill product would overflow
        # without the elapsed clamp; the bucket must hold exactly `burst`.
        assert bucket.available(1e308) == pytest.approx(5.0)
        assert all(bucket.try_consume(1e308) for _ in range(5))
        assert not bucket.try_consume(1e308)

    def test_rate_resumes_normally_after_a_jump(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=4)
        for _ in range(4):
            assert bucket.try_consume(0.0)
        assert bucket.available(1e6) == pytest.approx(4.0)
        for _ in range(4):
            assert bucket.try_consume(1e6)
        # Post-jump refill proceeds at the configured rate, not more.
        assert not bucket.try_consume(1e6 + 0.4)  # only 0.8 tokens back
        assert bucket.try_consume(1e6 + 0.5)  # 1.0 token back

    def test_gateway_admission_after_idle_gap_is_bounded_by_burst(self):
        gateway = RequestGateway([Tenant(name="acme", rate_limit_rps=1.0, burst=3)])
        for i in range(3):
            assert gateway.offer(make_request(f"warm{i}", "acme", arrival_s=0.0)).admitted
        gateway.drain()
        # After a week of simulated idleness the tenant gets its burst
        # back -- and not one request more.
        idle_end = 7 * 24 * 3600.0
        decisions = [
            gateway.offer(make_request(f"cold{i}", "acme", arrival_s=idle_end))
            for i in range(5)
        ]
        assert decisions.count(AdmissionDecision.ADMITTED) == 3
        assert decisions.count(AdmissionDecision.REJECTED_RATE_LIMIT) == 2


class TestGatewayMetrics:
    def test_admission_hot_path_records_into_the_bus(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        gateway = RequestGateway(
            [Tenant(name="acme", rate_limit_rps=1.0, burst=2, max_queue_depth=8)],
            metrics=registry,
        )
        for i in range(4):
            gateway.offer(make_request(f"r{i}", "acme", arrival_s=0.0))
        snapshot = registry.snapshot()
        assert snapshot.counter("gateway.offered") == 4.0
        assert snapshot.counter("gateway.admitted") == 2.0
        assert snapshot.counter("gateway.rejected") == 2.0
        assert snapshot.gauges["gateway.queue_depth"] == 2.0
        gateway.drain()
        assert registry.snapshot().gauges["gateway.queue_depth"] == 0.0


class TestBulkAdmission:
    """The per-tenant pass over a column equals one ``offer`` per request."""

    TENANT = Tenant(name="a", rate_limit_rps=4.0, burst=4, max_queue_depth=2)
    #: (arrival, drain period); the queue drains when the period changes.
    OFFERS = [(0.0, 0), (0.0, 0), (0.0, 0), (0.1, 0), (1.0, 1), (1.0, 1),
              (1.05, 1), (1.1, 2), (1.1, 2), (1.1, 2), (1.15, 3), (3.0, 4),
              (9.0, 5)]

    def test_admit_matches_one_token_bucket_call_per_offer(self):
        bucket = TokenBucket(self.TENANT.rate_limit_rps, self.TENANT.burst)
        expected = []
        depth = period = 0
        for arrival, offer_period in self.OFFERS:
            if offer_period != period:
                depth, period = 0, offer_period  # the caller drained the queue
            if depth >= self.TENANT.max_queue_depth:
                expected.append(AdmissionDecision.REJECTED_QUEUE_FULL)
            elif bucket.try_consume(arrival):
                expected.append(AdmissionDecision.ADMITTED)
                depth += 1
            else:
                expected.append(AdmissionDecision.REJECTED_RATE_LIMIT)
        gateway = RequestGateway([self.TENANT])
        outcomes = gateway._admit(
            "a", [arrival for arrival, _ in self.OFFERS], [p for _, p in self.OFFERS]
        )
        assert [_ADMISSION_OUTCOMES[code] for code in outcomes] == expected
        assert AdmissionDecision.REJECTED_QUEUE_FULL in expected
        assert AdmissionDecision.REJECTED_RATE_LIMIT in expected
        stats = gateway.stats("a")
        assert (stats.offered, stats.admitted, stats.rejected_queue_full,
                stats.rejected_rate_limit) == (
            len(expected),
            expected.count(AdmissionDecision.ADMITTED),
            expected.count(AdmissionDecision.REJECTED_QUEUE_FULL),
            expected.count(AdmissionDecision.REJECTED_RATE_LIMIT),
        )
        assert vars(gateway._buckets["a"]) == vars(bucket)
        # Deciding queues nothing; _enqueue hands the admitted over.
        assert gateway.queued_count == 0

    def test_admit_counts_what_is_already_queued(self):
        gateway = RequestGateway([self.TENANT])
        assert gateway.offer(make_request("r0", "a", 0.0)).admitted
        # One already queued against a depth of 2: room for one more.
        outcomes = gateway._admit("a", [0.0, 0.0], [0, 0])
        assert [_ADMISSION_OUTCOMES[code] for code in outcomes] == [
            AdmissionDecision.ADMITTED,
            AdmissionDecision.REJECTED_QUEUE_FULL,
        ]
        with pytest.raises(ValueError, match="backwards"):
            gateway._admit("a", [-1.0], [0])
        with pytest.raises(KeyError):
            gateway._admit("nobody", [0.0], [0])

    def test_enqueue_then_drain_round_robins(self):
        gateway = RequestGateway([Tenant(name="a"), Tenant(name="b")])
        gateway._enqueue([make_request("a0", "a"), make_request("a1", "a"),
                          make_request("b0", "b")])
        assert gateway.queued_count == 3
        assert [r.request_id for r in gateway.drain(limit=2)] == ["a0", "b0"]
        assert [r.request_id for r in gateway.drain()] == ["a1"]
        assert gateway.drain(limit=-1) == [] and gateway.queued_count == 0

"""Request gateway: per-tenant admission control for the serving front-end.

Every tenant registers with an SLA describing its traffic contract: a
token-bucket rate limit (sustained requests/s plus a burst allowance), a
bounded ingress queue, and the energy/performance weight its batches carry
into HEATS scoring.  The gateway admits or rejects each offered request at
its arrival instant and hands admitted requests downstream in round-robin
order across tenants so one noisy tenant cannot starve the others.

:meth:`RequestGateway.offer` is the public admission entry.  Admission
itself has one implementation, a private pass over one tenant's arrival
column: :class:`~repro.serving.loop.ServingLoop` runs it once per tenant
for a whole stream, and ``offer`` runs it over a single request and
queues the request if admitted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Sequence

from repro.hardware.microserver import WorkloadKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry


@dataclass(frozen=True)
class ServingRequest:
    """One user-facing request offered to the serving front-end."""

    request_id: str
    tenant: str
    use_case: str
    arrival_s: float
    workload: WorkloadKind
    gops: float
    cores: int
    memory_gib: float
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")
        if self.gops <= 0:
            raise ValueError("request work must be positive")
        if self.cores <= 0 or self.memory_gib <= 0:
            raise ValueError("resource demands must be positive")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_s:
            raise ValueError("deadline must be after arrival")


@dataclass(frozen=True)
class Tenant:
    """One customer of the cluster-as-a-service front-end.

    ``region`` optionally names the energy region the tenant prefers (for
    data locality or contractual energy pricing); when the backend is a
    federation, the tenant's shard affinity is seeded from the shard whose
    profile matches this region.
    """

    name: str
    rate_limit_rps: float = 50.0
    burst: int = 20
    max_queue_depth: int = 256
    energy_weight: float = 0.5
    latency_slo_s: Optional[float] = None
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.region is not None and not self.region:
            raise ValueError("region must be a non-empty name when given")
        if self.rate_limit_rps <= 0:
            raise ValueError("rate limit must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if self.max_queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        if not (0.0 <= self.energy_weight <= 1.0):
            raise ValueError("energy weight must be within [0, 1]")
        if self.latency_slo_s is not None and self.latency_slo_s <= 0:
            raise ValueError("latency SLO must be positive")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity."""

    def __init__(self, rate_per_s: float, burst: int) -> None:
        if rate_per_s <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_refill_s = 0.0

    def available(self, now_s: float) -> float:
        self._refill(now_s)
        return self._tokens

    def try_consume(self, now_s: float, tokens: float = 1.0) -> bool:
        self._refill(now_s)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def _refill(self, now_s: float) -> None:
        if now_s < self._last_refill_s:
            raise ValueError("token bucket observed time going backwards")
        # Clamp the credited gap to the time a drained bucket needs to fill
        # completely.  Any longer simulated-time jump (an idle tenant, a
        # coarse replay tick, or a pathological horizon) is equivalent to a
        # full bucket -- and the clamp keeps ``elapsed * rate`` finite, so
        # an extreme jump can never over-credit past ``burst`` through
        # float overflow of the refill product.
        elapsed = min(now_s - self._last_refill_s, self.burst / self.rate_per_s)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_s)
        self._last_refill_s = now_s


class AdmissionDecision(Enum):
    """Outcome of offering one request to the gateway."""

    ADMITTED = "admitted"
    REJECTED_RATE_LIMIT = "rejected_rate_limit"
    REJECTED_QUEUE_FULL = "rejected_queue_full"
    REJECTED_UNKNOWN_TENANT = "rejected_unknown_tenant"

    @property
    def admitted(self) -> bool:
        return self is AdmissionDecision.ADMITTED


#: decisions indexed by the outcome codes :meth:`RequestGateway._admit` returns.
_ADMISSION_OUTCOMES = (
    AdmissionDecision.ADMITTED,
    AdmissionDecision.REJECTED_RATE_LIMIT,
    AdmissionDecision.REJECTED_QUEUE_FULL,
    AdmissionDecision.REJECTED_UNKNOWN_TENANT,
)
#: outcome codes (positions in :data:`_ADMISSION_OUTCOMES`).
_ADMITTED, _REJECTED_RATE_LIMIT, _REJECTED_QUEUE_FULL, _REJECTED_UNKNOWN_TENANT = range(4)


@dataclass
class GatewayStats:
    """Per-tenant admission accounting."""

    offered: int = 0
    admitted: int = 0
    rejected_rate_limit: int = 0
    rejected_queue_full: int = 0

    @property
    def rejected(self) -> int:
        return self.rejected_rate_limit + self.rejected_queue_full

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


class RequestGateway:
    """Admission control front door: one token bucket + queue per tenant."""

    def __init__(
        self,
        tenants: Sequence[Tenant] = (),
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self._tenants: Dict[str, Tenant] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._queues: Dict[str, Deque[ServingRequest]] = {}
        self._stats: Dict[str, GatewayStats] = {}
        self._queued_total = 0
        # Admission instruments are bound once; the per-offer hot path does
        # a constant number of float adds, no registry lookups.
        if metrics is not None:
            self._m_offered = metrics.counter("gateway.offered")
            self._m_admitted = metrics.counter("gateway.admitted")
            self._m_rejected = metrics.counter("gateway.rejected")
            self._m_queue_depth = metrics.gauge("gateway.queue_depth")
        else:
            self._m_offered = None
            self._m_admitted = None
            self._m_rejected = None
            self._m_queue_depth = None
        for tenant in tenants:
            self.register(tenant)

    # ------------------------------------------------------------------ #
    # Tenant management
    # ------------------------------------------------------------------ #
    def register(self, tenant: Tenant) -> None:
        if tenant.name in self._tenants:
            raise ValueError(f"tenant {tenant.name!r} is already registered")
        self._tenants[tenant.name] = tenant
        self._buckets[tenant.name] = TokenBucket(tenant.rate_limit_rps, tenant.burst)
        self._queues[tenant.name] = deque()
        self._stats[tenant.name] = GatewayStats()

    def tenant(self, name: str) -> Tenant:
        if name not in self._tenants:
            raise KeyError(f"no tenant named {name!r}")
        return self._tenants[name]

    @property
    def tenants(self) -> List[Tenant]:
        return list(self._tenants.values())

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def offer(self, request: ServingRequest, now_s: Optional[float] = None) -> AdmissionDecision:
        """Admit or reject one request at time ``now_s`` (its arrival by default)."""
        if request.tenant not in self._tenants:
            return AdmissionDecision.REJECTED_UNKNOWN_TENANT
        now = request.arrival_s if now_s is None else now_s
        decision = _ADMISSION_OUTCOMES[self._admit(request.tenant, (now,), (0,))[0]]
        if decision is AdmissionDecision.ADMITTED:
            self._enqueue((request,))
        return decision

    def _admit(
        self, tenant: str, arrivals_s: Sequence[float], drain_periods: Sequence[int]
    ) -> bytearray:
        """Decide admission for a run of one tenant's offers, in time order.

        Each offer is checked against the tenant's queue bound first (a
        queue-full rejection does not burn rate budget), then against its
        token bucket, with the bucket's own float operations in its own
        order, so the decisions and the bucket state equal those of one
        :meth:`TokenBucket.try_consume` per offer.  Stats and metrics are
        updated once for the whole run.  Admitted requests are *not*
        queued here: the caller hands them to :meth:`_enqueue` before it
        decides again.

        Args:
            tenant: a registered tenant's name.
            arrivals_s: non-decreasing offer instants.
            drain_periods: per offer, the index of the drain period it
                falls in (non-decreasing).  The caller drains the queue
                whenever the period changes, so the queue depth an offer
                sees is the requests already queued when the call began
                (period 0 only) plus the admissions earlier in its period.

        Returns:
            One outcome code per offer, indexing :data:`_ADMISSION_OUTCOMES`.

        Raises:
            KeyError: if the tenant is not registered.
            ValueError: if an arrival precedes the bucket's last refill.
        """
        spec = self.tenant(tenant)
        bucket = self._buckets[tenant]
        rate = bucket.rate_per_s
        burst = bucket.burst
        full_after_s = burst / rate
        tokens = bucket._tokens
        last_s = bucket._last_refill_s
        limit = spec.max_queue_depth
        depth = len(self._queues[tenant])
        period = 0
        outcomes = bytearray()
        outcome = outcomes.append
        for now, offer_period in zip(arrivals_s, drain_periods):
            if offer_period != period:
                period = offer_period
                depth = 0
            if depth >= limit:
                outcome(_REJECTED_QUEUE_FULL)
                continue
            # TokenBucket._refill + try_consume, inlined: min() spelt as
            # the comparison it makes, so even a NaN resolves the same way.
            if now < last_s:
                raise ValueError("token bucket observed time going backwards")
            elapsed = now - last_s
            if full_after_s < elapsed:
                elapsed = full_after_s
            refilled = tokens + elapsed * rate
            tokens = refilled if refilled < burst else burst
            last_s = now
            if tokens >= 1.0:
                tokens -= 1.0
                depth += 1
                outcome(_ADMITTED)
            else:
                outcome(_REJECTED_RATE_LIMIT)
        bucket._tokens = tokens
        bucket._last_refill_s = last_s
        admitted = outcomes.count(_ADMITTED)
        stats = self._stats[tenant]
        stats.offered += len(outcomes)
        stats.admitted += admitted
        stats.rejected_queue_full += outcomes.count(_REJECTED_QUEUE_FULL)
        stats.rejected_rate_limit += outcomes.count(_REJECTED_RATE_LIMIT)
        if self._m_offered is not None:
            self._m_offered.inc(len(outcomes))
            self._m_admitted.inc(admitted)
            self._m_rejected.inc(len(outcomes) - admitted)
        return outcomes

    def _enqueue(self, admitted: Iterable[ServingRequest]) -> None:
        """Queue requests :meth:`_admit` admitted, behind their tenants' queues."""
        queues = self._queues
        count = 0
        for request in admitted:
            queues[request.tenant].append(request)
            count += 1
        self._queued_total += count
        if self._m_queue_depth is not None and count:
            self._m_queue_depth.add(float(count))

    def drain(self, limit: Optional[int] = None) -> List[ServingRequest]:
        """Pop admitted requests, round-robin across tenants for fairness."""
        drained: List[ServingRequest] = []
        queues = [q for q in self._queues.values() if q]
        while queues and (limit is None or len(drained) < limit):
            for queue in list(queues):
                if limit is not None and len(drained) >= limit:
                    break
                drained.append(queue.popleft())
                if not queue:
                    queues.remove(queue)
        self._queued_total -= len(drained)
        if self._m_queue_depth is not None and drained:
            self._m_queue_depth.add(-float(len(drained)))
        return drained

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queued_count(self) -> int:
        """Admitted requests currently waiting to be drained, across tenants.

        Maintained as a running counter on offer/drain so the serving
        loop's event-driven tick derivation reads it in O(1).
        """
        return self._queued_total

    def queue_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    def stats(self, tenant: str) -> GatewayStats:
        if tenant not in self._stats:
            raise KeyError(f"no tenant named {tenant!r}")
        return self._stats[tenant]

    def all_stats(self) -> Dict[str, GatewayStats]:
        return dict(self._stats)

"""SLA tracking and per-tenant serving telemetry.

The serving layer is judged the way a production front-end is judged:
latency percentiles (p50/p95/p99 of request arrival to batch completion),
throughput, rejection rate at admission, deadline hit rate, and energy per
served request.  The tracker accumulates raw observations during a serving
run and renders them into per-tenant reports at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def percentiles(values: Sequence[float], qs: Sequence[float]) -> Tuple[float, ...]:
    """Several linear-interpolated percentiles from one vectorised pass.

    Converting and partially sorting the sample once per *set* of
    percentiles (instead of once per percentile) is what keeps the
    report-rendering paths linear in the sample size for large serving
    runs.

    Args:
        values: the sample (a sequence or an array); an empty sample
            yields all zeros.
        qs: the percentile ranks to compute, each in [0, 100].

    Returns:
        One value per requested rank, in the same order.
    """
    if len(values) == 0:
        return tuple(0.0 for _ in qs)
    results = np.percentile(np.asarray(values, dtype=float), qs)
    return tuple(float(value) for value in results)


@dataclass
class TenantSlaReport:
    """Rendered serving telemetry for one tenant."""

    tenant: str
    offered: int
    admitted: int
    rejected: int
    completed: int
    dropped: int
    horizon_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    deadline_hits: int
    deadline_misses: int
    energy_j: float
    latency_slo_s: Optional[float] = None

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def energy_per_request_j(self) -> float:
        return self.energy_j / self.completed if self.completed else 0.0

    @property
    def deadline_hit_rate(self) -> float:
        total = self.deadline_hits + self.deadline_misses
        return self.deadline_hits / total if total else 1.0

    @property
    def slo_met(self) -> bool:
        """Whether the tenant's p99 latency SLO (if any) was met.

        Dropped (admitted-but-never-served) traffic violates a latency SLO
        outright: with zero completions the p99 of an empty sample is 0.0
        and would otherwise pass vacuously.
        """
        if self.latency_slo_s is None:
            return True
        if self.dropped:
            return False
        if self.completed == 0:
            return True  # nothing served, but nothing dropped either
        return self.p99_latency_s <= self.latency_slo_s

    def summary(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "offered": self.offered,
            "completed": self.completed,
            "rejection_rate": round(self.rejection_rate, 4),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_latency_s": round(self.p50_latency_s, 3),
            "p95_latency_s": round(self.p95_latency_s, 3),
            "p99_latency_s": round(self.p99_latency_s, 3),
            "deadline_hit_rate": round(self.deadline_hit_rate, 4),
            "energy_per_request_j": round(self.energy_per_request_j, 2),
            "slo_met": self.slo_met,
        }


@dataclass
class _TenantAccumulator:
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    dropped: int = 0
    #: completed requests' latencies in completion order, one array per run.
    latencies_s: List[np.ndarray] = field(default_factory=list)
    deadline_hits: int = 0
    deadline_misses: int = 0
    energy_j: float = 0.0


class SlaTracker:
    """Accumulates serving observations and renders per-tenant reports."""

    def __init__(self) -> None:
        self._tenants: Dict[str, _TenantAccumulator] = {}
        self._slos: Dict[str, Optional[float]] = {}

    def _acc(self, tenant: str) -> _TenantAccumulator:
        if tenant not in self._tenants:
            self._tenants[tenant] = _TenantAccumulator()
        return self._tenants[tenant]

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #
    def set_latency_slo(self, tenant: str, slo_s: Optional[float]) -> None:
        self._acc(tenant)  # a registered tenant reports even with zero traffic
        self._slos[tenant] = slo_s

    def record_offered(self, tenant: str, admitted: bool) -> None:
        self.record_offers(tenant, 1, 1 if admitted else 0)

    def record_offers(self, tenant: str, offered: int, admitted: int) -> None:
        """Count ``offered`` offers, ``admitted`` of them admitted.

        Args:
            tenant: the tenant offered to (registered or not).
            offered: offers to count.
            admitted: how many of them were admitted; the rest were rejected.
        """
        if not 0 <= admitted <= offered:
            raise ValueError("admitted offers must be between 0 and the offers")
        acc = self._acc(tenant)
        acc.offered += offered
        acc.admitted += admitted
        acc.rejected += offered - admitted

    def record_completion(
        self,
        tenant: str,
        latency_s: float,
        energy_j: float,
        deadline_met: Optional[bool] = None,
    ) -> None:
        self.record_completions(
            tenant,
            (latency_s,),
            (energy_j,),
            deadline_hits=1 if deadline_met is True else 0,
            deadline_misses=1 if deadline_met is False else 0,
        )

    def record_completions(
        self,
        tenant: str,
        latencies_s: Sequence[float],
        energies_j: Sequence[float],
        deadline_hits: int = 0,
        deadline_misses: int = 0,
    ) -> None:
        """Record a run of completed requests, in completion order.

        Energy accumulates left to right (a cumulative sum, not numpy's
        pairwise ``sum``), so the total equals that of one
        :meth:`record_completion` per request bit for bit.

        Args:
            tenant: the tenant the requests belong to.
            latencies_s: per-request latency (a sequence or an array),
                each non-negative; the tracker keeps its own copy.
            energies_j: per-request energy, aligned with ``latencies_s``.
            deadline_hits: how many of the requests met their deadline.
            deadline_misses: how many missed theirs (the rest had none).
        """
        latencies = np.array(latencies_s, dtype=float)
        if (latencies < 0.0).any():
            raise ValueError("latency must be non-negative")
        acc = self._acc(tenant)
        acc.latencies_s.append(latencies)
        if len(energies_j):
            running = np.cumsum(np.concatenate(([acc.energy_j], energies_j)))
            acc.energy_j = float(running[-1])
        acc.deadline_hits += deadline_hits
        acc.deadline_misses += deadline_misses

    def record_dropped(self, tenant: str, count: int = 1) -> None:
        """Requests admitted but never completed (batch unplaceable)."""
        self._acc(tenant).dropped += count

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #
    def report(self, tenant: str, horizon_s: float) -> TenantSlaReport:
        acc = self._acc(tenant)
        # One array per tenant: the percentiles and the mean share it.
        latencies = np.concatenate(acc.latencies_s) if acc.latencies_s else np.empty(0)
        p50, p95, p99 = percentiles(latencies, (50.0, 95.0, 99.0))
        mean = float(latencies.mean()) if len(latencies) else 0.0
        return TenantSlaReport(
            tenant=tenant,
            offered=acc.offered,
            admitted=acc.admitted,
            rejected=acc.rejected,
            completed=len(latencies),
            dropped=acc.dropped,
            horizon_s=horizon_s,
            p50_latency_s=p50,
            p95_latency_s=p95,
            p99_latency_s=p99,
            mean_latency_s=mean,
            deadline_hits=acc.deadline_hits,
            deadline_misses=acc.deadline_misses,
            energy_j=acc.energy_j,
            latency_slo_s=self._slos.get(tenant),
        )

    def reports(self, horizon_s: float) -> Dict[str, TenantSlaReport]:
        return {name: self.report(name, horizon_s) for name in sorted(self._tenants)}

"""Multi-tenant request-serving front-end over the HEATS cluster.

The ROADMAP north star is serving heavy request traffic, not replaying
hand-built benchmark scripts.  This subsystem is the missing path from "a
stream of user requests" to "tasks placed on the cluster":

* :mod:`repro.serving.gateway`   -- per-tenant admission control with
  token-bucket rate limiting and bounded queues.
* :mod:`repro.serving.batching`  -- coalesces compatible requests (same
  tenant / use case / resource shape) into :class:`TaskRequest` batches
  with deadline-aware flushing.
* :mod:`repro.serving.cache`     -- LRU prediction-score cache so HEATS
  scoring is not recomputed per request on the hot path.
* :mod:`repro.serving.endpoints` -- the LEGaTO use cases exposed as
  servable endpoints plus a synthetic traffic generator.
* :mod:`repro.serving.sla`       -- per-tenant SLA telemetry (p50/p95/p99
  latency, throughput, rejection rate, energy per request).
* :mod:`repro.serving.loop`      -- the serving loop driving the
  discrete-event cluster simulator as its placement backend.

``LegatoSystem().deploy(spec).serve(workload)`` is the entry point: its
:class:`~repro.api.backend.Backend` wires all of the above together.
"""

from repro.serving.gateway import (
    AdmissionDecision,
    GatewayStats,
    RequestGateway,
    ServingRequest,
    Tenant,
    TokenBucket,
)
from repro.serving.batching import Batch, Batcher, BatchPolicy
from repro.serving.cache import CacheStats, PredictionScoreCache
from repro.serving.endpoints import (
    SERVABLE_ENDPOINTS,
    ServableEndpoint,
    endpoint,
    synthesize_traffic,
)
from repro.serving.sla import SlaTracker, TenantSlaReport
from repro.serving.loop import ServingLoop, ServingReport, ServingWorkload

__all__ = [
    "AdmissionDecision",
    "Batch",
    "Batcher",
    "BatchPolicy",
    "CacheStats",
    "GatewayStats",
    "PredictionScoreCache",
    "RequestGateway",
    "SERVABLE_ENDPOINTS",
    "ServableEndpoint",
    "ServingLoop",
    "ServingReport",
    "ServingRequest",
    "ServingWorkload",
    "SlaTracker",
    "Tenant",
    "TenantSlaReport",
    "TokenBucket",
    "endpoint",
    "synthesize_traffic",
]

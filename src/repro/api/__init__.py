"""Declarative deployment API: spec in, reusable serving session out.

This package is the only serving entry.  It replaced the kwarg facade
(``LegatoSystem.serve/federate/autoscaler``, removed in 1.6; the
migration table in ``docs/api.md`` maps each old kwarg to its spec
field) with the shape production schedulers are actually driven by:

* :mod:`repro.api.spec`       -- :class:`DeploymentSpec`, a frozen,
  validated, JSON/TOML-round-trippable tree of sections (topology,
  scheduler, serving, autoscale, telemetry) with preset factories and
  all-errors-at-once validation.
* :mod:`repro.api.backend`    -- :class:`Backend`, the one serving
  backend: it picks its shape (single cluster, federation, or federation
  with an attached autoscaler) once from the spec and wires the gateway
  into the serving loop on one path for all three.
* :mod:`repro.api.deployment` -- :class:`Deployment`: build the backend
  once, then serve many workloads against warm state (profiled models,
  score caches, affinity pins, telemetry, elastic topology), with a
  context-manager lifecycle, an incremental per-tick report stream, and
  auditable session counters.

Entry points: ``Deployment.from_spec(spec)`` or
``LegatoSystem().deploy(spec)``.
"""

from repro.api.backend import Backend
from repro.api.deployment import Deployment, ServingTick
from repro.api.spec import (
    PRESETS,
    AutoscaleSpec,
    DeploymentSpec,
    SchedulerSpec,
    ServingSpec,
    SpecIssue,
    SpecValidationError,
    TelemetrySpec,
    TopologySpec,
)
from repro.core.seeding import SeedPolicy

__all__ = [
    "AutoscaleSpec",
    "Backend",
    "Deployment",
    "DeploymentSpec",
    "PRESETS",
    "SchedulerSpec",
    "SeedPolicy",
    "ServingSpec",
    "ServingTick",
    "SpecIssue",
    "SpecValidationError",
    "TelemetrySpec",
    "TopologySpec",
]

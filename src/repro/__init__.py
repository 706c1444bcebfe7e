"""repro -- reproduction of the LEGaTO heterogeneous-computing toolset.

LEGaTO (Low-Energy, Secure, and Resilient Toolset for Heterogeneous
Computing, DATE 2020) is an integrated hardware/software stack for
energy-efficient, secure, and resilient computing on CPU + GPU + FPGA
platforms.  This package reproduces the stack on top of simulated hardware:

* :mod:`repro.hardware`      -- RECS|BOX microserver platform substrate.
* :mod:`repro.middleware`    -- management firmware and OpenStack-like IaaS
  resource management (Section II.B).
* :mod:`repro.undervolting`  -- aggressive FPGA BRAM undervolting (Section III).
* :mod:`repro.checkpoint`    -- FTI-style transparent GPU/CPU checkpointing
  (Section IV).
* :mod:`repro.runtime`       -- OmpSs / XiTAO-like task-based runtimes
  (Section II.C) with fault-tolerance extensions.
* :mod:`repro.scheduler`     -- HEATS heterogeneity- and energy-aware
  scheduler (Section V).
* :mod:`repro.compiler`      -- task-based dataflow front end and HLS
  estimation (Section II.D/E).
* :mod:`repro.security`      -- enclave-backed secure task execution.
* :mod:`repro.usecases`      -- Smart Mirror and the other LEGaTO use cases
  (Section VI).
* :mod:`repro.serving`       -- multi-tenant request-serving front-end over
  the HEATS cluster (admission, batching, score cache, SLA telemetry).
* :mod:`repro.federation`    -- federated multi-cluster scheduling: many
  HEATS shards behind one two-level scheduler with tenant affinity and
  cross-shard migration.
* :mod:`repro.telemetry`     -- cluster-wide metrics pipeline: O(1)
  counters/gauges/histograms on the hot paths, windowed EWMA/quantile
  rollups, pluggable exporters.
* :mod:`repro.autoscale`     -- elastic shard/node autoscaling: a control
  loop over the telemetry signals with Holt-Winters demand forecasting.
* :mod:`repro.api`           -- the declarative deployment API:
  :class:`DeploymentSpec` (validated, JSON/TOML-round-trippable section
  tree), the one serving backend, and reusable :class:`Deployment`
  serving sessions.
* :mod:`repro.core`          -- the integrated LEGaTO ecosystem facade and
  project-goal metrics.
"""

from repro.autoscale.controller import Autoscaler, AutoscaleReport
from repro.autoscale.policy import AutoscaleConfig
from repro.core.config import LegatoConfig
from repro.core.ecosystem import LegatoSystem
from repro.core.seeding import SeedPolicy
from repro.federation.federation import Federation
from repro.serving.loop import ServingReport, ServingWorkload
from repro.telemetry.registry import MetricsRegistry
from repro.api.deployment import Deployment
from repro.api.spec import DeploymentSpec, SpecValidationError

__version__ = "1.8.0"

__all__ = [
    "Autoscaler",
    "AutoscaleConfig",
    "AutoscaleReport",
    "Deployment",
    "DeploymentSpec",
    "Federation",
    "LegatoSystem",
    "LegatoConfig",
    "MetricsRegistry",
    "SeedPolicy",
    "ServingReport",
    "ServingWorkload",
    "SpecValidationError",
    "__version__",
]

"""Elastic shard/node autoscaling over the federated serving stack.

PR 2's federation scaled statically: shard and node counts were fixed at
build time, so a traffic spike saturated shards while a lull
burned idle node energy.  This package closes the loop the telemetry bus
opens: a control loop subscribes to per-shard saturation, thermal
headroom, queueing delay, and SLA-violation signals, forecasts near-term
per-tenant demand, and actuates elastic capacity.

* :mod:`repro.autoscale.forecast`   -- EWMA and Holt-Winters demand
  forecasters (level/trend/optional seasonality).
* :mod:`repro.autoscale.policy`     -- :class:`AutoscaleConfig` knobs,
  :class:`ScalingAction` / :class:`ScalingDecision` audit records.
* :mod:`repro.autoscale.signals`    -- per-tick signal extraction from the
  telemetry bus and O(1) capacity aggregates.
* :mod:`repro.autoscale.controller` -- the :class:`Autoscaler` control
  loop and its :class:`AutoscaleReport`.

A deployment spec with ``autoscale.enabled`` (the ``"autoscaled"``
preset) is the entry point: ``LegatoSystem().deploy(spec)`` builds a
backend with the controller attached, and
``deployment.backend.autoscaler`` is the controller of the latest run.
"""

from repro.autoscale.forecast import EwmaForecaster, HoltWintersForecaster
from repro.autoscale.policy import AutoscaleConfig, ScalingAction, ScalingDecision
from repro.autoscale.signals import FederationSignals, ShardSignals, collect_signals
from repro.autoscale.controller import Autoscaler, AutoscaleReport

__all__ = [
    "Autoscaler",
    "AutoscaleConfig",
    "AutoscaleReport",
    "EwmaForecaster",
    "FederationSignals",
    "HoltWintersForecaster",
    "ScalingAction",
    "ScalingDecision",
    "ShardSignals",
    "collect_signals",
]

"""The elastic control loop closing serving telemetry back into capacity.

An :class:`Autoscaler` attaches to a :class:`~repro.federation.federation.
Federation` and is consulted at the top of every rescheduling pass (the
federation's heartbeat).  Each tick it:

1. finalises in-progress shard drains whose shards emptied out,
2. samples the telemetry bus and capacity aggregates into one
   :class:`~repro.autoscale.signals.FederationSignals`,
3. folds per-tenant demand rates into Holt forecasters and projects
   near-term utilisation,
4. actuates at most one scaling step -- cancel a drain, grow a node in
   the hottest shard, add a shard; or shrink an idle node, begin draining
   the coldest shard -- under per-direction cooldowns,

and accounts node-seconds (the energy-proportional cost the step-load
benchmark compares against static provisioning).  Scale-down is always
drain-first: a shard is only removed after the rescheduler migrated every
running task off it, so elasticity never loses a placed request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.autoscale.forecast import HoltWintersForecaster
from repro.autoscale.policy import AutoscaleConfig, ScalingAction, ScalingDecision
from repro.autoscale.signals import FederationSignals, ShardSignals, collect_signals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federation import Federation
    from repro.scheduler.placement import Placement
    from repro.telemetry.trace import Tracer


@dataclass
class AutoscaleReport:
    """Outcome of one autoscaled serving run."""

    decisions: Tuple[ScalingDecision, ...]
    node_seconds: float
    peak_nodes: int
    min_nodes: int
    final_nodes: int
    final_shards: int
    control_ticks: int

    def action_count(self, action: ScalingAction) -> int:
        """How many times one action kind was taken.

        Args:
            action: the action kind to count.

        Returns:
            Number of matching decisions.
        """
        return sum(1 for decision in self.decisions if decision.action is action)

    def summary(self) -> Dict[str, object]:
        """A compact dict rendering of the elastic history.

        Returns:
            Node-second totals, node-count envelope, and per-action counts.
        """
        return {
            "node_seconds": round(self.node_seconds, 1),
            "peak_nodes": self.peak_nodes,
            "min_nodes": self.min_nodes,
            "final_nodes": self.final_nodes,
            "final_shards": self.final_shards,
            "control_ticks": self.control_ticks,
            "actions": {
                action.value: self.action_count(action)
                for action in ScalingAction
                if self.action_count(action)
            },
        }


class Autoscaler:
    """Observability-driven elastic controller for one federation."""

    def __init__(
        self,
        federation: "Federation",
        config: Optional[AutoscaleConfig] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        """Attach the controller to a federation.

        Args:
            federation: the federation to scale; it must carry a telemetry
                bus (``metrics``), because every signal the controller
                acts on flows through it.
            config: control-loop tunables; defaults to
                ``AutoscaleConfig()``.
            tracer: optional request-scoped tracer; when enabled every
                actuation is recorded as a zero-length
                ``autoscale.<action>`` event span.
        """
        if federation.metrics is None:
            raise ValueError(
                "autoscaling needs an instrumented federation; build it "
                "with a MetricsRegistry (Federation.build(metrics=...))"
            )
        self.federation = federation
        self.config = config if config is not None else AutoscaleConfig()
        self.metrics = federation.metrics
        federation.scheduler.autoscaler = self
        self._forecasters: Dict[str, HoltWintersForecaster] = {}
        self._last_counters: Dict[str, float] = {}
        self._last_tick_s = 0.0
        self._last_scale_up_s = -float("inf")
        self._last_scale_down_s = -float("inf")
        self._node_seconds = 0.0
        self._integrated_to_s = 0.0
        self._peak_nodes = federation.total_nodes
        self._min_nodes = federation.total_nodes
        self._ticks = 0
        self._grown_total = 0
        self.decisions: List[ScalingDecision] = []
        self.tracer = tracer
        self._trace = tracer is not None and tracer.enabled

    def rebase_counters(self) -> None:
        """Adopt the bus's current totals as this controller's zero point.

        A deployment session reuses one telemetry bus across many serving
        runs but attaches a *fresh* controller per run (cooldowns and
        node-second accounting are per-run state).  Without rebasing, the
        fresh controller's first tick would read the whole previous run's
        counter totals as one giant delta and scale up spuriously.
        """
        self._last_counters.update(self.metrics.counter_values())

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _integrate_node_seconds(self, time_s: float) -> None:
        """Accumulate node-seconds at the *current* node count up to now."""
        if time_s > self._integrated_to_s:
            nodes = self.federation.total_nodes
            self._node_seconds += nodes * (time_s - self._integrated_to_s)
            self._integrated_to_s = time_s

    def _track_envelope(self) -> None:
        nodes = self.federation.total_nodes
        self._peak_nodes = max(self._peak_nodes, nodes)
        self._min_nodes = min(self._min_nodes, nodes)

    def _record(self, time_s: float, action: ScalingAction, target: str, reason: str) -> None:
        self.decisions.append(
            ScalingDecision(time_s=time_s, action=action, target=target, reason=reason)
        )
        if self._trace:
            self.tracer.event(
                f"autoscale.{action.value}",
                time_s,
                trace_id="autoscale",
                target=target,
                reason=reason,
            )
        self._track_envelope()

    # ------------------------------------------------------------------ #
    # The control loop
    # ------------------------------------------------------------------ #
    def control(self, time_s: float, running: Sequence["Placement"]) -> None:
        """One control tick; invoked by the federation's rescheduler.

        Args:
            time_s: simulation time of the tick.
            running: all running placements (unused directly -- the drain
                state is read from the O(1) capacity aggregates -- but part
                of the hook contract).
        """
        self._integrate_node_seconds(time_s)
        self._finalize_drains(time_s)
        signals = collect_signals(
            self.federation.scheduler,
            self.metrics,
            time_s,
            self._last_tick_s,
            self._last_counters,
            self.config.queue_delay_slo_s,
        )
        forecast_rps = self._update_forecasts(signals)
        self._decide(signals, forecast_rps, time_s)
        self._last_tick_s = time_s
        self._ticks += 1
        self.metrics.gauge("autoscale.nodes").set(float(self.federation.total_nodes))
        self.metrics.gauge("autoscale.shards").set(float(len(self.federation.shards)))
        self.metrics.gauge("autoscale.utilisation").set(signals.utilisation)
        self.metrics.gauge("autoscale.forecast_demand_rps").set(forecast_rps)

    def _finalize_drains(self, time_s: float) -> None:
        for name in list(self.federation.scheduler.draining_shards):
            removed = self.federation.finalize_drain(name)
            if removed is not None:
                self._record(
                    time_s,
                    ScalingAction.REMOVE_SHARD,
                    name,
                    "drain complete: all running tasks migrated off",
                )

    def _update_forecasts(self, signals: FederationSignals) -> float:
        """Fold tenant demand into the forecasters; return predicted total."""
        total = 0.0
        for tenant, rate in signals.tenant_demand_rps.items():
            forecaster = self._forecasters.get(tenant)
            if forecaster is None:
                forecaster = HoltWintersForecaster(
                    alpha=self.config.forecast_alpha, beta=self.config.forecast_beta
                )
                self._forecasters[tenant] = forecaster
            forecaster.observe(rate)
            total += forecaster.forecast(self.config.forecast_horizon_ticks)
        return total

    def _decide(
        self, signals: FederationSignals, forecast_rps: float, time_s: float
    ) -> None:
        config = self.config
        active = [shard for shard in signals.shards if not shard.draining]
        if not active:
            return
        # Project utilisation by the forecast/current demand ratio, clamped
        # so a cold or degenerate forecast cannot swing capacity wildly.
        ratio = 1.0
        if signals.demand_rate_rps > 1e-9:
            ratio = forecast_rps / signals.demand_rate_rps
            ratio = min(max(ratio, 1.0 / config.forecast_ratio_clamp), config.forecast_ratio_clamp)
        predicted_utilisation = min(1.0, signals.utilisation * ratio)
        self.metrics.gauge("autoscale.predicted_utilisation").set(predicted_utilisation)

        saturated = max(signals.utilisation, predicted_utilisation)
        up_pressure = (
            saturated >= config.scale_up_utilisation
            or signals.late_fraction >= config.sla_violation_rate_high
            or signals.unplaced_delta > 0
            or signals.thermal_headroom < config.thermal_headroom_floor
        )
        if up_pressure:
            if time_s - self._last_scale_up_s >= config.scale_up_cooldown_s:
                if self._scale_up(signals, active, time_s):
                    self._last_scale_up_s = time_s
            return

        down_pressure = (
            signals.utilisation <= config.scale_down_utilisation
            and predicted_utilisation <= config.scale_down_utilisation
            and signals.unplaced_delta == 0
        )
        if down_pressure and time_s - self._last_scale_down_s >= config.scale_down_cooldown_s:
            if self._scale_down(active, time_s):
                self._last_scale_down_s = time_s

    # ------------------------------------------------------------------ #
    # Actuation
    # ------------------------------------------------------------------ #
    def _scale_up(
        self,
        signals: FederationSignals,
        active: Sequence[ShardSignals],
        time_s: float,
    ) -> bool:
        federation = self.federation
        config = self.config
        reason = (
            f"util={signals.utilisation:.2f} late={signals.late_fraction:.2f} "
            f"unplaced={signals.unplaced_delta:.0f} "
            f"headroom={signals.thermal_headroom:.2f}"
        )
        # Cheapest capacity first: un-retire a shard already mid-drain.
        draining = federation.scheduler.draining_shards
        if draining:
            name = draining[0]
            federation.cancel_drain(name)
            self._record(time_s, ScalingAction.CANCEL_DRAIN, name, reason)
            return True
        # Grow the hottest shard that still has node headroom (falling
        # through to cooler shards: one node anywhere beats a whole new
        # shard, and beats doing nothing when shard count is capped).
        for shard in sorted(
            active, key=lambda s: (-s.utilisation, s.shard)
        ):
            if shard.nodes >= config.max_nodes_per_shard:
                continue
            model = config.grow_node_models[
                self._grown_total % len(config.grow_node_models)
            ]
            node = federation.grow_node(shard.shard, model)
            self._grown_total += 1
            self._record(time_s, ScalingAction.GROW_NODE, node, reason)
            return True
        # All shards at node capacity: widen the federation.
        if len(active) < config.max_shards:
            shard = federation.add_shard()
            self._record(time_s, ScalingAction.ADD_SHARD, shard.name, reason)
            return True
        return False

    def _scale_down(self, active: Sequence[ShardSignals], time_s: float) -> bool:
        federation = self.federation
        config = self.config
        coldest = min(active, key=lambda shard: (shard.utilisation, shard.nodes, shard.shard))
        reason = f"util={coldest.utilisation:.2f} on coldest shard"
        # Gradual descent: give back single idle nodes (coolest, most
        # grown shard first) before retiring whole shards.
        shrinkable = [
            shard for shard in active if shard.nodes > config.min_nodes_per_shard
        ]
        for target in sorted(
            shrinkable, key=lambda shard: (shard.utilisation, -shard.nodes, shard.shard)
        ):
            removed = federation.shrink_node(target.shard)
            if removed is not None:
                self._record(
                    time_s,
                    ScalingAction.SHRINK_NODE,
                    removed,
                    f"util={target.utilisation:.2f} on shard with node headroom",
                )
                return True
        if len(active) > config.min_shards:
            federation.begin_drain(coldest.shard)
            self._record(time_s, ScalingAction.BEGIN_DRAIN, coldest.shard, reason)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def report(self, horizon_s: Optional[float] = None) -> AutoscaleReport:
        """Close the node-second integral and render the elastic history.

        Args:
            horizon_s: serving horizon to account node-seconds up to;
                None stops the integral at the last control tick.

        Returns:
            The :class:`AutoscaleReport`.
        """
        if horizon_s is not None:
            self._integrate_node_seconds(horizon_s)
        self._track_envelope()
        return AutoscaleReport(
            decisions=tuple(self.decisions),
            node_seconds=self._node_seconds,
            peak_nodes=self._peak_nodes,
            min_nodes=self._min_nodes,
            final_nodes=self.federation.total_nodes,
            final_shards=len(self.federation.shards),
            control_ticks=self._ticks,
        )

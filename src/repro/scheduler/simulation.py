"""Discrete-event cluster simulator driving any of the schedulers.

The simulator replays a stream of :class:`TaskRequest` arrivals against a
:class:`Cluster` under a scheduling policy (HEATS or a baseline), handling
queueing when nothing can host a request, task completions, periodic
re-scheduling/migration for policies that support it, and energy
accounting:

* every task is charged the energy of the node share it occupies for as long
  as it runs there (split across nodes when migrated, plus the migration
  downtime);
* the cluster's static (idle) power is charged for the whole makespan, so a
  policy that finishes earlier also saves static energy -- the effect that
  makes pure energy-greedy placement lose at the performance end of the
  trade-off curve.

The event loop is array-native: arrivals are consumed from one pre-sorted
stream merged against a heap that only ever holds completions and
reschedule heartbeats, queued-request retry gates every distinct resource
shape with a single vectorised comparison against the cluster's capacity
table, and per-task progress/energy state lives in the placement engine's
structured :class:`~repro.scheduler.placement.TaskTable` instead of side
dicts.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.monitoring import ClusterMonitor
from repro.scheduler.placement import MigrationEvent, Placement, PlacementEngine
from repro.scheduler.workload import TaskRequest
from repro.telemetry.trace import Span, Tracer


class SchedulerProtocol(Protocol):
    """What the simulator needs from a scheduling policy."""

    name: str
    supports_rescheduling: bool

    def place(self, request: TaskRequest, cluster: Cluster, time_s: float) -> Optional[str]:
        ...

    def reschedule(
        self, running: Sequence, cluster: Cluster, time_s: float
    ) -> List[Tuple[str, str]]:
        ...


class CompletedTask(NamedTuple):
    """Accounting of one finished task.

    A named tuple rather than a frozen dataclass: one is constructed per
    completion event on the hot path, and tuple construction skips the
    per-field ``object.__setattr__`` a frozen dataclass pays.  All
    consumers read attributes, which is unchanged.
    """

    task_id: str
    arrival_s: float
    start_s: float
    finish_s: float
    nodes: Tuple[str, ...]
    energy_j: float
    migrations: int

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def waiting_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated run."""

    scheduler: str
    completed: List[CompletedTask] = field(default_factory=list)
    unplaced: List[str] = field(default_factory=list)
    migrations: List[MigrationEvent] = field(default_factory=list)
    makespan_s: float = 0.0
    idle_energy_j: float = 0.0
    #: bytes held in numpy structured arrays at the end of the run (the
    #: cluster capacity table plus the task table; both only grow, so the
    #: end-of-run figure is also the peak) -- what the core-speed
    #: benchmark reports as the memory cost of the array core.
    peak_array_bytes: int = 0

    @property
    def task_energy_j(self) -> float:
        return sum(task.energy_j for task in self.completed)

    @property
    def total_energy_j(self) -> float:
        return self.task_energy_j + self.idle_energy_j

    @property
    def mean_turnaround_s(self) -> float:
        if not self.completed:
            return 0.0
        return sum(task.turnaround_s for task in self.completed) / len(self.completed)

    @property
    def mean_waiting_s(self) -> float:
        if not self.completed:
            return 0.0
        return sum(task.waiting_s for task in self.completed) / len(self.completed)

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)

    def summary(self) -> Dict[str, float]:
        return {
            "scheduler": self.scheduler,
            "tasks": len(self.completed),
            "makespan_s": self.makespan_s,
            "total_energy_kj": self.total_energy_j / 1e3,
            "task_energy_kj": self.task_energy_j / 1e3,
            "mean_turnaround_s": self.mean_turnaround_s,
            "migrations": self.num_migrations,
            "unplaced": len(self.unplaced),
        }


class _PendingQueue:
    """FIFO retry queue indexed by resource shape (cores, memory).

    Serving queues are shape-degenerate (batches come in a handful of
    (cores, memory) shapes), so the queue is bucketed by exact shape and a
    completion gates every *shape* at once -- one vectorised comparison
    against the cluster's capacity table -- instead of touching queued
    requests.  FIFO order across shapes is preserved via a monotone
    sequence number, so placement outcomes are identical to a full rescan.
    The distinct-shape arrays handed to the vectorised gate are memoised
    and only rebuilt when the shape population changes.
    """

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._by_shape: Dict[Tuple[int, float], List[Tuple[int, TaskRequest]]] = {}
        self._count = 0
        self._shape_cache: Optional[
            Tuple[List[Tuple[int, float]], np.ndarray, np.ndarray]
        ] = None

    def __len__(self) -> int:
        return self._count

    def push(self, request: TaskRequest) -> None:
        shape = (request.cores, request.memory_gib)
        bucket = self._by_shape.get(shape)
        if bucket is None:
            self._by_shape[shape] = [(next(self._seq), request)]
            self._shape_cache = None
        else:
            bucket.append((next(self._seq), request))
        self._count += 1

    def shape_arrays(
        self,
    ) -> Tuple[List[Tuple[int, float]], np.ndarray, np.ndarray]:
        """Distinct queued shapes plus their (cores, memory) column arrays."""
        cache = self._shape_cache
        if cache is None:
            shapes = list(self._by_shape)
            cores = np.fromiter((s[0] for s in shapes), np.int64, len(shapes))
            memory = np.fromiter((s[1] for s in shapes), np.float64, len(shapes))
            cache = self._shape_cache = (shapes, cores, memory)
        return cache

    def shapes(self) -> List[Tuple[int, float]]:
        """Distinct queued shapes (insertion order), without the arrays."""
        cache = self._shape_cache
        if cache is not None:
            return cache[0]
        return list(self._by_shape)

    def bucket(self, shape: Tuple[int, float]) -> List[Tuple[int, TaskRequest]]:
        """The FIFO entry list of one shape (oldest first)."""
        return self._by_shape[shape]

    def all_entries(self) -> List[Tuple[int, TaskRequest]]:
        """Every queued request, oldest first."""
        out: List[Tuple[int, TaskRequest]] = []
        for bucket in self._by_shape.values():
            out.extend(bucket)
        out.sort()
        return out

    def remove(self, placed: Dict[Tuple[int, float], set]) -> None:
        """Drop placed entries, rebuilding only the affected shape buckets.

        Placements surface oldest-first, so in the common case the placed
        entries are exactly the bucket's head -- dropped with one prefix
        ``del`` instead of filtering the whole (possibly deep) bucket.

        Args:
            placed: per-shape sets of placed sequence numbers; shapes not
                present are untouched (the deep gated-out tail costs
                nothing here).
        """
        for shape, seqs in placed.items():
            bucket = self._by_shape[shape]
            n_placed = len(seqs)
            prefix = 0
            for entry in bucket:
                if prefix < n_placed and entry[0] in seqs:
                    prefix += 1
                else:
                    break
            if prefix == n_placed:
                del bucket[:prefix]
            else:
                bucket = [e for e in bucket if e[0] not in seqs]
                self._by_shape[shape] = bucket
            if not bucket:
                del self._by_shape[shape]
                self._shape_cache = None
            self._count -= n_placed

    def drain_ids(self) -> List[str]:
        """Task ids of everything still queued, oldest first."""
        return [request.task_id for _, request in self.all_entries()]


def _integrate_levels(levels: List[Tuple[float, float]], end_s: float) -> float:
    """Integrate a piecewise-constant level history over [0, end_s].

    With a single (static-topology) level this reduces exactly to
    ``level * end_s``, the pre-elastic accounting.
    """
    total = 0.0
    for index, (start, level) in enumerate(levels):
        if start >= end_s:
            break
        segment_end = levels[index + 1][0] if index + 1 < len(levels) else end_s
        total += level * (min(segment_end, end_s) - start)
    return total


class ClusterSimulator:
    """Event-driven execution of a request stream under one policy."""

    #: event kinds, ordered so completions release resources before arrivals.
    _COMPLETION, _ARRIVAL, _RESCHEDULE = 0, 1, 2

    #: floor on the consecutive no-progress reschedule heartbeats an
    #: *elastic* run with queued work keeps alive before giving up.  An
    #: autoscaler in a cooldown needs later heartbeats to grow capacity
    #: for a queued request nothing else will unblock; the actual window
    #: stretches to cover the attached controller's configured cooldowns
    #: (see :meth:`_elastic_grace_heartbeats`), and the bound keeps a
    #: controller that never acts from spinning the event loop forever.
    _ELASTIC_GRACE_HEARTBEATS = 8

    def _elastic_grace_heartbeats(self) -> int:
        """No-progress heartbeats to keep alive while elastic work queues.

        At least :attr:`_ELASTIC_GRACE_HEARTBEATS`; stretched so the
        window outlasts the attached autoscaler's longest configured
        cooldown (plus one interval of slack) when that is discoverable,
        so queued work is never abandoned moments before the controller
        was finally allowed to act.
        """
        floor = self._ELASTIC_GRACE_HEARTBEATS
        config = getattr(
            getattr(self.scheduler, "autoscaler", None), "config", None
        )
        if config is None or self.rescheduling_interval_s <= 0:
            return floor
        cooldown = max(
            getattr(config, "scale_up_cooldown_s", 0.0),
            getattr(config, "scale_down_cooldown_s", 0.0),
        )
        return max(floor, int(cooldown / self.rescheduling_interval_s) + 2)

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SchedulerProtocol,
        monitor: Optional[ClusterMonitor] = None,
        monitoring_period_s: float = 30.0,
        rescheduling_interval_s: Optional[float] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        """Wire a simulator over a cluster and a policy.

        Args:
            cluster: the cluster the requests are replayed against.
            scheduler: the placement policy driving the run.
            monitor: optional pre-built monitor; one is created otherwise.
            monitoring_period_s: minimum simulated time between samples.
            rescheduling_interval_s: reschedule heartbeat; defaults to the
                policy's configured cadence, else 60 s.
            tracer: optional request-scoped tracer; when enabled the run
                records ``task`` / ``task.pending`` / ``task.execute`` /
                ``task.migrate`` spans (annotated with node, shard and
                retry-index requeue counts).  ``None`` costs nothing.
        """
        self.cluster = cluster
        self.scheduler = scheduler
        self.tracer = tracer
        #: cached boolean: every instrumentation site is one branch when
        #: tracing is off, preserving the hot-path numbers exactly.
        self._trace = tracer is not None and tracer.enabled
        #: federated schedulers expose ``shard_of_node``; a single-cluster
        #: policy has no shard notion, so spans are annotated with None.
        self._shard_lookup = getattr(scheduler, "shard_of_node", None)
        self._t_root: Dict[str, "Span"] = {}
        self._t_pending: Dict[str, "Span"] = {}
        self._t_exec: Dict[str, "Span"] = {}
        self._t_requeues: Dict[str, int] = {}
        self.monitor = monitor if monitor is not None else ClusterMonitor(cluster)
        self.monitoring_period_s = monitoring_period_s
        if rescheduling_interval_s is None:
            # Default to the policy's own cadence (e.g. HeatsConfig) when it
            # declares one, so configured intervals are honoured everywhere.
            rescheduling_interval_s = getattr(
                getattr(scheduler, "config", None), "rescheduling_interval_s", None
            )
        self.rescheduling_interval_s = (
            60.0 if rescheduling_interval_s is None else rescheduling_interval_s
        )
        self.engine = PlacementEngine(cluster)
        self._events: List[Tuple[float, int, int, object]] = []
        self._sequence = itertools.count()
        #: hosting-node history per task (variable-length; the only
        #: per-task state that stays outside the engine's task table).
        self._task_nodes: Dict[str, List[str]] = {}
        #: nodes whose capacity *grew* since the last retry pass ended
        #: (completions and migration sources).  Between passes capacity
        #: only shrinks elsewhere, so these are the only nodes that can
        #: have made a queued shape newly feasible -- the incremental
        #: retry gate checks just them instead of the whole table.
        self._released_since_retry: set = set()
        #: force the next retry pass through the full vectorised gate.
        #: Starts True (nothing is vetted yet) and is re-raised whenever
        #: the capacity-vetted invariant cannot be assumed: an elastic
        #: arrival queued without a placement attempt, or a scheduler
        #: declining a capacity-feasible placement.
        self._retry_full_gate = True
        self._consumed = False

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _push(self, time_s: float, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (time_s, kind, next(self._sequence), payload))

    def _segment_power_w(self, node: ClusterNode, request: TaskRequest) -> float:
        share = min(1.0, request.cores / node.spec.cores)
        dynamic = (node.spec.peak_power_w - node.spec.idle_power_w) * share
        return dynamic + node.spec.idle_power_w * share

    def _close_segment(self, placement: Placement, time_s: float, request: TaskRequest) -> None:
        start = placement.segment_start_s
        node_name = placement.segment_node
        node = self.cluster.node(node_name)
        duration = max(0.0, time_s - start)
        placement.energy_j = placement.energy_j + duration * self._segment_power_w(node, request)
        task_id = request.task_id
        if not self._task_nodes.get(task_id) or self._task_nodes[task_id][-1] != node_name:
            self._task_nodes.setdefault(task_id, []).append(node_name)

    # ------------------------------------------------------------------ #
    # Tracing seams (only reached when ``self._trace`` is set)
    # ------------------------------------------------------------------ #
    def _trace_shard(self, node_name: str) -> Optional[str]:
        """Shard name hosting ``node_name`` (None for single clusters).

        Every node a federated run places on belongs to a shard, so a
        lookup miss is a membership bug and raises ``KeyError``.
        """
        if self._shard_lookup is None:
            return None
        return self._shard_lookup(node_name)

    def _trace_arrival(self, request: TaskRequest) -> None:
        """Open the task root + pending spans at the arrival instant."""
        root = self.tracer.start_span(
            "task", request.arrival_s, request.task_id, tenant=request.tenant
        )
        self._t_root[request.task_id] = root
        self._t_pending[request.task_id] = self.tracer.start_span(
            "task.pending", request.arrival_s, request.task_id, parent=root
        )

    def _trace_unplaced(self, task_id: str, time_s: float, reason: str) -> None:
        """Terminate a task trace that never reached a node."""
        pend = self._t_pending.pop(task_id, None)
        if pend is not None:
            pend.end(max(time_s, pend.start_s), requeues=self._t_requeues.get(task_id, 0))
        root = self._t_root.pop(task_id, None)
        if root is not None:
            root.annotate("terminal", True)
            root.end(max(time_s, root.start_s), verdict="unplaced", reason=reason)

    def _trace_placement(self, task_id: str, node_name: str, time_s: float) -> None:
        """Close the pending span and open the first execute segment."""
        shard = self._trace_shard(node_name)
        pend = self._t_pending.pop(task_id, None)
        if pend is not None:
            pend.end(
                time_s,
                node=node_name,
                shard=shard,
                requeues=self._t_requeues.get(task_id, 0),
            )
        self._t_exec[task_id] = self.tracer.start_span(
            "task.execute",
            time_s,
            task_id,
            parent=self._t_root.get(task_id),
            node=node_name,
            shard=shard,
        )

    def _trace_migration(
        self, task_id: str, source: str, target: str, time_s: float, downtime_s: float
    ) -> None:
        """Close the old segment, record downtime, open the new segment."""
        segment = self._t_exec.pop(task_id, None)
        if segment is not None:
            segment.end(time_s)
        root = self._t_root.get(task_id)
        source_shard = self._trace_shard(source)
        target_shard = self._trace_shard(target)
        migrate = self.tracer.start_span(
            "task.migrate",
            time_s,
            task_id,
            parent=root,
            source=source,
            target=target,
            source_shard=source_shard,
            target_shard=target_shard,
            cross_shard=(
                source_shard != target_shard
                if source_shard is not None and target_shard is not None
                else False
            ),
        )
        migrate.end(time_s + downtime_s)
        self._t_exec[task_id] = self.tracer.start_span(
            "task.execute",
            time_s + downtime_s,
            task_id,
            parent=root,
            node=target,
            shard=target_shard,
        )

    def _trace_completion(self, task_id: str, time_s: float, migrations: int) -> None:
        """Terminate a task trace at its completion instant."""
        segment = self._t_exec.pop(task_id, None)
        if segment is not None:
            segment.end(time_s)
        root = self._t_root.pop(task_id, None)
        if root is not None:
            root.annotate("terminal", True)
            root.end(time_s, verdict="completed", migrations=migrations)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[TaskRequest]) -> SimulationResult:
        if self._consumed:
            # The cluster's node reservations, the engine's placements, and
            # the per-task table rows all carry the previous run; silently
            # reusing them drifts every accounting number.
            raise RuntimeError(
                "a ClusterSimulator can only run once; build a fresh "
                "simulator (and cluster) per request stream"
            )
        self._consumed = True
        result = SimulationResult(scheduler=self.scheduler.name)
        pending = _PendingQueue()
        remaining = len(requests)
        # An elastic topology (an autoscaler attached to the policy) may
        # grow nodes mid-run, so "no node could ever host this" is not a
        # final verdict there -- such arrivals queue instead of rejecting.
        elastic = getattr(self.scheduler, "autoscaler", None) is not None

        # Arrivals are consumed from one pre-sorted stream (stable sort, so
        # equal-time arrivals keep their input order, exactly as the heap's
        # sequence tiebreak ordered them); the heap only ever holds
        # completions and reschedule heartbeats.
        arrivals = sorted(requests, key=lambda r: r.arrival_s)
        arrival_index = 0
        n_arrivals = len(arrivals)
        if self.scheduler.supports_rescheduling and requests:
            self._push(self.rescheduling_interval_s, self._RESCHEDULE, None)

        last_monitor_sample = -float("inf")
        idle_heartbeats = 0
        # Idle power is piecewise constant: it only changes when the node
        # population does (elastic autoscaling during a reschedule event).
        # Track the level changes so idle energy can be integrated over
        # the actual topology history instead of the end-of-run node set;
        # the level is re-read only after reschedule events (the sole
        # place topology mutates) instead of per event.
        idle_power_levels: List[Tuple[float, float]] = [
            (0.0, self.cluster.total_idle_power_w())
        ]

        events = self._events
        heappop = heapq.heappop
        monitoring_period = self.monitoring_period_s
        trace = self._trace
        arrival_kind = self._ARRIVAL
        completion_kind = self._COMPLETION
        engine_get = self.engine.get
        while events or arrival_index < n_arrivals:
            if arrival_index < n_arrivals:
                if events:
                    head = events[0]
                    arrival_time = arrivals[arrival_index].arrival_s
                    head_time = head[0]
                    take_event = head_time < arrival_time or (
                        head_time == arrival_time and head[1] < arrival_kind
                    )
                else:
                    take_event = False
                if take_event:
                    time_s, kind, _, payload = heappop(events)
                else:
                    next_arrival = arrivals[arrival_index]
                    time_s, kind, payload = (
                        next_arrival.arrival_s,
                        arrival_kind,
                        next_arrival,
                    )
                    arrival_index += 1
            else:
                time_s, kind, _, payload = heappop(events)
            if time_s - last_monitor_sample >= monitoring_period:
                self.monitor.sample(time_s)
                last_monitor_sample = time_s

            if kind == arrival_kind:
                request = payload  # type: ignore[assignment]
                if trace:
                    self._trace_arrival(request)
                remaining -= self._admit(request, time_s, pending, result, elastic)
            elif kind == completion_kind:
                task_id, version = payload  # type: ignore[misc]
                placement = engine_get(task_id)
                if placement is None or placement.completion_version != version:
                    continue  # stale completion superseded by a migration
                self._finish(placement, task_id, time_s, result)
                remaining -= 1
                # The freed node may unblock queued requests.
                if len(pending):
                    self._retry_pending(pending, time_s, result)
            elif kind == self._RESCHEDULE:
                topology_before = self.cluster.membership_version
                self._apply_rescheduling(time_s)
                topology_changed = topology_before != self.cluster.membership_version
                if topology_changed:
                    # Nodes grown by an autoscaler must be able to unblock
                    # queued requests *now*, not at the next unrelated
                    # completion (and requests no node could ever host may
                    # have just become feasible).
                    self._retry_pending(pending, time_s, result, full=True)
                    idle_power = self.cluster.total_idle_power_w()
                    if idle_power != idle_power_levels[-1][1]:
                        idle_power_levels.append((time_s, idle_power))
                # Re-arm only while progress is still possible: something is
                # running, or other events (arrivals/completions) are due.
                # Otherwise pending-but-unplaceable requests would keep the
                # reschedule heartbeat (and the event loop) alive forever.
                # An elastic run additionally gets a bounded grace window:
                # queued work nothing hosts *yet* must survive an autoscaler
                # cooldown spanning several heartbeats.
                if self.engine.running or topology_changed:
                    idle_heartbeats = 0
                if remaining > 0 and (
                    self.engine.running or events or arrival_index < n_arrivals
                ):
                    self._push(time_s + self.rescheduling_interval_s, self._RESCHEDULE, None)
                elif (
                    remaining > 0
                    and elastic
                    and len(pending)
                    and idle_heartbeats < self._elastic_grace_heartbeats()
                ):
                    idle_heartbeats += 1
                    self._push(time_s + self.rescheduling_interval_s, self._RESCHEDULE, None)

        result.makespan_s = max((task.finish_s for task in result.completed), default=0.0)
        result.idle_energy_j = _integrate_levels(idle_power_levels, result.makespan_s)
        result.migrations = list(self.engine.migrations)
        result.peak_array_bytes = self.cluster.array_nbytes + self.engine.array_nbytes
        leftover = pending.drain_ids()
        result.unplaced.extend(leftover)
        if self._trace:
            for task_id in leftover:
                self._trace_unplaced(task_id, result.makespan_s, "queued_at_end")
        return result

    # ------------------------------------------------------------------ #
    # Placement / migration helpers
    # ------------------------------------------------------------------ #
    def _can_ever_fit(self, request: TaskRequest) -> bool:
        """Whether any node could host the request even when fully idle."""
        return self.cluster.fits_any_node_total(request.cores, request.memory_gib)

    def _admit(
        self,
        request: TaskRequest,
        time_s: float,
        pending: _PendingQueue,
        result: SimulationResult,
        elastic: bool,
    ) -> int:
        """Handle one arrival; returns 1 when it was rejected outright."""
        if not self._can_ever_fit(request):
            if elastic:
                # Queued with no placement attempt: not capacity-vetted,
                # so the incremental retry gate cannot be trusted.
                self._retry_full_gate = True
                pending.push(request)
            else:
                # No node's *total* resources suffice and the topology is
                # fixed: queueing would never help, so reject immediately
                # instead of waiting for a completion that cannot unblock
                # the request.
                result.unplaced.append(request.task_id)
                if self._trace:
                    self._trace_unplaced(request.task_id, time_s, "never_fits")
                return 1
        elif not self._try_place(request, time_s, result):
            if not self._retry_full_gate:
                # The scheduler's own feasibility pass just populated the
                # shape memo, so this re-check is a dict hit.
                cluster = self.cluster
                names = cluster._shape_feasibility.get(
                    (request.cores, request.memory_gib)
                )
                if names is None:
                    names = cluster.feasible_node_names(
                        request.cores, request.memory_gib
                    )
                if names:
                    # The scheduler declined a capacity-feasible placement
                    # (e.g. no learned model), so this entry is queued
                    # without being capacity-vetted.
                    self._retry_full_gate = True
            pending.push(request)
        return 0

    def _finish(
        self,
        placement: "Placement",
        task_id: str,
        time_s: float,
        result: SimulationResult,
    ) -> None:
        """Handle one (non-stale) completion event."""
        request = placement.request
        self._close_segment(placement, time_s, request)
        self._released_since_retry.add(placement.node)
        done = self.engine.complete(task_id, time_s)
        result.completed.append(
            CompletedTask(
                task_id,
                request.arrival_s,
                done.first_start_s,
                time_s,
                tuple(self._task_nodes.get(task_id, ())),
                done.energy_j,
                done.migrations,
            )
        )
        if self._trace:
            self._trace_completion(task_id, time_s, done.migrations)

    def _retry_pending(
        self,
        pending: _PendingQueue,
        time_s: float,
        result: SimulationResult,
        full: bool = False,
    ) -> None:
        """Retry queued requests that some node could actually host.

        Two gating modes decide which queued shapes may surface, with
        bit-identical decisions:

        * **Full** -- every distinct queued shape gated at once by one
          vectorised comparison against the whole capacity table.  Used
          for the first pass, after topology changes, and whenever the
          vetted invariant below cannot be assumed.
        * **Incremental** -- between two retry passes capacity only
          *shrinks*, except on the nodes logged in
          ``_released_since_retry`` (completion hosts and migration
          sources).  Every queued entry was capacity-vetted infeasible
          either when it was queued (its arrival placement attempt
          failed) or at the previous pass end, so only a released node
          can have made its shape feasible again -- the gate is a
          handful of exact Python float comparisons against the live
          capacity mirror (which holds the very values the numpy columns
          do), with no vectorised pass at all.

        Requests surface oldest-first across the feasible shapes' FIFO
        buckets via a heap of (head seq, shape) pairs.  Each successful
        placement shrinks capacity, so a shape is re-verified before each
        surfaced request.  A scheduler that declines a capacity-feasible
        placement leaves unvetted entries queued; that flips
        ``_retry_full_gate`` so the next pass uses the full gate again.
        """
        if not len(pending):
            return
        cluster = self.cluster
        prev_capacity = cluster._prev_capacity
        incremental = not (full or self._retry_full_gate)
        if incremental:
            # Compact working set: only shapes a released node fits are
            # carried through the pass (usually one shape out of a dozen
            # queued); everything else stays vetted-infeasible untouched.
            # Shape order may vary with set iteration, but outcomes never
            # depend on it: surfacing is ordered by the globally unique
            # entry sequence numbers alone.
            shapes: List[Tuple[int, float]] = []
            supporters: List[List[str]] = []
            slot_of: Dict[Tuple[int, float], int] = {}
            shapes_all = pending.shapes()
            for name in self._released_since_retry:
                cap = prev_capacity.get(name)
                if cap is None:
                    continue  # released node has since left the cluster
                free_cores = cap[0]
                free_memory = cap[1]
                for shape in shapes_all:
                    if free_cores >= shape[0] and free_memory >= shape[1]:
                        slot = slot_of.get(shape)
                        if slot is None:
                            slot_of[shape] = len(shapes)
                            shapes.append(shape)
                            supporters.append([name])
                        else:
                            supporters[slot].append(name)
            if not shapes:
                # Nothing became feasible: the no-op pass still
                # re-establishes the vetted invariant.
                self._released_since_retry.clear()
                return
            feasible = [True] * len(shapes)
            ok = None
            support = None
            row_names = None
            row_of = None
        else:
            shapes, cores_arr, memory_arr = pending.shape_arrays()
            ok = cluster.feasible_shape_matrix(cores_arr, memory_arr)
            support = ok.sum(axis=1).tolist()
            feasible = [count > 0 for count in support]
            supporters = []
            row_names = cluster._row_names
            row_of = cluster._row_of
        buckets = [pending.bucket(shape) for shape in shapes]
        pointers = [0] * len(shapes)
        placed: Dict[Tuple[int, float], set] = {}
        # Oldest-first across the feasible shapes' FIFO buckets: a small
        # heap of (head seq, shape index) pairs replaces a per-pick scan
        # over every shape, so each surfaced request costs O(log shapes).
        heads = [
            (bucket[0][0], index)
            for index, bucket in enumerate(buckets)
            if feasible[index] and bucket
        ]
        heapq.heapify(heads)
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Capacity only shrinks inside one retry pass (placements reserve,
        # nothing releases), and only on the rows placements landed on --
        # so a shape gated feasible at pass start stays feasible unless
        # every supporting row is among the placed-on rows and none of
        # them still fits.  That re-verification is a handful of exact
        # Python float comparisons against the capacity mirror,
        # bit-identical to re-gating every shape after every placement.
        placed_rows: List[int] = []
        while heads:
            best_seq, best = heappop(heads)
            if incremental:
                # The mirror is live, so checking the shape's supporters
                # is always current; non-supporters cannot fit (they did
                # not fit at pass start and capacity only shrinks here).
                cores, memory_gib = shapes[best]
                alive = False
                for name in supporters[best]:
                    cap = prev_capacity.get(name)
                    if cap is not None and cap[0] >= cores and cap[1] >= memory_gib:
                        alive = True
                        break
                if not alive:
                    feasible[best] = False
                    continue
            elif placed_rows:
                cores, memory_gib = shapes[best]
                shape_row = ok[best]
                touched = 0
                alive = False
                for row in placed_rows:
                    if shape_row[row]:
                        touched += 1
                        if not alive:
                            free_cores, free_memory, _ = prev_capacity[row_names[row]]
                            if free_cores >= cores and free_memory >= memory_gib:
                                alive = True
                if touched and not alive and support[best] <= touched:
                    feasible[best] = False
                    continue
            bucket = buckets[best]
            pointer = pointers[best]
            request = bucket[pointer][1]
            pointer += 1
            pointers[best] = pointer
            if pointer < len(bucket):
                heappush(heads, (bucket[pointer][0], best))
            placed_on = self._try_place(request, time_s, result)
            if placed_on:
                placed.setdefault(shapes[best], set()).add(best_seq)
                if not incremental:
                    row = row_of[placed_on]
                    if row not in placed_rows:
                        placed_rows.append(row)
            elif self._trace:
                # Surfaced from the retry gate but still not placeable: one
                # more requeue (annotation only; the entry stays queued and
                # the scan moves on to the next-oldest surfaced request).
                self._t_requeues[request.task_id] = (
                    self._t_requeues.get(request.task_id, 0) + 1
                )
        # The pass end re-establishes the vetted invariant: every shape
        # still queued was gated or marked infeasible above -- unless a
        # scheduler declined a capacity-feasible placement, in which case
        # its entries remain with the shape still feasible and the next
        # pass must use the full gate.  (Checked before ``remove``, which
        # may replace bucket list objects.)
        full_gate_next = False
        for index, bucket in enumerate(buckets):
            if feasible[index]:
                shape_placed = placed.get(shapes[index])
                if len(bucket) > (len(shape_placed) if shape_placed else 0):
                    full_gate_next = True
                    break
        self._retry_full_gate = full_gate_next
        if self._released_since_retry:
            self._released_since_retry.clear()
        if placed:
            pending.remove(placed)

    def _try_place(
        self, request: TaskRequest, time_s: float, result: SimulationResult
    ) -> Optional[str]:
        """Place one request now; returns the host node's name, or None."""
        node_name = self.scheduler.place(request, self.cluster, time_s)
        if node_name is None:
            return None
        node = self.cluster._nodes.get(node_name)
        if node is None:
            node = self.cluster.node(node_name)  # raises the standard KeyError
        # can_host inlined (same comparisons): one call saved per placement.
        if not (
            request.cores <= node._free_cores
            and request.memory_gib <= node._free_memory
        ):
            return None
        placement = self.engine.instantiate(request, node_name, time_s)
        placement.set_segment(time_s, node_name)
        self._task_nodes.setdefault(request.task_id, []).append(node_name)
        if self._trace:
            self._trace_placement(request.task_id, node_name, time_s)
        version = placement.bump_completion_version()
        self._push(placement.expected_finish_s, self._COMPLETION, (request.task_id, version))
        return node_name

    def _apply_rescheduling(self, time_s: float) -> None:
        decisions = self.scheduler.reschedule(self.engine.running, self.cluster, time_s)
        for task_id, target in decisions:
            placement = self.engine.get(task_id)
            if placement is None:
                continue
            request = placement.request
            self._close_segment(placement, time_s, request)
            try:
                event = self.engine.migrate(task_id, target, time_s)
            except (ValueError, KeyError):
                # Target filled up since the decision was computed; skip.
                placement.set_segment(time_s, placement.node)
                continue
            # The source node's capacity grew; the next completion-driven
            # retry pass must consider it even though no pass runs now.
            self._released_since_retry.add(event.source)
            placement.set_segment(event.time_s + event.downtime_s, target)
            if self._trace:
                self._trace_migration(
                    task_id, event.source, event.target, time_s, event.downtime_s
                )
            version = placement.bump_completion_version()
            self._push(placement.expected_finish_s, self._COMPLETION, (task_id, version))


def run_policy_comparison(
    cluster_factory,
    scheduler_factory_map: Dict[str, object],
    requests: Sequence[TaskRequest],
) -> Dict[str, SimulationResult]:
    """Run the same request stream under several policies on fresh clusters.

    ``cluster_factory`` builds a fresh cluster per policy (node state is
    mutable); ``scheduler_factory_map`` maps a policy name to a callable
    taking the fresh cluster and returning a scheduler instance.
    """
    results: Dict[str, SimulationResult] = {}
    for name, factory in scheduler_factory_map.items():
        cluster = cluster_factory()
        scheduler = factory(cluster)
        simulator = ClusterSimulator(cluster, scheduler)
        results[name] = simulator.run(requests)
    return results

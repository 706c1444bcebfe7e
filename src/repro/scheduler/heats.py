"""The HEATS scheduling algorithm (paper Section V).

For every pending task HEATS:

1. identifies the task's resource requirements (cores, memory) and the nodes
   with enough availability (reported by monitoring),
2. uses the learned models to estimate the task's performance and energy on
   each candidate node (the profiling/estimation phase),
3. computes a score per node by normalising the predictions and weighting
   them by the customer's energy/performance ratio,
4. deploys the task on the best-fitting node.

Every ``rescheduling_interval_s`` the same evaluation re-runs for all running
tasks, on each task's full original request (not the work it has left);
when a node scores better than the current host by more than a hysteresis
margin, so marginal improvements do not cause migration churn, the task is
migrated to it.  The migration's downtime does not enter the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.modeling import PredictionModelSet, ProfilingCampaign
from repro.scheduler.monitoring import ClusterMonitor
from repro.scheduler.placement import Placement, PlacementEngine
from repro.scheduler.workload import TaskRequest


@dataclass(frozen=True)
class HeatsConfig:
    """Tunables of the HEATS policy."""

    rescheduling_interval_s: float = 60.0
    migration_improvement_threshold: float = 0.15
    default_energy_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.rescheduling_interval_s <= 0:
            raise ValueError("rescheduling interval must be positive")
        if not (0.0 <= self.migration_improvement_threshold < 1.0):
            raise ValueError("migration threshold must be in [0, 1)")
        if not (0.0 <= self.default_energy_weight <= 1.0):
            raise ValueError("energy weight must be in [0, 1]")


class NodeScore(NamedTuple):
    """Score breakdown for one candidate node (lower is better).

    A named tuple rather than a (frozen) dataclass: the scoring hot path
    constructs one per (request, candidate) model prediction, and tuple
    construction skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.  Field access and ordering semantics are unchanged
    for every consumer (all read attributes).
    """

    node: str
    predicted_time_s: float
    predicted_energy_j: float
    normalised_time: float
    normalised_energy: float
    score: float


class ScoreCacheProtocol(Protocol):
    """What the scheduler needs from a prediction-score cache.

    Implemented by :class:`repro.serving.cache.PredictionScoreCache`; kept
    as a protocol so the scheduler does not depend on the serving layer.
    """

    def key_for(
        self, request: TaskRequest, candidate_names: Sequence[str], energy_weight: float
    ) -> object:
        ...

    def get(self, key: object) -> Optional[Tuple[NodeScore, ...]]:
        ...

    def put(self, key: object, scores: Sequence[NodeScore]) -> None:
        ...


class HeatsScheduler:
    """Heterogeneity- and energy-aware scheduler."""

    name = "heats"
    supports_rescheduling = True

    def __init__(
        self,
        models: PredictionModelSet,
        config: Optional[HeatsConfig] = None,
        score_cache: Optional[ScoreCacheProtocol] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.models = models
        self.config = config if config is not None else HeatsConfig()
        self.score_cache = score_cache
        # Placement instruments are bound once; shard schedulers sharing a
        # registry aggregate into the same pair of instruments.
        if metrics is not None:
            self._m_place_calls = metrics.counter("heats.place_calls")
            self._m_candidates = metrics.histogram("heats.candidates")
        else:
            self._m_place_calls = None
            self._m_candidates = None

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _score_names(
        self,
        request: TaskRequest,
        names: Sequence[str],
        energy_weight: Optional[float] = None,
    ) -> Sequence[NodeScore]:
        """Score candidate node *names* for one request, best (lowest) first.

        The name-based core of scoring: the model set predicts by node
        name, so the hot placement path never needs node objects at all --
        candidates arrive straight from the cluster's vectorised
        feasibility pass.  When a score cache is attached, the ranked list
        is memoised under a (task kind, resource shape, candidate set)
        key so repeated serving traffic skips the per-node model
        predictions; a hit returns the cached tuple itself (callers must
        not mutate it).
        """
        if not names:
            return ()
        weight = request.energy_weight if energy_weight is None else energy_weight
        cache_key: Optional[object] = None
        if self.score_cache is not None:
            cache_key = self.score_cache.key_for(request, names, weight)
            cached = self.score_cache.get(cache_key)
            if cached is not None:
                return cached
        # One flat-dict entry per candidate replaces the per-model map
        # lookups; the arithmetic mirrors NodeModel.predict_pair exactly
        # (same operation order, so identical floats).
        flat = self.models.flat_for(request.workload)
        gops = request.gops
        req_cores = request.cores
        predictions: List[Tuple[str, float, float]] = []
        max_time = 0.0
        max_energy = 0.0
        for name in names:
            entry = flat.get(name)
            if entry is None:
                if self.models.get(name) is None:
                    continue
                raise KeyError(
                    f"node {name} has no learned model for workload "
                    f"{request.workload.value}"
                )
            per_gop, slope, intercept, node_cores = entry
            share = req_cores / node_cores
            if share > 1.0:
                share = 1.0
            elif share <= 0:
                raise ValueError("core share must be positive")
            time_s = per_gop * gops / share
            energy_j = slope * gops + intercept
            if energy_j < 0.0:
                energy_j = 0.0
            if time_s > max_time:
                max_time = time_s
            if energy_j > max_energy:
                max_energy = energy_j
            predictions.append((name, time_s, energy_j))
        if not predictions:
            return ()
        max_time = max_time or 1.0
        max_energy = max_energy or 1.0
        time_weight = 1.0 - weight
        scores: List[NodeScore] = []
        append = scores.append
        for name, time_s, energy_j in predictions:
            normalised_time = time_s / max_time
            normalised_energy = energy_j / max_energy
            append(
                NodeScore(
                    name,
                    time_s,
                    energy_j,
                    normalised_time,
                    normalised_energy,
                    time_weight * normalised_time + weight * normalised_energy,
                )
            )
        scores.sort(key=lambda s: (s.score, s.node))
        if cache_key is not None:
            self.score_cache.put(cache_key, scores)
        return scores

    def score_candidates(
        self,
        request: TaskRequest,
        candidates: Sequence[ClusterNode],
        energy_weight: Optional[float] = None,
    ) -> List[NodeScore]:
        """Score all candidate nodes for one request, best (lowest) first.

        Object-based convenience over :meth:`_score_names` (the reschedule
        path and external callers hold node objects).
        """
        return list(
            self._score_names(
                request, [node.name for node in candidates], energy_weight
            )
        )

    # ------------------------------------------------------------------ #
    # Scheduler interface used by the cluster simulator
    # ------------------------------------------------------------------ #
    def place(self, request: TaskRequest, cluster: Cluster, time_s: float) -> Optional[str]:
        """Pick a node for a new request; None when nothing can host it now.

        Candidate discovery is one vectorised comparison against the
        cluster's structured capacity table (free cores and memory live in
        numpy columns), returning candidate *names* directly -- the
        placement hot path the serving benchmarks exercise never touches a
        node object.

        Args:
            request: the task to place.
            cluster: the cluster to place into.
            time_s: simulation time of the placement attempt.

        Returns:
            The best-scoring feasible node's name, or None.
        """
        # Inline hit on the cluster's per-shape feasibility memo (the
        # dominant case on serving traffic: a handful of distinct request
        # shapes between capacity changes); misses fall through to the
        # vectorised pass, which populates it.
        names = cluster._shape_feasibility.get((request.cores, request.memory_gib))
        if names is None:
            names = cluster.feasible_node_names(request.cores, request.memory_gib)
        if self._m_place_calls is not None:
            self._m_place_calls.inc()
            self._m_candidates.record(float(len(names)))
        if not names:
            return None
        scored = self._score_names(request, names)
        if not scored:
            return None
        return scored[0].node

    def reschedule(
        self,
        running: Sequence[Placement],
        cluster: Cluster,
        time_s: float,
    ) -> List[Tuple[str, str]]:
        """Return (task_id, target_node) migrations that improve the fit.

        A migration is proposed when the best alternative node scores better
        than the current host by more than the configured threshold.  The
        current host is always part of the comparison.  Every node, the
        current host included, is scored on the task's full original
        request (``placement.request``), not on the work it has left, and
        the downtime a migration costs is not priced: a task close to
        finishing moves as readily as one that has just started.
        """
        migrations: List[Tuple[str, str]] = []
        for placement in running:
            request = placement.request
            current_node = cluster.node(placement.node)
            candidates = cluster.feasible_nodes(request.cores, request.memory_gib)
            if current_node not in candidates:
                candidates = list(candidates) + [current_node]
            scored = self.score_candidates(request, candidates)
            if not scored:
                continue
            current_score = next((s for s in scored if s.node == placement.node), None)
            best = scored[0]
            if current_score is None or best.node == placement.node:
                continue
            improvement = current_score.score - best.score
            if improvement > self.config.migration_improvement_threshold:
                migrations.append((request.task_id, best.node))
        return migrations

    # ------------------------------------------------------------------ #
    # Convenience constructor
    # ------------------------------------------------------------------ #
    @classmethod
    def with_learned_models(
        cls,
        cluster: Cluster,
        config: Optional[HeatsConfig] = None,
        noise_fraction: float = 0.05,
        seed: int = 7,
        score_cache: Optional[ScoreCacheProtocol] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "HeatsScheduler":
        """Run the profiling campaign on the cluster and build the scheduler."""
        campaign = ProfilingCampaign(cluster, noise_fraction=noise_fraction, seed=seed).run()
        return cls(
            models=campaign.fit(),
            config=config,
            score_cache=score_cache,
            metrics=metrics,
        )

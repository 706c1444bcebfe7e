"""The heterogeneous cluster HEATS schedules onto.

A cluster node corresponds to one physical host (in LEGaTO: one microserver
or one server built from them).  Nodes expose countable resources (cores,
memory) that tasks reserve, plus a performance/energy profile derived from
the microserver catalogue so different nodes genuinely differ in speed and
efficiency -- the heterogeneity HEATS exploits.

The cluster's capacity index is a numpy structured array: one row per node
holding its free/total cores and memory plus its power columns, updated in
place on every reserve/release through the node's capacity listener.  The
placement hot path (``has_feasible_node`` / ``feasible_nodes`` /
``feasible_shape_mask``) is a vectorised comparison over those columns --
no per-node Python objects are touched until a candidate list is actually
materialised -- and ``capacity()`` exposes the O(1) cluster-level
aggregates the federation layer uses to pick a shard without looking at
individual nodes.  Node objects remain the owners of truth (they are
shared between shard clusters and the federated union view); each cluster
mirrors their state into its own array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.hardware.microserver import (
    MICROSERVER_CATALOG,
    DeviceKind,
    MicroserverSpec,
    WorkloadKind,
)

#: one row per node in a cluster's capacity table.  ``free_*`` columns
#: mirror the node's live reservations exactly (the same rounded floats the
#: node holds, so vectorised comparisons agree bit-for-bit with per-object
#: checks); ``active`` is False for tombstoned rows awaiting compaction.
NODE_DTYPE = np.dtype(
    [
        ("free_cores", np.int64),
        ("free_memory", np.float64),
        ("total_cores", np.int64),
        ("total_memory", np.float64),
        ("reserved_power", np.float64),
        ("idle_power", np.float64),
        ("dynamic_power", np.float64),
        ("active", np.bool_),
    ]
)


class CandidateNames(tuple):
    """An interned feasible-node-set tuple with a memoised hash.

    The cluster interns one instance per distinct feasibility mask, so the
    serving score cache -- whose keys embed the candidate set -- hashes
    each distinct set once per topology instead of re-hashing dozens of
    node-name strings on every lookup.  Equality and ordering are plain
    tuple semantics, so cache keys built from lists compare identically.
    """

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = self._hash = tuple.__hash__(self)
        return cached


@dataclass(frozen=True)
class NodeResources:
    """Countable resources of a node (what the task requests are matched to).

    A fully loaded node legitimately has zero free cores/memory, so the
    invariant is non-negativity; node *totals* are positive by construction
    (microserver specs always expose at least one core).
    """

    cores: int
    memory_gib: float

    def __post_init__(self) -> None:
        if self.cores < 0 or self.memory_gib < 0:
            raise ValueError("node resources must be non-negative")

    def fits(self, cores: int, memory_gib: float) -> bool:
        return cores <= self.cores and memory_gib <= self.memory_gib

    def minus(self, cores: int, memory_gib: float) -> "NodeResources":
        if not self.fits(cores, memory_gib):
            raise ValueError("cannot subtract more resources than available")
        return NodeResources(
            cores=self.cores - cores, memory_gib=round(self.memory_gib - memory_gib, 9)
        )

    def plus(self, cores: int, memory_gib: float) -> "NodeResources":
        return NodeResources(cores=self.cores + cores, memory_gib=self.memory_gib + memory_gib)


@dataclass
class ClusterNode:
    """One schedulable host.

    Free capacity lives in two plain attributes (``_free_cores`` /
    ``_free_memory``) so the reserve/release hot path never builds
    :class:`NodeResources` objects; :attr:`available` materialises a
    snapshot on demand for the cold-path consumers (monitoring, drain
    planning).  Memory subtraction keeps the historical
    ``round(free - requested, 9)`` discipline and release keeps the plain
    add, so capacity floats evolve exactly as they always have.
    """

    name: str
    spec: MicroserverSpec
    total: NodeResources = field(init=False)
    running: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    busy_core_seconds: float = 0.0
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        self.total = NodeResources(cores=self.spec.cores, memory_gib=self.spec.memory_gib)
        self._free_cores: int = self.total.cores
        self._free_memory: float = self.total.memory_gib
        self._listeners: List[Callable[["ClusterNode"], None]] = []

    # ------------------------------------------------------------------ #
    # Capacity
    # ------------------------------------------------------------------ #
    @property
    def available(self) -> NodeResources:
        """Current free resources as a (freshly built) snapshot object."""
        return NodeResources(cores=self._free_cores, memory_gib=self._free_memory)

    def subscribe(self, listener: Callable[["ClusterNode"], None]) -> None:
        """Register a callback invoked after every capacity change.

        Clusters (and federated clusters, which share node objects with
        their shard view) subscribe here to keep their capacity arrays
        incremental instead of rescanning nodes.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[["ClusterNode"], None]) -> None:
        """Remove a previously subscribed capacity listener.

        Clusters call this when a node is removed from their view (elastic
        scale-down), so a retired view no longer receives updates for a
        node it stopped indexing.
        """
        self._listeners.remove(listener)

    def _notify_capacity_change(self) -> None:
        for listener in self._listeners:
            listener(self)

    def can_host(self, cores: int, memory_gib: float) -> bool:
        return cores <= self._free_cores and memory_gib <= self._free_memory

    def reserve(self, task_id: str, cores: int, memory_gib: float) -> None:
        if task_id in self.running:
            raise KeyError(f"task {task_id!r} already running on {self.name}")
        if not (cores <= self._free_cores and memory_gib <= self._free_memory):
            raise ValueError(
                f"{self.name}: cannot host task {task_id!r} "
                f"({cores} cores / {memory_gib} GiB requested, "
                f"{self._free_cores} cores / {self._free_memory:.1f} GiB free)"
            )
        self._free_cores -= cores
        self._free_memory = round(self._free_memory - memory_gib, 9)
        self.running[task_id] = (cores, memory_gib)
        self._notify_capacity_change()

    def release(self, task_id: str) -> None:
        if task_id not in self.running:
            raise KeyError(f"task {task_id!r} not running on {self.name}")
        cores, memory = self.running.pop(task_id)
        self._free_cores += cores
        self._free_memory += memory
        self._notify_capacity_change()

    @property
    def utilisation(self) -> float:
        """Fraction of cores currently reserved."""
        return 1.0 - self._free_cores / self.total.cores

    # ------------------------------------------------------------------ #
    # Performance / power profile
    # ------------------------------------------------------------------ #
    def execution_time_s(self, workload: WorkloadKind, gops: float, cores: int) -> float:
        """Run time of a task using ``cores`` of this node.

        Throughput scales linearly with the core share -- adequate for the
        CPU-style cloud tasks HEATS schedules (its evaluation uses
        containerised CPU workloads).
        """
        if cores <= 0:
            raise ValueError("task must request at least one core")
        share = min(1.0, cores / self.spec.cores)
        throughput = self.spec.throughput_gops[workload] * share
        return gops / throughput

    def power_w(self, utilisation: Optional[float] = None) -> float:
        return self.spec.active_power_w(self.utilisation if utilisation is None else utilisation)

    def energy_for(self, workload: WorkloadKind, gops: float, cores: int) -> float:
        duration = self.execution_time_s(workload, gops, cores)
        share = min(1.0, cores / self.spec.cores)
        # The task pays its share of dynamic power plus a share of idle power.
        dynamic = (self.spec.peak_power_w - self.spec.idle_power_w) * share
        idle_share = self.spec.idle_power_w * share
        return duration * (dynamic + idle_share)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClusterNode({self.name}, {self.spec.model})"


@dataclass(frozen=True)
class CapacitySnapshot:
    """O(1) cluster-level free-capacity aggregates.

    Maintained incrementally by the cluster's capacity index, so reading a
    snapshot never scans the nodes.  The federation layer scores whole
    shards with these numbers before descending into node-level HEATS
    placement.
    """

    free_cores: int
    total_cores: int
    free_memory_gib: float
    total_memory_gib: float
    reserved_power_w: float
    dynamic_power_w: float

    @property
    def free_core_fraction(self) -> float:
        """Fraction of the cluster's cores currently unreserved."""
        return self.free_cores / self.total_cores if self.total_cores else 0.0

    @property
    def free_memory_fraction(self) -> float:
        """Fraction of the cluster's memory currently unreserved."""
        return self.free_memory_gib / self.total_memory_gib if self.total_memory_gib else 0.0

    @property
    def thermal_headroom(self) -> float:
        """Fraction of the cluster's dynamic power envelope still unused.

        A proxy for thermal slack: reserved core shares draw their share of
        each node's dynamic (peak minus idle) power, so a cluster running
        close to its aggregate dynamic envelope has little headroom left.
        """
        if self.dynamic_power_w <= 0:
            return 1.0
        return max(0.0, 1.0 - self.reserved_power_w / self.dynamic_power_w)


class Cluster:
    """A named collection of heterogeneous nodes with an array capacity index.

    Rows of :data:`NODE_DTYPE` hold every node's capacity/power columns in
    node-insertion order; removals tombstone their row (``active=False``)
    and the table compacts once tombstones outnumber live nodes, so row
    order always equals insertion order and feasibility masks stay
    deterministic.
    """

    #: rows allocated up front; the table doubles when it fills.
    _INITIAL_ROWS = 16

    def __init__(self, nodes: Iterable[ClusterNode]) -> None:
        self._nodes: Dict[str, ClusterNode] = {}
        self._table = np.zeros(self._INITIAL_ROWS, dtype=NODE_DTYPE)
        self._row_of: Dict[str, int] = {}
        self._row_names: List[Optional[str]] = []
        self._n_rows = 0
        self._tombstones = 0
        self._refresh_columns()
        # Cluster-level aggregates stay incremental scalars (updated with
        # the same +=/-= deltas as ever) so their float evolution -- and
        # every report derived from them -- is bit-identical to the
        # pre-array index.
        self._free_cores_total = 0
        self._free_memory_total = 0.0
        self._reserved_power_total = 0.0
        self._capacity_cache: Optional[CapacitySnapshot] = None
        self._total_cores = 0
        self._total_memory = 0.0
        self._dynamic_power_total = 0.0
        self._idle_power_total = 0.0
        self._idle: Set[str] = set()
        # Node *total* shape census for O(1) can-ever-fit checks.
        self._shape_counts: Dict[Tuple[int, float], int] = {}
        self._membership_version = 0
        # Python-side mirror of each node's (free_cores, free_memory,
        # reserved_power) so capacity-change deltas never read numpy
        # scalars back out of the table on the reserve/release hot path.
        self._prev_capacity: Dict[str, Tuple[int, float, float]] = {}
        # Interned feasible-set name tuples keyed by mask bytes; cleared
        # whenever the row -> name mapping can change (membership churn).
        self._names_memo: Dict[bytes, CandidateNames] = {}
        # Feasibility answers keyed by the *request* shape, valid only
        # between capacity changes: cleared on every reserve/release and
        # on membership churn.  Placement bursts (the retry pass and the
        # arrival stretches between completions) re-ask the same handful
        # of shapes, so most lookups cost one dict hit and zero numpy.
        self._shape_feasibility: Dict[Tuple[int, float], CandidateNames] = {}
        for node in nodes:
            self.add_node(node)
        if not self._nodes:
            raise ValueError("a cluster needs at least one node")

    # ------------------------------------------------------------------ #
    # Capacity index maintenance
    # ------------------------------------------------------------------ #
    def _refresh_columns(self) -> None:
        """Re-derive the cached column views after (re)allocating the table."""
        self._col_free_cores = self._table["free_cores"]
        self._col_free_memory = self._table["free_memory"]
        self._col_reserved_power = self._table["reserved_power"]
        self._col_active = self._table["active"]

    def _grow_table(self) -> None:
        grown = np.zeros(max(self._INITIAL_ROWS, 2 * len(self._table)), dtype=NODE_DTYPE)
        grown[: self._n_rows] = self._table[: self._n_rows]
        self._table = grown
        self._refresh_columns()

    def _compact_table(self) -> None:
        """Drop tombstoned rows, preserving live-row (insertion) order."""
        live = np.flatnonzero(self._col_active[: self._n_rows])
        compacted = np.zeros(len(self._table), dtype=NODE_DTYPE)
        compacted[: len(live)] = self._table[live]
        names = [self._row_names[row] for row in live]
        self._table = compacted
        self._row_names = names
        self._row_of = {name: row for row, name in enumerate(names)}
        self._n_rows = len(names)
        self._tombstones = 0
        self._names_memo.clear()
        self._refresh_columns()

    def _node_reserved_power_w(self, node: ClusterNode) -> float:
        used_fraction = 1.0 - node._free_cores / node.total.cores
        return (node.spec.peak_power_w - node.spec.idle_power_w) * used_fraction

    def _index_node(self, node: ClusterNode) -> None:
        if self._n_rows == len(self._table):
            self._grow_table()
        row = self._n_rows
        self._n_rows += 1
        self._row_of[node.name] = row
        self._row_names.append(node.name)
        free_cores = node._free_cores
        free_memory = node._free_memory
        reserved_power = self._node_reserved_power_w(node)
        self._table[row] = (
            free_cores,
            free_memory,
            node.total.cores,
            node.total.memory_gib,
            reserved_power,
            node.spec.idle_power_w,
            node.spec.peak_power_w - node.spec.idle_power_w,
            True,
        )
        self._free_cores_total += free_cores
        self._free_memory_total += free_memory
        self._reserved_power_total += reserved_power
        self._prev_capacity[node.name] = (free_cores, free_memory, reserved_power)
        if not node.running:
            self._idle.add(node.name)

    def _on_capacity_change(self, node: ClusterNode) -> None:
        self._capacity_cache = None
        name = node.name
        row = self._row_of[name]
        # The mirror holds exactly the values last written to the row, so
        # the incremental totals evolve bit-for-bit as if the old values
        # had been read back out of the array.
        old_free, old_memory, old_power = self._prev_capacity[name]
        new_free = node._free_cores
        new_memory = node._free_memory
        if new_free != old_free:
            self._col_free_cores[row] = new_free
            self._free_cores_total += new_free - old_free
            self._shape_feasibility.clear()
        if new_memory != old_memory:
            self._col_free_memory[row] = new_memory
            self._free_memory_total += new_memory - old_memory
            if self._shape_feasibility:
                self._shape_feasibility.clear()
        # _node_reserved_power_w inlined (same expression, so identical
        # floats): this runs once per reserve/release on the hot path.
        spec = node.spec
        new_power = (spec.peak_power_w - spec.idle_power_w) * (
            1.0 - new_free / node.total.cores
        )
        if new_power != old_power:
            self._col_reserved_power[row] = new_power
            self._reserved_power_total += new_power - old_power
        self._prev_capacity[name] = (new_free, new_memory, new_power)
        if node.running:
            self._idle.discard(name)
        else:
            self._idle.add(name)

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #
    def add_node(self, node: ClusterNode) -> None:
        """Attach a node to the cluster and start indexing its capacity.

        The elastic scale-up primitive: the node gets a row in the capacity
        table and the cluster subscribes to its capacity changes, so
        ``feasible_nodes`` and ``capacity()`` see it immediately without
        any rescan.

        Args:
            node: the node to attach; its name must be cluster-unique.
        """
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._total_cores += node.total.cores
        self._total_memory += node.total.memory_gib
        self._dynamic_power_total += node.spec.peak_power_w - node.spec.idle_power_w
        self._idle_power_total += node.spec.idle_power_w
        shape = (node.total.cores, node.total.memory_gib)
        self._shape_counts[shape] = self._shape_counts.get(shape, 0) + 1
        self._membership_version += 1
        self._names_memo.clear()
        self._shape_feasibility.clear()
        self._index_node(node)
        node.subscribe(self._on_capacity_change)
        self._capacity_cache = None

    def remove_node(self, name: str) -> ClusterNode:
        """Detach an idle node from the cluster (elastic scale-down).

        The node must not be hosting any task -- a caller scaling down must
        drain or migrate first (:meth:`idle_nodes` lists removable nodes).
        A cluster never shrinks to zero nodes.

        Args:
            name: the node to detach.

        Returns:
            The detached node (no longer indexed or subscribed).
        """
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r}")
        node = self._nodes[name]
        if node.running:
            raise ValueError(
                f"cannot remove node {name!r}: {len(node.running)} task(s) "
                "still running -- drain or migrate them first"
            )
        if len(self._nodes) == 1:
            raise ValueError("a cluster needs at least one node")
        node.unsubscribe(self._on_capacity_change)
        row = self._row_of.pop(name)
        self._col_active[row] = False
        self._row_names[row] = None
        self._tombstones += 1
        self._free_cores_total -= int(self._col_free_cores[row])
        shape = (node.total.cores, node.total.memory_gib)
        self._shape_counts[shape] -= 1
        if not self._shape_counts[shape]:
            del self._shape_counts[shape]
        self._membership_version += 1
        self._free_memory_total -= float(self._col_free_memory[row])
        self._reserved_power_total -= float(self._col_reserved_power[row])
        self._total_cores -= node.total.cores
        self._total_memory -= node.total.memory_gib
        self._dynamic_power_total -= node.spec.peak_power_w - node.spec.idle_power_w
        self._idle_power_total -= node.spec.idle_power_w
        self._idle.discard(name)
        del self._nodes[name]
        del self._prev_capacity[name]
        self._names_memo.clear()
        self._shape_feasibility.clear()
        self._capacity_cache = None
        if self._tombstones > len(self._nodes):
            self._compact_table()
        return node

    def idle_nodes(self) -> List[ClusterNode]:
        """Nodes hosting nothing at all (safe to remove).

        Served from an incrementally maintained idle set (updated on every
        reserve/release), so a busy cluster answers in O(idle nodes)
        without scanning its loaded ones.

        Returns:
            Fully idle nodes in node-insertion order.
        """
        names = sorted(self._idle, key=self._row_of.__getitem__)
        return [self._nodes[name] for name in names]

    def capacity(self) -> CapacitySnapshot:
        """The cluster's free-capacity aggregates, read in O(1).

        The snapshot is memoised between capacity changes, so repeated
        reads on the routing hot path (shard scoring touches it several
        times per request) cost a dict hit, not an object build.
        """
        if self._capacity_cache is None:
            self._capacity_cache = CapacitySnapshot(
                free_cores=self._free_cores_total,
                total_cores=self._total_cores,
                free_memory_gib=self._free_memory_total,
                total_memory_gib=self._total_memory,
                reserved_power_w=max(0.0, self._reserved_power_total),
                dynamic_power_w=self._dynamic_power_total,
            )
        return self._capacity_cache

    @property
    def membership_version(self) -> int:
        """Monotone counter bumped by every node add/remove.

        An exact, O(1) topology-change fingerprint: two reads differ if
        and only if the node population mutated in between (a same-size
        swap of different models is still two bumps).  The simulator
        compares it around reschedule events to decide whether queued
        requests and the idle-power level need revisiting.
        """
        return self._membership_version

    @property
    def array_nbytes(self) -> int:
        """Bytes currently allocated to the structured capacity table."""
        return self._table.nbytes

    def node_row(self, name: str) -> np.void:
        """The capacity-table row mirroring one node (a read-only copy).

        Test seam for the array/object-view consistency properties: every
        field must agree with the node object it mirrors.
        """
        row = np.void(self._table[self._row_of[name]])
        return row

    def _feasible_mask(self, cores: int, memory_gib: float) -> np.ndarray:
        n = self._n_rows
        mask = self._col_free_cores[:n] >= cores
        mask &= self._col_free_memory[:n] >= memory_gib
        if self._tombstones:
            mask &= self._col_active[:n]
        return mask

    def has_feasible_node(self, cores: int, memory_gib: float) -> bool:
        """Whether some node currently has both the cores and the memory.

        The exact feasibility oracle behind the simulator's capacity-gated
        retry: equivalent to ``bool(feasible_nodes(cores, memory_gib))``
        but answered as one vectorised comparison over the capacity
        table's columns.  The columns mirror the nodes' exact rounded
        floats, so the comparison agrees bit-for-bit with per-node
        ``can_host`` checks -- there is no cache to go stale under elastic
        topology changes.

        Args:
            cores: requested core count.
            memory_gib: requested memory.

        Returns:
            True when at least one node can host the demand right now.
        """
        # Answered via the name surface so the shape memo is shared: the
        # simulator's retry gate verifies a shape and then immediately
        # places it, and both questions cost one mask build total.
        return bool(self.feasible_node_names(cores, memory_gib))

    def feasible_shape_mask(self, cores: np.ndarray, memory_gib: np.ndarray) -> np.ndarray:
        """Per-shape feasibility for many (cores, memory) shapes at once.

        One broadcast comparison of K shapes against N nodes -- the
        simulator's retry path gates every distinct queued shape with a
        single call instead of K oracle reads.

        Args:
            cores: int64 array of requested core counts, shape (K,).
            memory_gib: float64 array of requested memory, shape (K,).

        Returns:
            Boolean array of shape (K,); entry k is
            ``has_feasible_node(cores[k], memory_gib[k])``.
        """
        return self.feasible_shape_matrix(cores, memory_gib).any(axis=1)

    def feasible_shape_matrix(self, cores: np.ndarray, memory_gib: np.ndarray) -> np.ndarray:
        """Per-(shape, node) feasibility for many shapes at once.

        The full K x N boolean matrix behind :meth:`feasible_shape_mask`.
        The simulator's retry pass keeps it around so that, after a
        placement shrinks one node's capacity, each shape can be
        re-verified from the matrix plus a couple of exact Python float
        comparisons instead of a fresh vectorised scan.

        Args:
            cores: int64 array of requested core counts, shape (K,).
            memory_gib: float64 array of requested memory, shape (K,).

        Returns:
            Boolean array of shape (K, N); entry (k, n) is whether node
            row n currently fits shape k.
        """
        n = self._n_rows
        ok = (self._col_free_cores[:n] >= cores[:, None]) & (
            self._col_free_memory[:n] >= memory_gib[:, None]
        )
        if self._tombstones:
            ok &= self._col_active[:n]
        return ok

    def fits_any_node_total(self, cores: int, memory_gib: float) -> bool:
        """Whether any node could host the demand even when fully idle.

        Served from a census of distinct node *total* shapes (a handful of
        catalogue models), so arrival-time feasibility screening is O(1)
        instead of a node scan.

        Args:
            cores: requested core count.
            memory_gib: requested memory.

        Returns:
            True when at least one node's total resources suffice.
        """
        return any(
            cores <= total_cores and memory_gib <= total_memory
            for total_cores, total_memory in self._shape_counts
        )

    @classmethod
    def from_models(cls, models: Mapping[str, int], prefix: str = "node") -> "Cluster":
        """Build a cluster with ``count`` nodes of each catalogue model."""
        nodes: List[ClusterNode] = []
        index = 0
        for model, count in models.items():
            spec = MICROSERVER_CATALOG[model]
            for _ in range(count):
                nodes.append(ClusterNode(name=f"{prefix}-{index}-{model}", spec=spec))
                index += 1
        return cls(nodes)

    @classmethod
    def heats_testbed(cls, scale: int = 2, prefix: str = "node") -> "Cluster":
        """A mixed x86 / ARM / low-power cluster like the HEATS evaluation's.

        Args:
            scale: number of nodes of each of the four catalogue models.
            prefix: node-name prefix; shards of a federation pass distinct
                prefixes so node names stay unique across the federation.

        Returns:
            A fresh ``Cluster`` with ``4 * scale`` heterogeneous nodes.
        """
        return cls.from_models(
            {
                "xeon-d-x86": scale,
                "arm64-server": scale,
                "jetson-gpu-soc": scale,
                "apalis-arm-soc": scale,
            },
            prefix=prefix,
        )

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[ClusterNode]:
        return list(self._nodes.values())

    def node(self, name: str) -> ClusterNode:
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r}")
        return self._nodes[name]

    def __iter__(self) -> Iterator[ClusterNode]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        """Whether a node of this name is a member (``name in cluster``)."""
        return name in self._nodes

    def feasible_node_names(self, cores: int, memory_gib: float) -> CandidateNames:
        """Names of the nodes able to host a request, in insertion order.

        The placement hot path: repeated queries for the same request
        shape between two capacity changes are answered from a dict
        (cleared on every reserve/release); otherwise one vectorised mask
        over the capacity table, then an interned :class:`CandidateNames`
        tuple per distinct mask -- node objects are never touched, and
        the interned tuple's cached hash makes it cheap as a score-cache
        key component.
        """
        shape = (cores, memory_gib)
        names = self._shape_feasibility.get(shape)
        if names is not None:
            return names
        n = self._n_rows
        mask = self._col_free_cores[:n] >= cores
        mask &= self._col_free_memory[:n] >= memory_gib
        if self._tombstones:
            mask &= self._col_active[:n]
        key = mask.tobytes()
        names = self._names_memo.get(key)
        if names is None:
            row_names = self._row_names
            names = CandidateNames(
                row_names[row] for row in np.flatnonzero(mask)
            )
            if len(self._names_memo) >= 8192:
                self._names_memo.clear()
            self._names_memo[key] = names
        self._shape_feasibility[shape] = names
        return names

    def feasible_nodes(self, cores: int, memory_gib: float) -> List[ClusterNode]:
        """Nodes with enough free resources for a request.

        Served from the capacity table (one vectorised comparison); the
        result keeps the cluster's node-insertion order (row order) so
        placement stays deterministic.
        """
        nodes = self._nodes
        return [
            nodes[name] for name in self.feasible_node_names(cores, memory_gib)
        ]

    def total_idle_power_w(self) -> float:
        # Maintained incrementally on add/remove so the simulator can read
        # it per event to account idle energy under elastic membership.
        return self._idle_power_total

    def locate(self, task_id: str) -> Optional[ClusterNode]:
        for node in self._nodes.values():
            if task_id in node.running:
                return node
        return None

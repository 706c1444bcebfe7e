"""Batcher: coalesce compatible serving requests into schedulable tasks.

Placing every user request as its own cluster task would drown the
scheduler in per-task overhead (scoring, placement bookkeeping, container
start).  The batcher coalesces *compatible* requests -- same tenant, same
use case, same resource shape -- into one :class:`TaskRequest` whose work is
the sum of its members' work.  A batch flushes when it reaches the size
cap, when its oldest member has waited ``max_delay_s``, or when holding it
any longer would endanger a member's deadline (the deadline-aware part).

Batching is columnar.  One pass (:meth:`Batcher._batch`) takes a block of
rows, each with its add instant, the flush check it precedes and its
place in the add order, plus a grid of flush-check instants.  It groups
each key's rows with one stable sort over the key columns and cuts them
into batches with the three rules above; a :class:`Batch` is a view over
a slice of the block's rows.  :meth:`Batcher.add`,
:meth:`~Batcher.flush_ready` and :meth:`~Batcher.flush_all` are that pass
over one row, one check or the end of stream; the serving loop runs it
once over a whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter, itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.workload import TaskRequest
from repro.serving.gateway import ServingRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

#: batch key: (tenant, use case, workload kind, cores, memory bucket)
BatchKey = Tuple[str, str, WorkloadKind, int, int]

_TENANT = attrgetter("tenant")
_USE_CASE = attrgetter("use_case")
_WORKLOAD = attrgetter("workload")
_CORES = attrgetter("cores")
_MEMORY = attrgetter("memory_gib")
_GOPS = attrgetter("gops")
_DEADLINE = attrgetter("deadline_s")

#: flush checks are int64 indices; ``index * tick`` stays exact below this.
_MAX_CHECKS = 2**62


@dataclass(frozen=True)
class BatchPolicy:
    """Tunables of the coalescing policy."""

    max_batch_size: int = 16
    max_delay_s: float = 2.0
    #: requests whose memory demand falls in the same bucket share a batch.
    memory_bucket_gib: float = 0.5
    #: safety margin subtracted from a member's deadline slack before flush.
    deadline_margin_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max delay must be non-negative")
        if self.memory_bucket_gib <= 0:
            raise ValueError("memory bucket must be positive")
        if self.deadline_margin_s < 0:
            raise ValueError("deadline margin must be non-negative")


def _dense_codes(values: Iterable[object], count: int) -> np.ndarray:
    """Per value, the rank of its first appearance (equal values, equal codes)."""
    values = list(values)
    index = dict.fromkeys(values)
    for code, value in enumerate(index):
        index[value] = code
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=count)


def _segments(
    ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """``ufunc`` reduced over each ``values[start:stop]`` (sorted, disjoint, non-empty)."""
    bounds = np.empty(2 * len(starts), dtype=np.int64)
    bounds[0::2] = starts
    bounds[1::2] = stops
    # One padding element keeps a segment ending at len(values) a valid index.
    return ufunc.reduceat(np.append(values, values[:1]), bounds)[0::2]


def _sequential_sums(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> List[float]:
    """Sum of each (non-empty) ``values[start:stop]``, left to right.

    Bit for bit the running ``total += value`` of a loop over the members
    (numpy's own ``add.reduceat`` sums pairwise, which rounds differently).
    """
    members = values.tolist()
    return [
        reduce(add, members[start:stop]) for start, stop in zip(starts.tolist(), stops.tolist())
    ]


def _first_check(fires, starts: np.ndarray, estimate: np.ndarray, last: int) -> np.ndarray:
    """Per row, the first flush check ``k >= start`` at which ``fires(k)``.

    ``fires`` is monotone in ``k`` and evaluates the rule with the rule's
    own float operations, so the answer is the check a walk over every
    check would stop at; ``estimate`` (any float, inf or NaN included)
    only shortens the search.  Rows that never fire get ``last + 1``.
    """
    # fmin maps NaN (a rule that can never fire: no deadline) to last + 1.
    checks = np.fmax(np.fmin(np.ceil(estimate), last + 1), starts).astype(np.int64)
    np.minimum(checks, last + 1, out=checks)
    while True:
        back = (checks > starts) & fires(checks - 1)
        if not back.any():
            break
        checks -= back
    while True:
        ahead = (checks <= last) & ~fires(checks)
        if not ahead.any():
            break
        checks += ahead
    return checks


class _Rows:
    """The requests one batching pass adds.

    Holds what outlives the pass: the requests, a tenant code and the
    deadline per row, and ``order``, the rows grouped by batch key (add
    order within a key), so that every batch the pass forms is a slice of
    it.
    """

    __slots__ = ("requests", "tenant", "deadline_s", "order")

    def __init__(
        self, requests: Sequence[ServingRequest], tenants: Optional[np.ndarray] = None
    ) -> None:
        """Gather the columns of ``requests``.

        Args:
            requests: the rows.
            tenants: per row, a code for its tenant (equal tenants, equal
                codes) when the caller has one; else one is made here.
        """
        count = len(requests)
        self.requests = requests
        if tenants is None:
            tenants = _dense_codes(map(_TENANT, requests), count)
        self.tenant = tenants
        # A missing deadline is NaN: no flush check fires on it, no finish meets it.
        self.deadline_s = np.array(list(map(_DEADLINE, requests)), dtype=float)
        self.order = np.arange(count, dtype=np.int32)


class Batch:
    """A group of compatible requests flushed as one cluster task.

    A view: the members are the rows ``order[start:stop]`` of the block of
    rows the batch was formed from, in the order they were added.  The
    task shape (work, cores, memory, earliest deadline) is reduced once,
    when the batching pass forms the batch, and kept as running values
    while it is open.
    """

    __slots__ = ("batch_id", "key", "opened_s", "flushed_s", "_rows", "_start", "_stop",
                 "_gops", "_cores", "_memory_gib", "_earliest_deadline_s")

    def __init__(
        self,
        batch_id: str,
        key: BatchKey,
        rows: _Rows,
        start: int,
        stop: int,
        opened_s: float,
        shape: Tuple[float, int, float, Optional[float]],
    ) -> None:
        self.batch_id = batch_id
        self.key = key
        self.opened_s = opened_s
        self.flushed_s: Optional[float] = None
        self._rows = rows
        self._start = start
        self._stop = stop
        self._gops, self._cores, self._memory_gib, self._earliest_deadline_s = shape

    def __repr__(self) -> str:
        return (
            f"Batch(batch_id={self.batch_id!r}, size={self.size}, "
            f"opened_s={self.opened_s}, flushed_s={self.flushed_s})"
        )

    @property
    def requests(self) -> List[ServingRequest]:
        members = self._rows.order[self._start:self._stop].tolist()
        return list(map(self._rows.requests.__getitem__, members))

    @property
    def size(self) -> int:
        return self._stop - self._start

    @property
    def total_gops(self) -> float:
        """The members' work, summed left to right."""
        return self._gops

    @property
    def earliest_deadline_s(self) -> Optional[float]:
        """The earliest member deadline (a running minimum, never a rescan)."""
        return self._earliest_deadline_s

    def to_task_request(self, flush_s: float, energy_weight: float) -> TaskRequest:
        """The schedulable task this batch becomes when flushed.

        The task reserves the largest member core count and memory, and
        carries the earliest member deadline unless that has already
        passed by the flush instant (arrival would be at or after it; the
        batch still runs, and the SLA tracker scores the miss per member).
        """
        deadline = self._earliest_deadline_s
        return TaskRequest(
            task_id=self.batch_id,
            arrival_s=flush_s,
            workload=self.key[2],
            gops=self._gops,
            cores=self._cores,
            memory_gib=self._memory_gib,
            energy_weight=energy_weight,
            deadline_s=deadline if deadline is not None and deadline > flush_s else None,
            tenant=self.key[0],
        )


_START = attrgetter("_start")
_STOP = attrgetter("_stop")


def _member_rows(batches: Sequence[Batch]) -> Tuple[np.ndarray, np.ndarray]:
    """Each batch's size, and its members' rows, concatenated in batch order.

    The batches must be views over one block of rows (one batching pass).
    """
    starts = np.fromiter(map(_START, batches), dtype=np.int64, count=len(batches))
    sizes = np.fromiter(map(_STOP, batches), dtype=np.int64, count=len(batches)) - starts
    heads = np.cumsum(sizes) - sizes
    positions = np.repeat(starts - heads, sizes) + np.arange(int(sizes.sum()))
    return sizes, batches[0]._rows.order[positions] if len(batches) else np.empty(0, np.int32)


class Batcher:
    """Open-batch table keyed by (tenant, use case, resource shape)."""

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        #: open batches in the order they opened.
        self._open: Dict[BatchKey, Batch] = {}
        #: the number the next batch id carries.
        self._next_id = 0
        self._last_now_s = float("-inf")
        # Bound once; each flush records one counter add + one ring write.
        if metrics is not None:
            self._m_flushes = metrics.counter("batcher.flushes")
            self._m_batch_size = metrics.histogram("batcher.batch_size")
        else:
            self._m_flushes = None
            self._m_batch_size = None

    def _key(self, request: ServingRequest) -> BatchKey:
        bucket = int(request.memory_gib / self.policy.memory_bucket_gib)
        return (request.tenant, request.use_case, request.workload, request.cores, bucket)

    def _observe_clock(self, now_s: float) -> None:
        """Enforce the monotone-clock contract of the batching timeline.

        A batch must never flush earlier than any of its members was
        added; rejecting a backwards clock at the door makes that
        invariant structural instead of an accident of the caller's tick
        arithmetic.
        """
        if now_s < self._last_now_s:
            raise ValueError(
                f"batcher observed time going backwards "
                f"({now_s} after {self._last_now_s})"
            )
        self._last_now_s = now_s

    def next_flush_due_s(self) -> Optional[float]:
        """Earliest instant any open batch becomes flushable, or None.

        The staleness rule fires a batch at ``opened + max_delay`` and the
        deadline rule at ``deadline - margin``; the minimum over open
        batches is the next time a time-driven flush can possibly happen.
        Size-cap flushes happen inside :meth:`add` and need no clock.
        """
        due: Optional[float] = None
        for batch in self._open.values():
            batch_due = batch.opened_s + self.policy.max_delay_s
            deadline = batch.earliest_deadline_s
            if deadline is not None:
                batch_due = min(batch_due, deadline - self.policy.deadline_margin_s)
            if due is None or batch_due < due:
                due = batch_due
        return due

    @property
    def open_batches(self) -> List[Batch]:
        return list(self._open.values())

    # ------------------------------------------------------------------ #
    # Filling and flushing: thin calls into the one pass
    # ------------------------------------------------------------------ #
    def add(self, request: ServingRequest, now_s: float) -> List[Batch]:
        """Append a request; returns any batches this add caused to flush."""
        return self._batch(_Rows((request,)), np.array([now_s]), np.ones(1, np.int64))

    def flush_ready(self, now_s: float) -> List[Batch]:
        """Flush batches that are stale or whose deadline slack ran out."""
        return self._batch(_Rows(()), np.empty(0), np.empty(0, np.int64), tick=now_s, last=1)

    def flush_all(self, now_s: float) -> List[Batch]:
        """Drain every open batch (end of stream)."""
        return self._batch(_Rows(()), np.empty(0), np.empty(0, np.int64), final_s=now_s)

    def _key_order(
        self,
        rows: _Rows,
        sequence: np.ndarray,
        cores: np.ndarray,
        memory_gib: np.ndarray,
    ) -> Tuple[np.ndarray, List[int], List[BatchKey]]:
        """The rows grouped by batch key, add order within a key.

        Use cases and workload kinds are grouped by object identity first
        (one C-level pass each); only when two groups turn out to share a
        key (equal names held by distinct objects) are the use-case names
        themselves coded.

        Args:
            rows: the rows.
            sequence: per row, its place in the add order.
            cores: per row, its core count.
            memory_gib: per row, its memory demand.

        Returns:
            The grouping order (row indices), where each key's rows start
            in it, and each key.
        """
        requests = rows.requests
        count = len(requests)
        use_cases = np.fromiter(map(id, map(_USE_CASE, requests)), dtype=np.int64, count=count)
        columns = [
            sequence,
            (memory_gib / self.policy.memory_bucket_gib).astype(np.int64),
            cores,
            # Enum members are singletons (and hash in Python): use identities.
            np.fromiter(map(id, map(_WORKLOAD, requests)), dtype=np.int64, count=count),
            use_cases,
            rows.tenant,
        ]
        while True:
            order = np.lexsort(columns).astype(np.int32)
            changed = np.ones(count, dtype=bool)
            changed[1:] = False
            for column in columns[1:]:
                grouped = column[order]
                changed[1:] |= grouped[1:] != grouped[:-1]
            starts = np.flatnonzero(changed).tolist()
            keys = [self._key(requests[order.item(start)]) for start in starts]
            if len(set(keys)) == len(keys) or columns[4] is not use_cases:
                return order, starts, keys
            columns[4] = _dense_codes(map(_USE_CASE, requests), count)

    def _batch(
        self,
        rows: _Rows,
        adds_s: np.ndarray,
        positions: np.ndarray,
        tick: float = 1.0,
        last: int = 0,
        final_s: Optional[float] = None,
        sequence: Optional[np.ndarray] = None,
    ) -> List[Batch]:
        """The batching pass: add a block of rows and run the flush checks.

        Flush checks happen at ``k * tick`` for ``k = 1 .. last``.  Row
        ``r`` is added at instant ``adds_s[r]``, just before check
        ``positions[r]`` (non-decreasing; ``last + 1`` means after every
        check), and several rows before one check are added in the order
        ``sequence`` gives.  A check flushes every open batch that is stale
        or whose earliest deadline minus the margin has come; an add that
        fills a batch to the size cap flushes it on the spot.  With
        ``final_s`` set, every batch still open after the last check
        flushes at ``final_s`` (end of stream); otherwise it stays open for
        the next pass.

        Args:
            rows: the rows.
            adds_s: per row, its add instant.
            positions: per row, the check it precedes.
            tick: the check spacing.
            last: the last check (0: none).
            final_s: the end-of-stream flush instant, if any.
            sequence: per row, its place in the add order (consistent
                with ``positions``); row order by default.

        Returns:
            The flushed batches in flush order: at each check, the size-cap
            flushes of the adds before it (in add order), then the batches
            the check flushes in the order they opened; the end-of-stream
            flushes last, in the order they opened.  Batch ids are numbered
            in the order the batches opened.

        Raises:
            ValueError: on a clock going backwards, or past the check grid.
        """
        if last >= _MAX_CHECKS:
            raise ValueError(
                f"{last} flush checks are beyond the exact range of the {tick} s grid"
            )
        instants = [float(adds_s[0]), float(adds_s[-1])] if len(adds_s) else []
        if last >= 1:
            instants += [tick, last * tick]
        if final_s is not None:
            instants.append(final_s)
        if instants:
            self._observe_clock(min(instants))
            self._last_now_s = max(instants)
        cap = self.policy.max_batch_size
        requests = rows.requests
        count = len(requests)
        if sequence is None:
            sequence = np.arange(count)
        cores = np.fromiter(map(_CORES, requests), dtype=np.int64, count=count)
        memory_gib = np.fromiter(map(_MEMORY, requests), dtype=float, count=count)
        order, group_starts, keys = self._key_order(rows, sequence, cores, memory_gib)
        rows.order = order
        # The batches still open from earlier passes, in opening order.
        carried = list(self._open.values())
        rank_of = {id(batch): rank for rank, batch in enumerate(carried)}
        cuts, extended = self._cut(
            rows, adds_s, positions, tick, last, keys, group_starts, carried
        )
        starts, stops, flush_at = (np.array(column, dtype=np.int64) for column in zip(
            *[cut[1:] for cut in cuts]
        )) if cuts else (np.empty(0, dtype=np.int64),) * 3

        # Each new batch's task shape, reduced over its members in add order.
        gops = np.fromiter(map(_GOPS, requests), dtype=float, count=count)[order]
        memory_gib = memory_gib[order]
        cores = cores[order]
        earliest = _segments(np.fmin, rows.deadline_s[order], starts, stops).tolist()
        shapes = list(zip(
            _sequential_sums(gops, starts, stops),
            _segments(np.maximum, cores, starts, stops).tolist(),
            _segments(np.maximum, memory_gib, starts, stops).tolist(),
            [None if deadline != deadline else deadline for deadline in earliest],
        ))
        # Ids number the new batches in the order their first rows were added.
        openers = order[starts]
        numbers = np.empty(len(cuts), dtype=np.int64)
        numbers[np.argsort(sequence[openers], kind="stable")] = np.arange(len(cuts))
        ranks = numbers + len(carried)
        numbers += self._next_id
        self._next_id += len(cuts)

        def new_batch(place: int) -> Batch:
            key, start, stop, _ = cuts[place]
            return Batch(
                f"batch-{numbers.item(place)}-{key[0]}-{key[1]}",
                key, rows, start, stop, adds_s.item(openers.item(place)), shapes[place],
            )

        # When each batch flushes, and its place in the flush order: by
        # check, a check's size-cap flushes (in add order) before its timed
        # ones (in opening order), the end of stream after every check.
        closers = order[np.maximum(stops - 1, 0)]
        capped = stops - starts == cap
        timed = ~capped & (flush_at <= last)
        flushed_s = np.where(capped, adds_s[closers], flush_at * tick)
        leaving = capped | timed
        if final_s is not None:
            flushed_s[~leaving] = final_s
            leaving[:] = True
        checks = np.where(capped, positions[closers], np.minimum(flush_at, last + 1))
        after = np.where(capped, sequence[closers], ranks)
        # Carried batches: extended by this pass's rows, then flushed by the
        # same rules or kept open.
        extra: List[Tuple[int, int, int, Batch, float]] = []
        for batch, start, stop, flush_check in extended:
            if stop > start:
                self._extend(batch, rows, start, stop, gops, cores, memory_gib)
            if batch.size == cap:
                closer = order.item(stop - 1)
                extra.append(
                    (positions.item(closer), 0, sequence.item(closer), batch, adds_s.item(closer))
                )
            elif flush_check <= last or final_s is not None:
                flush_s = flush_check * tick if flush_check <= last else final_s
                extra.append((min(flush_check, last + 1), 1, rank_of[id(batch)], batch, flush_s))
            else:
                self._open[batch.key] = batch
        staying = np.flatnonzero(~leaving).tolist()
        for place in staying:
            batch = self._open[cuts[place][0]] = new_batch(place)
            rank_of[id(batch)] = ranks.item(place)
        if staying or extended:
            self._open = dict(sorted(self._open.items(), key=lambda item: rank_of[id(item[1])]))

        leaving = np.flatnonzero(leaving)
        flush_order = np.lexsort((
            np.append(after[leaving], [entry[2] for entry in extra]),
            np.append(~capped[leaving], [entry[1] for entry in extra]),
            np.append(checks[leaving], [entry[0] for entry in extra]),
        ))
        leaving = leaving.tolist()
        leaving_s = flushed_s[leaving].tolist()
        flushed = []
        for place in flush_order.tolist():
            if place < len(leaving):
                batch = new_batch(leaving[place])
                batch.flushed_s = leaving_s[place]
            else:
                *_, batch, batch.flushed_s = extra[place - len(leaving)]
            flushed.append(batch)
        if self._m_flushes is not None and flushed:
            self._m_flushes.inc(len(flushed))
            record = self._m_batch_size.record
            for batch in flushed:
                record(float(batch.size))
        return flushed

    def _cut(
        self,
        rows: _Rows,
        adds_s: np.ndarray,
        positions: np.ndarray,
        tick: float,
        last: int,
        keys: List[BatchKey],
        group_starts: List[int],
        carried: List[Batch],
    ) -> Tuple[List[Tuple[BatchKey, int, int, int]], List[Tuple[Batch, int, int, int]]]:
        """Cut each key's rows (``rows.order``) into batches by the flush rules.

        Per row, the first check its deadline fires at (``due``), and that
        or its staleness from its add instant, should it open a batch
        (``fires``), are found with the rules' own float operations.  The
        batch opened by row ``s`` then takes the rows up to
        :meth:`_batch_ends` unless a joining member's deadline pulls its
        flush check earlier: such keys, and keys with a batch carried over
        from an earlier pass, are cut member by member.

        Returns:
            The new batches as (key, start, stop, flush check) slices of
            ``rows.order`` in order, and the carried batches (popped from
            the open table) as (batch, start, stop, flush check) with the
            slice of rows they take.
        """
        policy = self.policy
        cap = policy.max_batch_size
        order = rows.order
        count = len(order)

        def stale(opened_s, starts):
            return _first_check(
                lambda k: k * tick - opened_s >= policy.max_delay_s,
                starts,
                (opened_s + policy.max_delay_s) / tick,
                last,
            )

        def deadline_due(deadline_s, starts):
            return _first_check(
                lambda k: k * tick >= deadline_s - policy.deadline_margin_s,
                starts,
                (deadline_s - policy.deadline_margin_s) / tick,
                last,
            )

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            at = positions[order]
            due = deadline_due(rows.deadline_s[order], at)
            fires = np.minimum(stale(adds_s[order], at), due)
            first = np.ones(len(carried), dtype=np.int64)
            carried_fires = np.minimum(
                stale(np.array([batch.opened_s for batch in carried]), first),
                deadline_due(
                    np.array([batch._earliest_deadline_s for batch in carried], dtype=float),
                    first,
                ),
            ).tolist() if carried else []
        carried_fires = dict(zip(map(id, carried), carried_fires))

        bounds = list(zip(group_starts, group_starts[1:] + [count]))
        ends = self._batch_ends(at, fires, positions, group_starts, cap)
        exact = set(self._open)
        cuts = []
        for key, (start, stop) in zip(keys, bounds):
            head = stop if key in exact else start
            while head < stop:
                end = ends.item(head)
                cuts.append((key, head, end, fires.item(head)))
                head = end
        del ends
        joined = [cut for cut in cuts if cut[2] - cut[1] > 1]
        if joined:
            heads = np.array([cut[1] for cut in joined], dtype=np.int64)
            tails = np.array([cut[2] for cut in joined], dtype=np.int64)
            pulled = _segments(np.minimum, due, heads + 1, tails) < fires[heads]
            exact.update(joined[place][0] for place in np.flatnonzero(pulled).tolist())
        if not exact:
            return cuts, []

        def walk(head: int, limit: int, flush_at: int) -> Tuple[int, int]:
            """Take members from ``head`` while they come before the flush check."""
            while head < limit and at.item(head) <= flush_at:
                flush_at = min(flush_at, due.item(head))
                head += 1
            return head, flush_at

        cuts = [cut for cut in cuts if cut[0] not in exact]
        extended = []
        with_rows = set(keys)
        bounds += [(count, count) for key in self._open if key not in with_rows]
        keys = keys + [key for key in self._open if key not in with_rows]
        for key, (start, stop) in zip(keys, bounds):
            batch = self._open.pop(key, None)
            head = start
            if batch is not None:
                limit = min(stop, head + cap - batch.size)
                end, flush_at = walk(head, limit, carried_fires[id(batch)])
                extended.append((batch, head, end, flush_at))
                head = end
            while key in exact and head < stop:
                end, flush_at = walk(head + 1, min(stop, head + cap), fires.item(head))
                cuts.append((key, head, end, flush_at))
                head = end
        cuts.sort(key=itemgetter(1))
        return cuts, extended

    @staticmethod
    def _batch_ends(
        at: np.ndarray,
        fires: np.ndarray,
        positions: np.ndarray,
        group_starts: List[int],
        cap: int,
    ) -> np.ndarray:
        """Per row, where the batch it would open ends, counting only its own flush check.

        The batch takes the next rows of its key while they come before
        that check (``at <= fires``) and below the size cap.  Within a key
        the rows' checks are non-decreasing, so one ``searchsorted`` over
        (key, dense check rank) finds every end at once.
        """
        # The distinct checks rows precede (positions are non-decreasing).
        checks = positions[np.flatnonzero(np.diff(positions, prepend=positions[:1] - 1))]
        keyed = np.searchsorted(checks, at)
        # The rank of the last distinct check at or before ``fires``.
        bound = np.searchsorted(checks, fires, side="right") - 1
        group = np.zeros(len(at), dtype=np.int64)
        group[group_starts[1:]] = len(checks) + 1
        np.cumsum(group, out=group)
        keyed += group
        bound += group
        del group
        ends = np.searchsorted(keyed, bound, side="right")
        del keyed, bound
        return np.minimum(ends, np.arange(cap, len(at) + cap), out=ends)

    @staticmethod
    def _extend(
        batch: Batch,
        rows: _Rows,
        start: int,
        stop: int,
        gops: np.ndarray,
        cores: np.ndarray,
        memory_gib: np.ndarray,
    ) -> None:
        """Append a carried batch's new members, rows ``start:stop`` in key order.

        The batch becomes a view of a block of its own members, and its
        running task shape takes the new members in.
        """
        old = batch._rows
        kept = old.order[batch._start:batch._stop]
        joined = rows.order[start:stop]
        members = _Rows.__new__(_Rows)
        members.requests = list(map(old.requests.__getitem__, kept.tolist())) + list(
            map(rows.requests.__getitem__, joined.tolist())
        )
        members.tenant = np.concatenate((old.tenant[kept], rows.tenant[joined]))
        members.deadline_s = np.concatenate((old.deadline_s[kept], rows.deadline_s[joined]))
        members.order = np.arange(len(members.requests), dtype=np.int32)
        work = batch._gops
        for value in gops[start:stop].tolist():
            work += value
        earliest = float(np.fmin.reduce(rows.deadline_s[joined]))
        if batch._earliest_deadline_s is not None:
            earliest = min(batch._earliest_deadline_s, earliest) if earliest == earliest \
                else batch._earliest_deadline_s
        batch._rows, batch._start, batch._stop = members, 0, len(members.requests)
        batch._gops = work
        batch._cores = max(batch._cores, int(cores[start:stop].max()))
        batch._memory_gib = max(batch._memory_gib, float(memory_gib[start:stop].max()))
        batch._earliest_deadline_s = earliest if earliest == earliest else None

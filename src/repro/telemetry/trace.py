"""Request-scoped tracing on the simulated clock.

The aggregate counters and histograms in :mod:`repro.telemetry.registry`
answer *how much* -- how many requests were admitted, what the latency
distribution looked like.  They cannot answer *where a single request's
latency went* once it crossed gateway -> batcher -> scheduler -> shard.
This module adds that causal layer: spans recorded through a
per-deployment :class:`Tracer`, stamped with simulated-clock timestamps
and linked to their parents, summarised per stage by
:func:`summarize_trace`.

Design constraints (mirroring the serving hot path this instruments):

* **Pay for what you use.**  A disabled tracer records nothing; every
  instrumentation site guards on a single cached boolean, so the
  array-native hot-path numbers are unaffected when tracing is off.
* **Columns, not objects.**  A tracer appends rows to a
  :class:`SpanTable`: name code, span id, trace-id code, parent id, start
  and end.  The serving loop writes the three spans of every request in
  bulk (:meth:`Tracer.open_spans`, :meth:`Tracer.annotate_spans`,
  :meth:`Tracer.close_spans`); the simulator, chaos engine and autoscaler
  open their few thousand spans one at a time with
  :meth:`Tracer.start_span`.  A :class:`Span` is a handle on one row, and
  a drained table is a read-only sequence that builds them on demand.
* **Monotone within a span.**  Ending a span before its start is
  rejected, which is how the property-test suite pins the "no span ends
  before it starts" invariant at the source.
* **Deterministic.**  Span ids are a per-tracer counter, timestamps are
  simulated seconds; two runs of the same workload produce identical
  traces, which is what lets the benchmark gate diff them.

Stage names are the public schema (see ``docs/observability.md``):

========================  =====================================================
span name                 interval
========================  =====================================================
``request``               arrival -> terminal verdict (root, one per request)
``request.gateway``       arrival -> drained from the admission queue
``request.batch_wait``    enqueued in the batcher -> batch flush
``task``                  batch flush -> task finished / abandoned (root)
``task.pending``          batch flush -> first successful placement
``task.execute``          one contiguous execution segment on one node
``task.migrate``          migration downtime between two execute segments
``autoscale.*``           zero-length actuation events from the autoscaler
``chaos.*``               zero-length fault injections from a scenario's
                          :class:`~repro.scenarios.chaos.ChaosEngine`
                          (``chaos.node_failure``, ``chaos.partition``, ...)
========================  =====================================================
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Span",
    "SpanTable",
    "Tracer",
    "StageStats",
    "TraceSummary",
    "summarize_trace",
    "REQUEST_STAGES",
    "TASK_STAGES",
]

#: Stage names carved out of the request's own trace (trace id = request id).
REQUEST_STAGES: Tuple[str, ...] = ("request.gateway", "request.batch_wait")

#: Stage names carved out of the linked task trace (trace id = task id).
TASK_STAGES: Tuple[str, ...] = ("task.pending", "task.execute", "task.migrate")

#: parent-id column value of a span without a parent.
_NO_PARENT = np.iinfo(np.int64).min

#: An annotation column written in bulk: per span, an index into the values.
Notes = Tuple[np.ndarray, Sequence[Any]]


def _intern(codes: Dict[Any, int], table: List[Any], key: Any) -> int:
    """The code of ``key`` in ``table``, appending it when new."""
    code = codes.get(key)
    if code is None:
        code = codes[key] = len(table)
        table.append(key)
    return code


def _grown(column: np.ndarray, capacity: int, fill: Any) -> np.ndarray:
    grown = np.full(capacity, fill, dtype=column.dtype)
    grown[: len(column)] = column
    return grown


class SpanTable(SequenceABC):
    """Append-only columnar span store; a read-only sequence once drained.

    One row per span, in creation order.  The columns are the name (a code
    into :attr:`names`), the span id, the trace id (a code into
    :attr:`traces`; equal trace ids share a code), the parent id, and the
    start and end instants (NaN while a span is open).  Annotations live
    in per-key code columns written in bulk (``values[code]``; -1 where a
    span lacks the key), and in a sparse per-row dict for spans that were
    opened one at a time.

    Indexing and iteration build :class:`Span` handles on demand, so
    ``len()`` costs nothing and a consumer that reads the columns
    (:func:`summarize_trace`, the console, ``Deployment.serve_iter``) never
    builds one.  Equal tables hold spans with equal ``to_dict()``.
    """

    def __init__(self) -> None:
        #: number of spans (rows) recorded.
        self._size = 0
        #: set when the owning tracer drains the table; spans are then frozen.
        self.read_only = False
        #: span name per name code.
        self.names: List[str] = []
        #: trace id per trace code.
        self.traces: List[Any] = []
        self._name_codes: Dict[str, int] = {}
        self._trace_codes: Dict[Any, int] = {}
        self._name = np.empty(0, dtype=np.int32)
        self._id = np.empty(0, dtype=np.int64)
        self._trace = np.empty(0, dtype=np.int64)
        self._parent = np.empty(0, dtype=np.int64)
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._columns: Dict[str, Tuple[np.ndarray, List[Any]]] = {}
        self._notes: Dict[int, Dict[str, Any]] = {}

    @classmethod
    def of(cls, spans: Iterable["Span"]) -> "SpanTable":
        """The spans as a table: a table itself, or a copy of any other iterable.

        Args:
            spans: a :class:`SpanTable` or any iterable of spans.

        Returns:
            ``spans`` when it is a table, else a new table holding a copy
            of each span, in order.
        """
        if isinstance(spans, SpanTable):
            return spans
        table = cls()
        for span in spans:
            row = table._open(
                span.name, span.span_id, span.trace_id, span.parent_id, span.start_s,
                span.annotations,
            )
            if span.end_s is not None:
                table._end[row] = span.end_s
        return table

    # -- columns -------------------------------------------------------- #
    def _view(self, column: np.ndarray) -> np.ndarray:
        view = column[: self._size]
        view.flags.writeable = False
        return view

    @property
    def name_codes(self) -> np.ndarray:
        """Per span, its name's index into :attr:`names` (read-only)."""
        return self._view(self._name)

    @property
    def trace_codes(self) -> np.ndarray:
        """Per span, its trace id's index into :attr:`traces` (read-only)."""
        return self._view(self._trace)

    @property
    def starts(self) -> np.ndarray:
        """Per span, its simulated start in seconds (read-only)."""
        return self._view(self._start)

    @property
    def ends(self) -> np.ndarray:
        """Per span, its simulated end in seconds; NaN while open (read-only)."""
        return self._view(self._end)

    def code_of(self, name: str) -> int:
        """The name code of ``name`` (-1 when no span carries it).

        Args:
            name: a span name.

        Returns:
            Its index into :attr:`names`, or -1.
        """
        return self._name_codes.get(name, -1)

    def annotation(self, key: str, rows: np.ndarray, default: Any = None) -> List[Any]:
        """One annotation of many spans.

        Args:
            key: the annotation name.
            rows: the spans' rows.
            default: the value for a span that lacks the key.

        Returns:
            Per row, the annotation's value or ``default``.
        """
        column = self._columns.get(key)
        if column is None:
            found = [default] * len(rows)
        else:
            codes, values = column
            found = [values[c] if c >= 0 else default for c in codes[rows].tolist()]
        sparse = [(row, notes[key]) for row, notes in self._notes.items() if key in notes]
        if sparse:
            position = np.full(self._size, -1)
            position[rows] = np.arange(len(rows))
            for row, value in sparse:
                if position[row] >= 0:
                    found[position[row]] = value
        return found

    # -- writers (the tracer's) ----------------------------------------- #
    def _reserve(self, count: int) -> int:
        """Make room for ``count`` more rows; returns the first of them."""
        row = self._size
        if row + count > len(self._start):
            capacity = max(row + count, 2 * len(self._start), 64)
            self._name = _grown(self._name, capacity, 0)
            self._id = _grown(self._id, capacity, 0)
            self._trace = _grown(self._trace, capacity, 0)
            self._parent = _grown(self._parent, capacity, _NO_PARENT)
            self._start = _grown(self._start, capacity, 0.0)
            self._end = _grown(self._end, capacity, np.nan)
            for key, (codes, values) in self._columns.items():
                self._columns[key] = (_grown(codes, capacity, -1), values)
        self._size = row + count
        return row

    def _open(
        self,
        name: str,
        span_id: int,
        trace_id: Any,
        parent_id: Optional[int],
        start_s: float,
        notes: Optional[Dict[str, Any]],
    ) -> int:
        """Append one open span; returns its row."""
        start_s = float(start_s)
        row = self._reserve(1)
        self._name[row] = _intern(self._name_codes, self.names, name)
        self._id[row] = span_id
        self._trace[row] = _intern(self._trace_codes, self.traces, trace_id)
        self._parent[row] = _NO_PARENT if parent_id is None else parent_id
        self._start[row] = start_s
        if notes:
            self._notes[row] = notes
        return row

    def _writable(self) -> None:
        if self.read_only:
            raise TypeError("spans of a drained trace are read-only")

    def _annotate(self, rows: np.ndarray, notes: Dict[str, Notes]) -> None:
        for key, (codes, values) in notes.items():
            column = self._columns.get(key)
            if column is None:
                column = self._columns[key] = (np.full(len(self._start), -1, np.int64), [])
            column[0][rows] = np.asarray(codes) + len(column[1])
            column[1].extend(values)

    def _close(self, rows: np.ndarray, end_s: np.ndarray, notes: Dict[str, Notes]) -> None:
        end_s = np.asarray(end_s, dtype=float)
        if not np.isnan(self._end[rows]).all():
            raise ValueError("a span would be ended twice")
        early = np.flatnonzero((end_s < self._start[rows]) | np.isnan(end_s))
        if len(early):
            row = rows[early[0]]
            raise ValueError(
                f"span {self.names[self._name[row]]!r} would end at {end_s[early[0]]} "
                f"before it started at {self._start[row]}"
            )
        self._annotate(rows, notes)
        self._end[rows] = end_s

    # -- the sequence ---------------------------------------------------- #
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [Span._at(self, row) for row in range(*index.indices(self._size))]
        row = index + self._size if index < 0 else index
        if not 0 <= row < self._size:
            raise IndexError("span index out of range")
        return Span._at(self, row)

    def __iter__(self) -> Iterator["Span"]:
        for row in range(self._size):
            yield Span._at(self, row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SpanTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine.to_dict() == theirs.to_dict() for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SpanTable({self._size} spans)"


class Span:
    """One timed interval on the simulated clock: a handle on a table row.

    A span is a name, a trace id tying it to the request or task it
    belongs to, start/end seconds, an optional parent link, and
    annotations.  Spans handed out by a tracer stay writable until
    :meth:`end` is called (and until the tracer drains them); spans read
    back from a drained :class:`SpanTable` are read-only.  A span built
    directly is a one-row table of its own.
    """

    __slots__ = ("_table", "_row")

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: str,
        start_s: float,
        parent_id: Optional[int] = None,
    ) -> None:
        self._table = SpanTable()
        self._row = self._table._open(name, span_id, trace_id, parent_id, start_s, None)

    @classmethod
    def _at(cls, table: SpanTable, row: int) -> "Span":
        span = object.__new__(cls)
        span._table = table
        span._row = row
        return span

    @property
    def name(self) -> str:
        """Stage name, e.g. ``"request.gateway"``."""
        return self._table.names[self._table._name[self._row]]

    @property
    def span_id(self) -> int:
        """Per-tracer span id."""
        return int(self._table._id[self._row])

    @property
    def trace_id(self) -> str:
        """Request id or task id the span belongs to."""
        return self._table.traces[self._table._trace[self._row]]

    @property
    def parent_id(self) -> Optional[int]:
        """The enclosing span's id, or None."""
        parent = int(self._table._parent[self._row])
        return None if parent == _NO_PARENT else parent

    @property
    def start_s(self) -> float:
        """Simulated start in seconds."""
        return float(self._table._start[self._row])

    @property
    def end_s(self) -> Optional[float]:
        """Simulated end in seconds, or None while open."""
        end_s = float(self._table._end[self._row])
        return None if end_s != end_s else end_s

    @property
    def annotations(self) -> Dict[str, Any]:
        """The span's annotations, as a new dict (write with :meth:`annotate`)."""
        table, row = self._table, self._row
        notes = {
            key: values[codes[row]]
            for key, (codes, values) in table._columns.items()
            if codes[row] >= 0
        }
        notes.update(table._notes.get(row, ()))
        return notes

    def annotate(self, key: str, value: Any) -> "Span":
        """Attach one key/value annotation to the span.

        Args:
            key: Annotation name (e.g. ``"node"``, ``"verdict"``).
            value: Any JSON-representable value.

        Returns:
            This span, so annotations chain fluently.

        Raises:
            TypeError: if the span was read back from a drained trace.
        """
        self._table._writable()
        self._table._notes.setdefault(self._row, {})[key] = value
        return self

    def end(self, end_s: float, **annotations: Any) -> "Span":
        """Close the span at ``end_s``, optionally annotating in one call.

        Args:
            end_s: Simulated end time; must be >= the span's start time.
            **annotations: Extra annotations applied before closing.

        Returns:
            This span.

        Raises:
            ValueError: if ``end_s`` precedes ``start_s`` (or is NaN) or
                the span is already ended (double-close is always an
                instrumentation bug worth failing loudly on).
            TypeError: if the span was read back from a drained trace.
        """
        table, row = self._table, self._row
        table._writable()
        if self.ended:
            raise ValueError(f"span {self.name!r} ({self.span_id}) ended twice")
        end_s = float(end_s)
        if end_s < self.start_s or end_s != end_s:
            raise ValueError(
                f"span {self.name!r} would end at {end_s} before it started at {self.start_s}"
            )
        if annotations:
            table._notes.setdefault(row, {}).update(annotations)
        table._end[row] = end_s
        return self

    @property
    def ended(self) -> bool:
        """Whether :meth:`end` has been called."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Simulated seconds covered by the span (0.0 while still open)."""
        end_s = self.end_s
        return 0.0 if end_s is None else end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the span for JSON export.

        Returns:
            A plain dict with the span's fields and annotations.
        """
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "annotations": self.annotations,
        }

    def __repr__(self) -> str:
        end_s = self.end_s
        state = f"{self.start_s:.3f}.." + ("" if end_s is None else f"{end_s:.3f}")
        return f"Span({self.name!r}, trace={self.trace_id!r}, {state})"


class _NullSpan(Span):
    """Shared do-nothing span handed out by a disabled tracer.

    Every mutator is a no-op so call sites that did not guard on
    ``tracer.enabled`` still cost almost nothing and never accumulate
    state.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", -1, "", 0.0)

    def annotate(self, key: str, value: Any) -> "Span":
        """Discard the annotation.

        Args:
            key: Ignored.
            value: Ignored.

        Returns:
            This shared null span.
        """
        return self

    def end(self, end_s: float, **annotations: Any) -> "Span":
        """Discard the close; a null span is never considered ended.

        Args:
            end_s: Ignored.
            **annotations: Ignored.

        Returns:
            This shared null span.
        """
        return self


#: Module-level singleton returned by every call on a disabled tracer.
NULL_SPAN = _NullSpan()


class Tracer:
    """Per-deployment span recorder with an always-on no-op mode.

    A tracer is either *enabled* -- it appends spans to a
    :class:`SpanTable` until :meth:`drain` -- or *disabled*, in which case
    every call records nothing (span calls return the shared
    :data:`NULL_SPAN`).  Instrumentation sites additionally cache
    ``tracer is not None and tracer.enabled`` into a local boolean so the
    disabled path costs one branch, not an attribute chase.
    """

    __slots__ = ("enabled", "_table", "_next_id")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._table = SpanTable()
        self._next_id = 0

    @classmethod
    def disabled(cls) -> "Tracer":
        """Build a no-op tracer.

        Returns:
            A tracer whose every method is a cheap no-op.
        """
        return cls(enabled=False)

    def start_span(
        self,
        name: str,
        start_s: float,
        trace_id: str,
        parent: Optional[Span] = None,
        **annotations: Any,
    ) -> Span:
        """Open a new span (or return the null span when disabled).

        Args:
            name: Stage name, e.g. ``"request.gateway"``.
            start_s: Simulated start time in seconds.
            trace_id: Request id or task id the span belongs to.
            parent: Optional enclosing span; records its id as the link.
            **annotations: Initial annotations.

        Returns:
            The opened span; close it with :meth:`Span.end`.
        """
        if not self.enabled:
            return NULL_SPAN
        row = self._table._open(
            name,
            self._next_id,
            trace_id,
            parent.span_id if parent is not None else None,
            start_s,
            annotations,
        )
        self._next_id += 1
        return Span._at(self._table, row)

    def event(self, name: str, time_s: float, trace_id: str = "", **annotations: Any) -> Span:
        """Record a zero-length event (start == end).

        Args:
            name: Event name, e.g. ``"autoscale.add_shard"``.
            time_s: Simulated instant the event occurred.
            trace_id: Optional trace id to file the event under.
            **annotations: Annotations describing the event.

        Returns:
            The already-closed span.
        """
        if not self.enabled:
            return NULL_SPAN
        span = self.start_span(name, time_s, trace_id, **annotations)
        span.end(time_s)
        return span

    def open_spans(
        self,
        names: Sequence[str],
        name: np.ndarray,
        traces: Sequence[str],
        trace: np.ndarray,
        start_s: np.ndarray,
        parent: np.ndarray,
    ) -> np.ndarray:
        """Open a block of spans in one call; ids follow the block's order.

        The columnar form of :meth:`start_span`, for a caller that knows a
        whole family of spans at once.

        Args:
            names: the stage names the block uses.
            name: per span, an index into ``names``.
            traces: the trace ids the block uses.
            trace: per span, an index into ``traces``.
            start_s: per span, its simulated start.
            parent: per span, the position in the block of its parent,
                or -1 for none.

        Returns:
            The spans' ids, in block order (empty when disabled).
        """
        if not self.enabled:
            return np.empty(0, dtype=np.int64)
        table = self._table
        name_codes = np.array([_intern(table._name_codes, table.names, n) for n in names])
        trace_codes = np.fromiter(
            (_intern(table._trace_codes, table.traces, t) for t in traces),
            dtype=np.int64,
            count=len(traces),
        )
        count = len(name)
        first = self._next_id
        ids = np.arange(first, first + count, dtype=np.int64)
        row = table._reserve(count)
        rows = slice(row, row + count)
        table._name[rows] = name_codes[name]
        table._id[rows] = ids
        table._trace[rows] = trace_codes[trace]
        table._parent[rows] = np.where(parent >= 0, parent + first, _NO_PARENT)
        table._start[rows] = start_s
        self._next_id += count
        return ids

    def _rows(self, span_ids: np.ndarray) -> np.ndarray:
        rows = np.asarray(span_ids, dtype=np.int64) - (self._next_id - self._table._size)
        if len(rows) and not (0 <= rows.min() and rows.max() < self._table._size):
            raise ValueError("span ids are not of spans recorded since the last drain")
        return rows

    def annotate_spans(self, span_ids: np.ndarray, **notes: Notes) -> None:
        """Annotate many open spans at once (the columnar :meth:`Span.annotate`).

        Args:
            span_ids: the spans, from :meth:`open_spans` since the last drain.
            **notes: per annotation name, ``(codes, values)``: per span an
                index into ``values``.
        """
        if self.enabled:
            self._table._annotate(self._rows(span_ids), notes)

    def close_spans(self, span_ids: np.ndarray, end_s: np.ndarray, **notes: Notes) -> None:
        """End many spans at once (the columnar :meth:`Span.end`).

        Args:
            span_ids: the spans, from :meth:`open_spans` since the last drain.
            end_s: per span, its simulated end.
            **notes: annotations applied before closing, as in
                :meth:`annotate_spans`.

        Raises:
            ValueError: if a span id is unknown, or a span is already
                ended or would end before it started; no span is changed
                then.
        """
        if self.enabled:
            self._table._close(self._rows(span_ids), end_s, notes)

    @property
    def span_count(self) -> int:
        """Number of spans recorded since the last drain."""
        return self._table._size

    def drain(self) -> SpanTable:
        """Remove and return every recorded span.

        The serving loop calls this once per run so consecutive runs on
        one deployment do not bleed spans into each other's reports.

        Returns:
            The recorded spans, in creation order, as a read-only table.
        """
        table, self._table = self._table, SpanTable()
        table.read_only = True
        return table


@dataclass(frozen=True)
class StageStats:
    """Latency statistics for one stage (one span name)."""

    stage: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p99_s: float

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for JSON export.

        Returns:
            A plain dict of the stage statistics.
        """
        return {
            "stage": self.stage,
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
        }


@dataclass(frozen=True)
class TraceSummary:
    """Per-stage latency breakdown with critical-path attribution.

    ``stages`` maps span name to :class:`StageStats`.  ``critical_path``
    attributes each completed request's end-to-end latency to the stages
    it actually crossed -- gateway wait, batch wait, scheduler pending
    time, execution, migration downtime, and an ``other`` remainder --
    as fractions that sum to ~1.0.  ``verdicts`` counts terminal
    outcomes (completed / dropped / rejected_*).
    """

    stages: Dict[str, StageStats]
    critical_path: Dict[str, float]
    verdicts: Dict[str, int]
    span_count: int
    open_spans: int

    def stage(self, name: str) -> Optional[StageStats]:
        """Look up one stage's statistics.

        Args:
            name: Span/stage name, e.g. ``"task.execute"``.

        Returns:
            The stats for that stage, or ``None`` if no span used it.
        """
        return self.stages.get(name)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for JSON export (the shape BENCH files embed).

        Returns:
            A plain dict with stages, critical path and verdict counts.
        """
        return {
            "stages": {name: stats.to_dict() for name, stats in sorted(self.stages.items())},
            "critical_path": dict(sorted(self.critical_path.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
            "span_count": self.span_count,
            "open_spans": self.open_spans,
        }

    def format(self) -> str:
        """Render a fixed-width table of the breakdown.

        Returns:
            A human-readable multi-line summary; the single line
            ``"(no spans)"`` for an empty trace.
        """
        if not self.stages and self.span_count == 0:
            return "(no spans)"
        lines = [
            f"{'stage':<22} {'count':>7} {'p50 (s)':>10} {'p99 (s)':>10} {'total (s)':>11}"
        ]
        for name in sorted(self.stages):
            stats = self.stages[name]
            lines.append(
                f"{name:<22} {stats.count:>7d} {stats.p50_s:>10.4f} "
                f"{stats.p99_s:>10.4f} {stats.total_s:>11.2f}"
            )
        if self.critical_path:
            parts = ", ".join(
                f"{stage}={fraction:.1%}" for stage, fraction in sorted(self.critical_path.items())
            )
            lines.append(f"critical path: {parts}")
        if self.verdicts:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.verdicts.items()))
            lines.append(f"verdicts: {parts}")
        return "\n".join(lines)


def _stage_stats(name: str, durations: np.ndarray) -> StageStats:
    p50, p99 = np.percentile(durations, (50.0, 99.0))
    return StageStats(
        stage=name,
        count=int(durations.size),
        total_s=float(durations.sum()),
        mean_s=float(durations.mean()),
        p50_s=float(p50),
        p99_s=float(p99),
    )


def _fold(values: np.ndarray) -> float:
    """The left-to-right sum a Python loop computes (``sum`` of numpy is pairwise)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _by_trace(
    table: SpanTable, rows: np.ndarray, stages: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``rows`` named one of ``stages``, grouped by trace (row order within one).

    Returns:
        The grouped rows and, aligned, their trace codes (ascending).
    """
    codes = [table.code_of(stage) for stage in stages]
    rows = rows[np.isin(table.name_codes[rows], codes)]
    rows = rows[np.argsort(table.trace_codes[rows], kind="stable")]
    return rows, table.trace_codes[rows]


def summarize_trace(spans: Iterable[Span]) -> TraceSummary:
    """Fold a trace into per-stage stats and critical-path shares.

    Critical-path attribution walks every *completed* request root: its
    end-to-end latency decomposes into the request-trace stages
    (``request.gateway``, ``request.batch_wait``), the linked task-trace
    stages (``task.pending``, ``task.execute``, ``task.migrate`` via the
    root's ``task_id`` annotation), plus an ``other`` remainder for time
    not covered by any instrumented stage.  Shares are totals across all
    completed requests, normalised to fractions.

    The fold reads the table's columns; no span object is built.  Every
    sum runs in the order a walk over the spans adds (roots in span order,
    each root's own stages then its task's, in span order), so the result
    does not depend on how the trace was recorded.

    An empty trace (a traced run that completed zero requests) is a
    valid input: the result is a well-formed all-zeros summary -- empty
    ``stages``/``critical_path``/``verdicts``, zero counts -- so callers
    never need to guard before summarising.

    Args:
        spans: Spans from one serving run (``Tracer.drain()`` output,
            ``ServingReport.trace_spans``, or any iterable of spans).

    Returns:
        The aggregated :class:`TraceSummary`.
    """
    table = SpanTable.of(spans)
    duration = table.ends - table.starts
    ended = np.flatnonzero(~np.isnan(duration))
    names = table.name_codes[ended]

    present, first = np.unique(names, return_index=True)
    stages = {}
    for code in present[np.argsort(first)].tolist():
        stage = table.names[code]
        stages[stage] = _stage_stats(stage, duration[ended[names == code]])

    roots = ended[names == table.code_of("request")]
    roots = roots[[bool(t) for t in table.annotation("terminal", roots)]]
    verdict = table.annotation("verdict", roots, "unknown")
    verdicts = dict(Counter(map(str, verdict)))

    done = roots[[v == "completed" for v in verdict]]
    own_rows, own_traces = _by_trace(table, ended, REQUEST_STAGES)
    task_rows, task_traces = _by_trace(table, ended, TASK_STAGES)
    own = table.trace_codes[done]
    own_lo = np.searchsorted(own_traces, own, side="left")
    own_n = np.searchsorted(own_traces, own, side="right") - own_lo
    task = np.array(
        [
            table._trace_codes.get(task_id, -1) if task_id is not None else -1
            for task_id in table.annotation("task_id", done)
        ],
        dtype=np.int64,
    )
    task_lo = np.searchsorted(task_traces, task, side="left")
    task_n = np.searchsorted(task_traces, task, side="right") - task_lo

    # Each completed root's stage spans, root after root: its own, then its task's.
    counts = own_n + task_n
    root = np.repeat(np.arange(len(done)), counts)
    step = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    is_own = step < own_n[root]
    rows = np.empty(len(step), dtype=np.int64)
    rows[is_own] = own_rows[(own_lo[root] + step)[is_own]]
    rows[~is_own] = task_rows[(task_lo[root] + step - own_n[root])[~is_own]]
    spent = duration[rows]
    covered = np.zeros(len(done))
    for at in range(int(counts.max()) if len(counts) else 0):
        here = step == at
        covered[root[here]] += spent[here]

    path_totals: Dict[str, float] = {}
    for stage in REQUEST_STAGES + TASK_STAGES:
        mine = table.name_codes[rows] == table.code_of(stage)
        if mine.any():
            path_totals[stage] = _fold(spent[mine])
    remainder = duration[done] - covered
    remainder = remainder[remainder > 1e-9]
    if len(remainder):
        path_totals["other"] = _fold(remainder)
    grand_total = _fold(duration[done])

    critical_path: Dict[str, float] = {}
    if grand_total > 0.0:
        critical_path = {
            stage: total / grand_total for stage, total in path_totals.items() if total > 0.0
        }
    return TraceSummary(
        stages=stages,
        critical_path=critical_path,
        verdicts=verdicts,
        span_count=len(table),
        open_spans=len(table) - len(ended),
    )

"""Pluggable exporters rendering metric snapshots off the hot path.

An exporter consumes :class:`~repro.telemetry.registry.MetricsSnapshot`
objects -- never live instruments -- so exporting can happen at any cadence
without perturbing the recording paths.  Two concrete exporters cover the
repo's needs: a text renderer for benchmark result files and human
inspection, and an in-memory collector tests and the autoscale controller
use to look at signal history.

Both stateful exporters are bounded: a long-lived ``serve_iter`` dashboard
exporting once per tick must not grow memory without limit, so histories
are deques that keep the most recent ``capacity`` entries.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, List, Mapping, Optional, Protocol

from repro.telemetry.registry import MetricsRegistry, MetricsSnapshot

#: Default history bound for the stateful exporters.  Generous enough for
#: every test and dashboard in the repo, small enough that an unattended
#: ``serve_iter`` loop cannot grow memory without limit.
DEFAULT_EXPORT_CAPACITY = 512


class Exporter(Protocol):
    """What the telemetry layer needs from an exporter sink."""

    def export(self, snapshot: MetricsSnapshot) -> None:
        """Consume one point-in-time snapshot."""
        ...


class InMemoryExporter:
    """Keeps recent exported snapshots; the test/controller-facing sink.

    History is bounded: once ``capacity`` snapshots have been exported the
    oldest are dropped, so long-running dashboards that export every tick
    hold memory constant.  Pass ``capacity=None`` for the old unbounded
    behaviour.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_EXPORT_CAPACITY) -> None:
        """Create the exporter with an empty, bounded history.

        Args:
            capacity: maximum snapshots retained (oldest evicted first);
                ``None`` keeps everything.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._snapshots: Deque[MetricsSnapshot] = deque(maxlen=capacity)

    def export(self, snapshot: MetricsSnapshot) -> None:
        """Append one snapshot to the history (evicting the oldest at capacity).

        Args:
            snapshot: the snapshot to retain.
        """
        self._snapshots.append(snapshot)

    @property
    def snapshots(self) -> List[MetricsSnapshot]:
        """The retained snapshots, oldest first."""
        return list(self._snapshots)

    @property
    def latest(self) -> MetricsSnapshot:
        """The most recently exported snapshot."""
        if not self._snapshots:
            raise LookupError("nothing exported yet")
        return self._snapshots[-1]


class TextExporter:
    """Renders snapshots as fixed-width text (benchmark result files).

    Like :class:`InMemoryExporter`, the rendered history is bounded to the
    most recent ``capacity`` blocks.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_EXPORT_CAPACITY) -> None:
        """Create the exporter with an empty, bounded buffer.

        Args:
            capacity: maximum rendered blocks retained; ``None`` keeps all.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._lines: Deque[str] = deque(maxlen=capacity)

    def export(self, snapshot: MetricsSnapshot) -> None:
        """Render one snapshot into the text buffer.

        Args:
            snapshot: the snapshot to render.
        """
        self._lines.append(render_text(snapshot))

    @property
    def lines(self) -> List[str]:
        """The retained rendered blocks, oldest first."""
        return list(self._lines)

    @property
    def text(self) -> str:
        """All rendered snapshots, separated by blank lines."""
        return "\n\n".join(self._lines)


class JsonlExporter:
    """Renders exports as JSON Lines: one JSON object per line.

    The machine-readable sibling of :class:`TextExporter`: each exported
    snapshot (or arbitrary record, via :meth:`write`) becomes exactly one
    ``\\n``-free JSON object, so the buffer concatenates into a valid
    ``.jsonl`` feed for dashboards and offline analysis.  Field order is
    deterministic (keys sorted at every nesting level) so identical
    exports diff byte-identically.  Like the other exporters, the buffer
    is bounded to the most recent ``capacity`` lines.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_EXPORT_CAPACITY) -> None:
        """Create the exporter with an empty, bounded line buffer.

        Args:
            capacity: maximum lines retained (oldest evicted first);
                ``None`` keeps everything.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._lines: Deque[str] = deque(maxlen=capacity)

    def export(self, snapshot: MetricsSnapshot) -> None:
        """Serialise one snapshot as a single JSON line.

        Args:
            snapshot: the snapshot to serialise (counters, gauges,
                histogram rollups).
        """
        record = {
            "counters": dict(snapshot.counters),
            "gauges": dict(snapshot.gauges),
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "window_mean": h.window_mean,
                    "ewma": h.ewma,
                    "p50": h.p50,
                    "p99": h.p99,
                }
                for name, h in snapshot.histograms.items()
            },
        }
        self.write(record)

    def write(self, record: Mapping[str, object]) -> None:
        """Append one arbitrary record as a JSON line (the event feed).

        The live console streams its frame dicts through this, so one
        exporter can interleave metric snapshots and console events into
        a single chronological feed.

        Args:
            record: any JSON-representable mapping; non-serialisable
                values fall back to ``str``.
        """
        self._lines.append(
            json.dumps(dict(record), sort_keys=True, default=str, separators=(",", ":"))
        )

    @property
    def lines(self) -> List[str]:
        """The retained JSON lines, oldest first."""
        return list(self._lines)

    @property
    def text(self) -> str:
        """The buffer as one ``.jsonl`` document (lines joined by ``\\n``)."""
        return "\n".join(self._lines)


def render_text(snapshot: MetricsSnapshot) -> str:
    """One snapshot as aligned ``name  kind  value`` text lines.

    Args:
        snapshot: the snapshot to render.

    Returns:
        The text block, deterministically ordered by ``(name, kind)``
        across all instrument families so diffs of result files are
        stable even when a counter and a histogram share a name.
    """
    rows: List[tuple] = []
    for name, value in snapshot.counters.items():
        rows.append((name, "counter", f"{value:.6g}"))
    for name, value in snapshot.gauges.items():
        rows.append((name, "gauge", f"{value:.6g}"))
    for name, h in snapshot.histograms.items():
        rows.append(
            (
                name,
                "histogram",
                f"count={h.count} mean={h.window_mean:.4g} "
                f"ewma={h.ewma:.4g} p50={h.p50:.4g} p99={h.p99:.4g}",
            )
        )
    if not rows:
        return "(no metrics)"
    rows.sort(key=lambda row: (row[0], row[1]))
    name_width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    return "\n".join(
        f"{name.ljust(name_width)}  {kind.ljust(kind_width)}  {value}"
        for name, kind, value in rows
    )


def export_text(registry: MetricsRegistry) -> str:
    """Convenience: snapshot a registry and render it as text.

    Args:
        registry: the live registry to snapshot.

    Returns:
        The rendered text block.
    """
    return render_text(registry.snapshot())

"""Cluster-wide metrics pipeline: record in O(1), roll up on demand.

The serving and scheduling hot paths (gateway admission, batch flushes,
HEATS placement, shard routing) emit observations into a shared
:class:`MetricsRegistry`; consumers -- the autoscale control loop,
exporters, benchmarks -- read windowed rollups without ever slowing the
recording side down:

* :mod:`repro.telemetry.metrics`  -- :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` backed by a fixed-size :class:`RingBuffer`; recording
  is O(1) with no per-event aggregation, rollups (windowed EWMA, linear
  quantiles, means) run at read time.
* :mod:`repro.telemetry.registry` -- the named-instrument bus and the
  immutable :class:`MetricsSnapshot` view.
* :mod:`repro.telemetry.export`   -- pluggable exporters: text rendering
  for benchmark result files, JSON Lines feeds for dashboards, in-memory
  history for tests/controllers.
* :mod:`repro.telemetry.trace`    -- request-scoped spans on the simulated
  clock: per-deployment :class:`Tracer` with a no-op mode, stage
  summaries with critical-path attribution via :func:`summarize_trace`.
* :mod:`repro.telemetry.console`  -- the live deployment console: per-shard
  tiles over ``serve_iter()`` ticks rendered as ANSI blocks or a
  self-contained HTML snapshot.
"""

from repro.telemetry.metrics import Counter, Gauge, Histogram, RingBuffer
from repro.telemetry.registry import (
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.export import (
    Exporter,
    InMemoryExporter,
    JsonlExporter,
    TextExporter,
    export_text,
    render_text,
)
from repro.telemetry.trace import (
    Span,
    StageStats,
    Tracer,
    TraceSummary,
    summarize_trace,
)
from repro.telemetry.console import (
    ConsoleFrame,
    LiveConsole,
    ShardTile,
    build_frames,
    render_ansi,
    render_html,
)

__all__ = [
    "ConsoleFrame",
    "Counter",
    "Exporter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "InMemoryExporter",
    "JsonlExporter",
    "LiveConsole",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RingBuffer",
    "ShardTile",
    "Span",
    "StageStats",
    "TextExporter",
    "Tracer",
    "TraceSummary",
    "build_frames",
    "export_text",
    "render_ansi",
    "render_html",
    "render_text",
    "summarize_trace",
]

"""Live deployment console: one tile model, two renderers.

``serve_iter()`` already streams a deployment's timeline as
:class:`~repro.api.deployment.ServingTick` windows.  This module turns
that stream into a *console frame* per tick -- per-shard tiles (load,
queue depth, SLA hit rate, energy price, autoscale actions) plus the
tick's cluster-wide counters -- and renders the same model two ways:

* :func:`render_ansi` -- a terminal dashboard block per frame, suitable
  for printing in a live loop (and safe to run headlessly in CI);
* :func:`render_html` -- a self-contained single-file HTML snapshot with
  inline JS (a frame scrubber) and no external assets, suitable for
  attaching to a CI run as an artifact.

Frame building is a pure function over already-collected data
(:func:`build_frames` takes ticks + an optional ``topology()`` dict +
optional trace spans), so it never perturbs the serving hot path.  Tile
fields that need tracing (running tasks, queue depth, SLA hit rate,
per-shard completions) degrade to ``None`` on untraced runs; the
cluster-wide tick counters are always present.  :class:`LiveConsole`
wraps the whole pipeline around a :class:`~repro.api.deployment.Deployment`
and can stream every frame into a
:class:`~repro.telemetry.export.JsonlExporter` event feed.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.trace import SpanTable

__all__ = [
    "ConsoleFrame",
    "LiveConsole",
    "ShardTile",
    "build_frames",
    "render_ansi",
    "render_html",
]

#: Tile name used when the backend is a single cluster (no shards) or no
#: topology was provided: every task is attributed to one synthetic tile.
CLUSTER_TILE = "cluster"


@dataclass(frozen=True)
class ShardTile:
    """One shard's slice of a console frame.

    Static identity (name, region, node count, energy price) comes from
    the backend's ``topology()``; the live fields come from trace spans
    and are ``None`` on untraced runs.
    """

    shard: str
    region: Optional[str]
    nodes: Optional[int]
    energy_price_per_kwh: Optional[float]
    #: tasks executing on this shard at the frame's window end (traced only).
    running: Optional[int]
    #: ``running / nodes`` -- a load proxy in tasks-per-node (traced only).
    load: Optional[float]
    #: tasks whose final execute segment ended inside this window (traced only).
    completed_tasks: Optional[int]
    #: autoscale actions targeting this shard inside this window.
    actions: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """The tile as a JSON-ready dict (one object per tile).

        Returns:
            All tile fields, with ``actions`` as a list.
        """
        return {
            "shard": self.shard,
            "region": self.region,
            "nodes": self.nodes,
            "energy_price_per_kwh": self.energy_price_per_kwh,
            "running": self.running,
            "load": self.load,
            "completed_tasks": self.completed_tasks,
            "actions": list(self.actions),
        }


@dataclass(frozen=True)
class ConsoleFrame:
    """One rendered-ready console frame: a tick plus its shard tiles.

    The cluster-wide counters mirror the source
    :class:`~repro.api.deployment.ServingTick` exactly (same windows,
    same counts), so summing frames reproduces the final
    :class:`~repro.serving.loop.ServingReport` totals.  Trace-derived
    fields (queue depth, SLA, tile live fields) are ``None`` when the
    run was not traced.
    """

    index: int
    start_s: float
    end_s: float
    arrivals: int
    completed: int
    cumulative_completed: int
    p50_latency_s: float
    p95_latency_s: float
    #: batches waiting for placement at the window end (traced only).
    queue_depth: Optional[int]
    #: deadline-carrying requests completed in-window that met it (traced only).
    sla_hits: Optional[int]
    #: deadline-carrying requests completed in-window (traced only).
    sla_total: Optional[int]
    #: spans ended in-window per stage name (from the tick; traced only).
    stage_spans: Optional[Dict[str, int]]
    tiles: Tuple[ShardTile, ...] = ()
    #: autoscale events in-window: dicts with ``action``/``target``/``time_s``.
    actions: Tuple[Dict[str, object], ...] = ()

    @property
    def sla_hit_rate(self) -> Optional[float]:
        """Fraction of in-window deadline-carrying completions that met it.

        Returns:
            ``sla_hits / sla_total``; None when untraced or when no
            completed request in this window carried a deadline.
        """
        if not self.sla_total:
            return None
        return self.sla_hits / self.sla_total

    def to_dict(self) -> Dict[str, object]:
        """The frame as a JSON-ready dict (the JSONL event-feed record).

        Returns:
            All frame fields plus ``"type": "console.frame"`` so feed
            consumers can interleave frames with metric snapshots.
        """
        return {
            "type": "console.frame",
            "tick": self.index,
            "window_s": [self.start_s, self.end_s],
            "arrivals": self.arrivals,
            "completed": self.completed,
            "cumulative_completed": self.cumulative_completed,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "queue_depth": self.queue_depth,
            "sla_hits": self.sla_hits,
            "sla_total": self.sla_total,
            "sla_hit_rate": self.sla_hit_rate,
            "stage_spans": dict(sorted(self.stage_spans.items()))
            if self.stage_spans is not None
            else None,
            "tiles": [tile.to_dict() for tile in self.tiles],
            "actions": [dict(action) for action in self.actions],
        }


# --------------------------------------------------------------------- #
# Frame building
# --------------------------------------------------------------------- #
def _shard_entries(
    topology: Optional[Mapping[str, object]],
) -> List[Tuple[str, Optional[str], Optional[int], Optional[float]]]:
    """Static tile identities from a backend ``topology()`` dict."""
    if topology is None:
        return [(CLUSTER_TILE, None, None, None)]
    shards = topology.get("shards")
    if not shards:
        nodes = topology.get("total_nodes")
        return [(CLUSTER_TILE, None, int(nodes) if nodes is not None else None, None)]
    entries = []
    for shard in shards:
        entries.append(
            (
                str(shard.get("name")),
                shard.get("region"),
                int(shard["nodes"]) if shard.get("nodes") is not None else None,
                shard.get("energy_price_per_kwh"),
            )
        )
    return entries


def _count_through(sorted_times: Sequence[float], time_s: float) -> int:
    """How many of the sorted instants are ``<= time_s``."""
    return bisect_right(sorted_times, time_s)


def _take_window(
    events: Sequence[Tuple[float, object]], pos: int, end_s: float, last: bool
) -> Tuple[List[object], int]:
    """Pop the events falling in a half-open window ending at ``end_s``.

    Mirrors ``serve_iter``'s windowing: events land in ``[start, end)``
    except the final window, which is closed on the right so the horizon
    instant is not lost.
    """
    taken: List[object] = []
    while pos < len(events) and (
        events[pos][0] < end_s or (last and events[pos][0] <= end_s)
    ):
        taken.append(events[pos][1])
        pos += 1
    return taken, pos


def build_frames(
    ticks: Iterable[object],
    topology: Optional[Mapping[str, object]] = None,
    spans: Optional[Sequence[object]] = None,
) -> List[ConsoleFrame]:
    """Build the console frame model from already-collected run data.

    A pure function: ticks come from ``Deployment.serve_iter``, topology
    from ``Deployment.topology()``/``backend.topology()``, spans from
    ``report.trace_spans``.  Nothing here touches the serving hot path.

    Args:
        ticks: the run's :class:`~repro.api.deployment.ServingTick`
            stream (any iterable; consumed once).
        topology: the backend's ``topology()`` dict; None degrades to a
            single synthetic ``"cluster"`` tile with no static identity.
        spans: the run's trace spans; None (untraced run) leaves every
            trace-derived field ``None``.

    Returns:
        One :class:`ConsoleFrame` per tick, in tick order.
    """
    tick_list = list(ticks)
    entries = _shard_entries(topology)
    shard_names = [entry[0] for entry in entries]
    traced = spans is not None

    # Pre-index the spans once: per-shard execute intervals, pending
    # intervals, completion/SLA/autoscale instants.  Open spans (end_s
    # None) never appear in the end lists, so they count as running or
    # queued forever.
    exec_starts: Dict[str, List[float]] = {name: [] for name in shard_names}
    exec_ends: Dict[str, List[float]] = {name: [] for name in shard_names}
    pend_starts: List[float] = []
    pend_ends: List[float] = []
    completions: List[Tuple[float, str]] = []
    sla_marks: List[Tuple[float, bool]] = []
    autoscale_events: List[Tuple[float, Dict[str, object]]] = []
    if traced:
        table = SpanTable.of(spans)
        codes, starts_s, ends_s = table.name_codes, table.starts, table.ends
        ended = ~np.isnan(ends_s)

        def named(name: str, closed: bool = False) -> np.ndarray:
            mask = codes == table.code_of(name)
            return np.flatnonzero(mask & ended if closed else mask)

        # A completed task's *last* execute segment carries the shard the
        # completion happened on (earlier segments end at migrations).
        # Segments rank by end (by start while open, or at a 0.0 end).
        final: Dict[object, Tuple[float, str]] = {}
        execute = named("task.execute")
        for trace, start, end, shard in zip(
            table.trace_codes[execute].tolist(),
            starts_s[execute].tolist(),
            ends_s[execute].tolist(),
            table.annotation("shard", execute),
        ):
            shard = shard or CLUSTER_TILE
            rank = end if end == end and end else start
            if trace not in final or rank > final[trace][0]:
                final[trace] = (rank, shard)
            if shard not in exec_starts:
                shard = shard_names[0]
            exec_starts[shard].append(start)
            if end == end:
                exec_ends[shard].append(end)
        pending = named("task.pending")
        pend_starts = starts_s[pending].tolist()
        pend_ends = ends_s[pending[ended[pending]]].tolist()
        tasks = named("task", closed=True)
        for trace, end, verdict in zip(
            table.trace_codes[tasks].tolist(),
            ends_s[tasks].tolist(),
            table.annotation("verdict", tasks),
        ):
            if verdict == "completed":
                shard = final[trace][1] if trace in final else CLUSTER_TILE
                if shard not in exec_starts:
                    shard = shard_names[0]
                completions.append((end, shard))
        requests = named("request", closed=True)
        for end, met in zip(ends_s[requests].tolist(), table.annotation("deadline_met", requests)):
            if met is not None:
                sla_marks.append((end, bool(met)))
        actions = [
            code for code, name in enumerate(table.names) if name.startswith("autoscale.")
        ]
        autoscale = np.flatnonzero(np.isin(codes, actions))
        for code, start, target, reason in zip(
            codes[autoscale].tolist(),
            starts_s[autoscale].tolist(),
            table.annotation("target", autoscale),
            table.annotation("reason", autoscale),
        ):
            autoscale_events.append(
                (
                    start,
                    {
                        "time_s": start,
                        "action": table.names[code][len("autoscale."):],
                        "target": target,
                        "reason": reason,
                    },
                )
            )
        for starts in exec_starts.values():
            starts.sort()
        for ends in exec_ends.values():
            ends.sort()
        pend_starts.sort()
        pend_ends.sort()
        completions.sort(key=lambda item: item[0])
        sla_marks.sort(key=lambda item: item[0])
        autoscale_events.sort(key=lambda item: item[0])

    frames: List[ConsoleFrame] = []
    done_pos = sla_pos = act_pos = 0
    for i, tick in enumerate(tick_list):
        last = i == len(tick_list) - 1
        queue_depth = sla_hits = sla_total = None
        window_actions: Tuple[Dict[str, object], ...] = ()
        done_by_shard: Dict[str, int] = {}
        if traced:
            window_done, done_pos = _take_window(completions, done_pos, tick.end_s, last)
            for shard in window_done:
                done_by_shard[shard] = done_by_shard.get(shard, 0) + 1
            window_sla, sla_pos = _take_window(sla_marks, sla_pos, tick.end_s, last)
            sla_total = len(window_sla)
            sla_hits = sum(1 for met in window_sla if met)
            window_acts, act_pos = _take_window(
                autoscale_events, act_pos, tick.end_s, last
            )
            window_actions = tuple(window_acts)
            queue_depth = _count_through(pend_starts, tick.end_s) - _count_through(
                pend_ends, tick.end_s
            )
        tiles = []
        for shard, region, nodes, price in entries:
            running = load = None
            done = None
            if traced:
                running = _count_through(
                    exec_starts[shard], tick.end_s
                ) - _count_through(exec_ends[shard], tick.end_s)
                load = running / nodes if nodes else None
                done = done_by_shard.get(shard, 0)
            tiles.append(
                ShardTile(
                    shard=shard,
                    region=region,
                    nodes=nodes,
                    energy_price_per_kwh=price,
                    running=running,
                    load=load,
                    completed_tasks=done,
                    actions=tuple(
                        str(action["action"])
                        for action in window_actions
                        if action.get("target") == shard
                    ),
                )
            )
        frames.append(
            ConsoleFrame(
                index=tick.index,
                start_s=tick.start_s,
                end_s=tick.end_s,
                arrivals=tick.arrivals,
                completed=tick.completed,
                cumulative_completed=tick.cumulative_completed,
                p50_latency_s=tick.p50_latency_s,
                p95_latency_s=tick.p95_latency_s,
                queue_depth=queue_depth,
                sla_hits=sla_hits,
                sla_total=sla_total,
                stage_spans=dict(tick.stage_spans)
                if tick.stage_spans is not None
                else None,
                tiles=tuple(tiles),
                actions=window_actions,
            )
        )
    return frames


# --------------------------------------------------------------------- #
# ANSI renderer
# --------------------------------------------------------------------- #
_RESET = "\x1b[0m"
_DIM = "\x1b[2m"
_BOLD = "\x1b[1m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RED = "\x1b[31m"


def _paint(text: str, code: str, color: bool) -> str:
    """Wrap ``text`` in an ANSI code (or pass through when colour is off)."""
    return f"{code}{text}{_RESET}" if color else text


def _load_colour(load: Optional[float]) -> str:
    """Green under 0.7 tasks/node, yellow under 1.0, red at saturation."""
    if load is None or load < 0.7:
        return _GREEN
    if load < 1.0:
        return _YELLOW
    return _RED


def render_ansi(frame: ConsoleFrame, color: bool = True) -> str:
    """Render one frame as a terminal dashboard block.

    Args:
        frame: the frame to render.
        color: emit ANSI colour/emphasis codes; pass False for plain
            text (logs, dumb terminals, golden-file tests).

    Returns:
        A multi-line string; one block per frame, safe to print in a
        loop (no cursor control, just appended blocks).
    """
    lines: List[str] = []
    header = (
        f"tick {frame.index:>3}  "
        f"[{frame.start_s:8.1f}s → {frame.end_s:8.1f}s]"
    )
    lines.append(_paint(f"── {header} ", _BOLD, color) + "─" * 24)
    counters = (
        f"  arrivals {frame.arrivals:>5}   completed {frame.completed:>5}   "
        f"cumulative {frame.cumulative_completed:>6}   "
        f"p50 {frame.p50_latency_s:7.3f}s   p95 {frame.p95_latency_s:7.3f}s"
    )
    if frame.queue_depth is not None:
        counters += f"   queue {frame.queue_depth:>4}"
    rate = frame.sla_hit_rate
    if rate is not None:
        code = _GREEN if rate >= 0.99 else (_YELLOW if rate >= 0.9 else _RED)
        counters += "   SLA " + _paint(f"{rate * 100.0:5.1f}%", code, color)
    lines.append(counters)
    for tile in frame.tiles:
        region = tile.region or "-"
        nodes = f"{tile.nodes}n" if tile.nodes is not None else "-"
        price = (
            f"${tile.energy_price_per_kwh:.3f}/kWh"
            if tile.energy_price_per_kwh is not None
            else "-"
        )
        row = f"  {tile.shard:<14} {region:<12} {nodes:>5}  {price:>12}"
        if tile.load is not None:
            row += "  load " + _paint(
                f"{tile.load:5.2f}", _load_colour(tile.load), color
            )
        if tile.running is not None:
            row += f"  run {tile.running:>4}"
        if tile.completed_tasks is not None:
            row += f"  done {tile.completed_tasks:>4}"
        if tile.actions:
            row += "  " + _paint("↯ " + ",".join(tile.actions), _YELLOW, color)
        lines.append(row)
    for action in frame.actions:
        if action.get("target") is None:
            lines.append(
                "  "
                + _paint(
                    f"↯ autoscale {action['action']}"
                    + (f" ({action['reason']})" if action.get("reason") else ""),
                    _YELLOW,
                    color,
                )
            )
    if frame.stage_spans:
        stages = "  ".join(
            f"{name}={count}" for name, count in sorted(frame.stage_spans.items())
        )
        lines.append(_paint(f"  stages: {stages}", _DIM, color))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# HTML renderer
# --------------------------------------------------------------------- #
_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem;
       background: #111418; color: #d7dde4; }
h1 { font-size: 1.1rem; }
.controls { margin: .8rem 0; display: flex; gap: 1rem; align-items: center; }
.controls input[type=range] { width: 22rem; }
.counters { margin: .6rem 0; color: #9fb4c7; }
.counters b { color: #e8eef4; }
.tiles { display: flex; flex-wrap: wrap; gap: .7rem; }
.tile { border: 1px solid #2c3540; border-radius: 6px; padding: .6rem .8rem;
        min-width: 13rem; background: #171c22; }
.tile h2 { margin: 0 0 .3rem; font-size: .95rem; }
.tile .meta { color: #7e8c9a; font-size: .8rem; }
.tile .load-ok { color: #5fd38a; }
.tile .load-warn { color: #e8c35a; }
.tile .load-hot { color: #ef6a6a; }
.tile .actions { color: #e8c35a; font-size: .8rem; }
.stages { margin-top: .8rem; color: #7e8c9a; font-size: .85rem; }
.actions-log { margin-top: .5rem; color: #e8c35a; font-size: .85rem; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div class="controls">
  <label>frame <input id="scrub" type="range" min="0" max="0" value="0"></label>
  <span id="frameno"></span>
</div>
<div class="counters" id="counters"></div>
<div class="tiles" id="tiles"></div>
<div class="actions-log" id="actions"></div>
<div class="stages" id="stages"></div>
<script>
const FRAMES = __FRAMES__;
const scrub = document.getElementById("scrub");
scrub.max = Math.max(0, FRAMES.length - 1);
scrub.value = scrub.max;
function fmt(x, digits) { return x === null ? "-" : Number(x).toFixed(digits); }
function loadClass(load) {
  if (load === null) return "meta";
  if (load < 0.7) return "load-ok";
  if (load < 1.0) return "load-warn";
  return "load-hot";
}
function draw() {
  const f = FRAMES[Number(scrub.value)];
  if (!f) return;
  document.getElementById("frameno").textContent =
    "tick " + f.tick + "  [" + fmt(f.window_s[0], 1) + "s \\u2192 " +
    fmt(f.window_s[1], 1) + "s]";
  let counters = "arrivals <b>" + f.arrivals + "</b>  completed <b>" +
    f.completed + "</b>  cumulative <b>" + f.cumulative_completed +
    "</b>  p50 <b>" + fmt(f.p50_latency_s, 3) + "s</b>  p95 <b>" +
    fmt(f.p95_latency_s, 3) + "s</b>";
  if (f.queue_depth !== null) counters += "  queue <b>" + f.queue_depth + "</b>";
  if (f.sla_hit_rate !== null)
    counters += "  SLA <b>" + fmt(f.sla_hit_rate * 100, 1) + "%</b>";
  document.getElementById("counters").innerHTML = counters;
  const tiles = document.getElementById("tiles");
  tiles.innerHTML = "";
  for (const t of f.tiles) {
    const div = document.createElement("div");
    div.className = "tile";
    let html = "<h2>" + t.shard + "</h2><div class='meta'>" +
      (t.region || "-") + " \\u00b7 " +
      (t.nodes === null ? "-" : t.nodes + " nodes") + " \\u00b7 " +
      (t.energy_price_per_kwh === null ? "-"
        : "$" + fmt(t.energy_price_per_kwh, 3) + "/kWh") + "</div>";
    if (t.load !== null)
      html += "<div class='" + loadClass(t.load) + "'>load " +
        fmt(t.load, 2) + " (" + t.running + " running)</div>";
    if (t.completed_tasks !== null)
      html += "<div class='meta'>done " + t.completed_tasks + "</div>";
    if (t.actions.length)
      html += "<div class='actions'>\\u21af " + t.actions.join(", ") + "</div>";
    div.innerHTML = html;
    tiles.appendChild(div);
  }
  document.getElementById("actions").textContent = f.actions.length
    ? f.actions.map(a => "\\u21af " + a.action +
        (a.target ? " \\u2192 " + a.target : "")).join("   ")
    : "";
  document.getElementById("stages").textContent = f.stage_spans
    ? "stages: " + Object.entries(f.stage_spans)
        .map(([k, v]) => k + "=" + v).join("  ")
    : "";
}
scrub.addEventListener("input", draw);
draw();
</script>
</body>
</html>
"""


def render_html(
    frames: Sequence[ConsoleFrame], title: str = "deployment console"
) -> str:
    """Render a frame sequence as one self-contained HTML document.

    The document embeds the frame model as inline JSON and a small
    inline script with a frame scrubber -- no external assets, so the
    single file works as a CI artifact or an email attachment.

    Args:
        frames: the frames to embed, in tick order.
        title: the page title/heading.

    Returns:
        The complete HTML document as a string.
    """
    payload = json.dumps(
        [frame.to_dict() for frame in frames], sort_keys=True
    ).replace("</", "<\\/")
    safe_title = (
        title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return _HTML_TEMPLATE.replace("__TITLE__", safe_title).replace(
        "__FRAMES__", payload
    )


# --------------------------------------------------------------------- #
# Deployment-facing wrapper
# --------------------------------------------------------------------- #
class LiveConsole:
    """Frame pipeline around a deployment: serve, model, render, export.

    Wraps ``serve_iter()`` + :func:`build_frames` + the renderers, and
    optionally streams every frame dict into a
    :class:`~repro.telemetry.export.JsonlExporter` event feed.  Holds no
    serving state itself; each :meth:`run` is one workload.
    """

    def __init__(
        self,
        deployment: object,
        tick_s: float = 5.0,
        exporter: Optional[object] = None,
        color: bool = True,
    ) -> None:
        """Bind the console to a deployment.

        Args:
            deployment: a :class:`~repro.api.deployment.Deployment` (or
                anything with ``serve_iter``/``last_report``/``backend``).
            tick_s: frame window width, forwarded to ``serve_iter``.
            exporter: optional sink with a ``write(record)`` method
                (e.g. :class:`~repro.telemetry.export.JsonlExporter`);
                every built frame is written to it as one event.
            color: default colour setting for :meth:`stream`.
        """
        if tick_s <= 0:
            raise ValueError(f"tick_s must be > 0, got {tick_s}")
        self.deployment = deployment
        self.tick_s = tick_s
        self.exporter = exporter
        self.color = color

    def run(
        self, workload: object, batch_policy: Optional[object] = None
    ) -> List[ConsoleFrame]:
        """Serve one workload and build its console frames.

        Args:
            workload: the serving workload, forwarded to ``serve_iter``.
            batch_policy: optional per-run batching override.

        Returns:
            The run's frames, in tick order (also written to the
            exporter when one is attached).
        """
        ticks = list(
            self.deployment.serve_iter(
                workload, tick_s=self.tick_s, batch_policy=batch_policy
            )
        )
        report = self.deployment.last_report
        spans = getattr(report, "trace_spans", None) if report is not None else None
        frames = build_frames(
            ticks, topology=self.deployment.backend.topology(), spans=spans
        )
        if self.exporter is not None:
            for frame in frames:
                self.exporter.write(frame.to_dict())
        return frames

    def stream(
        self, workload: object, batch_policy: Optional[object] = None
    ) -> Iterator[str]:
        """Serve one workload and yield each frame's ANSI rendering.

        Args:
            workload: the serving workload.
            batch_policy: optional per-run batching override.

        Returns:
            An iterator of rendered blocks, one per frame, for a
            ``for block in console.stream(...): print(block)`` loop.
        """
        for frame in self.run(workload, batch_policy=batch_policy):
            yield render_ansi(frame, color=self.color)

    def html(
        self, frames: Sequence[ConsoleFrame], title: str = "deployment console"
    ) -> str:
        """Render previously-built frames as the single-file HTML snapshot.

        Args:
            frames: frames from :meth:`run`.
            title: the page title.

        Returns:
            The complete HTML document.
        """
        return render_html(frames, title=title)

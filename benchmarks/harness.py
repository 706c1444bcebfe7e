"""JSON benchmark harness: machine-readable results + a perf-regression gate.

Every ``test_bench_*`` run records its headline numbers through a
:class:`BenchRun` instead of hand-pasting them into text tables.  The run
emits ``BENCH_<name>.json`` at the repository root -- metrics (ops/sec,
wall-clock, p50/p99 latency, node-seconds, ...), telemetry counters,
trace-stage breakdowns, and the human-readable tables -- and the
``benchmarks/results/*.txt`` files are *rendered from that JSON*, so the
text tables can never drift from the measured numbers again.

Pinned baselines live in ``benchmarks/baselines/<name>.json`` (committed),
keyed by tier (``smoke`` for CI, ``full`` for the local acceptance runs).
``python benchmarks/harness.py check --tier smoke`` compares every emitted
BENCH file against its pinned baseline and exits non-zero when any *gated*
metric regresses beyond its per-metric tolerance -- that step is CI's
perf-regression gate.

Regression rule per gated metric (direction ``higher`` or ``lower``)::

    margin = max(tolerance * |baseline|, abs_tolerance)
    regressed   (higher)  iff  value < baseline - margin
    regressed   (lower)   iff  value > baseline + margin

Deterministic simulated metrics carry tight tolerances (a few percent);
wall-clock ratios (hot-path speedup) carry loose ones so a noisy shared
runner cannot flip the build.

CLI::

    python benchmarks/harness.py check [--tier smoke|full] [names...]
    python benchmarks/harness.py pin   [names...]   # adopt current numbers
    python benchmarks/harness.py render [names...]  # regenerate results/*.txt
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BenchRun",
    "format_table",
    "render_tables",
    "load_bench",
    "load_baseline",
    "compare_metrics",
    "check",
    "pin",
    "render",
    "main",
    "DEFAULT_TOLERANCE",
]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"
SCHEMA_VERSION = 1

#: default relative tolerance for gated metrics.
DEFAULT_TOLERANCE = 0.10


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table.

    Args:
        headers: column headers.
        rows: row cells (stringified).

    Returns:
        The rendered table (no trailing newline).
    """
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def bench_path(name: str, bench_dir: Path = REPO_ROOT) -> Path:
    """Repo-root location of one run's JSON artefact.

    Args:
        name: benchmark name (e.g. ``core_speed``).
        bench_dir: directory the BENCH files live in.

    Returns:
        The ``BENCH_<name>.json`` path.
    """
    return bench_dir / f"BENCH_{name}.json"


def baseline_path(name: str, baselines_dir: Path = BASELINES_DIR) -> Path:
    """Committed location of one benchmark's pinned baseline.

    Args:
        name: benchmark name.
        baselines_dir: directory the baselines live in.

    Returns:
        The ``baselines/<name>.json`` path.
    """
    return baselines_dir / f"{name}.json"


class BenchRun:
    """One benchmark run accumulating metrics, tables, and telemetry.

    Build one per ``test_bench_*`` test (the ``bench`` fixture does), call
    :meth:`metric` / :meth:`table` / :meth:`attach_counters` /
    :meth:`attach_trace` as results land, then :meth:`finish` writes the
    ``BENCH_<name>.json`` artefact and renders the text tables from it.
    """

    def __init__(self, name: str, tier: str = "full") -> None:
        """Start a run.

        Args:
            name: benchmark name; determines the artefact filename.
            tier: ``smoke`` (CI-reduced load) or ``full``.
        """
        self.name = name
        self.tier = tier
        self._start = time.perf_counter()
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.tables: List[Dict[str, Any]] = []
        self.counters: Optional[Dict[str, float]] = None
        self.trace: Optional[Dict[str, Any]] = None

    def metric(
        self,
        key: str,
        value: float,
        direction: str = "higher",
        tolerance: float = DEFAULT_TOLERANCE,
        abs_tolerance: float = 0.0,
        gate: bool = True,
    ) -> None:
        """Record one named metric.

        Args:
            key: metric name (e.g. ``ops_per_sec``).
            value: measured value.
            direction: ``higher`` or ``lower`` -- which way is better.
            tolerance: relative regression tolerance for the gate.
            abs_tolerance: absolute tolerance floor (wins when larger than
                ``tolerance * |baseline|``; useful for near-zero metrics).
            gate: whether the CI gate compares this metric; False records
                it as informational only.
        """
        if direction not in ("higher", "lower"):
            raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
        self.metrics[key] = {
            "value": float(value),
            "direction": direction,
            "tolerance": float(tolerance),
            "abs_tolerance": float(abs_tolerance),
            "gate": bool(gate),
        }

    def table(
        self,
        name: str,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> str:
        """Record one human-readable table (rendered to results/<name>.txt).

        Args:
            name: results-file stem.
            title: table title line.
            headers: column headers.
            rows: row cells.

        Returns:
            The rendered table text (also printed by :meth:`finish`).
        """
        rows = [[str(cell) for cell in row] for row in rows]
        self.tables.append(
            {"name": name, "title": title, "headers": list(headers), "rows": rows}
        )
        return f"{title}\n{format_table(headers, rows)}\n"

    def attach_counters(self, counters: Mapping[str, float]) -> None:
        """Attach telemetry-registry counter totals to the artefact.

        Args:
            counters: counter name -> total (``MetricsRegistry.counter_values``).
        """
        self.counters = {name: float(value) for name, value in sorted(counters.items())}

    def attach_trace(self, trace_summary: Any) -> None:
        """Attach a trace-stage breakdown to the artefact.

        Args:
            trace_summary: a :class:`~repro.telemetry.trace.TraceSummary`
                (or its ``to_dict()`` form).
        """
        if trace_summary is None:
            return
        self.trace = (
            trace_summary.to_dict() if hasattr(trace_summary, "to_dict") else dict(trace_summary)
        )

    def finish(
        self,
        bench_dir: Path = REPO_ROOT,
        quiet: bool = False,
        results_dir: Path = RESULTS_DIR,
    ) -> Dict[str, Any]:
        """Write ``BENCH_<name>.json`` and render its text tables.

        The harness wall-clock (everything between construction and this
        call) is recorded as ``harness_wall_clock_s``; per-metric
        speedups against the pinned baseline (same tier) land in
        ``speedup_vs_baseline`` (ratio normalised so > 1.0 is better).

        Args:
            bench_dir: directory to write the JSON artefact into.
            quiet: suppress printing the rendered tables.
            results_dir: directory the text tables render into.

        Returns:
            The written payload.
        """
        payload: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "tier": self.tier,
            "harness_wall_clock_s": round(time.perf_counter() - self._start, 4),
            "metrics": self.metrics,
            "counters": self.counters,
            "trace": self.trace,
            "tables": self.tables,
            "speedup_vs_baseline": None,
            "baseline_tier": None,
        }
        baseline = load_baseline(self.name)
        entry = baseline.get(self.tier) if baseline else None
        if entry:
            payload["baseline_tier"] = self.tier
            payload["speedup_vs_baseline"] = speedups_vs_baseline(
                self.metrics, entry.get("metrics", {})
            )
        path = bench_path(self.name, bench_dir)
        path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        rendered = render_tables(payload, results_dir=results_dir)
        if not quiet:
            for text in rendered.values():
                print("\n" + text)
        return payload


def render_tables(payload: Mapping[str, Any], results_dir: Path = RESULTS_DIR) -> Dict[str, str]:
    """Render a payload's tables to ``results/<name>.txt`` files.

    Args:
        payload: a BENCH payload (the JSON is the source of truth).
        results_dir: directory the text tables are written into.

    Returns:
        Results-file stem -> rendered text, for each table.
    """
    rendered: Dict[str, str] = {}
    results_dir.mkdir(exist_ok=True)
    for spec in payload.get("tables", []):
        text = f"{spec['title']}\n{format_table(spec['headers'], spec['rows'])}\n"
        (results_dir / f"{spec['name']}.txt").write_text(text)
        rendered[spec["name"]] = text
    return rendered


def speedups_vs_baseline(
    metrics: Mapping[str, Mapping[str, Any]],
    baseline_metrics: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Optional[float]]:
    """Per-metric improvement ratios against pinned values.

    Args:
        metrics: the current run's metric records.
        baseline_metrics: the pinned metric records.

    Returns:
        Metric name -> ratio normalised so values > 1.0 mean *better*
        than the baseline (current/baseline for higher-is-better metrics,
        inverted for lower-is-better); None when undefined (zero pin).
    """
    ratios: Dict[str, Optional[float]] = {}
    for key, record in metrics.items():
        pinned = baseline_metrics.get(key)
        if pinned is None:
            continue
        value, base = float(record["value"]), float(pinned["value"])
        if record["direction"] == "higher":
            ratios[key] = value / base if base else None
        else:
            ratios[key] = base / value if value else None
    return ratios


def compare_metrics(
    current: Mapping[str, Any], baseline_entry: Mapping[str, Any]
) -> List[str]:
    """Find gated metrics that regressed beyond tolerance.

    Args:
        current: a BENCH payload (``metrics`` holds the live records).
        baseline_entry: the pinned tier entry (``{"metrics": {...}}``).

    A gated metric missing from the pinned baseline is itself a hard
    failure: silently skipping it would let a new (or renamed) gated
    metric drift unchecked until someone happened to re-pin.  The
    failure line carries the ``pin`` command that adopts it.

    Returns:
        One human-readable line per regression (empty = gate passes).
    """
    failures: List[str] = []
    pinned_metrics = baseline_entry.get("metrics", {})
    for key, record in current.get("metrics", {}).items():
        if not record.get("gate", False):
            continue
        pinned = pinned_metrics.get(key)
        if pinned is None:
            name = current.get("name", "?")
            failures.append(
                f"{name}:{key} is gated but missing from the pinned baseline "
                f"-- adopt it with `python benchmarks/harness.py pin {name}`"
            )
            continue
        value = float(record["value"])
        base = float(pinned["value"])
        margin = max(float(record["tolerance"]) * abs(base), float(record["abs_tolerance"]))
        direction = record["direction"]
        if direction == "higher" and value < base - margin:
            failures.append(
                f"{current.get('name', '?')}:{key} regressed: {value:.6g} < "
                f"baseline {base:.6g} - margin {margin:.6g} (higher is better)"
            )
        elif direction == "lower" and value > base + margin:
            failures.append(
                f"{current.get('name', '?')}:{key} regressed: {value:.6g} > "
                f"baseline {base:.6g} + margin {margin:.6g} (lower is better)"
            )
    return failures


def load_bench(name: str, bench_dir: Path = REPO_ROOT) -> Optional[Dict[str, Any]]:
    """Read one emitted BENCH payload.

    Args:
        name: benchmark name.
        bench_dir: directory the BENCH files live in.

    Returns:
        The parsed payload, or None when the file does not exist.
    """
    path = bench_path(name, bench_dir)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def load_baseline(name: str, baselines_dir: Path = BASELINES_DIR) -> Optional[Dict[str, Any]]:
    """Read one pinned baseline (all tiers).

    Args:
        name: benchmark name.
        baselines_dir: directory the baselines live in.

    Returns:
        Tier -> pinned entry mapping, or None when nothing is pinned.
    """
    path = baseline_path(name, baselines_dir)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def _known_names(bench_dir: Path, baselines_dir: Path) -> List[str]:
    names = {p.stem[len("BENCH_"):] for p in bench_dir.glob("BENCH_*.json")}
    names.update(p.stem for p in baselines_dir.glob("*.json"))
    return sorted(names)


def check(
    names: Optional[Sequence[str]] = None,
    tier: Optional[str] = None,
    bench_dir: Path = REPO_ROOT,
    baselines_dir: Path = BASELINES_DIR,
) -> Tuple[int, List[str]]:
    """Gate every emitted BENCH payload against its pinned baseline.

    Args:
        names: benchmark names to check; None checks every name with both
            an emitted payload and a pinned baseline.
        tier: only check payloads of this tier (``smoke``/``full``); a
            payload whose tier has no pinned entry is skipped (reported).
        bench_dir: directory the BENCH files live in.
        baselines_dir: directory the baselines live in.

    Returns:
        ``(compared, failures)``: how many metric comparisons ran, and one
        line per regression.
    """
    failures: List[str] = []
    compared = 0
    for name in names or _known_names(bench_dir, baselines_dir):
        current = load_bench(name, bench_dir)
        if current is None:
            if names:
                failures.append(f"{name}: no BENCH_{name}.json emitted")
            continue
        if tier is not None and current.get("tier") != tier:
            print(f"[gate] {name}: tier {current.get('tier')!r} != {tier!r}, skipped")
            continue
        baseline = load_baseline(name, baselines_dir)
        entry = baseline.get(current.get("tier", "")) if baseline else None
        if entry is None:
            print(f"[gate] {name}: no {current.get('tier')!r} baseline pinned, skipped")
            continue
        gated = [k for k, r in current.get("metrics", {}).items() if r.get("gate")]
        compared += len(gated)
        failures.extend(compare_metrics(current, entry))
        print(f"[gate] {name} ({current.get('tier')}): {len(gated)} gated metrics compared")
    return compared, failures


def pin(
    names: Optional[Sequence[str]] = None,
    bench_dir: Path = REPO_ROOT,
    baselines_dir: Path = BASELINES_DIR,
) -> List[str]:
    """Adopt the current BENCH payloads as the pinned baselines.

    Each payload is pinned under its own tier, preserving other tiers
    already in the baseline file.

    Args:
        names: benchmark names to pin; None pins every emitted payload.
        bench_dir: directory the BENCH files live in.
        baselines_dir: directory the baselines are written into.

    Returns:
        The names actually pinned.
    """
    baselines_dir.mkdir(exist_ok=True)
    pinned: List[str] = []
    for name in names or sorted(
        p.stem[len("BENCH_"):] for p in bench_dir.glob("BENCH_*.json")
    ):
        current = load_bench(name, bench_dir)
        if current is None:
            continue
        baseline = load_baseline(name, baselines_dir) or {}
        baseline[current.get("tier", "full")] = {
            "pinned_from_schema": current.get("schema"),
            "metrics": current.get("metrics", {}),
        }
        baseline_path(name, baselines_dir).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        pinned.append(name)
    return pinned


def render(
    names: Optional[Sequence[str]] = None,
    bench_dir: Path = REPO_ROOT,
    results_dir: Path = RESULTS_DIR,
) -> List[str]:
    """Regenerate ``results/*.txt`` from the emitted JSON payloads.

    Args:
        names: benchmark names to render; None renders every payload.
        bench_dir: directory the BENCH files live in.
        results_dir: directory the text tables are written into.

    Returns:
        The results-file stems rendered.
    """
    rendered: List[str] = []
    for name in names or sorted(
        p.stem[len("BENCH_"):] for p in bench_dir.glob("BENCH_*.json")
    ):
        payload = load_bench(name, bench_dir)
        if payload is None:
            continue
        rendered.extend(render_tables(payload, results_dir))
    return rendered


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``check`` / ``pin`` / ``render``).

    Args:
        argv: argument vector; None uses ``sys.argv[1:]``.

    Returns:
        Process exit code (1 when the gate trips, else 0).
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("check", "pin", "render"):
        p = sub.add_parser(command)
        p.add_argument("names", nargs="*", help="benchmark names (default: all)")
        if command == "check":
            p.add_argument("--tier", choices=("smoke", "full"), default=None)
    args = parser.parse_args(argv)

    if args.command == "check":
        compared, failures = check(args.names or None, tier=args.tier)
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if failures:
            return 1
        if compared == 0:
            print("[gate] nothing compared (no emitted payloads with pinned baselines)")
        else:
            print(f"[gate] OK: {compared} gated metric(s) within tolerance")
        return 0
    if args.command == "pin":
        pinned = pin(args.names or None)
        print(f"pinned: {', '.join(pinned) if pinned else '(nothing)'}")
        return 0
    rendered = render(args.names or None)
    print(f"rendered: {', '.join(rendered) if rendered else '(nothing)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark perf-regression gate must trip on degraded metrics.

Loads ``benchmarks/harness.py`` directly (the benchmarks directory is not
a package) and exercises the full JSON round trip against temp
directories: emit -> pin -> degrade -> gate failure.  This is the unit
proof behind CI's ``python benchmarks/harness.py check`` step.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

HARNESS_PATH = Path(__file__).parent.parent / "benchmarks" / "harness.py"
spec = importlib.util.spec_from_file_location("bench_harness", HARNESS_PATH)
harness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness)


@pytest.fixture
def dirs(tmp_path):
    bench_dir = tmp_path / "bench"
    baselines_dir = tmp_path / "baselines"
    results_dir = tmp_path / "results"
    bench_dir.mkdir()
    baselines_dir.mkdir()
    return bench_dir, baselines_dir, results_dir


def _emit(bench_dir, results_dir, tier="smoke", **overrides):
    run = harness.BenchRun("demo", tier=tier)
    run.metric("ops_per_sec", overrides.get("ops_per_sec", 100.0),
               direction="higher", tolerance=0.05)
    run.metric("p99_latency_s", overrides.get("p99_latency_s", 2.0),
               direction="lower", tolerance=0.05)
    run.metric("sla_violation_rate", overrides.get("sla_violation_rate", 0.0),
               direction="lower", abs_tolerance=0.02)
    run.metric("wall_clock_s", overrides.get("wall_clock_s", 1.0),
               direction="lower", gate=False)
    run.table("demo", "Demo table", ["a", "b"], [[1, 2]])
    return run.finish(bench_dir=bench_dir, quiet=True, results_dir=results_dir)


class TestGate:
    def test_round_trip_within_tolerance_passes(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        assert harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir) == ["demo"]
        # Re-emit with values inside every margin.
        _emit(bench_dir, results_dir, ops_per_sec=97.0, p99_latency_s=2.05,
              sla_violation_rate=0.01)
        compared, failures = harness.check(
            bench_dir=bench_dir, baselines_dir=baselines_dir, tier="smoke"
        )
        assert compared == 3
        assert failures == []

    def test_gate_trips_on_degraded_higher_is_better_metric(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        _emit(bench_dir, results_dir, ops_per_sec=80.0)  # -20% > 5% tolerance
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert len(failures) == 1
        assert "ops_per_sec" in failures[0] and "regressed" in failures[0]

    def test_gate_trips_on_degraded_lower_is_better_metric(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        _emit(bench_dir, results_dir, p99_latency_s=2.5)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert len(failures) == 1
        assert "p99_latency_s" in failures[0]

    def test_abs_tolerance_floors_near_zero_baselines(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)  # sla_violation_rate pinned at 0.0
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        # Within the 0.02 absolute floor: no failure despite a 0.0 pin.
        _emit(bench_dir, results_dir, sla_violation_rate=0.015)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert failures == []
        _emit(bench_dir, results_dir, sla_violation_rate=0.05)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert len(failures) == 1 and "sla_violation_rate" in failures[0]

    def test_ungated_metrics_never_trip(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        _emit(bench_dir, results_dir, wall_clock_s=100.0)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert failures == []

    def test_tier_mismatch_is_skipped_not_compared(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir, tier="full")
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        compared, failures = harness.check(
            bench_dir=bench_dir, baselines_dir=baselines_dir, tier="smoke"
        )
        assert compared == 0 and failures == []

    def test_gated_metric_missing_from_baseline_is_hard_failure(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        # A new gated metric appears after the pin: it must not slip
        # through the gate silently, and the failure names the fix.
        run = harness.BenchRun("demo", tier="smoke")
        run.metric("ops_per_sec", 100.0, direction="higher", tolerance=0.05)
        run.metric("p99_latency_s", 2.0, direction="lower", tolerance=0.05)
        run.metric("sla_violation_rate", 0.0, direction="lower", abs_tolerance=0.02)
        run.metric("brand_new_metric", 1.0, direction="higher", tolerance=0.05)
        run.finish(bench_dir=bench_dir, quiet=True, results_dir=results_dir)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert len(failures) == 1
        assert "brand_new_metric" in failures[0]
        assert "missing from the pinned baseline" in failures[0]
        assert "harness.py pin demo" in failures[0]

    def test_ungated_metric_missing_from_baseline_is_fine(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        run = harness.BenchRun("demo", tier="smoke")
        run.metric("ops_per_sec", 100.0, direction="higher", tolerance=0.05)
        run.metric("p99_latency_s", 2.0, direction="lower", tolerance=0.05)
        run.metric("sla_violation_rate", 0.0, direction="lower", abs_tolerance=0.02)
        run.metric("informational_only", 7.0, gate=False)
        run.finish(bench_dir=bench_dir, quiet=True, results_dir=results_dir)
        _, failures = harness.check(bench_dir=bench_dir, baselines_dir=baselines_dir)
        assert failures == []

    def test_pin_preserves_other_tiers(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir, tier="smoke")
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        _emit(bench_dir, results_dir, tier="full", ops_per_sec=500.0)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)
        baseline = harness.load_baseline("demo", baselines_dir=baselines_dir)
        assert set(baseline) == {"smoke", "full"}
        assert baseline["smoke"]["metrics"]["ops_per_sec"]["value"] == 100.0
        assert baseline["full"]["metrics"]["ops_per_sec"]["value"] == 500.0


class TestArtefacts:
    def test_payload_schema_and_speedup_vs_baseline(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        _emit(bench_dir, results_dir)
        harness.pin(bench_dir=bench_dir, baselines_dir=baselines_dir)

        run = harness.BenchRun("demo", tier="smoke")
        run.metric("ops_per_sec", 120.0, direction="higher", tolerance=0.05)
        run.metric("p99_latency_s", 1.0, direction="lower", tolerance=0.05)
        run.attach_counters({"b": 2.0, "a": 1.0})
        run.attach_trace({"stages": {}, "critical_path": {}})
        # finish() consults the repo-default baselines dir, so compute the
        # baseline comparison explicitly against the temp pin.
        payload = run.finish(bench_dir=bench_dir, quiet=True, results_dir=results_dir)
        assert payload["schema"] == harness.SCHEMA_VERSION
        assert payload["name"] == "demo" and payload["tier"] == "smoke"
        assert payload["counters"] == {"a": 1.0, "b": 2.0}
        assert payload["trace"]["stages"] == {}
        on_disk = json.loads((bench_dir / "BENCH_demo.json").read_text())
        assert on_disk["metrics"]["ops_per_sec"]["value"] == 120.0

        baseline = harness.load_baseline("demo", baselines_dir=baselines_dir)
        ratios = harness.speedups_vs_baseline(
            payload["metrics"], baseline["smoke"]["metrics"]
        )
        assert ratios["ops_per_sec"] == pytest.approx(1.2)  # 120 / 100
        assert ratios["p99_latency_s"] == pytest.approx(2.0)  # 2.0 / 1.0

    def test_results_txt_rendered_from_json(self, dirs):
        bench_dir, baselines_dir, results_dir = dirs
        payload = _emit(bench_dir, results_dir)
        text = (results_dir / "demo.txt").read_text()
        assert text.startswith("Demo table\n")
        assert "a" in text and "1" in text
        # Mutate the JSON and re-render: the txt follows the JSON.
        payload["tables"][0]["title"] = "Renamed"
        harness.render_tables(payload, results_dir=results_dir)
        assert (results_dir / "demo.txt").read_text().startswith("Renamed\n")

    def test_metric_rejects_unknown_direction(self):
        run = harness.BenchRun("demo")
        with pytest.raises(ValueError, match="direction"):
            run.metric("x", 1.0, direction="sideways")

"""Exporter sinks: JSONL rendering, bounded buffers, determinism."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.export import JsonlExporter
from repro.telemetry.registry import MetricsRegistry


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("served").inc(3)
    registry.gauge("load").set(0.5)
    registry.histogram("latency_s").record(1.0)
    return registry.snapshot()


class TestJsonlExporter:
    def test_export_is_one_json_object_per_line(self):
        exporter = JsonlExporter()
        exporter.export(_snapshot())
        exporter.export(_snapshot())
        assert len(exporter.lines) == 2
        for line in exporter.lines:
            assert "\n" not in line
            record = json.loads(line)
            assert record["counters"]["served"] == 3.0
            assert record["gauges"]["load"] == 0.5
            assert record["histograms"]["latency_s"]["count"] == 1

    def test_field_order_is_deterministic(self):
        exporter = JsonlExporter()
        exporter.write({"b": 1, "a": {"z": 1, "y": 2}})
        exporter.write({"a": {"y": 2, "z": 1}, "b": 1})
        assert exporter.lines[0] == exporter.lines[1]
        assert exporter.lines[0].index('"a"') < exporter.lines[0].index('"b"')

    def test_capacity_bounds_the_buffer(self):
        exporter = JsonlExporter(capacity=2)
        for i in range(5):
            exporter.write({"i": i})
        assert [json.loads(line)["i"] for line in exporter.lines] == [3, 4]

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            JsonlExporter(capacity=0)
        unbounded = JsonlExporter(capacity=None)
        for i in range(600):
            unbounded.write({"i": i})
        assert len(unbounded.lines) == 600

    def test_text_property_is_a_jsonl_document(self):
        exporter = JsonlExporter()
        exporter.write({"a": 1})
        exporter.write({"b": 2})
        parsed = [json.loads(line) for line in exporter.text.splitlines()]
        assert parsed == [{"a": 1}, {"b": 2}]

    def test_non_serialisable_values_fall_back_to_str(self):
        class Odd:
            def __str__(self):
                return "odd!"

        exporter = JsonlExporter()
        exporter.write({"value": Odd()})
        assert json.loads(exporter.lines[0])["value"] == "odd!"

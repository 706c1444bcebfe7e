"""The columnar span store: bulk writes, the read-only view, column readers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import Deployment
from repro.api.spec import DeploymentSpec, TelemetrySpec
from repro.serving import Tenant
from repro.serving.endpoints import synthesize_traffic
from repro.serving.loop import ServingWorkload
from repro.telemetry import Span, SpanTable, Tracer, summarize_trace
from repro.telemetry.console import build_frames


def _one_at_a_time() -> SpanTable:
    """Two requests' spans (one rejected) opened through ``start_span``."""
    tracer = Tracer()
    tracer.event("chaos.node_failure", 0.5, trace_id="chaos-1", target="n0")
    root = tracer.start_span("request", 1.0, "r1", tenant="acme")
    gateway = tracer.start_span("request.gateway", 1.0, "r1", parent=root)
    rejected = tracer.start_span("request", 1.5, "r2", tenant="zen")
    rejected.annotate("terminal", True)
    rejected.end(1.5, verdict="rejected_rate_limit")
    gateway.end(2.0)
    wait = tracer.start_span("request.batch_wait", 2.0, "r1", parent=root)
    wait.end(2.5, batch_id="b0")
    root.annotate("terminal", True)
    root.end(4.0, verdict="completed", task_id="b0", deadline_met=True)
    return tracer.drain()


def _in_bulk() -> SpanTable:
    """The same spans, the request family written in bulk."""
    tracer = Tracer()
    tracer.event("chaos.node_failure", 0.5, trace_id="chaos-1", target="n0")
    ids = tracer.open_spans(
        ("request", "request.gateway", "request.batch_wait"),
        np.array([0, 1, 0, 2]),
        ("r1", "r2"),
        np.array([0, 0, 1, 0]),
        np.array([1.0, 1.0, 1.5, 2.0]),
        np.array([-1, 0, -1, 0]),
    )
    tracer.annotate_spans(ids[[0, 2]], tenant=(np.array([0, 1]), ("acme", "zen")))
    one = (np.zeros(1, dtype=np.int64), (True,))
    rejected = (np.zeros(1), ("rejected_rate_limit",))
    tracer.close_spans(ids[[2]], [1.5], terminal=one, verdict=rejected)
    tracer.close_spans(ids[[1]], [2.0])
    tracer.close_spans(ids[[3]], [2.5], batch_id=(np.zeros(1), ("b0",)))
    tracer.close_spans(
        ids[[0]],
        [4.0],
        terminal=one,
        verdict=(np.zeros(1), ("completed",)),
        task_id=(np.zeros(1), ("b0",)),
        deadline_met=(np.ones(1), (None, True, False)),
    )
    return tracer.drain()


def test_bulk_writes_match_spans_opened_one_at_a_time():
    one_by_one, bulk = _one_at_a_time(), _in_bulk()
    assert [s.to_dict() for s in bulk] == [s.to_dict() for s in one_by_one]
    assert bulk == one_by_one
    assert bulk[1].to_dict() == {
        "name": "request",
        "span_id": 1,
        "trace_id": "r1",
        "parent_id": None,
        "start_s": 1.0,
        "end_s": 4.0,
        "annotations": {
            "tenant": "acme",
            "terminal": True,
            "verdict": "completed",
            "task_id": "b0",
            "deadline_met": True,
        },
    }
    assert summarize_trace(bulk) == summarize_trace(one_by_one)


def test_close_spans_refuses_bad_ends_and_changes_nothing():
    tracer = Tracer()
    ids = tracer.open_spans(("task",), np.zeros(2, int), ("t",), np.zeros(2, int),
                            np.array([1.0, 2.0]), np.full(2, -1))
    with pytest.raises(ValueError, match="before it started"):
        tracer.close_spans(ids, [3.0, 1.0], verdict=(np.zeros(2), ("x",)))
    with pytest.raises(ValueError, match="before it started"):
        tracer.close_spans(ids[:1], [float("nan")])
    table = tracer.drain()
    assert [s.end_s for s in table] == [None, None]
    assert [s.annotations for s in table] == [{}, {}]

    tracer = Tracer()
    ids = tracer.open_spans(("task",), np.zeros(1, int), ("t",), np.zeros(1, int),
                            np.array([1.0]), np.full(1, -1))
    tracer.close_spans(ids, [2.0])
    with pytest.raises(ValueError, match="ended twice"):
        tracer.close_spans(ids, [3.0])
    tracer.drain()
    with pytest.raises(ValueError, match="since the last drain"):
        tracer.annotate_spans(ids, verdict=(np.zeros(1), ("x",)))


def test_drained_table_is_a_read_only_sequence():
    table = _one_at_a_time()
    assert len(table) == 5 and table
    assert [s.span_id for s in table] == [0, 1, 2, 3, 4]
    assert table[-1].name == "request.batch_wait"
    assert [s.name for s in table[1:3]] == ["request", "request.gateway"]
    with pytest.raises(IndexError):
        table[5]
    with pytest.raises(TypeError, match="read-only"):
        table[1].annotate("k", "v")
    with pytest.raises(TypeError, match="read-only"):
        table[0].end(9.0)
    with pytest.raises(TypeError):
        table[0] = table[1]
    with pytest.raises(ValueError):
        table.starts[0] = 9.0
    # An annotations dict is a copy: changing it leaves the span as it was.
    table[1].annotations["tenant"] = "other"
    assert table[1].annotations["tenant"] == "acme"
    assert Tracer().drain() == [] and SpanTable.of([]) == ()


def test_column_readers():
    table = _in_bulk()
    assert table.names[table.name_codes[1]] == "request"
    assert np.isnan(table.ends).sum() == 0
    rows = np.flatnonzero(table.name_codes == table.code_of("request"))
    assert table.annotation("tenant", rows) == ["acme", "zen"]
    assert table.annotation("deadline_met", rows, default="none") == [True, "none"]
    assert table.annotation("target", np.arange(len(table)))[0] == "n0"
    assert table.code_of("task.migrate") == -1
    copy = SpanTable.of(list(table))
    assert copy == table and copy is not table and SpanTable.of(table) is table


def test_a_span_built_alone_is_its_own_table():
    span = Span("task", 7, "t1", 1.0, parent_id=3)
    span.annotate("node", "n1").end(2.0, verdict="completed")
    assert span.to_dict()["annotations"] == {"node": "n1", "verdict": "completed"}
    assert span.span_id == 7 and span.parent_id == 3 and span.duration_s == 1.0


def _traced_report():
    spec = DeploymentSpec.preset("single")
    spec = dataclasses.replace(spec, telemetry=TelemetrySpec(enabled=True, tracing=True))
    deployment = Deployment.from_spec(spec)
    tenants = (Tenant(name="a", rate_limit_rps=4.0, burst=4), Tenant(name="b"))
    mix = {"a": {"smartmirror": 1.0}, "b": {"smartmirror": 1.0}}
    requests = synthesize_traffic(tenants, mix, offered_rps=12.0, duration_s=20.0, seed=3)
    workload = ServingWorkload(tenants=tenants, requests=requests)
    return deployment, workload


def test_reading_a_traced_report_builds_no_span(monkeypatch):
    deployment, workload = _traced_report()
    stream = deployment.serve_iter(workload, tick_s=2.0)  # serves at once
    built = []
    original = Span._at.__func__

    def counting(cls, table, row):
        built.append(row)
        return original(cls, table, row)

    monkeypatch.setattr(Span, "_at", classmethod(counting))
    ticks = list(stream)
    report = deployment.last_report
    assert len(report.trace_spans) > 3 * report.admitted
    assert report.summary()["trace"]["span_count"] == len(report.trace_spans)
    build_frames(ticks, deployment.backend.topology(), report.trace_spans)
    assert built == []
    # Column readers and span objects agree.
    spans = list(report.trace_spans)
    assert summarize_trace(spans) == report.trace_summary()
    assert build_frames(ticks, deployment.backend.topology(), spans) == build_frames(
        ticks, deployment.backend.topology(), report.trace_spans
    )

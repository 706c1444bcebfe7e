"""Property tests (hypothesis): trace well-formedness on real serving runs.

Rather than testing the tracer on synthetic span sequences, these
properties drive the actual serving pipeline (gateway -> batcher ->
discrete-event simulator) under arbitrary workloads and pin the
invariants the observability layer promises:

* every offered request yields exactly one terminal root span, with a
  verdict consistent with the serving report's accounting;
* no span ends before it starts, every span is closed by run end, and
  child spans nest inside their parents' intervals;
* the span-name multiset is conserved across replays -- the array-native
  hot path must be deterministic in the trace, not just in the report.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.scheduler.modeling import ProfilingCampaign
from repro.serving import BatchPolicy, RequestGateway, ServingLoop, Tenant
from repro.serving.gateway import ServingRequest
from repro.telemetry import Tracer, TraceSummary, summarize_trace
from repro.telemetry.trace import REQUEST_STAGES, TASK_STAGES, _stage_stats

#: learned models fitted once; every example replays on a fresh cluster.
MODELS = ProfilingCampaign(Cluster.heats_testbed(scale=1), seed=7).run().fit()

BATCH_POLICY = BatchPolicy(max_batch_size=4, max_delay_s=1.0)

#: tight limits so hypothesis finds workloads with real rejections.
TENANTS = [
    Tenant(name="alpha", rate_limit_rps=3.0, burst=4, energy_weight=0.3),
    Tenant(name="beta", rate_limit_rps=3.0, burst=4, energy_weight=0.7),
]

KINDS = (WorkloadKind.MEMORY_BOUND, WorkloadKind.SCALAR, WorkloadKind.STREAMING)

workload_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=28),  # request count
    st.floats(min_value=2.0, max_value=12.0),  # arrival window seconds
)


def _requests(seed: int, count: int, duration_s: float):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, duration_s, count))
    return [
        ServingRequest(
            request_id=f"r{index:04d}",
            tenant=TENANTS[index % len(TENANTS)].name,
            use_case=f"uc{index % 3}",
            arrival_s=float(arrival),
            workload=KINDS[index % 3],
            gops=float(rng.uniform(5.0, 40.0)),
            cores=int(rng.choice([1, 2])),
            memory_gib=float(rng.choice([1.0, 2.0, 4.0])),
        )
        for index, arrival in enumerate(arrivals)
    ]


def _traced_run(requests):
    tracer = Tracer(enabled=True)
    loop = ServingLoop(
        Cluster.heats_testbed(scale=1),
        HeatsScheduler(MODELS),
        RequestGateway(TENANTS),
        batch_policy=BATCH_POLICY,
        tracer=tracer,
    )
    report = loop.run(requests)
    assert tracer.span_count == 0, "loop must drain its tracer into the report"
    return report


@given(workload_params)
@settings(max_examples=25, deadline=None)
def test_every_offered_request_has_exactly_one_terminal_root(params):
    seed, count, duration_s = params
    requests = _requests(seed, count, duration_s)
    report = _traced_run(requests)
    roots = [span for span in report.trace_spans if span.name == "request"]

    # Exactly one root per offered request, keyed by request id.
    assert sorted(span.trace_id for span in roots) == sorted(
        request.request_id for request in requests
    )
    verdicts = Counter()
    for root in roots:
        assert root.ended
        assert root.annotations.get("terminal") is True
        verdicts[root.annotations["verdict"]] += 1

    # Verdict counts reconcile exactly with the report's accounting.
    assert verdicts.get("completed", 0) == report.completed
    assert verdicts.get("dropped", 0) == report.dropped
    rejected = sum(
        count for verdict, count in verdicts.items() if verdict.startswith("rejected")
    )
    assert rejected == report.rejected
    assert sum(verdicts.values()) == report.offered


@given(workload_params)
@settings(max_examples=25, deadline=None)
def test_spans_are_closed_ordered_and_nested(params):
    seed, count, duration_s = params
    requests = _requests(seed, count, duration_s)
    report = _traced_run(requests)
    spans = report.trace_spans
    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans), "span ids must be unique"

    for span in spans:
        # A finished run leaves nothing open, and time never runs backwards.
        assert span.ended, f"span {span!r} left open at run end"
        assert span.end_s >= span.start_s
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert span.start_s >= parent.start_s - 1e-9
            assert span.end_s <= parent.end_s + 1e-9


@given(workload_params)
@settings(max_examples=10, deadline=None)
def test_span_counts_conserved_across_replays(params):
    """Two fresh runs of the same stream must trace identically -- the
    determinism soak that retired the legacy ``fast_path=False`` A/B
    comparison when the scan paths were deleted."""
    seed, count, duration_s = params
    requests = _requests(seed, count, duration_s)
    first = _traced_run(requests)
    second = _traced_run(requests)

    first_names = Counter(span.name for span in first.trace_spans)
    second_names = Counter(span.name for span in second.trace_spans)
    assert first_names == second_names

    def terminal_verdicts(report):
        return sorted(
            (span.trace_id, span.annotations["verdict"])
            for span in report.trace_spans
            if span.name in ("request", "task") and span.annotations.get("verdict")
        )

    assert terminal_verdicts(first) == terminal_verdicts(second)


def _reference_summary(spans):
    """The span-by-span walk ``summarize_trace`` replaced, kept as its oracle."""
    durations_by_stage = {}
    verdicts = {}
    open_spans = 0
    by_trace = {}
    request_roots = []
    for span in spans:
        if not span.ended:
            open_spans += 1
            continue
        durations_by_stage.setdefault(span.name, []).append(span.duration_s)
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.name == "request" and span.annotations.get("terminal"):
            request_roots.append(span)
            verdict = str(span.annotations.get("verdict", "unknown"))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1

    path_totals = {}
    grand_total = 0.0
    for root in request_roots:
        if root.annotations.get("verdict") != "completed":
            continue
        total = root.duration_s
        grand_total += total
        covered = 0.0
        task_id = root.annotations.get("task_id")
        linked = by_trace.get(task_id, []) if task_id is not None else []
        for stages, trace in ((REQUEST_STAGES, by_trace.get(root.trace_id, [])),
                              (TASK_STAGES, linked)):
            for span in trace:
                if span.name in stages:
                    path_totals[span.name] = path_totals.get(span.name, 0.0) + span.duration_s
                    covered += span.duration_s
        remainder = total - covered
        if remainder > 1e-9:
            path_totals["other"] = path_totals.get("other", 0.0) + remainder

    critical_path = {}
    if grand_total > 0.0:
        critical_path = {
            stage: total / grand_total for stage, total in path_totals.items() if total > 0.0
        }
    return TraceSummary(
        stages={
            name: _stage_stats(name, np.asarray(durations))
            for name, durations in durations_by_stage.items()
        },
        critical_path=critical_path,
        verdicts=verdicts,
        span_count=len(spans),
        open_spans=open_spans,
    )


@given(workload_params)
@settings(max_examples=15, deadline=None)
def test_columnar_summary_matches_the_span_walk_on_serving_runs(params):
    report = _traced_run(_requests(*params))
    assert report.trace_summary() == _reference_summary(list(report.trace_spans))


#: one synthetic span: name, trace, start, duration (None: left open),
#: and the root annotations terminal, verdict and task_id.
synthetic_spans = st.lists(
    st.tuples(
        st.sampled_from(("request",) + REQUEST_STAGES + ("task",) + TASK_STAGES
                        + ("autoscale.grow_node",)),
        st.sampled_from(["r0", "r1", "r2", "t0", "t1"]),
        st.floats(min_value=-1.0, max_value=50.0),
        st.one_of(st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
        st.sampled_from([None, True, False]),
        st.sampled_from([None, "completed", "dropped", "rejected_rate_limit"]),
        st.sampled_from([None, "t0", "t1", "r1", "ghost"]),
    ),
    max_size=40,
)


@given(synthetic_spans)
@settings(max_examples=200, deadline=None)
def test_columnar_summary_matches_the_span_walk_on_any_trace(specs):
    """Shared task traces, open spans, stray verdicts and zero-length stages."""
    tracer = Tracer()
    for name, trace, start, duration, terminal, verdict, task_id in specs:
        notes = {key: value for key, value in (
            ("terminal", terminal), ("verdict", verdict), ("task_id", task_id)
        ) if value is not None}
        span = tracer.start_span(name, start, trace, **notes)
        if duration is not None:
            span.end(start + duration)
    table = tracer.drain()
    assert summarize_trace(table) == _reference_summary(list(table))

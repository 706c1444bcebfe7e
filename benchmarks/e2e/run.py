"""End-to-end benchmark: the host cost of ``Deployment.serve`` on four workloads.

Run from the repository root (see ``README.md`` for the metrics)::

    python3 benchmarks/e2e/run.py --workload flash_crowd --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1

One process drives a closed loop: the next serve call starts when the
previous one returns.  Each trial collects garbage, runs the calibration
probe (``calibrate.py``), builds a fresh ``Deployment``, times its serve
calls and runs the probe again.  After one untimed warm-up, trials repeat
until ``--seconds`` have passed (at least ``MIN_TRIALS``).  Every call's report is checked for request conservation,
for the workload's own property and, through a digest, for determinism.
With ``--trace 1``, three more trials run with every layer's public calls
wrapped (``layers.py``) and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (serve calls checked, and how many
failed a check) and ``metrics``, each named in ``BENCHMARK.json`` with its
unit.  The full results, the machine fingerprint and the spans of a traced
run are written under ``--out``.  The exit code is 0 only if every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from calibrate import CAL_REF_S, calibrate  # noqa: E402
from layers import Recorder, layer_metrics  # noqa: E402
from repro.api import Deployment  # noqa: E402
from repro.scenarios import ScenarioSpec, conservation_violations  # noqa: E402
from workloads import WORKLOADS, Prepared, prepare  # noqa: E402

#: fewest timed trials per run, however short ``--seconds`` is.
MIN_TRIALS = 5
#: trials of the traced pass.
TRACE_TRIALS = 3
#: threads of numeric libraries in the per-workload child processes.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


@dataclass
class Trial:
    """What one trial measured and found."""

    #: mean time of the calibration probe just before and just after.
    cal_s: float = 0.0
    setup_s: float = 0.0
    serve_s: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: per serve call, every check it failed.
    problems: List[List[str]] = field(default_factory=list)
    offered: int = 0
    #: rejected plus dropped requests, over all calls.
    lost: int = 0
    p99_latency_s: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that turns this trial's raw times into calibrated ones."""
        return CAL_REF_S / self.cal_s


def report_digest(report) -> str:
    """sha256 of everything a rerun of the same input must reproduce."""
    summary = report.summary()
    summary.pop("trace", None)
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True, default=str).encode())
    digest.update(np.asarray(report.latencies_s, dtype=float).tobytes())
    digest.update(np.asarray(report.completions_s, dtype=float).tobytes())
    return digest.hexdigest()


def check_call(prepared: Prepared, item, report, outcome) -> List[str]:
    """Every check one serve call's output fails (empty when correct)."""
    problems = []
    workload = outcome.workload if outcome is not None else item
    if report.offered != len(workload.requests):
        problems.append(
            f"offered {report.offered} != generated {len(workload.requests)}"
        )
    for label, counts in [("overall", report), *report.tenant_reports.items()]:
        if counts.offered != counts.completed + counts.rejected + counts.dropped:
            problems.append(f"{label}: offered != completed + rejected + dropped")
        if counts.admitted != counts.completed + counts.dropped:
            problems.append(f"{label}: admitted != completed + dropped")
    if outcome is not None:
        problems.extend(conservation_violations(outcome))
    problems.extend(prepared.check(report, outcome))
    return problems


def run_trial(
    prepared: Prepared,
    recorder: Optional[Recorder] = None,
    reports: Optional[list] = None,
) -> Trial:
    """Build a fresh deployment and time each of its serve calls.

    Args:
        prepared: the workload.
        recorder: the active span recorder of a traced trial, if any.
        reports: when given, every call's report is appended to it.

    Returns:
        The trial's timings and check results.
    """
    gc.collect()
    trial = Trial()
    probe_before = calibrate()
    start = time.perf_counter()
    deployment = Deployment.from_spec(prepared.spec)
    trial.setup_s = time.perf_counter() - start
    for item in prepared.calls:
        with recorder.serving() if recorder is not None else nullcontext():
            start = time.perf_counter()
            if isinstance(item, ScenarioSpec):
                outcome = deployment.run_scenario(item)
                report = outcome.report
            else:
                outcome = None
                report = deployment.serve(item)
            trial.serve_s.append(time.perf_counter() - start)
        trial.digests.append(report_digest(report))
        trial.problems.append(check_call(prepared, item, report, outcome))
        trial.offered += report.offered
        trial.lost += report.rejected + report.dropped
        trial.p99_latency_s.append(report.p99_latency_s)
        if reports is not None:
            reports.append(report)
    trial.cal_s = (probe_before + calibrate()) / 2
    return trial


def tally(reference: Sequence[str], trials: Sequence[Trial]) -> Tuple[int, int, List[str]]:
    """Count checked and failed serve calls, digests included.

    Args:
        reference: the warm-up trial's per-call digests.
        trials: the trials to judge.

    Returns:
        (calls attempted, calls failed, every problem found).
    """
    attempted = failed = 0
    problems: List[str] = []
    for number, trial in enumerate(trials):
        for index, (digest, found) in enumerate(zip(trial.digests, trial.problems)):
            attempted += 1
            if digest != reference[index]:
                found = [*found, "report digest differs from the warm-up's"]
            if found:
                failed += 1
                problems.extend(f"trial {number} call {index}: {p}" for p in found)
    return attempted, failed, problems


def median_serve_s(trials: Sequence[Trial], calibrated: bool = True) -> float:
    """Median over trials of a trial's total serve time."""
    return statistics.median(
        sum(t.serve_s) * (t.scale if calibrated else 1.0) for t in trials
    )


def call_ms(trials: Sequence[Trial], q: float, calibrated: bool = True) -> float:
    """Percentile ``q`` of single serve-call times, in milliseconds."""
    times = [
        seconds * (t.scale if calibrated else 1.0) for t in trials for seconds in t.serve_s
    ]
    return float(np.percentile(times, q)) * 1e3


def fingerprint(cal_ms: float) -> Dict[str, object]:
    """The machine a result was measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cal_ms_median": cal_ms,
    }


def load_benchmark() -> dict:
    """The benchmark's definition: workloads, metrics and run length."""
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def run_one(args: argparse.Namespace, benchmark: dict) -> dict:
    """Measure and check one workload.

    Returns:
        The result object for the last output line.
    """
    prepared = prepare(args.workload, args.seed, quick=args.quick)
    warmup = run_trial(prepared)
    reference = warmup.digests
    trials: List[Trial] = []
    started = time.perf_counter()
    while (
        len(trials) < args.trials
        if args.trials
        else len(trials) < MIN_TRIALS or time.perf_counter() - started < args.seconds
    ):
        trials.append(run_trial(prepared))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    offered = statistics.median(t.offered for t in trials)
    values: Dict[str, float] = {
        "host_rps": offered / median_serve_s(trials),
        "serve_ms_p50": call_ms(trials, 50),
        "setup_s": statistics.median(t.setup_s * t.scale for t in trials),
        "peak_rss_mib": peak_rss_mib,
        "bench.cal_ms": statistics.median(t.cal_s for t in trials) * 1e3,
        "bench.raw_host_rps": offered / median_serve_s(trials, calibrated=False),
        "bench.raw_serve_ms_p50": call_ms(trials, 50, calibrated=False),
        "bench.serve_ms_p90": call_ms(trials, 90),
        "bench.serve_ms_p99": call_ms(trials, 99),
        "sim.failed_share": warmup.lost / warmup.offered,
        "sim.p99_latency_s": statistics.fmean(warmup.p99_latency_s),
    }
    checked = list(trials)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        reports: list = []
        traced: List[Trial] = []
        with Recorder() as recorder:
            for _ in range(TRACE_TRIALS):
                traced.append(run_trial(prepared, recorder, reports))
        serve_ns = [int(s * 1e9) for t in traced for s in t.serve_s]
        values.update(layer_metrics(recorder, serve_ns, reports))
        values["bench.trace_overhead_x"] = median_serve_s(traced) / median_serve_s(trials)
        checked.extend(traced)
        # One span file per workload, overwritten: they run to 15 MB.
        recorder.write(args.out / f"{args.workload}-spans.jsonl.gz")
    attempted, failed, problems = tally(reference, checked)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in benchmark[section]
    }
    digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    with open(args.out / f"{stem}{'-trace' if args.trace else ''}.json", "w") as out:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "quick": args.quick,
                "report_digest": digest,
                "machine": fingerprint(values["bench.cal_ms"]),
                "values": values,
                "trials": [
                    {"cal_s": t.cal_s, "setup_s": t.setup_s, "serve_s": t.serve_s}
                    for t in trials
                ],
                "problems": problems,
            },
            out,
            indent=1,
        )

    print(f"workload {args.workload}  seed {args.seed}  trials {len(trials)} "
          f"(+1 warm-up{f', +{TRACE_TRIALS} traced' if args.trace else ''})  "
          f"calls/trial {len(prepared.calls)}")
    print(f"report_digest {digest}")
    print(f"host_rps {values['host_rps']:.1f} req/s (raw {values['bench.raw_host_rps']:.1f})  "
          f"serve_ms_p50 {values['serve_ms_p50']:.3f} ms "
          f"(raw {values['bench.raw_serve_ms_p50']:.3f})  "
          f"cal_ms {values['bench.cal_ms']:.2f}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """Run every workload in its own single-threaded child, one at a time."""
    env = {**os.environ, **SINGLE_THREADED}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        if args.trials:
            command += ["--trials", str(args.trials)]
        if args.quick:
            command.append("--quick")
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # the child died before its result
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv: Optional[Sequence[str]], benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; equal seeds give equal inputs")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long to keep timing trials")
    parser.add_argument("--trials", type=int, default=0,
                        help="time exactly this many trials instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "e2e",
                        help="directory for the results JSON and span files")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the benchmark; returns the process exit code."""
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args, benchmark)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

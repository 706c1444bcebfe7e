"""Self-test of the end-to-end benchmark at ``--quick`` sizes (a few seconds)."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

import run
from repro.api import Deployment
from workloads import WORKLOADS, prepare


def _snapshot(root) -> dict:
    """Size and mtime of every file outside hidden and cache directories."""
    files = {}
    for directory, subdirectories, names in os.walk(root):
        subdirectories[:] = [
            d for d in subdirectories if not d.startswith(".") and d != "__pycache__"
        ]
        for name in names:
            stat = os.stat(os.path.join(directory, name))
            files[os.path.join(directory, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, tmp_path, capsys):
    benchmark = run.load_benchmark()
    before = _snapshot(run.ROOT)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", workload, "--quick", "--trials", "2",
                         "--trace", str(trace), "--out", str(tmp_path)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
            entry["name"]: entry["unit"] for entry in benchmark[section]
        }
    assert (tmp_path / f"{workload}-spans.jsonl.gz").is_file()
    assert _snapshot(run.ROOT) == before


def test_checks_trip_on_a_corrupted_digest_and_broken_conservation():
    prepared = prepare("flash_crowd", seed=1, quick=True)
    trial = run.run_trial(prepared)
    assert run.tally(trial.digests, [trial]) == (1, 0, [])
    attempted, failed, problems = run.tally(["0" * 64], [trial])
    assert (attempted, failed) == (1, 1) and "digest" in problems[0]

    item = prepared.calls[0]
    report = Deployment.from_spec(prepared.spec).serve(item)
    assert run.check_call(prepared, item, report, None) == []
    broken = replace(report, completed=report.completed - 1)
    assert any("offered != completed" in p
               for p in run.check_call(prepared, item, broken, None))

"""The ``bench`` fixture writes into the repository only under ``--emit``.

A plain ``pytest`` run must not rewrite the committed ``BENCH_*.json``
artefacts or ``benchmarks/results/*.txt`` tables.  This runs a one-metric
benchmark through the real fixtures (both conftest files, copied into a
scratch tree so the probe test stays out of the suite) in a child pytest,
then checks where its artefacts landed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"

PROBE = '''
def test_probe(bench):
    run = bench("fixture_probe")
    run.metric("ops_per_sec", 1.0, direction="higher")
    run.table("fixture_probe", "probe", ["a"], [[1]])
'''


def _tracked_artefacts():
    paths = sorted(REPO.glob("BENCH_*.json")) + sorted((BENCHMARKS / "results").glob("*"))
    return {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
        if path.is_file()
    }


def test_plain_run_leaves_repository_artefacts_untouched(tmp_path):
    tree = tmp_path / "tree"
    (tree / "benchmarks").mkdir(parents=True)
    shutil.copy(REPO / "conftest.py", tree / "conftest.py")
    shutil.copy(BENCHMARKS / "conftest.py", tree / "benchmarks" / "conftest.py")
    (tree / "benchmarks" / "test_probe.py").write_text(PROBE)
    basetemp = tmp_path / "basetemp"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(BENCHMARKS), env.get("PYTHONPATH", "")]
    )

    before = _tracked_artefacts()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tree), "--basetemp", str(basetemp),
         str(tree / "benchmarks" / "test_probe.py")],
        cwd=tree, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr

    assert _tracked_artefacts() == before
    assert not (REPO / "BENCH_fixture_probe.json").exists()
    assert not (BENCHMARKS / "results" / "fixture_probe.txt").exists()
    written = sorted(p.relative_to(basetemp) for p in basetemp.rglob("*fixture_probe*"))
    assert [p.name for p in written] == ["BENCH_fixture_probe.json", "fixture_probe.txt"]

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and records
its headline numbers through :mod:`harness` (see ``benchmarks/harness.py``):
the JSON artefact ``BENCH_<name>.json`` is the source of truth, and the
``benchmarks/results/*.txt`` tables are rendered from it.  Runs started
with ``--emit`` write both into the repository (the artefact at its root),
where ``python benchmarks/harness.py check`` gates the emitted numbers
against the pinned baselines in ``benchmarks/baselines/``; plain runs
write them to a temporary directory and leave the tracked files alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, Tuple

import pytest

from harness import REPO_ROOT, RESULTS_DIR, BenchRun, format_table  # noqa: F401


@pytest.fixture
def smoke(request) -> bool:
    """Whether the run was started with ``--smoke`` (reduced benchmark load)."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture(scope="session")
def bench_dirs(request, tmp_path_factory) -> Tuple[Path, Path]:
    """``(bench_dir, results_dir)`` the benchmark artefacts are written to.

    The repository root and ``benchmarks/results/`` under ``--emit``;
    otherwise one temporary directory shared by the whole session.
    """
    if request.config.getoption("--emit"):
        return REPO_ROOT, RESULTS_DIR
    scratch = tmp_path_factory.mktemp("bench")
    return scratch, scratch / "results"


@pytest.fixture
def bench(request, smoke, bench_dirs):
    """Factory for :class:`harness.BenchRun` records, finished at teardown.

    Usage::

        def test_bench_x(bench):
            run = bench("core_speed")
            run.metric("ops_per_sec", 123.0, direction="higher")
            run.table("core_speed", "Table 1: ...", headers, rows)

    Each named run writes ``BENCH_<name>.json`` and renders its tables
    into :func:`bench_dirs` when the test finishes.  The run's tier is
    ``smoke`` or ``full`` depending on ``--smoke``.
    """
    runs = []

    def _bench(name: str) -> BenchRun:
        run = BenchRun(name, tier="smoke" if smoke else "full")
        runs.append(run)
        return run

    yield _bench
    bench_dir, results_dir = bench_dirs
    for run in runs:
        run.finish(bench_dir=bench_dir, quiet=False, results_dir=results_dir)


@pytest.fixture
def report_table(bench):
    """Print a reproduced table and persist it (JSON-backed).

    Back-compat shim over the ``bench`` fixture: tables recorded here ride
    along in a ``BENCH_<name>.json`` artefact and are rendered to
    ``benchmarks/results/<name>.txt`` from it.
    """

    def _report(
        name: str,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> str:
        run = bench(name)
        return run.table(name, title, headers, rows)

    return _report

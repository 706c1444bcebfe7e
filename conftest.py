"""Repo-root pytest configuration.

Registers two benchmark flags:

* ``--smoke``, which CI's docs job uses to run the heavier benchmarks (the
  federation shard sweep in particular) at a reduced load so regressions
  in the federation path fail fast without paying the full benchmark cost;
* ``--emit``, which lets benchmark runs rewrite the committed
  ``BENCH_*.json`` artefacts and ``benchmarks/results/*.txt`` tables.
  Without it they write to a temporary directory, so a plain ``pytest``
  run leaves the tracked files untouched.

It also registers the hypothesis ``ci`` profile (``--hypothesis-profile=ci``):
derandomized examples and no per-example deadline, so the property suites
replay the same cases on every run and a slow shared runner cannot flake
them.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)


def pytest_addoption(parser):
    """Register the repo-wide ``--smoke`` and ``--emit`` benchmark flags."""
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run benchmarks in smoke mode: reduced load/repeats, same assertions",
    )
    parser.addoption(
        "--emit",
        action="store_true",
        default=False,
        help="write BENCH_*.json and benchmarks/results/*.txt into the repository "
        "(default: a temporary directory)",
    )

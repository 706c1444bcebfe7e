"""The benchmark's own workload checks hold on seeds where they once failed.

``benchmarks/e2e/workloads.py`` gives each workload a ``check`` that the
property it was chosen for shows in the output.  On ``elastic_chaos`` it
asks that both chaos events applied and that the autoscaler both scaled
up and shrank.  Seeds 5 and 19 (full size) failed it with "chaos
thermal_throttle never applied": the autoscaler shrank the throttle's
target, an original node, while grown nodes were still busy.  The
benchmark is imported read-only, as ``test_e2e_digests.py`` does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api import Deployment

E2E_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

from workloads import prepare  # noqa: E402


@pytest.mark.parametrize("seed", [5, 19])
def test_elastic_chaos_checks_hold_at_full_size(seed):
    prepared = prepare("elastic_chaos", seed)
    deployment = Deployment.from_spec(prepared.spec)
    for scenario in prepared.calls:
        outcome = deployment.run_scenario(scenario)
        assert prepared.check(outcome.report, outcome) == []

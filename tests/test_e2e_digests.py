"""Every end-to-end workload's reports, pinned across commits by sha256.

The reference oracles compare the serving code with a slow copy of
itself, so a change that alters both (or the simulator they share) passes
them.  This test runs each workload of ``benchmarks/e2e/`` at its
``--quick`` size for seeds 1-3 through the benchmark's own ``prepare`` and
``run_trial`` (imported read-only, as ``test_e2e_targets.py`` does) and
compares every serve call's ``report_digest`` with the digests recorded
before the change: a behaviour change between commits fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

#: per (workload, seed), one digest per serve call of a ``--quick`` trial.
DIGESTS = {
    ("flash_crowd", 1): ["67316f0cdfb920440297d5d6feeca1a35478f745bee8cec2cbf6d1b2fba51d6b"],
    ("flash_crowd", 2): ["a15fae9c9ecdc2908ed9f594923afda8b1bc2fec84c4fae0ac5edeb2d2749121"],
    ("flash_crowd", 3): ["4248a8787a930d527fe854c16503ba04d8466880ead394b3f6091cf0b1a6bafd"],
    ("federated_poisson", 1): [
        "0deaf3d8452a26d4899b6159769316395e135f3247bdc45004e23bf67fc52dad"
    ],
    ("federated_poisson", 2): [
        "844255198b22c41a86e8516fcf788cd300a55ea237aa3ea1422dd72ab03f7c02"
    ],
    ("federated_poisson", 3): [
        "24b1f66e308d959eb50ded66c190f59ff34e930b0a818eeb18902cb6101a0da1"
    ],
    ("warm_sweep", 1): [
        "1cf8744dedd91dea78e2a5f68715dc747be922d2363a320eda7fc219fdaf908c",
        "36121f6480c64efee259e90f3dc3efb82f5a6ed170c2327f9b6749207ea47386",
        "8de0d174adc2e5b8134e4bdca17cd3f188bdb4664163009b9295713843bc2fb3",
        "d9597d2a4e833773099eb7b42a63567013dbc46e18cd7f26e65a836c59d39cd3",
    ],
    ("warm_sweep", 2): [
        "a79c4e1d1380cd61065cb696db3f8ccc7cc71918cbbf6ebc5e1666f6d12809c3",
        "17d8ca3b9e4f982930e16b3dddcd779189eb5ca2ee61929e166ca356c1396070",
        "b80e7afc1bb5419cd25a91b6b336bd7350717188a85b4714d53bffb6bef39650",
        "c2f0fd7747e4b24688d3295b12db37fa814fdca2aa082f8087784a056adc5111",
    ],
    ("warm_sweep", 3): [
        "e0848ccfc415968d611722965fa7a8f1a988d1be57593f4749ac5274084305a4",
        "3b4320490b2d86e71716885c7f7bfef98ee06da63a14616b50fe91c8f47c4536",
        "d796230e72f4b072cdbd1772f93558847ae4963f5bf152165c391164020c3565",
        "ecf7f679a6936e29a4a9e78e8d3a4aa88768776314db2295baa81ea5aa6bcfe0",
    ],
    ("elastic_chaos", 1): ["d886bd149b653154041a4f0d763ad8289b08e86ac27f0cc06e1b7be4a75c64e3"],
    ("elastic_chaos", 2): ["de3335d7e8dabfa42b93fbe83f2aebc395b558301b9f7cd3493f2eaa7a1c9741"],
    ("elastic_chaos", 3): ["1226c78adef86bf9d44513bde603f7d50e09bb631afa944bfb289773779766c0"],
}


def test_every_workload_is_pinned():
    assert {workload for workload, _ in DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize(
    "workload, seed", sorted(DIGESTS), ids=[f"{w}-{s}" for w, s in sorted(DIGESTS)]
)
def test_quick_reports_match_the_recorded_digests(workload, seed):
    trial = run.run_trial(prepare(workload, seed, quick=True))
    assert trial.problems == [[]] * len(trial.digests)
    assert trial.digests == DIGESTS[(workload, seed)]

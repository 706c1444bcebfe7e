"""Every end-to-end workload's trace spans, pinned across commits by sha256.

``report_digest`` drops the trace from the summary, so a change to how
spans are recorded passes ``test_e2e_digests.py`` even if it alters them.
This test runs each workload of ``benchmarks/e2e/`` at its ``--quick``
size for seeds 1-3 with tracing turned on (``dataclasses.replace`` of the
spec's telemetry section; ``benchmarks/e2e`` is imported read-only) and
compares, per serve call, a sha256 over every span's ``to_dict()`` JSON in
order, and one over the report's trace summary, with the hashes recorded
before the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.api import Deployment
from repro.api.spec import TelemetrySpec
from repro.scenarios import ScenarioSpec

E2E_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

from workloads import WORKLOADS, prepare  # noqa: E402

#: per (workload, seed), one (spans, trace summary) sha256 pair per serve
#: call of a traced ``--quick`` trial.
PINS = {
    ("flash_crowd", 1): [
        ("f7919c69dc0ef20282115ac57fedb73157aa1c4f15a9c84f78468110bf9dbcbb",
         "f19ccdff656cecc81904e39acabd5964b40fc143fd84624d8d71dc8e0474cee4"),
    ],
    ("flash_crowd", 2): [
        ("c705073edcf430a87ef9fc9ffbe24dbccfd9f05c6b1c41bd73497d76a5dec2ec",
         "ca0cf207a838f54e55cac4235d0b17532601f42cb09bcdec0c5f1ee5ee6d5d9c"),
    ],
    ("flash_crowd", 3): [
        ("003419b8e840fb9811a04fdede47cfaa09ec40dcd7582a6e87aedc62388dcd83",
         "5dd23e8becea0782d2951fa44116a7aaafc959384dc4776feb1fc40f224c60f8"),
    ],
    ("federated_poisson", 1): [
        ("a052e572a8e132387deae2fea1415fb8140d0a63dfa2b72550dea928a7d769c8",
         "9aa4f183f0581efa3187b81212bf9ba0418f82ce76b93e5bb169f2477411e52b"),
    ],
    ("federated_poisson", 2): [
        ("8abadf0750bace7cf257904a14bca2362bd9d6555fd87a4fb34b8cf496a103a5",
         "1eb6d60b2730865a254ec4025c8547e4c6c7c95ea23b7be2b92b1b2659b9ae9a"),
    ],
    ("federated_poisson", 3): [
        ("f6e6b459285626ee6018048d367f02026f0de04856cf045484eed02b0bc3831c",
         "f517d7ac8e017a4fc90311464fc907c45006064c4bef463831447171a02204d8"),
    ],
    ("warm_sweep", 1): [
        ("5e453b4dba7dee096fa9b2aa184c8f0894db60be02787e85118ac5d6a6855122",
         "d660b43d38283f17f66ace69212474e833ea95bc36ee4ec790bf5011722fa8c1"),
        ("dd8b5610cedc5b4f6bf0fab22d7a975e99e5a9de87ea21ebf34905764acf74d7",
         "3f5f988d9a18f88f0caf230e25a2274edb60c1d0060c070c3dd053fe2bf48fd8"),
        ("6ec84d210fd989796a5195e0fc55ca566ac80732a56dd6b49416cf1605b64675",
         "83ad3ca28e0257f6df5db65dffb734cb6899d16d3ae90a524a1857735c4de148"),
        ("85e64ac550ea6129287dca544f1fee4e602e4492914eab6eee4e0f9054a7c25f",
         "9fe69cb8889ded9fc5e19d9d9ec1a2160e6fd83b7cedd1b3ecc31e0945759173"),
    ],
    ("warm_sweep", 2): [
        ("d7ce92de7027aefd3d6e74fcc6ffb824bc8ca3fea1182a814f7d976eb0a89dca",
         "42fdb5d7e59efb2c24114377dda056ac22440ba574fe10c941431be99f7dcd46"),
        ("8888fe440dda5825608fe01a3dec36eb27f5e12cf6a25a2b2b2e80a96802a77f",
         "08bc39884ff568bb336b73e8a25b074ff1b750f5a8fa7faecba250f9b4e1ac24"),
        ("3827f029727968c459ae0649da3f1dc20c4df351eb30682ec5698209cf3a3067",
         "10ffac3cd73e24bb8810ab67b60eb9041cdbcf1d276c0f751dcea5b51fc14a93"),
        ("8e26fedd25e2f1b70e91375154fb8d5f8d9b5c2c55133b7e240d9c55757ccab3",
         "fe3243b9e90f654cbe7a353f4e842a2803003d9d2cf2fc03ded78e1ced4d1791"),
    ],
    ("warm_sweep", 3): [
        ("300e7b021076a73be9f87544021d389eb6ab76d6e65ee8547c3e3796607ae118",
         "e4e394cff4dc42bb5bc1c9bbc298e88546ff9ed91a86c28f5e0956dbb54c9693"),
        ("faf155e6310f8a712d4b868be0919f8deeb7f0504aa1810cd1796a89be11b48f",
         "135917dc7a6169c904dab405a90b6e3c66eef5ba2a6327be74c31c90ae27c26b"),
        ("66b7dd0fd51d72deb50fa08acf97e50cd91feb20c0abcc50eb4e03846f2baad3",
         "f345d177241aa29fa49d2950958329342c55159b8e3f517931a7659f290c2093"),
        ("60c12a54219b2a198e6b08ea4df9b9d972b548a4b4720840321520ea0d820d57",
         "e606e21f25ea5f0891169729bd69ecc7d6a112c7db37e0f4d72186611997473d"),
    ],
    ("elastic_chaos", 1): [
        ("4aa395050f1a2f48bf9f01a5275506d232d4b4ccc12d1255fd7859dd7c8c7310",
         "5071f154128e5ddfcfb92080829cb3988173626700f9ae85fbd07a1b951a01c4"),
    ],
    ("elastic_chaos", 2): [
        ("a5b0cf19bab833b44722932fcde24a7181b3b57360722c717c3d9625f23372fe",
         "22cf96dc288115946aa7585b3e3882e9e60bf5222a5de66b651eeb8d917e619f"),
    ],
    ("elastic_chaos", 3): [
        ("9377172c60d641cc85ed05ba2a1d00a03d99ace966a7a305aa2d4576dd01ecd4",
         "d1b0c675c1dfa5e09bd31bfca0dc427028a87a9658eb2831caf4d5f2d9cbd4a8"),
    ],
}


def traced_pins(workload: str, seed: int) -> List[Tuple[str, str]]:
    """Serve one traced ``--quick`` trial; hash each call's spans and trace summary."""
    prepared = prepare(workload, seed, quick=True)
    spec = dataclasses.replace(
        prepared.spec, telemetry=TelemetrySpec(enabled=True, tracing=True)
    )
    deployment = Deployment.from_spec(spec)
    pins = []
    for item in prepared.calls:
        if isinstance(item, ScenarioSpec):
            report = deployment.run_scenario(item).report
        else:
            report = deployment.serve(item)
        spans = hashlib.sha256()
        for span in report.trace_spans:
            spans.update(json.dumps(span.to_dict()).encode())
            spans.update(b"\n")
        summary = json.dumps(report.summary()["trace"], sort_keys=True).encode()
        pins.append((spans.hexdigest(), hashlib.sha256(summary).hexdigest()))
    return pins


def test_every_workload_is_pinned():
    assert {workload for workload, _ in PINS} == set(WORKLOADS)


@pytest.mark.parametrize(
    "workload, seed", sorted(PINS), ids=[f"{w}-{s}" for w, s in sorted(PINS)]
)
def test_traced_spans_match_the_recorded_pins(workload, seed):
    assert traced_pins(workload, seed) == PINS[(workload, seed)]

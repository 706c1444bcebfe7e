"""Known bug: a grown node is missing from the scheduler's node index.

``Federation.grow_node`` records the new node in the union cluster's
node -> shard map (``FederatedCluster``) but not in the scheduler's own
map (``FederatedScheduler._node_shard``).  So the scheduler cannot name a
grown node's shard, and retiring a shard that holds one fails with a
``KeyError`` halfway through: the scheduler has already dropped the shard
while the union cluster still holds its nodes.

Both tests are strict xfails.  Syncing the two indices changes the
simulated trajectory of autoscaled runs that grow nodes, so the fix is a
behaviour change of its own; when it lands these tests start passing,
the strict marker fails the suite, and the markers come off with it.
"""

from __future__ import annotations

import pytest

from repro.api import Deployment, DeploymentSpec, TopologySpec

known_bug = pytest.mark.xfail(
    strict=True,
    raises=KeyError,
    reason="grow_node does not register the node in FederatedScheduler._node_shard",
)


@pytest.fixture
def grown():
    """A 2-shard federation whose second shard grew one node."""
    deployment = Deployment.from_spec(
        DeploymentSpec(topology=TopologySpec(cluster_scale=2, shards=2))
    )
    federation = deployment.backend.federation
    shard = federation.shards[1].name
    node = federation.grow_node(shard, "arm64-server")
    return federation, shard, node


@known_bug
def test_scheduler_knows_grown_node_shard(grown):
    federation, shard, node = grown
    assert federation.scheduler.shard_of_node(node) == shard


@known_bug
def test_finalize_drain_removes_shard_with_grown_node(grown):
    federation, shard, node = grown
    federation.begin_drain(shard)
    assert federation.finalize_drain(shard) is not None
    assert [s.name for s in federation.shards] == [federation.shards[0].name]
    assert node not in {n.name for n in federation.cluster.nodes}

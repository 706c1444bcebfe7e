"""Shrinking a shard undoes its elastic growth before touching its build nodes.

``Federation.shrink_node(shard)`` picks the node to give up.  While the
shard holds grown nodes (recorded on ``ClusterShard.grown`` by
``grow_node`` and dropped by ``release_node``), only those may go, the
latest grown first; when every grown node is busy the shard does not
shrink at all.  Before this rule the pick was the last idle node in the
capacity index, which could be one of the shard's original nodes while
grown ones were still busy -- an autoscaler that did so retired the node
a chaos scenario was about to throttle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import Federation


def _grown_twice():
    """One 4-node shard that grew two nodes; returns (federation, shard, old, new)."""
    federation = Federation.build(num_shards=1, shard_scale=1, seed=5)
    shard = federation.shards[0]
    older = federation.grow_node(shard.name, "arm64-server")
    newer = federation.grow_node(shard.name, "xeon-d-x86")
    return federation, shard, older, newer


def _names(shard):
    return [node.name for node in shard.cluster]


def test_grown_nodes_are_recorded_oldest_first():
    federation, shard, older, newer = _grown_twice()
    assert shard.grown == [older, newer]
    assert shard.grown_nodes == 2


def test_latest_grown_node_goes_first_then_the_older_then_the_build_nodes():
    federation, shard, older, newer = _grown_twice()
    build = [name for name in _names(shard) if name not in (older, newer)]
    assert federation.shrink_node(shard.name) == newer
    assert federation.shrink_node(shard.name) == older
    assert shard.grown == []
    # With no grown node left, the last idle build node goes.
    assert federation.shrink_node(shard.name) == build[-1]


def test_a_busy_grown_node_protects_the_idle_build_nodes():
    federation, shard, older, newer = _grown_twice()
    federation.cluster.node(older).reserve("t-old", 1, 0.5)
    federation.cluster.node(newer).reserve("t-new", 1, 0.5)
    before = _names(shard)
    assert federation.shrink_node(shard.name) is None
    assert _names(shard) == before


def test_an_idle_older_grown_node_goes_while_the_newer_one_is_busy():
    federation, shard, older, newer = _grown_twice()
    federation.cluster.node(newer).reserve("t-new", 1, 0.5)
    assert federation.shrink_node(shard.name) == older
    assert shard.grown == [newer]
    assert federation.shrink_node(shard.name) is None


def test_removing_a_named_grown_node_drops_it_from_the_record():
    federation, shard, older, newer = _grown_twice()
    assert federation.shrink_node(shard.name, older) == older
    assert shard.grown == [newer]
    assert older not in federation.cluster


@given(
    st.lists(
        st.tuples(st.sampled_from(["grow", "shrink", "busy", "free"]), st.integers(0, 9)),
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_no_build_node_goes_while_a_grown_node_remains(steps):
    federation = Federation.build(num_shards=1, shard_scale=1, seed=5)
    shard = federation.shards[0]
    build = set(_names(shard))
    grown = []
    busy = set()
    for kind, pick in steps:
        names = _names(shard)
        if kind == "grow":
            grown.append(federation.grow_node(shard.name, "arm64-server"))
        elif kind == "shrink":
            removed = federation.shrink_node(shard.name)
            if grown:
                idle_grown = [name for name in grown if name not in busy]
                assert removed == (idle_grown[-1] if idle_grown else None)
                if removed is not None:
                    grown.remove(removed)
            elif removed is not None:
                assert removed in build and removed not in busy
        elif kind == "busy" and names[pick % len(names)] not in busy:
            name = names[pick % len(names)]
            federation.cluster.node(name).reserve(f"t-{name}", 1, 0.1)
            busy.add(name)
        elif kind == "free" and busy:
            name = sorted(busy)[pick % len(busy)]
            federation.cluster.node(name).release(f"t-{name}")
            busy.discard(name)
        assert shard.grown == grown
        assert set(_names(shard)) - build == set(grown)

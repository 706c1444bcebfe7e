"""Federated multi-cluster scheduling: many HEATS shards, one scheduler.

PR 1's serving front-end still landed every request on a single cluster;
this package adds the layer above it the ROADMAP north star asks for:

* :mod:`repro.federation.policy`     -- shard profiles (regional energy
  price), federation tunables, and the cheap aggregate shard score.
* :mod:`repro.federation.shard`      -- :class:`ClusterShard`: one member
  cluster with its own HEATS scheduler, profiling seed, config copy, and
  prediction-score cache.
* :mod:`repro.federation.federation` -- :class:`FederatedScheduler`
  (two-level placement, tenant affinity, cross-shard migration),
  :class:`FederatedCluster` (the union view the simulator drives), and
  the :class:`Federation` (topology plus routing) that a deployment spec
  with ``topology.shards > 1`` builds behind ``LegatoSystem().deploy``.
"""

from repro.federation.policy import (
    DEFAULT_SHARD_PROFILES,
    FederationConfig,
    ShardProfile,
    ShardScore,
    score_shards,
)
from repro.federation.shard import ClusterShard
from repro.federation.federation import (
    FederatedCluster,
    FederatedScheduler,
    Federation,
    FederationStats,
)

__all__ = [
    "ClusterShard",
    "DEFAULT_SHARD_PROFILES",
    "FederatedCluster",
    "FederatedScheduler",
    "Federation",
    "FederationConfig",
    "FederationStats",
    "ShardProfile",
    "ShardScore",
    "score_shards",
]

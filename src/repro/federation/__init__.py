"""Federated multi-cluster scheduling: many HEATS shards, one scheduler.

A single-cluster deployment lands every request on one HEATS cluster;
this package adds the layer above it:

* :mod:`repro.federation.policy`     -- shard profiles (regional energy
  price), federation tunables, and the cheap aggregate shard score.
* :mod:`repro.federation.shard`      -- :class:`ClusterShard`: one member
  cluster with its own HEATS scheduler, profiling seed, config copy, and
  prediction-score cache.
* :mod:`repro.federation.federation` -- :class:`FederatedScheduler`
  (two-level placement, tenant affinity, cross-shard migration) and the
  :class:`Federation` (topology plus routing) that a deployment spec with
  ``topology.shards > 1`` builds behind ``LegatoSystem().deploy``.  The
  federation's union cluster, the view the simulator drives, is a plain
  :class:`~repro.scheduler.cluster.Cluster` over the shards' nodes.
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
    FederatedScheduler,
    Federation,
    FederationStats,
)

__all__ = [
    "ClusterShard",
    "DEFAULT_SHARD_PROFILES",
    "FederatedScheduler",
    "Federation",
    "FederationConfig",
    "FederationStats",
    "ShardProfile",
    "ShardScore",
    "score_shards",
]

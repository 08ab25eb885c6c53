"""Horizontal scale-out: sharded proxy workers over one shared cache.

See docs/CLUSTER.md for the operational story (sharding key, spill-over
rules, invalidation bus, fleet metrics) and docs/REGIONS.md for the
disk tier (:mod:`repro.cluster.snapshotstore`) the multi-region
deployment builds on.
"""

from repro.cluster.deployment import ClusterDeployment
from repro.cluster.rollup import fleet_rollup, merge_unique
from repro.cluster.router import (
    ShardRouter,
    request_shard_key,
    shard_key,
    spread,
)
from repro.cluster.sharedcache import (
    InProcessSharedCache,
    InvalidationBus,
    InvalidationEvent,
)
from repro.cluster.snapshotstore import SnapshotStore
from repro.cluster.worker import ClusterWorker

__all__ = [
    "ClusterDeployment",
    "ClusterWorker",
    "InProcessSharedCache",
    "InvalidationBus",
    "InvalidationEvent",
    "ShardRouter",
    "SnapshotStore",
    "fleet_rollup",
    "merge_unique",
    "request_shard_key",
    "shard_key",
    "spread",
]

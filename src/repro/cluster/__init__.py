"""Sharded multi-server clustering for BRMI (beyond the paper).

N servers own disjoint object sets placed by a stable
:class:`ShardMap`; a :class:`ClusterClient` records one batch program
across them and executes it scatter-gather, splitting at cross-shard
data dependencies.  See DESIGN.md's "cluster/" section for the
placement, split/merge, and failure semantics.
"""

from repro.cluster.client import ClusterClient
from repro.cluster.errors import ShardFailedError
from repro.cluster.shardmap import ShardMap, parse_shard_label, shard_label

__all__ = [
    "ClusterClient",
    "ShardFailedError",
    "ShardMap",
    "parse_shard_label",
    "shard_label",
]

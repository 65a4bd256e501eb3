"""The cluster layer: a router fronting a fleet of analytics shards.

PR 7 splits the server into shard + router layers.  A *shard* is one
:class:`~repro.server.AnalyticsServer` (engine + scheduler + backend);
the :class:`ClusterRouter` owns N of them and adds what only a cluster
can provide:

* predictive placement (:mod:`repro.cluster.placement`) — route each
  query to the shard with the smallest predicted completion time,
  calibrated online from observed latency records;
* cluster-wide tenant quotas with the typed
  :class:`~repro.errors.TenantQuotaError`;
* shard draining/handoff for rolling decommissions with zero lost
  tickets.

See ``docs/architecture.md`` ("Cluster topology") for the full design
and ``examples/cluster_demo.py`` for a runnable tour.
"""

from repro.cluster.placement import (
    PLACEMENT_POLICIES,
    PlacementPolicy,
    PredictivePlacement,
    RoundRobinPlacement,
    make_placement_policy,
)
from repro.cluster.router import ClusterRouter

__all__ = [
    "PLACEMENT_POLICIES",
    "ClusterRouter",
    "PlacementPolicy",
    "PredictivePlacement",
    "RoundRobinPlacement",
    "make_placement_policy",
]

"""Work sharing: dynamic folding of concurrent queries.

Under heavy traffic many in-flight queries scan the same TPC-H tables
and often *are* the same query (dashboards).  This package folds them —
GraftDB-style dynamic folding of concurrent analytical queries — so N
compatible submissions cost one execution:

* :mod:`repro.sharing.fingerprint` — plan normalization: canonical
  content-hashed keys for plans, pipelines and scheduler-level specs;
* :mod:`repro.sharing.fold` — fold bookkeeping: sharing counters, live
  folds on the threaded backend, and the bounded-replay tee channel;
* :mod:`repro.sharing.cache` — the fragment result cache serving
  identical back-to-back queries without executing them.

The layer is opt-in (``AnalyticsServer(sharing=True)`` /
``ClusterRouter(sharing=True)``); with sharing off every execution path
is bit-identical to the unshared code.
"""

from repro.sharing.cache import MISS, FragmentCache
from repro.sharing.fingerprint import (
    fragment_fingerprint,
    pipeline_fingerprint,
    plan_fingerprint,
    spec_fingerprint,
    spec_fragment_fingerprint,
)
from repro.sharing.fold import (
    LiveFold,
    SharingStats,
    TeeChannel,
    max_fold_priority,
)

__all__ = [
    "MISS",
    "FragmentCache",
    "LiveFold",
    "SharingStats",
    "TeeChannel",
    "fragment_fingerprint",
    "max_fold_priority",
    "pipeline_fingerprint",
    "plan_fingerprint",
    "spec_fingerprint",
    "spec_fragment_fingerprint",
]

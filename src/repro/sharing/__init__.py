"""Work sharing: dynamic folding of concurrent queries.

Under heavy traffic many in-flight queries scan the same TPC-H tables
and often *are* the same query (dashboards).  This package folds them —
GraftDB-style dynamic folding of concurrent analytical queries — so N
compatible submissions cost one execution:

* :mod:`repro.sharing.fingerprint` — spec normalization: canonical
  content-hashed keys for the work a query spec describes;
* :mod:`repro.sharing.fold` — the fold coordinator every backend
  calls (attach, detach, completion, overflow and the §3.2 weight
  rule), the sharing counters and the bounded-replay tee;
* :mod:`repro.sharing.cache` — the epoch backends' fragment result
  cache, serving identical back-to-back queries without executing them.

The layer is opt-in (``AnalyticsServer(sharing=True)`` /
``ClusterRouter(sharing=True)``); with sharing off every execution path
is bit-identical to the unshared code.
"""

from repro.sharing.cache import MISS, FragmentCache
from repro.sharing.fingerprint import spec_fingerprint, spec_fragment_fingerprint
from repro.sharing.fold import FoldCoordinator, SharingStats, TeeChannel

__all__ = [
    "MISS",
    "FoldCoordinator",
    "FragmentCache",
    "SharingStats",
    "TeeChannel",
    "spec_fingerprint",
    "spec_fragment_fingerprint",
]

"""What a settled query keeps: the bounded-state ratchet.

A model query never streams a chunk, so once it settled all it keeps is
its ticket state, its record and its (empty) result channel, which is
also its cursor.  The router's submission entry goes at settle, every
job's channel shares the backend's one condition, and no channel holds a
buffer it never used.
"""

import gc
import tracemalloc

from repro.cluster import ClusterRouter
from repro.simcore.rng import RngFactory
from repro.workloads.mixes import tpch_mix
from repro.workloads.phased import Tenant, multi_tenant_workload

#: Retained bytes per settled query (≈ 3 500 before channels went
#: slotted and lazily buffered and router entries began to expire,
#: ≈ 1 140 while a separate cursor object and spill list sat beside
#: each channel).
RETAINED_BYTES_PER_QUERY = 1100


def two_tenant_epoch(seed, seconds=4.0):
    """≈ 250 tiny tagged queries a second from a latency and a bulk tenant."""
    mix = tpch_mix(sf_small=0.02, sf_large=0.08)
    tenants = (
        Tenant("dash", mix, rate=225.0, user_priority=4.0, sla="latency"),
        Tenant("etl", mix, rate=25.0, sla="bulk"),
    )
    return multi_tenant_workload(tenants, seconds, RngFactory(seed))


def run_epoch(router, workload):
    handles = router.submit_workload(workload)
    router.drain()
    return [router.record(handle) for handle in handles]


def test_a_settled_query_retains_little():
    # Traced from the start, so memory freed during the measured epoch
    # (a dict's old table when it grows) counts against it.
    tracemalloc.start()
    try:
        router = ClusterRouter(n_shards=2, n_workers=2, environment="model", seed=3)
        run_epoch(router, two_tenant_epoch(0, 1.0))  # warm: lazily built state
        workload = two_tenant_epoch(1)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        records = run_epoch(router, workload)
        settled = sum(not record.failed for record in records)
        del records
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert settled == len(workload) > 900
    per_query = (after - before) / len(workload)
    assert per_query <= RETAINED_BYTES_PER_QUERY, f"{per_query:.0f} B per query"
    assert router._entries == {}
    backend = router.shards[0].backend
    assert backend._channels
    assert all(
        channel._cond is backend._done for channel in backend._channels.values()
    )

"""A 4-shard analytics cluster with predictive placement.

Run with::

    python examples/cluster_demo.py

A ``ClusterRouter`` fronts four independent ``AnalyticsServer`` shards
(each with its own scheduler and simulated backend in the model
environment, so the whole demo is bit-reproducible).  Two tenants share
the cluster:

* ``dash`` — short interactive dashboard queries in the
  latency-critical SLA class (scheduling weight 4, never shed);
* ``etl`` — heavy extract jobs in the bulk class (weight 1, sheddable).

The router predicts each query's slowdown on every shard from the
in-flight mix (per-weight-class busy horizons, calibrated online from
completed-query records) and places it on the shard with the lowest
predicted latency.  The demo compares that policy against round-robin
on the latency class's tail, then drains a shard mid-workload and shows
the handoff machinery moving its pending queries with zero lost
tickets.
"""

from repro.cluster import ClusterRouter
from repro.metrics import format_table, percentile
from repro.simcore import RngFactory
from repro.workloads import Tenant, multi_tenant_workload, tpch_mix


def tenant_workload(seed=33, duration=4.0):
    tenants = [
        Tenant(
            "dash",
            tpch_mix(sf_small=0.25, sf_large=2.0, p_small=0.75),
            rate=20.0,
            user_priority=4.0,
            sla="latency",
        ),
        Tenant(
            "etl",
            tpch_mix(sf_small=8.0, sf_large=30.0, p_small=0.5),
            rate=3.0,
            sla="bulk",
        ),
    ]
    return multi_tenant_workload(tenants, duration, RngFactory(seed))


def run_cluster(placement):
    router = ClusterRouter(
        n_shards=4,
        scheduler="stride",
        n_workers=2,
        seed=7,
        environment="model",
        placement=placement,
    )
    handles = router.submit_workload(tenant_workload())
    router.drain()
    by_class = {"latency": [], "bulk": []}
    for handle in handles:
        sla = router.tickets.sla_of(int(handle))
        by_class[sla].append(router.record(handle).latency * 1000.0)
    return by_class


def main() -> None:
    rows = []
    for placement in ("round-robin", "predictive"):
        by_class = run_cluster(placement)
        for sla, latencies in sorted(by_class.items()):
            rows.append(
                [
                    placement,
                    sla,
                    len(latencies),
                    percentile(latencies, 50.0),
                    percentile(latencies, 99.0),
                ]
            )
    print(
        format_table(
            ["placement", "class", "completed", "median_ms", "p99_ms"],
            rows,
            title="Predictive vs round-robin placement, 4 shards x 2 workers",
        )
    )

    # Drain a shard mid-workload: its pending queries hand off to the
    # surviving shards (the placement model picks each one's new home)
    # and every ticket still resolves.
    router = ClusterRouter(
        n_shards=4, scheduler="stride", n_workers=2, seed=7,
        environment="model",
    )
    handles = router.submit_workload(tenant_workload())
    victim = router.address_of(handles[0]).shard
    moved = router.drain_shard(victim)
    router.drain()
    lost = sum(1 for h in handles if router.record(h) is None)
    print(
        f"\ndrained shard {victim}: {moved} pending queries handed off, "
        f"{lost} tickets lost, active shards now {router.active_shards()}"
    )


if __name__ == "__main__":
    main()

"""cluster_tenants — many tiny queries through one long-lived router."""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import records_digest
from benchmarks.suite.workloads import Rep

from repro.cluster import ClusterRouter
from repro.metrics.slowdown import percentile

NAME = "cluster_tenants"
WHY = (
    "tiny model queries from two tenants, many epochs on one 4-shard router: "
    "per-query bookkeeping (cluster, server, admission, tickets) weighs most "
    "here, and state that grows with tickets shows"
)

N_SHARDS = 4
N_WORKERS = 2
EPOCH_VIRTUAL_SECONDS = 4.0
#: Per epoch: 9 × 88 ``dash`` queries (≈200 q/s) and 88 ``etl`` (≈20 q/s).
DASH_GROUPS = 9
ETL_GROUPS = 1
BASE_EPOCHS = 5
WARMUP_EPOCH = 1_000_000


def _epoch(seed: int, epoch: int):
    return loadgen.tenant_epoch(
        seed, epoch, DASH_GROUPS, ETL_GROUPS, EPOCH_VIRTUAL_SECONDS
    )


def setup(seed: int, scale: float, tracer):
    router = ClusterRouter(
        n_shards=N_SHARDS,
        environment="model",
        scheduler="tuning",
        n_workers=N_WORKERS,
        placement="predictive",
        tenant_quotas={"etl": 10**6},
    )
    epochs = [_epoch(seed, e) for e in range(loadgen.units(BASE_EPOCHS, scale, 2))]
    handles = router.submit_workload(_epoch(seed, WARMUP_EPOCH))
    router.drain()
    for handle in handles:
        router.record(handle)
    return {"router": router, "epochs": epochs}


def run(ctx, tracer) -> Rep:
    rep = Rep()
    router = ctx["router"]
    epoch_ms = []
    scans = []  # (calls, seconds) of the quota scan after each epoch
    all_records = []
    events = tasks = 0
    latency_class = []
    for workload in ctx["epochs"]:
        with tracer.span("loadgen.epoch"):
            epoch_start = time.perf_counter()
            try:
                handles = router.submit_workload(workload)
            except Exception as exc:  # noqa: BLE001 - no refusal is planned
                rep.attempted += len(workload)
                rep.fail(f"submit refused: {type(exc).__name__}: {exc}")
                continue
            router.drain()
            records = [router.record(handle) for handle in handles]
            epoch_ms.append((time.perf_counter() - epoch_start) * 1e3)
        with tracer.span("loadgen.check"):
            for record in records:
                rep.op(
                    not record.failed and not record.cancelled,
                    f"{record.name}: failed={record.failed} {record.error}",
                )
            all_records.extend(records)
            for shard in router.shards:
                events += shard.backend.last_result.events_processed
                tasks += shard.backend.last_result.tasks_executed
            latency_class = [
                record.latency
                for record, handle in zip(records, handles)
                if router.tickets.sla_of(handle) == "latency"
            ]
            scan = tracer.read("admission.quota_scan")
            scans.append((scan[0], scan[1]))
    rep.wall = sum(epoch_ms) / 1e3

    rep.check(router.pending_count == 0, f"{router.pending_count} tickets pending")
    rep.exact = {
        "virt_latency_class_p99_ms": percentile(latency_class, 99.0) * 1e3,
        "simcore.events": events,
        "core.tasks_executed": tasks,
        "records": records_digest(all_records),
    }
    rep.host = {"queries_per_s": rep.attempted / rep.wall}
    rep.samples = {"op_latency_ms": epoch_ms}
    rep.layer = {
        "cluster.entries_live": len(router.tickets),
        "tickets.live_entries": len(router.tickets)
        + sum(len(shard.tickets) for shard in router.shards),
    }
    if len(scans) >= 2 and scans[0][0]:
        last_calls = scans[-1][0] - scans[-2][0]
        rep.layer["admission.quota_scan_us_first_epoch"] = (
            scans[0][1] / scans[0][0] * 1e6
        )
        rep.layer["admission.quota_scan_us_last_epoch"] = (
            (scans[-1][1] - scans[-2][1]) / last_calls * 1e6 if last_calls else 0.0
        )
    return rep


def teardown(ctx) -> None:
    ctx["router"].shutdown()

"""sharing_overlap — where the sharing layer does real work."""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import check_results, engine_references, read_results
from benchmarks.suite.workloads import Rep, sharing_layer

from repro.server import AnalyticsServer

NAME = "sharing_overlap"
WHY = (
    "Zipf-repeated engine queries with sharing on, a fragment cache smaller than "
    "the working set and periodic invalidation: fingerprint, fold, tee and both "
    "the cache hit and the miss/eviction path"
)

SCALE_FACTOR = 0.01
CACHE_ENTRIES = 4
QUERIES_PER_EPOCH = 60
ARRIVAL_SPACING = 0.001
INVALIDATE_EVERY = 3
BASE_EPOCHS = 9
WARMUP_EPOCH = 1_000_000


def setup(seed: int, scale: float, tracer):
    references = engine_references(loadgen.ENGINE_SHAPES, SCALE_FACTOR)
    server = AnalyticsServer(
        backend="simulated",
        environment="engine",
        scale_factor=SCALE_FACTOR,
        sharing=True,
        sharing_cache_entries=CACHE_ENTRIES,
    )
    for at, name in loadgen.zipf_epoch(seed, WARMUP_EPOCH, 20, ARRIVAL_SPACING):
        server.submit(name, at=at)
    server.drain()
    server.invalidate_sharing_cache()
    epochs = [
        loadgen.zipf_epoch(seed, e, QUERIES_PER_EPOCH, ARRIVAL_SPACING)
        for e in range(loadgen.units(BASE_EPOCHS, scale, 3))
    ]
    return {"server": server, "references": references, "epochs": epochs}


def run(ctx, tracer) -> Rep:
    rep = Rep()
    server, references = ctx["server"], ctx["references"]
    before = server.sharing_stats.as_dict()
    epoch_ms = []
    executed = rows = 0
    for epoch, workload in enumerate(ctx["epochs"]):
        with tracer.span("loadgen.epoch"):
            start = time.perf_counter()
            tickets = [server.submit(name, at=at) for at, name in workload]
            server.drain()
            results = read_results(server, tickets)
            if (epoch + 1) % INVALIDATE_EVERY == 0:
                server.invalidate_sharing_cache()
            epoch_ms.append((time.perf_counter() - start) * 1e3)
        with tracer.span("loadgen.check"):
            names = [name for _, name in workload]
            rows += check_results(rep, names, results, references)
            executed += sum(
                server.record(ticket).cpu_seconds > 0.0 for ticket in tickets
            )
    rep.wall = sum(epoch_ms) / 1e3
    # One operation is one invalidation cycle: its epochs differ (the
    # first after an invalidation misses, the rest hit), cycles do not.
    cycle_ms = [
        sum(epoch_ms[i : i + INVALIDATE_EVERY])
        for i in range(0, len(epoch_ms) - INVALIDATE_EVERY + 1, INVALIDATE_EVERY)
    ]

    rep.check(server.pending_count == 0, f"{server.pending_count} tickets pending")
    rep.layer = sharing_layer(server.sharing_stats.as_dict(), before, rep.attempted)
    rep.layer["engine.rows_out"] = rows
    # Not in ``exact``: the cache is smaller than the working set, its
    # LRU order follows completion order, and in the engine environment
    # completion order follows measured time — so which shapes survive
    # an epoch, and with it every counter, varies a little between runs.
    rep.host = {
        "queries_per_s": rep.attempted / rep.wall,
        "virt_work_saved_frac": 1.0 - executed / rep.attempted,
    }
    rep.samples = {"op_latency_ms": cycle_ms}
    return rep


def teardown(ctx) -> None:
    ctx["server"].shutdown()

"""process_epochs — the only workload that crosses the pipe."""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import check_results, engine_references, read_results
from benchmarks.suite.trace import install_in_worker
from benchmarks.suite.workloads import Rep, sharing_layer

from repro.experiments.pool import get_pool, register_warmup, shutdown_pool
from repro.runtime.process import warm_engine_database
from repro.server import AnalyticsServer

NAME = "process_epochs"
WHY = (
    "process backend on engine queries: the epoch payload, the pool and the "
    "flat-array codecs carry it; worker-side execution is sharing_overlap's "
    "path minus sharing"
)

SCALE_FACTOR = 0.01
DATABASE_SEED = 0
N_WORKERS = 4
#: Per epoch: each of the ten shapes once plus one ``QS`` stream.
PER_SHAPE = 1
STREAMS_PER_EPOCH = 1
ARRIVAL_SPACING = 0.002
BASE_EPOCHS = 6
WARMUP_EPOCH = 1_000_000


def _submit(server, workload):
    return [server.submit(name, at=at) for at, name in workload]


def setup(seed: int, scale: float, tracer):
    shapes = loadgen.ENGINE_SHAPES + (loadgen.STREAM_SHAPE,)
    references = engine_references(shapes, SCALE_FACTOR)
    # Every pool worker generates the database once, at spawn.
    register_warmup(warm_engine_database, SCALE_FACTOR, DATABASE_SEED)
    if tracer.worker_dir is not None:
        register_warmup(install_in_worker, str(tracer.worker_dir))
    start = time.perf_counter()
    # The workers are forked with the originals in place and then wrap
    # them with a tracer of their own.
    with tracer.paused():
        pool = get_pool()
        for future in [pool.submit_call(int, "1") for _ in range(pool.max_workers)]:
            future.result()
    cold_start = time.perf_counter() - start
    server = AnalyticsServer(
        backend="process",
        environment="engine",
        scale_factor=SCALE_FACTOR,
        seed=DATABASE_SEED,
        n_workers=N_WORKERS,
    )
    tickets = _submit(
        server, loadgen.process_epoch(seed, WARMUP_EPOCH, 1, 1, ARRIVAL_SPACING)
    )
    server.drain()
    for ticket in tickets:
        server.result(ticket)
    epochs = [
        loadgen.process_epoch(seed, e, PER_SHAPE, STREAMS_PER_EPOCH, ARRIVAL_SPACING)
        for e in range(loadgen.units(BASE_EPOCHS, scale, 2))
    ]
    return {
        "server": server,
        "references": references,
        "epochs": epochs,
        "cold_start": cold_start,
    }


def run(ctx, tracer) -> Rep:
    rep = Rep()
    server, references = ctx["server"], ctx["references"]
    epoch_ms = []
    rows = tasks = 0
    for workload in ctx["epochs"]:
        with tracer.span("loadgen.epoch"):
            start = time.perf_counter()
            tickets = _submit(server, workload)
            server.drain()
            results = read_results(server, tickets)
            epoch_ms.append((time.perf_counter() - start) * 1e3)
        with tracer.span("loadgen.check"):
            tasks += server.backend.last_tasks_executed
            names = [name for _, name in workload]
            rows += check_results(rep, names, results, references)
    rep.wall = sum(epoch_ms) / 1e3

    rep.check(server.pending_count == 0, f"{server.pending_count} tickets pending")
    rep.host = {"queries_per_s": rep.attempted / rep.wall}
    rep.samples = {"op_latency_ms": epoch_ms}
    rep.layer = sharing_layer(server.sharing_stats.as_dict(), {}, rep.attempted)
    rep.layer.update(
        {
            "engine.rows_out": rows,
            "core.tasks_executed": tasks,
            "process.pool_rebuilds": server.backend.pool_rebuilds,
            "pool.cold_start_s": ctx["cold_start"],
        }
    )
    return rep


def teardown(ctx) -> None:
    ctx["server"].shutdown()
    # Reap the workers so their peak RSS shows in RUSAGE_CHILDREN.
    shutdown_pool()

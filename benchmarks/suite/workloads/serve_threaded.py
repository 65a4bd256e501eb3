"""serve_threaded — real threads, real numpy work, wall-clock latency.

Closed loop throughout.  Phase A: one client submits a burst, drains it
and reads every result, several bursts in a row.  Phase B: one client
keeps two long queries in flight (a ``Q18`` and a ``Q1``, each
resubmitted as it finishes) and probes with short ones, one at a time
(think 2 ms, submit, wait, read).  Then one client consumes ``QS``
streams live, one after the other.  The load generator is a single
thread; the server adds its two worker threads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import (
    check_results,
    engine_references,
    read_results,
    same_result,
)
from benchmarks.suite.workloads import Rep, sharing_layer

from repro.server import AnalyticsServer

NAME = "serve_threaded"
WHY = (
    "threaded backend on engine queries, closed loop: threaded, channel, engine "
    "and GIL/lock contention dominate, simcore idle; short probes under long load"
)

SCALE_FACTOR = 0.01
N_WORKERS = 2
THINK_SECONDS = 0.002
#: Phase A: 2 bursts of 2 of each of the ten shapes; Phase B: 18 of each
#: of the four short shapes (halves of one repetition's probes differ by
#: a third in their medians, so the median wants many); then 3 streams.
BURSTS = 2
BURST_PER_SHAPE = 2
PROBES_PER_SHAPE = 18
STREAMS = 3


def setup(seed: int, scale: float, tracer):
    shapes = loadgen.ENGINE_SHAPES + (loadgen.STREAM_SHAPE,)
    references = engine_references(shapes, SCALE_FACTOR)
    server = AnalyticsServer(
        backend="threaded",
        environment="engine",
        scale_factor=SCALE_FACTOR,
        n_workers=N_WORKERS,
        scheduler="tuning",
    )
    server.start()
    for name in shapes:  # warm every plan once
        ticket = server.submit(name)
        server.wait(ticket)
        server.result(ticket)
    return {
        "server": server,
        "references": references,
        "bursts": [
            loadgen.burst_names(seed, BURST_PER_SHAPE, burst)
            for burst in range(loadgen.units(BURSTS, scale))
        ],
        "shorts": loadgen.probe_names(seed, loadgen.units(PROBES_PER_SHAPE, scale)),
        "streams": loadgen.units(STREAMS, scale),
    }


def _read(rep: Rep, server, ticket, name: str, references) -> int:
    """Read one result, compare it with its reference, return its rows."""
    return check_results(rep, [name], read_results(server, [ticket]), references)


def _bursts(rep: Rep, ctx, tracer) -> None:
    server, references = ctx["server"], ctx["references"]
    rates, overlaps = [], []
    rows = 0
    for names in ctx["bursts"]:
        with tracer.span("loadgen.burst"):
            start = time.perf_counter()
            tickets = [server.submit(name) for name in names]
            server.drain()
            rows += sum(
                _read(rep, server, ticket, name, references)
                for ticket, name in zip(tickets, names)
            )
            wall = time.perf_counter() - start
        cpu = sum(server.record(ticket).cpu_seconds for ticket in tickets)
        rates.append(len(names) / wall)
        overlaps.append(cpu / wall)
    rep.samples["queries_per_s"] = rates
    rep.layer["threaded.cpu_over_wall"] = statistics.median(overlaps)
    rep.layer["engine.rows_out"] = rows


def _closed_loop(rep: Rep, ctx, tracer) -> None:
    server, references = ctx["server"], ctx["references"]
    latencies = []
    max_late = 0.0
    done = 0
    with tracer.span("loadgen.closed_loop"):
        background = [(server.submit(name), name) for name in loadgen.LONG_SHAPES]
        for name in ctx["shorts"]:
            for slot, (ticket, long_name) in enumerate(background):
                if server.poll(ticket) is not None:
                    _read(rep, server, ticket, long_name, references)
                    done += 1
                    background[slot] = (server.submit(long_name), long_name)
            due = time.perf_counter() + THINK_SECONDS
            time.sleep(THINK_SECONDS)
            start = time.perf_counter()
            max_late = max(max_late, start - due)
            ticket = server.submit(name)
            server.wait(ticket)
            _read(rep, server, ticket, name, references)
            latencies.append((time.perf_counter() - start) * 1e3)
        server.drain()
        for ticket, long_name in background:
            _read(rep, server, ticket, long_name, references)
            done += 1
    rep.samples["op_latency_ms"] = latencies
    rep.layer["threaded.bg_queries_done"] = done
    rep.layer["loadgen.max_late_ms"] = max_late * 1e3


def _streams(rep: Rep, ctx, tracer) -> None:
    server = ctx["server"]
    reference = ctx["references"][loadgen.STREAM_SHAPE]
    first_ms, fractions = [], []
    peak_depth = 0
    with tracer.span("loadgen.streams"):
        for _ in range(ctx["streams"]):
            start = time.perf_counter()
            handle = server.submit(loadgen.STREAM_SHAPE)
            first = None
            batches = []
            try:
                for batch in handle:
                    if first is None:
                        first = time.perf_counter() - start
                    batches.append(batch)
            except Exception as exc:  # noqa: BLE001
                rep.op(False, f"stream: {type(exc).__name__}: {exc}")
                continue
            last = time.perf_counter() - start
            server.wait(handle)
            assembled = {
                name: np.concatenate([batch[name] for batch in batches])
                for name in batches[0]
            } if batches else {}
            rep.op(same_result(assembled, reference), "stream: rows differ")
            first_ms.append((first or last) * 1e3)
            fractions.append((first or last) / last)
            peak_depth = max(peak_depth, handle.channel.peak_depth)
    rep.layer["channel.first_batch_ms"] = statistics.median(first_ms) if first_ms else 0.0
    rep.layer["channel.first_batch_frac"] = statistics.median(fractions) if fractions else 0.0
    rep.layer["channel.peak_depth"] = peak_depth


def run(ctx, tracer) -> Rep:
    rep = Rep()
    start = time.perf_counter()
    _bursts(rep, ctx, tracer)
    _closed_loop(rep, ctx, tracer)
    _streams(rep, ctx, tracer)
    rep.wall = time.perf_counter() - start
    server = ctx["server"]
    rep.check(server.pending_count == 0, f"{server.pending_count} tickets never finished")
    rep.layer["threaded.workers"] = N_WORKERS
    rep.layer["threaded.dead_workers"] = server.backend.dead_workers
    rep.layer.update(sharing_layer(server.sharing_stats.as_dict(), {}, rep.attempted))
    return rep


def teardown(ctx) -> None:
    ctx["server"].shutdown()

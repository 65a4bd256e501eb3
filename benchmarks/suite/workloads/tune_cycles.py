"""tune_cycles — what a tuning cycle costs, and whether it helps."""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import records_digest
from benchmarks.suite.workloads import Rep

from repro.experiments.common import ExperimentConfig, measure_isolated_latencies
from repro.metrics.latency import LatencyCollector
from repro.metrics.slowdown import mean_relative_slowdown
from repro.server import AnalyticsServer
from repro.tuning.history import TuningHistory

NAME = "tune_cycles"
WHY = (
    "server.tune() after each bursty model epoch, then a held-out probe with "
    "default and with tuned knobs: tuning (search, compress, history, replay) "
    "does the work, and whether it helps is measured"
)

N_WORKERS = 4
TUNE_BUDGET_SECONDS = 0.05
CYCLES = 3
#: 88 queries per epoch at scale 1.
BASE_GROUPS = 1
PROBE_EPOCH = 2_000_000


def _server() -> AnalyticsServer:
    return AnalyticsServer(
        environment="model", scheduler="tuning", n_workers=N_WORKERS
    )


def _serve(server, workload):
    tickets = [server.submit_spec(spec, at=at) for at, spec in workload]
    server.drain()
    return [server.record(ticket) for ticket in tickets]


def setup(seed: int, scale: float, tracer):
    groups = loadgen.units(BASE_GROUPS, scale)
    epochs = [loadgen.bursty_epoch(seed, e, groups, N_WORKERS) for e in range(CYCLES)]
    probe = loadgen.bursty_epoch(seed, PROBE_EPOCH, groups, N_WORKERS)
    bases = measure_isolated_latencies(
        [spec for _, spec in probe], ExperimentConfig(n_workers=N_WORKERS, seed=0)
    )
    warm = _server()
    _serve(warm, epochs[0][:20])
    warm.shutdown()
    return {"epochs": epochs, "probe": probe, "bases": bases}


def _slowdown(records, bases) -> float:
    collector = LatencyCollector()
    for record in records:
        collector.add(record)
    return mean_relative_slowdown(collector.apply_bases(bases).records)


def run(ctx, tracer) -> Rep:
    rep = Rep()
    server = _server()
    history = TuningHistory()
    cycle_ms = []
    all_records = []
    result = None
    steps = evaluations = verified = 0
    start = time.perf_counter()
    for workload in ctx["epochs"]:
        with tracer.span("loadgen.epoch"):
            records = _serve(server, workload)
        with tracer.span("loadgen.tune"):
            tune_start = time.perf_counter()
            result = server.tune(budget_seconds=TUNE_BUDGET_SECONDS, history=history)
            cycle_ms.append((time.perf_counter() - tune_start) * 1e3)
        with tracer.span("loadgen.check"):
            for record in records:
                rep.op(not record.failed and not record.cancelled, f"{record.name} failed")
            all_records.extend(records)
            rep.check(
                result.budget_steps is not None
                and result.simulated_steps <= result.budget_steps,
                f"tune spent {result.simulated_steps} of {result.budget_steps} steps",
            )
            applied = server.knob_space().current_values()
            rep.check(
                all(applied[name] == value for name, value in result.values.items()),
                f"applied knobs {applied} differ from {result.values}",
            )
            steps += result.simulated_steps
            evaluations += result.evaluations
            verified += result.verified
    with tracer.span("loadgen.probe"):
        default_server, tuned_server = _server(), _server()
        tuned_server.knob_space().apply(result.values)
        default_records = _serve(default_server, ctx["probe"])
        tuned_records = _serve(tuned_server, ctx["probe"])
    rep.wall = time.perf_counter() - start
    for record in default_records + tuned_records:
        rep.op(not record.failed and not record.cancelled, f"{record.name} failed")
    for probe_server in (server, default_server, tuned_server):
        probe_server.shutdown()

    default_slowdown = _slowdown(default_records, ctx["bases"])
    tuned_slowdown = _slowdown(tuned_records, ctx["bases"])
    rep.exact = {
        "virt_tuned_slowdown_ratio": default_slowdown / tuned_slowdown,
        "tuning.simulated_steps": steps,
        "tuning.evaluations": evaluations,
        "tuning.verified": verified,
        "tuning.tracked_queries": result.tracked_queries,
        "tuned_values": sorted((k, repr(v)) for k, v in result.values.items()),
        "records": records_digest(all_records + default_records + tuned_records),
    }
    # One operation is one tune() call.  A cycle costs more the more
    # queries the server has tracked, so the repetition reports the mean
    # of its cycles: a median would sit on the step between two of them.
    rep.host = {"queries_per_s": rep.attempted / rep.wall}
    rep.samples = {"op_latency_ms": [sum(cycle_ms) / len(cycle_ms)]}
    rep.layer = {"tuning.cycle_ms_first": cycle_ms[0], "tuning.cycle_ms_last": cycle_ms[-1]}
    return rep


def teardown(ctx) -> None:
    pass

"""kernel_sim — the bare simulator on the paper's mix."""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import records_digest
from benchmarks.suite.workloads import Rep

from repro.core import SchedulerConfig, make_scheduler
from repro.experiments.common import ExperimentConfig, measure_isolated_latencies
from repro.metrics.slowdown import mean_relative_slowdown, percentile
from repro.simcore import Simulator

NAME = "kernel_sim"
WHY = (
    "pure Simulator + tuning scheduler on the paper mix at load 0.9: core and "
    "simcore do all the work, server/cluster/engine/channel none"
)

N_WORKERS = 8
LOAD = 0.9
SIM_SEED = 1
#: 6 × 88 queries ≈ 48 virtual seconds at the paper's load.
BASE_GROUPS = 6
WARMUP_VIRTUAL_SECONDS = 10.0


def _simulator(workload):
    scheduler = make_scheduler("tuning", SchedulerConfig(n_workers=N_WORKERS))
    return scheduler, Simulator(scheduler, workload, seed=SIM_SEED)


def setup(seed: int, scale: float, tracer):
    groups = loadgen.units(BASE_GROUPS, scale)
    workload, mix, duration = loadgen.paper_workload(seed, groups, N_WORKERS, LOAD)
    bases = measure_isolated_latencies(
        mix.queries, ExperimentConfig(n_workers=N_WORKERS, seed=SIM_SEED)
    )
    # Warm the interpreter's caches on a slice of the same workload.
    _simulator(workload[:40])[1].run()
    return {
        "workload": workload,
        "bases": bases,
        "warmup": min(WARMUP_VIRTUAL_SECONDS, duration / 4.0),
    }


def run(ctx, tracer) -> Rep:
    rep = Rep()
    workload = ctx["workload"]
    scheduler, simulator = _simulator(workload)
    start = time.perf_counter()
    result = simulator.run()
    rep.wall = time.perf_counter() - start

    rep.attempted = len(workload)
    rep.check(
        result.completed == result.admitted == len(workload),
        f"generated {len(workload)}, admitted {result.admitted}, "
        f"completed {result.completed}",
    )
    steady = result.steady_state_records(ctx["warmup"]).apply_bases(ctx["bases"])
    short = [r.latency for r in steady.records if r.scale_factor == 3.0]
    ops = scheduler.overhead.ops
    rep.exact = {
        "virt_mean_slowdown": mean_relative_slowdown(steady.records),
        "virt_short_p95_ms": percentile(short, 95.0) * 1e3,
        "core.tasks_executed": result.tasks_executed,
        "core.mask_update_ops": ops["mask_updates"],
        "core.local_work_ops": ops["local_work"],
        "core.finalization_ops": ops["finalization"],
        "simcore.events": result.events_processed,
        "tuning.controller_cycles": len(scheduler.tuner.cycles),
        "completed": result.completed,
        "records": records_digest(result.records.records),
    }
    rep.host = {
        "queries_per_s": result.completed / rep.wall,
        "sim_tasks_per_s": result.tasks_executed / rep.wall,
    }
    rep.samples = {"op_latency_ms": [rep.wall * 1e3]}
    return rep


def teardown(ctx) -> None:
    pass

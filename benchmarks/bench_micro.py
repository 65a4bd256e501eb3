"""Microbenchmarks of the scheduler's hot paths.

These complement the figure benchmarks: they measure the raw cost of
the building blocks — scheduling-decision throughput of the simulator,
atomic-bitmask operations, the self-simulation loop, the knob replay,
workload compression, the optimizer, a whole knob-search cycle, the §4
controller's recorded calls, and the mini engine's scan rate — so
regressions in any layer are visible in isolation.  Run with ``-s`` to
see what a knob-search cycle simulated and what its memo answered.
"""

from __future__ import annotations

import pytest

import repro.tuning.optimizer as optimizer
import repro.tuning.replay as replay
from repro.atomics import AtomicBitmask
from repro.core import SchedulerConfig, make_scheduler
from repro.core.decay import DecayParameters
from repro.core.specs import PipelineSpec, QuerySpec
from repro.engine import build_engine_query, generate_tpch
from repro.engine.operators import JoinTable
from repro.engine.relation import filter_batch
from repro.server import AnalyticsServer
from repro.simcore import RngFactory, Simulator
from repro.simcore.simulator import SimulationEnvironment
from repro.tuning import (
    TrackedQuery,
    compress_workload,
    default_knob_space,
    optimize,
    replay_workload,
    search_knob_space,
    simulate_policy,
    simulate_policy_pairs,
)
from repro.workloads import generate_workload, tpch_mix
from tests.engine.reference_kernels import ReferenceJoinTable, reference_filter_batch


def test_simulation_decision_throughput(benchmark):
    """End-to-end simulated scheduling decisions per second of wall time."""
    mix = tpch_mix(names=("Q1", "Q3", "Q6", "Q18"))
    rng = RngFactory(1).stream("workload")
    workload = generate_workload(mix, rate=15.0, duration=2.0, rng=rng)

    def run():
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=8))
        return Simulator(scheduler, workload, seed=1).run().tasks_executed

    tasks = benchmark(run)
    assert tasks > 1000


def test_bitmask_publish_drain(benchmark):
    """One push + drain cycle over a 128-slot update mask."""
    mask = AtomicBitmask(128)

    def cycle():
        for bit in (3, 64, 90, 127):
            mask.set_bit(bit)
        return mask.drain()

    drained = benchmark(cycle)
    assert len(drained) in (0, 4)


def test_self_simulation_speed(benchmark):
    """One cost-function evaluation over a 100-query tracked workload."""
    tracked = [
        TrackedQuery(
            group_id=i,
            name=f"q{i}",
            scale_factor=1.0,
            arrival_offset=0.01 * i,
            work=0.005 + 0.002 * (i % 10),
        )
        for i in range(100)
    ]
    params = DecayParameters(decay=0.8, d_start=3)
    cost, steps = benchmark(simulate_policy, tracked, params, 0.002)
    assert steps > 100


def _bursts(n: int):
    """``n`` tracked queries in bursts of 64 simultaneous arrivals."""
    return [
        TrackedQuery(
            group_id=i,
            name=f"q{i}",
            scale_factor=1.0,
            arrival_offset=0.5 * (i // 64),
            work=0.003 + 0.001 * (i % 7) + (0.05 if i % 13 == 0 else 0.0),
        )
        for i in range(n)
    ]


def test_knob_replay_speed(benchmark):
    """One knob-vector replay of 256 tracked queries, >= 64 active at once."""
    tracked = _bursts(256)
    values = default_knob_space().current_values()
    result = benchmark(replay_workload, tracked, values)
    assert len(result.pairs) == 256
    assert result.steps > 1000


def _tuning_epochs(n: int):
    """``n`` tracked queries, 88 per epoch in six bursts, one in eleven long."""
    return [
        TrackedQuery(
            group_id=i,
            name=f"q{i}",
            scale_factor=1.0,
            arrival_offset=4.0 * (i // 88) + 0.6 * (i % 6) + 0.001 * (i % 88 // 6),
            work=0.004 + 0.002 * (i % 5) + (0.2 if i % 11 == 0 else 0.0),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("n_tracked", [88, 176, 264])
def test_knob_search_cycle(benchmark, monkeypatch, n_tracked):
    """One ``server.tune()``-sized search (0.05 s budget) after 1-3 epochs.

    Prints the replays the search charged against those it simulated
    (the rest its memo answered), in calls and in steps.
    """
    tracked = _tuning_epochs(n_tracked)
    charged, simulated = [0, 0], [0, 0]
    replay_cost, loop = optimizer.replay_cost, replay._stride_loop

    def charging(*args, **kwargs):
        cost, steps = replay_cost(*args, **kwargs)
        charged[0], charged[1] = charged[0] + 1, charged[1] + steps
        return cost, steps

    def simulating(*args, **kwargs):
        run = loop(*args, **kwargs)
        simulated[0], simulated[1] = simulated[0] + 1, simulated[1] + run.steps
        return run

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "replay_cost", charging)
        patch.setattr(replay, "_stride_loop", simulating)
        expected = search_knob_space(default_knob_space(), tracked, budget_seconds=0.05)
    assert charged[1] == expected.simulated_steps
    benchmark.extra_info.update(
        replays_charged=charged[0], replays_simulated=simulated[0],
        steps_charged=charged[1], steps_executed=simulated[1],
    )
    print(
        f"\n{n_tracked} tracked: {simulated[0]} of {charged[0]} replays simulated,"
        f" {simulated[1]} of {charged[1]} charged steps executed"
    )
    result = benchmark(
        search_knob_space, default_knob_space(), tracked, budget_seconds=0.05
    )
    assert result == expected


def _controller_calls():
    """The §4 controller's ``simulate_policy_pairs`` calls on a small fleet
    shard: a two-worker tuning server, short tracking windows, tiny queries."""
    calls = []
    record = optimizer.simulate_policy_pairs

    def recording(tracked, params, quantum):
        calls.append((list(tracked), params, quantum))
        return record(tracked, params, quantum)

    optimizer.simulate_policy_pairs = recording
    try:
        server = AnalyticsServer(
            scheduler="tuning", n_workers=2, seed=7, environment="model"
        )
        for i in range(240):
            server.submit(("Q6", "Q1", "Q6", "Q3", "Q6", "Q18")[i % 6], at=0.025 * i)
        server.drain()
        server.shutdown()
    finally:
        optimizer.simulate_policy_pairs = record
    return calls


def test_controller_call_replay(benchmark):
    """Every recorded controller call replayed once: the fleet's small-call
    cost of the §4 loop (median 20 tracked queries a call)."""
    calls = _controller_calls()

    def replay_all():
        return [simulate_policy_pairs(*call) for call in calls]

    results = benchmark(replay_all)
    assert len(results) == len(calls) >= 40


def test_decide_speed_many_active(benchmark):
    """200 worker_decide + worker_finish pairs on one worker, 64 slots active."""
    scheduler = make_scheduler("stride", SchedulerConfig(n_workers=1, slot_capacity=64))
    scheduler.attach(
        SimulationEnvironment(RngFactory(0), noise_sigma=0.0), wake_fn=lambda worker_id: None
    )
    spec = PipelineSpec(name="p", tuples=10**12, tuples_per_second=1e6)
    for i in range(64):
        query = QuerySpec(name=f"q{i}", scale_factor=1.0, pipelines=(spec,))
        scheduler.admit(scheduler.make_group(query, 0.0), 0.0)
    clock = [0.0]

    def pairs():
        now = clock[0]
        for _ in range(200):
            decision = scheduler.worker_decide(0, now)
            now += decision.duration
            scheduler.worker_finish(0, now, decision)
        clock[0] = now

    benchmark(pairs)
    assert bin(scheduler.workers[0].active_mask).count("1") == 64


def test_compress_speed(benchmark):
    """Greedy compression of 256 tracked queries to the search's 12."""
    tracked = _bursts(256)
    compressed = benchmark(compress_workload, tracked, 12)
    assert len(compressed.representatives) == 12


def test_optimizer_run(benchmark):
    """A full directional-search optimization (§4: 20-100ms in Umbra)."""
    tracked = [
        TrackedQuery(
            group_id=i,
            name=f"q{i}",
            scale_factor=1.0,
            arrival_offset=0.02 * i,
            work=0.004 if i % 4 else 0.1,
        )
        for i in range(50)
    ]
    result = benchmark(optimize, tracked, DecayParameters(), 0.002)
    assert result.evaluations > 10


def test_engine_scan_throughput(benchmark):
    """Tuples/second of the real engine's Q6 filter+sum scan."""
    db = generate_tpch(scale_factor=0.02, seed=0)

    def scan():
        return build_engine_query("Q6", db).execute(morsel_rows=65_536)

    result = benchmark(scan)
    assert result > 0.0


def test_engine_join_pipeline(benchmark):
    """The Q3 build/build/probe chain on the real engine."""
    db = generate_tpch(scale_factor=0.01, seed=0)

    def join():
        return build_engine_query("Q3", db).execute(morsel_rows=65_536)

    rows = benchmark(join)
    assert len(rows) <= 10


def test_engine_probe_and_selection_kernels(benchmark):
    """Q3's lineitem semi-join probe and its selection on one 4 096-row
    morsel (SF 0.01): the dense rank-table lookup and the one-pass
    selection, checked byte for byte against the sorted-key lookup and
    the per-column masks they replaced."""
    db = generate_tpch(scale_factor=0.01, seed=0)
    orders = db.table("orders")
    build = {"k": orders.column("o_orderkey")[orders.column("o_orderdate") < 1_600]}
    table = JoinTable("k", build)
    morsel = db.table("lineitem").slice(
        0, 4_096, ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def probe_and_select():
        return filter_batch(morsel, table.contains(morsel["l_orderkey"]))

    got = benchmark(probe_and_select)
    want = reference_filter_batch(
        morsel, ReferenceJoinTable("k", build).contains(morsel["l_orderkey"])
    )
    assert 0 < len(got["l_orderkey"]) < 4_096
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes()

"""The stride kernel's heap pick, cached priority sum and READY
fall-through equal the per-task scans and the event loop they replaced.

``WorkerLocalState`` picks the minimum pass from a lazily repaired heap
and re-sums the active priorities only when they can have changed;
``Simulator.run`` handles a READY that nothing precedes without the event
heap.  ``tests/core/reference_stride_kernel.py`` holds the scanning
worker state and the former event loop.  Hypothesis drives both kernels
through the same worker operations and the same simulations, and every
pick, pass, global pass, event count, end time and record must agree
with ``==``.  A clock-free pin closes the file: a decide + finish pair
executes about as many lines with 64 slots active as with 4.
"""

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SchedulerConfig
from repro.core.decay import DEFAULT_P0, DecayParameters
from repro.core.lottery import LotteryScheduler
from repro.core.resource_group import ResourceGroup
from repro.core.scheduler_base import TaskDecision
from repro.core.specs import PipelineSpec, QuerySpec
from repro.core.stride import StrideScheduler
from repro.core.task import ExecutedTask, TaskSet
from repro.runtime.trace import TraceRecorder
from repro.simcore.rng import RngFactory
from repro.simcore.simulator import SimulationEnvironment, Simulator

from tests.core import reference_stride_kernel as reference

N_SLOTS = 6
QUANTUM = 0.002

params_st = st.builds(
    DecayParameters,
    decay=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
    d_start=st.sampled_from((0, 1, 3)),
    # p_min == p0 puts every decaying priority on the floor at once.
    p_min=st.sampled_from((100.0, DEFAULT_P0)),
    quantum=st.just(QUANTUM),
)
slot_st = st.integers(0, N_SLOTS - 1)
ops_st = st.lists(
    st.one_of(
        st.tuples(
            st.just("init"),
            slot_st,
            st.integers(0, 3),  # group id: equal ids reuse, new ids replace
            st.sampled_from((1.0, 2.5)),  # user scale
            st.sampled_from((None, 500.0)),  # static priority
        ),
        st.tuples(st.just("return"), slot_st),
        st.tuples(st.just("forget"), slot_st),
        st.tuples(st.just("deactivate"), slot_st),
        # On a slot without state: an active bit without state.
        st.tuples(st.just("activate"), slot_st),
        st.tuples(
            st.just("finish"),
            st.one_of(st.none(), slot_st),  # None: the picked slot
            # 0 to several quanta, so decay steps zero, one or many times.
            st.sampled_from((0.0, 0.5 * QUANTUM, QUANTUM, 0.0031, 3.7 * QUANTUM)),
            st.booleans(),  # report the slot's own group (else a stale one)
        ),
        st.tuples(st.just("decay"), params_st),
    ),
    max_size=60,
)


def _decision(slot, group_id, duration):
    spec = PipelineSpec(name="p", tuples=1000, tuples_per_second=1e6)
    group = ResourceGroup(QuerySpec(name="q", scale_factor=1.0, pipelines=(spec,)), group_id, 0.0)
    executed = ExecutedTask(TaskSet(spec, group, 0), [], duration, False, 1)
    return TaskDecision(0, "task", duration, slot, executed, group)


def _apply(scheduler, op):
    local = scheduler.workers[0]
    kind = op[0]
    if kind == "init":
        _, slot, group_id, scale, static = op
        local.init_slot(slot, group_id, scheduler.decay_parameters, scale, static)
    elif kind == "return":
        local.return_slot(op[1])
    elif kind == "forget":
        local.forget_slot(op[1])
    elif kind == "deactivate":
        local.deactivate(op[1])
    elif kind == "activate":
        if op[1] not in local.slot_states:
            local.activate(op[1])
    elif kind == "finish":
        _, slot, duration, own_group = op
        if slot is None:
            slot = scheduler._pick_slot(local)
            if slot is None:
                return
        state = local.slot_states.get(slot)
        group_id = state.group_id if state is not None and own_group else 99
        scheduler.worker_finish(0, 0.0, _decision(slot, group_id, duration))
    else:
        scheduler.set_decay_parameters(op[1])


def _observe(scheduler):
    local = scheduler.workers[0]
    return (
        scheduler._pick_slot(local),
        repr(local.global_pass),
        local.active_mask,
        [
            (slot, s.group_id, repr(s.pass_value), repr(s.decay.priority))
            for slot, s in local.slot_states.items()
        ],
    )


@settings(max_examples=300, deadline=None)
@given(params=params_st, ops=ops_st)
# A broadcast re-prices both slots; the next finish (no decay step of
# its own) must not reuse the sum cached before the broadcast.
@example(
    params=DecayParameters(decay=0.5, d_start=0, quantum=QUANTUM),
    ops=[
        ("init", 0, 0, 1.0, None),
        ("init", 1, 1, 1.0, None),
        ("finish", None, 3.7 * QUANTUM, True),
        ("decay", DecayParameters(decay=1.0, d_start=0, quantum=QUANTUM)),
        ("finish", 1, 0.5 * QUANTUM, True),
    ],
)
def test_heap_pick_and_cached_sum_equal_the_scans(params, ops):
    config = SchedulerConfig(n_workers=1, slot_capacity=N_SLOTS, decay=params)
    ours = StrideScheduler(config)
    ref = reference.ScanningStrideScheduler(config)
    assert _observe(ours) == _observe(ref)
    for op in ops:
        _apply(ours, op)
        _apply(ref, op)
        assert _observe(ours) == _observe(ref), op
    local = ours.workers[0]
    assert len(local.pass_heap) <= local._heap_limit


def _query(index, n_pipelines, tuples, finalize, static):
    pipelines = tuple(
        PipelineSpec(
            name=f"p{i}",
            tuples=tuples * (i + 1),
            tuples_per_second=2e6,
            finalize_seconds=finalize,
        )
        for i in range(n_pipelines)
    )
    return QuerySpec(
        name=f"q{index % 3}",
        scale_factor=1.0,
        pipelines=pipelines,
        static_priority=static,
    )


workload_st = st.lists(
    st.tuples(
        # Coarse arrival grid: many arrivals land on the same instant.
        st.integers(0, 12).map(lambda tick: tick * 0.004),
        st.integers(1, 3),
        st.integers(200, 40_000),
        st.sampled_from((0.0, 0.0, 0.0007)),  # finalization cost (extra > 0)
        st.sampled_from((None, None, 800.0)),
    ),
    min_size=1,
    max_size=24,
)


def _simulate(scheduler_cls, runner, workload, config, seed, max_time):
    queries = [
        (at, _query(i, n, tuples, finalize, static))
        for i, (at, n, tuples, finalize, static) in enumerate(workload)
    ]
    scheduler = scheduler_cls(config)
    simulator = Simulator(scheduler, queries, seed=seed, max_time=max_time)
    result = runner(simulator)
    return (
        result.events_processed,
        repr(result.end_time),
        result.tasks_executed,
        result.completed,
        [repr(busy) for busy in result.worker_busy_seconds],
        [
            (r.query_id, repr(r.arrival_time), repr(r.completion_time), repr(r.cpu_seconds))
            for r in result.records.records
        ],
    )


@settings(max_examples=120, deadline=None)
@given(
    workload=workload_st,
    n_workers=st.integers(1, 4),
    slot_capacity=st.integers(1, 8),
    params=params_st,
    tuning=st.booleans(),
    seed=st.integers(0, 3),
    max_time=st.sampled_from((None, None, 0.003, 0.02, 0.06)),
)
def test_simulation_equals_the_scanning_kernel_and_event_loop(
    workload, n_workers, slot_capacity, params, tuning, seed, max_time
):
    config = SchedulerConfig(
        n_workers=n_workers,
        slot_capacity=slot_capacity,
        decay=params,
        tuning_enabled=tuning,
        tracking_duration=0.01,
        refresh_duration=0.02,
    )
    ours = _simulate(StrideScheduler, Simulator.run, workload, config, seed, max_time)
    ref = _simulate(
        reference.ScanningStrideScheduler,
        reference.run_event_loop,
        workload,
        config,
        seed,
        max_time,
    )
    assert ours == ref


def test_max_time_between_a_finalization_and_its_ready():
    """The READY after a finalizing DONE is handled in place, and a
    max_time between the two truncates exactly as the heap did."""
    workload = [(0.0, 1, 3000, 0.0007, None)]
    config = SchedulerConfig(n_workers=1)
    full = _simulate(StrideScheduler, Simulator.run, workload, config, 0, None)
    finished = float(full[5][0][2])  # the query completes at its DONE
    max_time = finished + 0.00035  # ... and its READY follows 0.7 ms later
    ours = _simulate(StrideScheduler, Simulator.run, workload, config, 0, max_time)
    ref = _simulate(
        reference.ScanningStrideScheduler,
        reference.run_event_loop,
        workload,
        config,
        0,
        max_time,
    )
    assert ours == ref
    assert ours[1] == repr(max_time)
    assert ours[0] == full[0] - 1


def test_lottery_keeps_the_unused_heap_bounded():
    """The lottery pick never pops the heap; rebuilds bound it."""
    workload = [(0.001 * i, _query(i, 2, 30_000, 0.0, None)) for i in range(40)]
    scheduler = LotteryScheduler(SchedulerConfig(n_workers=2, slot_capacity=8))
    Simulator(scheduler, workload, seed=3).run()
    assert scheduler.tasks_executed > 200
    for local in scheduler.workers:
        assert len(local.pass_heap) <= local._heap_limit <= 4 * 8 + 16


def _line_events_per_task(n_active, pairs=200):
    """Executed lines per worker_decide + worker_finish, n_active slots."""
    config = SchedulerConfig(
        n_workers=1,
        slot_capacity=64,
        # λ = 1: equal priorities that never change.
        decay=DecayParameters(decay=1.0),
    )
    scheduler = StrideScheduler(config)
    env = SimulationEnvironment(RngFactory(0), noise_sigma=0.0)
    scheduler.attach(env, wake_fn=lambda worker_id: None, trace=TraceRecorder(enabled=False))
    spec = PipelineSpec(name="p", tuples=10**12, tuples_per_second=1e6)
    for i in range(n_active):
        query = QuerySpec(name=f"q{i}", scale_factor=1.0, pipelines=(spec,))
        scheduler.admit(scheduler.make_group(query, 0.0), 0.0)
    now = 0.0

    def step():
        nonlocal now
        decision = scheduler.worker_decide(0, now)
        now += decision.duration
        scheduler.worker_finish(0, now, decision)

    for _ in range(2 * n_active):  # every slot picked at least once
        step()
    assert bin(scheduler.workers[0].active_mask).count("1") == n_active
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for _ in range(pairs):
            step()
    finally:
        sys.settrace(previous)
    return events / pairs


def test_decide_finish_cost_does_not_grow_with_active_slots():
    # The scanning kernel executes 3.9 x the lines here (linear in slots).
    ratio = _line_events_per_task(64) / _line_events_per_task(4)
    assert ratio <= 2.0

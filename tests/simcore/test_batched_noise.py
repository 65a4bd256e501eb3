"""Determinism of the executor's fast paths.

The morsel executor costs a simulated morsel inline (task-constant cost
factors, one read of the pre-drawn noise buffer) and skips per-morsel
record collection when tracing is off.  Neither may change a carve
decision, an EWMA update, or the RNG stream — these tests pin them to
the plain ``run_morsel`` path bit-for-bit.
"""

from __future__ import annotations

from repro.core import SchedulerConfig, make_scheduler
from repro.core.morsel_exec import MorselExecutor, MorselExecutorConfig
from repro.core.resource_group import ResourceGroup
from repro.core.specs import PipelineSpec, QuerySpec
from repro.core.task import TaskSet
from repro.simcore import RngFactory, Simulator
from repro.simcore.simulator import SimulationEnvironment
from repro.runtime.trace import TraceRecorder
from repro.workloads import generate_workload, tpch_mix


class _PlainEnv:
    """Proxy exposing only ``run_morsel`` — forces the per-call path."""

    def __init__(self, env: SimulationEnvironment) -> None:
        self._env = env

    def run_morsel(self, task_set, tuples):
        return self._env.run_morsel(task_set, tuples)


def _fixed_task_set(tuples=200_000, fixed=100):
    spec = PipelineSpec(
        name="p",
        tuples=tuples,
        tuples_per_second=1e6,
        supports_adaptive=False,
        fixed_morsel_tuples=fixed,
    )
    query = QuerySpec(name="q", scale_factor=1.0, pipelines=(spec,))
    group = ResourceGroup(query, 0, 0.0)
    return TaskSet(spec, group, 0)


def _executor():
    return MorselExecutor(MorselExecutorConfig(t_max=0.002, n_workers=4))


class TestBatchedFixedPath:
    def test_matches_sequential_morsels_and_rng_stream(self):
        env_batched = SimulationEnvironment(RngFactory(7), noise_sigma=0.05)
        env_sequential = SimulationEnvironment(RngFactory(7), noise_sigma=0.05)
        ts_batched = _fixed_task_set()
        ts_sequential = _fixed_task_set()
        exec_batched = _executor()
        exec_sequential = _executor()
        while not ts_batched.exhausted:
            batched = exec_batched.run_task(ts_batched, env_batched)
            sequential = exec_sequential.run_task(
                ts_sequential, _PlainEnv(env_sequential)
            )
            # Exact float equality: carves, durations and phases agree.
            assert batched.morsels == sequential.morsels
            assert repr(batched.duration) == repr(sequential.duration)
            assert repr(ts_batched.throughput_estimate) == repr(
                ts_sequential.throughput_estimate
            )
        assert ts_sequential.exhausted
        # Both paths consumed the identical number of noise draws.
        assert repr(env_batched.next_noise()) == repr(env_sequential.next_noise())


class TestMorselCollectionToggle:
    def test_trace_toggle_does_not_change_results(self):
        """Skipping morsel records (trace off) is invisible to results."""
        mix = tpch_mix(names=("Q1", "Q6"))
        workload = generate_workload(
            mix, rate=10.0, duration=1.0, rng=RngFactory(5).stream("workload")
        )
        reprs = []
        for enabled in (False, True):
            scheduler = make_scheduler("stride", SchedulerConfig(n_workers=4))
            result = Simulator(
                scheduler, workload, seed=5, trace=TraceRecorder(enabled=enabled)
            ).run()
            reprs.append(
                [
                    (r.query_id, repr(r.completion_time), repr(r.cpu_seconds))
                    for r in result.records.records
                ]
            )
        assert reprs[0] == reprs[1]

    def test_collect_flag_controls_record_lists(self):
        env = SimulationEnvironment(RngFactory(2), noise_sigma=0.05)
        ts = _fixed_task_set(tuples=50_000)
        executor = MorselExecutor(MorselExecutorConfig(t_max=0.002, n_workers=4))
        executor.collect_morsels = False
        # Adaptive path: a task reports its morsel count without records.
        adaptive_ts = TaskSet(
            PipelineSpec(name="a", tuples=500_000, tuples_per_second=1e6),
            ts.resource_group,
            0,
        )
        executed = executor.run_task(adaptive_ts, env)
        assert executed.morsel_count > 0
        assert executed.morsels == []

"""Tests for the adaptive morsel execution state machine (§3.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.morsel_exec import (
    MorselExecutor,
    MorselExecutorConfig,
    MorselMode,
)
from repro.core.resource_group import ResourceGroup
from repro.core.specs import PipelineSpec, QuerySpec
from repro.core.task import PipelineState, TaskSet


class FixedRateEnv:
    """Deterministic environment: duration = tuples / rate."""

    def __init__(self, rate: float = 1e6) -> None:
        self.rate = rate
        self.calls = []

    def run_morsel(self, task_set, tuples):
        self.calls.append(tuples)
        return tuples / self.rate


def make_task_set(tuples=1_000_000, supports_adaptive=True, fixed=60_000):
    spec = PipelineSpec(
        name="p",
        tuples=tuples,
        tuples_per_second=1e6,
        supports_adaptive=supports_adaptive,
        fixed_morsel_tuples=fixed,
    )
    query = QuerySpec(name="q", scale_factor=1.0, pipelines=(spec,))
    group = ResourceGroup(query, 0, 0.0)
    return TaskSet(spec, group, 0)


def executor(t_max=0.002, mode=MorselMode.ADAPTIVE, n_workers=4, c0=16):
    return MorselExecutor(
        MorselExecutorConfig(t_max=t_max, mode=mode, n_workers=n_workers, c0=c0)
    )


class TestStartupState:
    def test_exponential_growth(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set()
        executed = executor().run_task(ts, env)
        sizes = [m.tuples for m in executed.morsels]
        # C0, 2*C0, 4*C0, ... doubling until the budget is exhausted.
        for previous, current in zip(sizes, sizes[1:]):
            assert current == 2 * previous
        assert sizes[0] == 16
        assert all(m.phase == "startup" for m in executed.morsels)

    def test_startup_seeds_estimate_and_transitions(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set()
        executor().run_task(ts, env)
        assert ts.state is PipelineState.DEFAULT
        assert ts.throughput_estimate == pytest.approx(1e6, rel=0.01)

    def test_startup_respects_budget(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set()
        executed = executor(t_max=0.002).run_task(ts, env)
        assert executed.duration <= 0.002 * 1.01


class TestDefaultState:
    def _warm(self, ts, env, exec_):
        exec_.run_task(ts, env)  # startup task
        assert ts.state is PipelineState.DEFAULT

    def test_single_morsel_exhausts_budget(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(tuples=10_000_000)
        exec_ = executor(t_max=0.002)
        self._warm(ts, env, exec_)
        executed = exec_.run_task(ts, env)
        assert len(executed.morsels) == 1
        assert executed.duration == pytest.approx(0.002, rel=0.05)
        assert executed.morsels[0].phase == "default"

    def test_estimate_tracks_rate_change(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(tuples=50_000_000)
        exec_ = executor(t_max=0.002, n_workers=1)
        self._warm(ts, env, exec_)
        env.rate = 4e6  # pipeline got faster
        for _ in range(10):
            exec_.run_task(ts, env)
        assert ts.throughput_estimate == pytest.approx(4e6, rel=0.05)


class TestShutdownState:
    def test_shutdown_triggers_near_end(self):
        env = FixedRateEnv(rate=1e6)
        # Remaining time ~8ms < W * t_max = 4 * 2ms after the startup task.
        ts = make_task_set(tuples=9_000)
        exec_ = executor(t_max=0.002, n_workers=4)
        exec_.run_task(ts, env)  # startup
        executed = exec_.run_task(ts, env)
        assert any(m.phase == "shutdown" for m in executed.morsels)

    def test_shutdown_morsels_not_below_t_min(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(tuples=9_000)
        config = MorselExecutorConfig(t_max=0.002, n_workers=4, t_min=0.00025)
        exec_ = MorselExecutor(config)
        exec_.run_task(ts, env)
        while not ts.exhausted:
            executed = exec_.run_task(ts, env)
            for morsel in executed.morsels:
                if morsel.phase == "shutdown" and not ts.exhausted:
                    assert morsel.duration >= 0.00025 * 0.9


class ZeroOnceEnv(FixedRateEnv):
    """Fixed rate, except that call number ``zero_at`` reports 0.0 s."""

    def __init__(self, zero_at=None) -> None:
        super().__init__(rate=1e6)
        self.zero_at = zero_at

    def run_morsel(self, task_set, tuples):
        duration = super().run_morsel(task_set, tuples)
        return 0.0 if len(self.calls) - 1 == self.zero_at else duration


class TestZeroDurationMorsel:
    """A model environment may report 0.0 s: no throughput was measured,
    so the estimate keeps its value, but the morsel's tuples are done."""

    def _run(self, zero_at=None):
        env = ZeroOnceEnv(zero_at)
        ts = make_task_set(tuples=30_000)
        exec_ = executor(t_max=0.002, n_workers=4)
        morsels = []
        while not ts.exhausted:
            morsels.extend(exec_.run_task(ts, env).morsels)
            assert ts.throughput_estimate == pytest.approx(1e6)
        return morsels

    @pytest.mark.parametrize("phase", ["startup", "default", "shutdown"])
    def test_second_morsel_of_each_state(self, phase):
        phases = [m.phase for m in self._run()]
        zero_at = [i for i, p in enumerate(phases) if p == phase][1]
        morsels = self._run(zero_at)
        assert (morsels[zero_at].duration, morsels[zero_at].phase) == (0.0, phase)
        assert sum(m.tuples for m in morsels) == 30_000
        assert all(m.duration > 0.0 for m in morsels if m is not morsels[zero_at])


class TestNonAdaptivePipelines:
    def test_fixed_morsels_loop_until_budget(self):
        """§3.1 optimizations: short fixed morsels repeat within a task."""
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(supports_adaptive=False, fixed=100)
        executed = executor(t_max=0.002).run_task(ts, env)
        assert len(executed.morsels) > 1
        assert all(m.phase == "fixed" for m in executed.morsels)
        assert executed.duration >= 0.002


class TestStaticMode:
    def test_one_fixed_morsel_per_task(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(fixed=60_000)
        executed = executor(mode=MorselMode.STATIC).run_task(ts, env)
        assert len(executed.morsels) == 1
        assert executed.morsels[0].tuples == 60_000
        assert executed.morsels[0].phase == "static"

    def test_static_last_morsel_clamped(self):
        env = FixedRateEnv(rate=1e6)
        ts = make_task_set(tuples=70_000, fixed=60_000)
        exec_ = executor(mode=MorselMode.STATIC)
        exec_.run_task(ts, env)
        executed = exec_.run_task(ts, env)
        assert executed.morsels[0].tuples == 10_000
        assert executed.exhausted_work


class TestExhaustion:
    def test_empty_task_set_returns_empty_task(self):
        env = FixedRateEnv()
        ts = make_task_set(tuples=100)
        ts.carve(100)
        executed = executor().run_task(ts, env)
        assert executed.morsels == []
        assert executed.exhausted_work

    def test_all_tuples_processed_exactly_once(self):
        env = FixedRateEnv()
        ts = make_task_set(tuples=123_456)
        exec_ = executor()
        total = 0
        while not ts.exhausted:
            executed = exec_.run_task(ts, env)
            total += executed.tuples
        assert total == 123_456


@given(
    tuples=st.integers(min_value=1, max_value=2_000_000),
    rate=st.floats(min_value=1e4, max_value=1e8),
    t_max=st.sampled_from([0.0005, 0.002, 0.008]),
    n_workers=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=60, deadline=None)
def test_property_terminates_and_respects_budget(tuples, rate, t_max, n_workers):
    """For any pipeline, adaptive execution terminates, processes every
    tuple exactly once, and no task overshoots the target duration by
    more than one morsel.  The slack term covers the initial C0 probe:
    the paper assumes C0 is "sufficiently small to ensure t0 <= t_max",
    which an extremely slow pipeline can violate by at most C0/rate."""
    env = FixedRateEnv(rate=rate)
    ts = make_task_set(tuples=tuples)
    exec_ = executor(t_max=t_max, n_workers=n_workers)
    c0 = exec_.config.c0
    total = 0
    tasks = 0
    while not ts.exhausted:
        executed = exec_.run_task(ts, env)
        tasks += 1
        total += executed.tuples
        assert executed.duration <= 2.5 * t_max + 2.0 * c0 / rate
        assert tasks < 10 * (tuples / (rate * t_max) + 10)
    assert total == tuples

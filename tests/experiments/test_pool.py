"""The warm sweep pool: determinism, compact handoff, heuristics.

The hard invariant of the pool is the same as the old per-call executor:
pooled outcomes are **bit-identical** to the sequential loop — across
worker counts, chunk sizes, dispatch orders, and pool reuse.  On top of
that these tests pin the new machinery: the pickle-5 frame codec, the
outcome's trip through it, the per-worker workload cache, the
auto-jobs fallback, and the "no cold executor per call" regression
guard.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.experiments import pool as pool_mod
from repro.experiments.common import ExperimentConfig
from repro.experiments.parallel import SweepCell, run_cell, run_cells


def _tiny_config(**overrides):
    base = ExperimentConfig.quick().with_options(
        duration=1.5, n_workers=4, tracking_duration=0.5, refresh_duration=1.0
    )
    return base.with_options(**overrides) if overrides else base


def _record_reprs(collector):
    return [
        (r.query_id, repr(r.arrival_time), repr(r.completion_time), repr(r.cpu_seconds))
        for r in collector.records
    ]


def _outcome_reprs(outcomes):
    return [
        (
            _record_reprs(o.records),
            o.tasks_executed,
            o.events_processed,
            repr(o.total_overhead_percent),
            repr(o.end_time),
        )
        for o in outcomes
    ]


def _make_cells(config, n=4):
    systems = ("stride", "fair", "fifo", "stride", "fair", "fifo", "stride", "fair")
    rates = (8.0, 8.0, 10.0, 12.0, 6.0, 9.0, 11.0, 7.0)
    return [
        SweepCell(
            system=systems[i],
            rate=rates[i],
            salt=i,
            config=config,
            max_time=config.duration,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def sequential_baseline():
    config = _tiny_config()
    cells = _make_cells(config, n=8)
    return config, cells, run_cells(cells, jobs=1)


class TestPooledDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_bit_identical_across_worker_counts(self, sequential_baseline, jobs):
        _, cells, sequential = sequential_baseline
        pooled = run_cells(cells, jobs=jobs, force_pool=True)
        assert _outcome_reprs(pooled) == _outcome_reprs(sequential)

    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_bit_identical_across_chunk_sizes(self, sequential_baseline, chunk_size):
        _, cells, sequential = sequential_baseline
        pooled = run_cells(
            cells, jobs=2, force_pool=True, chunk_size=chunk_size
        )
        assert _outcome_reprs(pooled) == _outcome_reprs(sequential)

    @pytest.mark.parametrize("dispatch", ["cost", "input"])
    def test_bit_identical_across_dispatch_orders(self, sequential_baseline, dispatch):
        _, cells, sequential = sequential_baseline
        pooled = run_cells(cells, jobs=2, force_pool=True, dispatch=dispatch)
        assert _outcome_reprs(pooled) == _outcome_reprs(sequential)

    def test_pool_reused_across_consecutive_sweeps(self, sequential_baseline):
        _, cells, sequential = sequential_baseline
        first = run_cells(cells, jobs=2, force_pool=True)
        pool_after_first = pool_mod.get_pool(2)
        second = run_cells(cells, jobs=2, force_pool=True)
        assert pool_mod.get_pool(2) is pool_after_first
        assert _outcome_reprs(first) == _outcome_reprs(sequential)
        assert _outcome_reprs(second) == _outcome_reprs(sequential)

    def test_no_fresh_executor_per_call(self, sequential_baseline, monkeypatch):
        """run_cells must never construct a cold pool per invocation."""
        _, cells, sequential = sequential_baseline
        pool_mod.get_pool(2)  # ensure the shared pool is up

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("cold ProcessPoolExecutor constructed")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _boom)
        pooled = run_cells(cells[:4], jobs=2, force_pool=True)
        assert _outcome_reprs(pooled) == _outcome_reprs(sequential[:4])

    def test_unknown_dispatch_rejected(self, sequential_baseline):
        _, cells, _ = sequential_baseline
        with pytest.raises(ValueError):
            run_cells(cells, jobs=2, force_pool=True, dispatch="random")


class TestWireFormat:
    def test_oob_frame_round_trips_numpy_buffers(self):
        payload = {
            "a": np.arange(1000, dtype=np.float64),
            "b": np.arange(10, dtype=np.int32),
            "meta": ("text", 4.25, None),
        }
        blob = pool_mod.dumps_oob(payload)
        out = pool_mod.loads_oob(blob)
        assert np.array_equal(out["a"], payload["a"])
        assert np.array_equal(out["b"], payload["b"])
        assert out["meta"] == payload["meta"]

    def test_oob_frame_rejects_garbage(self):
        with pytest.raises(ValueError):
            pool_mod.loads_oob(b"not a frame at all")

    def test_outcome_codec_lossless_on_real_cell(self):
        # An outcome pickles its collector through the wire codec.
        config = _tiny_config()
        outcome = run_cell(_make_cells(config, n=1)[0])
        decoded = pickle.loads(pickle.dumps(outcome))
        assert _outcome_reprs([decoded]) == _outcome_reprs([outcome])
        assert len(decoded.records) == len(outcome.records)
        for original, roundtripped in zip(
            outcome.records.records, decoded.records.records
        ):
            # repr-compare: exact float bits, and NaN base latencies
            # (fresh NaN objects are never ==) compare as "nan".
            assert repr(roundtripped) == repr(original)

    def test_outcome_codec_through_oob_frame(self):
        config = _tiny_config()
        outcome = run_cell(_make_cells(config, n=1)[0])
        decoded = pool_mod.loads_oob(pool_mod.dumps_oob(outcome))
        assert _outcome_reprs([decoded]) == _outcome_reprs([outcome])


class TestWorkloadCache:
    def test_cells_sharing_key_build_workload_once(self, monkeypatch):
        # Exercise the worker-side cache in-process: the functions are
        # module level precisely so this is possible.
        monkeypatch.setattr(pool_mod, "_WORKLOAD_CACHE", {})
        monkeypatch.setattr(pool_mod, "_CACHE_STATS", {"hits": 0, "misses": 0})
        config = _tiny_config()
        shared = [
            SweepCell(system=s, rate=9.0, salt=3, config=config, max_time=config.duration)
            for s in ("stride", "fair", "fifo")
        ]
        workloads = [pool_mod._cell_workload(cell) for cell in shared]
        assert pool_mod.workload_cache_stats()["misses"] == 1
        assert pool_mod.workload_cache_stats()["hits"] == 2
        assert workloads[0] is workloads[1] is workloads[2]

    def test_cached_workload_matches_fresh_build(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_WORKLOAD_CACHE", {})
        config = _tiny_config()
        cell = _make_cells(config, n=1)[0]
        cached = run_cell(cell, workload=pool_mod._cell_workload(cell))
        fresh = run_cell(cell)
        assert _outcome_reprs([cached]) == _outcome_reprs([fresh])

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_WORKLOAD_CACHE", {})
        monkeypatch.setattr(pool_mod, "_WORKLOAD_CACHE_CAP", 4)
        config = _tiny_config(duration=0.2)
        for cell in _make_cells(config, n=8):
            pool_mod._cell_workload(cell)
        assert len(pool_mod._WORKLOAD_CACHE) <= 4


class TestAutoJobs:
    def _cells(self, duration=30.0, n=24):
        config = _tiny_config(duration=duration)
        return _make_cells(config, n=min(n, 8)) * (n // min(n, 8))

    def test_explicit_one_is_sequential(self):
        assert pool_mod.resolve_jobs(self._cells(), 1) == 1

    def test_single_cpu_falls_back_to_sequential(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        assert pool_mod.resolve_jobs(self._cells(), 4) == 1

    def test_force_pool_overrides_heuristic(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        assert pool_mod.resolve_jobs(self._cells(), 4, force_pool=True) == 4

    def test_cheap_grid_cannot_amortize_cold_pool(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(pool_mod, "_POOL", None)  # cold
        cells = self._cells(duration=0.05, n=2)[:2]
        assert pool_mod.resolve_jobs(cells, 4) == 1

    def test_expensive_grid_pools(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(pool_mod, "_POOL", None)
        cells = self._cells(duration=60.0, n=24)
        assert pool_mod.resolve_jobs(cells, 4) == 4

    def test_auto_asks_for_cpu_count(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(pool_mod, "_POOL", None)
        cells = self._cells(duration=60.0, n=24)
        for spelling in (None, 0, "auto"):
            assert pool_mod.resolve_jobs(cells, spelling) == 3

    def test_warm_pool_lowers_the_bar(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 8)
        cells = self._cells(duration=3.0, n=8)[:8]
        cold_decision = None
        warm_decision = None
        saved_pool = pool_mod._POOL
        try:
            monkeypatch.setattr(pool_mod, "_POOL", None)
            cold_decision = pool_mod.resolve_jobs(cells, 8)
        finally:
            pool_mod._POOL = saved_pool
        # A warm pool has zero startup cost: simulate one.
        class _Fake:
            max_workers = 8

        monkeypatch.setattr(pool_mod, "_POOL", _Fake())
        warm_decision = pool_mod.resolve_jobs(cells, 8)
        # Warm pooling engages at least as eagerly as cold pooling.
        assert (warm_decision > 1) or (cold_decision == 1)

    def test_jobs_clamped_to_grid_size(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 16)
        cells = self._cells(duration=60.0, n=8)[:3]
        assert pool_mod.resolve_jobs(cells, 16, force_pool=True) == 3


class TestWarmups:
    def test_register_warmup_deduplicates(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_WARMUPS", [])
        pool_mod.register_warmup(math.gcd, 4, 6)
        pool_mod.register_warmup(math.gcd, 4, 6)
        pool_mod.register_warmup(math.gcd, 9, 6)
        assert len(pool_mod._WARMUPS) == 2

    def test_worker_init_runs_warmups(self, monkeypatch):
        calls = []
        pool_mod._worker_init([(calls.append, ("warmed",))])
        assert calls == ["warmed"]

    def test_warm_calibration_populates_cache(self):
        from repro.engine.calibration import (
            calibration_cache_size,
            clear_calibration_cache,
            warm_calibration,
        )

        clear_calibration_cache()
        count = warm_calibration(scale_factor=0.001, seed=3, queries=("Q6",))
        assert count == 1
        assert calibration_cache_size() == 1
        clear_calibration_cache()


class TestCostModel:
    def test_os_cells_cost_less_per_arrival(self):
        config = _tiny_config()
        policy = SweepCell(system="stride", rate=10.0, salt=0, config=config)
        os_cell = SweepCell(
            system="monetdb", rate=10.0, salt=0, config=config, kind="os"
        )
        assert pool_mod.estimate_cell_cost(os_cell) < pool_mod.estimate_cell_cost(
            policy
        )

    def test_grid_cost_is_sum(self):
        config = _tiny_config()
        cells = _make_cells(config, n=4)
        assert pool_mod.estimate_grid_cost(cells) == pytest.approx(
            sum(pool_mod.estimate_cell_cost(c) for c in cells)
        )

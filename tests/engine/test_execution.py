"""Tests for engine execution drivers, including scheduler-driven runs."""

import os
import subprocess
import sys

import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.engine import build_engine_query, run_plan
from repro.engine.execution import EngineEnvironment, engine_query_spec
from repro.errors import EngineError
from repro.simcore import Simulator


class TestRunPlan:
    def test_timings_cover_all_pipelines(self, tiny_db):
        plan = build_engine_query("Q3", tiny_db)
        result, timings = run_plan(plan)
        assert len(timings) == len(plan.pipelines)
        assert all(t.seconds >= 0.0 for t in timings)
        assert all(t.rows >= 0 for t in timings)

    def test_rows_match_processed(self, tiny_db):
        plan = build_engine_query("Q1", tiny_db)
        _, timings = run_plan(plan, morsel_rows=512)
        assert timings[0].rows == tiny_db.table("lineitem").n_rows


class TestEngineQuerySpec:
    def test_pipeline_structure_matches_plan(self, tiny_db):
        spec = engine_query_spec("Q3", tiny_db)
        plan = build_engine_query("Q3", tiny_db)
        assert len(spec.pipelines) == len(plan.pipelines)
        assert [p.name for p in spec.pipelines] == [p.name for p in plan.pipelines]

    def test_tuple_counts_from_cardinalities(self, tiny_db):
        spec = engine_query_spec("Q6", tiny_db)
        assert spec.pipelines[0].tuples == tiny_db.table("lineitem").n_rows


_FIRST_DRAW = """
from repro.engine import generate_tpch
from repro.engine.execution import EngineEnvironment
print(repr(EngineEnvironment(generate_tpch(0.001, seed=3)).rng("lottery").random()))
"""


class TestEngineRng:
    def test_named_stream_continues(self, tiny_db):
        """One generator per name, so lottery draws move on."""
        env = EngineEnvironment(tiny_db)
        assert env.rng("lottery") is env.rng("lottery")
        draws = [env.rng("lottery").random() for _ in range(3)]
        assert len(set(draws)) == 3

    def test_first_draw_independent_of_hash_seed(self):
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-c", _FIRST_DRAW],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class RowsTimedEnvironment(EngineEnvironment):
    """Runs the real operators but reports a morsel's duration in
    proportion to its rows (at the spec's planned rate), not measured."""

    def run_morsel(self, task_set, tuples):
        super().run_morsel(task_set, tuples)
        return tuples / task_set.profile.tuples_per_second


class TestSchedulerDrivenExecution:
    """The paper's scheduler drives real engine morsels (measured time)."""

    def _run(self, db, names, scheduler_name="stride", t_max=0.004, env_cls=EngineEnvironment):
        env = env_cls(db)
        scheduler = make_scheduler(
            scheduler_name, SchedulerConfig(n_workers=2, t_max=t_max)
        )
        workload = [
            (0.0001 * i, engine_query_spec(name, db))
            for i, name in enumerate(names)
        ]
        simulator = Simulator(scheduler, workload, seed=0, environment=env)
        result = simulator.run()
        return env, scheduler, result

    def test_single_query_correct_result(self, tiny_db):
        env, scheduler, result = self._run(tiny_db, ["Q6"])
        assert result.completed == 1
        query_id = result.records.records[0].query_id
        got = env.finish_query(query_id)
        expected = build_engine_query("Q6", tiny_db).execute()
        assert got == pytest.approx(expected)
        # The returned value was the only copy: the plan state is gone.
        assert env._instances == {}
        with pytest.raises(EngineError, match="never executed"):
            env.finish_query(query_id)

    def test_concurrent_queries_all_correct(self, tiny_db):
        names = ["Q6", "Q1", "Q6", "Q13"]
        env, scheduler, result = self._run(tiny_db, names)
        assert result.completed == len(names)
        reference = {
            name: build_engine_query(name, tiny_db).execute() for name in set(names)
        }
        for record in result.records.records:
            got = env.finish_query(record.query_id)
            want = reference[record.name]
            if isinstance(want, float):
                assert got == pytest.approx(want)
            else:
                assert len(got) == len(want)

    def test_adaptive_execution_measures_real_time(self, tiny_db):
        env, scheduler, result = self._run(tiny_db, ["Q1"])
        record = result.records.records[0]
        # Measured CPU time is strictly positive and the latency covers it.
        assert record.cpu_seconds > 0.0
        assert record.latency > 0.0

    def test_decay_scheduler_on_real_engine(self, small_db):
        # Measured, Q18 and Q6 take about as long at SF 0.01 (≈ 2.5 and
        # 3.0 ms), so their order was noise.  By rows, Q18 is 1.5 x Q6
        # (90k vs 60k tuples) and arrives first: the order is a property
        # of the scheduler again, while the real operators still run.
        env, scheduler, result = self._run(
            small_db, ["Q18", "Q6"], "stride", t_max=0.002, env_cls=RowsTimedEnvironment
        )
        done = {r.name: r for r in result.records.records}
        # The short query must finish before the long one (§3.2 (1)).
        assert done["Q6"].completion_time < done["Q18"].completion_time
        expected = build_engine_query("Q6", small_db).execute()
        assert env.finish_query(done["Q6"].query_id) == pytest.approx(expected)

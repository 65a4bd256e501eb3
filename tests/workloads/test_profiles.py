"""Tests for the TPC-H workload profiles."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import TPCH_QUERY_NAMES, tpch_query, tpch_suite


class TestTpchQuery:
    def test_all_22_queries_defined(self):
        assert len(TPCH_QUERY_NAMES) == 22
        for name in TPCH_QUERY_NAMES:
            query = tpch_query(name)
            assert query.pipelines

    def test_unknown_query(self):
        with pytest.raises(WorkloadError):
            tpch_query("Q23")

    def test_scaling_preserves_rates(self):
        sf1 = tpch_query("Q1", 1.0)
        sf30 = tpch_query("Q1", 30.0)
        assert sf30.total_work_seconds == pytest.approx(
            30.0 * sf1.total_work_seconds, rel=0.01
        )
        for p1, p30 in zip(sf1.pipelines, sf30.pipelines):
            assert p30.tuples_per_second == p1.tuples_per_second

    def test_compile_pipeline_prepended(self):
        query = tpch_query("Q6", 3.0, compile_seconds=0.01)
        assert query.pipelines[0].name == "compile"
        assert not query.pipelines[0].supports_adaptive
        assert query.pipelines[0].single_thread_seconds == pytest.approx(0.01)
        # The compile cost does not scale with the data.
        sf30 = tpch_query("Q6", 30.0, compile_seconds=0.01)
        assert sf30.pipelines[0].single_thread_seconds == pytest.approx(0.01)

    def test_no_compile_pipeline_by_default(self):
        query = tpch_query("Q6", 3.0)
        assert query.pipelines[0].name != "compile"

    def test_relative_magnitudes(self):
        """The short/long structure the evaluation relies on."""
        work = {name: tpch_query(name).total_work_seconds for name in TPCH_QUERY_NAMES}
        short = ("Q6", "Q11", "Q22")
        long_ = ("Q1", "Q9", "Q13", "Q18", "Q21")
        for s in short:
            for l in long_:
                assert work[l] > 3.0 * work[s], (s, l)

    def test_per_tuple_cost_spread_exceeds_30x(self):
        """§3.1: pipeline per-tuple costs vary by more than 30x."""
        rates = [
            pipeline.tuples_per_second
            for query in tpch_suite(1.0)
            for pipeline in query.pipelines
        ]
        assert max(rates) / min(rates) > 30.0

    def test_suite_is_consistent(self):
        keys = [(query.name, query.scale_factor) for query in tpch_suite(3.0)]
        assert len(set(keys)) == len(keys)

    def test_suite_subset(self):
        suite = tpch_suite(1.0, names=("Q1", "Q6"))
        assert [q.name for q in suite] == ["Q1", "Q6"]

"""Tests for latency records and collection."""

import pytest

from repro.metrics import LatencyCollector, LatencyRecord
from repro.metrics.latency import query_key


def record(name="q", sf=3.0, arrival=0.0, completion=1.0, base=0.5, qid=0):
    return LatencyRecord(
        query_id=qid,
        name=name,
        scale_factor=sf,
        arrival_time=arrival,
        completion_time=completion,
        cpu_seconds=0.1,
        base_latency=base,
    )


class TestLatencyRecord:
    def test_latency(self):
        assert record(arrival=1.0, completion=3.5).latency == pytest.approx(2.5)

    def test_slowdown(self):
        assert record(completion=1.0, base=0.5).slowdown == pytest.approx(2.0)

    def test_with_base(self):
        rebased = record(base=float("nan")).with_base(0.25)
        assert rebased.slowdown == pytest.approx(4.0)


class TestLatencyCollector:
    def test_grouping_by_scale_factor(self):
        collector = LatencyCollector()
        collector.add(record(sf=3.0))
        collector.add(record(sf=30.0))
        collector.add(record(sf=3.0))
        groups = collector.by_scale_factor()
        assert len(groups[3.0]) == 2
        assert len(groups[30.0]) == 1

    def test_grouping_by_query(self):
        collector = LatencyCollector()
        collector.add(record(name="Q1"))
        collector.add(record(name="Q6"))
        collector.add(record(name="Q1"))
        assert len(collector.by_query()["Q1"]) == 2

    def test_filter(self):
        collector = LatencyCollector()
        collector.add(record(completion=1.0))
        collector.add(record(completion=2.0))
        slow = collector.filter(lambda r: r.latency > 1.5)
        assert len(slow) == 1

    def test_queries_per_second(self):
        collector = LatencyCollector()
        for _ in range(10):
            collector.add(record())
        assert collector.queries_per_second(5.0) == pytest.approx(2.0)
        assert collector.queries_per_second(0.0) == 0.0

    def test_apply_bases(self):
        collector = LatencyCollector()
        collector.add(record(name="Q1", sf=3.0, base=float("nan")))
        rebased = collector.apply_bases({query_key("Q1", 3.0): 0.5})
        assert rebased.records[0].slowdown == pytest.approx(2.0)

    def test_apply_bases_missing_key_keeps_record(self):
        collector = LatencyCollector()
        collector.add(record(name="Q9", sf=3.0, base=0.25))
        rebased = collector.apply_bases({})
        assert rebased.records[0].base_latency == 0.25


class TestQueryKey:
    def test_format(self):
        assert query_key("Q1", 3.0) == "Q1@3"
        assert query_key("Q1", 0.5) == "Q1@0.5"


class TestArraysRoundtrip:
    """The compact wire format used for process-pool handoff."""

    def _collector(self):
        collector = LatencyCollector()
        collector.add(record(name="Q1", sf=3.0, arrival=0.1, completion=0.7, qid=0))
        collector.add(
            record(name="Q6", sf=30.0, arrival=0.2, completion=1.9, qid=1)
        )
        # NaN base latency (rebased later by apply_bases) must survive.
        collector.add(record(name="Q1", sf=3.0, base=float("nan"), qid=2))
        # Exercise floats with no short decimal form.
        collector.add(
            record(
                name="Q13",
                sf=0.1,
                arrival=1.0 / 3.0,
                completion=2.0 / 3.0,
                base=0.1 + 0.2,
                qid=3,
            )
        )
        return collector

    def test_lossless_roundtrip(self):
        original = self._collector()
        restored = LatencyCollector.from_arrays(original.to_arrays())
        # repr covers every float exactly; NaN != NaN breaks ==.
        assert [repr(r) for r in restored.records] == [
            repr(r) for r in original.records
        ]

    def test_empty_collector(self):
        restored = LatencyCollector.from_arrays(LatencyCollector().to_arrays())
        assert len(restored) == 0

    def test_name_table_deduplicates(self):
        _, (names, name_ids), *_ = self._collector().to_arrays()
        assert names == ["Q1", "Q6", "Q13"]
        assert name_ids.tolist() == [0, 1, 0, 2]

    def test_restored_collector_still_works(self):
        restored = LatencyCollector.from_arrays(self._collector().to_arrays())
        rebased = restored.apply_bases({query_key("Q1", 3.0): 0.25})
        groups = restored.by_scale_factor()
        assert len(groups[3.0]) == 2
        assert rebased.records[2].base_latency == pytest.approx(0.25)

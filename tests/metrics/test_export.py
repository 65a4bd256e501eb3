"""Tests for CSV/JSON result export."""

import csv
import json
import math

from repro.metrics.export import (
    latency_records_to_csv,
    rows_to_csv,
    rows_to_json,
    trace_to_csv,
)
from repro.simcore import MorselSpan

from tests.metrics.test_latency import record


class TestRowsToCsv:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = rows_to_csv(rows, tmp_path / "out.csv")
        with path.open() as handle:
            got = list(csv.DictReader(handle))
        assert got == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_heterogeneous_keys(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = rows_to_csv(rows, tmp_path / "out.csv")
        with path.open() as handle:
            got = list(csv.DictReader(handle))
        assert got[0]["b"] == ""
        assert got[1]["b"] == "3"

    def test_empty(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv")
        assert path.read_text() == "\r\n" or path.read_text() == "\n"


class TestRowsToJson:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1.5, "b": "x"}]
        path = rows_to_json(rows, tmp_path / "out.json")
        assert json.loads(path.read_text()) == [{"a": 1.5, "b": "x"}]


class TestLatencyExport:
    def test_fields(self, tmp_path):
        path = latency_records_to_csv([record()], tmp_path / "lat.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert float(rows[0]["slowdown"]) == 2.0
        assert float(rows[0]["latency"]) == 1.0


class TestTraceExport:
    def test_fields(self, tmp_path):
        span = MorselSpan(
            worker_id=1,
            start=0.5,
            end=0.75,
            query_id=3,
            pipeline_index=2,
            phase="default",
            tuples=100,
        )
        path = trace_to_csv([span], tmp_path / "trace.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["phase"] == "default"
        assert math.isclose(float(rows[0]["duration"]), 0.25)


class TestSharingStatsExport:
    def test_rows_and_csv(self, tmp_path):
        from repro.metrics.export import sharing_stats_rows, sharing_stats_to_csv
        from repro.sharing import SharingStats

        stats = SharingStats(folds=2, attached_queries=5, cache_hits=1)
        rows = sharing_stats_rows(stats, label="shard0")
        assert rows == [
            {
                "surface": "shard0",
                "attached_queries": 5,
                "cache_evictions": 0,
                "cache_hits": 1,
                "folds": 2,
                "replay_fallbacks": 0,
            }
        ]
        path = sharing_stats_to_csv(
            {"total": stats.merge(stats), "shard0": stats},
            tmp_path / "sharing.csv",
        )
        with path.open() as handle:
            got = list(csv.DictReader(handle))
        # Sorted-label order: shard0 before total; total is the merge.
        assert [row["surface"] for row in got] == ["shard0", "total"]
        assert got[1]["folds"] == "4"
        assert got[1]["attached_queries"] == "10"

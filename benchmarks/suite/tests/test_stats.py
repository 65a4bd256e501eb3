import statistics

import pytest

from benchmarks.suite import stats


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.highest_supported_percentile(n)
    assert q == expected
    if q is not None:
        assert round(n * (100.0 - q) / 100.0, 6) >= stats.MIN_SAMPLES_BEYOND


def test_summary_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 201)]
    summary = stats.summarize(values)
    assert summary["n"] == 200
    assert summary["median"] == statistics.median(values)
    assert summary["tail_q"] == 95.0
    assert summary["tail"] == pytest.approx(190.05)
    assert "tail" not in stats.summarize(values[:20])
    assert stats.summarize([]) == {"n": 0}


def test_relative_gap():
    assert stats.relative_gap(4.0, 4.0) == 0.0
    assert stats.relative_gap(4.0, 5.0) == 0.25


def test_run_reports_quietest_repetition_and_median_setup():
    from benchmarks.suite.metrics import View, end_to_end_values

    def rep(setup, rss, rate, latencies):
        return {"setup_s": setup, "peak_rss_mb": rss, "host": {"queries_per_s": rate},
                "samples": {"op_latency_ms": latencies}}

    reps = [
        rep(1.0, 50.0, 90.0, [10.0, 12.0, 30.0]),   # median 12
        rep(3.0, 52.0, 100.0, [9.0, 11.0, 40.0]),   # median 11: the quietest
        rep(2.0, 51.0, 60.0, [20.0, 25.0, 26.0]),   # met a slow episode
    ]
    values = end_to_end_values(View(reps, reps[0]))
    assert values == {"setup_s": 2.0, "peak_rss_mb": 51.0,
                      "queries_per_s": 100.0, "op_latency_p50_ms": 11.0}
    # A repetition that samples its throughput (serve_threaded's bursts)
    # counts with the median of its samples.
    bursts = [dict(r, host={}, samples={"queries_per_s": s, "op_latency_ms": [1.0]})
              for r, s in zip(reps, ([30.0, 34.0], [20.0, 22.0], [33.0, 37.0]))]
    assert end_to_end_values(View(bursts, bursts[0]))["queries_per_s"] == 35.0

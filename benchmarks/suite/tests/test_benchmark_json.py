import json
import re

from benchmarks.suite import metrics, run, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_registry():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["run_seconds"] == run.NOMINAL_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry == {"name": entry["name"], "why": workloads.load(entry["name"]).WHY}
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.per_layer_definitions()
    ]


def test_benchmark_json_is_inside_the_contracts_limits():
    spec = _spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert 0.0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    # 4 + 22 runs per workload, inside 3420 s.
    assert (run.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_the_twelve_issue_metrics_are_all_reported():
    reported = {m.name for m in metrics.END_TO_END} | set(metrics.WORKLOAD_METRICS)
    assert {"setup_s", "peak_rss_mb", "queries_per_s", "sim_tasks_per_s",
            "short_latency_p50_ms", "tune_cycle_s", "virt_mean_slowdown",
            "virt_short_p95_ms", "virt_latency_class_p99_ms",
            "virt_tuned_slowdown_ratio", "virt_survivor_p95_ms",
            "virt_work_saved_frac"} <= reported

"""The memoized isolated-latency baseline of the experiment drivers."""

from repro.experiments import common
from repro.experiments.common import ExperimentConfig, measure_isolated_latencies
from repro.metrics.latency import query_key
from repro.runtime.simulated import SimulatedBackend
from repro.workloads import tpch_query


def test_isolated_latencies_are_memoized_per_config(monkeypatch):
    monkeypatch.setattr(common, "_ISOLATED_LATENCY_CACHE", {})
    executed = []
    execute = SimulatedBackend.execute

    def counting(self, workload, *args, **kwargs):
        executed.append(len(workload))
        return execute(self, workload, *args, **kwargs)

    monkeypatch.setattr(SimulatedBackend, "execute", counting)
    queries = [tpch_query("Q6", 3.0), tpch_query("Q1", 3.0)]
    config = ExperimentConfig(n_workers=4)

    first = measure_isolated_latencies(queries, config)
    assert len(executed) == 2
    measured = dict(first)
    second = measure_isolated_latencies(queries, config)
    assert len(executed) == 2  # served from the memo
    assert second == measured
    # A caller's edits to either returned dict do not reach the memo.
    first[query_key("Q6", 3.0)] = -1.0
    second[query_key("Q1", 3.0)] = -1.0
    assert measure_isolated_latencies(queries, config) == measured
    # Another config is another baseline: measured afresh.
    measure_isolated_latencies(queries, config.with_options(n_workers=2))
    assert len(executed) == 4

import os

from benchmarks.suite import metrics, run
from benchmarks.suite.tests.conftest import SMOKE_SCALE


def test_each_repetition_runs_in_its_own_process():
    """The warm-pool singleton and the isolated-latency memo are process
    state: with one subprocess per repetition they cannot cross workloads
    (nor reach this process)."""
    from repro.experiments import common, pool

    pool_before = pool._POOL
    memo_before = dict(common._ISOLATED_LATENCY_CACHE)
    process = run.spawn("process_epochs", 1, SMOKE_SCALE, traced=False)
    kernel = run.spawn("kernel_sim", 1, SMOKE_SCALE, traced=False)
    assert len({process["pid"], kernel["pid"], os.getpid()}) == 3
    assert pool._POOL is pool_before
    assert common._ISOLATED_LATENCY_CACHE == memo_before
    # The pool was cold in its own child, and no other child had one.
    assert process["layer"]["pool.cold_start_s"] > 0.0
    assert "pool.cold_start_s" not in kernel["layer"]
    assert process["failed"] == kernel["failed"] == 0


def test_traced_run_changes_no_exact_quantity_and_attributes_its_wall():
    untraced = run.spawn("cluster_tenants", 2, SMOKE_SCALE, traced=False)
    traced = run.spawn("cluster_tenants", 2, SMOKE_SCALE, traced=True)
    merged = run.WorkloadRun("cluster_tenants", [untraced], traced)
    assert merged.problems == [] and merged.correct
    assert traced["exact"] == untraced["exact"]
    view = merged.view
    wall = view.total_s("loadgen.root")
    assert abs(view.root_self_sum() - wall) <= 0.02 * wall
    assert view.unattributed_frac() <= 0.10
    values = merged.per_layer()
    assert set(values) == {m.name for m in metrics.per_layer_definitions()}
    assert values["admission.quota_scan_s"] > 0.0
    assert values["engine.run_morsel_calls"] == 0.0  # model environment
    assert values["process.pipe_bytes_out"] == 0.0
    assert values["virt_latency_class_p99_ms"] == untraced["exact"]["virt_latency_class_p99_ms"]
    assert (run.ROOT / traced["trace"]["file"]).is_file()


def test_a_traced_process_epoch_attributes_the_workers_side():
    """The epoch runs in a pool worker; its tracer's totals come back."""
    untraced = run.spawn("process_epochs", 4, SMOKE_SCALE, traced=False)
    traced = run.spawn("process_epochs", 4, SMOKE_SCALE, traced=True)
    merged = run.WorkloadRun("process_epochs", [untraced], traced)
    assert merged.problems == [] and merged.correct
    values = merged.per_layer()
    assert values["engine.run_morsel_calls"] > 0.0
    assert values["core.decide_calls"] >= values["core.tasks_executed"] > 0.0
    assert values["process.pipe_bytes_in"] > values["process.pipe_bytes_out"] > 0.0
    # What is left of the parent's wait is dispatch, framing and the pipe.
    assert 0.0 <= values["pool.call_s"] < values["engine.run_morsel_s"]
    shares = merged.view.layer_shares()
    assert shares["engine"] > 0.5 > shares["pool"]


def test_a_tampered_exact_quantity_fails_the_run():
    rep = run.spawn("lifecycle_churn", 3, SMOKE_SCALE, traced=False)
    assert rep["failed"] == 0
    other = dict(rep, exact=dict(rep["exact"], virt_survivor_p95_ms=1.0))
    merged = run.WorkloadRun("lifecycle_churn", [rep, other])
    assert not merged.correct
    assert "virt_survivor_p95_ms" in merged.problems[0]

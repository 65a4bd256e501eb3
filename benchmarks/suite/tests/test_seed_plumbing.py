import inspect
from collections import Counter

from benchmarks.suite import loadgen, run
from benchmarks.suite.tests.conftest import SMOKE_SCALE


def _names(workload):
    return [(round(at, 9), spec.name, spec.scale_factor) for at, spec in workload]


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, _, _ = loadgen.paper_workload(7, 2, 8, 0.9)
    b, _, _ = loadgen.paper_workload(7, 2, 8, 0.9)
    c, _, _ = loadgen.paper_workload(8, 2, 8, 0.9)
    assert _names(a) == _names(b)
    assert _names(a) != _names(c)
    for make in (
        lambda seed: loadgen.burst_names(seed, 3),
        lambda seed: loadgen.probe_names(seed, 5),
        lambda seed: loadgen.process_epoch(seed, 2, 2, 2, 0.002),
        lambda seed: loadgen.zipf_epoch(seed, 1, 60, 0.001),
        lambda seed: _names(loadgen.tenant_epoch(seed, 0, 2, 1, 4.0)),
        lambda seed: _names(loadgen.bursty_epoch(seed, 0, 1, 4)),
        lambda seed: loadgen.churn_epoch(seed, 0, 1, 1, 4.0)[1:],
        lambda seed: loadgen.fault_seed(seed, 1, 2),
    ):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_seeds_reorder_a_fixed_multiset():
    """Stratified mixes: every seed costs the same total work."""
    def composition(workload):
        return Counter((spec.name, spec.scale_factor) for _, spec in workload)

    assert composition(loadgen.paper_workload(1, 2, 8, 0.9)[0]) == composition(
        loadgen.paper_workload(2, 2, 8, 0.9)[0]
    )
    assert composition(loadgen.tenant_epoch(1, 0, 2, 1, 4.0)) == composition(
        loadgen.tenant_epoch(2, 5, 2, 1, 4.0)
    )
    assert Counter(loadgen.burst_names(1, 3)) == Counter(loadgen.burst_names(2, 3, 1))
    # SF3 : SF30 = 3 : 1, as in the paper.
    by_sf = Counter(spec.scale_factor for _, spec in loadgen.paper_workload(1, 1, 8, 0.9)[0])
    assert by_sf[3.0] == 3 * by_sf[30.0] == 66


def test_epochs_of_one_seed_differ():
    assert loadgen.zipf_epoch(1, 0, 60, 0.001) != loadgen.zipf_epoch(1, 1, 60, 0.001)


def test_the_program_sees_generated_inputs_only():
    """No workload hands ``seed`` to the program: it goes to loadgen, and
    the program's own seeds are constants of the workload."""
    from benchmarks.suite import metrics, workloads

    for name in metrics.WORKLOADS:
        assert "seed=seed" not in inspect.getsource(workloads.load(name)), name


def test_exact_metrics_repeat_at_one_seed_and_move_with_the_seed():
    first = run.spawn("kernel_sim", 5, SMOKE_SCALE, traced=False)
    again = run.spawn("kernel_sim", 5, SMOKE_SCALE, traced=False)
    other = run.spawn("kernel_sim", 6, SMOKE_SCALE, traced=False)
    assert first["exact"] == again["exact"]
    assert first["exact"]["records"] != other["exact"]["records"]
    assert first["failed"] == again["failed"] == other["failed"] == 0
    assert run.exact_mismatches([first, again]) == []
    assert "records" in run.exact_mismatches([first, other])

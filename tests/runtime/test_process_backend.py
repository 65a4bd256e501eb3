"""Tests for the GIL-free process backend.

The load-bearing claim mirrors the simulated backend's: shipping an
epoch to a warm worker process changes *nothing* about the results.
Every latency record, counter and clock value must be bit-identical to
running the same submissions through :class:`SimulatedBackend` in this
process.
"""

import multiprocessing
import os
import subprocess
import sys
from functools import partial

import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.errors import ReproError
from repro.runtime import BackendState, ProcessBackend, SimulatedBackend
from repro.runtime.faults import (
    OPERATOR_RAISE,
    WORKER_DEATH,
    WORKER_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.simcore import RngFactory
from repro.workloads import generate_workload, tpch_mix

from tests.conftest import make_query


def reference_workload(duration=1.0):
    mix = tpch_mix(names=("Q1", "Q6"))
    rng = RngFactory(7).stream("workload")
    return generate_workload(mix, rate=10.0, duration=duration, rng=rng)


def scheduler_factory(n_workers=2):
    # functools.partial over make_scheduler: picklable, unlike a lambda.
    return partial(
        make_scheduler, "stride", SchedulerConfig(n_workers=n_workers)
    )


def make_backend(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("noise_sigma", 0.0)
    return ProcessBackend(scheduler_factory(), **kwargs)


def _record_reprs(records):
    return [repr(r) for r in records]


class _TallyEnv:
    """Picklable, deterministic environment that produces results.

    Morsels cost ``tuples / rate`` virtual seconds; a query's value is
    its arrival index and executed tuple count, pushed to its channel
    as one terminal chunk, so folds and the fragment cache have
    something to replay.
    """

    def __init__(self, rate: float = 2.0e7) -> None:
        self.rate = rate
        self.tuples = {}
        self.channels = {}

    def open_channel(self, query_id, channel):
        self.channels[query_id] = channel

    def run_morsel(self, task_set, tuples):
        query_id = task_set.resource_group.query_id
        self.tuples[query_id] = self.tuples.get(query_id, 0) + tuples
        return tuples / self.rate

    def finish_query(self, query_id):
        value = (query_id, self.tuples.pop(query_id, 0))
        self.channels[query_id].put_final(value)
        return value

    def discard_query(self, query_id):
        self.tuples.pop(query_id, None)


class TestBitIdenticalToSimulated:
    def test_drain_matches_simulated_backend(self):
        workload = reference_workload()

        simulated = SimulatedBackend(
            scheduler_factory(4), seed=7, noise_sigma=0.05
        )
        for arrival, spec in workload:
            simulated.submit(spec, at=arrival)
        reference = simulated.drain()

        backend = ProcessBackend(scheduler_factory(4), seed=7, noise_sigma=0.05)
        for arrival, spec in workload:
            backend.submit(spec, at=arrival)
        records = backend.drain()
        backend.shutdown()

        assert _record_reprs(records) == _record_reprs(reference)
        assert backend.clock.now() == simulated.clock.now()
        assert backend.last_tasks_executed == simulated.last_result.tasks_executed
        assert (
            backend.last_events_processed
            == simulated.last_result.events_processed
        )

    def test_multi_epoch_matches_simulated_backend(self):
        def run(backend):
            out = []
            a = backend.submit(make_query("a", work=0.004))
            b = backend.submit(make_query("b", work=0.002), at=0.01)
            backend.drain()
            out.append((repr(backend.records[a]), repr(backend.records[b])))
            c = backend.submit(make_query("c", work=0.004))
            backend.drain()
            out.append(repr(backend.records[c]))
            return out

        simulated = SimulatedBackend(scheduler_factory(), seed=7, noise_sigma=0.0)
        process = make_backend()
        try:
            assert run(process) == run(simulated)
        finally:
            process.shutdown()


    def test_sharing_epochs_under_faults_match_simulated_backend(self):
        # A process-level worker death, then seeded operator faults and
        # stalls, over three sharing epochs: folds (a raising leader
        # fails its members), fragment-cache hits and plain queries.
        death = FaultSpec(kind=WORKER_DEATH)
        plan = FaultPlan(
            faults=(death,)
            + FaultPlan.random(
                seed=3,
                n_queries=5,
                kinds=(OPERATOR_RAISE, WORKER_STALL),
                n_faults=4,
                max_morsel=3,
            ).faults
        )
        shapes = {
            name: make_query(name, work=work)
            for name, work in (
                ("a", 0.004), ("b", 0.002), ("c", 0.006), ("d", 0.003), ("e", 0.005)
            )
        }
        epochs = ("abacb", "abdda", "ecaeb")

        def run(backend, **install):
            backend.install_faults(plan, **install)
            out = []
            for names in epochs:
                jobs = [
                    backend.submit(shapes[name], at=0.001 * index)
                    for index, name in enumerate(names)
                ]
                out.append(_record_reprs(backend.drain()))
                out.append([
                    repr(None if backend.failed(job) else backend.result(job))
                    for job in jobs
                ])
            return out, backend.sharing_stats.as_dict(), backend.fault_injector.fired

        options = dict(
            seed=7, noise_sigma=0.05, environment_factory=_TallyEnv, sharing=True
        )
        # Virtual time has no process to kill: the reference skips the
        # death, which the process backend spends on its first epoch.
        reference = run(
            SimulatedBackend(scheduler_factory(), **options),
            skip_kinds=(WORKER_DEATH,),
        )
        process = ProcessBackend(scheduler_factory(), **options)
        try:
            outcome, stats, fired = run(process)
        finally:
            process.shutdown()
        assert process.pool_rebuilds == 1
        assert outcome == reference[0]
        assert stats == reference[1]
        assert fired == [(0, WORKER_DEATH, "", 0)] + reference[2]
        # The case exercises what it claims to.
        assert stats["folds"] and stats["cache_hits"]
        assert {kind for _, kind, _, _ in reference[2]} == {
            OPERATOR_RAISE,
            WORKER_STALL,
        }
        assert any("InjectedFault" in line for line in outcome[0])


class TestEpochSemantics:
    def test_out_of_order_arrivals_map_to_job_ids(self):
        backend = make_backend()
        late = backend.submit(make_query("late", work=0.004), at=0.05)
        early = backend.submit(make_query("early", work=0.004), at=0.0)
        backend.drain()
        backend.shutdown()
        assert backend.records[late].name == "late"
        assert backend.records[early].name == "early"

    def test_negative_arrival_rejected(self):
        backend = make_backend()
        with pytest.raises(ReproError):
            backend.submit(make_query("q"), at=-0.5)

    def test_empty_drain_is_noop(self):
        backend = make_backend()
        assert backend.drain() == []
        backend.shutdown()

    def test_clock_tracks_last_epoch_end(self):
        backend = make_backend()
        backend.submit(make_query("q", work=0.004))
        backend.drain()
        backend.shutdown()
        assert backend.clock.now() > 0.0


class TestLifecycle:
    def test_state_machine(self):
        backend = make_backend()
        assert backend.state is BackendState.NEW
        backend.start()
        assert backend.state is BackendState.RUNNING
        backend.shutdown()
        assert backend.state is BackendState.CLOSED
        with pytest.raises(ReproError):
            backend.start()

    def test_shutdown_leaves_shared_pool_running(self):
        from repro.experiments.pool import get_pool

        backend = make_backend()
        backend.start()
        pool = get_pool()
        backend.shutdown()
        # The warm pool is shared state; closing a backend must not
        # tear it down under other users.
        assert get_pool() is pool
        assert pool.call(len, (1, 2, 3)) == 3

    def test_shutdown_drops_pending(self):
        backend = make_backend()
        backend.submit(make_query("q"))
        backend.shutdown()
        assert backend.completed_count == 0


class TestEngineEnvironmentPath:
    def test_worker_regenerates_database_from_profile(self):
        """An engine-backed drain ships (sf, seed), not relation data."""
        from repro.engine import ENGINE_QUERIES
        from repro.runtime.process import engine_environment_factory
        from repro.workloads import tpch_query

        backend = ProcessBackend(
            scheduler_factory(),
            seed=1,
            environment_factory=partial(engine_environment_factory, 0.01, 0),
        )
        job = backend.submit(tpch_query("Q6", 0.01))
        backend.drain()
        backend.shutdown()
        record = backend.records[job]
        assert record.name == "Q6"
        assert record.latency > 0.0
        # The engine actually ran: a result row came back for the job.
        assert backend.result(job) is not None
        assert "Q6" in ENGINE_QUERIES


#: Run in an interpreter of its own: a forked worker inherits every
#: module this test process has imported, which would hide a miss.
_WARM_WORKER_SCRIPT = """
import sys
from functools import partial

from repro.core import SchedulerConfig, make_scheduler
from repro.experiments.pool import SweepPool, register_warmup
from repro.runtime.process import (
    ProcessBackend,
    engine_environment_factory,
    warm_engine_database,
)
from repro.workloads import tpch_query


def loaded():
    return [name for name in sys.modules if name.startswith("repro")]


register_warmup(warm_engine_database, 0.003, 0)
pool = SweepPool(max_workers=1)
before = set(pool.call(loaded))
backend = ProcessBackend(
    partial(make_scheduler, "tuning", SchedulerConfig(n_workers=2)),
    seed=1,
    environment_factory=partial(engine_environment_factory, 0.003, 0),
    pool=pool,
)
job = backend.submit(tpch_query("Q6", 0.003))
backend.drain()
assert backend.result(job) is not None
print(sorted(set(pool.call(loaded)) - before))
pool.shutdown()
"""


class TestWarmWorker:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the script's helper is inherited, not importable",
    )
    def test_first_epoch_in_a_warm_worker_imports_nothing(self):
        """What an epoch uses is imported at worker spawn, so the first
        epoch a worker serves costs what its later ones do (the tuning
        scheduler's package alone is ~35 ms)."""
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_WORKER_SCRIPT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

"""The same protocol fuzz, parametrized over every execution backend.

Random workloads (seeded — fully reproducible) run through the
virtual-time backend, the real-thread backend, and the process backend;
all must satisfy the backend-independent protocol invariants: every
query completes exactly once with a positive latency, job ids map to the
right queries, and the backend's bookkeeping agrees with itself.
"""

import random
import threading
from functools import partial

import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.core.task import TaskSet
from repro.engine import generate_tpch
from repro.errors import (
    AdmissionError,
    InjectedFault,
    QueryCancelledError,
    QueryFailedError,
)
from repro.runtime import ProcessBackend, SimulatedBackend, ThreadedBackend
from repro.runtime.faults import OPERATOR_RAISE, FaultPlan, FaultSpec
from repro.server import AnalyticsServer

from tests.conftest import make_query


class _CountingEnv:
    """Picklable counting environment for the process backend.

    One epoch runs single-threaded inside a worker process, so no lock
    is needed; the instance crosses the pipe whole after the drain
    (``return_environment=True``).
    """

    def __init__(self, rate: float = 2.0e7) -> None:
        self.rate = rate
        self.executed_tuples = 0

    def run_morsel(self, task_set: TaskSet, tuples: int) -> float:
        self.executed_tuples += tuples
        return tuples / self.rate


class _Env(_CountingEnv):
    """Thread-safe variant for the in-process backends."""

    def __init__(self, rate: float = 2.0e7) -> None:
        super().__init__(rate)
        self._lock = threading.Lock()

    def run_morsel(self, task_set: TaskSet, tuples: int) -> float:
        with self._lock:
            return super().run_morsel(task_set, tuples)


def random_workload(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    return [
        make_query(
            f"q{i}",
            work=rng.choice([0.002, 0.004, 0.008]),
            pipelines=rng.randint(1, 3),
            finalize=rng.choice([0.0, 1e-5]),
        )
        for i in range(n)
    ]


def make_simulated(n_workers, env):
    return SimulatedBackend(
        lambda: make_scheduler("stride", SchedulerConfig(n_workers=n_workers)),
        noise_sigma=0.0,
        environment_factory=lambda: env,
    )


def make_threaded(n_workers, env):
    return ThreadedBackend(
        make_scheduler("stride", SchedulerConfig(n_workers=n_workers)), env
    )


def make_process(n_workers, env=None, return_environment=False):
    # ``env`` is unused: the worker builds its own from the factory.
    return ProcessBackend(
        partial(make_scheduler, "stride", SchedulerConfig(n_workers=n_workers)),
        noise_sigma=0.0,
        environment_factory=_CountingEnv,
        return_environment=return_environment,
    )


def run_simulated(specs, n_workers):
    env = _Env()
    backend = make_simulated(n_workers, env)
    jobs = [backend.submit(q) for q in specs]
    backend.drain()
    backend.shutdown()
    return backend, jobs, env


def run_threaded(specs, n_workers):
    env = _Env()
    backend = make_threaded(n_workers, env)
    try:
        backend.start()
        jobs = [backend.submit(q) for q in specs]
        backend.drain()
    finally:
        backend.shutdown()
    return backend, jobs, env


def run_process(specs, n_workers):
    backend = make_process(n_workers, return_environment=True)
    try:
        backend.start()
        jobs = [backend.submit(q) for q in specs]
        backend.drain()
    finally:
        backend.shutdown()
    return backend, jobs, backend.last_environment


@pytest.mark.parametrize("runner", [run_simulated, run_threaded, run_process])
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_invariants_hold_on_both_backends(runner, seed):
    specs = random_workload(seed)
    n_workers = random.Random(seed * 31).randint(2, 6)
    backend, jobs, env = runner(specs, n_workers)

    total = sum(p.tuples for q in specs for p in q.pipelines)
    assert env.executed_tuples == total
    assert backend.completed_count == len(specs)
    assert backend.pending_count == 0
    for job, spec in zip(jobs, specs):
        record = backend.poll(job)
        assert record is not None
        assert record.name == spec.name
        assert record.latency > 0.0


# One settlement path: whichever way a query ends, every backend leaves
# the same record shape, failure class, channel error and drain report.
# outcome -> (cancelled, failed, error-text prefix, failure class)
OUTCOMES = {
    "cancelled_while_pending": (True, False, "", None),
    "shed_while_pending": (False, True, "AdmissionError: shed by test", AdmissionError),
    "raising_morsel": (False, True, "InjectedFault: ", InjectedFault),
}


@pytest.mark.parametrize("make", [make_simulated, make_threaded, make_process])
@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
def test_terminal_outcomes_settle_identically(make, outcome):
    cancelled, failed, error_prefix, failure_class = OUTCOMES[outcome]
    backend = make(2, _Env())
    if outcome == "raising_morsel":
        backend.install_faults(
            FaultPlan(
                faults=(FaultSpec(kind=OPERATOR_RAISE, query="victim", morsel=0),)
            )
        )
    try:
        # Nothing runs before the first drain (the threaded backend is
        # not started yet), so the victim is still pending here.
        keeper = backend.submit(make_query("keeper", work=0.004))
        victim = backend.submit(make_query("victim", work=0.004))
        if outcome == "cancelled_while_pending":
            assert backend.cancel(victim)
        elif outcome == "shed_while_pending":
            assert backend.fail(victim, AdmissionError("shed by test"))
        reported = backend.drain() + backend.drain()
    finally:
        backend.shutdown()

    record = backend.poll(victim)
    assert [r for r in reported if r.name == "victim"] == [record]
    assert (record.cancelled, record.failed) == (cancelled, failed)
    assert record.error.startswith(error_prefix) and bool(record.error) == failed
    assert record.completion_time >= record.arrival_time
    if outcome != "raising_morsel":
        assert record.cpu_seconds == 0.0
    assert backend.progress(victim)["cancelled"] == cancelled
    assert backend.failed(victim) == failed
    failure = backend.failure(victim)
    if failure_class is None:
        assert failure is None
        with pytest.raises(QueryCancelledError):
            backend.result(victim)
        with pytest.raises(QueryCancelledError):
            victim.fetch()
    else:
        assert type(failure) is failure_class
        assert record.error == f"{failure_class.__name__}: {failure}"
        for read in (lambda: backend.result(victim), victim.fetch):
            with pytest.raises(QueryFailedError) as excinfo:
                read()
            assert type(excinfo.value.__cause__) is failure_class
            assert record.error in str(excinfo.value)
    assert victim not in backend.results
    # The sibling is untouched.
    survivor = backend.poll(keeper)
    assert not (survivor.cancelled or survivor.failed)
    assert survivor.cpu_seconds > 0.0
    assert backend.pending_count == 0


@pytest.mark.parametrize("backend", ["simulated", "threaded", "process"])
def test_successive_drains_report_each_settled_job_once(backend):
    """One drained-record ledger: whichever way a job settles — run,
    retried, cancelled while pending, served to a fold member or from
    the fragment cache — exactly one drain reports its record."""
    server = AnalyticsServer(
        scheduler="stride",
        n_workers=2,
        seed=5,
        database=generate_tpch(scale_factor=0.003, seed=5),
        backend=backend,
        sharing=True,
    )
    server.install_faults(
        FaultPlan(faults=(FaultSpec(kind=OPERATOR_RAISE, query="Q1", morsel=0),))
    )
    try:
        # Nothing runs before the first drain (the threaded server is not
        # started yet): the second Q6 attaches to the first, and the Q18
        # is cancelled while pending.  Q1's first attempt fails and is
        # retried within the drain.
        first = [
            server.submit(name, retries=1 if name == "Q1" else 0)
            for name in ("Q6", "Q6", "Q1", "Q18")
        ]
        assert server.cancel(first[3])
        reported = [server.drain()]
        # A repeat of the folded Q6: a cache hit on the epoch backends
        # (the threaded backend keeps no fragment cache and runs it).
        second = [server.submit("Q6"), server.submit("Q3")]
        assert server.cancel(second[1])
        reported += [server.drain(), server.drain()]
    finally:
        server.shutdown()
    records = list(server.backend.records.values())
    assert sorted(id(r) for batch in reported for r in batch) == sorted(map(id, records))
    assert [len(batch) for batch in reported] == [5, 2, 0]
    assert server.retries_used == 1
    stats = server.sharing_stats.as_dict()
    assert stats["attached_queries"] == 1
    assert stats["cache_hits"] == (0 if backend == "threaded" else 1)

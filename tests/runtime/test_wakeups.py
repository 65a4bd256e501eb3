"""Threaded waits end on the event that ends them, never on a timer.

A streaming query with more chunks than its channel holds parks its
producer inside the morsel until somebody consumes.  ``drain()``,
``wait()`` and a fold member's ``wait()`` on a streaming leader must
each keep the channel, which wakes the producer, and finish without one
condition wait running out its timeout.  A submitter that
``admission="block"`` holds back sleeps on the same condition, woken by
a settle or by shutdown, and so does a reader of a live stream, woken by
a cancel or a shutdown; before the backend starts a read never sleeps.
The backend's condition is wrapped in one that counts the waits a timer
ended, so the test reads no clock; each wait is bounded there, so a lost
wake-up fails the count instead of hanging the suite.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.engine import generate_tpch
from repro.engine.execution import EngineEnvironment, engine_query_spec
from repro.errors import (
    ChannelClosedError,
    QueryCancelledError,
    ReproError,
    WorkerFailedError,
)
from repro.runtime import ThreadedBackend
from repro.server import AnalyticsServer

from tests.conftest import make_query
from tests.runtime.test_threaded_backend import ThreadSafeCountingEnv

CAPACITY = 2
#: Longest one wrapped wait sleeps: far longer than any wake-up takes.
LOST_WAKEUP_BOUND = 10.0
#: A wait() that never completes fails the test instead of hanging it.
WAIT_LIMIT = 120.0


class CountingCondition:
    """A condition that counts the waits its timeout ended."""

    def __init__(self, inner):
        self.inner = inner
        self.timed_out = 0
        #: Set once any thread sleeps on the condition.
        self.slept = threading.Event()

    def __enter__(self):
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)

    def wait(self, timeout=None):
        self.slept.set()
        woke = self.inner.wait(min(LOST_WAKEUP_BOUND, timeout or LOST_WAKEUP_BOUND))
        if not woke:
            self.timed_out += 1  # the lock is held again here
        return woke

    def notify(self, n=1):
        self.inner.notify(n)

    def notify_all(self):
        self.inner.notify_all()


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_backend(db, n_workers=2, **kwargs):
    backend = ThreadedBackend(
        make_scheduler("stride", SchedulerConfig(n_workers=n_workers, t_max=0.002)),
        EngineEnvironment(db) if db is not None else ThreadSafeCountingEnv(),
        channel_capacity=CAPACITY,
        **kwargs,
    )
    # Before any submit: every channel then shares the wrapped condition.
    backend._done = CountingCondition(backend._done)
    return backend


def expected_qs_rows(db):
    lineitem = db.tables["lineitem"]
    return int(np.count_nonzero(lineitem.column("l_discount") >= 0.05))


def read_rows(backend, job):
    return len(backend.result(job)["l_orderkey"])


def test_drain_is_woken_by_a_full_channel(db):
    backend = make_backend(db)
    try:
        job = backend.submit(engine_query_spec("QS", db))
        backend.drain()
    finally:
        backend.shutdown()
    assert backend._done.timed_out == 0
    assert job.channel.chunks_put > CAPACITY  # the producer had to park
    assert read_rows(backend, job) == expected_qs_rows(db)


def test_wait_is_woken_by_a_full_channel(db):
    backend = make_backend(db)
    backend.start()
    try:
        job = backend.submit(engine_query_spec("QS", db))
        backend.wait(job, timeout=WAIT_LIMIT)
    finally:
        backend.shutdown()
    assert backend._done.timed_out == 0
    assert job.channel.chunks_put > CAPACITY
    assert read_rows(backend, job) == expected_qs_rows(db)


def test_fold_members_wait_is_woken_by_its_streaming_leader(db):
    backend = make_backend(db, sharing=True, sharing_attach_buffer=256)
    try:
        # Both before start(): the second attaches to the first.
        leader = backend.submit(engine_query_spec("QS", db))
        member = backend.submit(engine_query_spec("QS", db))
        backend.start()
        backend.wait(member, timeout=WAIT_LIMIT)
    finally:
        backend.shutdown()
    assert backend._done.timed_out == 0
    stats = backend.sharing_stats.as_dict()
    assert (stats["folds"], stats["attached_queries"], stats["replay_fallbacks"]) == (1, 1, 0)
    assert leader.channel.chunks_put > CAPACITY
    assert read_rows(backend, member) == read_rows(backend, leader) == expected_qs_rows(db)


def test_concurrent_waiters_miss_no_settle_and_drains_report_each_once():
    """More workers than cores, four clients each submitting and waiting
    on their own queries, and a thread switch every few bytecodes: a
    settle that notified before a waiter slept, or a ledger append lost
    to a concurrent drain, shows as a timed-out wait or a wrong count."""
    backend = make_backend(None, n_workers=4)
    clients, per_client = 4, 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        backend.start()
        drained = []

        def client(k):
            for i in range(per_client):
                job = backend.submit(make_query(f"c{k}q{i}", work=0.001))
                backend.wait(job, timeout=WAIT_LIMIT)
                if i % 5 == 0:
                    drained.extend(backend.drain())

        threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        drained.extend(backend.drain())
    finally:
        sys.setswitchinterval(interval)
        backend.shutdown()
    assert backend._done.timed_out == 0
    assert sorted(map(id, drained)) == sorted(map(id, backend.records.values()))
    assert len(drained) == clients * per_client


def make_blocking_server(db):
    server = AnalyticsServer(
        scheduler="stride", n_workers=2, seed=5, database=db,
        backend="threaded", admission="block", max_pending=1,
    )
    server.backend._done = CountingCondition(server.backend._done)
    return server


def test_blocked_submitter_is_woken_by_each_settle(db):
    """``max_pending=1``: every submit after the first sleeps until the
    previous query settles, and that settle's notify is what wakes it."""
    server = make_blocking_server(db)
    try:
        server.start()
        tickets = [server.submit("Q6") for _ in range(5)]
        server.drain()
    finally:
        server.shutdown()
    assert server.backend._done.timed_out == 0
    assert all(server.record(ticket).latency > 0.0 for ticket in tickets)


def test_shutdown_wakes_a_blocked_submitter(db):
    """Never started: the second submit sleeps until shutdown() says
    the backend closed.  The first query was cancelled, so its channel
    has already failed and failing it again at shutdown notifies nobody:
    the shutdown must notify by itself."""
    server = make_blocking_server(db)
    assert server.cancel(server.submit("Q6"))
    assert server.pending_count == 1  # no worker ran its wind-down yet
    errors = []

    def submit():
        try:
            server.submit("Q6")
        except ReproError as exc:
            errors.append(exc)

    submitter = threading.Thread(target=submit)
    submitter.start()
    assert server.backend._done.slept.wait(LOST_WAKEUP_BOUND)
    server.shutdown()
    submitter.join(timeout=2 * LOST_WAKEUP_BOUND)
    assert not submitter.is_alive()
    assert server.backend._done.timed_out == 0
    assert [str(exc) for exc in errors] == ["server shut down while blocked on admission"]


class GatedEnv(ThreadSafeCountingEnv):
    """Holds every morsel until ``gate`` opens, so a query stays in flight."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def run_morsel(self, task_set, tuples):
        self.gate.wait(WAIT_LIMIT)
        return super().run_morsel(task_set, tuples)


@pytest.mark.parametrize(
    "end, error", [("cancel", QueryCancelledError), ("shutdown", ChannelClosedError)]
)
def test_a_live_reader_is_woken_by_the_end_of_its_stream(end, error):
    """A reader waiting on a live stream that has no chunk yet sleeps
    with no timer; the cancel or shutdown that ends the stream wakes it."""
    env = GatedEnv()
    backend = ThreadedBackend(
        make_scheduler("stride", SchedulerConfig(n_workers=2, t_max=0.002)),
        env,
        channel_capacity=CAPACITY,
    )
    backend._done = CountingCondition(backend._done)
    errors = []

    def read():
        try:
            handle.fetch()
        except ReproError as exc:
            errors.append(exc)
        finally:
            env.gate.set()  # let the held morsels finish

    try:
        backend.start()
        handle = backend.submit(make_query("held", work=0.01))
        reader = threading.Thread(target=read)
        reader.start()
        assert backend._done.slept.wait(LOST_WAKEUP_BOUND)
        if end == "cancel":
            assert handle.cancel()
        else:
            backend.shutdown()
        reader.join(timeout=2 * LOST_WAKEUP_BOUND)
        assert not reader.is_alive()
    finally:
        env.gate.set()
        backend.shutdown()
    assert backend._done.timed_out == 0
    assert [type(exc) for exc in errors] == [error]


def test_a_read_before_start_raises_at_once():
    backend = make_backend(None)
    handle = backend.submit(make_query("unstarted"))
    with pytest.raises(ReproError, match="still open"):
        handle.fetch()
    backend.shutdown()
    assert not backend._done.slept.is_set()


def test_a_read_after_a_worker_failure_raises_at_once():
    """A scheduler bug halts every worker; a query submitted afterwards
    never runs, so its reader gets the failure instead of a wait."""
    backend = make_backend(None)

    def broken(worker_id, now):
        raise RuntimeError("scheduler bug")

    backend.scheduler.worker_decide = broken
    backend.start()
    backend.submit(make_query("first"))
    with pytest.raises(WorkerFailedError):
        backend.drain()
    late = backend.submit(make_query("late"))
    with pytest.raises(WorkerFailedError):
        late.fetch()
    with pytest.raises(WorkerFailedError):
        backend.shutdown()
    assert backend._done.timed_out == 0

"""Chaos suite: deterministic fault injection across all backends.

The acceptance tests of the fault-tolerance work:

* an injected operator fault fails *only* the targeted query — every
  concurrent query completes, and on the simulated backend the
  survivors' results are bit-identical to a fault-free run;
* the server keeps serving subsequent submissions without a restart on
  all three backends;
* deadlines expire through the abort protocol as
  :class:`~repro.errors.QueryTimeoutError` (running and queued alike);
* transient failures retry under the server's retry budget, permanent
  ones do not;
* worker death retires and respawns the thread (threaded) or rebuilds
  the process pool and re-runs the lost epoch (process);
* the same :class:`~repro.runtime.faults.FaultPlan` seed produces
  byte-identical failure records and survivor latencies across
  ``PYTHONHASHSEED`` 0, 1 and 2.
"""

import os
import pickle
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.core.morsel_exec import MorselExecutor, MorselExecutorConfig
from repro.core.resource_group import ResourceGroup
from repro.core.task import PipelineState, TaskSet
from repro.engine import generate_tpch
from repro.engine.execution import EngineEnvironment, engine_query_spec
from repro.engine.queries import build_engine_query
from repro.errors import (
    AdmissionError,
    InjectedFault,
    QueryFailedError,
    QueryTimeoutError,
    ReproError,
    UnknownTicketError,
    WorkerFailedError,
)
from repro.runtime import ProcessBackend, ThreadedBackend
from repro.runtime.channel import ResultChannel
from repro.runtime.faults import (
    CONSUMER_GONE,
    OPERATOR_RAISE,
    WORKER_DEATH,
    WORKER_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyEnvironment,
)
from repro.server import AnalyticsServer
from repro.simcore.rng import RngFactory
from repro.simcore.simulator import SimulationEnvironment

from tests.conftest import make_query
from tests.runtime.test_backend_protocol import _CountingEnv


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(db, **kwargs):
    defaults = dict(scheduler="stride", n_workers=2, seed=5, database=db)
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


def operator_fault(query="Q18", morsel=2):
    return FaultPlan(
        faults=(FaultSpec(kind=OPERATOR_RAISE, query=query, morsel=morsel),)
    )


class TestPlanConstruction:
    def test_random_plans_are_reproducible(self):
        kinds = (OPERATOR_RAISE, WORKER_STALL, WORKER_DEATH)
        a = FaultPlan.random(seed=7, n_queries=5, kinds=kinds, n_faults=4)
        b = FaultPlan.random(seed=7, n_queries=5, kinds=kinds, n_faults=4)
        assert a == b
        c = FaultPlan.random(seed=8, n_queries=5, kinds=kinds, n_faults=4)
        assert a != c

    def test_invalid_specs_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ReproError):
            FaultSpec(kind=OPERATOR_RAISE, morsel=-1)
        with pytest.raises(ReproError):
            FaultSpec(kind=WORKER_STALL, stall_seconds=-0.1)
        with pytest.raises(ReproError):
            FaultSpec(kind=CONSUMER_GONE, after_chunks=0)


class TestSimulatedIsolation:
    def test_operator_fault_fails_only_the_target(self, db):
        server = make_server(db)
        server.install_faults(operator_fault())
        victim = server.submit("Q18")
        keeper = server.submit("Q6")
        records = server.run()
        by_name = {r.name: r for r in records}
        assert by_name["Q18"].failed
        assert "InjectedFault" in by_name["Q18"].error
        assert not by_name["Q6"].failed
        assert victim.failed()
        with pytest.raises(QueryFailedError) as excinfo:
            server.result(victim)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert server.result(keeper) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        # The server keeps serving without a restart.
        again = server.submit("Q6")
        server.run()
        assert server.result(again) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        server.shutdown()

    def test_survivors_identical_to_fault_free_run(self, db):
        baseline = make_server(db)
        b_qs = baseline.submit("QS")
        b_q6 = baseline.submit("Q6")
        baseline.submit("Q18")
        baseline.run()

        faulted = make_server(db)
        faulted.install_faults(operator_fault("Q18", morsel=1))
        f_qs = faulted.submit("QS")
        f_q6 = faulted.submit("Q6")
        f_victim = faulted.submit("Q18")
        faulted.run()

        assert f_victim.failed()
        reference = baseline.result(b_qs)
        survivor = faulted.result(f_qs)
        for name in reference:
            np.testing.assert_array_equal(survivor[name], reference[name])
        # Q6 is one float sum added up morsel by morsel, and the morsel
        # split follows measured time (§3.1): a stalled morsel in either
        # run moves the last bit (seen once in five full-suite runs on a
        # noisy host; 300 of 300 runs of the scenario alone agree).
        assert faulted.result(f_q6) == pytest.approx(
            baseline.result(b_q6), rel=1e-12
        )
        baseline.shutdown()
        faulted.shutdown()

    def test_worker_stall_inflates_latency_deterministically(self, db):
        quiet = make_server(db)
        q_ticket = quiet.submit("Q6")
        quiet.run()

        stalled = make_server(db)
        stalled.install_faults(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind=WORKER_STALL,
                        query="Q6",
                        morsel=0,
                        stall_seconds=0.5,
                    ),
                )
            )
        )
        s_ticket = stalled.submit("Q6")
        stalled.run()
        # Virtual time: the stall lands as +0.5s of morsel duration —
        # orders of magnitude above the query's fault-free latency.
        assert not s_ticket.failed()
        assert stalled.record(s_ticket).latency >= 0.5
        assert quiet.record(q_ticket).latency < 0.5
        assert stalled.result(s_ticket) == pytest.approx(
            quiet.result(q_ticket)
        )
        quiet.shutdown()
        stalled.shutdown()

    def test_consumer_gone_fails_only_that_stream(self, db):
        server = make_server(db)
        server.install_faults(
            FaultPlan(
                faults=(
                    FaultSpec(kind=CONSUMER_GONE, query="QS", after_chunks=1),
                )
            )
        )
        victim = server.submit("QS")
        keeper = server.submit("Q6")
        server.run()
        assert victim.channel.failed
        with pytest.raises(ReproError):
            victim.fetch()
        assert server.result(keeper) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        server.shutdown()

    def test_fault_fires_at_most_once(self, db):
        server = make_server(db)
        injector = server.install_faults(operator_fault("Q6", morsel=0))
        first = server.submit("Q6")
        server.run()
        assert first.failed()
        assert len(injector.fired) == 1
        # Same query again: the fault is spent, the query succeeds.
        second = server.submit("Q6")
        server.run()
        assert not second.failed()
        assert len(injector.fired) == 1
        server.shutdown()


class TestFaultMorselIndex:
    def test_startup_probes_and_the_first_default_morsel_are_counted_alike(self):
        """``FaultSpec.morsel`` numbers every executed morsel of a query,
        startup probes included: the wrapper sees each of them once."""
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    FaultSpec(kind=WORKER_STALL, morsel=3, stall_seconds=0.0001),
                    FaultSpec(kind=OPERATOR_RAISE, morsel=6),
                )
            )
        )
        env = injector.wrap(SimulationEnvironment(RngFactory(1), noise_sigma=0.0))
        spec = make_query("q", work=0.05, pipelines=1)
        task_set = TaskSet(spec.pipelines[0], ResourceGroup(spec, 0, 0.0), 0)
        executor = MorselExecutor(MorselExecutorConfig(t_max=0.002, c0=16))

        startup = executor.run_task(task_set, env)
        # 16 + 32 + 64 + 128 (stalled) + 256 + 512 tuples at 1e6 tuples/s:
        # 1.108 ms used, and a 1 024-tuple probe no longer fits in 2 ms.
        assert [m.tuples for m in startup.morsels] == [16, 32, 64, 128, 256, 512]
        assert {m.phase for m in startup.morsels} == {"startup"}
        assert startup.morsels[3].duration == 128 / 1e6 + 0.0001
        assert injector.fired == [(0, WORKER_STALL, "q", 3)]
        assert env._morsel_counts == {0: 6}
        assert task_set.state is PipelineState.DEFAULT

        with pytest.raises(InjectedFault, match="at morsel 6"):
            executor.run_task(task_set, env)
        assert injector.fired == [
            (0, WORKER_STALL, "q", 3),
            (1, OPERATOR_RAISE, "q", 6),
        ]
        assert env._morsel_counts == {0: 7}
        # The raising morsel had been carved: a whole 2 ms default morsel.
        assert task_set.carved_tuples == 1_008 + 2_000


class TestDeadlines:
    def test_running_query_misses_deadline(self, db):
        server = make_server(db)
        ticket = server.submit("Q18", deadline=1e-6)
        keeper = server.submit("Q6")
        server.run()
        assert ticket.failed()
        assert "QueryTimeoutError" in server.record(ticket).error
        assert isinstance(ticket.failure(), QueryTimeoutError)
        assert not keeper.failed()
        server.shutdown()

    def test_queued_query_expires_in_the_wait_queue(self):
        # More queries than admission slots: the deadline query waits in
        # the scheduler's queue and must expire there — at the first
        # finalization that pops the queue — not after it finally runs.
        from dataclasses import replace

        from repro.runtime import SimulatedBackend

        backend = SimulatedBackend(
            lambda: make_scheduler(
                "stride", SchedulerConfig(n_workers=1, slot_capacity=2)
            ),
            noise_sigma=0.0,
        )
        blockers = [
            backend.submit(make_query(f"blocker{i}", work=0.05))
            for i in range(2)
        ]
        doomed = backend.submit(
            replace(make_query("doomed", work=0.01), deadline=1e-6)
        )
        backend.drain()
        assert backend.failed(doomed)
        assert isinstance(backend.failure(doomed), QueryTimeoutError)
        assert backend.records[int(doomed)].cpu_seconds == 0.0
        for blocker in blockers:
            assert not backend.failed(blocker)
        backend.shutdown()

    def test_generous_deadline_is_harmless(self, db):
        server = make_server(db)
        ticket = server.submit("Q6", deadline=3600.0)
        server.run()
        assert not ticket.failed()
        assert server.result(ticket) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        server.shutdown()

    def test_deadline_misses_are_not_retried(self, db):
        server = make_server(db)
        ticket = server.submit("Q18", deadline=1e-6, retries=3)
        server.run()
        assert ticket.failed()
        assert server.retries_used == 0
        server.shutdown()


class TestRetries:
    def test_transient_failure_retries_to_success(self, db):
        server = make_server(db)
        server.install_faults(operator_fault("Q6", morsel=0))
        ticket = server.submit("Q6", retries=2)
        records = server.run()
        # Both attempts surface through drain: the failed one and the
        # clean retry.
        assert [r.failed for r in records] == [True, False]
        assert server.retries_used == 1
        assert not ticket.failed()
        assert server.record(ticket).failed is False
        assert server.result(ticket) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        server.shutdown()

    def test_retry_budget_bounds_resubmissions(self, db):
        server = make_server(db, retry_budget=1)
        server.install_faults(
            FaultPlan(
                faults=tuple(
                    FaultSpec(kind=OPERATOR_RAISE, query="Q6", morsel=0)
                    for _ in range(4)
                )
            )
        )
        ticket = server.submit("Q6", retries=5)
        server.run()
        # One retry allowed; it also failed (second planned fault), and
        # the budget stops further attempts.
        assert server.retries_used == 1
        assert ticket.failed()
        server.shutdown()

    def test_zero_retries_fail_immediately(self, db):
        server = make_server(db)
        server.install_faults(operator_fault("Q6", morsel=0))
        ticket = server.submit("Q6")
        server.run()
        assert ticket.failed()
        assert server.retries_used == 0
        server.shutdown()


class TestShedding:
    def test_lowest_priority_pending_query_is_shed(self, db):
        server = make_server(db, max_pending=2, admission="shed")
        low = server.submit("Q18", priority=1)
        lower = server.submit("Q18", priority=0)
        vip = server.submit("Q6", priority=5)
        assert lower.failed()
        assert isinstance(lower.failure(), AdmissionError)
        server.run()
        assert server.result(vip) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        assert not low.failed()
        server.shutdown()

    def test_no_lower_priority_victim_rejects_newcomer(self, db):
        server = make_server(db, max_pending=1, admission="shed")
        server.submit("Q6", priority=3)
        with pytest.raises(AdmissionError):
            server.submit("Q6", priority=3)
        server.run()
        server.shutdown()

    def test_shed_failures_are_not_retried(self, db):
        server = make_server(db, max_pending=1, admission="shed")
        victim = server.submit("Q18", priority=0, retries=3)
        server.submit("Q6", priority=1)
        server.run()
        assert victim.failed()
        assert server.retries_used == 0
        server.shutdown()

    def test_shed_retry_attempt_resolves_original_handle(self, db):
        """PR 7 regression: a query that was already *retried* and then
        shed must resolve its original handle to the final admission
        failure — not leave it dangling on a stale alias."""
        import threading
        import time

        server = make_server(
            db,
            backend="threaded",
            n_workers=1,
            max_pending=1,
            admission="shed",
        )
        server.install_faults(
            FaultPlan(
                faults=(
                    # Attempt 0 dies transiently -> eligible for retry.
                    FaultSpec(kind=OPERATOR_RAISE, query_index=0, morsel=0),
                    # The retry attempt stalls, pinning the only worker
                    # and keeping the server full while we overload it.
                    FaultSpec(
                        kind=WORKER_STALL,
                        query_index=1,
                        morsel=0,
                        stall_seconds=3.0,
                    ),
                )
            )
        )
        server.start()
        try:
            original = server.submit("Q6", retries=3, backoff=0.01)
            outcome = {}

            def waiter():
                outcome["record"] = server.wait(original, timeout=30.0)

            thread = threading.Thread(target=waiter)
            thread.start()
            # Let the transparent retry happen: attempt 0 fails, the
            # waiter resubmits, and the replacement occupies the server.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not (
                server.retries_used == 1 and server.pending_count == 1
            ):
                time.sleep(0.005)
            assert server.retries_used == 1
            # Overload: the VIP sheds the *retry attempt* of `original`.
            vip = server.submit("Q6", priority=5)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # The original handle follows the alias chain to the shed
            # attempt's failure instead of dangling.
            record = outcome["record"]
            assert record.failed
            assert original.failed()
            assert isinstance(original.failure(), AdmissionError)
            assert server.record(original).query_id == record.query_id
            assert server.record(original).query_id != int(original)
            # Shedding is permanent: no further retries were attempted.
            assert server.retries_used == 1
            server.wait(vip, timeout=30.0)
            assert not vip.failed()
        finally:
            server.shutdown()


class TestThreadedFaults:
    def test_operator_fault_isolated_under_real_threads(self, db):
        server = make_server(db, backend="threaded")
        server.install_faults(operator_fault("Q18", morsel=2))
        server.start()
        try:
            victim = server.submit("Q18")
            keeper = server.submit("Q6")
            server.drain()
            assert victim.failed()
            with pytest.raises(QueryFailedError):
                server.result(victim)
            assert server.result(keeper) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
            after = server.submit("Q6")
            server.wait(after, timeout=30.0)
            assert server.result(after) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
        finally:
            server.shutdown()

    def test_worker_death_retires_and_respawns_the_thread(self, db):
        server = make_server(db, backend="threaded")
        server.install_faults(
            FaultPlan(
                faults=(FaultSpec(kind=WORKER_DEATH, query="QS", morsel=3),)
            )
        )
        server.start()
        try:
            dead = server.submit("QS")
            keeper = server.submit("Q6")
            server.drain()
            assert dead.failed()
            assert server.backend.dead_workers == 1
            assert not keeper.failed()
            # The replacement thread serves new work.
            after = server.submit("Q6")
            record = server.wait(after, timeout=30.0)
            assert not record.failed
            assert server.result(after) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
        finally:
            server.shutdown()

    def test_retry_through_wait(self, db):
        server = make_server(db, backend="threaded")
        server.install_faults(operator_fault("Q6", morsel=0))
        server.start()
        try:
            ticket = server.submit("Q6", retries=2, backoff=0.001)
            record = server.wait(ticket, timeout=30.0)
            assert not record.failed
            assert server.retries_used == 1
            server.drain()
            assert server.result(ticket) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
        finally:
            server.shutdown()

    def test_dead_worker_cannot_strand_parked_producers(self, db):
        # Satellite regression test: a worker dying while a sibling is
        # parked on a full result channel must not hang shutdown — the
        # shutdown path fails every open channel before joining.
        backend = ThreadedBackend(
            make_scheduler("stride", SchedulerConfig(n_workers=2, t_max=0.002)),
            EngineEnvironment(db),
            channel_capacity=1,
        )
        backend.start()
        try:
            backend.submit(engine_query_spec("QS", db))  # never consumed
        finally:
            backend.shutdown()  # must not deadlock

    def test_wait_unknown_ticket(self, db):
        server = make_server(db, backend="threaded")
        server.start()
        try:
            with pytest.raises(UnknownTicketError):
                server.backend.wait(99)
        finally:
            server.shutdown()


class TestProcessFaults:
    def test_operator_fault_isolated_across_the_pipe(self, db):
        server = make_server(db, backend="process")
        server.install_faults(operator_fault("Q18", morsel=2))
        try:
            victim = server.submit("Q18")
            keeper = server.submit("Q6")
            server.run()
            assert victim.failed()
            with pytest.raises(QueryFailedError) as excinfo:
                server.result(victim)
            # Class identity survives the pipe via error_from_text.
            assert isinstance(excinfo.value.__cause__, InjectedFault)
            assert server.result(keeper) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
        finally:
            server.shutdown()

    def test_worker_death_rebuilds_the_pool_and_reruns_the_epoch(self, db):
        server = make_server(db, backend="process")
        server.install_faults(
            FaultPlan(faults=(FaultSpec(kind=WORKER_DEATH),))
        )
        try:
            first = server.submit("Q6")
            records = server.run()
            # The lost epoch re-ran after the rebuild: the query
            # completed normally despite the dead worker process.
            assert server.backend.pool_rebuilds == 1
            assert [r.failed for r in records] == [False]
            assert server.result(first) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
            # The rebuilt pool serves subsequent epochs.
            after = server.submit("Q6")
            server.run()
            assert server.result(after) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
        finally:
            server.shutdown()

    def test_worker_death_without_retries_fails_the_epoch(self):
        backend = ProcessBackend(
            partial(make_scheduler, "stride", SchedulerConfig(n_workers=2)),
            noise_sigma=0.0,
            max_epoch_retries=0,
        )
        backend.install_faults(
            FaultPlan(faults=(FaultSpec(kind=WORKER_DEATH),))
        )
        try:
            lost = [
                backend.submit(make_query(name, work=0.01))
                for name in ("a", "b")
            ]
            records = backend.drain()
            # No retry allowed: every job of the epoch settles failed
            # with the worker failure as its cause.
            assert backend.pool_rebuilds == 1
            assert [r.failed for r in records] == [True, True]
            for job in lost:
                assert isinstance(backend.failure(job), WorkerFailedError)
            # The rebuilt pool serves the next epoch normally.
            after = backend.submit(make_query("c", work=0.01))
            backend.drain()
            assert not backend.failed(after)
            assert backend.pool_rebuilds == 1
        finally:
            backend.shutdown()


class TestFaultyEnvironmentPickling:
    def test_round_trip(self):
        """Unpickling probes ``__setstate__`` before ``_inner`` exists;
        delegating that lookup recursed forever."""
        injector = FaultInjector(FaultPlan(faults=()), realtime=False)
        wrapped = FaultyEnvironment(_CountingEnv(), injector)
        wrapped.open_channel(0, ResultChannel(4))  # holds a lock: not shipped
        clone = pickle.loads(pickle.dumps(wrapped))
        assert isinstance(clone.inner, _CountingEnv)
        assert clone._channels == {}
        assert clone.run_morsel is not None and clone.executed_tuples == 0
        assert not hasattr(clone, "no_such_attribute")

    def test_process_epoch_returns_its_wrapped_environment(self):
        backend = ProcessBackend(
            partial(make_scheduler, "stride", SchedulerConfig(n_workers=2)),
            noise_sigma=0.0,
            environment_factory=_CountingEnv,
            return_environment=True,
        )
        backend.install_faults(operator_fault("victim", morsel=1))
        try:
            victim = backend.submit(make_query("victim", work=0.01))
            keeper = backend.submit(make_query("keeper", work=0.01))
            backend.drain()
            assert backend.failed(victim) and not backend.failed(keeper)
            environment = backend.last_environment
            assert isinstance(environment, FaultyEnvironment)
            assert environment.executed_tuples >= 10_000  # the keeper ran whole
            assert backend.fault_injector.fired == [(0, OPERATOR_RAISE, "victim", 1)]
        finally:
            backend.shutdown()


_DETERMINISM_SCRIPT = """
from repro.core import SchedulerConfig, make_scheduler
from repro.core.specs import PipelineSpec, QuerySpec
from repro.runtime import SimulatedBackend
from repro.runtime.faults import (
    FaultPlan,
    OPERATOR_RAISE,
    WORKER_DEATH,
    WORKER_STALL,
)


def query(name, work):
    return QuerySpec(
        name=name,
        scale_factor=1.0,
        pipelines=(
            PipelineSpec(
                name=f"{name}-p0",
                tuples=max(1, int(work * 1e6)),
                tuples_per_second=1e6,
            ),
        ),
    )


backend = SimulatedBackend(
    lambda: make_scheduler("stride", SchedulerConfig(n_workers=2)),
    noise_sigma=0.05,
)
plan = FaultPlan.random(
    seed=13,
    n_queries=6,
    kinds=(OPERATOR_RAISE, WORKER_STALL, WORKER_DEATH),
    n_faults=3,
)
injector = backend.install_faults(plan)
jobs = [
    backend.submit(query(f"q{i}", 0.002 * (i + 1)), at=0.001 * i)
    for i in range(6)
]
records = backend.drain()
for record in records:
    print(
        record.name,
        record.failed,
        record.error,
        repr(record.latency),
        repr(record.cpu_seconds),
    )
for entry in injector.fired:
    print("fired", entry)
backend.shutdown()
"""


class TestDeterminism:
    def test_identical_failures_across_hash_seeds(self):
        # The same FaultPlan seed must produce byte-identical failure
        # records, survivor latencies and firing logs regardless of
        # dict/set iteration order.
        outputs = []
        for hashseed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = "src"
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(
                    os.path.dirname(os.path.dirname(__file__))
                ),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "True" in outputs[0]  # at least one fault actually fired

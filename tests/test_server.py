"""Tests for the AnalyticsServer facade."""

import threading

import pytest

from repro.engine import build_engine_query, generate_tpch
from repro.errors import AdmissionError, ReproError
from repro.runtime import BackendState
from repro.runtime.faults import OPERATOR_RAISE, WORKER_STALL, FaultPlan, FaultSpec
from repro.server import AnalyticsServer


@pytest.fixture(scope="module")
def server_db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(server_db, **kwargs):
    defaults = dict(scheduler="stride", n_workers=2, seed=5, database=server_db)
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


class TestSubmission:
    def test_unknown_query_rejected(self, server_db):
        with pytest.raises(ReproError):
            make_server(server_db).submit("Q99")

    def test_negative_arrival_rejected(self, server_db):
        with pytest.raises(ReproError):
            make_server(server_db).submit("Q6", at=-1.0)

    def test_tickets_are_sequential(self, server_db):
        server = make_server(server_db)
        assert server.submit("Q6") == 0
        assert server.submit("Q1") == 1

    def test_available_queries(self, server_db):
        assert "Q6" in make_server(server_db).available_queries


class TestExecution:
    def test_single_query_result(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6")
        records = server.run()
        assert len(records) == 1
        expected = build_engine_query("Q6", server_db).execute()
        assert server.result(ticket) == pytest.approx(expected)
        assert server.record(ticket).latency > 0.0

    def test_results_map_to_tickets_with_out_of_order_arrivals(self, server_db):
        server = make_server(server_db)
        late = server.submit("Q6", at=0.01)   # ticket 0 arrives later
        early = server.submit("Q1", at=0.0)   # ticket 1 arrives first
        server.run()
        q6_expected = build_engine_query("Q6", server_db).execute()
        assert server.result(late) == pytest.approx(q6_expected)
        assert isinstance(server.result(early), list)

    def test_run_empty_is_noop(self, server_db):
        assert make_server(server_db).run() == []

    def test_result_before_run_rejected(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6")
        with pytest.raises(ReproError):
            server.result(ticket)
        with pytest.raises(ReproError):
            server.record(ticket)

    def test_multiple_runs_accumulate(self, server_db):
        server = make_server(server_db)
        first = server.submit("Q6")
        server.run()
        second = server.submit("Q13")
        server.run()
        assert server.record(first).latency > 0.0
        assert server.record(second).name == "Q13"

    def test_tuning_scheduler_variant(self, server_db):
        server = make_server(server_db, scheduler="tuning")
        tickets = [server.submit("Q6") for _ in range(3)]
        server.run()
        for ticket in tickets:
            assert server.record(ticket).latency > 0.0


class TestConstruction:
    def test_unknown_scheduler_rejected(self, server_db):
        with pytest.raises(ReproError, match="scheduler"):
            make_server(server_db, scheduler="nope")

    def test_unknown_backend_rejected(self, server_db):
        with pytest.raises(ReproError, match="backend"):
            make_server(server_db, backend="gpu")

    def test_unknown_admission_rejected(self, server_db):
        with pytest.raises(ReproError, match="admission"):
            make_server(server_db, admission="drop")

    def test_block_admission_needs_threaded_backend(self, server_db):
        with pytest.raises(ReproError, match="block"):
            make_server(server_db, admission="block", max_pending=2)

    def test_max_pending_must_be_positive(self, server_db):
        with pytest.raises(ReproError, match="max_pending"):
            make_server(server_db, max_pending=0)


class TestLifecycle:
    def test_state_progression(self, server_db):
        server = make_server(server_db)
        assert server.state is BackendState.NEW
        server.start()
        assert server.state is BackendState.RUNNING
        server.shutdown()
        assert server.state is BackendState.CLOSED

    def test_shutdown_idempotent(self, server_db):
        server = make_server(server_db)
        server.shutdown()
        server.shutdown()
        assert server.state is BackendState.CLOSED

    def test_submit_after_shutdown_rejected(self, server_db):
        server = make_server(server_db)
        server.shutdown()
        with pytest.raises(ReproError):
            server.submit("Q6")

    def test_run_after_shutdown_rejected(self, server_db):
        server = make_server(server_db)
        server.shutdown()
        with pytest.raises(ReproError):
            server.run()

    def test_results_readable_after_shutdown(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6")
        server.run()
        server.shutdown()
        assert server.record(ticket).latency > 0.0
        assert server.record(ticket).name == "Q6"

    def test_drain_then_submit_again(self, server_db):
        """drain() keeps the server open, unlike shutdown()."""
        server = make_server(server_db)
        server.submit("Q6")
        server.drain()
        assert server.state is BackendState.RUNNING
        second = server.submit("Q1")
        server.drain()
        assert server.record(second).latency > 0.0


class TestBackpressure:
    def test_reject_when_full(self, server_db):
        server = make_server(server_db, max_pending=2)
        server.submit("Q6")
        server.submit("Q6")
        with pytest.raises(AdmissionError):
            server.submit("Q6")

    def test_admission_error_is_repro_error(self, server_db):
        server = make_server(server_db, max_pending=1)
        server.submit("Q6")
        with pytest.raises(ReproError):
            server.submit("Q6")

    def test_drain_frees_capacity(self, server_db):
        server = make_server(server_db, max_pending=1)
        server.submit("Q6")
        server.drain()
        ticket = server.submit("Q6")  # accepted: nothing pending anymore
        server.drain()
        assert server.record(ticket).latency > 0.0

    def test_pending_and_completed_counts(self, server_db):
        server = make_server(server_db)
        server.submit("Q6")
        server.submit("Q1")
        assert server.pending_count == 2
        assert server.completed_count == 0
        server.drain()
        assert server.pending_count == 0
        assert server.completed_count == 2


class TestThreadedBackend:
    def make_threaded(self, server_db, **kwargs):
        return make_server(server_db, backend="threaded", n_workers=4, **kwargs)

    def test_results_match_direct_execution(self, server_db):
        server = self.make_threaded(server_db)
        try:
            ticket = server.submit("Q6")
            records = server.drain()
        finally:
            server.shutdown()
        assert len(records) == 1
        expected = build_engine_query("Q6", server_db).execute()
        assert server.result(ticket) == pytest.approx(expected)
        assert server.record(ticket).latency > 0.0

    def test_submit_while_running(self, server_db):
        server = self.make_threaded(server_db)
        try:
            server.start()
            first = server.submit("Q6")
            server.wait(first, timeout=30.0)
            # The server is mid-flight; admission still works.
            second = server.submit("Q1")
            record = server.wait(second, timeout=30.0)
            assert record.name == "Q1"
            server.drain()
        finally:
            server.shutdown()

    def test_arrival_time_rejected(self, server_db):
        server = self.make_threaded(server_db)
        try:
            with pytest.raises(ReproError):
                server.submit("Q6", at=0.5)
        finally:
            server.shutdown()

    def test_wait_timeout_expires(self, server_db):
        server = make_server(server_db, backend="threaded", n_workers=1)
        # Hold the query on its first morsel: how long Q18 runs must not
        # decide whether a 100 us wait times out.
        server.install_faults(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind=WORKER_STALL, query="Q18", morsel=0, stall_seconds=0.2
                    ),
                )
            )
        )
        try:
            server.start()
            ticket = server.submit("Q18")
            with pytest.raises(ReproError, match="did not complete"):
                server.wait(ticket, timeout=1e-4)
            # The timeout is the caller's, not the query's: the query
            # keeps running and completes normally.
            record = server.wait(ticket, timeout=60.0)
            assert not record.cancelled and not record.failed
            server.drain()
        finally:
            server.shutdown()

    def test_settled_queries_release_engine_state(self, server_db):
        """The environment lives as long as the server, so every settled
        query — completed, failed or cancelled — must leave it nothing."""
        server = self.make_threaded(server_db)
        server.install_faults(
            FaultPlan(
                faults=(
                    FaultSpec(kind=OPERATOR_RAISE, query="Q4", morsel=1),
                    # Holds Q18 mid-flight so the cancel finds it running.
                    FaultSpec(
                        kind=WORKER_STALL, query="Q18", morsel=0, stall_seconds=0.2
                    ),
                )
            )
        )
        try:
            server.start()
            victim = server.submit("Q4")
            doomed = server.submit("Q18")
            served = [
                server.submit(name)
                for name in ("Q1", "Q3", "Q6", "Q12", "Q13", "QS") * 6
            ]
            assert server.cancel(doomed)
            server.drain()
            assert victim.failed()
            assert server.record(doomed).cancelled
            assert isinstance(server.result(served[0]), list)
            environment = server._backend._environment
            assert environment._instances == {}
            assert environment._group_locks == {}
            assert environment.inner._channels == {}
        finally:
            server.shutdown()

    def test_blocking_admission_waits_for_capacity(self, server_db):
        server = self.make_threaded(
            server_db, admission="block", max_pending=2
        )
        try:
            server.start()
            tickets = []
            # More submissions than capacity: the extra calls block
            # until earlier queries complete instead of raising.
            def submit_all():
                for _ in range(5):
                    tickets.append(server.submit("Q6"))

            submitter = threading.Thread(target=submit_all)
            submitter.start()
            submitter.join(timeout=60.0)
            assert not submitter.is_alive()
            server.drain()
        finally:
            server.shutdown()
        assert len(tickets) == 5
        for ticket in tickets:
            assert server.record(ticket).latency > 0.0

    def test_wait_on_simulated_backend_requires_drain(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6")
        with pytest.raises(ReproError, match="drain"):
            server.wait(ticket)


class TestProcessBackend:
    def make_process(self, server_db, **kwargs):
        return make_server(server_db, backend="process", **kwargs)

    def test_results_match_direct_execution(self, server_db):
        server = self.make_process(server_db)
        try:
            ticket = server.submit("Q6")
            records = server.drain()
        finally:
            server.shutdown()
        assert len(records) == 1
        expected = build_engine_query("Q6", server_db).execute()
        assert server.result(ticket) == pytest.approx(expected)
        assert server.record(ticket).latency > 0.0

    def test_matches_simulated_backend_results(self, server_db):
        # Engine morsels are timed with the wall clock, so latencies
        # are not bit-reproducible at this layer (they differ between
        # two *simulated* runs too); the query results and the
        # ticket→record mapping are deterministic and must agree.
        # Bit-identity of the pure-simulation path is covered in
        # tests/runtime/test_process_backend.py.
        def run(backend):
            server = make_server(server_db, backend=backend)
            tickets = [server.submit(n) for n in ("Q6", "Q1", "Q13")]
            server.drain()
            out = [
                (server.record(t).name, server.result(t)) for t in tickets
            ]
            server.shutdown()
            return out

        def flatten(value):
            if isinstance(value, (list, tuple)):
                return [x for item in value for x in flatten(item)]
            return [value]

        via_process = run("process")
        via_simulated = run("simulated")
        for (pname, presult), (sname, sresult) in zip(
            via_process, via_simulated
        ):
            assert pname == sname
            assert flatten(presult) == pytest.approx(flatten(sresult))

    def test_virtual_arrival_times_accepted(self, server_db):
        server = self.make_process(server_db)
        try:
            late = server.submit("Q6", at=0.01)
            early = server.submit("Q1", at=0.0)
            server.drain()
        finally:
            server.shutdown()
        assert server.record(late).name == "Q6"
        assert server.record(early).name == "Q1"

    def test_epochs_accumulate(self, server_db):
        server = self.make_process(server_db)
        try:
            first = server.submit("Q6")
            server.drain()
            second = server.submit("Q13")
            server.drain()
        finally:
            server.shutdown()
        assert server.record(first).name == "Q6"
        assert server.record(second).name == "Q13"
        assert server.completed_count == 2

    def test_config_change_reaches_the_next_epoch(self, server_db):
        # The worker builds each epoch's scheduler from the factory the
        # server swapped in.  One worker and one slot serialise the
        # epoch: every query finishes exactly when its own work and that
        # of the queries before it is done (interleaved, the first of
        # three finishes ~2.5x its own work after arrival).
        server = self.make_process(server_db, n_workers=1)
        try:
            server.submit("Q6")
            server.drain()
            server._update_config(slot_capacity=1)
            tickets = [server.submit("Q1") for _ in range(3)]
            server.drain()
        finally:
            server.shutdown()
        work_done = 0.0
        for ticket in tickets:
            record = server.record(ticket)
            work_done += record.cpu_seconds
            assert record.latency == pytest.approx(work_done)

    def test_hand_built_database_is_shipped_whole(self, server_db):
        """A database without a generation profile still works: the
        environment falls back to pickling the relations across."""
        from dataclasses import replace

        hand_built = replace(server_db, generated=False)
        server = make_server(hand_built, backend="process")
        try:
            ticket = server.submit("Q6")
            server.drain()
        finally:
            server.shutdown()
        expected = build_engine_query("Q6", server_db).execute()
        assert server.result(ticket) == pytest.approx(expected)

    def test_results_readable_after_shutdown(self, server_db):
        server = self.make_process(server_db)
        ticket = server.submit("Q6")
        server.drain()
        server.shutdown()
        assert server.record(ticket).latency > 0.0
        assert server.record(ticket).name == "Q6"


class TestResultErrorPaths:
    """poll/wait/result semantics for unfinished, timed-out and
    cancelled tickets, across all three backends."""

    def test_simulated_poll_and_wait_before_run(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6")
        assert server.poll(ticket) is None
        with pytest.raises(ReproError, match="has not finished"):
            server.wait(ticket)
        with pytest.raises(ReproError, match="did you run"):
            server.result(ticket)

    def test_simulated_unknown_ticket(self, server_db):
        server = make_server(server_db)
        with pytest.raises(ReproError, match="unknown job id"):
            server.poll(99)
        with pytest.raises(ReproError, match="unknown job id"):
            server.result(99)

    def test_simulated_cancelled_ticket_result_raises(self, server_db):
        from repro.errors import QueryCancelledError

        server = make_server(server_db)
        ticket = server.submit("Q6")
        assert server.cancel(ticket) is True
        server.run()
        with pytest.raises(QueryCancelledError):
            server.result(ticket)
        assert server.poll(ticket).cancelled

    def test_threaded_wait_timeout(self, server_db):
        server = make_server(server_db, backend="threaded", n_workers=2)
        # Not started: nothing executes, so a tiny timeout must elapse.
        ticket = server.submit("Q18")
        try:
            with pytest.raises(ReproError, match="did not complete within"):
                server.wait(ticket, timeout=0.05)
        finally:
            server.start()
            server.drain()
            server.shutdown()

    def test_threaded_result_before_completion(self, server_db):
        server = make_server(server_db, backend="threaded", n_workers=2)
        ticket = server.submit("Q6")  # queued; server not started
        try:
            with pytest.raises(ReproError, match="did you run"):
                server.result(ticket)
        finally:
            server.start()
            server.drain()
            server.shutdown()

    def test_threaded_cancelled_ticket_result_raises(self, server_db):
        from repro.errors import QueryCancelledError

        server = make_server(server_db, backend="threaded", n_workers=2)
        server.start()
        try:
            ticket = server.submit("Q18")
            cancelled = server.cancel(ticket)
            record = server.wait(ticket, timeout=30.0)
            if cancelled:
                assert record.cancelled
                with pytest.raises(QueryCancelledError):
                    server.result(ticket)
            server.drain()
        finally:
            server.shutdown()

    def test_process_wait_and_result_before_run(self, server_db):
        server = make_server(server_db, backend="process")
        try:
            ticket = server.submit("Q6")
            assert server.poll(ticket) is None
            with pytest.raises(ReproError, match="has not finished"):
                server.wait(ticket)
            with pytest.raises(ReproError, match="did you run"):
                server.result(ticket)
            server.run()
            assert server.result(ticket) == pytest.approx(
                build_engine_query("Q6", server_db).execute()
            )
        finally:
            server.shutdown()

    def test_process_cancelled_ticket_result_raises(self, server_db):
        from repro.errors import QueryCancelledError

        server = make_server(server_db, backend="process")
        try:
            ticket = server.submit("Q6")
            assert server.cancel(ticket) is True
            server.run()
            with pytest.raises(QueryCancelledError):
                server.result(ticket)
        finally:
            server.shutdown()


class TestHandleFollowsTheTicket:
    """The handle ``submit`` returns answers what the server answers for
    its ticket, through the ticket's retries.  The model environment
    produces no result values, so every answer compares exactly."""

    @staticmethod
    def faulted_server():
        server = AnalyticsServer(
            scheduler="stride", n_workers=2, seed=5, environment="model"
        )
        server.install_faults(
            FaultPlan(faults=(FaultSpec(kind=OPERATOR_RAISE, query_index=0),))
        )
        return server

    @staticmethod
    def raised(call, *args):
        with pytest.raises(ReproError) as caught:
            call(*args)
        return type(caught.value), str(caught.value)

    def test_handle_follows_a_retried_ticket(self):
        server = self.faulted_server()
        handle = server.submit("Q6", retries=2)
        server.drain()
        assert server.retries_used == 1
        assert server.tickets.resolve(handle) != int(handle)
        record = server.record(handle)
        assert not record.failed and not record.cancelled
        assert handle.failed() is False and handle.failure() is None
        progress = handle.progress()
        assert progress["done"] and not progress["failed"]
        assert progress["cancelled"] is record.cancelled
        # No engine, no value: the handle raises what the server raises.
        assert self.raised(handle.result) == self.raised(server.result, handle)
        # The first attempt's stream failed; the latest one is empty.
        assert handle.fetch() is None

    @pytest.mark.parametrize("by_handle", [False, True])
    def test_cancel_disarms_the_retries(self, by_handle):
        server = self.faulted_server()
        handle = server.submit("Q6", retries=2)
        assert server.tickets.retryable_tickets() == [int(handle)]
        assert (handle.cancel() if by_handle else server.cancel(handle)) is True
        assert server.tickets.retryable_tickets() == []
        assert server.tickets.retry_state(handle) is None
        server.drain()
        assert server.record(handle).cancelled and server.retries_used == 0

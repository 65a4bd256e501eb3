"""Fold lifecycle: the epoch as attach window on the virtual-time backend,
and the cases every backend shares through one
:class:`~repro.sharing.FoldCoordinator` (``SharedFoldCases``, run as
``TestFolding`` on simulated, ``TestThreadedFolding`` on threaded and
``TestProcessFolding`` on process).

Identity tests pin ``supports_adaptive=False`` on their specs: adaptive
morsel sizing feeds *measured wall time* into the morsel boundaries,
which perturbs numpy's pairwise summation at the last ulp between any
two runs — sharing or not.  With fixed morsels a sharing-on run must be
bit-identical to sharing-off; the fold's extra share arrives as stride
passes, never as different morsel boundaries.
"""

from dataclasses import replace

import pytest

from repro.core.worker import WorkerLocalState
from repro.engine import build_engine_query, generate_tpch
from repro.errors import (
    QueryCancelledError,
    QueryFailedError,
    QueryTimeoutError,
)
from repro.experiments.pool import SweepPool
from repro.runtime.faults import OPERATOR_RAISE, FaultPlan, FaultSpec
from repro.runtime.process import _execute_epoch
from repro.server import AnalyticsServer
from repro.workloads.serialize import workload_from_arrays


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(db, **kwargs):
    defaults = dict(
        scheduler="stride", n_workers=2, seed=5, database=db, sharing=True
    )
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


def serve(db, backend, submit, **kwargs):
    """``submit(server)`` on a fresh sharing server, then drain it.

    The submissions land before a threaded server starts; the server is
    shut down afterwards (completed results stay readable).
    """
    server = make_server(db, backend=backend, **kwargs)
    try:
        tickets = submit(server)
        server.drain()
    finally:
        server.shutdown()
    return server, tickets


def fixed_spec(server, name):
    """The named spec with adaptive morsel sizing pinned off."""
    spec = server.query_spec(name)
    return replace(
        spec,
        pipelines=tuple(
            replace(p, supports_adaptive=False) for p in spec.pipelines
        ),
    )


class SharedFoldCases:
    """Fold cases every backend must pass.

    Subclasses set ``backend``; submissions land before a threaded
    server starts, so fold membership is deterministic.
    """

    backend = "simulated"

    def test_fold_counters(self, db):
        names = ("Q6", "Q1", "Q6", "Q6", "Q1")
        server, tickets = serve(
            db, self.backend, lambda server: [server.submit(n) for n in names]
        )
        assert server.sharing_stats.as_dict() == {
            "attached_queries": 3,
            "cache_evictions": 0,
            "cache_hits": 0,
            "folds": 2,  # one per duplicated fingerprint
            "replay_fallbacks": 0,
        }
        for leader, member in ((0, 2), (0, 3), (1, 4)):
            assert server.result(tickets[member]) == server.result(tickets[leader])
            assert server.record(tickets[member]).cpu_seconds == 0.0

    def test_noshare_tag_opts_out(self, db):
        def submit(server):
            spec = server.query_spec("Q6")
            spec = replace(spec, tags=spec.tags + ("noshare",))
            return [server.submit_spec(spec) for _ in range(2)]

        server, tickets = serve(db, self.backend, submit)
        assert server.sharing_stats.folds == 0
        for ticket in tickets:
            assert server.record(ticket).cpu_seconds > 0.0

    def test_attach_buffer_overflow_falls_back_to_fresh_scans(self, db):
        server, tickets = serve(
            db,
            self.backend,
            lambda server: [server.submit("Q6") for _ in range(3)],
            sharing_attach_buffer=1,
        )
        stats = server.sharing_stats.as_dict()
        assert stats["attached_queries"] == 1
        assert stats["replay_fallbacks"] == 1
        expected = build_engine_query("Q6", db).execute()
        for ticket in tickets:
            assert server.result(ticket) == pytest.approx(expected)

    def test_leader_slot_weight_is_the_max_times_the_share(
        self, db, monkeypatch
    ):
        # §3.2 for folds: a priority-9 query attached to a priority-1
        # leader runs at weight 9 with a share of 2, so the stride
        # scheduler installs user_scale 9 x 2 for the leader's slot.
        scales = record_slot_scales(monkeypatch)
        server, _ = serve(db, self.backend, submit_weighted_pair)
        assert server.sharing_stats.attached_queries == 1
        assert scales and set(scales) == {18.0}


def record_slot_scales(monkeypatch) -> list:
    """The ``user_scale`` of every slot a scheduler in this process installs."""
    scales = []
    init_slot = WorkerLocalState.init_slot

    def record(local, slot, group_id, params, user_scale=1.0, **kwargs):
        scales.append(user_scale)
        return init_slot(local, slot, group_id, params, user_scale, **kwargs)

    monkeypatch.setattr(WorkerLocalState, "init_slot", record)
    return scales


def submit_weighted_pair(server):
    """A priority-1 Q6 and an identical priority-9 one."""
    spec = fixed_spec(server, "Q6")
    return [
        server.submit_spec(replace(spec, user_priority=priority))
        for priority in (1.0, 9.0)
    ]


class TestFolding(SharedFoldCases):
    def test_results_bit_identical_to_sharing_off(self, db):
        def run(sharing):
            server = make_server(db, sharing=sharing)
            tickets = [
                server.submit_spec(fixed_spec(server, name))
                for name in ("Q6", "Q1", "Q6", "Q6", "Q1")
            ]
            server.run()
            return [repr(server.result(t)) for t in tickets]

        assert run(sharing=False) == run(sharing=True)

    def test_member_completes_with_the_leader_not_before_arrival(self, db):
        server = make_server(db)
        leader = server.submit("Q6", at=0.0)
        member = server.submit("Q6", at=0.5)
        server.run()
        leader_done = server.record(leader).completion_time
        member_record = server.record(member)
        assert member_record.completion_time == max(leader_done, 0.5)
        assert member_record.cpu_seconds == 0.0

    def test_sharing_off_counters_stay_zero(self, db):
        server = make_server(db, sharing=False)
        server.submit("Q6")
        server.submit("Q6")
        server.run()
        assert server.sharing_stats.as_dict() == {
            "attached_queries": 0,
            "cache_evictions": 0,
            "cache_hits": 0,
            "folds": 0,
            "replay_fallbacks": 0,
        }

    def test_folding_cuts_the_makespan(self):
        # Twelve concurrent lineitem scans (Q1, Q6, Q14 four times each)
        # fold into three executions.  The model environment's virtual
        # time is deterministic, so the speed-up is exact: 2.525x.
        def run(sharing):
            server = AnalyticsServer(
                scale_factor=0.02,
                scheduler="stride",
                n_workers=4,
                seed=7,
                environment="model",
                sharing=sharing,
            )
            for name in ("Q1", "Q6", "Q14") * 4:
                server.submit(name)
            records = server.run()
            makespan = max(r.completion_time for r in records)
            return makespan, server.sharing_stats

        makespan_off, _ = run(sharing=False)
        makespan_on, stats = run(sharing=True)
        assert (stats.folds, stats.attached_queries) == (3, 9)
        assert makespan_off / makespan_on >= 2.5


class TestThreadedFolding(SharedFoldCases):
    backend = "threaded"


class TestProcessFolding(SharedFoldCases):
    backend = "process"

    def test_leader_slot_weight_is_the_max_times_the_share(
        self, db, monkeypatch
    ):
        # The epoch's scheduler runs in a pool worker, out of this
        # process's monkeypatch: check the weight on the spec that
        # crosses the pipe, then run that very payload here and read the
        # slot scale the stride scheduler derives from it.
        payloads = []
        call = SweepPool.call

        def record(pool, fn, *args):
            if fn is _execute_epoch:
                payloads.extend(args)
            return call(pool, fn, *args)

        monkeypatch.setattr(SweepPool, "call", record)
        server, _ = serve(db, self.backend, submit_weighted_pair)
        assert server.sharing_stats.attached_queries == 1
        (payload,) = payloads
        (leader,) = [spec for _, spec in workload_from_arrays(payload["workload"])]
        assert "fold:2" in leader.tags and leader.user_priority == 9.0
        scales = record_slot_scales(monkeypatch)
        _execute_epoch(payload)
        assert scales and set(scales) == {18.0}

    def test_repeat_hits_the_fragment_cache_in_a_later_epoch(self, db):
        # Folds and the cache live in the submitting process, so a
        # repeat is served from the cache whichever worker ran the
        # first execution; only the epoch's other query executes.
        server = make_server(db, backend=self.backend)
        try:
            first = server.submit_spec(fixed_spec(server, "Q6"))
            server.run()
            again = server.submit_spec(fixed_spec(server, "Q6"))
            server.submit_spec(fixed_spec(server, "Q1"))
            server.run()
            record = server.record(again)
            assert server.sharing_stats.cache_hits == 1
            assert record.cpu_seconds == 0.0
            assert record.completion_time == record.arrival_time
            assert repr(server.result(again)) == repr(server.result(first))
            tasks = server.backend.last_tasks_executed
        finally:
            server.shutdown()
        alone, _ = serve(
            db,
            self.backend,
            lambda server: [server.submit_spec(fixed_spec(server, "Q1"))],
        )
        assert tasks == alone.backend.last_tasks_executed > 0


class TestMemberLifecycle:
    def test_cancelling_one_member_leaves_the_fold_intact(self, db):
        server = make_server(db)
        leader = server.submit("Q6")
        victim = server.submit("Q6")
        keeper = server.submit("Q6")
        assert server.cancel(victim)
        server.run()
        assert server.record(victim).cancelled
        with pytest.raises(QueryCancelledError):
            server.result(victim)
        expected = build_engine_query("Q6", db).execute()
        assert server.result(leader) == pytest.approx(expected)
        assert server.result(keeper) == pytest.approx(expected)
        # The cancelled member never attached, so the fold is a pair.
        assert server.sharing_stats.attached_queries == 1

    def test_member_deadline_expiry_fails_only_that_member(self, db):
        server = make_server(db)
        leader = server.submit("Q18")
        expired = server.submit("Q18", deadline=1e-9)
        sibling = server.submit("Q18")
        server.run()
        record = server.record(expired)
        assert record.failed
        assert "QueryTimeoutError" in record.error
        assert isinstance(expired.failure(), QueryTimeoutError)
        with pytest.raises(QueryFailedError):
            server.result(expired)
        assert not server.record(leader).failed
        assert not server.record(sibling).failed
        assert server.result(sibling) == pytest.approx(server.result(leader))

    def test_shared_scan_fault_fails_members_then_retries_unshared(self, db):
        server = make_server(db)
        server.install_faults(
            FaultPlan(
                faults=(FaultSpec(kind=OPERATOR_RAISE, query="Q6", morsel=0),)
            )
        )
        tickets = [server.submit("Q6", retries=1) for _ in range(3)]
        records = server.run()
        # First epoch: the shared execution faults and every member
        # fails with the leader's cause; the retries then resubmit each
        # query *unshared* (noshare tag) and all succeed.
        assert sum(1 for r in records if r.failed) == 3
        assert server.retries_used == 3
        assert server.sharing_stats.folds == 1  # retries did not fold
        expected = build_engine_query("Q6", db).execute()
        for ticket in tickets:
            assert not ticket.failed()
            assert server.result(ticket) == pytest.approx(expected)


class TestFragmentCache:
    def test_repeat_query_served_from_cache(self, db):
        server = make_server(db)
        first = server.submit_spec(fixed_spec(server, "Q6"))
        server.run()
        again = server.submit_spec(fixed_spec(server, "Q6"))
        server.run()
        assert server.sharing_stats.cache_hits == 1
        # Served at arrival with zero engine work, bit-identical value.
        record = server.record(again)
        assert record.completion_time == record.arrival_time
        assert record.cpu_seconds == 0.0
        assert repr(server.result(again)) == repr(server.result(first))

    def test_invalidation_forces_re_execution(self, db):
        server = make_server(db)
        server.submit_spec(fixed_spec(server, "Q6"))
        server.run()
        server.invalidate_sharing_cache()
        again = server.submit_spec(fixed_spec(server, "Q6"))
        server.run()
        assert server.sharing_stats.cache_hits == 0
        assert server.record(again).cpu_seconds > 0.0

    def test_eviction_counter_reaches_the_server_stats(self, db):
        server = make_server(db, sharing_cache_entries=1)
        server.submit_spec(fixed_spec(server, "Q6"))
        server.submit_spec(fixed_spec(server, "Q1"))
        server.run()
        # Two distinct fingerprints through a one-entry cache: the
        # second completion evicts the first.
        assert server.sharing_stats.cache_evictions == 1

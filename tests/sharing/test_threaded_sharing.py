"""Live folds on the real-thread backend.

Queries are submitted *before* ``start()`` so the attach decisions are
deterministic — no workers run until the fold membership is settled.
What happens after start exercises the genuinely concurrent machinery:
the tee channel records the leader's chunks, members replay them at
completion, and detaching one query never kills the shared execution.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.engine import build_engine_query, generate_tpch
from repro.errors import QueryCancelledError
from repro.server import AnalyticsServer
from repro.sharing import FoldCoordinator, SharingStats

from tests.conftest import make_query


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(db, **kwargs):
    defaults = dict(
        scheduler="stride",
        n_workers=2,
        seed=5,
        database=db,
        backend="threaded",
        sharing=True,
    )
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


class TestLiveFolds:
    def test_members_replay_the_leaders_chunks_exactly(self, db):
        server = make_server(db)
        try:
            leader = server.submit("Q6")
            members = [server.submit("Q6") for _ in range(2)]
            records = server.drain()
        finally:
            server.shutdown()
        assert len(records) == 3
        assert not any(r.failed or r.cancelled for r in records)
        stats = server.sharing_stats.as_dict()
        assert stats["folds"] == 1
        assert stats["attached_queries"] == 2
        expected = build_engine_query("Q6", db).execute()
        assert server.result(leader) == pytest.approx(expected)
        for member in members:
            # Members replay the leader's chunks: equality is exact,
            # not approximate.
            assert server.result(member) == server.result(leader)
            record = server.record(member)
            assert record.cpu_seconds == 0.0
            assert record.completion_time >= record.arrival_time

    def test_distinct_fingerprints_do_not_fold(self, db):
        server = make_server(db)
        try:
            q6 = server.submit("Q6")
            q1 = server.submit("Q1")
            server.drain()
        finally:
            server.shutdown()
        assert server.sharing_stats.folds == 0
        assert server.result(q6) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        q1_result = server.result(q1)
        assert isinstance(q1_result, list)
        assert len(q1_result) == len(build_engine_query("Q1", db).execute())

    def test_cancel_member_detaches_without_killing_the_fold(self, db):
        server = make_server(db)
        try:
            leader = server.submit("Q6")
            victim = server.submit("Q6")
            keeper = server.submit("Q6")
            assert server.cancel(victim)
            server.drain()
        finally:
            server.shutdown()
        assert server.record(victim).cancelled
        with pytest.raises(QueryCancelledError):
            server.result(victim)
        assert not server.record(leader).cancelled
        assert server.result(keeper) == server.result(leader)

    def test_cancel_leader_keeps_serving_the_members(self, db):
        server = make_server(db)
        try:
            leader = server.submit("Q6")
            member = server.submit("Q6")
            assert server.cancel(leader)
            server.drain()
        finally:
            server.shutdown()
        # The leader's delivery detached, but the shared execution ran
        # to completion for the member's sake.
        assert server.record(leader).cancelled
        with pytest.raises(QueryCancelledError):
            server.result(leader)
        member_record = server.record(member)
        assert not member_record.cancelled and not member_record.failed
        assert server.result(member) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )

    def test_sharing_off_threaded_counters_stay_zero(self, db):
        server = make_server(db, sharing=False)
        try:
            server.submit("Q6")
            server.submit("Q6")
            server.drain()
        finally:
            server.shutdown()
        assert server.sharing_stats.as_dict()["folds"] == 0


class TestReplayOverflow:
    def test_overflow_re_admits_the_member_unshared(self):
        # Fixed 500-tuple morsels make QS at SF 0.005 stream 60 chunks,
        # so a one-chunk replay buffer always overflows: the member
        # falls back to its own execution with the leader's result.
        server = AnalyticsServer(
            scale_factor=0.005,
            backend="threaded",
            n_workers=2,
            sharing=True,
            sharing_attach_buffer=1,
        )
        spec = server.query_spec("QS")
        spec = replace(
            spec,
            pipelines=tuple(
                replace(p, supports_adaptive=False, fixed_morsel_tuples=500)
                for p in spec.pipelines
            ),
        )
        try:
            leader = server.submit_spec(spec)
            member = server.submit_spec(spec)
            server.drain()
        finally:
            server.shutdown()
        stats = server.sharing_stats.as_dict()
        assert (stats["attached_queries"], stats["replay_fallbacks"]) == (1, 1)
        assert server.record(member).cpu_seconds > 0.0
        rows = server.result(member)
        assert server.result(leader).keys() == rows.keys()
        for name, column in server.result(leader).items():
            assert (column == rows[name]).all()


class TestCoordinatorUnderThreads:
    def test_concurrent_offers_and_detaches_lose_no_member(self):
        # More submitting threads than cores and a tiny switch interval:
        # every offer must end as exactly one leader, member or
        # fallback, and sealing every leader must hand back exactly the
        # members nobody detached.
        stats = SharingStats()
        folds = FoldCoordinator(3, stats)
        specs = [make_query(name) for name in ("a", "b", "c")]
        outcomes = {}

        def submit(worker):
            for i in range(150):
                job = worker * 1000 + i
                spec = specs[i % 3]
                if not folds.offer(job, spec, 0.0, spec.name):
                    outcomes[job] = "lead" if folds.led_by(job) else "alone"
                    if i % 5 == 0:
                        folds.detach_leader(job)
                elif i % 4 == 0:
                    detached = folds.detach_member(job) == (spec, 0.0)
                    outcomes[job] = "detached" if detached else "lost"
                else:
                    outcomes[job] = "member"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submit, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 8 * 150
        served = []
        for job, outcome in outcomes.items():
            if outcome == "lead":
                served.extend(m[0] for m in folds.seal(job).members)
        members = sorted(j for j, o in outcomes.items() if o == "member")
        assert sorted(served) == members
        attached = sum(o in ("member", "detached") for o in outcomes.values())
        assert stats.attached_queries == attached
        assert stats.replay_fallbacks == list(outcomes.values()).count("alone")


class TestFoldReplayNeverParks:
    """A leader's completion never waits on a member's consumer.

    Regression: the finalizing worker used to replay the fold's chunks
    into each member through a *blocking* ``put`` before publishing the
    leader's record, so a result longer than the member's channel hung
    the leader (and a waited-on member never drained its leader's channel).
    """

    WAIT = 20.0  # a hang fails here; a healthy run takes milliseconds

    @pytest.mark.parametrize("first", ["leader", "member", "both"])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_either_wait_order_completes(self, first, pinned):
        server = AnalyticsServer(
            scale_factor=0.005,
            backend="threaded",
            n_workers=2,
            sharing=True,
            # The chunk count follows measured morsel times.  Pinned: a
            # two-chunk channel and a replay buffer no result outgrows,
            # so the fold always replays more than a channel holds.
            # Default options: the fold may instead overflow and
            # re-admit the member, which must complete just the same.
            **({"sharing_attach_buffer": 1024} if pinned else {}),
        )
        if pinned:
            server.backend.channel_capacity = 2
        try:
            leader = server.submit("QS")
            member = server.submit("QS")
            order = (leader, member) if first == "leader" else (member, leader)
            server.start()
            if first == "both":
                # Two clients, one per query: both keep the leader's channel.
                waiters = [
                    threading.Thread(
                        target=server.wait, args=(ticket, self.WAIT)
                    )
                    for ticket in order
                ]
                for waiter in waiters:
                    waiter.start()
                for waiter in waiters:
                    waiter.join(timeout=2 * self.WAIT)
                assert not any(waiter.is_alive() for waiter in waiters)
            else:
                server.wait(order[0], timeout=self.WAIT)
                if not pinned:
                    server.wait(order[1], timeout=self.WAIT)
            # Pinned, the fold cannot overflow: leader and member
            # publish together, so the other is readable right away.
            rows = server.result(order[1])
            assert server.result(order[0]).keys() == rows.keys()
            for name, column in server.result(order[0]).items():
                assert (column == rows[name]).all()
            assert len(next(iter(rows.values()))) > 0
            if pinned:
                assert server.sharing_stats.as_dict()["replay_fallbacks"] == 0
                assert server.record(member).cpu_seconds == 0.0
        finally:
            server.shutdown()

"""Live folds on the real-thread backend.

Queries are submitted *before* ``start()`` so the attach decisions are
deterministic — no workers run until the fold membership is settled.
What happens after start exercises the genuinely concurrent machinery:
the tee channel records the leader's chunks, members replay them at
completion, and detaching one query never kills the shared execution.
"""

import threading

import pytest

from repro.engine import build_engine_query, generate_tpch
from repro.errors import QueryCancelledError
from repro.server import AnalyticsServer


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


class TestFoldReplayNeverParks:
    """A leader's completion never waits on a member's consumer.

    Regression: the finalizing worker used to replay the fold's chunks
    into each member through a *blocking* ``put`` before publishing the
    leader's record, so a result longer than the member's channel hung
    the leader (and a waited-on member never absorbed its leader).
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
                # Two clients, one per query: both absorb the leader.
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

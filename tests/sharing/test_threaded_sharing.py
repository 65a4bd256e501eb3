"""Live folds on the real-thread backend.

Queries are submitted *before* ``start()`` so the attach decisions are
deterministic — no workers run until the fold membership is settled.
What happens after start exercises the genuinely concurrent machinery:
members read the leader's one chunk list as it grows, detaching one
query never kills the shared execution, and a leader read live before
anyone attached takes no more members.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import build_engine_query, generate_tpch
from repro.errors import QueryCancelledError, ReproError
from repro.runtime.faults import CONSUMER_GONE, FaultPlan, FaultSpec
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
            # Members read the leader's chunks: equality is exact,
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


def fixed_qs(server):
    """QS with fixed 500-tuple morsels: 60 chunks at SF 0.005."""
    spec = server.query_spec("QS")
    return replace(
        spec,
        pipelines=tuple(
            replace(p, supports_adaptive=False, fixed_morsel_tuples=500)
            for p in spec.pipelines
        ),
    )


def assert_same_rows(rows, expected):
    assert rows.keys() == expected.keys()
    for name, column in expected.items():
        assert (rows[name] == column).all()


class TestOneChunkList:
    def test_a_fold_past_the_attach_buffer_is_served(self):
        # 60 chunks against the default sharing_attach_buffer of 16: the
        # member reads the leader's list, whatever its length.
        server = AnalyticsServer(
            scale_factor=0.005, backend="threaded", n_workers=2, sharing=True
        )
        spec = fixed_qs(server)
        try:
            leader = server.submit_spec(spec)
            member = server.submit_spec(spec)
            server.drain()
        finally:
            server.shutdown()
        stats = server.sharing_stats.as_dict()
        assert (stats["attached_queries"], stats["replay_fallbacks"]) == (1, 0)
        assert leader.progress()["chunks_put"] == 60
        assert server.record(member).cpu_seconds == 0.0
        assert_same_rows(server.result(member), server.result(leader))

    def test_an_arrival_after_a_live_read_leads_a_fresh_fold(self):
        # The leader's first live read drops a chunk, so its list is no
        # longer whole and the same spec submitted next leads its own
        # fold.  The read returns a chunk before the submit, and a
        # two-chunk channel keeps the leader from finishing meanwhile:
        # no clock decides anything here.  The second stream is kept at
        # once, so its producer never parks a worker the leader needs.
        server = AnalyticsServer(
            scale_factor=0.005, backend="threaded", n_workers=2, sharing=True
        )
        server.backend.channel_capacity = 2
        spec = fixed_qs(server)
        server.start()
        try:
            leader = server.submit_spec(spec)
            reads = iter(leader)
            parts = [next(reads)]
            second = server.submit_spec(spec)
            second.channel.keep()
            parts.extend(reads)
            server.drain()
        finally:
            server.shutdown()
        assert server.sharing_stats.as_dict()["attached_queries"] == 0
        assert server.record(second).cpu_seconds > 0.0
        streamed = {
            name: np.concatenate([part[name] for part in parts])
            for name in parts[0]
        }
        expected = server.result(second)
        assert len(next(iter(expected.values()))) > 0
        assert_same_rows(streamed, expected)

    def test_a_leader_whose_consumer_left_still_serves_its_member(self):
        server = AnalyticsServer(
            scale_factor=0.005, backend="threaded", n_workers=2, sharing=True
        )
        server.install_faults(
            FaultPlan(faults=(FaultSpec(kind=CONSUMER_GONE, query="QS", after_chunks=1),))
        )
        spec = fixed_qs(server)
        try:
            leader = server.submit_spec(spec)
            member = server.submit_spec(spec)
            server.drain()
        finally:
            server.shutdown()
        assert server.sharing_stats.as_dict()["attached_queries"] == 1
        assert leader.channel.failed
        with pytest.raises(ReproError):
            leader.fetch()
        assert leader.progress()["chunks_put"] == 60
        assert server.record(member).cpu_seconds == 0.0
        expected = build_engine_query("QS", server.database).execute()
        assert_same_rows(server.result(member), expected)


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
                    outcomes[job] = "lead" if job in folds._led else "alone"
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
    Members now read the leader's list, which nothing but the leader's
    own live reader bounds.
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
        )
        if pinned:
            # The chunk count follows measured morsel times; a two-chunk
            # channel makes the result always longer than it.
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
            # Leader and member publish together, so the other is
            # readable right away.
            rows = server.result(order[1])
            assert server.result(order[0]).keys() == rows.keys()
            for name, column in server.result(order[0]).items():
                assert (column == rows[name]).all()
            assert len(next(iter(rows.values()))) > 0
            assert server.sharing_stats.as_dict()["replay_fallbacks"] == 0
            assert server.record(member).cpu_seconds == 0.0
        finally:
            server.shutdown()

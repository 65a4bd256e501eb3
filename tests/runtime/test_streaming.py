"""End-to-end streaming tests: channels, handles, cancellation.

These run the real engine (tiny TPC-H database) through all three
execution backends and assert the streaming refactor's contract:

* materialized results are unchanged — ``result()`` holds exactly what
  the pre-streaming sink produced;
* live streams on the threaded backend are *bounded*: the producer
  parks when the channel is full, so peak buffered chunks never exceed
  the configured capacity regardless of result size;
* cancellation mid-flight frees the query's admission slot and the
  backend keeps running subsequent queries normally;
* cancellation bookkeeping is deterministic across hash seeds.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.core.specs import PipelineSpec, QuerySpec
from repro.engine import generate_tpch
from repro.engine.execution import EngineEnvironment, engine_query_spec
from repro.engine.queries import build_engine_query
from repro.errors import QueryCancelledError, ReproError
from repro.runtime import ThreadedBackend
from repro.runtime.channel import _NO_BUFFER, ROWS
from repro.server import AnalyticsServer

from tests.runtime.test_threaded_backend import ThreadSafeCountingEnv


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(db, **kwargs):
    defaults = dict(scheduler="stride", n_workers=2, seed=5, database=db)
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


def expected_qs_rows(db):
    lineitem = db.tables["lineitem"]
    return int(np.count_nonzero(lineitem.column("l_discount") >= 0.05))


class TestSimulatedStreaming:
    def test_fetch_replays_the_materialized_result(self, db):
        server = make_server(db)
        handle = server.submit("QS")
        server.run()
        result = server.result(handle)
        fetched = []
        while True:
            part = handle.fetch(1000)
            if part is None:
                break
            fetched.append(part)
        replay = {
            name: np.concatenate([part[name] for part in fetched])
            for name in result
        }
        for name in result:
            np.testing.assert_array_equal(replay[name], result[name])
        # The replay is non-destructive: result() still works, and
        # rewind() replays again from the start.
        assert server.result(handle) is result
        handle.rewind()
        assert handle.fetch(10) is not None

    def test_iteration_respects_chunk_boundaries(self, db):
        server = make_server(db)
        handle = server.submit("QS")
        server.run()
        batches = list(handle)
        assert len(batches) == handle.channel.chunks_put
        total = sum(len(batch["l_orderkey"]) for batch in batches)
        assert total == expected_qs_rows(db)

    def test_aggregate_query_streams_one_final_chunk(self, db):
        server = make_server(db)
        handle = server.submit("Q6")
        server.run()
        assert handle.fetch() == pytest.approx(server.result(handle))
        assert handle.channel.chunks_put == 1

    def test_fetch_rejects_nonpositive_n(self, db):
        server = make_server(db)
        handle = server.submit("Q6")
        server.run()
        with pytest.raises(ReproError):
            handle.fetch(0)

    def test_cancel_pending_query(self, db):
        server = make_server(db)
        victim = server.submit("Q18")
        keeper = server.submit("Q6")
        assert server.cancel(victim) is True
        assert server.cancel(victim) is True  # idempotent
        records = server.run()
        assert server.record(victim).cancelled
        assert not server.record(keeper).cancelled
        with pytest.raises(QueryCancelledError):
            server.result(victim)
        assert server.result(keeper) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )
        # Both records surfaced through drain exactly once.
        assert {r.name for r in records} == {"Q18", "Q6"}

    def test_cancel_completed_query_is_refused(self, db):
        server = make_server(db)
        ticket = server.submit("Q6")
        server.run()
        assert server.cancel(ticket) is False
        assert server.result(ticket) == pytest.approx(
            build_engine_query("Q6", db).execute()
        )


@pytest.mark.parametrize("backend", ["simulated", "threaded", "process"])
def test_progress_counters(db, backend):
    # chunks_pending counts chunks put and not yet read through a
    # handle: a drain keeps them all in place, a full read reads them.
    server = make_server(db, backend=backend)
    try:
        handle = server.submit("QS")
        before = handle.progress()
        assert before == {
            "done": False,
            "cancelled": False,
            "failed": False,
            "chunks_put": 0,
            "rows_put": 0,
            "chunks_pending": 0,
            "rows_fetched": 0,
        }
        server.run()
        after = handle.progress()
        assert after["done"]
        assert after["rows_put"] == expected_qs_rows(db)
        assert after["chunks_pending"] == after["chunks_put"] > 1
        handle.fetch(100)
        assert handle.progress()["rows_fetched"] == 100
        for _ in handle:
            pass
        final = handle.progress()
        assert final["chunks_pending"] == 0
        assert final["rows_fetched"] == expected_qs_rows(db)
    finally:
        server.shutdown()


class TestThreadedStreaming:
    def make_backend(self, db, capacity=4):
        return ThreadedBackend(
            make_scheduler(
                "stride", SchedulerConfig(n_workers=2, t_max=0.002)
            ),
            EngineEnvironment(db),
            channel_capacity=capacity,
        )

    def test_live_stream_is_memory_bounded(self, db):
        # The acceptance test of the refactor: a result far larger than
        # the channel bound streams through completely while the
        # producer never buffers more than `capacity` chunks.
        capacity = 4
        backend = self.make_backend(db, capacity=capacity)
        backend.start()
        try:
            handle = backend.submit(engine_query_spec("QS", db))
            total = 0
            for batch in handle:
                total += len(batch["l_orderkey"])
            backend.drain()
        finally:
            backend.shutdown()
        assert total == expected_qs_rows(db)
        assert handle.channel.chunks_put > capacity  # stream was larger
        assert handle.channel.peak_depth <= capacity
        with pytest.raises(ReproError, match="consumed as a stream"):
            backend.result(handle)

    def test_a_live_read_releases_the_emptied_buffer(self, db):
        # A stream read live to its end holds no buffer; one a drain
        # kept for result() keeps every chunk after a full read too.
        backend = self.make_backend(db)
        backend.start()
        try:
            live = backend.submit(engine_query_spec("QS", db))
            for _ in live:
                pass
            kept = backend.submit(engine_query_spec("QS", db))
            backend.drain()
            for _ in kept:
                pass
        finally:
            backend.shutdown()
        assert live.channel._buffer is _NO_BUFFER
        assert len(kept.channel.chunks()) == kept.channel.chunks_put > 1
        assert len(backend.result(kept)["l_orderkey"]) == expected_qs_rows(db)

    def test_unconsumed_stream_materializes_on_drain(self, db):
        backend = self.make_backend(db)
        backend.start()
        try:
            handle = backend.submit(engine_query_spec("QS", db))
            backend.drain()
        finally:
            backend.shutdown()
        result = backend.result(handle)
        assert len(result["l_orderkey"]) == expected_qs_rows(db)
        # Sorted content matches the serial reference execution (thread
        # interleaving may reorder whole chunks, never rows inside one).
        reference = build_engine_query("QS", db).execute()
        np.testing.assert_array_equal(
            np.sort(result["l_orderkey"]), np.sort(reference["l_orderkey"])
        )
        assert result["l_extendedprice"].sum() == pytest.approx(
            reference["l_extendedprice"].sum()
        )

    def test_cancel_mid_flight_frees_the_backend(self, db):
        server = make_server(db, backend="threaded", n_workers=2)
        server.start()
        try:
            victim = server.submit("Q18")
            assert server.cancel(victim) is True
            record = server.wait(victim, timeout=30.0)
            assert record.cancelled
            with pytest.raises(QueryCancelledError):
                server.result(victim)
            # The slot is free: subsequent queries run normally.
            after = server.submit("Q6")
            server.wait(after, timeout=30.0)
            assert server.result(after) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
            server.drain()
        finally:
            server.shutdown()

    def test_handle_cancel_shorthand(self, db):
        server = make_server(db, backend="threaded", n_workers=2)
        server.start()
        try:
            handle = server.submit("Q18")
            assert handle.cancel() is True
            assert server.wait(handle, timeout=30.0).cancelled
            server.drain()
        finally:
            server.shutdown()

    def test_rewind_refused_on_live_stream(self, db):
        backend = self.make_backend(db)
        backend.start()
        try:
            handle = backend.submit(engine_query_spec("QS", db))
            handle.fetch(10)  # destructive live consumption begins
            with pytest.raises(ReproError, match="rewind"):
                handle.rewind()
            for _ in handle:
                pass
            backend.drain()
        finally:
            backend.shutdown()


class TestProcessStreaming:
    def test_chunk_boundaries_survive_the_pipe(self, db):
        sim = make_server(db)
        sim_handle = sim.submit("QS")
        sim.run()

        proc = make_server(db, backend="process")
        handle = proc.submit("QS")
        proc.run()
        try:
            # The worker-side chunk sequence is re-put into the local
            # channel verbatim: iteration replays exactly chunks_put
            # batches whose rows add up, and the assembled value is
            # bit-identical to the in-process simulated run.  (Chunk
            # *counts* may differ between the two runs — adaptive morsel
            # sizing reacts to real measured throughput.)
            result = proc.result(handle)
            reference = sim.result(sim_handle)
            for name in reference:
                np.testing.assert_array_equal(result[name], reference[name])
            batches = list(handle)
            assert len(batches) == handle.channel.chunks_put > 0
            n_rows = sum(len(next(iter(b.values()))) for b in batches)
            assert n_rows == handle.channel.rows_put
            assert n_rows == len(next(iter(result.values())))
        finally:
            proc.shutdown()
            sim.shutdown()

    def test_cancel_pending_query(self, db):
        server = make_server(db, backend="process")
        try:
            victim = server.submit("Q6")
            assert server.cancel(victim) is True
            assert server.record(victim).cancelled
            keeper = server.submit("Q6")
            server.run()
            assert server.result(keeper) == pytest.approx(
                build_engine_query("Q6", db).execute()
            )
            with pytest.raises(QueryCancelledError):
                server.result(victim)
        finally:
            server.shutdown()


_HASHSEED_SCRIPT = """
from repro.core import SchedulerConfig, make_scheduler
from repro.core.specs import PipelineSpec, QuerySpec
from repro.runtime import SimulatedBackend


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
    noise_sigma=0.0,
)
jobs = [
    backend.submit(query(f"q{i}", 0.002 * (i + 1)), at=0.001 * i)
    for i in range(6)
]
for victim in (jobs[1], jobs[4]):
    backend.cancel(victim)
records = backend.drain()
for record in records:
    print(record.name, record.cancelled, repr(record.latency))
for job in jobs:
    print(int(job), backend.progress(job)["cancelled"], repr(backend.poll(job).latency))
backend.shutdown()
"""


class TestCancellationDeterminism:
    def test_identical_across_hash_seeds(self):
        # Cancellation bookkeeping must not depend on dict/set iteration
        # order: the same mid-epoch cancellation scenario in pure
        # virtual time under PYTHONHASHSEED 0, 1 and 2 must produce
        # byte-identical records (real-engine latencies are measured in
        # wall time and can never be byte-stable, so this uses the
        # deterministic cost-model environment).
        outputs = []
        for hashseed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = "src"
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("reader_first", [True, False])
def test_a_live_read_and_a_lifted_bound_never_interleave(reader_first):
    # A reader's first read and a waiter lifting the bound decide, under
    # the one condition, whether the stream is read live (popped) or
    # kept (replayed).  Either order delivers every chunk once, in
    # order, and result() is refused exactly when the reader went live.
    backend = ThreadedBackend(
        make_scheduler("stride", SchedulerConfig(n_workers=1)),
        ThreadSafeCountingEnv(),
    )
    spec = QuerySpec(
        "q", 1.0, pipelines=(PipelineSpec(name="q-p0", tuples=1000, tuples_per_second=1e6),)
    )
    handle = backend.submit(spec)  # never started: no worker touches it
    chunks = [(ROWS, {"x": np.array([float(value)])}, 1) for value in range(3)]
    with backend._done:
        backend._settle(int(handle), backend._synthetic_record(spec, 0.0, 0.0), chunks=chunks)
    reads = iter(handle)
    seen = [next(reads)] if reader_first else []
    backend.wait(handle)  # lifts the bound
    seen.extend(reads)
    backend.shutdown()
    assert [batch["x"][0] for batch in seen] == [0.0, 1.0, 2.0]
    assert handle.channel.streamed is reader_first
    if reader_first:
        with pytest.raises(ReproError, match="consumed as a stream"):
            backend.result(handle)
    else:
        assert backend.result(handle)["x"].tolist() == [0.0, 1.0, 2.0]

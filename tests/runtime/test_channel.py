"""Unit tests for the bounded result channel and its wire codec."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.errors import ChannelClosedError, QueryCancelledError, ReproError
from repro.runtime.channel import (
    FINAL,
    NO_RESULT,
    ROWS,
    ResultChannel,
    ResultChunk,
    assemble_chunks,
    chunks_from_arrays,
    chunks_to_arrays,
)


def batch(*values):
    return {"x": np.asarray(values, dtype=np.float64)}


class TestPutGet:
    def test_fifo_order(self):
        channel = ResultChannel()
        channel.put_rows(batch(1.0), 1)
        channel.put_rows(batch(2.0), 1)
        channel.close()
        chunks = list(iter(channel.get, None))
        assert [c.payload["x"][0] for c in chunks] == [1.0, 2.0]

    def test_get_none_at_end_of_stream(self):
        channel = ResultChannel()
        channel.close()
        assert channel.get() is None

    def test_get_on_open_empty_nonblocking_raises(self):
        channel = ResultChannel(blocking=False)
        with pytest.raises(ReproError, match="still open"):
            channel.get()

    def test_get_nowait_returns_none_when_open_and_empty(self):
        channel = ResultChannel()
        assert channel.get_nowait() is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            ResultChannel(0)

    def test_counters(self):
        channel = ResultChannel()
        channel.put_rows(batch(1.0, 2.0), 2)
        channel.put_rows(batch(3.0), 1)
        assert channel.chunks_put == 2
        assert channel.rows_put == 3
        assert channel.peak_depth == 2
        channel.get_nowait()
        assert channel.chunks_taken == 1
        assert channel.depth == 1

    def test_nonblocking_put_exceeds_capacity(self):
        # Virtual-time regime: capacity only feeds peak_depth.
        channel = ResultChannel(2, blocking=False)
        for i in range(5):
            channel.put_rows(batch(float(i)), 1)
        assert channel.depth == 5
        assert channel.peak_depth == 5


class TestCloseAndFail:
    def test_close_is_idempotent(self):
        channel = ResultChannel()
        channel.close()
        channel.close()
        assert channel.closed

    def test_put_after_close_raises(self):
        channel = ResultChannel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.put_rows(batch(1.0), 1)

    def test_fail_discards_buffer_and_poisons_get(self):
        channel = ResultChannel()
        channel.put_rows(batch(1.0), 1)
        channel.fail(QueryCancelledError("cancelled"))
        assert channel.failed
        assert channel.depth == 0
        with pytest.raises(QueryCancelledError):
            channel.get()

    def test_put_after_fail_drops_silently(self):
        channel = ResultChannel()
        channel.fail(QueryCancelledError("cancelled"))
        channel.put_rows(batch(1.0), 1)  # no exception
        assert channel.chunks_put == 0

    def test_fail_after_clean_close_is_noop(self):
        # A completed result is not retroactively poisoned: the
        # cancel-vs-complete race resolves in completion's favour.
        channel = ResultChannel()
        channel.put_rows(batch(1.0), 1)
        channel.close()
        channel.fail(QueryCancelledError("too late"))
        assert not channel.failed
        assert channel.get().rows == 1


class TestFailAfter:
    def test_armed_threshold_fires_on_the_nth_put(self):
        channel = ResultChannel()
        channel.fail_after(2)
        channel.put_rows(batch(1.0), 1)
        assert not channel.failed
        channel.put_rows(batch(2.0), 1)
        assert channel.failed
        assert channel.closed
        assert channel.depth == 0
        with pytest.raises(ChannelClosedError):
            channel.get()
        # Later puts drop silently, like any failed channel.
        channel.put_rows(batch(3.0), 1)
        assert channel.chunks_put == 2

    def test_custom_error_surfaces_to_the_consumer(self):
        channel = ResultChannel()
        channel.fail_after(1, error=QueryCancelledError("consumer gone"))
        channel.put_rows(batch(1.0), 1)
        with pytest.raises(QueryCancelledError):
            channel.get()

    def test_threshold_must_be_positive(self):
        with pytest.raises(ReproError):
            ResultChannel().fail_after(0)


class TestBlockingMode:
    def test_put_blocks_until_consumed(self):
        channel = ResultChannel(2, blocking=True)
        produced = []

        def producer():
            for i in range(6):
                channel.put_rows(batch(float(i)), 1)
                produced.append(i)
            channel.close()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.1)
        # Producer is parked: at most capacity chunks in, none out.
        assert len(produced) <= 2
        chunks = list(iter(channel.get, None))
        thread.join(timeout=5.0)
        assert len(chunks) == 6
        assert channel.peak_depth <= 2

    def test_fail_wakes_parked_producer(self):
        channel = ResultChannel(1, blocking=True)
        channel.put_rows(batch(0.0), 1)
        done = threading.Event()

        def producer():
            channel.put_rows(batch(1.0), 1)  # parks on the full channel
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        channel.fail(QueryCancelledError("cancelled"))
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)

    @pytest.mark.parametrize("round_", range(3))
    def test_fail_races_many_concurrent_producers(self, round_):
        # Hammer: several producers racing a fail() at varying points of
        # the stream.  Every producer must exit (puts drop silently, no
        # exception escapes a morsel), the buffer must be empty, and the
        # consumer must see exactly the failure.
        channel = ResultChannel(2, blocking=True)
        escaped = []

        def producer():
            try:
                for i in range(50):
                    channel.put_rows(batch(float(i)), 1)
            except BaseException as exc:  # noqa: BLE001 - recorded
                escaped.append(exc)

        threads = [
            threading.Thread(target=producer, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.005 * (round_ + 1))
        channel.fail(QueryCancelledError("cancelled"))
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert escaped == []
        assert channel.failed
        assert channel.depth == 0
        with pytest.raises(QueryCancelledError):
            channel.get()

    def test_get_timeout_raises(self):
        channel = ResultChannel(blocking=True)
        with pytest.raises(ReproError, match="within"):
            channel.get(timeout=0.05)


class TestAssembly:
    def test_empty_stream_is_no_result(self):
        assert assemble_chunks([]) is NO_RESULT

    def test_single_final_chunk_is_the_payload(self):
        value = {"sum": 42.0}
        assert assemble_chunks([ResultChunk(FINAL, value, 0)]) is value

    def test_row_chunks_concatenate(self):
        chunks = [
            ResultChunk(ROWS, batch(1.0, 2.0), 2),
            ResultChunk(ROWS, batch(3.0), 1),
        ]
        out = assemble_chunks(chunks)
        np.testing.assert_array_equal(out["x"], [1.0, 2.0, 3.0])

    def test_mixed_kinds_rejected(self):
        chunks = [
            ResultChunk(ROWS, batch(1.0), 1),
            ResultChunk(FINAL, 42.0, 0),
        ]
        with pytest.raises(ReproError, match="mixed"):
            assemble_chunks(chunks)


class TestWireCodec:
    def test_round_trip_preserves_boundaries_and_bits(self):
        chunks = [
            ResultChunk(ROWS, batch(1.0, 2.0), 2),
            ResultChunk(ROWS, batch(3.0), 1),
            ResultChunk(FINAL, {"sum": 6.0}, 0),
        ]
        decoded = chunks_from_arrays(chunks_to_arrays(chunks))
        assert [(kind, rows) for kind, _, rows in decoded] == [
            (ROWS, 2), (ROWS, 1), (FINAL, 0)
        ]
        np.testing.assert_array_equal(decoded[0][1]["x"], [1.0, 2.0])
        assert decoded[2][1] == {"sum": 6.0}

    def test_channel_pickles_without_condition(self):
        # Process-backend environments ship whole; the condition
        # variable is dropped and recreated on the other side.
        channel = ResultChannel(4)
        channel.put_rows(batch(1.0), 1)
        clone = pickle.loads(pickle.dumps(channel))
        assert clone.capacity == 4
        assert clone.depth == 1
        clone.put_rows(batch(2.0), 1)  # new condition works
        assert clone.depth == 2
        # A channel that never buffered, a failed one and an armed one
        # keep their state through the slots, whatever the buffer is.
        fresh = ResultChannel(3)
        failed = ResultChannel(4)
        failed.put_rows(batch(1.0), 1)
        failed.fail(QueryCancelledError("gone"))
        armed = ResultChannel(5)
        armed.fail_after(2, ChannelClosedError("consumer left"))
        armed.put_rows(batch(1.0), 1)
        for original in (fresh, failed, armed):
            clone = pickle.loads(pickle.dumps(original))
            assert clone._cond is not original._cond
            for name in (
                "capacity", "depth", "closed", "chunks_put", "rows_put",
                "chunks_taken", "peak_depth",
            ):
                assert getattr(clone, name) == getattr(original, name), name
            assert type(clone.error) is type(original.error)
            assert str(clone.error) == str(original.error)
        with pytest.raises(QueryCancelledError, match="gone"):
            pickle.loads(pickle.dumps(failed)).get()
        clone = pickle.loads(pickle.dumps(armed))
        clone.put_rows(batch(2.0), 1)  # the armed trip survives the trip
        with pytest.raises(ChannelClosedError, match="consumer left"):
            clone.get()
        assert clone.depth == 0
        clone = pickle.loads(pickle.dumps(fresh))
        clone.put_rows(batch(3.0), 1)
        assert clone.get().rows == 1

"""Bounded result channels: how row-batches move from morsels to callers.

Before the streaming refactor every layer of the result path
materialized whole: the engine's final sink buffered all rows, the
backends stashed finished results in a dict, and the server could only
hand them out after ``drain()``.  A :class:`ResultChannel` replaces the
private buffer with an explicit, bounded, producer/consumer channel of
:class:`ResultChunk` items, and it is the only store of a job's result:

* the **engine** pushes one chunk per completed morsel when the final
  pipeline's sink can stream rows (:class:`~repro.engine.operators.CollectSink`),
  or a single terminal chunk at finalization for blocking sinks
  (aggregates, sorts, top-k — pipeline breakers cannot stream);
* the **backends** own one channel per job and close (or fail) it when
  the query completes (or is cancelled);
* the **caller** reads through a
  :class:`~repro.runtime.handle.QueryHandle`, whose cursor state (the
  replay position, a chunk ``fetch(n)`` split, the fetched-row count)
  lives on the channel.

A channel is read in one of two modes, fixed by whichever comes first.
**Live**: a read pops the chunk and marks the channel ``streamed``;
popped rows are gone, so ``assemble()`` then raises.  **Kept**: once
:meth:`ResultChannel.keep` ran (the backend's ``drain()``, ``wait()`` or
``result()``), reads replay from ``position`` without consuming and
``assemble()`` builds the whole value once.  Nothing moves between the
two: keeping only lifts the bound in place.

``blocking=True`` (threaded backend)
    ``put`` blocks while the channel holds ``capacity`` unread chunks
    and is neither kept nor closed.  The producing worker thread parks
    inside the engine kernel, so the stride scheduler naturally stops
    handing that query CPU — real backpressure, and a live stream's
    buffered memory is bounded by ``capacity`` chunks no matter how
    large the result is.

``blocking=False`` (virtual-time backends)
    ``put`` never blocks — in virtual time no consumer can run
    concurrently with the epoch, so chunks accumulate and are delivered
    deterministically when ``drain()`` returns.  ``capacity`` still
    feeds :attr:`peak_depth` accounting.

Thread-safety: every mutation runs under one condition variable, which
every state change (put, pop, keep, close, fail) notifies; nothing waits
on a timer.  All channels of a backend share its one condition (a
channel built alone makes its own), so a state change wakes a real-time
backend's waits; a virtual-time channel never waits.  A channel is
slotted and holds no buffer until its first ``put``, nor after a live
read emptied it.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import List, Optional

from repro.errors import ChannelClosedError, ReproError
from repro.wire import OBJECT, TABLE, Schema, decode_columns, encode_columns

#: Default bound: how many chunks a channel buffers before applying
#: backpressure (blocking mode).  Morsel-sized chunks make this a few
#: hundred KB of float64 columns.
DEFAULT_CHANNEL_CAPACITY = 8

#: Chunk kinds.
ROWS = "rows"
FINAL = "final"

#: The buffer of a channel holding no chunk: none put yet, failed, or
#: emptied by a live read.
_NO_BUFFER = ()


class ResultChunk:
    """One increment of a query result.

    ``kind == "rows"`` carries a column batch (dict of numpy arrays) of
    ``rows`` result rows from one morsel of the final pipeline.
    ``kind == "final"`` carries the whole result object of a blocking
    sink (aggregate rows, a scalar, a dict) pushed at finalization.
    A plain slotted class: one is allocated per streamed morsel.
    """

    __slots__ = ("kind", "payload", "rows")

    def __init__(self, kind: str, payload: object, rows: int) -> None:
        self.kind = kind
        self.payload = payload
        self.rows = rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultChunk(kind={self.kind!r}, rows={self.rows})"


class ResultChannel:
    """A bounded producer/consumer channel of :class:`ResultChunk` items,
    and the cursor over them."""

    __slots__ = (
        "capacity", "blocking", "_buffer", "_cond", "_closed", "_error", "_fail_at_chunk",
        "_fail_with", "chunks_put", "rows_put", "chunks_taken", "peak_depth",
        "position", "partial", "fetched_rows", "streamed", "kept", "_value",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CHANNEL_CAPACITY,
        *,
        blocking: bool = False,
        condition: Optional[threading.Condition] = None,
    ) -> None:
        if capacity < 1:
            raise ReproError("channel capacity must be at least 1")
        self.capacity = capacity
        self.blocking = blocking
        self._buffer = _NO_BUFFER
        self._cond = condition if condition is not None else threading.Condition()
        self._closed = False
        self._error: Optional[BaseException] = None
        # Armed consumer-disappearance fault (see fail_after()).
        self._fail_at_chunk: Optional[int] = None
        self._fail_with: Optional[BaseException] = None
        #: Monotone counters (observability + the bounded-memory test).
        self.chunks_put = 0
        self.rows_put = 0
        self.chunks_taken = 0
        self.peak_depth = 0
        #: The cursor: the next kept chunk to replay, the rest of a chunk
        #: ``fetch(n)`` split as ``(batch, offset, total)``, and the rows
        #: read through a handle.
        self.position = 0
        self.partial: Optional[tuple] = None
        self.fetched_rows = 0
        #: The read mode (see the module notes): at most one becomes true.
        self.streamed = False
        self.kept = False
        self._value = NO_RESULT

    # ------------------------------------------------------------------
    # Pickling (process-backend environments ship whole; the condition
    # variable is recreated on the other side, the assembled value is
    # not shipped)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_cond", "_value")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._cond = threading.Condition()
        self._value = NO_RESULT

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the producer side finished (normally or by failure)."""
        return self._closed

    @property
    def failed(self) -> bool:
        """Whether the channel carries an error (e.g. cancellation)."""
        return self._error is not None

    @property
    def error(self) -> Optional[BaseException]:
        """The failure, if :meth:`fail` was called."""
        return self._error

    @property
    def depth(self) -> int:
        """Chunks put and not yet read."""
        return len(self._buffer) - self.position

    def chunks(self) -> List[ResultChunk]:
        """Every chunk held: the whole stream unless it was read live."""
        with self._cond:
            return list(self._buffer)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, kind: str, payload: object, rows: int) -> None:
        """Append one chunk; blocks while full in blocking mode.

        On a failed channel (cancellation) the chunk is dropped
        silently: the producer is mid-kernel and must wind down through
        the scheduler's finalization protocol, not via an exception
        raised from inside a morsel.  On a channel closed without
        failure, raises :class:`~repro.errors.ChannelClosedError` —
        producing after close is a backend bug.
        """
        with self._cond:
            if self._error is not None:
                return
            if self._closed:
                raise ChannelClosedError(
                    "put() on a closed result channel"
                )
            if self.blocking:
                while (
                    len(self._buffer) >= self.capacity
                    and not self.kept
                    and not self._closed
                    and self._error is None
                ):
                    self._cond.wait()
                if self._error is not None:
                    return
            if self._buffer is _NO_BUFFER:
                self._buffer = []
            self._buffer.append(ResultChunk(kind, payload, rows))
            self.chunks_put += 1
            self.rows_put += rows
            depth = self.depth
            if depth > self.peak_depth:
                self.peak_depth = depth
            if (
                self._fail_at_chunk is not None
                and self.chunks_put >= self._fail_at_chunk
            ):
                # Armed consumer disappearance (see fail_after): the
                # consumer side goes away mid-stream.  Fail in place —
                # the producer's own put stays silent, exactly like a
                # concurrent fail() racing this put.
                self._fail(self._fail_with or ChannelClosedError(
                    "result consumer disappeared mid-stream"
                ))
            self._cond.notify_all()

    def put_rows(self, payload: object, rows: int) -> None:
        """Push one row-batch chunk (the per-morsel streaming path)."""
        self.put(ROWS, payload, rows)

    def put_final(self, payload: object, rows: int = 0) -> None:
        """Push the terminal chunk of a blocking (pipeline-breaker) sink."""
        self.put(FINAL, payload, rows)

    def close(self) -> None:
        """Producer is done; consumers drain the buffer then stop.

        Idempotent, and a no-op after :meth:`fail` (the failure wins).
        """
        with self._cond:
            self._closed = True
            if not self._buffer:
                self._buffer = _NO_BUFFER
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        """Terminate the stream with an error (cancellation path).

        Buffered chunks are discarded, blocked producers and consumers
        wake, later ``put`` calls drop silently and later ``get`` calls
        raise ``error``.  A no-op if the channel already closed cleanly
        — a completed result is not retroactively poisoned.
        """
        with self._cond:
            if self._closed:
                return
            self._fail(error)
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._closed = True
        self._buffer = _NO_BUFFER
        self.position = 0

    def fail_after(
        self, chunks: int, error: Optional[BaseException] = None
    ) -> None:
        """Arm a consumer-disappearance fault: fail after ``chunks`` puts.

        Fault-injection hook (``repro.runtime.faults``): once the
        producer has put ``chunks`` total chunks, the channel fails as
        if the consumer vanished mid-stream — buffered chunks are
        dropped, parked producers wake and their later puts drop
        silently, and consumers see ``error`` (default: a
        :class:`~repro.errors.ChannelClosedError`).  Deterministic: the
        trigger is the monotone ``chunks_put`` counter, not timing.
        """
        if chunks < 1:
            raise ReproError("fail_after threshold must be >= 1")
        with self._cond:
            self._fail_at_chunk = chunks
            self._fail_with = error

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def keep(self) -> None:
        """Keep every chunk for replay and :meth:`assemble`: lift the bound.

        A parked producer wakes and no put parks again.  A no-op on a
        stream already read live, whose bound still holds.
        """
        with self._cond:
            if not self.streamed and not self.kept:
                self.kept = True
                self._cond.notify_all()

    def assemble(self) -> object:
        """The whole result, assembled once and kept (lifts the bound).

        :data:`NO_RESULT` when no chunk was put.  The caller checks
        :attr:`streamed` first: a stream read live holds only its rest.
        """
        with self._cond:
            self.keep()
            if self._value is NO_RESULT:
                self._value = assemble_chunks(self._buffer)
            return self._value

    def _take(self) -> Optional[ResultChunk]:
        """The next chunk if one is buffered (the lock is held)."""
        buffer = self._buffer
        if self.kept:
            if self.position == len(buffer):
                return None
            chunk = buffer[self.position]
            self.position += 1
        elif buffer:
            chunk = buffer.pop(0)
            self.streamed = True
            if not buffer and self._closed:
                self._buffer = _NO_BUFFER
            self._cond.notify_all()
        else:
            return None
        self.chunks_taken += 1
        return chunk

    def get(self, timeout: Optional[float] = None) -> Optional[ResultChunk]:
        """Read the next chunk; ``None`` means end-of-stream.

        In blocking mode, waits until a chunk arrives, the channel
        closes, or ``timeout`` elapses (then raises; ``0`` never waits).
        In virtual-time mode an empty open channel raises immediately —
        chunks only materialise inside ``drain()``, so there is nothing
        to wait for.
        """
        with self._cond:
            while True:
                if self._error is not None:
                    raise self._error
                chunk = self._take()
                if chunk is not None or self._closed:
                    return chunk
                if not self.blocking or timeout == 0:
                    raise ReproError(
                        "result channel is empty and still open; nothing "
                        "puts before drain()/run() (virtual time) or start()"
                    )
                if not self._cond.wait(timeout=timeout):
                    raise ReproError(
                        f"no result chunk arrived within {timeout}s"
                    )

    def get_nowait(self) -> Optional[ResultChunk]:
        """Read the next buffered chunk without waiting, else ``None``.

        Unlike :meth:`get`, an exhausted *open* channel also returns
        ``None`` — callers distinguish end-of-stream via :attr:`closed`.
        Raises the channel error if it failed.
        """
        with self._cond:
            if self._error is not None:
                raise self._error
            return self._take()


# ----------------------------------------------------------------------
# Assembly + wire codec
# ----------------------------------------------------------------------
#: Sentinel: "this query produced no result object" (environments
#: without an engine, e.g. the counting environments of the protocol
#: tests).  Distinct from None, which is a legal query result.
NO_RESULT = object()


def assemble_chunks(chunks: List[ResultChunk]) -> object:
    """Reassemble a full result from its stream of chunks.

    The inverse of streaming: a single ``final`` chunk *is* the result;
    a sequence of ``rows`` chunks concatenates back into one column
    batch — byte-identical to what the pre-streaming
    :class:`~repro.engine.operators.CollectSink` produced, because the
    parts and their order are exactly the sink's old private buffer.
    """
    if not chunks:
        return NO_RESULT
    if len(chunks) == 1 and chunks[0].kind == FINAL:
        return chunks[0].payload
    import numpy as np

    parts = [chunk.payload for chunk in chunks if chunk.kind == ROWS]
    if len(parts) != len(chunks):
        raise ReproError("mixed rows/final chunks in one result stream")
    columns = list(parts[0].keys())
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in columns
    }


#: ``(kind, payload, rows)`` rows.  Row batches stay dicts of flat numpy
#: arrays, which the pool's pickle-5 framing ships out-of-band, so a
#: streamed result crosses as raw column buffers with its chunk
#: boundaries kept instead of collapsing into one terminal blob.
CHUNK_SCHEMA = Schema((TABLE, OBJECT, "int64"))
_CHUNK_ROW = attrgetter("kind", "payload", "rows")


def chunks_to_arrays(chunks: List[ResultChunk]) -> list:
    """Encode a chunk list for the process-pool pipe (lossless)."""
    return encode_columns(map(_CHUNK_ROW, chunks), CHUNK_SCHEMA)


def chunks_from_arrays(payload: list) -> List[tuple]:
    """Inverse of :func:`chunks_to_arrays`, as ``(kind, payload, rows)``."""
    return decode_columns(payload, CHUNK_SCHEMA, lambda *row: row)

"""Bounded result channels: how row-batches move from morsels to callers.

Before the streaming refactor every layer of the result path
materialized whole: the engine's final sink buffered all rows, the
backends stashed finished results in a dict, and the server could only
hand them out after ``drain()``.  A :class:`ResultChannel` replaces the
private buffer with an explicit, bounded, producer/consumer channel of
:class:`ResultChunk` items:

* the **engine** pushes one chunk per completed morsel when the final
  pipeline's sink can stream rows (:class:`~repro.engine.operators.CollectSink`),
  or a single terminal chunk at finalization for blocking sinks
  (aggregates, sorts, top-k — pipeline breakers cannot stream);
* the **backends** own one channel per job and close (or fail) it when
  the query completes (or is cancelled);
* the **caller** consumes through a
  :class:`~repro.runtime.handle.QueryHandle` — ``fetch``/iteration pop
  chunks as they arrive.

Two delivery regimes share the class:

``blocking=True`` (threaded backend)
    ``put`` blocks while the channel holds ``capacity`` chunks.  The
    producing worker thread parks inside the engine kernel, so the
    stride scheduler naturally stops handing that query CPU — real
    backpressure, and the peak buffered memory is bounded by
    ``capacity`` chunks no matter how large the result is.

``blocking=False`` (virtual-time backends)
    ``put`` never blocks — in virtual time no consumer can run
    concurrently with the epoch, so chunks accumulate and are delivered
    deterministically when ``drain()`` returns.  ``capacity`` still
    feeds :attr:`peak_depth` accounting.

Thread-safety: every mutation runs under one condition variable, which
every state change (put, pop, close, fail) notifies; nothing waits on a
timer.  A real-time backend passes the condition its own waits sleep
on, so its channels share it and a channel state change wakes them too.
The sequential virtual-time paths pay a single uncontended lock
acquisition per chunk, which is noise next to the numpy kernels
producing it.
"""

from __future__ import annotations

import threading
from collections import deque
from operator import attrgetter
from typing import Deque, Iterator, List, Optional

from repro.errors import ChannelClosedError, ReproError
from repro.wire import OBJECT, TABLE, Schema, decode_columns, encode_columns

#: Default bound: how many chunks a channel buffers before applying
#: backpressure (blocking mode).  Morsel-sized chunks make this a few
#: hundred KB of float64 columns.
DEFAULT_CHANNEL_CAPACITY = 8

#: Chunk kinds.
ROWS = "rows"
FINAL = "final"


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
    """A bounded producer/consumer channel of :class:`ResultChunk` items."""

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
        self._buffer: Deque[ResultChunk] = deque()
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

    # ------------------------------------------------------------------
    # Pickling (process-backend environments ship whole; the condition
    # variable is recreated on the other side)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_cond"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cond = threading.Condition()

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
        """Chunks currently buffered."""
        return len(self._buffer)

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
                    and not self._closed
                    and self._error is None
                ):
                    self._cond.wait()
                if self._error is not None:
                    return
            self._buffer.append(ResultChunk(kind, payload, rows))
            self.chunks_put += 1
            self.rows_put += rows
            depth = len(self._buffer)
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
                self._error = self._fail_with or ChannelClosedError(
                    "result consumer disappeared mid-stream"
                )
                self._closed = True
                self._buffer.clear()
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
            self._error = error
            self._closed = True
            self._buffer.clear()
            self._cond.notify_all()

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
    def get(self, timeout: Optional[float] = None) -> Optional[ResultChunk]:
        """Pop the next chunk; ``None`` means end-of-stream.

        In blocking mode, waits until a chunk arrives, the channel
        closes, or ``timeout`` elapses (then raises).  In virtual-time
        mode an empty open channel raises immediately — chunks only
        materialise inside ``drain()``, so there is nothing to wait for.
        """
        with self._cond:
            while True:
                if self._error is not None:
                    raise self._error
                if self._buffer:
                    self.chunks_taken += 1
                    chunk = self._buffer.popleft()
                    self._cond.notify_all()
                    return chunk
                if self._closed:
                    return None
                if not self.blocking:
                    raise ReproError(
                        "result channel is empty and still open; "
                        "virtual-time backends deliver chunks in "
                        "drain()/run()"
                    )
                if not self._cond.wait(timeout=timeout):
                    raise ReproError(
                        f"no result chunk arrived within {timeout}s"
                    )

    def get_nowait(self) -> Optional[ResultChunk]:
        """Pop the next buffered chunk without waiting, else ``None``.

        Unlike :meth:`get`, an exhausted *open* channel also returns
        ``None`` — callers distinguish end-of-stream via :attr:`closed`.
        Raises the channel error if it failed.
        """
        with self._cond:
            if self._error is not None:
                raise self._error
            if self._buffer:
                self.chunks_taken += 1
                chunk = self._buffer.popleft()
                self._cond.notify_all()
                return chunk
            return None

    def __iter__(self) -> Iterator[ResultChunk]:
        """Yield chunks until end-of-stream."""
        while True:
            chunk = self.get()
            if chunk is None:
                return
            yield chunk


# ----------------------------------------------------------------------
# Assembly + wire codec
# ----------------------------------------------------------------------
#: Sentinel: "this query produced no result object" (environments
#: without an engine, e.g. the counting environments of the protocol
#: tests).  Distinct from None, which is a legal query result.
NO_RESULT = object()

#: Sentinel returned by ``EngineEnvironment.finish_query`` for a query
#: whose rows streamed through a channel: the engine never materialized
#: the full result — the chunks in the channel *are* the result.
STREAMED = object()


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

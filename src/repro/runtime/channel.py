"""Result channels: one chunk list per execution, one reader per job.

An execution's result is one append-only :class:`ChunkList` of
:class:`ResultChunk` items, its only store, and every job reads one
through its own :class:`ResultChannel`:

* the **engine** puts one chunk per morsel of a final pipeline whose
  sink streams rows (:class:`~repro.engine.operators.CollectSink`), or a
  pipeline breaker's value as one terminal chunk, through the channel
  of the job it executes; the process backend puts what came off the
  pipe the same way;
* the **backends** own one channel per job and close (or fail) it when
  the query ends.  A fold member's or a fragment-cache hit's channel is
  opened as a *kept* reader of the leader's list, so nothing is copied;
* the **caller** reads through a :class:`~repro.runtime.handle.QueryHandle`,
  whose cursor (position, a ``fetch(n)`` split, fetched rows) lives on
  the channel.

A channel is read in one of two modes, fixed by whichever comes first.
**Live**: a read consumes the chunk and marks the channel ``streamed``;
unless another reader is open on the list the chunk is dropped, so
``assemble()`` then raises and the list is no longer whole.  **Kept**:
after :meth:`ResultChannel.keep` (``drain()``, ``wait()``, ``result()``)
reads replay from ``position`` and ``assemble()`` builds the value once.
Keeping only lifts the bound in place.  In blocking mode (threaded
backend) ``put`` parks the producing worker while its own job's reader
is live and holds ``capacity`` unread chunks — real backpressure, a
live stream's memory bounded no matter how large the result; kept
readers never hold it back.  In virtual time ``put`` never blocks.
Failing a reader fails only that reader; production stops once no
reader of the list is open (``ChunkList.readers``).

Thread-safety: every mutation runs under one condition variable, which
every state change notifies; nothing waits on a timer.  A backend's
channels share its one condition.  A channel is slotted and holds no
list until its first ``put``, nor after a live read emptied it.
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


class ChunkList(list):
    """One execution's chunks in production order, appended only through
    the producing job's channel.  ``readers`` counts the channels open
    over it; the last one to fail empties it and stops production."""

    __slots__ = ("readers",)


#: The list of a channel holding no chunk: none put yet, failed, or
#: emptied by a live read.  Shared, so never appended to.
_NO_BUFFER = ChunkList()
_NO_BUFFER.readers = 0


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
    """One job's reader of a :class:`ChunkList`, and the cursor over it;
    the producer of the list writes through its own job's channel."""

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
        #: The cursor: the next chunk of the list to read, the rest of a
        #: chunk ``fetch(n)`` split as ``(batch, offset, total)``, and the
        #: rows read through a handle.
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
        if not self._buffer:  # the shared empty list comes back a copy
            self._buffer = _NO_BUFFER
        self._cond = threading.Condition()
        self._value = NO_RESULT

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the stream ended for this reader: closed or failed."""
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

    def chunks(self) -> ChunkList:
        """The list this channel reads (not a copy): every chunk of the
        execution unless a live read dropped some."""
        return self._buffer

    # ------------------------------------------------------------------
    # One list, several readers (fold members, fragment-cache hits)
    # ------------------------------------------------------------------
    def _whole(self) -> bool:
        """Whether this producer's list holds every chunk it ever put."""
        return self._error is None and len(self._buffer) == self.chunks_put

    def _share(self) -> ChunkList:
        """This producer's list for another channel to :meth:`_open`."""
        with self._cond:
            if self._buffer is _NO_BUFFER:
                self._buffer = ChunkList()
                self._buffer.readers = 1
            return self._buffer

    def _open(self, chunks: ChunkList) -> None:
        """Read another execution's ``chunks``, kept: never a bound on it."""
        with self._cond:
            chunks.readers += 1
            self._buffer = chunks
            self.kept = True

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, kind: str, payload: object, rows: int) -> None:
        """Append one chunk; blocks while full in blocking mode.

        On a failed channel (cancellation) the chunk is dropped silently
        unless another reader is open on the list: the producer is
        mid-kernel and must wind down through the scheduler's
        finalization protocol, not via an exception raised from inside
        a morsel.  On a channel closed without failure, raises
        :class:`~repro.errors.ChannelClosedError` — producing after
        close is a backend bug.
        """
        with self._cond:
            if self._error is not None:
                if not self._buffer.readers:
                    return
            elif self._closed:
                raise ChannelClosedError(
                    "put() on a closed result channel"
                )
            elif self.blocking:
                while (
                    len(self._buffer) - self.position >= self.capacity
                    and not self.kept
                    and not self._closed
                    and self._error is None
                ):
                    self._cond.wait()
                if self._error is not None and not self._buffer.readers:
                    return
            buffer = self._buffer
            if buffer is _NO_BUFFER:
                self._buffer = buffer = ChunkList()
                buffer.readers = 1
            buffer.append(ResultChunk(kind, payload, rows))
            self.chunks_put += 1
            self.rows_put += rows
            depth = len(buffer) - self.position
            if depth > self.peak_depth:
                self.peak_depth = depth
            if (
                self._fail_at_chunk is not None
                and self.chunks_put >= self._fail_at_chunk
                and self._error is None
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
        """Producer is done; consumers drain the list then stop.

        Idempotent, and a no-op after :meth:`fail` (the failure wins).
        """
        with self._cond:
            self._closed = True
            if not self._buffer:
                self._buffer = _NO_BUFFER
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        """Terminate this reader with an error (cancellation path).

        The reader leaves its list, blocked producers and consumers
        wake, and later ``get`` calls raise ``error``; production stops
        unless another reader of the list is still open.  A no-op if
        the channel already closed cleanly — a completed result is not
        retroactively poisoned.
        """
        with self._cond:
            if self._closed:
                return
            self._fail(error)
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._closed = True
        self.position = 0
        buffer = self._buffer
        if buffer is not _NO_BUFFER:
            buffer.readers -= 1
            if not buffer.readers:
                # Nobody is left to read a chunk of it: drop them all.
                buffer.clear()
                self._buffer = _NO_BUFFER

    def fail_after(
        self, chunks: int, error: Optional[BaseException] = None
    ) -> None:
        """Arm a consumer-disappearance fault: fail after ``chunks`` puts.

        Fault-injection hook (``repro.runtime.faults``): once the
        producer has put ``chunks`` total chunks, the channel fails as
        :meth:`fail` would, with ``error`` (default: a
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

        :data:`NO_RESULT` when no chunk was put or the reader failed.
        The caller checks :attr:`streamed` first: a stream read live
        holds only its rest.
        """
        with self._cond:
            self.keep()
            if self._value is NO_RESULT and self._error is None:
                self._value = assemble_chunks(self._buffer)
            return self._value

    def _take(self) -> Optional[ResultChunk]:
        """The next chunk if one is in the list (the lock is held)."""
        buffer = self._buffer
        position = self.position
        if position == len(buffer):
            return None
        chunk = buffer[position]
        if self.kept:
            self.position = position + 1
        else:
            self.streamed = True
            if buffer.readers > 1:  # another reader still needs it
                self.position = position + 1
            else:
                del buffer[: position + 1]
                self.position = 0
                if not buffer and self._closed:
                    self._buffer = _NO_BUFFER
            self._cond.notify_all()
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

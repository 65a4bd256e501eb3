"""Query handles: one ticket class for every layer, one cursor per job.

A :class:`QueryHandle` is the ticket a backend, server or router issued
— an :class:`int`, usable as a dict key and passable back into
``poll``/``wait``/``result`` — bound to that *owner*.  Every call
resolves it through the owner's one resolver, ``owner._locate(ticket)
-> (backend, job_id)`` (a server follows retry aliases, a router its
shard address and then the shard's), so a handle follows retries and
handoffs by construction:

* :meth:`~QueryHandle.fetch` pops up to ``n`` result rows (splitting
  chunks), blocking for the next chunk on the threaded backend;
  iteration yields batches at their natural chunk boundaries;
* :meth:`~QueryHandle.cancel` is the owner's ``cancel`` (a server's also
  disarms the ticket's retries);
* ``progress``, ``result``, ``failed`` and ``failure`` are the
  backend's answers for the resolved job.

The cursor state lives with the backend's job, one :class:`ResultCursor`
per job, in one of two modes.  **Streaming** (threaded backend, before
``drain``): ``fetch`` pops the live channel, so buffered memory stays
bounded by the channel capacity; popped rows are gone and ``result()``
afterwards raises.  **Materialized** (after ``drain``, and always on
virtual-time backends): the backend absorbed the stream into the
cursor's spill, which ``fetch``/iteration replay without consuming it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.channel import FINAL, ResultChannel, ResultChunk


class ResultCursor:
    """One job's position in its result stream; the backend keeps one per job.

    ``spill`` is replayed from ``position``; ``partial`` is the rest of a
    chunk ``fetch(n)`` split; ``lock`` is the backend's absorb lock.
    """

    __slots__ = (
        "channel", "lock", "spill", "position", "partial", "streamed",
        "materialized", "fetched_rows",
    )

    def __init__(self, channel: ResultChannel, lock) -> None:
        self.channel = channel
        self.lock = lock
        self.spill: List[ResultChunk] = []
        self.position = 0
        self.partial: Optional[Tuple[dict, int, int]] = None
        self.streamed = False
        self.materialized = False
        self.fetched_rows = 0

    def next_chunk(self) -> Optional[ResultChunk]:
        """Advance to the next chunk: spilled first, then the live channel."""
        with self.lock:  # no absorb may spill between this check and the mark
            if self.position < len(self.spill):
                chunk = self.spill[self.position]
                self.position += 1
                return chunk
            if self.materialized:
                return None
            # From here on we are consuming the live stream
            # destructively; drain() must leave this job's channel alone.
            self.streamed = True
        return self.channel.get(timeout=30.0)

    def take(self, limit: int):
        """Pop up to ``limit`` rows; returns ``(batch, rows)``.

        ``(None, 0)`` means end-of-stream; ``rows is None`` flags a
        ``final`` chunk whose payload is returned whole (pipeline
        breakers produce exactly one, and it need not be sliceable).
        """
        if self.partial is not None:
            batch, offset, total = self.partial
            take = min(limit, total - offset)
            out = {
                name: column[offset : offset + take]
                for name, column in batch.items()
            }
            if offset + take >= total:
                self.partial = None
            else:
                self.partial = (batch, offset + take, total)
            return out, take
        chunk = self.next_chunk()
        if chunk is None:
            return None, 0
        if chunk.kind == FINAL:
            return chunk.payload, None
        if chunk.rows <= limit:
            return chunk.payload, chunk.rows
        self.partial = (chunk.payload, limit, chunk.rows)
        return (
            {name: column[:limit] for name, column in chunk.payload.items()},
            limit,
        )


class QueryHandle(int):
    """An integer ticket that doubles as a result cursor.

    Built by the issuing layer via :meth:`attach`; the value is that
    layer's ticket, and every call resolves it through the owner.  It
    prints as the bare number, so error messages read "job 3".
    """

    @classmethod
    def attach(cls, ticket: int, owner) -> "QueryHandle":
        """A handle for ``ticket`` answered by ``owner._locate``."""
        handle = cls(ticket)
        handle._owner = owner
        return handle

    def _cursor(self) -> ResultCursor:
        backend, job_id = self._owner._locate(int(self))
        return backend._cursors[job_id]

    def fetch(self, n: int = 65536):
        """Return a batch of up to ``n`` result rows, ``None`` at the end.

        Row batches are dicts of numpy column arrays.  For a query whose
        final sink is a pipeline breaker (aggregate, sort, top-k) the
        stream holds a single terminal chunk and ``fetch`` returns its
        payload whole.  On a cancelled query this raises
        :class:`~repro.errors.QueryCancelledError`.
        """
        if n < 1:
            raise ReproError(f"fetch(n) needs n >= 1, got {n}")
        cursor = self._cursor()
        gathered: List[dict] = []
        got = 0
        while got < n:
            batch, rows = cursor.take(n - got)
            if batch is None:
                break
            if rows is None:
                if gathered:
                    raise ReproError(
                        "mixed rows/final chunks in one result stream"
                    )
                return batch
            gathered.append(batch)
            got += rows
        if not gathered:
            return None
        cursor.fetched_rows += got
        if len(gathered) == 1:
            return gathered[0]
        import numpy as np

        return {
            name: np.concatenate([part[name] for part in gathered])
            for name in gathered[0]
        }

    def __iter__(self) -> Iterator[object]:
        """Yield result batches at their natural chunk boundaries."""
        cursor = self._cursor()
        while True:
            if cursor.partial is not None:
                batch, offset, total = cursor.partial
                cursor.partial = None
                cursor.fetched_rows += total - offset
                yield {
                    name: column[offset:] for name, column in batch.items()
                }
                continue
            chunk = cursor.next_chunk()
            if chunk is None:
                return
            if chunk.kind != FINAL:
                cursor.fetched_rows += chunk.rows
            yield chunk.payload

    def rewind(self) -> None:
        """Reset the cursor to the start (materialized results only)."""
        cursor = self._cursor()
        if cursor.streamed and not cursor.materialized:
            raise ReproError(
                "cannot rewind a live stream; rows already fetched are gone"
            )
        cursor.position = 0
        cursor.partial = None

    def cancel(self) -> bool:
        """Cancel the query exactly as the owner's ``cancel`` does."""
        return self._owner.cancel(int(self))

    def progress(self) -> dict:
        """Streaming counters + completion state, without consuming."""
        backend, job_id = self._owner._locate(int(self))
        return backend.progress(job_id)

    def result(self):
        """The fully assembled result (materialized streams only)."""
        backend, job_id = self._owner._locate(int(self))
        return backend.result(job_id)

    def failed(self) -> bool:
        """Whether the query's latest attempt failed."""
        backend, job_id = self._owner._locate(int(self))
        return backend.failed(job_id)

    def failure(self) -> Optional[BaseException]:
        """The exception that failed the latest attempt, if it failed."""
        backend, job_id = self._owner._locate(int(self))
        return backend.failure(job_id)

    @property
    def channel(self) -> ResultChannel:
        """The result channel of the latest attempt (observability, tests)."""
        return self._cursor().channel

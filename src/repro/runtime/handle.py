"""Query handles: one ticket class for every layer, reading one channel.

A :class:`QueryHandle` is the ticket a backend, server or router issued
— an :class:`int`, usable as a dict key and passable back into
``poll``/``wait``/``result`` — bound to that *owner*.  Every call
resolves it through the owner's one resolver, ``owner._locate(ticket)
-> (backend, job_id)`` (a server follows retry aliases, a router its
shard address and then the shard's), so a handle follows retries and
handoffs by construction:

* :meth:`~QueryHandle.fetch` reads up to ``n`` result rows (splitting
  chunks), waiting for the next chunk on the threaded backend;
  iteration yields batches at their natural chunk boundaries;
* :meth:`~QueryHandle.cancel` is the owner's ``cancel`` (a server's also
  disarms the ticket's retries);
* ``progress``, ``result``, ``failed`` and ``failure`` are the
  backend's answers for the resolved job.

The cursor state lives on the job's
:class:`~repro.runtime.channel.ResultChannel`, its reader of the one
chunk list of the execution serving it.  Read before anything kept it (threaded backend, before
``drain``/``wait``/``result``), the stream is consumed live: buffered
memory stays bounded by the channel capacity, read rows are gone and
``result()`` afterwards raises.  Once kept (always, after a drain, on
the virtual-time backends) reads replay without consuming.  A read
waits with no timer: every end of a stream (settle, cancel, failure,
shutdown) wakes it, and on a backend that was never started it raises
at once.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.channel import FINAL, ResultChannel


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

    def _stream(self) -> Tuple[ResultChannel, Optional[float]]:
        """The latest attempt's channel and how long a read may wait on
        it: without limit, except before the backend starts, when
        nothing could put."""
        backend, job_id = self._owner._locate(int(self))
        return backend._channels[job_id], (0.0 if backend.state.name == "NEW" else None)

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
        channel, timeout = self._stream()
        gathered: List[dict] = []
        got = 0
        while got < n:
            part = channel.partial
            if part is None:
                chunk = channel.get(timeout)
                if chunk is None:
                    break
                if chunk.kind == FINAL:
                    if gathered:
                        raise ReproError(
                            "mixed rows/final chunks in one result stream"
                        )
                    return chunk.payload
                part = (chunk.payload, 0, chunk.rows)
            batch, offset, total = part
            take = min(n - got, total - offset)
            end = offset + take
            channel.partial = (batch, end, total) if end < total else None
            if take < total:
                batch = {name: column[offset:end] for name, column in batch.items()}
            gathered.append(batch)
            got += take
        if not gathered:
            return None
        channel.fetched_rows += got
        if len(gathered) == 1:
            return gathered[0]
        import numpy as np

        return {
            name: np.concatenate([part[name] for part in gathered])
            for name in gathered[0]
        }

    def __iter__(self) -> Iterator[object]:
        """Yield result batches at their natural chunk boundaries."""
        channel, timeout = self._stream()
        while True:
            if channel.partial is not None:
                batch, offset, total = channel.partial
                channel.partial = None
                channel.fetched_rows += total - offset
                yield {
                    name: column[offset:] for name, column in batch.items()
                }
                continue
            chunk = channel.get(timeout)
            if chunk is None:
                return
            if chunk.kind != FINAL:
                channel.fetched_rows += chunk.rows
            yield chunk.payload

    def rewind(self) -> None:
        """Reset the cursor to the start (kept results only)."""
        channel = self.channel
        if channel.streamed:
            raise ReproError(
                "cannot rewind a live stream; rows already fetched are gone"
            )
        channel.position = 0
        channel.partial = None

    def cancel(self) -> bool:
        """Cancel the query exactly as the owner's ``cancel`` does."""
        return self._owner.cancel(int(self))

    def progress(self) -> dict:
        """Streaming counters + completion state, without consuming."""
        backend, job_id = self._owner._locate(int(self))
        return backend.progress(job_id)

    def result(self):
        """The fully assembled result (streams not read live only)."""
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
        return self._stream()[0]

"""The execution-backend protocol: one scheduler, pluggable substrates.

The schedulers in :mod:`repro.core` are driven through three calls
(``admit`` / ``worker_decide`` / ``worker_finish``) and are agnostic to
*what* advances time and executes morsels.  An
:class:`ExecutionBackend` is the thing that drives them:

* the :class:`~repro.runtime.simulated.SimulatedBackend` replays the
  calls from a discrete-event loop in virtual time (the substrate every
  figure of the paper is reproduced on);
* the :class:`~repro.runtime.threaded.ThreadedBackend` runs one real OS
  thread per worker, so the scheduler's atomics, update masks and the
  finalization protocol are exercised under genuine concurrency;
* the :class:`~repro.runtime.process.ProcessBackend` is a simulated
  backend whose epochs execute in a warm pool worker.

All backends present the same *online* lifecycle, which the
:class:`~repro.server.AnalyticsServer` builds on:

``start()``
    begin executing (idempotent while running; illegal after
    ``shutdown``);
``submit(spec, at=None)``
    register one query; returns a :class:`~repro.runtime.handle.QueryHandle`
    — an ``int`` job id that doubles as a result cursor
    (``fetch``/iteration/``cancel``/``progress``).  Legal before and
    while running;
``drain()``
    block until every submitted job completed; returns the latency
    records of the jobs that finished since the previous drain.  The
    backend stays usable afterwards;
``cancel(job_id)``
    abort one in-flight job: its result channel fails with
    :class:`~repro.errors.QueryCancelledError` and the scheduler winds
    the query down through the normal finalization protocol;
``shutdown()``
    stop executing and release workers.  Afterwards every mutating call
    raises :class:`~repro.errors.ReproError`; completed records remain
    readable.

Results flow through one bounded
:class:`~repro.runtime.channel.ResultChannel` per job.  The engine
pushes row chunks as morsels of the final pipeline complete; callers
either consume the live stream through a handle (threaded backend —
bounded memory) or let ``drain()`` absorb the stream into the job's
:class:`~repro.runtime.handle.ResultCursor`, which ``result()``
assembles once, on first demand.  A handle of any layer reaches that cursor
through :meth:`ExecutionBackend._locate`, the bottom of the one ticket
resolver chain.

However a query ends — completed, cancelled, failed, timed out, served
from a fold or a cache — its outcome is published by one method,
:meth:`ExecutionBackend._settle`.  A backend keeps only what differs
with its time model: when time advances and where morsels run.  The two
virtual-time backends share one epoch loop,
:class:`~repro.runtime.simulated.SimulatedBackend`; the process backend
overrides only the step that executes an epoch.
"""

from __future__ import annotations

import abc
import enum
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.specs import QuerySpec
from repro.errors import (
    QueryCancelledError,
    QueryFailedError,
    QueryTimeoutError,
    ReproError,
    UnknownTicketError,
    error_from_text,
    error_text,
)
from repro.metrics.latency import LatencyRecord
from repro.runtime.channel import (
    DEFAULT_CHANNEL_CAPACITY,
    NO_RESULT,
    STREAMED,
    ResultChannel,
    assemble_chunks,
)
from repro.runtime.clock import Clock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.handle import QueryHandle, ResultCursor


class BackendState(enum.Enum):
    """Lifecycle phase of an execution backend."""

    NEW = "new"
    RUNNING = "running"
    CLOSED = "closed"


class ExecutionBackend(abc.ABC):
    """Common lifecycle + job bookkeeping for execution backends."""

    #: Whether this backend's result channels block producers when full
    #: (real backpressure).  Virtual-time backends keep ``False`` — in
    #: an epoch no consumer can run concurrently, so blocking would
    #: deadlock; the threaded backend overrides to ``True``.
    _channel_blocking = False
    #: The one condition a real-time backend's waits sleep on.  Every
    #: result channel of the backend shares it, so a settle and a
    #: channel's put / close / fail wake the same sleepers.  ``None``
    #: (virtual time): each channel keeps a condition of its own.
    _done: Optional[threading.Condition] = None

    def __init__(
        self, *, channel_capacity: int = DEFAULT_CHANNEL_CAPACITY
    ) -> None:
        self._state = BackendState.NEW
        self._lifecycle_lock = threading.Lock()
        self._next_job_id = 0
        #: Latency records of completed jobs, keyed by job id.
        self.records: Dict[int, LatencyRecord] = {}
        #: Engine results of completed jobs: a pipeline breaker's value
        #: at completion, a streamed result once ``result()`` assembled
        #: it (only populated when the environment produces results).
        self.results: Dict[int, object] = {}
        #: Jobs submitted and not yet settled.
        self._live: Set[int] = set()
        #: The drained-record ledger: jobs settled since the previous
        #: ``drain()``, in settle order.
        self._settled: List[int] = []
        #: How many chunks each job's result channel buffers before
        #: applying backpressure.
        self.channel_capacity = channel_capacity
        #: Each job's result channel and the cursor over it.
        self._cursors: Dict[int, ResultCursor] = {}
        #: Serializes _absorb_stream: on a real-time backend several
        #: caller threads may absorb one job (two waiters of one fold).
        self._absorb_lock = threading.Lock()
        self._cancelled: Set[int] = set()
        #: The exception that failed each failed job (in-process view;
        #: failures that crossed a process pipe are reconstructed from
        #: the record's error text).
        self.failures: Dict[int, BaseException] = {}
        #: Observer the owning server installs: called with the job id
        #: the moment a job stops being pending, *after* the mark or
        #: record that says so is written (state first, notify second).
        self.on_terminal: Optional[Callable[[int], None]] = None
        self._fault_injector: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> BackendState:
        """The current lifecycle phase."""
        return self._state

    def start(self) -> None:
        """Begin executing submitted jobs."""
        with self._lifecycle_lock:
            if self._state is BackendState.CLOSED:
                raise ReproError("backend already shut down; create a new one")
            if self._state is BackendState.RUNNING:
                return
            self._state = BackendState.RUNNING
            self._do_start()

    def submit(self, spec: QuerySpec, at: Optional[float] = None) -> QueryHandle:
        """Register one query for execution; returns its handle.

        The handle is an ``int`` (the job id) and stays valid as a
        plain ticket everywhere a job id is accepted; it additionally
        exposes the streaming cursor API
        (:meth:`~repro.runtime.handle.QueryHandle.fetch`, iteration,
        ``cancel``, ``progress``).
        """
        with self._lifecycle_lock:
            if self._state is BackendState.CLOSED:
                raise ReproError(
                    "cannot submit to a backend after shutdown()"
                )
            job_id = self._next_job_id
            self._next_job_id += 1
            self._cursors[job_id] = ResultCursor(
                ResultChannel(
                    self.channel_capacity,
                    blocking=self._channel_blocking,
                    condition=self._done,
                )
            )
            self._live.add(job_id)
        self._do_submit(job_id, spec, at)
        return QueryHandle.attach(job_id, self)

    def drain(self) -> List[LatencyRecord]:
        """Run every submitted job to completion; return the new records."""
        if self._state is BackendState.CLOSED:
            raise ReproError("cannot drain a backend after shutdown()")
        if self._state is BackendState.NEW:
            self.start()
        return [self.records[job_id] for job_id in self._do_drain()]

    def shutdown(self) -> None:
        """Stop executing; the backend cannot be restarted."""
        with self._lifecycle_lock:
            if self._state is BackendState.CLOSED:
                return
            self._state = BackendState.CLOSED
        self._do_shutdown()

    def cancel(self, job_id: int) -> bool:
        """Abort one in-flight job; returns ``True`` if it was cancelled.

        A job that already completed keeps its result and record —
        ``cancel`` then returns ``False``.  Otherwise the job's result
        channel fails with :class:`~repro.errors.QueryCancelledError`
        (waking any parked producer or consumer), the backend tags the
        query's task sets exhausted so the §2.3 finalization protocol
        winds it down through the normal completion path, and its
        admission slot frees for subsequent queries.  Idempotent.
        """
        return self._abort(job_id, None)

    def fail(self, job_id: int, error: BaseException) -> bool:
        """Fail one in-flight job; returns ``True`` if it took effect.

        Cancellation with a cause attached — used by load shedding and
        by tests; queries that fail *internally* (a raising morsel, a
        missed deadline) go through the scheduler's abort path instead
        and land in :attr:`failures` when their record surfaces.  A job
        that already completed keeps its result; the same clean-close
        race rule as ``cancel`` applies.
        """
        return self._abort(job_id, error)

    def _abort(self, job_id: int, error: Optional[BaseException]) -> bool:
        """The body of :meth:`cancel` (``error is None``) and :meth:`fail`."""
        self._locate(job_id)
        with self._lifecycle_lock:
            if self._state is BackendState.CLOSED:
                verb = "cancel" if error is None else "fail a job"
                raise ReproError(f"cannot {verb} on a backend after shutdown()")
            if job_id in (self._cancelled if error is None else self.failures):
                return True
            if job_id in self.records or (
                error is not None and job_id in self._cancelled
            ):
                return False
            if error is None:
                self._cancelled.add(job_id)
            else:
                self.failures[job_id] = error
            if self.on_terminal is not None:
                self.on_terminal(job_id)
        # Fail the channel *first*: a threaded producer parked in a full
        # channel must wake (and see its puts become drops) before the
        # scheduler drains the query's remaining work.
        channel = self._cursors[job_id].channel
        if error is None:
            channel.fail(QueryCancelledError(f"query job {job_id} was cancelled"))
        else:
            self._fail_channel(job_id, error, error_text(error))
        if not channel.failed:
            # The job completed in the race window; its clean close won,
            # so the result stands and the abort is a no-op.
            if error is None:
                self._cancelled.discard(job_id)
            else:
                self.failures.pop(job_id, None)
            return False
        self._do_abort(job_id, error)
        return True

    # ------------------------------------------------------------------
    # Settlement: the one place a finished job's outcome becomes visible
    # ------------------------------------------------------------------
    @staticmethod
    def _synthetic_record(
        spec: QuerySpec,
        arrival: float,
        completion: float,
        *,
        cancelled: bool = False,
        error: str = "",
    ) -> LatencyRecord:
        """The record of a job that never held scheduler state.

        Jobs cancelled or shed while pending, cache hits and fold
        members consume no CPU and have no resource group, so their
        record is built here instead of by the scheduler: query id -1,
        zero CPU, failed iff ``error`` is set.
        """
        return LatencyRecord(
            query_id=-1,
            name=spec.name,
            scale_factor=spec.scale_factor,
            arrival_time=arrival,
            completion_time=completion,
            cpu_seconds=0.0,
            cancelled=cancelled,
            failed=bool(error),
            error=error,
        )

    def _fail_channel(self, job_id: int, cause: BaseException, text: str) -> None:
        """Fail a job's channel with ``QueryFailedError`` chaining ``cause``."""
        failure = QueryFailedError(f"query job {job_id} failed: {text}")
        failure.__cause__ = cause
        self._cursors[job_id].channel.fail(failure)

    def _settle(
        self,
        job_id: int,
        record: LatencyRecord,
        cause: Optional[BaseException] = None,
        chunks=(),
    ) -> LatencyRecord:
        """Publish one finished job's outcome; returns ``record``.

        Every terminal path of every backend ends here.  A failed
        record lands in :attr:`failures` (``cause``, else reconstructed
        from the record's error text) and fails the channel; a cancelled
        one only needs its record (``cancel()`` already failed the
        channel); a completed one gets ``chunks`` — ``(kind, payload,
        rows)`` triples the caller already holds: a fold's replay
        buffer, a cache hit, a result off the process pipe — and a clean
        close.  The record is written last, then the job leaves the live
        set and joins the drained-record ledger, so a job that ``wait()``
        or ``drain()`` sees settled is fully materialised.  A real-time
        backend calls this under its condition and notifies.
        """
        channel = self._cursors[job_id].channel
        if record.failed:
            if cause is None:
                cause = error_from_text(record.error)
            self.failures[job_id] = cause
            self._fail_channel(job_id, cause, record.error)
        elif not record.cancelled:
            if self._channel_blocking:
                # Real time: the chunks are already in memory, so
                # backpressure would bound nothing — it would only park
                # the finalizing worker on this job's consumer.  Size
                # the channel to the delivery instead.
                channel.capacity = max(channel.capacity, len(chunks))
            for kind, payload, rows in chunks:
                channel.put(kind, payload, rows)
            channel.close()
            if not self._channel_blocking:
                # Virtual time: no consumer runs inside an epoch, so
                # the stream is absorbed here.  A real-time backend
                # leaves that to the caller's drain()/wait()/result().
                self._absorb_stream(job_id)
        self.records[job_id] = record
        self._live.discard(job_id)
        self._settled.append(job_id)
        if self.on_terminal is not None:
            self.on_terminal(job_id)
        return record

    def _take_settled(self) -> List[int]:
        """Empty the drained-record ledger; returns the jobs it held."""
        settled, self._settled = self._settled, []
        return settled

    def _complete(self, environment, job_id: int, record: LatencyRecord) -> None:
        """The one completion step of a query the scheduler finished.

        A failed or cancelled query's plan state is dropped, not
        finalized: finalization would drain the remaining relation
        through the pipeline, exactly the work cancellation and failure
        isolation avoid.  Otherwise the query is finished, and a value
        the engine materialized (a pipeline breaker's) is kept; a
        streamed one is the chunks in the job's channel.
        """
        if record.failed or record.cancelled:
            discard = getattr(environment, "discard_query", None)
            if discard is not None:
                discard(record.query_id)
            return
        finish = getattr(environment, "finish_query", None)
        if finish is not None:
            value = finish(record.query_id)
            if value is not STREAMED:
                self.results[job_id] = value

    def _settle_fold(self, leader: LatencyRecord, chunks, members) -> None:
        """Settle the queries attached to one shared execution.

        ``leader`` is the shared execution's own record, ``chunks`` its
        replay buffer and ``members`` the attached ``(job id, spec,
        arrival)`` triples.  A member completes when the shared
        execution does, never before its own arrival.  If the execution
        failed or was cancelled every member fails with its cause (their
        retries resubmit unshared, see the server); a member whose own
        deadline expired by then fails alone with
        :class:`~repro.errors.QueryTimeoutError`; the rest are served
        the replayed chunks.  No outcome of one member disturbs the
        leader or its siblings.
        """
        for job_id, spec, arrival in members:
            completion = max(leader.completion_time, arrival)
            cause = None
            error = ""
            if leader.failed or leader.cancelled:
                error = leader.error or (
                    "QueryCancelledError: the shared execution was cancelled"
                )
            elif spec.deadline is not None and completion - arrival > spec.deadline:
                cause = QueryTimeoutError(
                    f"attached query {spec.name!r} missed its {spec.deadline}s "
                    f"deadline: the shared execution completed at {completion}"
                )
                error = error_text(cause)
            record = self._synthetic_record(spec, arrival, completion, error=error)
            self._settle(job_id, record, cause, chunks)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(
        self,
        plan: FaultPlan,
        *,
        spent=(),
        skip_kinds=(),
    ) -> FaultInjector:
        """Install a deterministic fault plan on this backend.

        Execution environments are wrapped in a
        :class:`~repro.runtime.faults.FaultyEnvironment` that fires the
        planned faults; the returned injector exposes the ``fired`` log
        and ``spent`` indices.  Install before the backend starts
        executing; each fault fires at most once per installation.
        """
        if self._state is BackendState.CLOSED:
            raise ReproError("cannot install faults after shutdown()")
        self._fault_injector = FaultInjector(
            plan,
            realtime=self._channel_blocking,
            spent=spent,
            skip_kinds=skip_kinds,
        )
        return self._fault_injector

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The installed fault injector, if any."""
        return self._fault_injector

    # ------------------------------------------------------------------
    # Job status
    # ------------------------------------------------------------------
    def _locate(self, job_id: int) -> Tuple["ExecutionBackend", int]:
        """The bottom of the ticket resolver chain: ``(self, job_id)``.

        Every per-job call checks its job id here; one never issued
        raises :class:`~repro.errors.UnknownTicketError`.
        """
        if job_id >= self._next_job_id or job_id < 0:
            raise UnknownTicketError(f"unknown job id {job_id}")
        return self, job_id

    def poll(self, job_id: int) -> Optional[LatencyRecord]:
        """The job's latency record if it completed, else ``None``."""
        self._locate(job_id)
        return self.records.get(job_id)

    def record(self, job_id: int) -> LatencyRecord:
        """The job's latency record; raises if it has not finished."""
        record = self.records.get(job_id)
        if record is None:
            self._locate(job_id)
            raise ReproError(
                f"job {job_id} has not finished; drain() or wait() for it"
            )
        return record

    def terminal(self, job_id: int) -> bool:
        """Whether ``job_id`` stopped being pending: settled or aborted."""
        return (
            job_id in self.records
            or job_id in self.failures
            or job_id in self._cancelled
        )

    def failed(self, job_id: int) -> bool:
        """Whether ``job_id`` failed (exception, fault, deadline, shed)."""
        return self.failure(job_id) is not None

    def failure(self, job_id: int) -> Optional[BaseException]:
        """The exception that failed ``job_id``, if it failed.

        In-process failures return the original exception; failures that
        crossed a process pipe are reconstructed from the record's error
        text (class identity preserved for library errors).
        """
        self._locate(job_id)
        error = self.failures.get(job_id)
        if error is not None:
            return error
        record = self.records.get(job_id)
        if record is not None and record.failed:
            return error_from_text(record.error)
        return None

    def progress(self, job_id: int) -> dict:
        """Streaming/completion counters for one job, without consuming.

        Keys: ``done`` (record exists), ``cancelled``, ``failed``,
        ``chunks_put`` / ``rows_put`` (produced so far),
        ``chunks_pending`` (buffered, not yet fetched), ``rows_fetched``
        (consumed via the handle).
        """
        self._locate(job_id)
        cursor = self._cursors[job_id]
        channel = cursor.channel
        return {
            "done": job_id in self.records,
            "cancelled": job_id in self._cancelled,
            "failed": self.failed(job_id),
            "chunks_put": channel.chunks_put,
            "rows_put": channel.rows_put,
            "chunks_pending": channel.depth,
            "rows_fetched": cursor.fetched_rows,
        }

    def result(self, job_id: int):
        """The fully assembled result of a completed job.

        Raises :class:`~repro.errors.QueryCancelledError` for cancelled
        jobs, :class:`~repro.errors.QueryFailedError` for failed ones
        (chaining the causing exception where available), and
        :class:`~repro.errors.ReproError` when the job has not finished,
        was consumed as a live stream (its full result was deliberately
        never materialized), or ran in an environment that produces no
        results.
        """
        self._locate(job_id)
        if not self.terminal(job_id):
            raise ReproError(f"job {job_id} has no result yet (did you run()?)")
        if job_id in self._cancelled:
            raise QueryCancelledError(
                f"query job {job_id} was cancelled; it has no result"
            )
        cause = self.failure(job_id)
        if cause is not None:
            raise QueryFailedError(
                f"query job {job_id} failed: {error_text(cause)}"
            ) from cause
        if job_id in self.results:
            return self.results[job_id]
        cursor = self._cursors[job_id]
        if cursor.streamed:
            raise ReproError(
                f"job {job_id} was consumed as a stream; its full result "
                "was never materialized"
            )
        self._absorb_stream(job_id)
        # Assembled once, on first demand, then kept: bit-identical to
        # the pre-streaming value, because the spilled chunks are
        # exactly the old sink buffer in order.
        value = assemble_chunks(cursor.spill) if cursor.materialized else NO_RESULT
        if value is NO_RESULT:
            raise ReproError(
                f"job {job_id} produced no result "
                "(execution environment without an engine?)"
            )
        self.results[job_id] = value
        return value

    def _absorb_stream(self, job_id: int) -> None:
        """Move buffered chunks into the job's spill.

        Called by ``drain()``, ``wait()`` and ``result()``: popping the
        channel unblocks any producer parked on a full channel, and once
        the channel has closed cleanly the spill is the whole stream
        (``materialized``), which ``result()`` assembles on demand.
        Streams being consumed live are left alone.
        """
        cursor = self._cursors[job_id]
        channel = cursor.channel
        with self._absorb_lock:
            if cursor.streamed or cursor.materialized:
                return
            # Read before popping: once closed, no chunk can follow the
            # ones still buffered, so the spill below is complete.
            complete = channel.closed and not channel.failed
            while True:
                try:
                    chunk = channel.get_nowait()
                except ReproError:
                    return  # failed channel (cancellation); nothing to keep
                if chunk is None:
                    break
                cursor.spill.append(chunk)
            cursor.materialized = complete

    @property
    def submitted_count(self) -> int:
        """Total number of jobs ever submitted."""
        return self._next_job_id

    @property
    def completed_count(self) -> int:
        """Number of jobs with a latency record."""
        return len(self.records)

    @property
    def pending_count(self) -> int:
        """Jobs submitted but not yet completed."""
        return self._next_job_id - len(self.records)

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def clock(self) -> Clock:
        """The time source of this backend (virtual or wall clock)."""

    @abc.abstractmethod
    def _do_start(self) -> None:
        """Backend-specific start (called once, under the lifecycle lock)."""

    @abc.abstractmethod
    def _do_submit(self, job_id: int, spec: QuerySpec, at: Optional[float]) -> None:
        """Register one job with the execution substrate."""

    @abc.abstractmethod
    def _do_drain(self) -> List[int]:
        """Block until all submitted jobs settled; return the ledger's jobs."""

    @abc.abstractmethod
    def _do_shutdown(self) -> None:
        """Backend-specific teardown (idempotence handled by the base)."""

    @abc.abstractmethod
    def _do_abort(self, job_id: int, error: Optional[BaseException]) -> None:
        """Backend-specific cancellation (``error is None``) or failure.

        Called after the job's channel failed; the backend must ensure
        a latency record (``cancelled=True``, or ``failed=True``) is
        eventually settled so ``pending_count`` drops and ``drain()``
        does not wait forever.
        """

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
  finalization protocol are exercised under genuine concurrency.

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
either consume the live stream through the handle (threaded backend —
bounded memory) or let ``drain()`` absorb the stream into the handle's
spill so ``results[job_id]`` holds the assembled value exactly as it
did before the streaming refactor.

However a query ends — completed, cancelled, failed, timed out, served
from a fold or a cache — its outcome is published by one method,
:meth:`ExecutionBackend._settle`.  A backend keeps only what differs
with its time model: when time advances and where morsels run
(:class:`EpochBackend` holds what the two virtual-time backends share).
"""

from __future__ import annotations

import abc
import enum
import threading
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

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
    ResultChannel,
    assemble_chunks,
)
from repro.runtime.clock import Clock, VirtualClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.handle import QueryHandle


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

    def __init__(
        self, *, channel_capacity: int = DEFAULT_CHANNEL_CAPACITY
    ) -> None:
        self._state = BackendState.NEW
        self._lifecycle_lock = threading.Lock()
        self._next_job_id = 0
        #: Latency records of completed jobs, keyed by job id.
        self.records: Dict[int, LatencyRecord] = {}
        #: Engine results of completed jobs (only populated when the
        #: execution environment produces real results).
        self.results: Dict[int, object] = {}
        #: How many chunks each job's result channel buffers before
        #: applying backpressure.
        self.channel_capacity = channel_capacity
        self._channels: Dict[int, ResultChannel] = {}
        self._handles: Dict[int, QueryHandle] = {}
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
            channel = ResultChannel(
                self.channel_capacity, blocking=self._channel_blocking
            )
            handle = QueryHandle.attach(job_id, self, channel)
            self._channels[job_id] = channel
            self._handles[job_id] = handle
        self._do_submit(job_id, spec, at)
        return handle

    def drain(self) -> List[LatencyRecord]:
        """Run every submitted job to completion; return the new records."""
        if self._state is BackendState.CLOSED:
            raise ReproError("cannot drain a backend after shutdown()")
        if self._state is BackendState.NEW:
            self.start()
        return self._do_drain()

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
        self._check_job(job_id)
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
        channel = self._channels.get(job_id)
        if channel is not None:
            # Fail the channel *first*: a threaded producer parked in a
            # full channel must wake (and see its puts become drops)
            # before the scheduler drains the query's remaining work.
            if error is None:
                channel.fail(
                    QueryCancelledError(f"query job {job_id} was cancelled")
                )
            else:
                self._fail_channel(job_id, error, error_text(error))
            if not channel.failed:
                # The job completed in the race window; its clean close
                # won, so the result stands and the abort is a no-op.
                if error is None:
                    self._cancelled.discard(job_id)
                else:
                    self.failures.pop(job_id, None)
                return False
        if error is None:
            self._do_cancel(job_id)
        else:
            self._do_fail(job_id, error)
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
        channel = self._channels.get(job_id)
        if channel is not None:
            failure = QueryFailedError(f"query job {job_id} failed: {text}")
            failure.__cause__ = cause
            channel.fail(failure)

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
        close.  The record is written last: ``drain()`` counts records,
        so a counted job is guaranteed fully materialised.
        """
        channel = self._channels.get(job_id)
        if record.failed:
            if cause is None:
                cause = error_from_text(record.error)
            self.failures[job_id] = cause
            self._fail_channel(job_id, cause, record.error)
        elif not record.cancelled and channel is not None:
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
        if self.on_terminal is not None:
            self.on_terminal(job_id)
        return record

    def _settle_fold(
        self, leader: LatencyRecord, chunks, members
    ) -> List[LatencyRecord]:
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
        settled = []
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
            settled.append(self._settle(job_id, record, cause, chunks))
        return settled

    # ------------------------------------------------------------------
    # Knob broadcast (§4 generalized: mid-run tuning updates)
    # ------------------------------------------------------------------
    def broadcast_knobs(self, changes: Mapping[str, object]) -> List[str]:
        """Push tuned runtime knob values into this backend mid-run.

        The base class handles the knob every backend shares —
        ``runtime.channel_capacity``, read at each subsequent submit;
        subclasses extend with substrate-specific broadcast (the
        threaded backend pushes decay parameters into its live
        scheduler, the process backend swaps the factory shipped to
        workers).  Unknown names are ignored so one tuned vector can be
        broadcast through heterogeneous backends.  Returns the names
        that took effect.
        """
        applied: List[str] = []
        if "runtime.channel_capacity" in changes:
            capacity = int(changes["runtime.channel_capacity"])
            if capacity < 1:
                raise ReproError("channel capacity must be at least 1")
            self.channel_capacity = capacity
            applied.append("runtime.channel_capacity")
        return applied

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
    def _check_job(self, job_id: int) -> None:
        if job_id >= self._next_job_id or job_id < 0:
            raise UnknownTicketError(f"unknown job id {job_id}")

    def poll(self, job_id: int) -> Optional[LatencyRecord]:
        """The job's latency record if it completed, else ``None``."""
        self._check_job(job_id)
        return self.records.get(job_id)

    def handle(self, job_id: int) -> QueryHandle:
        """The :class:`QueryHandle` issued for ``job_id`` at submit."""
        self._check_job(job_id)
        return self._handles[job_id]

    def cancelled(self, job_id: int) -> bool:
        """Whether ``job_id`` was cancelled."""
        self._check_job(job_id)
        return job_id in self._cancelled

    def terminal(self, job_id: int) -> bool:
        """Whether ``job_id`` stopped being pending: settled or aborted."""
        return (
            job_id in self.records
            or job_id in self.failures
            or job_id in self._cancelled
        )

    def failed(self, job_id: int) -> bool:
        """Whether ``job_id`` failed (exception, fault, deadline, shed)."""
        self._check_job(job_id)
        if job_id in self.failures:
            return True
        record = self.records.get(job_id)
        return record is not None and record.failed

    def failure(self, job_id: int) -> Optional[BaseException]:
        """The exception that failed ``job_id``, if it failed.

        In-process failures return the original exception; failures that
        crossed a process pipe are reconstructed from the record's error
        text (class identity preserved for library errors).
        """
        self._check_job(job_id)
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
        self._check_job(job_id)
        channel = self._channels.get(job_id)
        handle = self._handles.get(job_id)
        record = self.records.get(job_id)
        return {
            "done": job_id in self.records,
            "cancelled": job_id in self._cancelled,
            "failed": job_id in self.failures
            or (record is not None and record.failed),
            "chunks_put": channel.chunks_put if channel is not None else 0,
            "rows_put": channel.rows_put if channel is not None else 0,
            "chunks_pending": channel.depth if channel is not None else 0,
            "rows_fetched": handle.fetched_rows if handle is not None else 0,
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
        self._check_job(job_id)
        if job_id in self._cancelled:
            raise QueryCancelledError(
                f"query job {job_id} was cancelled; it has no result"
            )
        record = self.records.get(job_id)
        if job_id in self.failures or (record is not None and record.failed):
            cause = self.failure(job_id)
            raise QueryFailedError(
                f"query job {job_id} failed: {error_text(cause)}"
            ) from cause
        if job_id in self.results:
            return self.results[job_id]
        handle = self._handles.get(job_id)
        if handle is not None and handle._streamed:
            raise ReproError(
                f"job {job_id} was consumed as a stream; its full result "
                "was never materialized"
            )
        if job_id not in self.records:
            raise ReproError(f"job {job_id} has not finished")
        self._absorb_stream(job_id)
        if job_id not in self.results:
            raise ReproError(
                f"job {job_id} produced no result "
                "(execution environment without an engine?)"
            )
        return self.results[job_id]

    def _absorb_stream(self, job_id: int) -> None:
        """Move buffered chunks into the handle's spill; assemble if done.

        Called by ``drain()`` (and ``result``): popping the channel
        unblocks any producer parked on a full channel, and once the
        channel closes cleanly the spilled chunks reassemble into
        ``results[job_id]`` — bit-identical to the pre-streaming value,
        because the chunks are exactly the old sink buffer in order.
        Handles being consumed as live streams are left alone.
        """
        handle = self._handles.get(job_id)
        channel = self._channels.get(job_id)
        if handle is None or channel is None:
            return
        with self._absorb_lock:
            if handle._streamed or handle._materialized:
                return
            while True:
                try:
                    chunk = channel.get_nowait()
                except ReproError:
                    return  # failed channel (cancellation); nothing to keep
                if chunk is None:
                    break
                handle._spill.append(chunk)
            if channel.closed and not channel.failed:
                handle._materialized = True
                if handle._spill and job_id not in self.results:
                    assembled = assemble_chunks(handle._spill)
                    if assembled is not NO_RESULT:
                        self.results[job_id] = assembled

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
    def _do_drain(self) -> List[LatencyRecord]:
        """Block until all submitted jobs completed; return new records."""

    @abc.abstractmethod
    def _do_shutdown(self) -> None:
        """Backend-specific teardown (idempotence handled by the base)."""

    def _do_cancel(self, job_id: int) -> None:
        """Backend-specific cancellation.

        Called after the job's channel failed; the backend must ensure
        a latency record (``cancelled=True``) is eventually settled so
        ``pending_count`` drops and ``drain()`` does not wait forever.
        """
        raise ReproError(
            f"{type(self).__name__} does not support cancel()"
        )

    def _do_fail(self, job_id: int, error: BaseException) -> None:
        """Backend-specific external failure (load shedding).

        Called after the job's channel failed; the backend must ensure
        a latency record (``failed=True``) is eventually settled so
        ``pending_count`` drops and ``drain()`` does not wait forever.
        """
        raise ReproError(
            f"{type(self).__name__} does not support fail()"
        )


class EpochBackend(ExecutionBackend):
    """The pending-epoch model shared by the virtual-time backends.

    Submissions accumulate with their requested arrival times; each
    ``drain()`` executes everything pending as one simulation *epoch* —
    a fresh scheduler and a virtual clock starting at zero.  Epochs run
    synchronously, so a job can only be cancelled or shed while it is
    still pending.  A subclass supplies ``_do_drain``: run the ordered
    workload of :meth:`_begin_epoch` (in process, or in a pool worker)
    and :meth:`_settle` each record with the value it fetched.
    """

    def __init__(
        self,
        scheduler_factory: Callable,
        *,
        seed: int,
        noise_sigma: float,
        environment_factory: Optional[Callable],
        max_time: Optional[float],
        channel_capacity: int,
    ) -> None:
        super().__init__(channel_capacity=channel_capacity)
        self._scheduler_factory = scheduler_factory
        self._seed = seed
        self._noise_sigma = noise_sigma
        self._environment_factory = environment_factory
        self._max_time = max_time
        #: job id -> ``(arrival, spec, job id)``, in submission order.
        self._pending: Dict[int, Tuple[float, QuerySpec, int]] = {}
        #: Jobs settled while pending; the next drain reports them.
        self._unreported_cancels: List[int] = []
        self._clock = VirtualClock()
        #: The environment of the most recent epoch (engine results).
        self.last_environment: Optional[object] = None

    @property
    def clock(self) -> VirtualClock:
        """Virtual time of the most recent epoch."""
        return self._clock

    def _do_submit(self, job_id: int, spec: QuerySpec, at: Optional[float]) -> None:
        arrival = 0.0 if at is None else float(at)
        if arrival < 0.0:
            raise ReproError("arrival time must be non-negative")
        self._pending[job_id] = (arrival, spec, job_id)

    def _begin_epoch(self):
        """Open a drain: ``(records to report, pending in arrival order)``.

        Jobs cancelled or shed since the previous drain are "finished"
        jobs too: their records surface exactly once, like every
        completion.  The pending set is stably sorted by arrival time —
        ties resolve in submission order, and the scheduler numbers
        resource groups in arrival order, so a job's index in the
        returned list is its query id in the epoch.
        """
        finished = [self.records[job_id] for job_id in self._unreported_cancels]
        self._unreported_cancels = []
        pending = sorted(self._pending.values(), key=lambda entry: entry[0])
        self._pending = {}
        return finished, pending

    def _do_shutdown(self) -> None:
        self._pending.clear()

    def _do_cancel(self, job_id: int) -> None:
        self._settle_pending(job_id, None)

    def _do_fail(self, job_id: int, error: BaseException) -> None:
        self._settle_pending(job_id, error)

    def _settle_pending(self, job_id: int, error: Optional[BaseException]) -> None:
        # An abortable job is always still pending: remove it and record
        # the outcome at its arrival time (zero CPU, zero latency) so
        # counters settle and the next drain() reports it once.
        arrival, spec, _ = self._pending.pop(job_id)
        record = self._synthetic_record(
            spec,
            arrival,
            arrival,
            cancelled=error is None,
            error="" if error is None else error_text(error),
        )
        self._settle(job_id, record, error)
        self._unreported_cancels.append(job_id)

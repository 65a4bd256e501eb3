"""The real-thread execution backend.

:class:`ThreadedBackend` runs the *same* scheduler code the simulator
drives — the stride scheduler's slot array, update bitmasks and the
§2.3 finalization protocol — but from one OS thread per worker.  Under
this backend the :mod:`repro.atomics` primitives are genuinely
contended: the change/return masks are fetch-or'd and exchanged by
racing threads, the tagged slot pointers are CAS'd by competing
finalization coordinators, and the finalization counter decides which
worker runs the finalization logic.  The protocol invariants (no lost
or duplicated tuple, exactly one finalizer per task set, an empty slot
array after drain) are what the threaded test suite asserts.

Time is real: the :class:`~repro.runtime.clock.WallClock` starts at
``start()`` and every ``now`` the scheduler sees is monotonic seconds
since then, so latency records are shaped like the simulator's (floats
in seconds from a zero epoch).

Nothing polls.  A worker whose ``worker_decide`` returns ``None``
parks on a per-worker event, which the scheduler's wake callback sets
when a mask update targets the worker; :data:`PARK_TIMEOUT` bounds the
inherent publish/park race (a wake between the last mask probe and the
park would otherwise be lost) and time-based events nobody signals,
such as an expiring deadline.  ``drain()``, ``wait()`` and a submitter
blocked on admission sleep on one condition, which every settle, worker
death, shutdown and channel put, pop, close and fail notify (the
backend's channels share it).  A woken caller checks its predicate
under the condition and absorbs buffered chunks outside it, so a
producer parked on a full channel always has a consumer.  The one lock order: ``_absorb_lock``, then the
condition; nothing that holds the condition takes ``_absorb_lock``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import List, Optional

from repro.core.scheduler_base import SchedulerBase
from repro.core.specs import QuerySpec
from repro.errors import (
    ChannelClosedError,
    ReproError,
    WorkerDiedError,
    WorkerFailedError,
    error_text,
)
from repro.metrics.latency import LatencyRecord
from repro.runtime.backend import ExecutionBackend
from repro.runtime.channel import DEFAULT_CHANNEL_CAPACITY
from repro.runtime.clock import WallClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.sharing import FoldCoordinator, SharingStats, TeeChannel, spec_fingerprint

#: Longest a parked worker sleeps without a wake (see the module notes).
PARK_TIMEOUT = 0.002


class ThreadedBackend(ExecutionBackend):
    """Drive a scheduler with one real OS thread per worker."""

    #: Real backpressure: a producer filling a channel parks its worker
    #: thread inside the morsel, so the stride scheduler keeps charging
    #: that query and naturally deprioritizes it.
    _channel_blocking = True

    def __init__(
        self,
        scheduler: SchedulerBase,
        environment: object,
        *,
        channel_capacity: int = DEFAULT_CHANNEL_CAPACITY,
        sharing: bool = False,
        sharing_attach_buffer: int = 16,
    ) -> None:
        super().__init__(channel_capacity=channel_capacity)
        if scheduler.admitted_count:
            raise ReproError(
                "threaded backend needs a fresh scheduler (queries were "
                "already admitted)"
            )
        self._scheduler = scheduler
        self._environment = environment
        # Install the concurrency seams immediately: queries submitted
        # before start() must already produce lock-guarded task sets.
        scheduler.enable_concurrency()
        self._clock = WallClock()
        self._threads: List[threading.Thread] = []
        self._park_events = [threading.Event() for _ in range(scheduler.n_workers)]
        self._stop = threading.Event()
        #: Re-entrant: a settle under it puts into and closes channels,
        #: which take it too.
        self._done = threading.Condition(threading.RLock())
        #: group.query_id -> job id; written under the scheduler's
        #: admission lock before the group becomes runnable.
        self._jobs = {}
        #: job id -> resource group (the reverse map, for cancel()).
        self._groups = {}
        self._worker_error: Optional[BaseException] = None
        #: Worker threads retired by an (injected or real) worker death;
        #: each is replaced by a fresh thread on the same worker id.
        self.dead_workers = 0
        #: Live work sharing (off by default): a compatible query
        #: arriving while a matching one is in flight attaches to it
        #: instead of being admitted; produced chunks replay to the
        #: attached queries at completion from a bounded buffer.  With
        #: sharing off every submit takes the historical path untouched.
        self._sharing = bool(sharing)
        self.sharing_stats = SharingStats()
        self._folds = FoldCoordinator(
            sharing_attach_buffer, self.sharing_stats, reweigh=self._reweigh
        )

    # ------------------------------------------------------------------
    # ExecutionBackend contract
    # ------------------------------------------------------------------
    @property
    def clock(self) -> WallClock:
        """Wall-clock seconds since ``start()``."""
        return self._clock

    @property
    def scheduler(self) -> SchedulerBase:
        """The scheduler this backend drives (for tests and stats)."""
        return self._scheduler

    def install_faults(
        self, plan: FaultPlan, *, spent=(), skip_kinds=()
    ) -> FaultInjector:
        """Install a fault plan (before submitting, so channels arm)."""
        injector = super().install_faults(plan, spent=spent, skip_kinds=skip_kinds)
        # Wrap immediately: submissions register their result channels
        # through the environment, and the wrapper must see them to arm
        # consumer-disappearance faults.
        self._environment = injector.wrap(self._environment)
        return injector

    def _do_start(self) -> None:
        scheduler = self._scheduler
        enable = getattr(self._environment, "enable_concurrency", None)
        if enable is not None:
            enable()
        scheduler.attach(self._environment, wake_fn=self._wake, clock=self._clock)
        scheduler.on_complete = self._on_complete
        self._clock.start()
        for worker_id in range(scheduler.n_workers):
            self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        thread = threading.Thread(
            target=self._worker_loop,
            args=(worker_id,),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _do_submit(self, job_id: int, spec: QuerySpec, at: Optional[float]) -> None:
        if at is not None:
            raise ReproError(
                "the threaded backend admits queries at the wall-clock "
                "instant of submit(); future arrival times are a "
                "virtual-time concept (use the simulated backend)"
            )
        # Before start() the clock reports 0.0, so pre-start submissions
        # all arrive at time zero and simply queue until workers spawn.
        now = self._clock.now()
        if self._sharing and "noshare" not in spec.tags:
            if self._folds.offer(job_id, spec, now, spec_fingerprint(spec)):
                return  # attached: served at the leader's completion
        self._admit(job_id, spec, now)

    def _admit(self, job_id: int, spec: QuerySpec, now: float) -> None:
        open_channel = getattr(self._environment, "open_channel", None)

        def register(group) -> None:
            self._jobs[group.query_id] = job_id
            self._groups[job_id] = group
            if open_channel is not None:
                # Before the group becomes runnable, so the engine wraps
                # the final sink ahead of the query's first morsel.
                channel = self._cursors[job_id].channel
                fold = self._folds.led_by(job_id)
                if fold is not None:
                    # Fold leader: tee produced chunks into the bounded
                    # replay buffer for the attached queries.
                    channel = TeeChannel(
                        channel,
                        fold,
                        self._folds.attach_buffer,
                        self._on_replay_overflow,
                    )
                open_channel(group.query_id, channel)

        self._scheduler.admit_query(spec, now, on_group=register)

    # ------------------------------------------------------------------
    # Work sharing (sharing=True only)
    # ------------------------------------------------------------------
    def _reweigh(self, fold, share: int, weight: Optional[float]) -> None:
        """Apply a fold's §3.2 weight rule to its live leader group; the
        stride scheduler reads both at the group's next slot (re)init."""
        group = self._groups.get(fold.leader_job)
        if group is not None:
            group.fold_size = share
            group.query = replace(group.query, user_priority=weight)

    def _on_replay_overflow(self, fold) -> None:
        """The replay buffer overflowed: re-admit the members unshared.

        Runs on the producing worker thread, mid-put.
        """
        for job_id, spec, _ in self._folds.overflow(fold):
            self._admit(job_id, spec, self._clock.now())

    def _do_drain(self) -> List[int]:
        self._await(lambda: not self._live)
        with self._done:
            settled = self._take_settled()
        # A job may have settled after the last absorb of its channel.
        for job_id in settled:
            self._absorb_stream(job_id)
        return settled

    def _await(self, done, producers=None, deadline: Optional[float] = None) -> bool:
        """Sleep on ``_done`` until ``done()``; ``False`` past ``deadline``.

        Each wake checks under the condition whether ``done()`` holds or
        a job of ``producers()`` (default: every live job) has chunks
        buffered that nobody consumes (a live-streamed handle's consumer
        is elsewhere), and absorbs those outside it.  This is what keeps
        drain(), wait() and blocking admission deadlock free — a
        producer parked on a full bounded channel can only make progress
        if somebody consumes, and while a caller waits that somebody is
        the caller.
        """
        cursors = self._cursors
        while True:
            with self._done:
                if done():
                    return True
                if self._worker_error is not None:
                    raise WorkerFailedError("a worker thread failed") from self._worker_error
                jobs = list(self._live) if producers is None else producers()
                buffered = [
                    job_id for job_id in jobs
                    if job_id is not None
                    and cursors[job_id].channel.depth
                    and not cursors[job_id].streamed
                ]
                if not buffered:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0.0:
                        return False
                    self._done.wait(remaining)
                    continue
            for job_id in buffered:
                self._absorb_stream(job_id)

    def _do_shutdown(self) -> None:
        # Fail every still-open channel *before* joining: a producer
        # parked inside put() on a full channel only re-checks its exit
        # conditions when the channel signals, so without this a worker
        # mid-stream (or stranded by a dead sibling) would never observe
        # the stop flag and the join below would time out.
        self._halt(
            ChannelClosedError("backend shut down before this stream completed")
        )
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._worker_error is not None:
            raise WorkerFailedError("worker thread failed before shutdown") from self._worker_error

    def _halt(self, error: BaseException) -> None:
        """Stop the workers: set the stop flag, fail each live job's
        channel with ``error`` (waking parked producers) and unpark all.
        A settled job's channel is closed, which ``fail`` leaves alone,
        so completed results are never poisoned."""
        self._stop.set()
        with self._done:
            for job_id in list(self._live):  # submitters add without it
                self._cursors[job_id].channel.fail(error)
            self._done.notify_all()  # a blocked submitter sees CLOSED
        for event in self._park_events:
            event.set()

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        scheduler = self._scheduler
        clock = self._clock
        event = self._park_events[worker_id]
        stop = self._stop
        try:
            while not stop.is_set():
                decision = scheduler.worker_decide(worker_id, clock.now())
                if decision is None:
                    # Parked: wait for a wake (mask update targeting this
                    # worker) or the timeout that bounds the publish/park
                    # race window.
                    event.wait(PARK_TIMEOUT)
                    event.clear()
                    continue
                # Under this backend worker_decide already *executed* the
                # task (the environment ran the morsels and measured real
                # durations), so completion follows immediately.
                scheduler.worker_finish(worker_id, clock.now(), decision)
        except WorkerDiedError:
            # This worker is gone, but the scheduler already wound the
            # failed query down before re-raising, so its state is
            # consistent.  Retire the thread and (unless the backend is
            # stopping) respawn a replacement on the same worker id.
            with self._done:
                self.dead_workers += 1
                self._done.notify_all()
            if not stop.is_set():
                self._spawn_worker(worker_id)
        except BaseException as exc:  # noqa: BLE001 - reported via drain
            with self._done:
                if self._worker_error is None:
                    self._worker_error = exc
            # Wake the callers (the halt notifies) and the sibling workers
            # parked on full channels — with this worker gone nobody may
            # ever consume, and a producer stuck in put() would hang
            # shutdown forever.
            self._halt(
                WorkerFailedError(f"worker thread {worker_id} failed: {exc}")
            )

    def _wake(self, worker_id: int) -> None:
        """Scheduler wake callback: unpark one worker thread."""
        self._park_events[worker_id].set()

    def _on_complete(self, group, record: LatencyRecord) -> None:
        """Scheduler completion hook (runs on the finalizing worker)."""
        job_id = self._jobs[group.query_id]
        # A detached leader's final chunk still flows through the tee
        # (the inner channel already failed, so the put is a silent drop
        # there) — members replay a complete result even though the
        # leader's consumer left.
        self._complete(self._environment, job_id, record)
        # Seal after the last chunk went through the tee: a late
        # arrival of this fingerprint then leads a fresh fold instead of
        # attaching to a completed execution.
        fold = self._folds.seal(job_id) if self._sharing else None
        outcome, cause = record, group.failure
        leader_detached = fold is not None and fold.leader_detached
        if leader_detached and not record.failed and not record.cancelled:
            # The leader's submitter cancelled (or shed) it mid-flight;
            # the group kept executing for the attached queries, so the
            # scheduler's record reads like a normal completion.  Restate
            # the caller-visible outcome, which keeps no value.
            self.results.pop(job_id, None)
            cause = self.failures.get(job_id)
            if cause is not None:
                outcome = replace(record, failed=True, error=error_text(cause))
            else:
                outcome = replace(record, cancelled=True)
        # The leader and its attached queries publish together: a waiter
        # woken by either finds both settled.  Nothing in here can park
        # on a consumer (see _settle), so a leader's completion never
        # waits on a member's.  Members are settled from the scheduler's
        # own record — a detached leader still *serves* them.
        with self._done:
            self._settle(job_id, outcome, cause)
            if fold is not None and fold.members:
                self._settle_fold(record, tuple(fold.replay), fold.members)
            self._done.notify_all()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def wait(self, job_id: int, timeout: Optional[float] = None) -> LatencyRecord:
        """Block until one job completes; returns its latency record."""
        self._locate(job_id)
        # The deadline runs on the OS monotonic clock, not the backend's
        # WallClock: before start() the latter is pinned at 0.0 and a
        # timed wait would never expire.
        deadline = None if timeout is None else time.monotonic() + timeout
        # An attached query's producer is its fold leader.
        if not self._await(
            lambda: job_id in self.records,
            lambda: (job_id, self._folds.leader_of(job_id)),
            deadline,
        ):
            raise ReproError(f"job {job_id} did not complete within {timeout}s")
        return self.records[job_id]

    def _do_abort(self, job_id: int, error: Optional[BaseException]) -> None:
        """Abort one live job: detach it from its fold, or abort its group."""
        if self._sharing:
            member = self._folds.detach_member(job_id)
            if member is not None:
                # An attached query never held scheduler state: settle
                # it alone; the shared execution and its siblings go on.
                record = self._synthetic_record(
                    *member,
                    self._clock.now(),
                    cancelled=error is None,
                    error="" if error is None else error_text(error),
                )
                with self._done:
                    self._settle(job_id, record, error)
                    self._done.notify_all()
                return
            if self._folds.detach_leader(job_id):
                # The leader's channel already failed (the caller's view
                # winds down normally), but its group keeps executing so
                # the members still get their replayed results.
                return
        group = self._groups.get(job_id)
        if group is None:
            if self._sharing:  # pragma: no cover - detach/complete race
                # The fold resolved concurrently (leader completion or
                # overflow promotion); the job's record lands through
                # that path, so there is nothing left to wind down.
                return
            raise ReproError(f"job {job_id} has no resource group")
        if error is None:
            self._scheduler.cancel_group(group, self._clock.now())
        else:
            self._scheduler.fail_group(group, error, self._clock.now())

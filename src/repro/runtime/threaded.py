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

Workers never sleep while work is available.  A worker whose
``worker_decide`` returns ``None`` parks on a per-worker event with a
small timeout: the scheduler's wake callback sets the event when a mask
update targets the worker, and the timeout bounds the cost of the
inherent publish/park race (a wake between the last mask probe and the
park would otherwise be lost).
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
from repro.runtime.channel import DEFAULT_CHANNEL_CAPACITY, STREAMED
from repro.runtime.clock import WallClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.sharing import FoldCoordinator, SharingStats, TeeChannel, spec_fingerprint


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
        park_timeout: float = 0.002,
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
        self._park_timeout = park_timeout
        # Install the concurrency seams immediately: queries submitted
        # before start() must already produce lock-guarded task sets.
        scheduler.enable_concurrency()
        self._clock = WallClock()
        self._threads: List[threading.Thread] = []
        self._park_events = [
            threading.Event() for _ in range(scheduler.n_workers)
        ]
        self._stop = threading.Event()
        #: Signalled on every completion (and on worker failure) so
        #: drain() and wait() can block without polling the scheduler.
        self._done = threading.Condition()
        #: group.query_id -> job id; written under the scheduler's
        #: admission lock before the group becomes runnable.
        self._jobs = {}
        #: job id -> resource group (the reverse map, for cancel()).
        self._groups = {}
        self._reported: set = set()
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
        injector = super().install_faults(
            plan, spent=spent, skip_kinds=skip_kinds
        )
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
        scheduler.attach(
            self._environment, wake_fn=self._wake, clock=self._clock
        )
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

    def _do_drain(self) -> List[LatencyRecord]:
        while True:
            with self._done:
                if self._worker_error is not None:
                    raise WorkerFailedError(
                        "worker thread failed during drain"
                    ) from self._worker_error
                # Job records are written *after* the scheduler's own
                # completion bookkeeping, so counting them (not the
                # scheduler's counters) guarantees every drained job is
                # fully materialised.
                if len(self.records) >= self.submitted_count:
                    break
                self._done.wait(timeout=0.05)
            # Outside the condition: pop buffered chunks into the
            # handles' spill lists.  This is what keeps drain() deadlock
            # free — a producer parked on a full bounded channel can only
            # make progress if somebody consumes, and during drain() that
            # somebody is us.  Handles being live-streamed by the caller
            # are left alone (their consumer is elsewhere).
            for job_id in range(self.submitted_count):
                self._absorb_stream(job_id)
        for job_id in range(self.submitted_count):
            self._absorb_stream(job_id)
        fresh = [
            job_id for job_id in sorted(self.records)
            if job_id not in self._reported
        ]
        self._reported.update(fresh)
        return [self.records[job_id] for job_id in fresh]

    def _do_shutdown(self) -> None:
        self._stop.set()
        # Fail every still-open channel *before* joining: a producer
        # parked inside put() on a full channel only re-checks its exit
        # conditions when the channel signals, so without this a worker
        # mid-stream (or stranded by a dead sibling) would never observe
        # the stop flag and the join below would time out.
        self._fail_open_channels(
            ChannelClosedError("backend shut down before this stream completed")
        )
        for event in self._park_events:
            event.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._worker_error is not None:
            raise WorkerFailedError(
                "worker thread failed before shutdown"
            ) from self._worker_error

    def _fail_open_channels(self, error: BaseException) -> None:
        """Fail every channel that has not closed cleanly (wakes parkers).

        ``ResultChannel.fail`` is a no-op on cleanly closed channels, so
        completed results are never poisoned.
        """
        for cursor in list(self._cursors.values()):
            cursor.channel.fail(error)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        scheduler = self._scheduler
        clock = self._clock
        event = self._park_events[worker_id]
        park_timeout = self._park_timeout
        stop = self._stop
        try:
            while not stop.is_set():
                decision = scheduler.worker_decide(worker_id, clock.now())
                if decision is None:
                    # Parked: wait for a wake (mask update targeting this
                    # worker) or the timeout that bounds the publish/park
                    # race window.
                    event.wait(park_timeout)
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
                self._done.notify_all()
            self._stop.set()
            # Wake sibling workers parked on full channels — with this
            # worker gone nobody may ever consume, and a producer stuck
            # in put() would hang shutdown forever.
            self._fail_open_channels(
                WorkerFailedError(f"worker thread {worker_id} failed: {exc}")
            )
            for other in self._park_events:
                other.set()

    def _wake(self, worker_id: int) -> None:
        """Scheduler wake callback: unpark one worker thread."""
        self._park_events[worker_id].set()

    def _on_complete(self, group, record: LatencyRecord) -> None:
        """Scheduler completion hook (runs on the finalizing worker)."""
        job_id = self._jobs[group.query_id]
        value = STREAMED
        if group.cancelled or group.failed:
            # The plan state is dropped, not finalized: finalization
            # would defensively drain the remaining relation through the
            # pipeline — exactly the work cancellation (and failure
            # isolation) avoids.
            discard = getattr(self._environment, "discard_query", None)
            if discard is not None:
                discard(group.query_id)
        else:
            finish_query = getattr(self._environment, "finish_query", None)
            if finish_query is not None:
                # A detached leader's final chunk still flows through
                # the tee (the inner channel already failed, so the put
                # is a silent drop there) — members replay a complete
                # result even though the leader's consumer left.
                value = finish_query(group.query_id)
        # Seal after the last chunk went through the tee: a late
        # arrival of this fingerprint then leads a fresh fold instead of
        # attaching to a completed execution.
        fold = self._folds.seal(job_id) if self._sharing else None
        leader_detached = fold is not None and fold.leader_detached
        if value is not STREAMED and not leader_detached:
            self.results[job_id] = value
        outcome, cause = record, group.failure
        if leader_detached and not record.failed and not record.cancelled:
            # The leader's submitter cancelled (or shed) it mid-flight;
            # the group kept executing for the attached queries, so the
            # scheduler's record reads like a normal completion.  Restate
            # the caller-visible outcome.
            cause = self.failures.get(job_id)
            if cause is not None:
                outcome = replace(
                    record, failed=True, error=error_text(cause)
                )
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
        while True:
            with self._done:
                if job_id in self.records:
                    break
                if self._worker_error is not None:
                    raise WorkerFailedError(
                        "worker thread failed while waiting"
                    ) from self._worker_error
                remaining = 0.05
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0.0:
                        raise ReproError(
                            f"job {job_id} did not complete within {timeout}s"
                        )
                self._done.wait(timeout=remaining)
            # Absorb buffered chunks while waiting (same deadlock-freedom
            # argument as drain): a producer parked on this job's full
            # channel must not be able to stall the wait forever.  An
            # attached query's producer is its fold leader.
            self._absorb_stream(job_id)
            leader = self._folds.leader_of(job_id)
            if leader is not None:
                self._absorb_stream(leader)
        return self.records[job_id]

    def _do_cancel(self, job_id: int) -> None:
        self._wind_down(job_id, None)

    def _do_fail(self, job_id: int, error: BaseException) -> None:
        self._wind_down(job_id, error)

    def _wind_down(self, job_id: int, error: Optional[BaseException]) -> None:
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

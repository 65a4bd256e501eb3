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
from typing import Dict, List, Optional, Tuple

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
from repro.sharing import LiveFold, SharingStats, TeeChannel, spec_fingerprint


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
        if sharing_attach_buffer < 1:
            raise ReproError("sharing_attach_buffer must be at least 1")
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
        self._attach_buffer = sharing_attach_buffer
        self.sharing_stats = SharingStats()
        self._fold_lock = threading.Lock()
        self._folds: Dict[str, LiveFold] = {}
        self._fold_by_leader: Dict[int, LiveFold] = {}
        #: Attached job id -> (fold, spec, arrival wall time).
        self._member_info: Dict[int, Tuple[LiveFold, QuerySpec, float]] = {}

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

    def broadcast_knobs(self, changes) -> list:
        """Push tuned knobs into the *live* scheduler mid-run.

        Extends the base broadcast with the core decay knobs: the
        scheduler keeps running, so new parameters go through the §4
        broadcast path (every worker's decay state is recomputed from
        the closed form).
        """
        applied = super().broadcast_knobs(changes)
        if "core.decay" in changes or "core.d_start" in changes:
            params = getattr(self._scheduler, "decay_parameters", None)
            setter = getattr(self._scheduler, "set_decay_parameters", None)
            if params is not None and setter is not None:
                decay = float(changes.get("core.decay", params.decay))
                d_start = int(changes.get("core.d_start", params.d_start))
                setter(params.with_values(decay, d_start))
                applied.extend(
                    name
                    for name in ("core.decay", "core.d_start")
                    if name in changes
                )
        return applied

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
            if self._try_attach(job_id, spec, now):
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
                channel = self._channels[job_id]
                fold = self._fold_by_leader.get(job_id)
                if fold is not None:
                    # Fold leader: tee produced chunks into the bounded
                    # replay buffer for the attached queries.
                    channel = TeeChannel(
                        channel,
                        fold,
                        self._attach_buffer,
                        self._on_replay_overflow,
                    )
                open_channel(group.query_id, channel)

        self._scheduler.admit_query(spec, now, on_group=register)

    # ------------------------------------------------------------------
    # Work sharing (sharing=True only)
    # ------------------------------------------------------------------
    def _try_attach(self, job_id: int, spec: QuerySpec, now: float) -> bool:
        """Attach to a matching in-flight fold, or register a new one.

        Returns ``True`` when the query attached (no scheduler
        admission); ``False`` when it must execute itself — either as
        the new leader of its fingerprint or, when the fold's replay
        buffer is exhausted, as a fresh unshared execution (counted as
        a replay fallback).
        """
        fp = spec_fingerprint(spec)
        stats = self.sharing_stats
        with self._fold_lock:
            fold = self._folds.get(fp)
            if fold is not None and fold.open and not fold.overflowed:
                if len(fold.members) < self._attach_buffer:
                    fold.members.append((job_id, spec, now))
                    self._member_info[job_id] = (fold, spec, now)
                    if len(fold.members) == 1:
                        stats.folds += 1
                    stats.attached_queries += 1
                    # §3.2 weighted fairness for live folds: the leader
                    # group now executes on behalf of one more query.
                    # The stride scheduler multiplies the slot's
                    # user_scale by fold_size, so the summed share takes
                    # effect from the group's next slot (re)init (plain
                    # int write; never the morsel budget, which would
                    # perturb result bit-identity).
                    group = self._groups.get(fold.leader_job)
                    if group is not None:
                        group.fold_size = 1 + len(fold.members)
                    return True
                stats.replay_fallbacks += 1
                return False
            fold = LiveFold(fingerprint=fp, leader_job=job_id)
            self._folds[fp] = fold
            self._fold_by_leader[job_id] = fold
            return False

    def _on_replay_overflow(self, fold: LiveFold) -> None:
        """The replay buffer overflowed: fall back to fresh scans.

        Runs on the producing worker thread, mid-put.  Every attached
        query is re-admitted as its own unshared execution and the fold
        stops accepting members; the leader continues untouched.
        """
        with self._fold_lock:
            promoted = list(fold.members)
            fold.members.clear()
            for m_job, _, _ in promoted:
                self._member_info.pop(m_job, None)
        for m_job, m_spec, _ in promoted:
            self.sharing_stats.replay_fallbacks += 1
            self._admit(m_job, m_spec, self._clock.now())

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
        for channel in list(self._channels.values()):
            channel.fail(error)

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
        fold: Optional[LiveFold] = None
        attached: List[Tuple[int, QuerySpec, float]] = []
        leader_detached = False
        if self._sharing:
            with self._fold_lock:
                fold = self._fold_by_leader.pop(job_id, None)
                if fold is not None:
                    # Seal the fold: later arrivals of this fingerprint
                    # start a fresh one instead of attaching to a
                    # completed execution.
                    fold.open = False
                    attached = list(fold.members)
                    fold.members.clear()
                    for m_job, _, _ in attached:
                        self._member_info.pop(m_job, None)
                    if self._folds.get(fold.fingerprint) is fold:
                        del self._folds[fold.fingerprint]
                    leader_detached = fold.leader_detached
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
            if attached:
                self._settle_fold(record, tuple(fold.replay), attached)
            self._done.notify_all()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def wait(self, job_id: int, timeout: Optional[float] = None) -> LatencyRecord:
        """Block until one job completes; returns its latency record."""
        self._check_job(job_id)
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
            info = self._member_info.get(job_id)
            if info is not None:
                self._absorb_stream(info[0].leader_job)
        return self.records[job_id]

    def _detach_member(
        self, job_id: int, error: Optional[BaseException]
    ) -> bool:
        """Detach one attached query from its fold, if it is one.

        §2.3 wind-down for members costs nothing: the member never held
        scheduler state, so detaching is pure bookkeeping — the shared
        execution and its sibling members are untouched.  ``error`` is
        ``None`` for a cancellation.  Returns ``False`` when the job is
        not an attached query.
        """
        with self._fold_lock:
            info = self._member_info.pop(job_id, None)
            if info is None:
                return False
            fold, spec, arrival = info
            fold.members = [m for m in fold.members if m[0] != job_id]
        record = self._synthetic_record(
            spec,
            arrival,
            self._clock.now(),
            cancelled=error is None,
            error="" if error is None else error_text(error),
        )
        with self._done:
            self._settle(job_id, record, error)
            self._done.notify_all()
        return True

    def _detach_leader(self, job_id: int) -> bool:
        """Detach a fold leader whose execution must survive for members.

        Returns ``True`` when the leader had attached queries: the
        channel already failed (the caller's view winds down normally)
        but the group keeps executing so the members still get their
        replayed results at completion.
        """
        with self._fold_lock:
            fold = self._fold_by_leader.get(job_id)
            if fold is None:
                return False
            fold.open = False
            if not fold.members:
                return False
            fold.leader_detached = True
            return True

    def _do_cancel(self, job_id: int) -> None:
        self._wind_down(job_id, None)

    def _do_fail(self, job_id: int, error: BaseException) -> None:
        self._wind_down(job_id, error)

    def _wind_down(self, job_id: int, error: Optional[BaseException]) -> None:
        """Abort one live job: detach it from its fold, or abort its group."""
        if self._sharing and (
            self._detach_member(job_id, error) or self._detach_leader(job_id)
        ):
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

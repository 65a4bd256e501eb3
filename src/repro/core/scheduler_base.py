"""Common scheduler interface shared by every policy in the reproduction.

A scheduler is driven by the discrete-event simulator through three calls:

* :meth:`SchedulerBase.admit` — a query arrived and is wrapped into a
  resource group;
* :meth:`SchedulerBase.worker_decide` — a worker became ready at ``now``
  and asks for work.  The scheduler returns a :class:`TaskDecision` whose
  ``duration`` is the virtual time the worker will be busy, or ``None``
  if the worker should park until woken;
* :meth:`SchedulerBase.worker_finish` — the task completed; the scheduler
  updates passes, priorities and finalization state and may return extra
  busy time (e.g. when this worker has to run a finalization step).

The environment object supplied via :meth:`attach` executes morsels
(returning their simulated duration) so the same scheduler code runs on
any substrate.  Substrates are the execution backends of
:mod:`repro.runtime`: the discrete-event simulator drives the scheduler
from a single thread, while the threaded backend calls
:meth:`SchedulerBase.enable_concurrency` first and then invokes
``worker_decide`` / ``worker_finish`` from real OS worker threads.  The
sequential code paths are untouched by that switch — every lock is
``None`` until concurrency is enabled, and branches select the exact
pre-existing sequential code, keeping simulated results bit-identical.
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional

from repro.core.decay import DecayParameters
from repro.core.morsel_exec import (
    ExecutionEnvironment,
    MorselExecutor,
    MorselExecutorConfig,
    MorselMode,
)
from repro.core.resource_group import ResourceGroup
from repro.core.specs import QuerySpec
from repro.core.task import ExecutedTask
from repro.errors import QueryTimeoutError, SchedulerError
from repro.metrics.latency import LatencyRecord
from repro.metrics.overhead import OverheadAccounting, PhaseCosts
from repro.runtime.clock import Clock
from repro.runtime.trace import MorselSpan, TraceRecorder


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration shared by all scheduler policies.

    The defaults reproduce the paper's setup: 20 worker threads (the
    i9-7900X of §5.1), 128 scheduler slots, ``t_max`` = 2 ms,
    ``C0`` = 16 tuples, EWMA α = 0.8.
    """

    n_workers: int = 20
    slot_capacity: int = 128
    t_max: float = 0.002
    t_min: float = 0.00025
    c0: int = 16
    ewma_alpha: float = 0.8
    morsel_mode: MorselMode = MorselMode.ADAPTIVE
    #: High-load optimization of §2.3: shrink the update fan-out once more
    #: than half the slots are occupied.
    restrict_fanout: bool = True
    #: Decay parameters; ``None`` means fixed priorities (fair stride).
    decay: Optional[DecayParameters] = None
    #: Enable the §4 self-tuning controller (stride scheduler only).
    tuning_enabled: bool = False
    #: Tracking duration t_t and refresh duration t_r of §4.
    tracking_duration: float = 20.0
    refresh_duration: float = 60.0
    #: Objective the optimizer minimises: "mean" (Equation 1, default),
    #: "geomean", "p95" or "max" (§3.2: "other cost functions could be
    #: considered as well"); see :mod:`repro.tuning.cost`.
    tuning_objective: str = "mean"
    phase_costs: PhaseCosts = field(default_factory=PhaseCosts)

    def executor_config(self) -> MorselExecutorConfig:
        """Derive the morsel-executor tunables from this configuration."""
        return MorselExecutorConfig(
            t_max=self.t_max,
            t_min=self.t_min,
            c0=self.c0,
            ewma_alpha=self.ewma_alpha,
            n_workers=self.n_workers,
            mode=self.morsel_mode,
        )

    def effective_decay(self) -> DecayParameters:
        """Decay parameters with the quantum tied to ``t_max`` (§3.2)."""
        params = self.decay if self.decay is not None else DecayParameters()
        return replace(params, quantum=self.t_max)


class TaskDecision:
    """What a worker will do next and for how long (virtual seconds).

    A plain slotted class (one is allocated per scheduling decision, so
    construction cost matters).
    """

    __slots__ = ("worker_id", "kind", "duration", "slot", "executed", "group")

    def __init__(
        self,
        worker_id: int,
        kind: str,  # "task" | "tuning" | "finalize"
        duration: float,
        slot: int = -1,
        executed: Optional[ExecutedTask] = None,
        group: Optional[ResourceGroup] = None,
    ) -> None:
        self.worker_id = worker_id
        self.kind = kind
        self.duration = duration
        self.slot = slot
        self.executed = executed
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskDecision(worker={self.worker_id}, kind={self.kind!r}, "
            f"duration={self.duration}, slot={self.slot})"
        )


class SchedulerBase(abc.ABC):
    """Base class wiring admission, the wait queue, wakes and metrics."""

    #: Registry name, overridden by subclasses.
    name = "base"

    def __init__(self, config: SchedulerConfig) -> None:
        if config.n_workers <= 0:
            raise SchedulerError("need at least one worker")
        self.config = config
        self.n_workers = config.n_workers
        self.overhead = OverheadAccounting(config.phase_costs)
        self.executor = MorselExecutor(config.executor_config())
        self.wait_queue: Deque[ResourceGroup] = deque()
        self.completed: List[LatencyRecord] = []
        self.admitted_count = 0
        self.completed_count = 0
        self.tasks_executed = 0
        self._env: Optional[ExecutionEnvironment] = None
        self._wake_fn: Optional[Callable[[int], None]] = None
        self.trace = TraceRecorder(enabled=False)
        self._idle_workers: set = set()
        self._next_group_id = 0
        #: Completion hook fired by record_completion (used by execution
        #: backends to map finished resource groups back to job ids).
        self.on_complete: Optional[Callable[[ResourceGroup, LatencyRecord], None]] = None
        #: The driving backend's time source (None when driven directly
        #: by the simulator, which passes explicit ``now`` values).
        self.clock: Optional[Clock] = None
        # Concurrency seams.  All None while the scheduler is driven
        # sequentially; enable_concurrency() installs real locks and the
        # hot paths branch on them to pick the locked variants.
        self._concurrent = False
        self._state_lock: Optional[threading.Lock] = None
        self._admission_lock: Optional[threading.RLock] = None
        self._completion_lock: Optional[threading.Lock] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        env: ExecutionEnvironment,
        wake_fn: Callable[[int], None],
        trace: Optional[TraceRecorder] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        """Connect the scheduler to its execution environment.

        ``wake_fn(worker_id)`` asks the driving backend to re-run the
        decision loop of a parked worker at the current time.
        """
        self._env = env
        self._wake_fn = wake_fn
        if trace is not None:
            self.trace = trace
        if clock is not None:
            self.clock = clock
        # Per-morsel records are only consumed by the trace; skip
        # collecting them when tracing is off (the hottest allocation).
        self.executor.collect_morsels = self.trace.enabled

    def enable_concurrency(self) -> None:
        """Prepare the scheduler for calls from multiple OS threads.

        Installs the locks that guard the global state array scan, slot
        admission/release and completion bookkeeping.  Must be called
        before the first ``admit``/``worker_decide``; the threaded
        backend does so during ``start()``.  Sequential users never call
        this, so their code paths keep running lock-free and unchanged.
        """
        if self._concurrent:
            return
        self._concurrent = True
        self._state_lock = threading.Lock()
        # Reentrant: finalization holds it while popping the wait queue,
        # and _install_group/record_completion may nest underneath.
        self._admission_lock = threading.RLock()
        self._completion_lock = threading.Lock()

    @property
    def concurrent(self) -> bool:
        """Whether :meth:`enable_concurrency` has been called."""
        return self._concurrent

    @property
    def env(self) -> ExecutionEnvironment:
        """The attached execution environment (raises when missing)."""
        if self._env is None:
            raise SchedulerError("scheduler not attached to an environment")
        return self._env

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def make_group(self, query: QuerySpec, now: float) -> ResourceGroup:
        """Wrap an arriving query into a resource group."""
        group = ResourceGroup(query, self._next_group_id, now)
        self._next_group_id += 1
        if self._concurrent:
            group.enable_concurrency()
        return group

    def admit_query(
        self,
        query: QuerySpec,
        now: float,
        on_group: Optional[Callable[[ResourceGroup], None]] = None,
    ) -> ResourceGroup:
        """Wrap and admit an arriving query; returns its resource group.

        The single entry point execution backends use: group-id
        assignment and admission happen atomically with respect to other
        submitting threads.  ``on_group`` runs after the group exists but
        *before* it becomes runnable — backends use it to register the
        group-to-job mapping so a completion can never observe an
        unmapped group.
        """
        lock = self._admission_lock
        if lock is None:
            group = self.make_group(query, now)
            if on_group is not None:
                on_group(group)
            self.admit(group, now)
            return group
        with lock:
            group = self.make_group(query, now)
            if on_group is not None:
                on_group(group)
            self.admit(group, now)
            return group

    @abc.abstractmethod
    def admit(self, group: ResourceGroup, now: float) -> None:
        """A query arrived; install it or put it into the wait queue."""

    @abc.abstractmethod
    def worker_decide(self, worker_id: int, now: float) -> Optional[TaskDecision]:
        """A worker is ready; pick its next task (``None`` parks it)."""

    @abc.abstractmethod
    def worker_finish(self, worker_id: int, now: float, decision: TaskDecision) -> float:
        """A task finished; return extra busy seconds (e.g. finalization)."""

    # ------------------------------------------------------------------
    # Idle / wake bookkeeping
    # ------------------------------------------------------------------
    def mark_idle(self, worker_id: int) -> None:
        """Record that a worker parked (called by the simulator)."""
        self._idle_workers.add(worker_id)

    def mark_busy(self, worker_id: int) -> None:
        """Record that a worker resumed."""
        self._idle_workers.discard(worker_id)

    def wake(self, worker_id: int) -> None:
        """Wake a parked worker through the simulator callback."""
        if worker_id in self._idle_workers and self._wake_fn is not None:
            self._wake_fn(worker_id)

    def wake_all(self) -> None:
        """Wake every parked worker."""
        for worker_id in list(self._idle_workers):
            self.wake(worker_id)

    @property
    def idle_workers(self) -> set:
        """The identifiers of currently parked workers."""
        return self._idle_workers

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def record_completion(self, group: ResourceGroup, now: float) -> None:
        """Register a finished query and emit its latency record."""
        group.mark_complete(now)
        record = LatencyRecord(
            query_id=group.query_id,
            name=group.query.name,
            scale_factor=group.query.scale_factor,
            arrival_time=group.arrival_time,
            completion_time=now,
            cpu_seconds=group.cpu_seconds,
            cancelled=group.cancelled,
            failed=group.failed,
            error=group.failure_text,
        )
        lock = self._completion_lock
        if lock is None:
            self.completed_count += 1
            self.completed.append(record)
        else:
            with lock:
                self.completed_count += 1
                self.completed.append(record)
        if self.on_complete is not None:
            self.on_complete(group, record)

    def cancel_group(self, group: ResourceGroup, now: float) -> bool:
        """Cancel one admitted query; returns ``True`` if it took effect.

        Runs under the admission lock (when concurrent) so cancellation
        cannot race admission or the wait-queue pop of finalization.
        Three cases:

        * already complete — the result stands, returns ``False``;
        * still in the wait queue — removed and completed on the spot
          with zero CPU (its slot was never occupied);
        * actively scheduled — the group is tagged and its task sets
          drained (:meth:`ResourceGroup.cancel`); parked workers are
          woken so one of them observes the exhausted task set and the
          §2.3 finalization protocol winds the query down through the
          normal completion path, freeing its slot and admitting the
          next waiting query.
        """
        lock = self._admission_lock
        if lock is None:
            return self._cancel_group_locked(group, now)
        with lock:
            return self._cancel_group_locked(group, now)

    def _cancel_group_locked(self, group: ResourceGroup, now: float) -> bool:
        if group.completion_time is not None:
            return False
        group.cancel()
        try:
            self.wait_queue.remove(group)
        except ValueError:
            pass  # not waiting: it is actively scheduled
        else:
            self.record_completion(group, now)
            return True
        self.wake_all()
        return True

    def deadline_error(self, group: ResourceGroup) -> QueryTimeoutError:
        """The error a group is failed with when its deadline expires."""
        return QueryTimeoutError(
            f"query {group.query.name!r} missed its "
            f"{group.query.deadline:g}s deadline"
        )

    def fail_group(
        self, group: ResourceGroup, exc: BaseException, now: float
    ) -> bool:
        """Fail one admitted query; returns ``True`` if it took effect.

        The failure twin of :meth:`cancel_group`: same locking, same
        three cases, but the group is tagged through
        :meth:`ResourceGroup.fail` so the latency record carries
        ``failed=True`` plus the error text.  Used for per-query failure
        isolation (a morsel raised), deadline expiry, and load shedding.
        """
        lock = self._admission_lock
        if lock is None:
            return self._fail_group_locked(group, exc, now)
        with lock:
            return self._fail_group_locked(group, exc, now)

    def _fail_group_locked(
        self, group: ResourceGroup, exc: BaseException, now: float
    ) -> bool:
        if group.completion_time is not None:
            return False
        group.fail(exc)
        try:
            self.wait_queue.remove(group)
        except ValueError:
            pass  # not waiting: it is actively scheduled
        else:
            self.record_completion(group, now)
            return True
        self.wake_all()
        return True

    def all_admitted_complete(self) -> bool:
        """Whether every admitted query finished (simulation drain check)."""
        return self.completed_count == self.admitted_count and not self.wait_queue

    def active_query_count(self) -> int:
        """Queries currently *executing* (admitted, not waiting, not done).

        Used by the cache-pressure model of the simulation environment.
        """
        return self.admitted_count - self.completed_count - len(self.wait_queue)

    # ------------------------------------------------------------------
    # Trace helper
    # ------------------------------------------------------------------
    def record_task_trace(
        self, worker_id: int, start: float, executed: ExecutedTask
    ) -> None:
        """Emit one trace span per morsel of an executed task."""
        if not self.trace.enabled:
            return
        offset = start
        group = executed.task_set.resource_group
        self.trace.record_task(
            MorselSpan(
                worker_id=worker_id,
                start=start,
                end=start + executed.duration,
                query_id=group.query_id,
                pipeline_index=executed.task_set.pipeline_index,
                phase="task",
                tuples=executed.tuples,
            )
        )
        for morsel in executed.morsels:
            self.trace.record(
                MorselSpan(
                    worker_id=worker_id,
                    start=offset,
                    end=offset + morsel.duration,
                    query_id=group.query_id,
                    pipeline_index=executed.task_set.pipeline_index,
                    phase=morsel.phase,
                    tuples=morsel.tuples,
                )
            )
            offset += morsel.duration

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Run statistics useful for tests and reports."""
        return {
            "admitted": self.admitted_count,
            "completed": self.completed_count,
            "tasks_executed": self.tasks_executed,
            "waiting": len(self.wait_queue),
            "total_overhead": self.overhead.total_overhead_fraction(),
        }

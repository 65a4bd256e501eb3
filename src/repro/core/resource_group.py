"""Resource groups: per-query containers of ordered task sets.

Section 2.2: all task sets of a query are wrapped into a *resource group*
which stores them in execution order — a task set may only start once all
previous ones finished (e.g. a join's build side before its probe side).
Resource groups are also the granularity at which CPU consumption is
tracked, which Section 3.2 exploits for adaptive query priorities.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.core.specs import QuerySpec
from repro.core.task import TaskSet
from repro.errors import SchedulerError, error_text


class ResourceGroup:
    """One admitted query: ordered task sets plus accounting state."""

    def __init__(self, query: QuerySpec, query_id: int, arrival_time: float) -> None:
        self.query = query
        self.query_id = query_id
        self.arrival_time = arrival_time
        #: Time at which the resource group entered the scheduler (left the
        #: wait queue).  Equals ``arrival_time`` unless the system was full.
        self.admit_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        #: Total CPU seconds spent on this group across all workers.
        self.cpu_seconds = 0.0
        #: Whether the query was cancelled (see :meth:`cancel`).  Once
        #: set, task sets drain instead of executing and the group winds
        #: down through the normal finalization protocol.
        self.cancelled = False
        #: Whether the query failed (morsel exception, injected fault,
        #: missed deadline).  See :meth:`fail`.
        self.failed = False
        #: The exception that failed the query (in-process only) and its
        #: ``"ClassName: message"`` text (survives the process pipe).
        self.failure: Optional[BaseException] = None
        self.failure_text = ""
        #: Union of :attr:`cancelled` and :attr:`failed` — the flag the
        #: execution hot paths check: an aborted group's task sets drain
        #: instead of executing.
        self.aborted = False
        #: Absolute deadline (arrival + spec deadline), ``inf`` when the
        #: query has none.  One float compare per scheduling decision.
        deadline = query.deadline
        self.deadline_time = (
            arrival_time + deadline if deadline is not None else float("inf")
        )
        #: Work sharing (§3.2 fairness for folds): how many queries this
        #: group executes on behalf of, parsed from a ``fold:N`` tag the
        #: sharing layer stamps on fold leaders.  The stride scheduler
        #: multiplies the slot's user_scale by it, so a folded group
        #: receives the *sum* of its members' shares as scheduling
        #: passes — never as a larger morsel budget, which would change
        #: morsel boundaries and with them the engine's float
        #: accumulation order.  1 for unshared queries leaves every
        #: code path untouched.
        self.fold_size = 1
        for tag in query.tags:
            if tag.startswith("fold:"):
                try:
                    self.fold_size = max(1, int(tag[5:]))
                except ValueError:
                    pass
                break
        self._next_pipeline = 0
        self._active_task_set: Optional[TaskSet] = None
        self._finished_task_sets: List[TaskSet] = []
        # CPU-charge lock; None under sequential (simulated) execution,
        # installed by enable_concurrency() for the threaded backend.
        self._cpu_lock: Optional[threading.Lock] = None

    def enable_concurrency(self) -> None:
        """Make accounting thread-safe and give new task sets carve locks."""
        if self._cpu_lock is None:
            self._cpu_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Task-set progression
    # ------------------------------------------------------------------
    @property
    def active_task_set(self) -> Optional[TaskSet]:
        """The currently executable task set, if any."""
        return self._active_task_set

    @property
    def started(self) -> bool:
        """Whether the first task set was activated."""
        return self._next_pipeline > 0

    @property
    def complete(self) -> bool:
        """Whether every task set of the query finished."""
        return (
            self._active_task_set is None
            and self._next_pipeline >= len(self.query.pipelines)
            and self.started
        )

    def activate_next_task_set(self) -> Optional[TaskSet]:
        """Activate the next pipeline's task set, or ``None`` when done.

        Raises if the previous task set has not been finalized — activating
        out of order would violate the pipeline dependency constraints that
        resource groups exist to enforce.
        """
        if self._active_task_set is not None and not self._active_task_set.finalized:
            raise SchedulerError(
                f"query {self.query.name!r}: next task set activated before "
                f"finalization of {self._active_task_set.profile.name!r}"
            )
        if self._active_task_set is not None:
            self._finished_task_sets.append(self._active_task_set)
            self._active_task_set = None
        if self._next_pipeline >= len(self.query.pipelines):
            return None
        profile = self.query.pipelines[self._next_pipeline]
        task_set = TaskSet(profile, self, self._next_pipeline)
        if self._cpu_lock is not None:
            task_set.enable_concurrency()
        self._next_pipeline += 1
        self._active_task_set = task_set
        if self.aborted:
            # An aborted (cancelled or failed) query's remaining
            # pipelines are drained at activation: workers observe an
            # exhausted task set and the finalization protocol steps
            # straight to the next one.
            task_set.cancel_remaining()
        return task_set

    def cancel(self) -> None:
        """Tag the query cancelled and drain its active task set.

        Idempotent, callable from any thread.  The active task set is
        drained here; future ones are drained at activation (see
        :meth:`activate_next_task_set`) — the publication order of the
        two writes makes the race benign: an activation that misses the
        flag is itself ordered before this method's drain.  Workers then
        observe exhaustion and the §2.3 protocol completes the query
        through its normal path, with zero further morsel work.
        """
        self.cancelled = True
        self.aborted = True
        task_set = self._active_task_set
        if task_set is not None:
            task_set.cancel_remaining()

    def fail(self, exc: BaseException) -> None:
        """Tag the query failed and drain its active task set.

        The failure analogue of :meth:`cancel`: same drain mechanics,
        same benign publication race, but the group records the causing
        exception so the latency record and ``QueryFailedError`` can
        carry it.  The first failure wins; later ones are ignored.
        """
        if not self.failed:
            self.failed = True
            self.failure = exc
            self.failure_text = error_text(exc)
        self.aborted = True
        task_set = self._active_task_set
        if task_set is not None:
            task_set.cancel_remaining()

    @property
    def finished_task_sets(self) -> List[TaskSet]:
        """Finalized task sets in completion order."""
        return self._finished_task_sets

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def charge_cpu(self, seconds: float) -> None:
        """Account CPU time consumed on behalf of this query."""
        if seconds < 0.0:
            raise SchedulerError("cannot charge negative CPU time")
        lock = self._cpu_lock
        if lock is None:
            self.cpu_seconds += seconds
        else:
            with lock:
                self.cpu_seconds += seconds

    def mark_complete(self, now: float) -> None:
        """Record the completion timestamp (once)."""
        if self.completion_time is not None:
            raise SchedulerError(
                f"query {self.query.name!r} completed twice"
            )
        self.completion_time = now

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency (arrival to completion), if complete."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceGroup(q={self.query.name!r}, id={self.query_id}, "
            f"pipeline={self._next_pipeline}/{len(self.query.pipelines)})"
        )

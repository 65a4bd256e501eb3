"""Task sets and morsels.

In Umbra every executable pipeline becomes a *task set* (Figure 2).  A
task set contains an arbitrary number of independent tasks; tasks and the
morsels inside them are *carved out at runtime* (Section 2.2), which is
what makes adaptive morsel sizing possible.

A :class:`TaskSet` therefore exposes a single mutating primitive,
:meth:`carve`, which hands out up to ``n`` of the remaining input tuples.
Everything else — throughput estimation, the pipeline state machine, the
finalization counter — is bookkeeping around that primitive.
"""

from __future__ import annotations

import enum
import threading
from typing import List, Optional, TYPE_CHECKING

from repro.atomics import AtomicCounter
from repro.core.specs import PipelineSpec
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.resource_group import ResourceGroup


class PipelineState(enum.Enum):
    """Execution phases of the adaptive morsel state machine (§3.1)."""

    STARTUP = "startup"
    DEFAULT = "default"
    SHUTDOWN = "shutdown"


class Morsel:
    """A fixed set of tuples executed as one unit of work.

    A plain slotted class rather than a dataclass: morsels are created
    once per executed morsel (the hottest allocation in a simulation) and
    the frozen-dataclass ``__init__`` costs several times a direct one.
    Treat instances as immutable.
    """

    __slots__ = ("tuples", "duration", "phase")

    def __init__(self, tuples: int, duration: float, phase: str) -> None:
        self.tuples = tuples
        self.duration = duration
        self.phase = phase

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morsel):
            return NotImplemented
        return (
            self.tuples == other.tuples
            and self.duration == other.duration
            and self.phase == other.phase
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Morsel(tuples={self.tuples}, duration={self.duration}, "
            f"phase={self.phase!r})"
        )


class TaskSet:
    """The runnable representation of one pipeline.

    The class tracks:

    * the remaining input tuples (``carve`` hands them out);
    * the shared throughput estimate used by adaptive morsel sizing;
    * the pipeline execution phase (startup / default / shutdown);
    * the number of workers currently pinned to the task set (needed for
      the contention model and for the finalization protocol);
    * the finalization counter of Section 2.3.
    """

    __slots__ = (
        "profile",
        "resource_group",
        "pipeline_index",
        "remaining_tuples",
        "state",
        "throughput_estimate",
        "pinned_workers",
        "finalization_counter",
        "finalization_started",
        "finalized",
        "carved_tuples",
        "lock",
    )

    def __init__(
        self,
        profile: PipelineSpec,
        resource_group: "ResourceGroup",
        pipeline_index: int,
    ) -> None:
        self.profile = profile
        self.resource_group = resource_group
        self.pipeline_index = pipeline_index
        self.remaining_tuples = profile.tuples
        self.state = PipelineState.STARTUP
        #: Exponentially weighted throughput estimate in tuples/second;
        #: ``None`` until the startup phase produced a first measurement.
        self.throughput_estimate: Optional[float] = None
        #: Workers currently pinned (published in the global state array).
        self.pinned_workers = 0
        self.finalization_counter = AtomicCounter(0)
        self.finalization_started = False
        self.finalized = False
        #: Tuples carved so far (monotone; for progress assertions).
        self.carved_tuples = 0
        #: Carve/pin lock; ``None`` while the task set is only touched
        #: from one thread (the simulator), a real lock under the
        #: threaded backend (see :meth:`enable_concurrency`).
        self.lock: Optional[threading.Lock] = None

    def enable_concurrency(self) -> None:
        """Install the carve/pin lock and arm the finalization counter."""
        if self.lock is None:
            self.lock = threading.Lock()
            self.finalization_counter.enable_concurrency()

    # ------------------------------------------------------------------
    # Work distribution
    # ------------------------------------------------------------------
    def carve(self, tuples: int) -> int:
        """Atomically claim up to ``tuples`` of the remaining input.

        Returns the number of tuples actually claimed (possibly zero when
        the task set is exhausted).  Carving is the only operation that
        consumes work, so concurrent workers never process a tuple twice.
        """
        if tuples < 0:
            raise SchedulerError("cannot carve a negative number of tuples")
        lock = self.lock
        if lock is None:
            claimed = min(tuples, self.remaining_tuples)
            self.remaining_tuples -= claimed
            self.carved_tuples += claimed
            return claimed
        with lock:
            claimed = min(tuples, self.remaining_tuples)
            self.remaining_tuples -= claimed
            self.carved_tuples += claimed
            return claimed

    def cancel_remaining(self) -> int:
        """Drain every remaining tuple without executing it.

        The abort primitive shared by cancellation, per-query failure
        isolation and deadline expiry: equivalent to carving the rest of
        the input and throwing it away.  The task set becomes exhausted,
        so workers racing in observe an empty task set and the §2.3
        finalization protocol winds the pipeline down through its normal
        completion path.  Returns the number of tuples dropped;
        idempotent.
        """
        lock = self.lock
        if lock is None:
            dropped = self.remaining_tuples
            self.remaining_tuples = 0
            self.carved_tuples += dropped
            return dropped
        with lock:
            dropped = self.remaining_tuples
            self.remaining_tuples = 0
            self.carved_tuples += dropped
            return dropped

    @property
    def exhausted(self) -> bool:
        """True once every input tuple has been carved out."""
        return self.remaining_tuples == 0

    # ------------------------------------------------------------------
    # Throughput estimation (§3.1, default state)
    # ------------------------------------------------------------------
    def observe_throughput(self, measured: float, alpha: float) -> None:
        """Fold a measured morsel throughput into the running estimate.

        ``T' = alpha * measured + (1 - alpha) * T`` — the paper uses
        ``alpha = 0.8`` to weight recent measurements heavily.
        """
        if measured <= 0.0:
            return
        if self.throughput_estimate is None:
            self.throughput_estimate = measured
        else:
            self.throughput_estimate = (
                alpha * measured + (1.0 - alpha) * self.throughput_estimate
            )

    def predicted_remaining_seconds(self) -> float:
        """Remaining time estimate from tuples left and current throughput."""
        if self.throughput_estimate is None or self.throughput_estimate <= 0.0:
            return float("inf") if self.remaining_tuples else 0.0
        return self.remaining_tuples / self.throughput_estimate

    # ------------------------------------------------------------------
    # Pinning (global state array support)
    # ------------------------------------------------------------------
    def pin(self) -> None:
        """A worker published this task set as its running task."""
        lock = self.lock
        if lock is None:
            self.pinned_workers += 1
        else:
            with lock:
                self.pinned_workers += 1

    def unpin(self) -> None:
        """A worker finished its task on this task set."""
        if self.pinned_workers <= 0:
            raise SchedulerError(
                f"unpin on task set {self.profile.name!r} with no pinned workers"
            )
        lock = self.lock
        if lock is None:
            self.pinned_workers -= 1
        else:
            with lock:
                self.pinned_workers -= 1

    # ------------------------------------------------------------------
    # Finalization protocol (§2.3)
    # ------------------------------------------------------------------
    def begin_finalization(self) -> bool:
        """Mark the start of the finalization phase.

        Returns ``True`` for exactly the first caller, which becomes the
        coordinating worker.
        """
        if self.finalization_started:
            return False
        self.finalization_started = True
        return True

    def mark_finalized(self) -> None:
        """Record that the finalization logic ran (exactly once)."""
        if self.finalized:
            raise SchedulerError(
                f"task set {self.profile.name!r} finalized twice"
            )
        self.finalized = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskSet({self.profile.name!r}, remaining={self.remaining_tuples}, "
            f"state={self.state.value}, pinned={self.pinned_workers})"
        )


class ExecutedTask:
    """The outcome of one scheduler task: the morsels it executed.

    ``duration`` is the summed simulated execution time; ``exhausted_work``
    tells the scheduler whether the task set ran out of tuples while this
    task was being carved (which triggers the finalization path).
    Like :class:`Morsel` this is a plain slotted class because one is
    allocated per scheduler task.

    ``morsel_count`` is the number of morsels the task executed.  It can
    exceed ``len(morsels)``: when tracing is disabled the executor skips
    collecting per-morsel records entirely (they would be thrown away)
    and only counts them, so schedulers must consult ``morsel_count`` —
    not the list — to tell an empty task from an untraced one.
    """

    __slots__ = ("task_set", "morsels", "duration", "exhausted_work", "morsel_count")

    def __init__(
        self,
        task_set: TaskSet,
        morsels: List[Morsel],
        duration: float,
        exhausted_work: bool,
        morsel_count: int = -1,
    ) -> None:
        self.task_set = task_set
        self.morsels = morsels
        self.duration = duration
        self.exhausted_work = exhausted_work
        self.morsel_count = len(morsels) if morsel_count < 0 else morsel_count

    @property
    def tuples(self) -> int:
        """Total tuples processed by this task."""
        return sum(m.tuples for m in self.morsels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutedTask({self.task_set!r}, morsels={len(self.morsels)}, "
            f"duration={self.duration}, exhausted={self.exhausted_work})"
        )

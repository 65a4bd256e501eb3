"""The periodic tuning loop (§4, Figure 6).

Every ``t_r`` (refresh duration) seconds, a tracking run of ``t_t``
(tracking duration) seconds is started on one designated worker.  When
the window closes, the *same* worker stops executing tasks, runs the
parameter optimization, and pushes the new decay parameters into all
workers; the others keep executing throughout.  The optimization time is
charged to the tuning worker (it appears as a "tuning" task in the
simulation) and to the overhead accounting of Figure 10.

This is the scheduler's only tuner.  The cost-bounded search over the
whole knob table runs one layer up, in
:meth:`repro.server.AnalyticsServer.tune`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.resource_group import ResourceGroup
from repro.core.scheduler_base import TaskDecision
from repro.tuning.optimizer import OptimizationResult, SIM_STEP_COST, optimize
# Not called here: the benchmark tracer binds this module's name.
from repro.tuning.optimizer import search_knob_space  # noqa: F401
from repro.tuning.tracker import WorkloadTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stride import StrideScheduler

#: Simulated seconds charged per self-simulation step.  Calibrated so a
#: 20 s tracking window yields the 20-100 ms optimization time of §4.
PER_STEP_COST = SIM_STEP_COST
#: Floor for the tuning task duration.
MIN_TUNING_SECONDS = 1.0e-5


@dataclass
class TuningCycleStats:
    """Per-cycle summary of one tuning run."""

    cycle: int
    #: The decay parameters chosen this cycle, under their knob names.
    values: Dict[str, object] = field(default_factory=dict)
    cost: float = 0.0
    baseline_cost: float = 0.0
    evaluations: int = 0
    simulated_steps: int = 0
    tracked_queries: int = 0
    tuning_seconds: float = 0.0


class TuningController:
    """Drives track -> optimize -> broadcast cycles on one worker."""

    def __init__(
        self,
        scheduler: "StrideScheduler",
        tracking_duration: float,
        refresh_duration: float,
        tracked_worker: int = 0,
        sim_quantum: Optional[float] = None,
        max_sim_steps_per_eval: int = 2000,
        objective: str = "mean",
    ) -> None:
        if tracking_duration <= 0.0 or refresh_duration <= 0.0:
            raise ValueError("tracking and refresh durations must be positive")
        if tracking_duration > refresh_duration:
            raise ValueError("the paper requires t_t << t_r")
        self.scheduler = scheduler
        self.tracking_duration = tracking_duration
        self.refresh_duration = refresh_duration
        self.tracked_worker = tracked_worker
        #: Discretization of the self-simulation.  Defaults to the target
        #: task duration t_max (one decision per task), coarsened so a
        #: single cost evaluation stays below ``max_sim_steps_per_eval``
        #: steps — a pure-Python speed knob that preserves the policy.
        if sim_quantum is None:
            sim_quantum = max(
                scheduler.config.t_max,
                tracking_duration / max_sim_steps_per_eval,
            )
        self.sim_quantum = sim_quantum
        #: The optimization objective (§3.2: "other cost functions could
        #: be considered as well"); resolved via repro.tuning.cost.
        from repro.tuning.cost import get_cost_function

        self.objective = objective
        self._cost_fn = get_cost_function(objective)
        self.tracker = WorkloadTracker()
        self.history: List[OptimizationResult] = []
        #: Per-cycle stats, one per optimization.
        self.cycles: List[TuningCycleStats] = []
        self._next_window_start = 0.0
        self._window_start = 0.0

    # ------------------------------------------------------------------
    # Hooks called by the stride scheduler
    # ------------------------------------------------------------------
    def record_task(
        self, worker_id: int, group: ResourceGroup, duration: float, now: float
    ) -> None:
        """Log an executed task if it ran on the tracked worker."""
        if worker_id == self.tracked_worker and self.tracker.active:
            self.tracker.record(group, duration)

    def maybe_tune(self, worker_id: int, now: float) -> Optional[TaskDecision]:
        """State machine advanced at each decision of the tracked worker.

        Returns a "tuning" task decision that occupies the worker for the
        optimization time, or ``None`` when no optimization is due.
        """
        if worker_id != self.tracked_worker:
            return None
        if not self.tracker.active:
            if now >= self._next_window_start:
                self._window_start = now
                self.tracker.start(now)
            return None
        if now < self._window_start + self.tracking_duration:
            return None
        # The window closed: optimize on this worker.
        self.tracker.stop()
        self._next_window_start = self._window_start + self.refresh_duration
        tracked = self.tracker.snapshot()
        if not tracked:
            return None
        clock = getattr(self.scheduler, "clock", None)
        opt_start = clock.now() if clock is not None and clock.realtime else None
        result = optimize(
            tracked,
            self.scheduler.decay_parameters,
            self.sim_quantum,
            cost_fn=self._cost_fn,
        )
        self.history.append(result)
        self.scheduler.set_decay_parameters(result.params)
        # Virtual time: model the cost from the work performed.
        tuning_seconds = max(
            MIN_TUNING_SECONDS, result.simulated_steps * PER_STEP_COST
        )
        self.cycles.append(
            TuningCycleStats(
                cycle=len(self.cycles),
                values={
                    "core.decay": result.params.decay,
                    "core.d_start": result.params.d_start,
                },
                cost=result.cost,
                baseline_cost=result.baseline_cost,
                evaluations=result.evaluations,
                simulated_steps=result.simulated_steps,
                tracked_queries=result.tracked_queries,
                tuning_seconds=tuning_seconds,
            )
        )
        if opt_start is not None:
            # Real threads: the optimization just consumed actual wall
            # time on this worker — charge what it measurably cost.
            tuning_seconds = max(MIN_TUNING_SECONDS, clock.now() - opt_start)
            self.cycles[-1].tuning_seconds = tuning_seconds
        self.scheduler.overhead.charge_tuning(tuning_seconds)
        return TaskDecision(
            worker_id=worker_id,
            kind="tuning",
            duration=tuning_seconds,
        )

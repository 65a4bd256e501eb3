"""The periodic tuning loop (§4, Figure 6).

Every ``t_r`` (refresh duration) seconds, a tracking run of ``t_t``
(tracking duration) seconds is started on one designated worker.  When
the window closes, the *same* worker stops executing tasks, runs the
parameter optimization, and pushes the new decay parameters into all
workers; the others keep executing throughout.  The optimization time is
charged to the tuning worker (it appears as a "tuning" task in the
simulation) and to the overhead accounting of Figure 10.

With a ``tuning_budget`` the controller switches from the paper's exact
(lambda, d_start) search to the cost-bounded knob-space search
(:func:`repro.tuning.optimizer.search_knob_space`) over the same two
knobs: the tracked workload is compressed, candidates are ranked by the
tuning-history surrogate, and the replay spend — and therefore the
tuning task's duration — is bounded by the budget.  Without a budget
the legacy path is untouched and bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.resource_group import ResourceGroup
from repro.core.scheduler_base import TaskDecision
from repro.tuning.history import TuningHistory
from repro.tuning.knobs import KnobSpace, scheduler_knobs
from repro.tuning.optimizer import (
    OptimizationResult,
    SIM_STEP_COST,
    optimize,
    search_knob_space,
)
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
    """Per-cycle summary of one tuning run (exported by metrics)."""

    cycle: int
    #: "legacy" for the §4 (lambda, d_start) search, "knob_space" for the
    #: cost-bounded whole-knob-space search.
    mode: str
    #: The knob vector chosen this cycle (legacy cycles report the decay
    #: parameters under their stock knob names).
    values: Dict[str, object] = field(default_factory=dict)
    cost: float = 0.0
    baseline_cost: float = 0.0
    evaluations: int = 0
    verified: int = 0
    simulated_steps: int = 0
    budget_steps: Optional[int] = None
    knobs_evaluated: int = 0
    fidelity: float = 1.0
    tracked_queries: int = 0
    tuning_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat row for CSV export; knob values become ``knob:`` keys."""
        row: Dict[str, object] = {
            "cycle": self.cycle,
            "mode": self.mode,
            "cost": self.cost,
            "baseline_cost": self.baseline_cost,
            "evaluations": self.evaluations,
            "verified": self.verified,
            "simulated_steps": self.simulated_steps,
            "budget_steps": (
                "" if self.budget_steps is None else self.budget_steps
            ),
            "knobs_evaluated": self.knobs_evaluated,
            "fidelity": self.fidelity,
            "tracked_queries": self.tracked_queries,
            "tuning_seconds": self.tuning_seconds,
        }
        for name, value in self.values.items():
            row[f"knob:{name}"] = value
        return row


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
        tuning_budget: Optional[float] = None,
        tuning_history: Optional[TuningHistory] = None,
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
        #: Simulated seconds one tuning cycle may spend; ``None`` keeps
        #: the paper's exact unbounded (lambda, d_start) search.
        self.tuning_budget = tuning_budget
        self._knob_space: Optional[KnobSpace] = None
        #: Tuning history feeding the candidate-ranking surrogate.
        self.tuning_history = tuning_history or TuningHistory()
        self.tracker = WorkloadTracker()
        self.history: List[OptimizationResult] = []
        #: Per-cycle stats for metrics export (both tuning modes).
        self.cycles: List[TuningCycleStats] = []
        self._next_window_start = 0.0
        self._window_start = 0.0

    @property
    def knob_space(self) -> KnobSpace:
        """The knob space of the budgeted search (built on first use).

        Only the decay pair: it is what the §4 broadcast pushes into
        running workers.  ``t_max`` and the slot limit are fixed when
        the scheduler is built, so the replay sees them at their table
        defaults (the scheduler defaults).
        """
        if self._knob_space is None:
            self._knob_space = KnobSpace(scheduler_knobs(self.scheduler))
        return self._knob_space

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
        if self.tuning_budget is not None:
            tuning_seconds = self._tune_knob_space(tracked)
        else:
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
                    mode="legacy",
                    values={
                        "core.decay": result.params.decay,
                        "core.d_start": result.params.d_start,
                    },
                    cost=result.cost,
                    baseline_cost=result.baseline_cost,
                    evaluations=result.evaluations,
                    simulated_steps=result.simulated_steps,
                    knobs_evaluated=2,
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

    def _tune_knob_space(self, tracked) -> float:
        """One cost-bounded whole-knob-space cycle; returns its duration."""
        space = self.knob_space
        result = search_knob_space(
            space,
            tracked,
            cost_fn=self._cost_fn,
            budget_seconds=self.tuning_budget,
            min_quantum=self.sim_quantum,
            history=self.tuning_history,
        )
        # Applying the tuned vector IS the broadcast: every knob of the
        # space pushes through its live target.
        space.apply(result.values)
        tuning_seconds = max(
            MIN_TUNING_SECONDS, result.simulated_steps * PER_STEP_COST
        )
        self.cycles.append(
            TuningCycleStats(
                cycle=len(self.cycles),
                mode="knob_space",
                values=dict(result.values),
                cost=result.cost,
                baseline_cost=result.baseline_cost,
                evaluations=result.evaluations,
                verified=result.verified,
                simulated_steps=result.simulated_steps,
                budget_steps=result.budget_steps,
                knobs_evaluated=result.knobs_evaluated,
                fidelity=result.fidelity,
                tracked_queries=result.tracked_queries,
                tuning_seconds=tuning_seconds,
            )
        )
        return tuning_seconds


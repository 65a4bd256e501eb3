"""Adaptive morsel execution (§3.1).

Classic morsel-driven parallelism maps one fixed-size morsel to one
scheduler task, which makes task granularity wildly unpredictable (Figure
5a: >30x duration spread).  The paper instead gives every *task* a target
duration ``t_max`` and lets the task carve however many morsels of
whatever size exhaust that target.  Each pipeline is a small state
machine:

* **startup** — no throughput estimate yet; run exponentially growing
  morsels (C0 = 16 tuples, doubling) while the next doubling still fits
  in the remaining budget, then switch to *default* seeded with the last
  morsel's measured throughput;
* **default** — carve one morsel of ``T_hat * t_max`` tuples, execute it,
  and fold the measured throughput into the EWMA estimate
  (``alpha = 0.8``);
* **shutdown** — entered when the predicted remaining pipeline time drops
  below ``W * t_max``; carve morsels sized for
  ``max(remaining / W, t_min)`` so all workers photo-finish together.

Pipelines that do not support adaptive sizes run fixed-size morsels in a
loop until the budget is exhausted (the §3.1 "Optimizations" paragraph);
the HyPer-style static policy (Figure 5a) is the same fixed size with one
morsel per task.
The whole executor is policy-free: it only needs a way to *execute a
morsel and learn its duration*, provided by the
:class:`ExecutionEnvironment` protocol, so the identical code serves the
discrete-event simulator and the real mini engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Protocol

from repro.core.task import ExecutedTask, Morsel, PipelineState, TaskSet

#: Sentinel distinguishing "attribute missing" from any real value.
_MISSING = object()

#: Module-level aliases of the pipeline states (cheaper loads in the hot
#: loop than attribute access on the enum class).
_STARTUP = PipelineState.STARTUP
_DEFAULT = PipelineState.DEFAULT
_SHUTDOWN = PipelineState.SHUTDOWN

#: Shared empty morsel list for untraced tasks (never mutated; consumers
#: read ``ExecutedTask.morsel_count`` instead).
_NO_MORSELS: List[Morsel] = []


class ExecutionEnvironment(Protocol):
    """Anything that can execute a morsel and report its duration.

    A :class:`~repro.simcore.simulator.SimulationEnvironment` is detected
    and costed inline (its task-constant ``morsel_cost_factors`` and its
    pre-drawn noise buffer), without a Python call per morsel;
    ``run_morsel`` is all any other environment must implement.
    """

    def run_morsel(self, task_set: TaskSet, tuples: int) -> float:
        """Execute ``tuples`` input tuples of ``task_set``; return seconds."""
        ...  # pragma: no cover - protocol


class MorselMode(enum.Enum):
    """Task-structure policy: the paper's adaptive design vs. HyPer-style."""

    ADAPTIVE = "adaptive"
    STATIC = "static"


class PipelinePhase:
    """Re-export of the phase names for trace consumers."""

    STARTUP = PipelineState.STARTUP.value
    DEFAULT = PipelineState.DEFAULT.value
    SHUTDOWN = PipelineState.SHUTDOWN.value


@dataclass(frozen=True)
class MorselExecutorConfig:
    """Tunables of §3.1 with the paper's defaults."""

    #: Target task duration t_max; 2 ms balances overhead vs. responsiveness.
    t_max: float = 0.002
    #: Minimum morsel duration t_min used by the shutdown state.
    t_min: float = 0.00025
    #: Initial startup morsel size C0 (tuples).
    c0: int = 16
    #: EWMA weight alpha for throughput estimates (recent-heavy).
    ewma_alpha: float = 0.8
    #: Worker count W; the shutdown state triggers below ``W * t_max``.
    n_workers: int = 20
    #: Adaptive (the paper) or static (HyPer-style 1:1 fixed morsels).
    mode: MorselMode = MorselMode.ADAPTIVE


class MorselExecutor:
    """Carves and executes the morsels of one scheduler task."""

    __slots__ = (
        "config",
        "_static_mode",
        "_cached_env",
        "_cached_faults",
        "_cached_model",
        "_t_max",
        "_t_min",
        "_c0",
        "_alpha",
        "_one_minus_alpha",
        "_shutdown_threshold",
        "_shutdown_div",
        "_budget_cutoff",
        "collect_morsels",
    )

    def __init__(self, config: MorselExecutorConfig) -> None:
        self.config = config
        self._static_mode = config.mode is MorselMode.STATIC
        # The config is a frozen dataclass, so the derived hot-loop
        # constants can be precomputed once.
        self._t_max = config.t_max
        self._t_min = config.t_min
        self._c0 = config.c0
        self._alpha = config.ewma_alpha
        self._one_minus_alpha = 1.0 - config.ewma_alpha
        self._shutdown_threshold = config.n_workers * config.t_max
        self._shutdown_div = config.n_workers
        self._budget_cutoff = 0.9 * config.t_max
        #: Collect per-morsel records on executed tasks.  Schedulers turn
        #: this off when tracing is disabled (the records would be thrown
        #: away); tasks then report only ``ExecutedTask.morsel_count``.
        self.collect_morsels = True
        #: Per-environment capability probe, cached because the executor
        #: sees the same environment object for a whole run.
        self._cached_env = None
        self._cached_faults = None
        self._cached_model = None

    # ------------------------------------------------------------------
    # Environment capability detection (the cost-model environment)
    # ------------------------------------------------------------------
    def _probe_environment(self, env: ExecutionEnvironment) -> None:
        """Detect (once per environment) the simulator's cost model.

        An environment carrying the
        :class:`~repro.simcore.simulator.SimulationEnvironment` contract
        (``morsel_cost_factors`` plus the pre-drawn noise buffer) lets
        the hot loop cost a morsel by direct attribute access.  A fault
        wrapper (``clean_morsels``) around such an environment has its
        clean morsels costed through the wrapped one.  Every other
        environment is costed through ``run_morsel``.
        """
        model = env.inner if hasattr(env, "clean_morsels") else env
        if (
            getattr(model, "morsel_cost_factors", None) is None
            or getattr(model, "_noise_buffer", _MISSING) is _MISSING
        ):
            model = None
        self._cached_env = env
        self._cached_model = model
        self._cached_faults = env if model is not None and model is not env else None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run_task(self, task_set: TaskSet, env: ExecutionEnvironment) -> ExecutedTask:
        """Execute one task worth of morsels from ``task_set``.

        Returns the executed morsels and total duration.  If the task set
        is already exhausted when called, returns an empty task with
        ``exhausted_work=True`` so the scheduler can enter finalization.

        Every pipeline kind runs the one loop below: the adaptive states
        differ only in how the next morsel is sized and in what its
        measured throughput feeds, and a fixed-size pipeline (or the
        static policy, which stops after one morsel) sizes every morsel
        ``fixed_morsel_tuples``; carving, costing and recording are
        shared.  ``tests/core/reference_morsel_exec.py`` keeps the
        per-morsel formulations it is compared against.
        """
        if task_set.resource_group.aborted:
            # A cancel or failure tagged the group after this worker
            # picked the slot: drop whatever work remains instead of
            # executing it, so the empty exhausted task below triggers
            # finalization.
            task_set.cancel_remaining()
            return ExecutedTask(task_set, _NO_MORSELS, 0.0, True, 0)
        # Work-sharing folds do NOT scale this budget: a fold's summed
        # share is granted through its stride weight (more scheduling
        # passes), because a larger per-task budget would change morsel
        # boundaries and with them the engine's float accumulation
        # order — folded results must stay bit-identical to unshared.
        budget = self._t_max
        alpha = self._alpha
        one_minus_alpha = self._one_minus_alpha
        shutdown_threshold = self._shutdown_threshold
        shutdown_div = self._shutdown_div
        t_min = self._t_min
        budget_cutoff = self._budget_cutoff
        static = self._static_mode
        #: Size of every morsel of a fixed-size task; 0 for adaptive ones.
        fixed = 0
        if static or not task_set.profile.supports_adaptive:
            fixed = task_set.profile.fixed_morsel_tuples
            phase = "static" if static else "fixed"
        collect = self.collect_morsels
        if collect:
            morsels: List[Morsel] = []
            append = morsels.append
        else:
            morsels = _NO_MORSELS
        n_morsels = 0
        elapsed = 0.0
        if env is not self._cached_env:
            self._probe_environment(env)
        faults = self._cached_faults
        model = self._cached_model
        #: noise_mode 2: noise buffer read inline; 1: noise disabled
        #: (factor 1.0); 0: run_morsel.
        if model is None:
            run_morsel = env.run_morsel
            noise_mode = 0
        else:
            env = model
            rate, contention, pressure = model.morsel_cost_factors(task_set)
            noise_mode = 2 if model.noise_sigma > 0.0 else 1
        ts_lock = task_set.lock
        #: In-task index of the next morsel the fault wrapper must run, and
        #: how many morsels its per-query count already includes.
        fault_at = counted = 0
        if faults is None:
            fault_at = -1
        elif ts_lock is None:
            fault_at = faults.clean_morsels(task_set)
        #: Next startup probe size; 0 until this task enters startup.
        probe = 0
        last_duration = 0.0
        last_measured = 0.0
        state = None
        while elapsed < budget and task_set.remaining_tuples:
            if probe:
                # Startup: exponentially growing probes while the next
                # doubling still fits in the remaining budget.
                if 2.0 * last_duration > budget - elapsed:
                    break
                want = probe
            elif fixed:
                if static and n_morsels:
                    break
                want = fixed
                throughput = task_set.throughput_estimate
            else:
                throughput = task_set.throughput_estimate
                state = task_set.state
                # Default -> shutdown once the predicted remaining
                # pipeline time drops below W * t_max.
                if state is _DEFAULT and throughput is not None and throughput > 0.0:
                    if task_set.remaining_tuples / throughput < shutdown_threshold:
                        task_set.state = state = _SHUTDOWN
                if state is _STARTUP:
                    want = probe = self._c0
                    phase = "startup"
                elif throughput is None or throughput <= 0.0:
                    # Lost the estimate (should not happen); fall back to
                    # startup on the next task.
                    task_set.state = _STARTUP
                    break
                else:
                    if state is _SHUTDOWN:
                        # Photo-finish morsel: max(remaining / W, t_min).
                        target = task_set.remaining_tuples / throughput / shutdown_div
                        if target < t_min:
                            target = t_min
                        phase = "shutdown"
                    else:
                        # One morsel sized to exhaust the remaining budget.
                        target = budget - elapsed
                        phase = "default"
                    want = int(throughput * target)
                    if want < 1:
                        want = 1
            # Inlined TaskSet.carve (the only work-consuming primitive).
            # With a carve lock installed (threaded backend) the locked
            # method runs instead, so concurrent workers never claim the
            # same tuples.
            if ts_lock is None:
                available = task_set.remaining_tuples
                tuples = want if want < available else available
                task_set.remaining_tuples = available - tuples
                task_set.carved_tuples += tuples
            else:
                tuples = task_set.carve(want)
                if tuples == 0:
                    # Raced to exhaustion against another worker.
                    break
            if n_morsels == fault_at:
                # A planned fault may arm or fire on this morsel.
                if n_morsels > counted:
                    faults.count_morsels(task_set, n_morsels - counted)
                duration = faults.run_morsel(task_set, tuples)
                counted = n_morsels + 1
                fault_at = counted
                if ts_lock is None:
                    fault_at += faults.clean_morsels(task_set)
            elif noise_mode == 2:
                # SimulationEnvironment.next_noise, read inline per morsel.
                pos = env._noise_pos
                buf = env._noise_buffer
                if buf is None or pos >= len(buf):
                    env._refill_noise()
                    buf = env._noise_buffer
                    pos = 0
                env._noise_pos = pos + 1
                duration = tuples / rate * contention * pressure * float(buf[pos])
            elif noise_mode:
                # Noise disabled: next_noise() would return exactly 1.0.
                duration = tuples / rate * contention * pressure * 1.0
            else:
                duration = run_morsel(task_set, tuples)
            # A morsel that reports no duration measures no throughput.
            measured = tuples / duration if duration > 0.0 else 0.0
            if probe:
                probe += probe
                last_duration = duration
                last_measured = measured
            elif measured > 0.0:
                # Inlined TaskSet.observe_throughput (only a fixed-size
                # task can start without an estimate).
                task_set.throughput_estimate = (
                    measured
                    if throughput is None
                    else alpha * measured + one_minus_alpha * throughput
                )
            n_morsels += 1
            if collect:
                append(Morsel(tuples, duration, phase))
            elapsed += duration
            # A default-state morsel is sized to exhaust the budget; only
            # continue looping if it came back much shorter than planned
            # (clipped carve, noise) — the §3.1 "Optimizations" rule.
            if state is _DEFAULT and elapsed >= budget_cutoff:
                break
        if faults is not None and n_morsels > counted:
            faults.count_morsels(task_set, n_morsels - counted)
        if last_measured > 0.0:
            # The final startup probe seeds the throughput estimate.
            estimate = task_set.throughput_estimate
            task_set.throughput_estimate = (
                last_measured
                if estimate is None
                else alpha * last_measured + one_minus_alpha * estimate
            )
            if task_set.state is _STARTUP:
                task_set.state = _DEFAULT
        return ExecutedTask(
            task_set, morsels, elapsed, task_set.remaining_tuples == 0, n_morsels
        )

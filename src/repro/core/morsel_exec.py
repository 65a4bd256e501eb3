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
loop until the budget is exhausted (the §3.1 "Optimizations" paragraph).
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

    Environments may additionally expose the *batched cost* interface of
    :class:`~repro.simcore.simulator.SimulationEnvironment`
    (``morsel_cost_factors`` / ``peek_noise`` / ``consume_noise`` /
    ``next_noise``); the executor detects it per task and uses it to cost
    several morsels per Python call.  The fallback path below is all an
    environment must implement.
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
        "_cached_factors",
        "_cached_fast_noise",
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
        self._cached_factors = None
        self._cached_fast_noise = False

    # ------------------------------------------------------------------
    # Environment capability detection (batched cost-model environments)
    # ------------------------------------------------------------------
    def _probe_environment(self, env: ExecutionEnvironment) -> None:
        """Detect (once per environment) the optional fast-cost interface.

        ``morsel_cost_factors`` marks cost-model environments whose
        ``(rate, contention, pressure)`` triple is constant for one task.
        An environment carrying the full
        :class:`~repro.simcore.simulator.SimulationEnvironment` contract
        (pre-drawn noise buffer plus the cache-pressure knobs) lets the
        hot loop compute factors and noise by direct attribute access.
        A fault wrapper (``clean_morsels``) around such an environment
        has its clean morsels costed through the wrapped one.
        """
        cost_env = env.inner if hasattr(env, "clean_morsels") else env
        factors = getattr(cost_env, "morsel_cost_factors", None)
        if factors is None:
            cost_env = env
        self._cached_env = env
        self._cached_faults = env if cost_env is not env else None
        self._cached_factors = factors
        self._cached_fast_noise = (
            factors is not None
            and getattr(cost_env, "_noise_buffer", _MISSING) is not _MISSING
            and getattr(cost_env, "cache_pressure", _MISSING) is not _MISSING
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run_task(self, task_set: TaskSet, env: ExecutionEnvironment) -> ExecutedTask:
        """Execute one task worth of morsels from ``task_set``.

        Returns the executed morsels and total duration.  If the task set
        is already exhausted when called, returns an empty task with
        ``exhausted_work=True`` so the scheduler can enter finalization.

        The adaptive state machine is the one loop below: its three
        states differ only in how the next morsel is sized and in what
        its measured throughput feeds; carving, costing and recording
        are shared.  ``tests/core/reference_morsel_exec.py`` keeps the
        per-morsel formulation it is compared against.
        """
        if task_set.resource_group.aborted:
            # A cancel or failure tagged the group after this worker
            # picked the slot: drop whatever work remains instead of
            # executing it, so the empty exhausted task below triggers
            # finalization.
            task_set.cancel_remaining()
            return ExecutedTask(task_set, _NO_MORSELS, 0.0, True, 0)
        if self._static_mode or not task_set.profile.supports_adaptive:
            if self._static_mode:
                morsels = self._run_static(task_set, env)
            else:
                morsels = self._run_fixed_until_budget(task_set, env)
            duration = 0.0
            for morsel in morsels:
                duration += morsel.duration
            return ExecutedTask(
                task_set, morsels, duration, task_set.remaining_tuples == 0
            )

        # ---- adaptive state machine (§3.1) ---------------------------
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
        if faults is not None:
            env = faults.inner
        factors_fn = self._cached_factors
        #: noise_mode 3: buffer read inline; 2: noise disabled (factor
        #: 1.0); 1: factors + next_noise() per morsel; 0: run_morsel.
        if factors_fn is None:
            run_morsel = env.run_morsel
            noise_mode = 0
        elif self._cached_fast_noise:
            # Inlined SimulationEnvironment.morsel_cost_factors (kept in
            # sync with that method; the triple is task-constant).
            profile = task_set.profile
            rate = profile.tuples_per_second
            extra_pinned = task_set.pinned_workers - 1
            contention = 1.0 + profile.parallel_efficiency * (
                extra_pinned if extra_pinned > 0 else 0
            )
            pressure = 1.0
            active_count_fn = env.active_count_fn
            if env.cache_pressure > 0.0 and active_count_fn is not None:
                active = min(active_count_fn(), env.cache_pressure_cap)
                if active > 1:
                    pressure = 1.0 + env.cache_pressure * (active - 1)
            noise_mode = 3 if env.noise_sigma > 0.0 else 2
        else:
            rate, contention, pressure = factors_fn(task_set)
            next_noise = env.next_noise
            noise_mode = 1
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
        while elapsed < budget and task_set.remaining_tuples:
            if probe:
                # Startup: exponentially growing probes while the next
                # doubling still fits in the remaining budget.
                if 2.0 * last_duration > budget - elapsed:
                    break
                want = probe
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
            elif noise_mode == 3:
                # Inlined SimulationEnvironment.next_noise.
                pos = env._noise_pos
                buf = env._noise_buffer
                if buf is None or pos >= len(buf):
                    env._refill_noise()
                    buf = env._noise_buffer
                    pos = 0
                env._noise_pos = pos + 1
                duration = tuples / rate * contention * pressure * float(buf[pos])
            elif noise_mode == 2:
                # Noise disabled: next_noise() would return exactly 1.0.
                duration = tuples / rate * contention * pressure * 1.0
            elif noise_mode == 1:
                duration = tuples / rate * contention * pressure * next_noise()
            else:
                duration = run_morsel(task_set, tuples)
            # A morsel that reports no duration measures no throughput.
            measured = tuples / duration if duration > 0.0 else 0.0
            if probe:
                probe += probe
                last_duration = duration
                last_measured = measured
            elif measured > 0.0:
                # Inlined TaskSet.observe_throughput (estimate is non-None).
                task_set.throughput_estimate = (
                    alpha * measured + one_minus_alpha * throughput
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

    # ------------------------------------------------------------------
    # Fixed-size morsels: the static policy (HyPer-style, Figure 5a) and
    # non-adaptive pipelines, looped until t_max
    # ------------------------------------------------------------------
    def _run_static(self, task_set: TaskSet, env: ExecutionEnvironment) -> List[Morsel]:
        """One fixed-size morsel per task — the classic 1:1 mapping."""
        tuples = task_set.carve(task_set.profile.fixed_morsel_tuples)
        if tuples == 0:
            return []
        duration = env.run_morsel(task_set, tuples)
        task_set.observe_throughput(tuples / duration, self._alpha)
        return [Morsel(tuples=tuples, duration=duration, phase="static")]

    def _run_fixed_until_budget(
        self, task_set: TaskSet, env: ExecutionEnvironment
    ) -> List[Morsel]:
        if env is not self._cached_env:
            self._probe_environment(env)
        if self._cached_fast_noise and self._cached_faults is None:
            return self._run_fixed_batched(task_set, env)
        t_max = self._t_max
        alpha = self._alpha
        morsels: List[Morsel] = []
        elapsed = 0.0
        while elapsed < t_max:
            tuples = task_set.carve(task_set.profile.fixed_morsel_tuples)
            if tuples == 0:
                break
            duration = env.run_morsel(task_set, tuples)
            task_set.observe_throughput(tuples / duration, alpha)
            morsels.append(Morsel(tuples=tuples, duration=duration, phase="fixed"))
            elapsed += duration
        return morsels

    def _run_fixed_batched(
        self, task_set: TaskSet, env: ExecutionEnvironment
    ) -> List[Morsel]:
        """Fixed-size morsels costed in vectorized look-ahead chunks.

        The sequential loop above consumes one noise draw per executed
        morsel.  Here the noise factors for a whole chunk are *peeked*
        from the environment's pre-drawn buffer, durations are computed
        until the budget is crossed, and exactly the executed draws are
        then committed with ``consume_noise`` — so carve decisions, EWMA
        updates and the RNG stream all match the sequential path
        bit-for-bit (guarded by the determinism tests).
        """
        rate, contention, pressure = env.morsel_cost_factors(task_set)
        fixed = task_set.profile.fixed_morsel_tuples
        t_max = self._t_max
        alpha = self._alpha
        morsels: List[Morsel] = []
        elapsed = 0.0
        while elapsed < t_max and not task_set.exhausted:
            remaining = task_set.remaining_tuples
            chunks_left = -(-remaining // fixed)
            chunk = chunks_left if chunks_left < 16 else 16
            noise = env.peek_noise(chunk)
            executed = 0
            for i in range(chunk):
                tuples = fixed if remaining >= fixed else remaining
                remaining -= tuples
                factor = 1.0 if noise is None else float(noise[i])
                duration = tuples / rate * contention * pressure * factor
                morsels.append(Morsel(tuples=tuples, duration=duration, phase="fixed"))
                elapsed += duration
                executed += 1
                if elapsed >= t_max or remaining == 0:
                    break
            env.consume_noise(executed)
            # Commit carves and EWMA updates in execution order.
            for morsel in morsels[len(morsels) - executed :]:
                task_set.carve(morsel.tuples)
                task_set.observe_throughput(morsel.tuples / morsel.duration, alpha)
        return morsels

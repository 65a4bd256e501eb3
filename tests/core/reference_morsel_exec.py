"""The per-morsel §3.1 state machine and the fixed-size paths the one
loop replaced — kept as the reference
``tests/core/test_morsel_exec_reference.py`` compares against.

These are the former ``MorselExecutor._maybe_enter_shutdown`` /
``_run_startup`` / ``_run_default_morsel`` / ``_run_shutdown_morsel``
verbatim (``self.config`` became the ``config`` argument), driven by the
loop they were written for: every morsel, in every state, goes
``TaskSet.carve`` → ``env.run_morsel`` → ``Morsel`` →
``TaskSet.observe_throughput``.  :class:`FixedSizeExecutor` holds the
former ``_run_static`` / ``_run_fixed_until_budget`` /
``_run_fixed_batched`` (with the environment probe they used) verbatim,
and :class:`LookAheadEnvironment` the noise look-ahead
(``peek_noise`` / ``consume_noise`` and a refill that keeps the unread
tail) the batched path costed through.  Slow by design; ``run_task`` in
``repro.core.morsel_exec`` must produce the same morsels, the same task
set state and leave the environment's noise stream at the same position.

Deliberate differences: the one loop treats a zero-duration morsel as
"no throughput measured" in every state, where ``run_default_morsel`` /
``run_shutdown_morsel`` and the fixed-size paths here divide unguarded
(pinned separately in ``tests/core/test_morsel_exec.py``); and the one
loop collects no ``Morsel`` records of a fixed-size task when collection
is off, where the fixed-size paths here always do.
"""

import numpy as np

from typing import List, Optional, Tuple

from repro.core.morsel_exec import (
    _MISSING,
    ExecutionEnvironment,
    MorselExecutorConfig,
    MorselMode,
)
from repro.core.task import ExecutedTask, Morsel, PipelineState, TaskSet
from repro.simcore.simulator import _NOISE_BLOCK, SimulationEnvironment


def maybe_enter_shutdown(config: MorselExecutorConfig, task_set: TaskSet) -> None:
    """Transition default → shutdown near the end of the pipeline."""
    if task_set.state is not PipelineState.DEFAULT:
        return
    threshold = config.n_workers * config.t_max
    if task_set.predicted_remaining_seconds() < threshold:
        task_set.state = PipelineState.SHUTDOWN


def run_startup(
    config: MorselExecutorConfig,
    task_set: TaskSet,
    env: ExecutionEnvironment,
    morsels_elapsed: float,
) -> Tuple[List[Morsel], float]:
    """Exponentially growing probe morsels until the budget is used."""
    morsels: List[Morsel] = []
    elapsed = morsels_elapsed
    budget = config.t_max
    size = config.c0
    last_duration = 0.0
    last_throughput = 0.0
    first = True
    while not task_set.exhausted:
        if not first and 2.0 * last_duration > budget - elapsed:
            break
        tuples = task_set.carve(size)
        if tuples == 0:
            break
        duration = env.run_morsel(task_set, tuples)
        morsels.append(Morsel(tuples=tuples, duration=duration, phase="startup"))
        elapsed += duration
        last_duration = duration
        last_throughput = tuples / duration if duration > 0.0 else 0.0
        size *= 2
        first = False
    if last_throughput > 0.0:
        # The final startup morsel seeds the throughput estimate.
        if task_set.throughput_estimate is None:
            task_set.throughput_estimate = last_throughput
        else:
            task_set.observe_throughput(last_throughput, config.ewma_alpha)
        if task_set.state is PipelineState.STARTUP:
            task_set.state = PipelineState.DEFAULT
    return morsels, elapsed


def run_default_morsel(
    config: MorselExecutorConfig,
    task_set: TaskSet,
    env: ExecutionEnvironment,
    remaining_budget: float,
) -> Optional[Morsel]:
    """One morsel sized to exhaust the remaining budget."""
    throughput = task_set.throughput_estimate
    if throughput is None or throughput <= 0.0:
        # Lost the estimate (should not happen); fall back to startup.
        task_set.state = PipelineState.STARTUP
        return None
    target = min(remaining_budget, config.t_max)
    tuples = task_set.carve(max(1, int(throughput * target)))
    if tuples == 0:
        return None
    duration = env.run_morsel(task_set, tuples)
    task_set.observe_throughput(tuples / duration, config.ewma_alpha)
    return Morsel(tuples=tuples, duration=duration, phase="default")


def run_shutdown_morsel(
    config: MorselExecutorConfig, task_set: TaskSet, env: ExecutionEnvironment
) -> Optional[Morsel]:
    """Photo-finish morsel: duration max(remaining / W, t_min)."""
    throughput = task_set.throughput_estimate or 0.0
    if throughput <= 0.0:
        task_set.state = PipelineState.STARTUP
        return None
    remaining = task_set.predicted_remaining_seconds()
    target = max(remaining / config.n_workers, config.t_min)
    tuples = task_set.carve(max(1, int(throughput * target)))
    if tuples == 0:
        return None
    duration = env.run_morsel(task_set, tuples)
    task_set.observe_throughput(tuples / duration, config.ewma_alpha)
    return Morsel(tuples=tuples, duration=duration, phase="shutdown")


def run_task(
    config: MorselExecutorConfig, task_set: TaskSet, env: ExecutionEnvironment
) -> ExecutedTask:
    """One adaptive task: morsels until ``t_max`` is spent (§3.1)."""
    budget = config.t_max
    morsels: List[Morsel] = []
    elapsed = 0.0
    while elapsed < budget and not task_set.exhausted:
        maybe_enter_shutdown(config, task_set)
        state = task_set.state
        if state is PipelineState.STARTUP:
            # Startup consumes the whole budget by construction.
            startup_morsels, elapsed = run_startup(config, task_set, env, elapsed)
            morsels.extend(startup_morsels)
            break
        if state is PipelineState.SHUTDOWN:
            morsel = run_shutdown_morsel(config, task_set, env)
        else:
            morsel = run_default_morsel(config, task_set, env, budget - elapsed)
        if morsel is None:
            break
        morsels.append(morsel)
        elapsed += morsel.duration
        # A default-state morsel is sized to exhaust the budget; only
        # continue if it came back much shorter than planned.
        if state is not PipelineState.SHUTDOWN and elapsed >= 0.9 * budget:
            break
    return ExecutedTask(task_set, morsels, elapsed, task_set.exhausted)


class LookAheadEnvironment(SimulationEnvironment):
    """The simulator's cost model with the former noise look-ahead."""

    def _refill_noise(self) -> None:
        """Draw the next noise block, keeping any unconsumed values.

        The underlying RNG stream always advances in fixed-size blocks,
        so the sequence of noise values is independent of *how* callers
        consume the buffer (one at a time or in batched look-aheads).
        """
        mu = -0.5 * self.noise_sigma * self.noise_sigma
        block = self._noise_rng.lognormal(
            mean=mu, sigma=self.noise_sigma, size=_NOISE_BLOCK
        )
        if self._noise_buffer is None or self._noise_pos >= len(self._noise_buffer):
            self._noise_buffer = block
        else:
            self._noise_buffer = np.concatenate(
                [self._noise_buffer[self._noise_pos :], block]
            )
        self._noise_pos = 0

    def peek_noise(self, count: int) -> Optional[np.ndarray]:
        """The next ``count`` noise factors *without* consuming them.

        Returns ``None`` when noise is disabled (factor 1.0).  Used by the
        batched morsel executor to decide how many morsels fit a task
        budget before committing to the RNG draws; combined with
        :meth:`consume_noise` this reproduces the exact per-morsel stream
        of sequential :meth:`next_noise` calls.
        """
        if self.noise_sigma <= 0.0:
            return None
        while (
            self._noise_buffer is None
            or len(self._noise_buffer) - self._noise_pos < count
        ):
            self._refill_noise()
        return self._noise_buffer[self._noise_pos : self._noise_pos + count]

    def consume_noise(self, count: int) -> None:
        """Commit ``count`` previously peeked noise factors."""
        if self.noise_sigma <= 0.0:
            return
        self._noise_pos += count


class FixedSizeExecutor:
    """The former fixed-size paths of ``MorselExecutor``, and the task
    dispatch around them (adaptive tasks go to :func:`run_task`)."""

    def __init__(self, config: MorselExecutorConfig) -> None:
        self.config = config
        self._static_mode = config.mode is MorselMode.STATIC
        self._t_max = config.t_max
        self._alpha = config.ewma_alpha
        self._cached_env = None
        self._cached_faults = None
        self._cached_factors = None
        self._cached_fast_noise = False

    def run_task(self, task_set: TaskSet, env: ExecutionEnvironment) -> ExecutedTask:
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
        return run_task(self.config, task_set, env)

    def _probe_environment(self, env: ExecutionEnvironment) -> None:
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

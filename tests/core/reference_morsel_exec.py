"""The per-morsel §3.1 state machine the one loop replaced — kept as the
reference ``tests/core/test_morsel_exec_reference.py`` compares against.

These are the former ``MorselExecutor._maybe_enter_shutdown`` /
``_run_startup`` / ``_run_default_morsel`` / ``_run_shutdown_morsel``
verbatim (``self.config`` became the ``config`` argument), driven by the
loop they were written for: every morsel, in every state, goes
``TaskSet.carve`` → ``env.run_morsel`` → ``Morsel`` →
``TaskSet.observe_throughput``.  Slow by design; ``run_task`` in
``repro.core.morsel_exec`` must produce the same morsels, the same task
set state and leave the environment's noise stream at the same position.

One deliberate difference: the one loop treats a zero-duration morsel as
"no throughput measured" in every state, where ``run_default_morsel`` /
``run_shutdown_morsel`` here divide unguarded (pinned separately in
``tests/core/test_morsel_exec.py``).
"""

from typing import List, Optional, Tuple

from repro.core.morsel_exec import ExecutionEnvironment, MorselExecutorConfig
from repro.core.task import ExecutedTask, Morsel, PipelineState, TaskSet


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

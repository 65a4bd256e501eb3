"""The one morsel loop equals the per-morsel state machine and the
fixed-size paths it replaced.

``MorselExecutor.run_task`` runs startup, default, shutdown, fixed-size
and static morsels in one loop that carves inline and costs a morsel
through the simulator's cost model or ``run_morsel``;
``tests/core/reference_morsel_exec.py`` holds the formulations it
replaced (one ``carve`` + ``run_morsel`` + ``Morsel`` per morsel, and
the batched look-ahead for fixed-size morsels).  Over
hypothesis-generated pipelines both are driven task by task through all
four environment shapes and must agree with ``==`` on every morsel, on
the task set's state and on where they leave the noise stream.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.morsel_exec import MorselExecutor, MorselExecutorConfig, MorselMode
from repro.core.resource_group import ResourceGroup
from repro.core.specs import PipelineSpec, QuerySpec
from repro.core.task import TaskSet
from repro.errors import InjectedFault
from repro.runtime.faults import (
    OPERATOR_RAISE,
    WORKER_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyEnvironment,
)
from repro.simcore.rng import RngFactory
from repro.simcore.simulator import _NOISE_BLOCK, SimulationEnvironment

from tests.core import reference_morsel_exec as reference
from tests.core.test_morsel_exec import make_task_set

#: Tasks compared per example: enough to leave startup, run default
#: tasks and (for the smaller pipelines) photo-finish through shutdown.
MAX_TASKS = 24

#: Pipeline kinds: the paper's adaptive morsels, fixed-size morsels until
#: ``t_max`` (a pipeline without adaptive support) and the static policy.
KINDS = ("adaptive", "fixed", "static")


class RunMorselOnlyEnv:
    """Nothing but the protocol method."""

    def __init__(self, inner: SimulationEnvironment) -> None:
        self.inner = inner
        self.run_morsel = inner.run_morsel


def _faulty(inner: SimulationEnvironment, fault) -> FaultyEnvironment:
    if fault is None:
        faults = ()
    elif fault[0] == WORKER_STALL:
        faults = (FaultSpec(WORKER_STALL, morsel=fault[1], stall_seconds=0.0004),)
    else:
        faults = (FaultSpec(OPERATOR_RAISE, morsel=fault[1]),)
    return FaultyEnvironment(inner, FaultInjector(FaultPlan(faults)))


#: shape name -> (noise on?, wrapper around the SimulationEnvironment)
SHAPES = {
    "simulation": (True, lambda inner, fault: inner),
    "simulation_quiet": (False, lambda inner, fault: inner),
    "run_morsel_only": (True, lambda inner, fault: RunMorselOnlyEnv(inner)),
    "faulty": (True, _faulty),
}


class CountingRng:
    """Counts the noise blocks an environment draws."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.blocks = 0

    def lognormal(self, **kwargs):
        self.blocks += 1
        return self.rng.lognormal(**kwargs)


def _noise_position(inner) -> int:
    """How many noise values ``inner`` has consumed since construction."""
    buffer = inner._noise_buffer
    unread = 0 if buffer is None else len(buffer) - inner._noise_pos
    return inner._noise_rng.blocks * _NOISE_BLOCK - unread

cases = st.fixed_dictionaries(
    {
        "shape": st.sampled_from(sorted(SHAPES)),
        "kind": st.sampled_from(KINDS),
        "tuples": st.integers(1, 400_000),
        # Fixed morsel size as a share of the pipeline: one morsel to a
        # few hundred, whatever the rate.
        "fixed_divisor": st.integers(1, 300),
        # Log-uniform, so a task is anything from a few tuples to more
        # than the whole pipeline.
        "rate": st.floats(4.3, 8.7).map(lambda exponent: 10.0**exponent),
        "t_max": st.floats(2e-4, 8e-3),
        "c0": st.integers(1, 64),
        "n_workers": st.integers(1, 32),
        "pinned_workers": st.integers(0, 6),
        "noise_sigma": st.floats(0.01, 0.6),
        "cache_pressure": st.sampled_from((0.0, 0.03)),
        # Draws consumed before the first task: near zero, or a few
        # short of a refill so a task straddles the block boundary.
        "offset": st.one_of(
            st.integers(0, 40), st.integers(_NOISE_BLOCK - 14, _NOISE_BLOCK + 2)
        ),
        # A stall or a raise among the first morsels (for fixed-size
        # pipelines: among the first fixed morsels).
        "fault": st.one_of(
            st.none(),
            st.tuples(st.sampled_from((WORKER_STALL, OPERATOR_RAISE)), st.integers(0, 12)),
        ),
        # A startup task set that already carries an estimate (startup
        # re-entered after the estimate was lost): the final probe is
        # folded in, not assigned.
        "prior_estimate": st.one_of(st.none(), st.floats(1e3, 1e9)),
        "seed": st.integers(0, 2**16),
    }
)


def _build(case, environment_cls):
    """One fresh ``(task set, environment, inner environment)``."""
    noisy, wrap = SHAPES[case["shape"]]
    inner = environment_cls(
        RngFactory(case["seed"]),
        noise_sigma=case["noise_sigma"] if noisy else 0.0,
        cache_pressure=case["cache_pressure"],
    )
    inner._noise_rng = CountingRng(inner._noise_rng)
    inner.active_count_fn = lambda: 5
    for _ in range(case["offset"]):
        inner.next_noise()
    spec = PipelineSpec(
        name="p",
        tuples=case["tuples"],
        tuples_per_second=case["rate"],
        supports_adaptive=case["kind"] != "fixed",
        fixed_morsel_tuples=max(1, case["tuples"] // case["fixed_divisor"]),
    )
    query = QuerySpec(name="q", scale_factor=1.0, pipelines=(spec,))
    task_set = TaskSet(spec, ResourceGroup(query, 0, 0.0), 0)
    task_set.pinned_workers = case["pinned_workers"]
    task_set.throughput_estimate = case["prior_estimate"]
    return task_set, wrap(inner, case["fault"]), inner


def _config(case, **overrides):
    mode = MorselMode.STATIC if case["kind"] == "static" else MorselMode.ADAPTIVE
    return MorselExecutorConfig(mode=mode, **overrides)


def _run(run_task, task_set, env):
    """``run_task``'s outcome, or the injected fault it raised."""
    try:
        return run_task(task_set, env)
    except InjectedFault as exc:
        return str(exc)


def _task_set_state(task_set):
    return (
        task_set.state,
        task_set.throughput_estimate,
        task_set.remaining_tuples,
        task_set.carved_tuples,
    )


@settings(max_examples=300, deadline=None)
@given(case=cases, collect=st.booleans())
def test_one_loop_equals_the_per_morsel_state_machine(case, collect):
    config = _config(
        case, t_max=case["t_max"], c0=case["c0"], n_workers=case["n_workers"]
    )
    executor = MorselExecutor(config)
    executor.collect_morsels = collect
    ref_executor = reference.FixedSizeExecutor(config)
    ours_set, ours_env, ours_inner = _build(case, SimulationEnvironment)
    ref_set, ref_env, ref_inner = _build(case, reference.LookAheadEnvironment)
    for _ in range(MAX_TASKS):
        ours = _run(executor.run_task, ours_set, ours_env)
        ref = _run(ref_executor.run_task, ref_set, ref_env)
        assert _task_set_state(ours_set) == _task_set_state(ref_set)
        assert _noise_position(ours_inner) == _noise_position(ref_inner)
        if isinstance(ref, str):
            assert ours == ref
            break
        if collect:
            assert [(m.tuples, m.duration, m.phase) for m in ours.morsels] == [
                (m.tuples, m.duration, m.phase) for m in ref.morsels
            ]
        else:
            assert ours.morsels == []
        assert (ours.duration, ours.exhausted_work, ours.morsel_count) == (
            ref.duration, ref.exhausted_work, ref.morsel_count
        )
        if ref.exhausted_work:
            break
    assert [ours_inner.next_noise() for _ in range(3)] == [
        ref_inner.next_noise() for _ in range(3)
    ]
    if case["shape"] == "faulty":
        assert ours_env._injector.fired == ref_env._injector.fired
        assert ours_env._morsel_counts == ref_env._morsel_counts


class ScriptedEnv:
    """Reports the scripted durations in order, whatever is carved."""

    def __init__(self, durations) -> None:
        self.durations = list(durations)
        self.carved = []

    def run_morsel(self, task_set, tuples):
        self.carved.append(tuples)
        return self.durations[(len(self.carved) - 1) % len(self.durations)]


@settings(max_examples=200, deadline=None)
@given(
    durations=st.lists(st.floats(1e-6, 1.5e-3), min_size=1, max_size=40),
    tuples=st.integers(1, 400_000),
    c0=st.integers(1, 64),
    n_workers=st.integers(1, 8),
    kind=st.sampled_from(KINDS),
    fixed_divisor=st.integers(1, 300),
)
@example(
    # Seven shrinking probes pass 0.9 t_max with room for an eighth.
    durations=[6e-4, 4e-4, 3e-4, 2e-4, 1.5e-4, 1e-4, 6e-5, 1e-5],
    tuples=400_000,
    c0=16,
    n_workers=4,
    kind="adaptive",
    fixed_divisor=1,
)
def test_state_machine_agrees_on_measurements_unrelated_to_size(
    durations, tuples, c0, n_workers, kind, fixed_divisor
):
    # Durations that ignore the morsel size reach what a cost model
    # never does: probes that shrink while sizes double (startup running
    # past 0.9 t_max), estimates that collapse, one-tuple morsels.
    config = _config({"kind": kind}, c0=c0, n_workers=n_workers)
    executor = MorselExecutor(config)
    ref_executor = reference.FixedSizeExecutor(config)
    fixed = max(1, tuples // fixed_divisor)
    ours_set, ref_set = (
        make_task_set(
            tuples=tuples,
            supports_adaptive=kind != "fixed",
            fixed=fixed,
        )
        for _ in range(2)
    )
    ours_env, ref_env = ScriptedEnv(durations), ScriptedEnv(durations)
    for _ in range(MAX_TASKS):
        ours = executor.run_task(ours_set, ours_env)
        ref = ref_executor.run_task(ref_set, ref_env)
        assert ours.morsels == ref.morsels
        assert (ours.duration, ours.exhausted_work) == (ref.duration, ref.exhausted_work)
        assert _task_set_state(ours_set) == _task_set_state(ref_set)
        if ref.exhausted_work:
            break
    assert ours_env.carved == ref_env.carved

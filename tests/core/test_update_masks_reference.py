"""The one-pass update-mask push and the integer-walk pull equal the
per-target push and the list drain they replaced.

``tests/core/reference_stride_kernel.py`` holds the former
``_update_targets`` / ``_push_updates`` / ``_pull_updates``.  Hypothesis
drives both schedulers through the same admissions (installs), decides
(pulls), finishes (exhausts, returns, releases) and cancels, with 1–4
workers and 1–130 slots, so the masks span the 64-bit word boundary:
slots at and above 64 live in the second or third word.  After every step
the mask words, every worker's slot states, ``overhead.ops`` and the
sequence of wake calls must agree with ``==``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SchedulerConfig, StrideScheduler

from tests.conftest import make_query
from tests.core import reference_stride_kernel as reference
from tests.core.test_protocol_fuzz import _CountingEnv

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(1, 3)),  # pipelines
        st.tuples(st.just("decide"), st.integers(0, 3)),
        st.tuples(st.just("finish"), st.integers(0, 3)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
    ),
    max_size=80,
)


class Driver:
    """One scheduler, its wake log and the decisions still running."""

    def __init__(self, cls, config):
        self.scheduler = cls(config)
        self.wakes = []
        self.scheduler.attach(_CountingEnv(), wake_fn=self.wakes.append)
        self.groups = []
        self.running = {}
        self.now = 0.0
        self.outcomes = []

    def admit(self, pipelines, work):
        query = make_query(f"q{len(self.groups)}", work=work, pipelines=pipelines)
        self.groups.append(self.scheduler.admit_query(query, self.now))

    def step(self, op):
        scheduler = self.scheduler
        kind, arg = op
        if kind == "admit":
            self.admit(arg, 0.0005 * arg)
            return
        if kind == "cancel":
            if self.groups:
                group = self.groups[arg % len(self.groups)]
                self.outcomes.append(scheduler.cancel_group(group, self.now))
            return
        worker_id = arg % scheduler.n_workers
        if kind == "decide" and worker_id not in self.running:
            decision = scheduler.worker_decide(worker_id, self.now)
            if decision is not None:
                self.now += decision.duration
                if decision.kind == "task":
                    self.running[worker_id] = decision
                decision = (decision.kind, decision.slot, decision.duration)
            self.outcomes.append(decision)
        elif kind == "finish" and worker_id in self.running:
            decision = self.running.pop(worker_id)
            self.outcomes.append(scheduler.worker_finish(worker_id, self.now, decision))

    def state(self):
        scheduler = self.scheduler
        return (
            [(local.change_mask._words, local.return_mask._words) for local in scheduler.workers],
            [
                (
                    local.active_mask,
                    local.global_pass,
                    {
                        slot: (state.group_id, state.pass_value, state.decay.priority)
                        for slot, state in local.slot_states.items()
                    },
                )
                for local in scheduler.workers
            ],
            dict(scheduler.overhead.ops),
            self.wakes,
            self.outcomes,
            scheduler.slots.occupied,
            len(scheduler.wait_queue),
        )


@given(
    n_workers=st.integers(1, 4),
    capacity=st.integers(1, 130),
    prefill=st.one_of(st.just(0), st.integers(0, 130)),
    restrict=st.booleans(),
    ops=ops_st,
)
@example(  # three parked workers, woken in target order by one install
    n_workers=3,
    capacity=4,
    prefill=0,
    restrict=True,
    ops=[("decide", 0), ("decide", 1), ("decide", 2), ("admit", 2), ("admit", 1)],
)
@settings(max_examples=150, deadline=None)
def test_push_and_pull_equal_the_per_target_reference(
    n_workers, capacity, prefill, restrict, ops
):
    config = SchedulerConfig(
        n_workers=n_workers, slot_capacity=capacity, restrict_fanout=restrict
    )
    new = Driver(StrideScheduler, config)
    old = Driver(reference.PerTargetUpdateScheduler, config)
    # Queries occupying the low slots, so installs, returns and
    # releases also reach the words above slot 63.
    for driver in (new, old):
        for _ in range(min(prefill, capacity)):
            driver.admit(2, 0.001)
    assert new.state() == old.state()
    for op in ops:
        new.step(op)
        old.step(op)
        assert new.state() == old.state()


def test_the_comparison_reaches_the_second_mask_word():
    config = SchedulerConfig(n_workers=2, slot_capacity=130)
    new = Driver(StrideScheduler, config)
    old = Driver(reference.PerTargetUpdateScheduler, config)
    for driver in (new, old):
        for op in (("decide", 0), ("decide", 1)):
            driver.step(op)
        for _ in range(70):
            driver.admit(2, 0.0005)
    # Both workers were parked: the first install wakes them in order.
    assert new.wakes[:2] == old.wakes[:2] == [0, 1]
    assert [local.change_mask._words[1] for local in new.scheduler.workers] == [
        (1 << 6) - 1
    ] * 2
    for driver in (new, old):
        driver.step(("decide", 0))
    assert sorted(new.scheduler.workers[0].slot_states) == list(range(70))
    for driver in (new, old):
        for _ in range(40):
            for op in (("decide", 0), ("decide", 1), ("finish", 0), ("finish", 1)):
                driver.step(op)
    assert new.state() == old.state()
    assert new.scheduler.overhead.ops["local_work"] > 140

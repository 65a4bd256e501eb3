"""White-box tests of the stride scheduler's update-mask machinery.

These drive ``worker_decide`` / ``worker_finish`` by hand (no simulator)
to pin down the §2.3 corner cases: the three task-set events, lazy
repair after missed notifications, and the restricted fan-out paths.
"""

from __future__ import annotations

import pytest

from repro.core import SchedulerConfig, StrideScheduler
from repro.core.decay import DEFAULT_P0

from tests.conftest import make_query


class _Env:
    def __init__(self, rate=1e6):
        self.rate = rate

    def run_morsel(self, task_set, tuples):
        return tuples / self.rate


def make_sched(n_workers=2, slot_capacity=8, **kwargs):
    scheduler = StrideScheduler(
        SchedulerConfig(n_workers=n_workers, slot_capacity=slot_capacity, **kwargs)
    )
    scheduler.attach(_Env(), wake_fn=lambda w: None)
    return scheduler


def drive_to_completion(scheduler, max_steps=200_000):
    """Round-robin decide+finish until everything admitted completes."""
    now = 0.0
    steps = 0
    while not scheduler.all_admitted_complete():
        for worker_id in range(scheduler.n_workers):
            decision = scheduler.worker_decide(worker_id, now)
            if decision is None:
                scheduler.mark_busy(worker_id)
                continue
            now += decision.duration
            if decision.kind == "task":
                now += scheduler.worker_finish(worker_id, now, decision)
        steps += 1
        assert steps < max_steps, "did not drain"
    return now


class TestUpdateEvents:
    def test_event2_change_mask_initializes_slot(self):
        """Event (2): a new resource group sets priority p0 and anchors
        the pass at the worker's global pass."""
        scheduler = make_sched()
        group = scheduler.make_group(make_query("q"), 0.0)
        scheduler.admit(group, 0.0)
        local = scheduler.workers[0]
        assert local.change_mask.any_set()
        scheduler.worker_decide(0, 0.0)  # pulls the mask
        state = local.slot_states[0]
        assert state.group_id == group.query_id
        assert state.priority == DEFAULT_P0
        assert local.is_active(0)

    def test_event3_return_mask_keeps_priority(self):
        """Event (3): the next task set of a known group reuses the
        (decayed) priority and only re-anchors the pass."""
        scheduler = make_sched(n_workers=1)
        group = scheduler.make_group(make_query("q", work=0.01, pipelines=2), 0.0)
        scheduler.admit(group, 0.0)
        local = scheduler.workers[0]
        now = 0.0
        # Execute until the first pipeline finalizes (return event fires).
        while group._next_pipeline < 2:
            decision = scheduler.worker_decide(0, now)
            assert decision is not None
            now += decision.duration
            if decision.kind == "task":
                now += scheduler.worker_finish(0, now, decision)
        priority_before = local.slot_states[0].priority
        assert local.return_mask.any_set()
        scheduler.worker_decide(0, now)  # pulls event (3)
        assert local.slot_states[0].priority == priority_before

    def test_event1_lazy_invalidation(self):
        """Event (1): no notification when a task set finishes — the
        worker discovers the tagged pointer on its next pick."""
        scheduler = make_sched(n_workers=2)
        group = scheduler.make_group(make_query("q", work=0.002, pipelines=1), 0.0)
        scheduler.admit(group, 0.0)
        # Worker 0 pulls the change and runs the whole (tiny) query.
        now = 0.0
        while not scheduler.all_admitted_complete():
            decision = scheduler.worker_decide(0, now)
            if decision is None:
                break
            now += decision.duration
            if decision.kind == "task":
                now += scheduler.worker_finish(0, now, decision)
        # Worker 1 pulled the change mask earlier? No — it never ran.
        # Its change mask still holds the bit; after draining it the
        # slot is already vacated, so the pull must cope with that.
        decision = scheduler.worker_decide(1, now)
        assert decision is None  # nothing to do, no crash
        assert not scheduler.workers[1].is_active(0)


class TestMissedNotificationRepair:
    def test_worker_outside_fanout_repairs_lazily(self):
        """A worker that never received the change event can still pick
        the slot (stale active bit) and must rebuild its local state from
        the owning resource group."""
        scheduler = make_sched(n_workers=2)
        first = scheduler.make_group(make_query("a", work=0.004, pipelines=1), 0.0)
        scheduler.admit(first, 0.0)
        local1 = scheduler.workers[1]
        # Worker 1 learns about group a (runs one task and detaches).
        warmup = scheduler.worker_decide(1, 0.0)
        assert warmup is not None
        scheduler.worker_finish(1, warmup.duration, warmup)
        # Worker 0 drains query a; then a new group b is installed into
        # the same slot.  We clear worker 1's masks to force the
        # missed-notification path (restricted fan-out).
        now = drive_to_completion_single(scheduler, worker_id=0)
        assert scheduler.all_admitted_complete()
        second = scheduler.make_group(make_query("b", work=0.004, pipelines=1), now)
        scheduler.admit(second, now)
        local1.change_mask.drain()
        local1.return_mask.drain()
        # Worker 1's activity bit for slot 0 is stale (group a), but the
        # pointer is valid (group b): lazy repair must rebuild the state.
        decision = scheduler.worker_decide(1, now)
        assert decision is not None
        assert local1.slot_states[0].group_id == second.query_id

    def test_fanout_targets_deterministic(self):
        scheduler = make_sched(n_workers=4, slot_capacity=4)
        for i in range(3):
            group = scheduler.make_group(make_query(f"q{i}", work=1.0), 0.0)
            scheduler.admit(group, 0.0)
        # 3 of 4 slots occupied -> restricted fan-out, ceil(4 * 1/2) = 2.
        targets = scheduler._update_targets(0)
        assert len(targets) == 2
        assert targets == scheduler._update_targets(0)


def drive_to_completion_single(scheduler, worker_id, max_steps=100_000):
    now = 0.0
    steps = 0
    while not scheduler.all_admitted_complete():
        decision = scheduler.worker_decide(worker_id, now)
        if decision is None:
            break
        now += decision.duration
        if decision.kind == "task":
            now += scheduler.worker_finish(worker_id, now, decision)
        steps += 1
        assert steps < max_steps
    return now


class TestPassAccounting:
    def test_pass_advances_proportionally_to_duration(self):
        scheduler = make_sched(n_workers=1, t_max=0.002)
        group = scheduler.make_group(make_query("q", work=1.0, pipelines=1), 0.0)
        scheduler.admit(group, 0.0)
        local = scheduler.workers[0]
        decision = scheduler.worker_decide(0, 0.0)
        scheduler.worker_finish(0, decision.duration, decision)
        state = local.slot_states[0]
        fraction = decision.duration / 0.002
        assert state.pass_value == pytest.approx(fraction * state.stride, rel=1e-6)

    def test_decay_quantum_tied_to_t_max(self):
        scheduler = make_sched(n_workers=1, t_max=0.001)
        group = scheduler.make_group(make_query("q", work=1.0, pipelines=1), 0.0)
        scheduler.admit(group, 0.0)
        local = scheduler.workers[0]
        now = 0.0
        for _ in range(20):
            decision = scheduler.worker_decide(0, now)
            now += decision.duration
            now += scheduler.worker_finish(0, now, decision)
        # ~20ms executed at 1ms quantum with d_start=7 default: decay ran.
        assert local.slot_states[0].priority < DEFAULT_P0


class TestSlotRecycling:
    def test_completed_groups_free_their_slots(self):
        scheduler = make_sched(n_workers=2, slot_capacity=2)
        for i in range(5):
            group = scheduler.make_group(make_query(f"q{i}", work=0.002), 0.0)
            scheduler.admit(group, 0.0)
        assert scheduler.slots.occupied == 2
        assert len(scheduler.wait_queue) == 3
        drive_to_completion(scheduler)
        assert scheduler.slots.occupied == 0
        assert scheduler.completed_count == 5


class TestFinalizationRace:
    def test_late_tagger_does_not_finalize_a_republished_slot_twice(self):
        """The §2.3 "finalized twice" ABA, interleaved without threads.

        Worker 0 drains the first task set and is "preempted" between
        the ``finalization_started`` check and the tag; meanwhile worker
        1 notices the same exhaustion, finalizes T1 and publishes T2
        into the slot.  Worker 0's tag must then fail — tagging whatever
        the slot holds would invalidate T2 and finalize T1 again.
        """
        scheduler = make_sched(n_workers=2)
        group = scheduler.make_group(make_query("q", work=0.004, pipelines=2), 0.0)
        scheduler.admit(group, 0.0)
        first = group.active_task_set
        tag_invalid = scheduler._slots.tag_invalid
        calls = []

        def preempted_tag(slot, *expected):
            calls.append(expected)
            if len(calls) == 1:
                # The competing worker's whole finalization runs here.
                assert scheduler.worker_decide(1, now) is None
                assert first.finalized
                assert scheduler._slots.read(slot) == (group.active_task_set, True)
            return tag_invalid(slot, *expected)

        scheduler._slots.tag_invalid = preempted_tag
        now = 0.0
        while not first.finalized:
            decision = scheduler.worker_decide(0, now)
            now += decision.duration
            now += scheduler.worker_finish(0, now, decision)
        assert len(calls) == 2  # worker 0's tag, and worker 1's inside it
        second = group.active_task_set
        assert second is not first
        assert scheduler._slots.read(0) == (second, True)
        assert not second.finalization_started
        drive_to_completion(scheduler)
        assert scheduler.completed_count == 1

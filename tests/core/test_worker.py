"""Tests for thread-local worker scheduling state."""

import pytest

from repro.core.decay import DecayParameters
from repro.core.worker import STRIDE_SCALE, WorkerLocalState


def make_worker(n_slots=8):
    return WorkerLocalState(worker_id=0, n_slots=n_slots)


class TestActivityMask:
    def test_activate_deactivate(self):
        worker = make_worker()
        worker.activate(3)
        assert worker.is_active(3)
        assert list(worker.active_slots()) == [3]
        worker.deactivate(3)
        assert not worker.has_active_slots

    def test_multiple_slots_ascending(self):
        worker = make_worker()
        for slot in (5, 1, 3):
            worker.activate(slot)
        assert list(worker.active_slots()) == [1, 3, 5]


class TestSlotState:
    def test_init_slot_anchors_pass_at_global(self):
        worker = make_worker()
        worker.global_pass = 4.2
        state = worker.init_slot(2, group_id=9, params=DecayParameters())
        assert state.pass_value == 4.2
        assert worker.is_active(2)

    def test_return_slot_reanchors_stale_pass(self):
        """Event (3): a returning task set must not get a catch-up burst."""
        worker = make_worker()
        worker.init_slot(1, group_id=0, params=DecayParameters())
        worker.deactivate(1)
        worker.global_pass = 10.0
        worker.return_slot(1)
        assert worker.slot_states[1].pass_value == 10.0
        assert worker.is_active(1)

    def test_return_slot_keeps_larger_pass(self):
        worker = make_worker()
        worker.global_pass = 20.0
        worker.init_slot(1, group_id=0, params=DecayParameters())
        worker.global_pass = 10.0
        worker.return_slot(1)
        assert worker.slot_states[1].pass_value == 20.0

    def test_forget_slot(self):
        worker = make_worker()
        worker.init_slot(1, group_id=0, params=DecayParameters())
        worker.forget_slot(1)
        assert 1 not in worker.slot_states
        assert not worker.is_active(1)

    def test_stride_reflects_priority(self):
        worker = make_worker()
        state = worker.init_slot(0, group_id=0, params=DecayParameters())
        assert state.stride == pytest.approx(STRIDE_SCALE / state.priority)


class TestStrideAccounting:
    def test_min_pass_slot(self):
        worker = make_worker()
        a = worker.init_slot(0, group_id=0, params=DecayParameters())
        b = worker.init_slot(1, group_id=1, params=DecayParameters())
        # A fresh query has stride 1, so fraction f advances its pass by f.
        worker.advance(0, a, 5.0, a.priority)
        worker.advance(1, b, 3.0, b.priority)
        assert (a.pass_value, b.pass_value) == (5.0, 3.0)
        assert worker.min_pass_slot() == 1

    def test_min_pass_none_when_idle(self):
        assert make_worker().min_pass_slot() is None

    def test_min_pass_tie_breaks_low_slot(self):
        worker = make_worker()
        worker.init_slot(2, group_id=0, params=DecayParameters())
        worker.init_slot(5, group_id=1, params=DecayParameters())
        assert worker.min_pass_slot() == 2

    def test_missing_state_repair_priority(self):
        """An active bit without state is returned for lazy repair."""
        worker = make_worker()
        worker.activate(4)
        assert worker.min_pass_slot() == 4

    def test_account_execution_advances_passes(self):
        worker = make_worker()
        state = worker.init_slot(0, group_id=0, params=DecayParameters())
        worker.advance(0, state, 1.0, state.priority)
        assert state.pass_value == pytest.approx(state.stride)
        # Single active slot: the global stride equals the slot stride.
        assert worker.global_pass == pytest.approx(state.stride)

    def test_account_execution_fractional(self):
        """§2.1: f may exceed one for overlong tasks."""
        worker = make_worker()
        state = worker.init_slot(0, group_id=0, params=DecayParameters())
        worker.advance(0, state, 2.5, state.priority)
        assert state.pass_value == pytest.approx(2.5 * state.stride)

    def test_global_stride_uses_priority_sum(self):
        worker = make_worker()
        state = worker.init_slot(0, group_id=0, params=DecayParameters())
        worker.init_slot(1, group_id=1, params=DecayParameters())
        worker.advance(0, state, 1.0, state.priority)
        total = worker.total_active_priority()
        assert worker.global_pass == pytest.approx(STRIDE_SCALE / total)


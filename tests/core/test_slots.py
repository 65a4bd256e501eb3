"""Tests for the global slot array."""

import pytest

from repro.core.resource_group import ResourceGroup
from repro.core.slots import GlobalSlotArray
from repro.errors import SlotError

from tests.conftest import make_query


def group_with_task_set(query_id=0):
    query = make_query("q", pipelines=1)
    group = ResourceGroup(query, query_id=query_id, arrival_time=0.0)
    ts = group.activate_next_task_set()
    return group, ts


class TestSlotLifecycle:
    def test_acquire_release(self):
        slots = GlobalSlotArray(4)
        group, _ = group_with_task_set()
        slot = slots.acquire(group)
        assert slots.occupied == 1
        assert slots.owner(slot) is group
        slots.release(slot)
        assert slots.occupied == 0
        assert slots.owner(slot) is None

    def test_acquire_when_full_raises(self):
        slots = GlobalSlotArray(1)
        group, _ = group_with_task_set()
        slots.acquire(group)
        assert not slots.has_free_slot()
        with pytest.raises(SlotError):
            slots.acquire(group)

    def test_double_release_rejected(self):
        slots = GlobalSlotArray(2)
        group, _ = group_with_task_set()
        slot = slots.acquire(group)
        slots.release(slot)
        with pytest.raises(SlotError):
            slots.release(slot)

    def test_slot_reuse(self):
        slots = GlobalSlotArray(1)
        group_a, _ = group_with_task_set(0)
        group_b, _ = group_with_task_set(1)
        slot_a = slots.acquire(group_a)
        slots.release(slot_a)
        slot_b = slots.acquire(group_b)
        assert slot_a == slot_b
        assert slots.owner(slot_b) is group_b

    def test_capacity_validation(self):
        with pytest.raises(SlotError):
            GlobalSlotArray(0)


class TestTaskSetPointers:
    def test_store_and_read(self):
        slots = GlobalSlotArray(2)
        group, ts = group_with_task_set()
        slot = slots.acquire(group)
        slots.store_task_set(slot, ts)
        read_ts, valid = slots.read(slot)
        assert read_ts is ts
        assert valid

    def test_store_wrong_owner_rejected(self):
        slots = GlobalSlotArray(2)
        group_a, _ = group_with_task_set(0)
        _, ts_b = group_with_task_set(1)
        slot = slots.acquire(group_a)
        with pytest.raises(SlotError):
            slots.store_task_set(slot, ts_b)

    def test_tag_invalid_elects_one_coordinator(self):
        slots = GlobalSlotArray(2)
        group, ts = group_with_task_set()
        slot = slots.acquire(group)
        slots.store_task_set(slot, ts)
        assert slots.tag_invalid(slot, ts)
        assert not slots.tag_invalid(slot, ts)
        read_ts, valid = slots.read(slot)
        assert read_ts is ts  # optimistic readers still see the pointer
        assert not valid

    def test_release_clears_pointer(self):
        slots = GlobalSlotArray(2)
        group, ts = group_with_task_set()
        slot = slots.acquire(group)
        slots.store_task_set(slot, ts)
        slots.release(slot)
        read_ts, valid = slots.read(slot)
        assert read_ts is None
        assert not valid

    def test_store_count(self):
        slots = GlobalSlotArray(2)
        group, ts = group_with_task_set()
        slot = slots.acquire(group)
        slots.store_task_set(slot, ts)
        assert slots.store_count == 1

    def test_bounds_check(self):
        slots = GlobalSlotArray(2)
        with pytest.raises(SlotError):
            slots.read(2)

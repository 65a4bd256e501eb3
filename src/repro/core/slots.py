"""The global slot array (§2.3, "Thread-Local Decisions").

The scheduler maintains a bounded global array of slots.  Each slot is
bound to one active resource group and stores a tagged pointer to that
group's currently active task set.  When a task set finishes and the next
one becomes active it is put into the *same* slot, so priorities — which
are tied to resource groups — stay attached to a stable slot index.

Exhausted task sets are invalidated by *tagging* the pointer rather than
clearing it, so workers discover the change lazily the next time they pick
the slot.
"""

from __future__ import annotations

from typing import List, Optional

from repro.atomics import TaggedPointer
from repro.core.resource_group import ResourceGroup
from repro.core.task import TaskSet
from repro.errors import SlotError


class GlobalSlotArray:
    """Bounded array of tagged task-set pointers plus slot ownership."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise SlotError("slot array needs positive capacity")
        self._capacity = capacity
        self._pointers: List[TaggedPointer] = [TaggedPointer() for _ in range(capacity)]
        self._owners: List[Optional[ResourceGroup]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: Writes to the slot array, for overhead accounting.
        self.store_count = 0

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously active resource groups."""
        return self._capacity

    @property
    def occupied(self) -> int:
        """Number of slots currently bound to a resource group."""
        return self._capacity - len(self._free)

    def has_free_slot(self) -> bool:
        """Whether a new resource group can be admitted right now."""
        return bool(self._free)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def acquire(self, group: ResourceGroup) -> int:
        """Bind a resource group to a free slot; return the slot index."""
        if not self._free:
            raise SlotError("no free slot; the caller must use the wait queue")
        slot = self._free.pop()
        self._owners[slot] = group
        return slot

    def release(self, slot: int) -> None:
        """Unbind a finished resource group and recycle its slot."""
        self._check(slot)
        if self._owners[slot] is None:
            raise SlotError(f"slot {slot} released twice")
        self._owners[slot] = None
        self._pointers[slot].clear()
        self._free.append(slot)

    def owner(self, slot: int) -> Optional[ResourceGroup]:
        """The resource group bound to ``slot`` (``None`` if free)."""
        self._check(slot)
        return self._owners[slot]

    # ------------------------------------------------------------------
    # Task-set pointer operations
    # ------------------------------------------------------------------
    def store_task_set(self, slot: int, task_set: TaskSet) -> None:
        """Publish a new active task set into ``slot``."""
        self._check(slot)
        if self._owners[slot] is not task_set.resource_group:
            raise SlotError(
                f"slot {slot} is not owned by the task set's resource group"
            )
        self._pointers[slot].store(task_set)
        self.store_count += 1

    def read(self, slot: int) -> "tuple[Optional[TaskSet], bool]":
        """Atomic read: ``(task_set, valid)`` for the slot pointer."""
        self._check(slot)
        payload, valid = self._pointers[slot].load()
        return payload, valid

    def tag_invalid(self, slot: int, task_set: TaskSet) -> bool:
        """Tag the slot's pointer to ``task_set`` as invalid.

        Returns ``True`` only for the single caller that performed the
        transition — that worker becomes the finalization coordinator —
        and ``False`` when the slot no longer points at ``task_set``.
        """
        self._check(slot)
        return self._pointers[slot].tag_invalid(task_set)

    def _check(self, slot: int) -> None:
        if not 0 <= slot < self._capacity:
            raise SlotError(f"slot {slot} out of range [0, {self._capacity})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GlobalSlotArray(occupied={self.occupied}/{self._capacity})"

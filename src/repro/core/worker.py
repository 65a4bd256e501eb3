"""Thread-local scheduling state (§2.3, Figure 3).

Apart from the global slot array, *all* scheduling metadata lives inside
each worker:

* a bitmask tracking which global slots the worker believes are active;
* a mapping from slots to pass values and (decaying) priorities, with a
  lazily repaired min-pass heap and a cached active-priority sum;
* the worker's own copy of the global pass;
* two shared atomic *update masks* — the change mask (a new resource
  group's first task set landed in a slot) and the return mask (a further
  task set of a known resource group landed in its slot) — which other
  threads write into and the owner drains before every decision.

Because priorities are tied to resource groups, the per-slot state also
remembers *which* resource group it belongs to.  When a slot is recycled
for a new group and this worker happened to miss the change notification
(the high-load fan-out restriction makes that legal), the mismatch is
detected on the next read of the slot pointer and the state is rebuilt —
the same lazy repair the paper uses for finished task sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import Dict, Iterator, Optional

from repro.atomics import AtomicBitmask, iter_set_bits
from repro.core.decay import DecayParameters, PriorityDecay

#: Scale applied to strides so a fresh query (p = p0 = 10^4) has stride 1.
STRIDE_SCALE = 10_000.0

#: Pass of the heap entry for an active bit without slot state: such a
#: slot is picked before any other, so the inconsistency is repaired.
_UNKNOWN = float("-inf")


@dataclass(slots=True)
class SlotState:
    """Per-(worker, slot) scheduling state: pass value + priority decay."""

    group_id: int
    pass_value: float
    decay: PriorityDecay

    @property
    def priority(self) -> float:
        """Current (possibly decayed) priority of the slot's group."""
        return self.decay.priority

    @property
    def stride(self) -> float:
        """Stride S = scale / priority (§2.1)."""
        return STRIDE_SCALE / self.decay.priority


class WorkerLocalState:
    """All scheduling state owned by one worker thread."""

    __slots__ = (
        "worker_id",
        "n_slots",
        "active_mask",
        "change_mask",
        "return_mask",
        "slot_states",
        "global_pass",
        "idle",
        "pass_heap",
        "_entry_seq",
        "_heap_limit",
        "_total",
        "_total_stamp",
        "decay_epoch",
    )

    def __init__(self, worker_id: int, n_slots: int) -> None:
        self.worker_id = worker_id
        self.n_slots = n_slots
        #: Local activity bitmask — not shared, plain int is faithful.
        self.active_mask = 0
        #: Shared update masks, written by other workers via fetch-or.
        self.change_mask = AtomicBitmask(n_slots)
        self.return_mask = AtomicBitmask(n_slots)
        #: Per-slot pass values and priorities (thread-local).
        self.slot_states: Dict[int, SlotState] = {}
        #: The worker's own global pass (§2.1, dynamic task arrival).
        self.global_pass = 0.0
        #: Whether the worker is parked waiting for work.
        self.idle = False
        #: Min-heap of ``(pass, slot, seq, state)``, one entry per pass
        #: write.  An entry is live while its slot is active, still holds
        #: ``state`` and that state's pass is unchanged; the pick discards
        #: dead entries as they surface.
        self.pass_heap: list = []
        self._entry_seq = count()
        self._heap_limit = 16
        #: Active-priority sum, valid while ``_total_stamp == decay_epoch``.
        self._total = 0.0
        self._total_stamp = -1
        #: Bumped by every decay-parameter broadcast, possibly from another
        #: thread, *after* it re-priced this worker's slot states.
        self.decay_epoch = 0

    # ------------------------------------------------------------------
    # Activity mask
    # ------------------------------------------------------------------
    def activate(self, slot: int) -> None:
        """Mark a slot as active in the local mask and offer it to the pick."""
        self.active_mask |= 1 << slot
        self._total_stamp = -1
        heappush(self.pass_heap, self._entry(slot))
        if len(self.pass_heap) > self._heap_limit:
            self._rebuild_heap()

    def deactivate(self, slot: int) -> None:
        """Mark a slot as inactive in the local mask."""
        self.active_mask &= ~(1 << slot)
        self._total_stamp = -1

    def is_active(self, slot: int) -> bool:
        """Whether the local mask currently considers the slot active."""
        return bool(self.active_mask & (1 << slot))

    def active_slots(self) -> Iterator[int]:
        """Iterate active slot indices in ascending order."""
        return iter_set_bits(self.active_mask)

    @property
    def has_active_slots(self) -> bool:
        """Cheap emptiness check on the activity mask."""
        return self.active_mask != 0

    # ------------------------------------------------------------------
    # Slot state management
    # ------------------------------------------------------------------
    def init_slot(
        self,
        slot: int,
        group_id: int,
        params: DecayParameters,
        user_scale: float = 1.0,
        static_priority: Optional[float] = None,
    ) -> SlotState:
        """Event (2): a new resource group appeared in ``slot``.

        The initial pass is the worker's global pass — the scheduler's
        "timestamp" that says the newcomer is owed exactly the resources
        accrued from now on (§2.1).
        """
        state = SlotState(
            group_id=group_id,
            pass_value=self.global_pass,
            decay=PriorityDecay(params, user_scale, static_priority),
        )
        self.slot_states[slot] = state
        self.activate(slot)
        return state

    def return_slot(self, slot: int) -> None:
        """Event (3): a further task set of a known group landed in ``slot``.

        The priority is retained (it belongs to the resource group); only
        the pass value is re-anchored at the global pass so a group whose
        previous task set finished long ago does not receive a huge
        catch-up burst.
        """
        state = self.slot_states.get(slot)
        if state is not None:
            state.pass_value = max(state.pass_value, self.global_pass)
        self.activate(slot)

    def forget_slot(self, slot: int) -> None:
        """Drop local state after discovering the slot was vacated."""
        self.deactivate(slot)
        self.slot_states.pop(slot, None)

    # ------------------------------------------------------------------
    # Stride accounting
    # ------------------------------------------------------------------
    def _entry(self, slot: int) -> tuple:
        """A live heap entry for ``slot``'s current state."""
        state = self.slot_states.get(slot)
        pass_value = _UNKNOWN if state is None else state.pass_value
        return (pass_value, slot, next(self._entry_seq), state)

    def _rebuild_heap(self) -> None:
        """Drop every dead entry once they outnumber the live ones."""
        live = [self._entry(slot) for slot in iter_set_bits(self.active_mask)]
        heapify(live)
        self.pass_heap = live
        self._heap_limit = 4 * len(live) + 16

    def min_pass_slot(self) -> Optional[int]:
        """The active slot with minimal pass, the lowest slot on ties.

        An active bit without state comes first.  Dead heap entries are
        popped as they surface: O(log n) amortised instead of a scan.
        """
        heap = self.pass_heap
        mask = self.active_mask
        states_get = self.slot_states.get
        while heap:
            pass_value, slot, _seq, state = heap[0]
            if (mask >> slot) & 1 and states_get(slot) is state and (
                state is None or state.pass_value == pass_value
            ):
                return slot
            heappop(heap)
        return None

    def advance(
        self, slot: int, state: SlotState, fraction: float, priority: float, repriced: bool = False
    ) -> None:
        """Advance ``slot``'s pass and the global pass after a task.

        ``fraction`` is f = task duration / time slice; it may exceed one
        for overlong tasks (§2.1, non-preemptive extension).  ``priority``
        is the slot's priority after the task; ``repriced`` says it
        differs from the one the cached active-priority sum saw.
        """
        pass_value = state.pass_value + fraction * (STRIDE_SCALE / priority)
        state.pass_value = pass_value
        heap = self.pass_heap
        entry = (pass_value, slot, next(self._entry_seq), state)
        if heap and heap[0][3] is state:
            # The entry this write supersedes is the top (the slot was
            # just picked): replace it instead of leaving it to the pick.
            heapreplace(heap, entry)
        else:
            heappush(heap, entry)
            if len(heap) > self._heap_limit:
                self._rebuild_heap()
        if repriced:
            self._total_stamp = -1
        if self._total_stamp == self.decay_epoch:
            total = self._total
        else:
            total = self.total_active_priority()
        if total > 0.0:
            self.global_pass += fraction * STRIDE_SCALE / total

    def account_execution(self, slot: int, fraction: float) -> None:
        """:meth:`advance` at the slot's current priority (no-op if unknown)."""
        state = self.slot_states.get(slot)
        if state is not None:
            self.advance(slot, state, fraction, state.decay.priority)

    def total_active_priority(self) -> float:
        """Sum of priorities over locally active slots (global stride).

        Cached until the mask, a slot's priority or the decay parameters
        change.  The epoch is read *before* summing, so a broadcast that
        lands mid-sum leaves a stale stamp and the next call re-sums.
        """
        epoch = self.decay_epoch
        if self._total_stamp == epoch:
            return self._total
        mask = self.active_mask
        total = 0.0
        for slot_index, state in self.slot_states.items():
            if (mask >> slot_index) & 1:
                total += state.decay.priority
        self._total = total
        self._total_stamp = epoch
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerLocalState(id={self.worker_id}, "
            f"active={list(self.active_slots())}, gp={self.global_pass:.3f})"
        )

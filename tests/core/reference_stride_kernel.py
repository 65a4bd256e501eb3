"""The per-task scans the stride kernel replaced — kept as the reference
``tests/core/test_stride_kernel_reference.py`` compares against.

* :meth:`ScanningWorkerState.min_pass_slot` is the former scan behind
  ``StrideScheduler._pick_slot`` (and its inlined copy in
  ``worker_decide``): walk every bit of ``active_mask`` in ascending
  order, keep the first strict minimum, return a stateless bit at once.
* :meth:`ScanningWorkerState.total_active_priority` is the former loop
  ``worker_finish`` ran on every task, and :meth:`ScanningWorkerState.
  advance` is the former pass / global-pass arithmetic around it.
* :func:`run_event_loop` is the former ``Simulator.run``, in which every
  READY, even one nothing precedes, goes through the event heap.
* :func:`inlined_charge` is the former copy of ``PriorityDecay.charge``
  that ``StrideScheduler.worker_finish`` ran in place of the call
  (``tests/core/test_decay_reference.py``); the kernel comparison cannot
  see it, because :class:`ScanningStrideScheduler` inherits
  ``worker_finish``.

:class:`ScanningStrideScheduler` swaps the scanning state into an
otherwise unchanged :class:`~repro.core.stride.StrideScheduler`, so the
two kernels differ only in these data structures.  Slow by design.
"""

from heapq import heapify, heappop, heappush
from itertools import count
import math
from typing import Optional

from repro.core.stride import StrideScheduler
from repro.core.worker import STRIDE_SCALE, WorkerLocalState
from repro.errors import SimulationError
from repro.metrics.latency import LatencyCollector
from repro.simcore.simulator import (
    _EV_ARRIVAL,
    _EV_DONE,
    _EV_READY,
    SimulationResult,
)


class ScanningWorkerState(WorkerLocalState):
    """Worker state that scans instead of keeping a heap and a cached sum."""

    __slots__ = ()

    def min_pass_slot(self) -> Optional[int]:
        mask = self.active_mask
        best_slot: Optional[int] = None
        best_pass = float("inf")
        states = self.slot_states
        while mask:
            low = mask & -mask
            slot = low.bit_length() - 1
            state = states.get(slot)
            if state is None:
                # Activity bit without state: treat as highest urgency so
                # the inconsistency is repaired on the next pick.
                return slot
            pass_value = state.pass_value
            if pass_value < best_pass:
                best_pass = pass_value
                best_slot = slot
            mask ^= low
        return best_slot

    def total_active_priority(self) -> float:
        mask = self.active_mask
        total = 0.0
        for slot_index, state in self.slot_states.items():
            if (mask >> slot_index) & 1:
                total += state.decay.priority
        return total

    def advance(self, slot, state, fraction, priority, repriced=False) -> None:
        state.pass_value += fraction * (STRIDE_SCALE / priority)
        total_priority = self.total_active_priority()
        if total_priority > 0.0:
            self.global_pass += fraction * STRIDE_SCALE / total_priority


class ScanningStrideScheduler(StrideScheduler):
    """The stride scheduler on :class:`ScanningWorkerState` workers."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self._locals = [
            ScanningWorkerState(worker_id, config.slot_capacity)
            for worker_id in range(config.n_workers)
        ]
        self._change_words = [local.change_mask._words for local in self._locals]
        self._return_words = [local.return_mask._words for local in self._locals]


def run_event_loop(self) -> SimulationResult:
    """The former ``Simulator.run``; ``self`` is a fresh Simulator."""
    heap = self._heap
    heap.clear()
    self._seq = seq = count()
    for arrival_time, query in self.workload:
        heap.append((float(arrival_time), next(seq), _EV_ARRIVAL, -1, query))
    pending = self._pending_worker_event
    # Kick every worker once at time zero.
    for worker_id in range(self.scheduler.n_workers):
        pending[worker_id] = True
        heap.append((0.0, next(seq), _EV_READY, worker_id, None))
    heapify(heap)

    scheduler = self.scheduler
    clock = self.clock
    max_time = self.max_time
    time_limit = math.inf if max_time is None else max_time
    decide = scheduler.worker_decide
    finish = scheduler.worker_finish
    make_group = scheduler.make_group
    admit = scheduler.admit
    busy = self._busy_seconds
    inf = math.inf
    ev_ready = _EV_READY
    ev_done = _EV_DONE
    end_time = 0.0
    truncated = 0
    while heap:
        time, _tie, kind, worker_id, payload = heappop(heap)
        if time > time_limit:
            end_time = max_time
            truncated = 1
            break
        if time < clock._now:
            raise SimulationError(
                f"clock moving backwards: {time:.9f} < {clock._now:.9f}"
            )
        clock._now = time
        if kind == ev_ready:
            pending[worker_id] = False
            decision = decide(worker_id, time)
            if decision is None:
                continue  # parked; the scheduler will wake it
            duration = decision.duration
            if not 0.0 <= duration < inf:
                raise SimulationError(
                    f"worker {worker_id}: invalid task duration {duration}"
                )
            busy[worker_id] += duration
            pending[worker_id] = True
            heappush(
                heap, (time + duration, next(seq), ev_done, worker_id, decision)
            )
        elif kind == ev_done:
            extra = finish(worker_id, time, payload)
            if not 0.0 <= extra < inf:
                raise SimulationError(
                    f"worker {worker_id}: invalid extra time {extra}"
                )
            busy[worker_id] += extra
            heappush(heap, (time + extra, next(seq), ev_ready, worker_id, None))
        else:  # _EV_ARRIVAL
            admit(make_group(payload, time), time)
    if not truncated:
        end_time = clock._now
    processed = next(seq) - len(heap) - truncated
    self._events_processed = processed
    collector = LatencyCollector()
    for record in scheduler.completed:
        collector.add(record)
    return SimulationResult(
        records=collector,
        end_time=end_time,
        admitted=scheduler.admitted_count,
        completed=scheduler.completed_count,
        tasks_executed=scheduler.tasks_executed,
        overhead_percent=scheduler.overhead.breakdown_percent(),
        total_overhead_percent=100.0 * scheduler.overhead.total_overhead_fraction(),
        trace=self.trace,
        worker_busy_seconds=list(busy),
        events_processed=processed,
    )


def inlined_charge(decay, duration):
    """The former inlined decay block of ``worker_finish``, verbatim.

    Returns ``(priority, held)``: the priority ``advance`` was given and
    the one before the charge.
    """
    params = decay._params
    quantum = params.quantum
    accum = decay._accum + duration
    priority = held = decay.priority
    if accum < quantum:
        decay._accum = accum
    else:
        quanta = decay._quanta
        if decay._static is not None:
            # Pinned static priority never decays.
            while accum >= quantum:
                accum -= quantum
                quanta += 1
        else:
            d_start = params.d_start
            decay_factor = params.decay
            floor = params.p_min * decay._scale
            while accum >= quantum:
                accum -= quantum
                quanta += 1
                if quanta > d_start:
                    decayed = decay_factor * priority
                    priority = decayed if decayed > floor else floor
            decay.priority = priority
        decay._accum = accum
        decay._quanta = quanta
    return priority, held

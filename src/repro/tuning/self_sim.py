"""Self-simulation: replaying the tracked workload under a policy (§4).

To evaluate the cost function of Equation 3, the scheduler simulates the
execution of the tracked workload with candidate decay parameters.  The
paper exploits that adaptive morsel execution produces highly regular
traces: "the simulator can thus keep a discretized notion of time,
performing a simple loop over equally spaced scheduling decisions".

We do exactly that: a single simulated worker repeatedly picks the
active query with minimal stride pass, executes one quantum, decays its
priority, and records the completion time.  The cost is the mean
relative slowdown, where each query's baseline is its tracked work (its
latency if it had the worker to itself).

:func:`_stride_loop` is that loop, and the only one: the knob tuner's
replay (:mod:`repro.tuning.replay`) runs it with its extra cost terms
switched on.  The minimum pass comes from a heap and each query's stride
is cached until its priority decays.  Arrivals, parked retries and slot
promotions are handled only when the next of them is due, so a step
between events is one quantum of arithmetic.  The priority sum is
re-summed, same additions in the same order, after any step that changed
a priority or the active set, which keeps a replay bit-identical.  Only
an admission or a retry wake-up reads the global pass, so once no
arrival, no parked retry and no retry a pending failure could still
trigger is left, the loop stops re-summing and stops advancing the pass.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.decay import DecayParameters
from repro.core.worker import STRIDE_SCALE
from repro.tuning.cost import mean_slowdown_cost
from repro.tuning.tracker import TrackedQuery


def simulate_policy(
    tracked: Sequence[TrackedQuery],
    params: DecayParameters,
    quantum: float,
) -> Tuple[float, int]:
    """Replay ``tracked`` under ``params``; return (cost, steps).

    ``cost`` is the mean relative slowdown of the tracked queries (the
    paper's Equation 1); ``steps`` counts simulated scheduling decisions
    (used to charge a realistic optimization cost).  For alternative
    objectives use :func:`simulate_policy_pairs` with a cost function
    from :mod:`repro.tuning.cost`.
    """
    pairs, steps = simulate_policy_pairs(tracked, params, quantum)
    return mean_slowdown_cost(pairs), steps


def simulate_policy_pairs(
    tracked: Sequence[TrackedQuery],
    params: DecayParameters,
    quantum: float,
) -> Tuple[List[Tuple[float, float]], int]:
    """Replay ``tracked``; return per-query (latency, base) pairs + steps."""
    if not tracked:
        return [], 0
    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    run = _stride_loop(
        queries, quantum, params.p0, params.p_min, params.decay, params.d_start
    )
    return run.pairs, run.steps


class Schedule(NamedTuple):
    """One run of :func:`_stride_loop`, and how close it came to its limits.

    ``pairs`` are the finished queries' ``(latency, base)`` and ``order``
    their indices (-1: shed).  A run whose ``peak_active`` (slot holders)
    stayed below its slot limit never queued and acts the same under any
    limit of at least that; so for ``peak_pending``, the largest pending
    count an admission check saw, and the admission bound.
    """

    pairs: List[Tuple[float, float]]
    order: List[int]
    steps: int
    shed: int
    retried: int
    failed: int
    peak_active: int
    peak_pending: int


def _stride_loop(
    queries: Sequence[TrackedQuery],
    quantum: float,
    p0: float, p_min: float, decay: float, d_start: int,
    overhead: float = 0.0,
    slot_limit: float = math.inf, max_pending: float = math.inf,
    will_fail: Optional[List[bool]] = None,
    retry_budget: int = 0, retry_backoff: float = 0.0,
    shed_slowdown: float = 0.0, failure_slowdown: float = 0.0,
) -> Schedule:
    """Run ``queries`` (sorted by arrival) on one simulated stride worker.

    The arguments after ``d_start`` are the replay's cost terms, which
    :mod:`repro.tuning.replay` documents (``will_fail`` is only read);
    their defaults switch them off, which is the §4 decay-only model.
    """
    n_queries = len(queries)
    base: List[float] = [q.work for q in queries]
    remaining: List[float] = list(base)
    arrival: List[float] = [q.arrival_offset for q in queries]
    arrival.append(math.inf)  # no arrival left
    undecayed: List[int] = [d_start] * n_queries  # quanta left before decay
    priority: List[float] = [p0] * n_queries
    #: ``STRIDE_SCALE / priority[i]``, recomputed only when it decays.
    stride: List[float] = [STRIDE_SCALE / p0] * n_queries
    will_fail = list(will_fail) if will_fail else [False] * n_queries

    #: Slot holders in activation order, and the same queries as a heap of
    #: (pass, activation number, index): pass ties go to ``active`` order.
    active: List[int] = []
    ready: List[Tuple[float, int, int]] = []
    activations = count()
    waiting: Deque[Tuple[float, int]] = deque()  # slot queue: (pass, index)
    parked: List[Tuple[float, int]] = []  # heap of (retry time, index)

    time = global_pass = total_priority = 0.0
    #: The next arrival or parked wake-up (now, when a freed slot has a taker).
    next_event = arrival[0]
    full_step = quantum + overhead  # a full quantum's time, with overhead
    stale = True  # membership or a priority changed since the last sum
    #: Unfinished queries whose failure lottery is still pending.
    pending_failures = sum(will_fail)
    #: Whether an arrival, a parked retry or a retry a pending failure can
    #: still trigger will read the global pass.  Once false it stays false,
    #: and the re-sum and the pass update are skipped (a waiting query
    #: keeps the pass it queued with).
    pass_live = True
    pairs: List[Tuple[float, float]] = []
    order: List[int] = []
    next_arrival = finished = steps = shed = retried = failed = peak_active = peak_pending = 0
    while finished < n_queries:
        if time >= next_event:
            # Admit everything that has arrived by now, then wake the
            # parked retries whose backoff elapsed.
            while True:
                if next_arrival < n_queries and arrival[next_arrival] <= time:
                    index = next_arrival
                    next_arrival += 1
                    if remaining[index] <= 0.0:
                        # Degenerate zero-work entry: completes instantly.
                        pending_failures -= will_fail[index]
                        finished += 1
                        continue
                    pending = len(active) + len(waiting) + len(parked)
                    peak_pending = pending if pending > peak_pending else peak_pending
                    if pending >= max_pending:
                        # Overloaded: shed the newcomer at the admission edge.
                        pending_failures -= will_fail[index]
                        shed += 1
                        finished += 1
                        pairs.append((shed_slowdown * base[index], base[index]))
                        order.append(-1)
                        continue
                elif parked and parked[0][0] <= time:
                    index = heappop(parked)[1]
                else:
                    break
                if len(active) < slot_limit:
                    active.append(index)
                    heappush(ready, (global_pass, next(activations), index))
                    stale = True
                else:
                    waiting.append((global_pass, index))
            # Promote waiting queries into free slots (FIFO).
            while waiting and len(active) < slot_limit:
                queued_pass, index = waiting.popleft()
                active.append(index)
                heappush(ready, (queued_pass, next(activations), index))
                stale = True
            if len(active) > peak_active:
                peak_active = len(active)
            next_event = arrival[next_arrival]
            if parked and parked[0][0] < next_event:
                next_event = parked[0][0]
        if not active:
            # Idle until the next arrival or parked wake-up.
            if next_arrival == n_queries and not parked:
                break  # defensive: nothing left to run
            time = next_event
            continue
        if pass_live and next_arrival == n_queries and not parked and (
            retry_budget <= 0 or not pending_failures
        ):
            pass_live = False
        # Step until a query leaves or an event is due: the query with
        # minimal pass runs one quantum (fraction 1.0) or its last sliver.
        while True:
            best_pass, activation, best = ready[0]
            work = remaining[best]
            steps += 1
            # Stride pass updates (§2.1, non-preemptive fractional form).
            if pass_live:
                if stale:
                    total_priority = 0.0
                    for index in active:
                        total_priority += priority[index]
                    stale = False
                global_pass += (
                    STRIDE_SCALE if work > quantum else work / quantum * STRIDE_SCALE
                ) / total_priority
            if work > quantum:
                time += full_step
                work -= quantum
                best_pass += stride[best]
            else:  # the last sliver: the query leaves, its pass with it
                time += work + overhead
                work = 0.0
            # Priority decay after the first ``d_start`` quanta (§3.2).
            left = undecayed[best]
            if left > 0:
                undecayed[best] = left - 1
            else:
                held = priority[best]
                decayed = decay * held
                decayed = decayed if decayed > p_min else p_min
                if decayed != held:
                    priority[best] = decayed
                    stride[best] = STRIDE_SCALE / decayed
                    stale = True
            if work > 0.0:
                remaining[best] = work
                heapreplace(ready, (best_pass, activation, best))
                if time < next_event:
                    continue
            break
        if work > 0.0:
            continue  # an arrival or a wake-up is due
        heappop(ready)
        active.remove(best)
        stale = True
        if waiting:
            next_event = time  # promote into the freed slot
        if will_fail[best]:
            will_fail[best] = False
            pending_failures -= 1
            if retry_budget > 0:
                # Transient failure, budget left: re-run after the
                # backoff; priority state persists (§4 closed form).
                retry_budget -= 1
                retried += 1
                remaining[best] = base[best]
                wake = time + retry_backoff
                heappush(parked, (wake, best))
                next_event = wake if wake < next_event else next_event
                continue
            failed += 1
            latency = failure_slowdown * base[best]
        else:
            latency = time - arrival[best]
        finished += 1
        pairs.append((latency, base[best]))
        order.append(best)
    return Schedule(pairs, order, steps, shed, retried, failed + shed, peak_active, peak_pending)

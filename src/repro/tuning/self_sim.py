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
switched on.  The minimum pass comes from a heap, but the priority sum
is re-summed over every active query after any step that changed a
priority or the active set.  Under decay most steps do, until the
priorities reach ``p_min`` (or with λ = 1), so a step costs more the
more queries are active.  The re-sum repeats the same additions in the
same order, which keeps a replay bit-identical.  Only an admission or a
retry wake-up reads the global pass, so once no arrival, no parked retry
and no retry a pending failure could still trigger is left, the loop
stops re-summing and stops advancing the pass.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.decay import DecayParameters
from repro.core.worker import STRIDE_SCALE
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
    if not pairs:
        return 0.0, steps
    cost = sum(latency / base for latency, base in pairs if base > 0.0)
    return cost / len(pairs), steps


def simulate_policy_pairs(
    tracked: Sequence[TrackedQuery],
    params: DecayParameters,
    quantum: float,
) -> Tuple[List[Tuple[float, float]], int]:
    """Replay ``tracked``; return per-query (latency, base) pairs + steps."""
    if not tracked:
        return [], 0
    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    return _stride_loop(  # (pairs, steps) of (pairs, steps, shed, ...)
        queries, quantum, params.p0, params.p_min, params.decay, params.d_start
    )[:2]


def _stride_loop(
    queries: Sequence[TrackedQuery],
    quantum: float,
    p0: float, p_min: float, decay: float, d_start: int,
    overhead: float = 0.0,
    slot_limit: float = math.inf, max_pending: float = math.inf,
    channel: Optional[List[float]] = None, will_fail: Optional[List[bool]] = None,
    retry_budget: int = 0, retry_backoff: float = 0.0,
    shed_slowdown: float = 0.0, failure_slowdown: float = 0.0,
) -> Tuple[List[Tuple[float, float]], int, int, int, int]:
    """Run ``queries`` (sorted by arrival) on one simulated stride worker.

    Returns ``(pairs, steps, shed, retried, failed)``.  The arguments
    after ``d_start`` are the replay's cost terms (``channel[i]`` is
    added to query ``i``'s latency at finish, ``will_fail[i]`` is its
    failure lottery; :mod:`repro.tuning.replay` documents the rest);
    their defaults switch them off, which is the §4 decay-only model.
    """
    n_queries = len(queries)
    base: List[float] = [q.work for q in queries]
    remaining: List[float] = list(base)
    arrival: List[float] = [q.arrival_offset for q in queries]
    quanta_done: List[int] = [0] * n_queries
    priority: List[float] = [p0] * n_queries
    channel = channel or [0.0] * n_queries
    will_fail = will_fail or [False] * n_queries

    #: Slot holders in activation order, and the same queries as a heap of
    #: (pass, activation number, index): pass ties go to ``active`` order.
    active: List[int] = []
    ready: List[Tuple[float, int, int]] = []
    activations = count()
    waiting: Deque[Tuple[float, int]] = deque()  # slot queue: (pass, index)
    parked: List[Tuple[float, int]] = []  # heap of (retry time, index)

    time = global_pass = total_priority = 0.0
    stale = True  # membership or a priority changed since the last sum
    #: Unfinished queries whose failure lottery is still pending.
    pending_failures = sum(will_fail)
    #: Whether the global pass can still be read: by an arrival, a
    #: parked retry, or a retry a pending failure can still trigger.
    #: Once false it stays false, and the re-sum and the pass update
    #: are skipped (a waiting query keeps the pass it queued with).
    pass_live = True
    pairs: List[Tuple[float, float]] = []
    next_arrival = finished = steps = shed = retried = failed = 0
    while finished < n_queries:
        # Admit everything that has arrived by now.
        while next_arrival < n_queries and arrival[next_arrival] <= time:
            index = next_arrival
            next_arrival += 1
            if remaining[index] <= 0.0:
                # Degenerate zero-work entry: completes instantly.
                pending_failures -= will_fail[index]
                finished += 1
                continue
            if len(active) + len(waiting) + len(parked) >= max_pending:
                # Overloaded: shed the newcomer at the admission edge.
                pending_failures -= will_fail[index]
                shed += 1
                failed += 1
                finished += 1
                pairs.append((shed_slowdown * base[index], base[index]))
                continue
            if len(active) < slot_limit:
                active.append(index)
                heappush(ready, (global_pass, next(activations), index))
                stale = True
            else:
                waiting.append((global_pass, index))
        # Wake parked retries whose backoff elapsed.
        while parked and parked[0][0] <= time:
            index = heappop(parked)[1]
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
        if not active:
            # Idle until the next arrival or parked wake-up.
            if next_arrival < n_queries:
                time = arrival[next_arrival]
                if parked and parked[0][0] < time:
                    time = parked[0][0]
            elif parked:
                time = parked[0][0]
            else:
                break  # defensive: nothing left to run
            continue
        if pass_live and next_arrival == n_queries and not parked and (
            retry_budget <= 0 or not pending_failures
        ):
            pass_live = False
        # The active query with minimal pass (stride scheduling).
        best_pass, activation, best = ready[0]
        # Execute one quantum (or the final sliver of work).
        work = remaining[best]
        slice_seconds = quantum if work > quantum else work
        fraction = slice_seconds / quantum
        time += slice_seconds + overhead
        steps += 1
        work -= slice_seconds
        remaining[best] = work
        # Stride pass updates (§2.1, non-preemptive fractional form).
        held = priority[best]
        stride = STRIDE_SCALE / held
        best_pass += fraction * stride
        if pass_live:
            if stale:
                total_priority = 0.0
                for index in active:
                    total_priority += priority[index]
                stale = False
            global_pass += fraction * STRIDE_SCALE / total_priority
        # Priority decay after each completed quantum (§3.2).
        done = quanta_done[best] + 1
        quanta_done[best] = done
        if done > d_start:
            decayed = decay * held
            decayed = decayed if decayed > p_min else p_min
            if decayed != held:
                priority[best] = decayed
                stale = True
        if work > 0.0:
            heapreplace(ready, (best_pass, activation, best))
            continue
        heappop(ready)
        active.remove(best)
        stale = True
        if will_fail[best]:
            will_fail[best] = False
            pending_failures -= 1
            if retry_budget > 0:
                # Transient failure, budget left: re-run after the
                # backoff; priority state persists (§4 closed form).
                retry_budget -= 1
                retried += 1
                remaining[best] = base[best]
                heappush(parked, (time + retry_backoff, best))
                continue
            failed += 1
            latency = failure_slowdown * base[best]
        else:
            latency = time - arrival[best]
        finished += 1
        pairs.append((latency + channel[best], base[best]))
    return pairs, steps, shed, retried, failed

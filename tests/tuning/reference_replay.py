"""The stride self-simulation loops and the compression scan the one
heap-ordered loop replaced — kept as the reference
``tests/tuning/test_replay_reference.py`` compares against.

``simulate_policy_pairs`` (``repro.tuning.self_sim``),
``replay_workload`` / ``replay_cost`` (``repro.tuning.replay``) and
``compress_workload`` (``repro.tuning.compress``) verbatim: two copies of
the §4 loop, each scanning every active query twice per step (once for
the minimum pass, once for the priority sum), and a greedy merge that
re-merges every adjacent cluster pair after every merge.  Slow by
design; the shipped functions must return the same values, bit for bit.

``replay_cost`` accepts the shipped one's ``memo`` keyword and ignores it.

One deliberate difference: when the last arrivals are zero-work entries
and nothing is active, ``simulate_policy_pairs`` here indexes past the
end of its arrival list (``IndexError``); the one loop stops there, as
``replay_workload`` always did.
"""

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.decay import DecayParameters
from repro.core.worker import STRIDE_SCALE
from repro.errors import TuningError
from repro.tuning.compress import CompressedWorkload, _Cluster, _merge
from repro.tuning.cost import CostFunction, mean_slowdown_cost
from repro.tuning.replay import (
    BUFFER_TOUCH_SECONDS,
    CHANNEL_STALL_SECONDS,
    CHUNK_WORK_SECONDS,
    DECISION_OVERHEAD_SECONDS,
    FAILURE_SLOWDOWN,
    SHED_SLOWDOWN,
    ReplayResult,
    _fails_transiently,
)
from repro.tuning.tracker import TrackedQuery


def simulate_policy_pairs(
    tracked: Sequence[TrackedQuery],
    params: DecayParameters,
    quantum: float,
) -> Tuple[List[Tuple[float, float]], int]:
    """Replay ``tracked``; return per-query (latency, base) pairs + steps."""
    if not tracked:
        return [], 0
    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    n_queries = len(queries)

    # Parallel arrays for speed: this loop runs ~10^4 times per candidate.
    remaining: List[float] = [q.work for q in queries]
    arrival: List[float] = [q.arrival_offset for q in queries]
    pass_value: List[float] = [0.0] * n_queries
    quanta_done: List[int] = [0] * n_queries
    priority: List[float] = [params.p0] * n_queries

    active: List[int] = []
    next_arrival_index = 0
    time = 0.0
    global_pass = 0.0
    pairs: List[Tuple[float, float]] = []
    finished = 0
    steps = 0

    while finished < n_queries:
        # Admit everything that has arrived by now.
        while next_arrival_index < n_queries and arrival[next_arrival_index] <= time:
            query_index = next_arrival_index
            next_arrival_index += 1
            if remaining[query_index] <= 0.0:
                # Degenerate zero-work entry: completes instantly.
                finished += 1
                continue
            pass_value[query_index] = global_pass
            active.append(query_index)
        if not active:
            # Idle until the next arrival.
            time = arrival[next_arrival_index]
            continue
        # Pick the active query with minimal pass (stride scheduling).
        best = active[0]
        best_pass = pass_value[best]
        for query_index in active[1:]:
            if pass_value[query_index] < best_pass:
                best_pass = pass_value[query_index]
                best = query_index
        # Execute one quantum (or the final sliver of work).
        work = remaining[best]
        slice_seconds = quantum if work > quantum else work
        fraction = slice_seconds / quantum
        time += slice_seconds
        steps += 1
        remaining[best] = work - slice_seconds
        # Stride pass updates (§2.1, non-preemptive fractional form).
        stride = STRIDE_SCALE / priority[best]
        pass_value[best] += fraction * stride
        total_priority = 0.0
        for query_index in active:
            total_priority += priority[query_index]
        global_pass += fraction * STRIDE_SCALE / total_priority
        # Priority decay after each completed quantum (§3.2).
        quanta_done[best] += 1
        if quanta_done[best] > params.d_start:
            decayed = params.decay * priority[best]
            priority[best] = decayed if decayed > params.p_min else params.p_min
        if remaining[best] <= 0.0:
            active.remove(best)
            finished += 1
            latency = time - arrival[best]
            pairs.append((latency, queries[best].work))
    return pairs, steps


def replay_workload(
    tracked: Sequence[TrackedQuery],
    values: Mapping[str, object],
    min_quantum: Optional[float] = None,
) -> ReplayResult:
    """Replay ``tracked`` under the knob vector ``values``.

    ``min_quantum`` coarsens the discretization (the controller's
    step-budget lever): the effective quantum is
    ``max(core.t_max, min_quantum)``.  Unknown knob names are ignored —
    the replay reads only the knobs it models — so richer spaces degrade
    gracefully.
    """
    if not tracked:
        return ReplayResult(pairs=[], steps=0)

    decay = float(values.get("core.decay", 0.9))
    d_start = int(values.get("core.d_start", 7))
    t_max = float(values.get("core.t_max", 0.002))
    slot_limit = int(values.get("core.slot_limit", 128))
    channel_capacity = int(values.get("runtime.channel_capacity", 8))
    retry_budget = int(values.get("runtime.retry_budget", 16))
    retry_backoff = float(values.get("runtime.retry_backoff", 0.05))
    max_pending = int(values.get("admission.max_pending", 4096))

    quantum = max(t_max, min_quantum or 0.0)
    p0 = 10_000.0
    p_min = 100.0

    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    n_queries = len(queries)

    remaining: List[float] = [q.work for q in queries]
    arrival: List[float] = [q.arrival_offset for q in queries]
    pass_value: List[float] = [0.0] * n_queries
    quanta_done: List[int] = [0] * n_queries
    priority: List[float] = [p0] * n_queries
    #: Whether this query's one transient failure is still pending.
    will_fail: List[bool] = [
        _fails_transiently(q.group_id) for q in queries
    ]

    active: List[int] = []   # holding a slot
    waiting: List[int] = []  # admitted, queueing for a slot (FIFO)
    #: Retried queries parked until their backoff elapses, as
    #: (ready_time, index) in ready order.
    parked: List[Tuple[float, int]] = []
    next_arrival_index = 0
    time = 0.0
    global_pass = 0.0
    pairs: List[Tuple[float, float]] = []
    finished = 0
    steps = 0
    shed = 0
    retried = 0
    failed = 0

    def in_system() -> int:
        return len(active) + len(waiting) + len(parked)

    def finish(index: int, latency: float) -> None:
        nonlocal finished
        finished += 1
        base = queries[index].work
        # Channel effects: stalls beyond capacity plus the buffer touch.
        chunks = max(1, int(base / CHUNK_WORK_SECONDS) + 1)
        stall = max(0, chunks - channel_capacity) * CHANNEL_STALL_SECONDS
        latency += stall + channel_capacity * BUFFER_TOUCH_SECONDS
        pairs.append((latency, base))

    while finished < n_queries:
        # Admit everything that has arrived by now.
        while (
            next_arrival_index < n_queries
            and arrival[next_arrival_index] <= time
        ):
            index = next_arrival_index
            next_arrival_index += 1
            if remaining[index] <= 0.0:
                finished += 1
                continue
            if in_system() >= max_pending:
                # Overloaded: shed the newcomer at the admission edge.
                shed += 1
                failed += 1
                finished += 1
                base = queries[index].work
                pairs.append((SHED_SLOWDOWN * base, base))
                continue
            pass_value[index] = global_pass
            if len(active) < slot_limit:
                active.append(index)
            else:
                waiting.append(index)
        # Wake parked retries whose backoff elapsed.
        while parked and parked[0][0] <= time:
            _, index = parked.pop(0)
            pass_value[index] = global_pass
            if len(active) < slot_limit:
                active.append(index)
            else:
                waiting.append(index)
        # Promote waiting queries into free slots (FIFO).
        while waiting and len(active) < slot_limit:
            active.append(waiting.pop(0))
        if not active:
            # Idle until the next arrival or parked wake-up.
            horizons = []
            if next_arrival_index < n_queries:
                horizons.append(arrival[next_arrival_index])
            if parked:
                horizons.append(parked[0][0])
            if not horizons:
                break  # defensive: nothing left to run
            time = min(horizons)
            continue
        # Pick the active query with minimal pass (stride scheduling).
        best = active[0]
        best_pass = pass_value[best]
        for index in active[1:]:
            if pass_value[index] < best_pass:
                best_pass = pass_value[index]
                best = index
        # Execute one quantum (or the final sliver of work).
        work = remaining[best]
        slice_seconds = quantum if work > quantum else work
        fraction = slice_seconds / quantum
        time += slice_seconds + DECISION_OVERHEAD_SECONDS
        steps += 1
        remaining[best] = work - slice_seconds
        # Stride pass updates (§2.1, non-preemptive fractional form).
        stride = STRIDE_SCALE / priority[best]
        pass_value[best] += fraction * stride
        total_priority = 0.0
        for index in active:
            total_priority += priority[index]
        global_pass += fraction * STRIDE_SCALE / total_priority
        # Priority decay after each completed quantum (§3.2).
        quanta_done[best] += 1
        if quanta_done[best] > d_start:
            decayed = decay * priority[best]
            priority[best] = decayed if decayed > p_min else p_min
        if remaining[best] <= 0.0:
            active.remove(best)
            if will_fail[best]:
                will_fail[best] = False
                if retry_budget > 0:
                    # Transient failure, budget left: re-run after the
                    # backoff; priority state persists (§4 closed form).
                    retry_budget -= 1
                    retried += 1
                    remaining[best] = queries[best].work
                    parked.append((time + retry_backoff, best))
                    parked.sort()
                else:
                    failed += 1
                    base = queries[best].work
                    finish(best, FAILURE_SLOWDOWN * base)
            else:
                finish(best, time - arrival[best])
    return ReplayResult(
        pairs=pairs, steps=steps, shed=shed, retried=retried, failed=failed
    )


def replay_cost(
    tracked: Sequence[TrackedQuery],
    values: Mapping[str, object],
    min_quantum: Optional[float] = None,
    cost_fn: Optional[CostFunction] = None,
    memo: Optional[dict] = None,
) -> Tuple[float, int]:
    """Replay and reduce to ``(cost, steps)`` with ``cost_fn``.

    ``memo`` is accepted and ignored: this side replays every call.
    """
    cost_fn = cost_fn or mean_slowdown_cost
    result = replay_workload(tracked, values, min_quantum)
    return cost_fn(result.pairs), result.steps


def compress_workload(
    tracked: Sequence[TrackedQuery], max_queries: int
) -> CompressedWorkload:
    """Greedily merge ``tracked`` down to ≤ ``max_queries`` queries.

    Only adjacent-in-arrival clusters merge (congestion is a local-in-
    time phenomenon; merging across the timeline would move load), and
    at each step the pair with the smallest displacement-penalty
    increase is merged.  Deterministic: input is sorted by
    ``(arrival_offset, group_id)`` and ties in the penalty scan resolve
    to the earliest pair.
    """
    if max_queries < 1:
        raise TuningError("max_queries must be at least 1")
    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    if not queries:
        return CompressedWorkload([], 1.0, 0)
    total_work = sum(q.work for q in queries)
    span = max(q.arrival_offset + q.work for q in queries)
    clusters: List[_Cluster] = [
        _Cluster(
            arrival=q.arrival_offset,
            work=q.work,
            work_arrival=q.work * q.arrival_offset,
            work_sq=q.work * q.work,
            count=1,
            group_id=q.group_id,
            name=q.name,
            name_work=q.work,
            scale_factor=q.scale_factor,
            fail_work=q.work if _fails_transiently(q.group_id) else 0.0,
        )
        for q in queries
    ]
    mean_work = total_work / len(queries)
    while len(clusters) > max_queries:
        best_index = 0
        best_penalty = float("inf")
        for i in range(len(clusters) - 1):
            a, b = clusters[i], clusters[i + 1]
            merged = _merge(a, b)
            penalty = (
                merged.displacement(span, mean_work)
                - a.displacement(span, mean_work)
                - b.displacement(span, mean_work)
            )
            if penalty < best_penalty:
                best_penalty = penalty
                best_index = i
        clusters[best_index : best_index + 2] = [
            _merge(clusters[best_index], clusters[best_index + 1])
        ]
    displacement = sum(c.displacement(span, mean_work) for c in clusters)
    fidelity = (
        max(0.0, 1.0 - displacement / total_work) if total_work > 0.0 else 1.0
    )
    representatives = [
        TrackedQuery(
            group_id=c.group_id,
            name=c.name,
            scale_factor=c.scale_factor,
            arrival_offset=c.arrival,
            work=c.work,
        )
        for c in clusters
    ]
    return CompressedWorkload(
        representatives=representatives,
        fidelity=fidelity,
        original_queries=len(queries),
    )

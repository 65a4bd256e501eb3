"""Whole-system workload replay: the knob tuner's cost model.

The replay runs the §4 self-simulation's loop
(:func:`repro.tuning.self_sim._stride_loop`) with every mechanism of the
knob surface (:mod:`repro.tuning.knobs`) switched on:

* ``core.decay`` / ``core.d_start`` — priority decay, as in §4;
* ``core.t_max`` — the scheduling quantum.  Every decision costs a fixed
  scheduling overhead on top of the useful work, so a smaller quantum
  interleaves short queries better but burns more time on decisions —
  the trade-off §2.2 describes;
* ``core.slot_limit`` — at most this many queries hold slots; the rest
  wait in the §2.3 admission queue (FIFO);
* ``admission.max_pending`` — arrivals beyond this bound are shed and
  charged the shedding penalty slowdown;
* ``runtime.channel_capacity`` — a query producing more chunks than the
  channel holds stalls on its consumer; larger channels stall less but
  pay a per-query buffer-touch cost;
* ``runtime.retry_budget`` / ``runtime.retry_backoff`` — a deterministic
  subset of queries fails transiently once; with budget left the query
  re-runs after its backoff, otherwise it is charged the failure
  penalty.

The model is deliberately simple — it is a *cost model*, not a second
simulator — but every term is monotone in the mechanism it stands for,
each knob has a genuine optimum under load, and the whole computation is
pure deterministic arithmetic (no wall clock, no hash order, no RNG), so
tuning decisions are bit-reproducible across processes and hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.decay import DEFAULT_P0, DEFAULT_PMIN
from repro.tuning.cost import CostFunction, mean_slowdown_cost
from repro.tuning.knobs import KNOBS
from repro.tuning.self_sim import _stride_loop
from repro.tuning.tracker import TrackedQuery

#: Scheduling overhead charged per decision (seconds).  Calibrated so
#: t_max = 2 ms spends ~2% of its time deciding, matching the overhead
#: accounting of Figure 10.
DECISION_OVERHEAD_SECONDS = 4.0e-5
#: Useful work per result chunk (seconds) — sets how many chunks a query
#: of a given size produces.
CHUNK_WORK_SECONDS = 0.01
#: Consumer-lag stall per chunk beyond the channel capacity (seconds).
CHANNEL_STALL_SECONDS = 2.0e-3
#: Per-query cost of touching one channel buffer slot (seconds); makes
#: "infinite channels" non-free so the capacity knob has an optimum.
BUFFER_TOUCH_SECONDS = 5.0e-5
#: Fraction of queries that fail transiently once (deterministic subset).
FAILURE_HAZARD = 0.05
#: Slowdown charged to a shed query (it did not run at all).
SHED_SLOWDOWN = 50.0
#: Slowdown charged to a query that failed with no retry budget left.
FAILURE_SLOWDOWN = 25.0

#: ``admission.max_pending`` when the vector has none.  Not the table's
#: 256: that is the stock bound of a policy that has one, while a vector
#: without the knob comes from a server whose admission is unbounded.
UNBOUNDED_PENDING = 4096

#: Knuth's multiplicative hash constant: spreads group ids over the
#: failure lottery without any RNG state.
_HASH_MULT = 2654435761
_HASH_MOD = 1000


def _fails_transiently(group_id: int) -> bool:
    """Deterministic per-query transient-failure lottery."""
    return (group_id * _HASH_MULT) % _HASH_MOD < FAILURE_HAZARD * _HASH_MOD


@dataclass
class ReplayResult:
    """Outcome of replaying a tracked workload under one knob vector."""

    #: Per-query ``(latency, base_latency)`` pairs (shed/failed queries
    #: carry their penalty latencies).
    pairs: List[Tuple[float, float]]
    #: Simulated scheduling decisions (the evaluation's cost currency).
    steps: int
    shed: int = 0
    retried: int = 0
    failed: int = 0


def replay_workload(
    tracked: Sequence[TrackedQuery],
    values: Mapping[str, object],
    min_quantum: Optional[float] = None,
    memo: Optional[Dict[tuple, list]] = None,
) -> ReplayResult:
    """Replay ``tracked`` under the knob vector ``values``.

    ``min_quantum`` coarsens the discretization (the controller's
    step-budget lever): the effective quantum is
    ``max(core.t_max, min_quantum)``.  Unknown knob names are ignored —
    the replay reads only the knobs it models — so richer spaces degrade
    gracefully.

    ``memo``, a dict the caller keeps for one workload, reuses a run of
    the same (quantum, λ, d_start) whose slot limit, admission bound and
    backoff are equal or were never reached, and whose retry budget is
    equal up to its failure count; every channel capacity shares a run.
    """
    if not tracked:
        return ReplayResult(pairs=[], steps=0)

    def value(name: str):
        return values.get(name, KNOBS[name].default)

    queries = sorted(tracked, key=lambda q: (q.arrival_offset, q.group_id))
    quantum = max(float(value("core.t_max")), min_quantum or 0.0)
    decay, d_start = float(value("core.decay")), int(value("core.d_start"))
    limits = slots, bound, budget, backoff = (
        int(value("core.slot_limit")),
        int(values.get("admission.max_pending", UNBOUNDED_PENDING)),
        int(value("runtime.retry_budget")),
        float(value("runtime.retry_backoff")),
    )
    runs = [] if memo is None else memo.setdefault((quantum, decay, d_start), [])
    for run, (run_slots, run_bound, run_budget, run_backoff) in runs:
        failures = run.retried + run.failed - run.shed
        if (
            (run_slots == slots or run.peak_active < run_slots and run.peak_active <= slots)
            and (run_bound == bound or run.peak_pending < min(run_bound, bound))
            and min(run_budget, failures) == min(budget, failures)
            and (run_backoff == backoff or not run.retried)
        ):
            break
    else:
        run = _stride_loop(
            queries, quantum, DEFAULT_P0, DEFAULT_PMIN, decay, d_start,
            overhead=DECISION_OVERHEAD_SECONDS,
            slot_limit=slots, max_pending=bound,
            will_fail=[_fails_transiently(q.group_id) for q in queries],
            retry_budget=budget, retry_backoff=backoff,
            shed_slowdown=SHED_SLOWDOWN, failure_slowdown=FAILURE_SLOWDOWN,
        )
        runs.append((run, limits))
    # Channel effects, charged at finish: stalls beyond capacity plus the
    # buffer touch.  A shed entry (order -1) reads the trailing 0.0.
    capacity = int(value("runtime.channel_capacity"))
    channel: List[float] = []
    for q in queries:
        chunks = max(1, int(q.work / CHUNK_WORK_SECONDS) + 1)
        stall = max(0, chunks - capacity) * CHANNEL_STALL_SECONDS
        channel.append(stall + capacity * BUFFER_TOUCH_SECONDS)
    channel.append(0.0)
    return ReplayResult(
        [(latency + channel[i], base) for (latency, base), i in zip(run.pairs, run.order)],
        run.steps, run.shed, run.retried, run.failed,
    )


def replay_cost(
    tracked: Sequence[TrackedQuery],
    values: Mapping[str, object],
    min_quantum: Optional[float] = None,
    cost_fn: Optional[CostFunction] = None,
    memo: Optional[Dict[tuple, list]] = None,
) -> Tuple[float, int]:
    """Replay and reduce to ``(cost, steps)`` with ``cost_fn``."""
    cost_fn = cost_fn or mean_slowdown_cost
    result = replay_workload(tracked, values, min_quantum, memo)
    return cost_fn(result.pairs), result.steps

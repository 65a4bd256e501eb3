"""Greedy workload compression for cost-bounded tuning (WAter recipe).

Evaluating one candidate knob vector costs a full replay of the tracked
workload; whole-knob-space tuning needs tens of evaluations per cycle.
Following WAter's recipe, candidates are evaluated on a greedily
*compressed* representative workload instead, and only the top
configurations are verified on the full workload.

Compression merges queries that arrive close together into one longer
representative query carrying their combined work, so the **total load
and its timing are preserved** — congestion, the thing slowdown-based
cost functions measure, stays honest.  The greedy loop always merges the
adjacent-in-arrival cluster pair with the smallest *displacement
penalty* (work-weighted arrival shift plus lost per-query resolution),
so cheap merges happen first and the damage of reaching the target size
is minimal.

The :attr:`CompressedWorkload.fidelity` metric summarises that damage on
a [0, 1] scale (1.0 = no compression, exact costs by construction).  The
cost-estimate error of the compressed replay is empirically bounded by
``(1 - fidelity) * FIDELITY_ERROR_FACTOR`` relative to the full-replay
cost — the property that tests/tuning/test_compress.py checks on random
workloads, and the contract the optimizer's verification step relies on
when it decides how many top candidates need a full-workload replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import TuningError
from repro.tuning.replay import _fails_transiently
from repro.tuning.tracker import TrackedQuery

#: Empirical bound factor: |cost_compressed - cost_full| is at most
#: ``(1 - fidelity) * FIDELITY_ERROR_FACTOR * cost_full`` on the
#: workloads the property test sweeps.  Deliberately loose — fidelity is
#: a planning signal (how much verification the optimizer must buy),
#: not a proof.
FIDELITY_ERROR_FACTOR = 6.0

#: Weight of the retry-mass distortion term: merging changes which work
#: passes the replay's deterministic transient-failure lottery (keyed by
#: the merged cluster's group id), and a retried query re-runs its whole
#: work — so a shift of failing mass distorts the replay about as much
#: as the same mass of displaced work.
RETRY_DISTORTION_WEIGHT = 1.0


@dataclass
class _Cluster:
    """Aggregate statistics of one merged group of tracked queries.

    Kept as closed-form sums so a candidate merge's penalty is O(1):
    ``work`` = Σ w_m, ``work_arrival`` = Σ w_m·a_m, ``work_sq`` = Σ w_m²
    over the members ``m``.
    """

    arrival: float       # min member arrival (the merged arrival)
    work: float          # Σ member work (the merged work)
    work_arrival: float  # Σ work·arrival over members
    work_sq: float       # Σ work² over members
    count: int
    group_id: int        # min member group id (determinism anchor)
    name: str            # name of the largest-work member
    name_work: float     # that member's work
    scale_factor: float
    fail_work: float     # Σ work over members failing the replay lottery

    def displacement(self, span: float, mean_work: float) -> float:
        """Distortion of this cluster's members, in work units.

        Four terms, all zero for singleton clusters:

        * arrival shift — members run from the cluster's (earliest)
          arrival instead of their own: Σ w·(a − a_C) / span;
        * resolution loss — members dissolve into one base latency:
          0.5 · Σ w·(1 − w / W_C);
        * sample loss — count-weighted cost functions (mean slowdown)
          lose one sample per absorbed member, each worth one average
          query's work: (count − 1) · w̄;
        * retry mismatch — the merged cluster's group id decides the
          whole cluster's transient-failure lottery, so the failing work
          mass shifts by |Σ w_fail − W_C·[C fails]|.
        """
        if self.count == 1:
            return 0.0
        time_term = (
            (self.work_arrival - self.arrival * self.work) / span
            if span > 0.0
            else 0.0
        )
        mass_term = 0.5 * (self.work - self.work_sq / self.work)
        sample_term = (self.count - 1) * mean_work
        merged_fail = self.work if _fails_transiently(self.group_id) else 0.0
        retry_term = RETRY_DISTORTION_WEIGHT * abs(
            self.fail_work - merged_fail
        )
        return time_term + mass_term + sample_term + retry_term


def _merge(a: _Cluster, b: _Cluster) -> _Cluster:
    name, name_work = (
        (a.name, a.name_work)
        if a.name_work >= b.name_work
        else (b.name, b.name_work)
    )
    return _Cluster(
        arrival=min(a.arrival, b.arrival),
        work=a.work + b.work,
        work_arrival=a.work_arrival + b.work_arrival,
        work_sq=a.work_sq + b.work_sq,
        count=a.count + b.count,
        group_id=min(a.group_id, b.group_id),
        name=name,
        name_work=name_work,
        scale_factor=a.scale_factor if a.name_work >= b.name_work else b.scale_factor,
        fail_work=a.fail_work + b.fail_work,
    )


@dataclass
class CompressedWorkload:
    """A representative subset standing in for the full tracked workload."""

    representatives: List[TrackedQuery]
    #: Distortion summary in [0, 1]; 1.0 means no compression happened.
    fidelity: float
    original_queries: int

    @property
    def ratio(self) -> float:
        """Compression ratio (representatives / original queries)."""
        if self.original_queries == 0:
            return 1.0
        return len(self.representatives) / self.original_queries

    def error_bound(self, full_cost: float) -> float:
        """Empirical bound on |compressed cost − ``full_cost``|."""
        return (1.0 - self.fidelity) * FIDELITY_ERROR_FACTOR * full_cost


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
    # Each cluster's own displacement and, per adjacent pair, the merged
    # cluster, its displacement and the merge's penalty: a merge changes
    # only the two pairs beside it, so only those are recomputed.
    own = [c.displacement(span, mean_work) for c in clusters]
    merged: List[_Cluster] = []
    merged_own: List[float] = []
    penalties: List[float] = []
    for i in range(len(clusters) - 1):
        merged.append(_merge(clusters[i], clusters[i + 1]))
        merged_own.append(merged[i].displacement(span, mean_work))
        penalties.append(merged_own[i] - own[i] - own[i + 1])
    while len(clusters) > max_queries:
        # The first minimum: ties resolve to the earliest pair.
        best = penalties.index(min(penalties))
        clusters[best : best + 2] = [merged.pop(best)]
        own[best : best + 2] = [merged_own.pop(best)]
        del penalties[best]
        for i in (best - 1, best):
            if 0 <= i < len(penalties):
                merged[i] = _merge(clusters[i], clusters[i + 1])
                merged_own[i] = merged[i].displacement(span, mean_work)
                penalties[i] = merged_own[i] - own[i] - own[i + 1]
    displacement = sum(own)
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

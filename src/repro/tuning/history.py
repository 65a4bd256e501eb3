"""In-memory tuning history + the surrogate that prunes evaluations.

Every evaluated (workload signature, knob vector, cost) triple is worth
keeping: the next tuning cycle faces a similar workload, and knowing
roughly how a region of the knob space performed lets the optimizer
rank candidates *before* spending replay steps on them (WAter's "reuse
tuning history to bootstrap" step; fine-grained concurrent-query
performance prediction, arXiv 2501.16256, motivates exactly this
cheap-predictor-prunes-expensive-evaluation split).

The surrogate is deliberately tiny: a distance-weighted k-nearest-
neighbour predictor over normalized knob vectors, with the workload
signature folded into the distance so observations from a dissimilar
workload count less.  No fitting, no dependencies, fully deterministic
(ties resolve by insertion order).  The history lives as long as the
object the caller passes to each cycle; nothing is written to disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.tuning.knobs import KnobSpace
from repro.tuning.tracker import TrackedQuery

#: Signature mismatch is worth this many units of (normalized) knob
#: distance — observations from a very different workload still carry
#: *some* information about the knob space's shape.
SIGNATURE_WEIGHT = 2.0
#: Distance floor in the inverse-distance weighting (an exact revisit
#: must not divide by zero).
EPSILON = 1.0e-6


def workload_signature(tracked: Sequence[TrackedQuery]) -> Tuple[float, ...]:
    """A coarse, comparable fingerprint of a tracked workload.

    Four dimensionless numbers, each roughly in [0, 1] for realistic
    workloads: log-compressed query count, log-compressed total work,
    arrival spread (mean arrival / span) and the coefficient of
    variation of per-query work (heavy-tailedness).
    """
    if not tracked:
        return (0.0, 0.0, 0.0, 0.0)
    works = [q.work for q in tracked]
    arrivals = [q.arrival_offset for q in tracked]
    total = sum(works)
    n = len(tracked)
    span = max(a + w for a, w in zip(arrivals, works))
    mean_arrival = sum(arrivals) / n
    mean_work = total / n
    variance = sum((w - mean_work) ** 2 for w in works) / n
    cv = math.sqrt(variance) / mean_work if mean_work > 0.0 else 0.0
    return (
        math.log10(1.0 + n) / 4.0,
        math.log10(1.0 + total) / 4.0,
        mean_arrival / span if span > 0.0 else 0.0,
        min(1.0, cv / 4.0),
    )


@dataclass
class HistoryEntry:
    """One observed evaluation: workload + knob vector -> cost."""

    signature: Tuple[float, ...]
    values: Dict[str, float]
    cost: float


class TuningHistory:
    """Append-only store of tuning observations with a k-NN surrogate."""

    def __init__(self) -> None:
        self.entries: List[HistoryEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(
        self,
        signature: Tuple[float, ...],
        values: Mapping[str, object],
        cost: float,
    ) -> HistoryEntry:
        """Store one observation (values are snapshotted)."""
        entry = HistoryEntry(
            signature=tuple(signature),
            values={k: float(v) for k, v in values.items()},
            cost=float(cost),
        )
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # The surrogate
    # ------------------------------------------------------------------
    def _distance(
        self,
        space: KnobSpace,
        signature: Tuple[float, ...],
        values: Mapping[str, object],
        entry: HistoryEntry,
    ) -> float:
        """Knob distance plus signature mismatch (see module docstring).

        Knobs absent from an old entry (the space has since grown) are
        skipped — distance is measured over the shared knobs only.
        """
        total = 0.0
        shared = 0
        for knob in space:
            if knob.name not in entry.values or knob.name not in values:
                continue
            a = knob.domain.normalize(knob.domain.clamp(values[knob.name]))
            b = knob.domain.normalize(
                knob.domain.clamp(entry.values[knob.name])
            )
            total += abs(a - b)
            shared += 1
        knob_distance = total / shared if shared else 1.0
        sig_distance = sum(
            abs(x - y) for x, y in zip(signature, entry.signature)
        ) / max(1, len(signature))
        return knob_distance + SIGNATURE_WEIGHT * sig_distance

    def predict(
        self,
        space: KnobSpace,
        signature: Tuple[float, ...],
        values: Mapping[str, object],
        k: int = 5,
    ) -> Optional[float]:
        """Distance-weighted k-NN cost estimate, or ``None`` if empty."""
        if not self.entries:
            return None
        scored = [
            (self._distance(space, signature, values, entry), index, entry)
            for index, entry in enumerate(self.entries)
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        nearest = scored[:k]
        weight_sum = 0.0
        estimate = 0.0
        for distance, _, entry in nearest:
            weight = 1.0 / (distance + EPSILON)
            weight_sum += weight
            estimate += weight * entry.cost
        return estimate / weight_sum

    def best_vectors(
        self,
        signature: Tuple[float, ...],
        space: KnobSpace,
        limit: int = 3,
    ) -> List[Dict[str, float]]:
        """The lowest-cost historical vectors, nearest workloads first.

        Used to bootstrap the search: the best configurations of similar
        past workloads are strong opening candidates.  Sorted by
        ``(cost, signature distance, insertion order)``.
        """
        if not self.entries:
            return []
        scored = []
        for index, entry in enumerate(self.entries):
            sig_distance = sum(
                abs(x - y) for x, y in zip(signature, entry.signature)
            ) / max(1, len(signature))
            scored.append((entry.cost, sig_distance, index, entry))
        scored.sort(key=lambda item: (item[0], item[1], item[2]))
        out: List[Dict[str, float]] = []
        seen = set()
        for _, _, _, entry in scored:
            key = tuple(sorted(entry.values.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append(dict(entry.values))
            if len(out) >= limit:
                break
        return out

"""Lightweight workload tracking on a single worker (§4, Figure 6).

Because the workload is symmetric across worker threads, tracking a
single worker suffices — this is what makes tuning cheap on highly
parallel machines (Figure 10: the relative tuning overhead *drops* as
cores are added).  The tracker "only logs the execution time spent on
each of the active resource groups": per resource group we accumulate
the CPU time this worker spent on it, plus the group's arrival offset
within the tracking window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.resource_group import ResourceGroup
from repro.metrics.latency import LatencyRecord


@dataclass
class TrackedQuery:
    """One resource group as observed during a tracking window."""

    group_id: int
    name: str
    scale_factor: float
    #: Arrival relative to the window start (0 for pre-existing groups).
    arrival_offset: float
    #: CPU seconds the tracked worker spent on this group.
    work: float

    @property
    def base_latency(self) -> float:
        """The group's latency if it ran alone on the tracked worker.

        The tracked work itself serves as the baseline of the reduced
        single-worker scheduling problem the optimizer solves.
        """
        return self.work


class WorkloadTracker:
    """Accumulates per-resource-group execution time on one worker."""

    def __init__(self) -> None:
        self._window_start = 0.0
        self._entries: Dict[int, TrackedQuery] = {}
        self.active = False

    @property
    def window_start(self) -> float:
        """Virtual time at which the current window began."""
        return self._window_start

    def start(self, now: float) -> None:
        """Begin a fresh tracking window at ``now``."""
        self._window_start = now
        self._entries = {}
        self.active = True

    def stop(self) -> None:
        """End the window; the collected snapshot stays readable."""
        self.active = False

    def record(self, group: ResourceGroup, duration: float) -> None:
        """Log ``duration`` seconds of work on ``group``."""
        if not self.active or duration <= 0.0:
            return
        entry = self._entries.get(group.query_id)
        if entry is None:
            entry = TrackedQuery(
                group_id=group.query_id,
                name=group.query.name,
                scale_factor=group.query.scale_factor,
                arrival_offset=max(0.0, group.arrival_time - self._window_start),
                work=0.0,
            )
            self._entries[group.query_id] = entry
        entry.work += duration

    def snapshot(self) -> List[TrackedQuery]:
        """The tracked queries, ordered by arrival offset."""
        return sorted(self._entries.values(), key=lambda e: (e.arrival_offset, e.group_id))

    def __len__(self) -> int:
        return len(self._entries)


def tracked_from_records(
    records: Iterable[LatencyRecord], n_workers: int
) -> List[TrackedQuery]:
    """Completed queries as a §4 tracked workload (single-worker form).

    Work is each record's CPU time divided by the worker count — the
    same one-worker reduction the tracker performs — and arrivals are
    offsets from the earliest completed arrival.  Shed and cancelled
    attempts are excluded.
    """
    records = [
        r
        for r in records
        if not r.failed and not r.cancelled and r.cpu_seconds > 0.0
    ]
    if not records:
        return []
    t0 = min(r.arrival_time for r in records)
    workers = max(1, n_workers)
    return [
        TrackedQuery(
            group_id=r.query_id,
            name=r.name,
            scale_factor=r.scale_factor,
            arrival_offset=r.arrival_time - t0,
            work=r.cpu_seconds / workers,
        )
        for r in sorted(records, key=lambda r: (r.arrival_time, r.query_id))
    ]

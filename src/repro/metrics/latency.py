"""Per-query latency records collected during simulation runs.

Besides the record/collector classes this module defines the *compact
wire format* used to move collectors between processes: a collector of N
records becomes a handful of flat numpy arrays (plus a small table of
distinct query names) instead of N pickled dataclass instances.  The
round trip is lossless — every float crosses as the identical 64-bit
pattern — which the parallel-sweep determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class LatencyRecord:
    """The outcome of one query in a workload run."""

    query_id: int
    name: str
    scale_factor: float
    arrival_time: float
    completion_time: float
    cpu_seconds: float
    #: Isolated-execution latency used as the slowdown baseline.  Which
    #: baseline (all-cores isolated for §5.2, single-threaded for §5.4)
    #: depends on the experiment and is filled in by the runner.
    base_latency: float = float("nan")
    #: Whether the query was cancelled instead of completing normally.
    #: Cancelled queries still complete through the finalization
    #: protocol, so they carry real completion times and CPU charges.
    cancelled: bool = False
    #: Whether the query failed (morsel exception, injected fault,
    #: missed deadline, dead worker).  Failed queries also wind down
    #: through the finalization protocol and carry real timings.
    failed: bool = False
    #: ``"ClassName: message"`` for failed queries (empty otherwise);
    #: see :func:`repro.errors.error_from_text` for the inverse mapping.
    error: str = ""

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds."""
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """Relative slowdown with respect to the base latency."""
        return self.latency / self.base_latency

    def with_base(self, base_latency: float) -> "LatencyRecord":
        """Return a copy with the slowdown baseline filled in."""
        return LatencyRecord(
            query_id=self.query_id,
            name=self.name,
            scale_factor=self.scale_factor,
            arrival_time=self.arrival_time,
            completion_time=self.completion_time,
            cpu_seconds=self.cpu_seconds,
            base_latency=base_latency,
            cancelled=self.cancelled,
            failed=self.failed,
            error=self.error,
        )


class LatencyCollector:
    """Accumulates latency records and offers grouped views."""

    def __init__(self) -> None:
        self._records: List[LatencyRecord] = []

    def add(self, record: LatencyRecord) -> None:
        """Store one finished query."""
        self._records.append(record)

    @property
    def records(self) -> List[LatencyRecord]:
        """All records in completion order."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def filter(self, predicate: Callable[[LatencyRecord], bool]) -> List[LatencyRecord]:
        """Records matching a predicate."""
        return [r for r in self._records if predicate(r)]

    def by_scale_factor(self) -> Dict[float, List[LatencyRecord]]:
        """Group records by TPC-H scale factor (the SF3/SF30 split)."""
        groups: Dict[float, List[LatencyRecord]] = {}
        for record in self._records:
            groups.setdefault(record.scale_factor, []).append(record)
        return groups

    def by_query(self) -> Dict[str, List[LatencyRecord]]:
        """Group records by query name."""
        groups: Dict[str, List[LatencyRecord]] = {}
        for record in self._records:
            groups.setdefault(record.name, []).append(record)
        return groups

    def queries_per_second(self, duration: float) -> float:
        """Completed-query throughput over a run of ``duration`` seconds."""
        if duration <= 0.0:
            return 0.0
        return len(self._records) / duration

    def apply_bases(self, bases: Dict[str, float]) -> "LatencyCollector":
        """Return a new collector whose records carry base latencies.

        ``bases`` maps a query key (``f"{name}@{scale_factor}"``) to the
        isolated latency measured for that query.
        """
        out = LatencyCollector()
        for record in self._records:
            key = f"{record.name}@{record.scale_factor:g}"
            base = bases.get(key)
            out.add(record.with_base(base) if base is not None else record)
        return out

    # ------------------------------------------------------------------
    # Compact wire format (process-pool handoff)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Encode all records as flat arrays plus a name table.

        The payload holds one ``int64`` array (query ids), one ``int32``
        array of indices into the distinct-name table, and five
        ``float64`` arrays — ~48 bytes per record on the wire, versus a
        full pickled dataclass instance each.  ``float64`` is exactly
        Python's float, so every value (including NaN base latencies)
        round-trips bit-for-bit.
        """
        import numpy as np

        records = self._records
        names: List[str] = []
        name_index: Dict[str, int] = {}
        name_ids = np.empty(len(records), dtype=np.int32)
        for i, record in enumerate(records):
            idx = name_index.get(record.name)
            if idx is None:
                idx = len(names)
                name_index[record.name] = idx
                names.append(record.name)
            name_ids[i] = idx
        return {
            "names": names,
            "name_ids": name_ids,
            "query_ids": np.array(
                [r.query_id for r in records], dtype=np.int64
            ),
            "scale_factors": np.array(
                [r.scale_factor for r in records], dtype=np.float64
            ),
            "arrival_times": np.array(
                [r.arrival_time for r in records], dtype=np.float64
            ),
            "completion_times": np.array(
                [r.completion_time for r in records], dtype=np.float64
            ),
            "cpu_seconds": np.array(
                [r.cpu_seconds for r in records], dtype=np.float64
            ),
            "base_latencies": np.array(
                [r.base_latency for r in records], dtype=np.float64
            ),
            "cancelled": np.array(
                [r.cancelled for r in records], dtype=np.bool_
            ),
            "failed": np.array(
                [r.failed for r in records], dtype=np.bool_
            ),
            # Error texts are almost always empty; a plain list keeps
            # the (rare) non-empty strings lossless on the wire.
            "errors": [r.error for r in records],
        }

    @classmethod
    def from_arrays(cls, payload: dict) -> "LatencyCollector":
        """Inverse of :meth:`to_arrays` (lossless)."""
        out = cls()
        names = payload["names"]
        name_ids = payload["name_ids"]
        query_ids = payload["query_ids"]
        scale_factors = payload["scale_factors"]
        arrivals = payload["arrival_times"]
        completions = payload["completion_times"]
        cpu = payload["cpu_seconds"]
        bases = payload["base_latencies"]
        cancelled = payload["cancelled"]
        failed = payload["failed"]
        errors = payload["errors"]
        add = out.add
        for i in range(len(query_ids)):
            add(
                LatencyRecord(
                    query_id=int(query_ids[i]),
                    name=names[name_ids[i]],
                    scale_factor=float(scale_factors[i]),
                    arrival_time=float(arrivals[i]),
                    completion_time=float(completions[i]),
                    cpu_seconds=float(cpu[i]),
                    base_latency=float(bases[i]),
                    cancelled=bool(cancelled[i]),
                    failed=bool(failed[i]),
                    error=errors[i],
                )
            )
        return out


def query_key(name: str, scale_factor: float) -> str:
    """Canonical key used to look up base latencies."""
    return f"{name}@{scale_factor:g}"

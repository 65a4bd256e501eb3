"""Per-query latency records collected during simulation runs.

A collector pickles itself through the one wire codec
(:mod:`repro.wire`): N records cross the process pipe as a handful of
flat numpy columns plus a table of distinct query names, instead of N
pickled dataclass instances.  The round trip is lossless — every float
crosses as the identical 64-bit pattern — which the parallel-sweep
determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, List

from repro.wire import OBJECT, TABLE, Schema, decode_columns, encode_columns


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
    # Wire format (process-pool handoff)
    # ------------------------------------------------------------------
    def to_arrays(self) -> list:
        """Encode all records through :mod:`repro.wire` (bit-lossless)."""
        return encode_columns(map(_RECORD_ROW, self._records), RECORD_SCHEMA)

    @classmethod
    def from_arrays(cls, payload: list) -> "LatencyCollector":
        """Inverse of :meth:`to_arrays`."""
        out = cls()
        out._records = decode_columns(payload, RECORD_SCHEMA, LatencyRecord)
        return out

    def __reduce__(self):
        # Pickling (the pool's pipe included) ships the flat columns.
        return type(self).from_arrays, (self.to_arrays(),)


#: One row per record, in :class:`LatencyRecord` field order: ~54 bytes
#: a record on the wire instead of a pickled dataclass instance each.
RECORD_SCHEMA = Schema(
    ("int64", TABLE, "float64", "float64", "float64", "float64", "float64",
     "bool", "bool", OBJECT)
)
_RECORD_ROW = attrgetter(*(f.name for f in fields(LatencyRecord)))


def query_key(name: str, scale_factor: float) -> str:
    """Canonical key used to look up base latencies."""
    return f"{name}@{scale_factor:g}"

"""Exporting experiment results for downstream analysis.

Every experiment driver produces plain ``rows`` (lists of dicts); these
helpers write them as CSV or JSON so results can be plotted or diffed
outside Python.  Latency records and execution traces get dedicated
writers because they are the most common raw exports.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Mapping, Sequence, Union

from repro.metrics.latency import LatencyRecord
from repro.runtime.trace import MorselSpan

PathLike = Union[str, Path]


def rows_to_csv(rows: Sequence[Mapping], path: PathLike) -> Path:
    """Write experiment rows (list of dicts) to a CSV file.

    The header is the union of all keys in first-seen order, so rows
    with heterogeneous keys export cleanly (missing cells stay empty).
    """
    path = Path(path)
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row))
    return path


def rows_to_json(rows: Sequence[Mapping], path: PathLike) -> Path:
    """Write experiment rows to a JSON file (list of objects)."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump([dict(row) for row in rows], handle, indent=2, default=str)
    return path


def latency_records_to_csv(
    records: Iterable[LatencyRecord], path: PathLike
) -> Path:
    """Write raw latency records (one row per completed query)."""
    rows = [
        {
            "query_id": r.query_id,
            "name": r.name,
            "scale_factor": r.scale_factor,
            "arrival_time": r.arrival_time,
            "completion_time": r.completion_time,
            "latency": r.latency,
            "cpu_seconds": r.cpu_seconds,
            "base_latency": r.base_latency,
            "slowdown": r.slowdown,
        }
        for r in records
    ]
    return rows_to_csv(rows, path)


def sharing_stats_rows(stats, label: str = "total") -> List[dict]:
    """One export row per work-sharing counter surface.

    ``stats`` is a :class:`~repro.sharing.SharingStats` (server) or any
    object with ``as_dict()``; pass several labelled surfaces (e.g. one
    per shard plus the cluster total) by calling this per surface and
    concatenating.
    """
    row = {"surface": label}
    row.update(stats.as_dict())
    return [row]


def sharing_stats_to_csv(
    surfaces: Mapping[str, object], path: PathLike
) -> Path:
    """Write labelled work-sharing counters (label -> stats) as CSV.

    Rows are emitted in sorted-label order so exports are deterministic
    regardless of how the mapping was built.
    """
    rows: List[dict] = []
    for label in sorted(surfaces):
        rows.extend(sharing_stats_rows(surfaces[label], label))
    return rows_to_csv(rows, path)


def trace_to_csv(spans: Iterable[MorselSpan], path: PathLike) -> Path:
    """Write morsel/task spans (e.g. for external Gantt rendering)."""
    rows = [
        {
            "worker_id": s.worker_id,
            "start": s.start,
            "end": s.end,
            "duration": s.duration,
            "query_id": s.query_id,
            "pipeline_index": s.pipeline_index,
            "phase": s.phase,
            "tuples": s.tuples,
        }
        for s in spans
    ]
    return rows_to_csv(rows, path)

"""The hand-written pipe encoders the one wire codec replaced — kept as
the references ``tests/test_wire.py`` compares against.

* :func:`workload_to_arrays` / :func:`workload_from_arrays` are the
  previous ``repro.workloads.serialize`` functions verbatim;
* :func:`records_to_arrays` / :func:`records_from_arrays` are the
  previous ``LatencyCollector.to_arrays`` / ``from_arrays`` as functions;
* :func:`chunks_to_arrays` / :func:`chunks_from_arrays` are the previous
  ``repro.runtime.channel`` functions verbatim;
* :func:`encode_outcome` / :func:`decode_outcome` are the previous
  ``repro.experiments.pool`` functions, over the record functions above.

Their decoders index the tables without a range check, which is the
defect the codec fixed: a negative id decodes to a row from the end.
"""

from typing import Dict, List

import numpy as np

from repro.errors import WorkloadError
from repro.experiments.parallel import CellOutcome
from repro.metrics.latency import LatencyCollector, LatencyRecord
from repro.runtime.channel import ResultChunk


def workload_to_arrays(workload) -> dict:
    specs = []
    spec_index: dict = {}
    arrivals = np.empty(len(workload), dtype=np.float64)
    indices = np.empty(len(workload), dtype=np.int32)
    for i, (arrival, query) in enumerate(workload):
        index = spec_index.get(query)
        if index is None:
            index = len(specs)
            spec_index[query] = index
            specs.append(query)
        arrivals[i] = arrival
        indices[i] = index
    return {"specs": specs, "arrivals": arrivals, "indices": indices}


def workload_from_arrays(payload: dict):
    specs = payload["specs"]
    arrivals = payload["arrivals"]
    indices = payload["indices"]
    try:
        return [
            (float(arrivals[i]), specs[indices[i]])
            for i in range(len(arrivals))
        ]
    except IndexError:
        raise WorkloadError("corrupt workload payload: bad spec index") from None


def records_to_arrays(collector: LatencyCollector) -> dict:
    records = collector.records
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
        "query_ids": np.array([r.query_id for r in records], dtype=np.int64),
        "scale_factors": np.array(
            [r.scale_factor for r in records], dtype=np.float64
        ),
        "arrival_times": np.array(
            [r.arrival_time for r in records], dtype=np.float64
        ),
        "completion_times": np.array(
            [r.completion_time for r in records], dtype=np.float64
        ),
        "cpu_seconds": np.array([r.cpu_seconds for r in records], dtype=np.float64),
        "base_latencies": np.array(
            [r.base_latency for r in records], dtype=np.float64
        ),
        "cancelled": np.array([r.cancelled for r in records], dtype=np.bool_),
        "failed": np.array([r.failed for r in records], dtype=np.bool_),
        "errors": [r.error for r in records],
    }


def records_from_arrays(payload: dict) -> LatencyCollector:
    out = LatencyCollector()
    names = payload["names"]
    for i in range(len(payload["query_ids"])):
        out.add(
            LatencyRecord(
                query_id=int(payload["query_ids"][i]),
                name=names[payload["name_ids"][i]],
                scale_factor=float(payload["scale_factors"][i]),
                arrival_time=float(payload["arrival_times"][i]),
                completion_time=float(payload["completion_times"][i]),
                cpu_seconds=float(payload["cpu_seconds"][i]),
                base_latency=float(payload["base_latencies"][i]),
                cancelled=bool(payload["cancelled"][i]),
                failed=bool(payload["failed"][i]),
                error=payload["errors"][i],
            )
        )
    return out


def chunks_to_arrays(chunks: List[ResultChunk]) -> list:
    return [(chunk.kind, chunk.payload, chunk.rows) for chunk in chunks]


def chunks_from_arrays(payload: list) -> List[ResultChunk]:
    return [ResultChunk(kind, data, rows) for kind, data, rows in payload]


def encode_outcome(outcome: CellOutcome) -> dict:
    return {
        "records": records_to_arrays(outcome.records),
        "tasks_executed": outcome.tasks_executed,
        "events_processed": outcome.events_processed,
        "total_overhead_percent": outcome.total_overhead_percent,
        "end_time": outcome.end_time,
    }


def decode_outcome(payload: dict) -> CellOutcome:
    return CellOutcome(
        records=records_from_arrays(payload["records"]),
        tasks_executed=payload["tasks_executed"],
        events_processed=payload["events_processed"],
        total_overhead_percent=payload["total_overhead_percent"],
        end_time=payload["end_time"],
    )

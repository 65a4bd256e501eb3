"""Workload handoff between processes.

The warm sweep pool and the process execution backend ship a workload
through the one wire codec (:mod:`repro.wire`): a workload of thousands
of arrivals referencing a handful of distinct query specs becomes one
``float64`` arrival array, one ``int32`` spec-id array and a small spec
table deduplicated by value — instead of one pickled
``(float, QuerySpec)`` tuple per arrival.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.specs import QuerySpec
from repro.errors import WorkloadError
from repro.wire import TABLE, Schema, decode_columns, encode_columns

Workload = List[Tuple[float, QuerySpec]]

#: ``(arrival time, query spec)`` rows.
WORKLOAD_SCHEMA = Schema(("float64", TABLE), WorkloadError)


def workload_to_arrays(workload: Workload) -> list:
    """Encode a workload for the pipe (bit-lossless)."""
    return encode_columns(workload, WORKLOAD_SCHEMA)


def workload_from_arrays(payload: list) -> Workload:
    """Inverse of :func:`workload_to_arrays`."""
    return decode_columns(payload, WORKLOAD_SCHEMA, lambda *row: row)

"""Correctness checks the workloads run on every output they read.

Engine results are compared with a single-query reference computed on
the ``simulated`` backend: tables row-identical, floats within
``rtol=1e-9`` (morsel boundaries differ between backends, so partial
sums associate differently in the last digits).
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

RTOL = 1.0e-9


def same_result(got, want, rtol: float = RTOL) -> bool:
    """Whether two query results are equal up to float rounding."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return False
        return all(same_result(got[name], want[name], rtol) for name in want)
    if isinstance(want, np.ndarray):
        if not isinstance(got, np.ndarray) or got.shape != want.shape:
            return False
        if want.dtype.kind == "f":
            return bool(np.allclose(got, want, rtol=rtol, atol=0.0))
        return bool(np.array_equal(got, want))
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return False
        return all(same_result(g, w, rtol) for g, w in zip(got, want))
    if isinstance(want, (float, np.floating)):
        return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0)
    return bool(got == want)


def count_rows(result) -> int:
    """Rows in one query result (a scalar counts as one row)."""
    if isinstance(result, dict):
        for column in result.values():
            if isinstance(column, np.ndarray):
                return int(len(column))
        return 1
    if isinstance(result, (list, tuple)):
        return len(result)
    return 1


def engine_references(names: Iterable[str], scale_factor: float) -> Dict[str, object]:
    """One reference result per engine query shape, each run alone."""
    from repro.server import AnalyticsServer

    server = AnalyticsServer(
        scale_factor=scale_factor,
        backend="simulated",
        environment="engine",
        n_workers=1,
        scheduler="fair",
    )
    references: Dict[str, object] = {}
    try:
        for name in names:
            ticket = server.submit(name)
            server.drain()
            references[name] = server.result(ticket)
    finally:
        server.shutdown()
    return references


def records_digest(records: Iterable) -> str:
    """A digest over the exact bits of a run's latency records.

    Two runs whose records hash equal made the same scheduling decisions
    at the same virtual times — the bit-for-bit statement the tracer's
    behaviour-preservation check and the repeat check rest on.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.name.encode())
        digest.update(
            struct.pack(
                "<dddd??",
                record.scale_factor,
                record.arrival_time,
                record.completion_time,
                record.cpu_seconds,
                record.cancelled,
                record.failed,
            )
        )
    return digest.hexdigest()[:16]


def outcome_class(read_record, read_failure, ticket) -> str:
    """The terminal outcome class of one ticket.

    ``ok``, ``cancelled``, ``timeout``, ``shed``, ``fault`` (an injected
    fault that outlived its retries) — or ``pending`` / ``other:<type>``,
    which no workload plans and which therefore count as failed ops.
    """
    record = read_record(ticket)
    if record is None:
        return "pending"
    if record.cancelled:
        return "cancelled"
    if not record.failed:
        return "ok"
    kind = type(read_failure(ticket)).__name__
    return {
        "QueryTimeoutError": "timeout",
        "AdmissionError": "shed",
        "InjectedFault": "fault",
    }.get(kind, f"other:{kind}")


def histogram(classes: Iterable[str]) -> List[Tuple[str, int]]:
    """Sorted ``(class, count)`` pairs."""
    return sorted(Counter(classes).items())


def read_results(server, tickets: Sequence) -> List[object]:
    """Every ticket's result, or the exception reading it raised.

    Reading belongs to the timed region (a query counts once its result
    is read); comparing does not, so the two are separate steps.
    """
    results: List[object] = []
    for ticket in tickets:
        try:
            results.append(server.result(ticket))
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            results.append(exc)
    return results


def check_results(rep, names: Sequence[str], results: Sequence[object],
                  references: Dict[str, object]) -> int:
    """Count one op per result against its reference; returns the rows read."""
    rows = 0
    for name, result in zip(names, results):
        if isinstance(result, Exception):
            rep.op(False, f"{name}: {type(result).__name__}: {result}")
            continue
        rep.op(same_result(result, references[name]), f"{name}: result differs")
        rows += count_rows(result)
    return rows

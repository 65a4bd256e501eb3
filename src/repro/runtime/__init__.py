"""The runtime layer: clocks, execution backends, trace recording.

This package is the seam between the scheduling policies of
:mod:`repro.core` and the substrate that executes them.  Schedulers are
driven through ``admit`` / ``worker_decide`` / ``worker_finish`` and
never know whether time is virtual or real:

* :class:`SimulatedBackend` drives them from the discrete-event
  simulator in virtual time (bit-identical to the pre-runtime-layer
  code path — every figure of the paper is reproduced on it);
* :class:`ThreadedBackend` drives the *same* scheduler objects from
  real OS worker threads, making the atomics and the §2.3 finalization
  protocol genuinely concurrent;
* :class:`ProcessBackend` is a :class:`SimulatedBackend` that executes
  each drain epoch in a warm worker process of the shared sweep pool,
  so CPU-bound engine/simulator work runs without holding the
  submitting process's GIL; folds and the fragment cache stay on the
  one epoch loop in this process.

Results flow through one bounded :class:`ResultChannel` per job:
``submit`` returns a :class:`QueryHandle` cursor over the stream of
:class:`ResultChunk` row batches, and ``drain()`` absorbs unconsumed
streams so ``result(job_id)`` can assemble the value on demand.

The :class:`~repro.server.AnalyticsServer` selects a backend by name
and layers online submission semantics on top.
"""

from repro.runtime.admission import (
    ADMISSION_POLICIES,
    BULK,
    DEFAULT_SLA_CLASSES,
    LATENCY_CRITICAL,
    AdmissionPolicy,
    AdmissionRequest,
    BlockingAdmission,
    RejectingAdmission,
    SheddingAdmission,
    SlaClass,
    make_admission_policy,
)
from repro.runtime.backend import BackendState, ExecutionBackend
from repro.runtime.channel import (
    DEFAULT_CHANNEL_CAPACITY,
    NO_RESULT,
    STREAMED,
    ResultChannel,
    ResultChunk,
    assemble_chunks,
)
from repro.runtime.clock import Clock, VirtualClock, WallClock
from repro.runtime.handle import QueryHandle
from repro.runtime.tickets import ShardAddress, TicketRegistry, TicketState
from repro.runtime.trace import MorselSpan, TraceRecorder, merge_adjacent_spans

_LAZY_BACKENDS = {
    "ProcessBackend": "repro.runtime.process",
    "SimulatedBackend": "repro.runtime.simulated",
    "ThreadedBackend": "repro.runtime.threaded",
}


def __getattr__(name: str):
    # The concrete backends import the scheduler base, which itself
    # imports this package for Clock/TraceRecorder; loading them lazily
    # (PEP 562) breaks that cycle.
    module_name = _LAZY_BACKENDS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "AdmissionRequest",
    "BULK",
    "BackendState",
    "BlockingAdmission",
    "Clock",
    "DEFAULT_CHANNEL_CAPACITY",
    "DEFAULT_SLA_CLASSES",
    "ExecutionBackend",
    "LATENCY_CRITICAL",
    "MorselSpan",
    "NO_RESULT",
    "ProcessBackend",
    "QueryHandle",
    "RejectingAdmission",
    "ResultChannel",
    "ResultChunk",
    "STREAMED",
    "ShardAddress",
    "SheddingAdmission",
    "SimulatedBackend",
    "SlaClass",
    "ThreadedBackend",
    "TicketRegistry",
    "TicketState",
    "TraceRecorder",
    "VirtualClock",
    "WallClock",
    "assemble_chunks",
    "make_admission_policy",
    "merge_adjacent_spans",
]

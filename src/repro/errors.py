"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.

Errors carry a ``transient`` class attribute used by the retry machinery
in :class:`~repro.server.AnalyticsServer`: transient failures (injected
faults, dead workers) are safe to re-execute, permanent ones (a malformed
plan, a missed deadline, an admission rejection) are not.
"""

__all__ = [
    "ReproError",
    "SchedulerError",
    "SlotError",
    "SimulationError",
    "AdmissionError",
    "TenantQuotaError",
    "QueryCancelledError",
    "QueryFailedError",
    "QueryTimeoutError",
    "ChannelClosedError",
    "UnknownTicketError",
    "WorkerFailedError",
    "WorkerDiedError",
    "InjectedFault",
    "EngineError",
    "PlanError",
    "WorkloadError",
    "CalibrationError",
    "TuningError",
    "error_from_text",
    "error_text",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Whether re-executing the failed query may plausibly succeed.
    #: Consulted by the server's retry machinery; see the module docstring.
    transient = False


class SchedulerError(ReproError):
    """Raised when a scheduler is driven through an invalid transition.

    Examples include admitting a resource group twice, finalizing a task
    set that still has pinned workers, or stepping a worker that does not
    belong to the scheduler.
    """


class SlotError(SchedulerError):
    """Raised on invalid global-slot-array operations (e.g. double install)."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class AdmissionError(ReproError):
    """Raised when a submission is rejected by admission control.

    The :class:`~repro.server.AnalyticsServer` raises this when its
    bounded wait queue is full and the admission policy is ``"reject"``
    — explicit backpressure the caller is expected to handle (retry
    later, shed the query, or drain first).
    """


class TenantQuotaError(AdmissionError):
    """Raised when a submission exceeds its *tenant's* admission quota.

    A subclass of :class:`AdmissionError` so existing backpressure
    handlers keep working, but machine-distinguishable: a cluster
    router (or a tenant-aware client) can tell "this tenant is over its
    own budget" apart from "the shard as a whole is full" and react
    differently — throttle the tenant instead of retrying elsewhere,
    where a capacity rejection would justify re-routing.
    """


class QueryCancelledError(ReproError):
    """Raised when the result of a cancelled query is accessed.

    ``QueryHandle.cancel()`` tags the query's task sets as exhausted so
    the §2.3 finalization protocol winds the query down through the
    normal completion path; afterwards every attempt to fetch or read
    its result raises this error.  The latency record survives (with
    ``cancelled=True``) so throughput accounting stays consistent.
    """


class QueryFailedError(ReproError):
    """Raised when the result of a failed query is accessed.

    An exception inside a morsel (an engine bug, an injected fault, a
    dead worker) fails *only* that query: its task sets are drained and
    wound down through the same §2.3 finalization path cancellation
    uses, its channel is failed so consumers wake, its slot is freed,
    and a latency record with ``failed=True`` plus the captured error
    text survives.  ``QueryHandle.fetch()`` / ``result()`` and
    ``AnalyticsServer.result()`` raise this error afterwards; the
    original exception is attached as ``__cause__`` where it is
    available in-process.
    """


class QueryTimeoutError(ReproError):
    """Raised when a query misses its submission deadline.

    ``submit(..., deadline=...)`` arms a per-query deadline measured
    from arrival.  Expiry is detected inside the scheduler (a single
    float compare per decision, identical in virtual and wall time) and
    the query is wound down through the failure path with this error.
    Deadline misses are permanent: re-running the same query under the
    same deadline would time out again, so they are never retried.
    """


class ChannelClosedError(ReproError):
    """Raised when a closed :class:`~repro.runtime.channel.ResultChannel`
    is written to.

    Producers see this when they ``put`` into a channel whose consumer
    side has gone away without a cancellation (a shutdown mid-stream);
    consumers never see it — a closed channel simply ends iteration.
    """


class UnknownTicketError(ReproError):
    """Raised when a backend is asked about a ticket it never issued."""


class WorkerFailedError(ReproError):
    """Raised when an execution worker failed outside any single query.

    Covers worker threads dying on scheduler-invariant violations and
    process-pool workers lost to ``BrokenProcessPool``.  Transient: the
    queries in flight on the failed worker are safe to re-execute.
    """

    transient = True


class WorkerDiedError(WorkerFailedError):
    """Raised inside a worker to simulate (or report) its own death.

    The scheduler first fails the query the worker was executing, then
    re-raises this error so the hosting backend can retire the worker —
    the :class:`~repro.runtime.threaded.ThreadedBackend` respawns a
    replacement thread, the process backend rebuilds its pool.
    """


class InjectedFault(ReproError):
    """Raised by deterministic fault injection (``repro.runtime.faults``).

    Marks a failure as *synthetic*: chaos tests assert on it and the
    retry machinery treats it as transient.
    """

    transient = True


class EngineError(ReproError):
    """Raised by the mini columnar engine (unknown column, bad plan, ...)."""


class PlanError(EngineError):
    """Raised when a query plan is malformed or references missing tables."""


class WorkloadError(ReproError):
    """Raised for invalid workload specifications (bad mix weights, ...)."""


class CalibrationError(ReproError):
    """Raised when load calibration cannot find a feasible arrival rate."""


class TuningError(ReproError):
    """Raised by the self-tuning optimizer on invalid parameter spaces."""


def error_text(exc: BaseException) -> str:
    """The ``"ClassName: message"`` form :func:`error_from_text` reads."""
    return f"{type(exc).__name__}: {exc}"


def error_from_text(text: str) -> ReproError:
    """Reconstruct a library error from its ``"ClassName: message"`` form.

    Failure records carry the error as a plain string (``LatencyRecord``
    stays a flat, picklable dataclass and failures must survive the
    process-pool pipe).  This maps the leading class name back onto the
    hierarchy above so retry classification (``transient``) works on
    records that crossed a process boundary; unknown class names fall
    back to a plain :class:`ReproError`.
    """
    name, _, message = text.partition(":")
    cls = globals().get(name.strip())
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
        message = text
    return cls(message.strip())

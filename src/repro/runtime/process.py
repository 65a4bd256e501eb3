"""The process execution backend: virtual-time epochs, GIL-free.

:class:`ProcessBackend` presents the same online lifecycle as the other
backends but executes each drain *epoch* in a warm worker process of the
shared sweep pool (:mod:`repro.experiments.pool`).  The submitting
process never holds the GIL for engine or simulator work — it ships a
compact workload payload, the worker runs the epoch through the exact
:class:`~repro.runtime.simulated.SimulatedBackend` code path, and the
latency records come back as flat arrays, both through the one wire
codec (:mod:`repro.wire`).  Results are therefore bit-identical to the
simulated backend on the same submissions.

Worker-side warm state: everything the epoch needs that is expensive to
build crosses as *parameters*, not objects.  The scheduler is
constructed in the worker from a picklable factory
(``functools.partial(make_scheduler, name, config)``), and the engine
environment of the :class:`~repro.server.AnalyticsServer` is built from
``(scale_factor, seed)`` against a per-worker memoized TPC-H database
(:func:`engine_environment_factory`) — generated once per worker per
profile, reused by every later epoch, exactly like the engine
calibration cache.

Lifecycle notes:

* ``submit(spec, at=...)`` takes virtual arrival times, like the
  simulated backend;
* ``drain()`` runs one epoch remotely and blocks for its results;
* ``shutdown()`` drops pending submissions but leaves the shared pool
  running for other users (a privately passed pool is also left to its
  owner).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from typing import Callable, List, Optional

from repro.errors import WorkerFailedError, error_text
from repro.metrics.latency import LatencyRecord
from repro.runtime.backend import EpochBackend
from repro.runtime.channel import (
    DEFAULT_CHANNEL_CAPACITY,
    FINAL,
    chunks_from_arrays,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.faults import WORKER_DEATH


# ----------------------------------------------------------------------
# Worker-side epoch execution (module level: picklable)
# ----------------------------------------------------------------------
def _execute_epoch(payload: dict) -> dict:
    """Run one virtual-time epoch in this (worker) process."""
    from repro.runtime.channel import STREAMED, ResultChannel, chunks_to_arrays
    from repro.runtime.simulated import SimulatedBackend
    from repro.workloads.serialize import workload_from_arrays

    workload = workload_from_arrays(payload["workload"])
    backend = SimulatedBackend(
        payload["scheduler_factory"],
        seed=payload["seed"],
        noise_sigma=payload["noise_sigma"],
        max_time=payload["max_time"],
    )
    environment_factory = payload["environment_factory"]
    environment = environment_factory() if environment_factory else None
    injector = None
    plan = payload.get("fault_plan")
    if plan is not None:
        spent = set(payload.get("fault_spent", ()))
        if payload.get("attempt", 0) == 0 and any(
            fault.kind == WORKER_DEATH and index not in spent
            for index, fault in enumerate(plan.faults)
        ):
            # Injected worker death at process level: this epoch worker
            # dies abruptly, the submitting side sees a broken pool and
            # exercises the rebuild-and-retry path.  Only the first
            # attempt dies — the retry marks the fault spent.
            import os

            os._exit(23)
        # Worker deaths are process-level here, never morsel-level: the
        # wrapped environment skips them so the retried epoch does not
        # also fail the target query.
        injector = backend.install_faults(
            plan, spent=spent, skip_kinds=(WORKER_DEATH,)
        )
        environment = backend._wrap_environment(environment)
    # Worker-side result channels, one per query (the scheduler numbers
    # resource groups in arrival order, so arrival index == query id).
    channels = {}
    open_channel = getattr(environment, "open_channel", None)
    if open_channel is not None:
        for arrival_index in range(len(workload)):
            channel = ResultChannel(
                payload.get("channel_capacity", DEFAULT_CHANNEL_CAPACITY)
            )
            channels[arrival_index] = channel
            open_channel(arrival_index, channel)
    result = backend.execute(workload, environment=environment)
    results = {}
    chunks = {}
    finish_query = getattr(environment, "finish_query", None)
    discard_query = getattr(environment, "discard_query", None)
    for record in result.records.records:
        if record.failed:
            # Failure isolation: drop the failed query's plan state and
            # ship nothing for it — the record's error text is the
            # authoritative cause on the other side of the pipe.
            if discard_query is not None:
                discard_query(record.query_id)
            continue
        if finish_query is None:
            continue
        value = finish_query(record.query_id)
        if value is STREAMED:
            # The channel holds the result: ship its chunks as flat
            # arrays so pickle-5 keeps every column buffer
            # out-of-band, preserving the chunk boundaries instead
            # of collapsing the stream into one terminal blob.
            channel = channels[record.query_id]
            channel.close()
            chunks[record.query_id] = chunks_to_arrays(list(channel))
        else:
            results[record.query_id] = value
    out = {
        "records": result.records,
        "results": results,
        "chunks": chunks,
        "tasks_executed": result.tasks_executed,
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "faults_fired": injector.fired if injector is not None else [],
    }
    if payload["return_environment"]:
        out["environment"] = environment
    return out


#: Per-worker memoized TPC-H databases, keyed by (scale_factor, seed).
_DATABASE_MEMO: dict = {}


def _database_for(scale_factor: float, seed: int):
    """A worker-side TPC-H database, generated once per profile."""
    key = (scale_factor, seed)
    db = _DATABASE_MEMO.get(key)
    if db is None:
        from repro.engine.datagen import generate_tpch

        db = generate_tpch(scale_factor=scale_factor, seed=seed)
        _DATABASE_MEMO[key] = db
    return db


def engine_environment_factory(scale_factor: float, seed: int):
    """Build an :class:`~repro.engine.execution.EngineEnvironment` here.

    Used with ``functools.partial`` as a picklable environment factory:
    the database is *regenerated* in the worker from its deterministic
    ``(scale_factor, seed)`` profile (then memoized), so drains never
    ship the relation data across the pipe.
    """
    from repro.engine.execution import EngineEnvironment

    return EngineEnvironment(_database_for(scale_factor, seed))


def warm_engine_database(scale_factor: float, seed: int) -> int:
    """Pool warmup thunk: pre-generate a worker's database profile."""
    return len(_database_for(scale_factor, seed).tables)


class ProcessBackend(EpochBackend):
    """Run virtual-time epochs in warm worker processes (GIL-free)."""

    def __init__(
        self,
        scheduler_factory: Callable,
        *,
        seed: int = 0,
        noise_sigma: float = 0.05,
        environment_factory: Optional[Callable] = None,
        max_time: Optional[float] = None,
        return_environment: bool = False,
        pool=None,
        channel_capacity: int = DEFAULT_CHANNEL_CAPACITY,
        max_epoch_retries: int = 2,
    ) -> None:
        """``scheduler_factory`` and ``environment_factory`` must be
        picklable zero-argument callables (module-level functions or
        :func:`functools.partial` over them) — they are invoked in the
        worker process, never here.  ``return_environment`` ships the
        epoch's environment object back after each drain (it must then
        be picklable) and exposes it as :attr:`last_environment`.
        """
        super().__init__(
            scheduler_factory,
            seed=seed,
            noise_sigma=noise_sigma,
            environment_factory=environment_factory,
            max_time=max_time,
            channel_capacity=channel_capacity,
        )
        self._return_environment = return_environment
        self._pool = pool
        self._max_epoch_retries = max_epoch_retries
        #: Counters of the most recent epoch.
        self.last_tasks_executed = 0
        self.last_events_processed = 0
        #: How many times a broken worker pool was rebuilt (recovery).
        self.pool_rebuilds = 0

    # ------------------------------------------------------------------
    # ExecutionBackend contract
    # ------------------------------------------------------------------
    def _get_pool(self):
        if self._pool is not None:
            return self._pool
        from repro.experiments.pool import get_pool

        return get_pool()

    def _do_start(self) -> None:
        # Spawn (or attach to) the warm pool eagerly so the first drain
        # pays no startup cost.
        self._get_pool()

    def _do_drain(self) -> List[LatencyRecord]:
        finished, run = self._begin_epoch()
        if not run:
            return finished
        workload = [(arrival, spec) for arrival, spec, _ in run]
        from repro.workloads.serialize import workload_to_arrays

        injector = self._fault_injector
        attempt = 0
        while True:
            payload = {
                "scheduler_factory": self._scheduler_factory,
                "seed": self._seed,
                "noise_sigma": self._noise_sigma,
                "max_time": self._max_time,
                "environment_factory": self._environment_factory,
                "return_environment": self._return_environment,
                "channel_capacity": self.channel_capacity,
                "workload": workload_to_arrays(workload),
                "fault_plan": injector.plan if injector is not None else None,
                "fault_spent": tuple(sorted(injector.spent))
                if injector is not None
                else (),
                "attempt": attempt,
            }
            try:
                epoch = self._get_pool().call(_execute_epoch, payload)
                break
            except BrokenExecutor as exc:
                # A worker process died mid-epoch (injected or real).
                # The epoch is pure — nothing was applied locally — so
                # rebuild the pool and re-run it, bounded by
                # max_epoch_retries.
                attempt += 1
                if injector is not None:
                    # Planned deaths fired as a real process death;
                    # record them so the retry does not die again.
                    for index, fault in enumerate(injector.plan.faults):
                        if (
                            fault.kind == WORKER_DEATH
                            and index not in injector.spent
                        ):
                            injector.mark_fired(
                                index, fault.query or "", fault.morsel
                            )
                self._rebuild_pool()
                if attempt > self._max_epoch_retries:
                    error = WorkerFailedError(
                        f"epoch worker processes died {attempt} times; "
                        "giving up on this epoch"
                    )
                    error.__cause__ = exc
                    return finished + self._fail_epoch(run, error)
        self._merge_fired(injector, epoch.get("faults_fired", []))
        self._clock = VirtualClock(epoch["end_time"])
        self.last_tasks_executed = epoch["tasks_executed"]
        self.last_events_processed = epoch["events_processed"]
        self.last_environment = epoch.get("environment")
        results = epoch["results"]
        chunk_payloads = epoch.get("chunks", {})
        for record in epoch["records"].records:
            job_id = run[record.query_id][2]
            # A failed query ships nothing: the worker isolated it, and
            # _settle reconstructs the cause from the record's error
            # text (class identity is preserved for library errors).
            chunks = ()
            if record.query_id in results:
                # Materialized results cross as-is; replay them as one
                # terminal chunk so the handle can still fetch.
                value = self.results[job_id] = results[record.query_id]
                chunks = ((FINAL, value, 0),)
            elif record.query_id in chunk_payloads:
                # Streamed result: refill the local channel with the
                # worker's chunks.
                chunks = chunks_from_arrays(chunk_payloads[record.query_id])
            finished.append(self._settle(job_id, record, chunks=chunks))
        return finished

    # ------------------------------------------------------------------
    # Worker recovery
    # ------------------------------------------------------------------
    def _rebuild_pool(self) -> None:
        """Replace a broken worker pool with a fresh, equivalent one."""
        self.pool_rebuilds += 1
        if self._pool is not None:
            # A privately supplied pool: the broken executor cannot be
            # reused, so replace it in place with one of the same size.
            from repro.experiments.pool import SweepPool

            workers = self._pool.max_workers
            try:
                self._pool.shutdown()
            except Exception:  # noqa: BLE001 - broken pools may misbehave
                pass
            self._pool = SweepPool(max_workers=workers)
        else:
            from repro.experiments.pool import get_pool, shutdown_pool

            shutdown_pool()
            get_pool()

    def _fail_epoch(self, run, error: BaseException) -> List[LatencyRecord]:
        """Fail every job of one lost epoch (retries exhausted)."""
        text = error_text(error)
        return [
            self._settle(
                job_id,
                self._synthetic_record(spec, arrival, arrival, error=text),
                error,
            )
            for arrival, spec, job_id in run
        ]

    @staticmethod
    def _merge_fired(injector, fired) -> None:
        """Fold a worker-side firing log into the local injector."""
        if injector is None:
            return
        for index, kind, name, morsel in fired:
            if index not in injector.spent:
                injector.spent.add(index)
                injector.fired.append((index, kind, name, morsel))

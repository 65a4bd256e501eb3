"""The process execution backend: virtual-time epochs, GIL-free.

:class:`ProcessBackend` is a :class:`~repro.runtime.simulated.SimulatedBackend`
that overrides one step, running the ordered epoch: the workload crosses
to a warm worker of the shared sweep pool (:mod:`repro.experiments.pool`),
which drains it on a :class:`SimulatedBackend` of its own and sends the
settled records and every job's chunks back as flat arrays through the
one wire codec (:mod:`repro.wire`), which this side puts into each
job's chunk list before it settles the job.  Fold offers, the §3.2
leader weight, settlement and the fragment cache stay on the one epoch
loop in the submitting process, so results are bit-identical to the
simulated backend's, with ``sharing=True`` or without, and fold
members' chunks never cross the pipe.

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
* ``drain()`` runs one epoch remotely and blocks for its results; a
  worker that dies mid-epoch is replaced and the epoch re-run, up to
  ``max_epoch_retries`` times, after which every query of the epoch
  fails with :class:`~repro.errors.WorkerFailedError`;
* ``shutdown()`` drops pending submissions but leaves the shared pool
  running for other users (a privately passed pool is also left to its
  owner).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import BrokenExecutor
from typing import Callable, Iterator, Optional

from repro.errors import WorkerFailedError, error_text
from repro.metrics.latency import LatencyCollector
from repro.runtime.channel import DEFAULT_CHANNEL_CAPACITY, chunks_from_arrays
from repro.runtime.clock import VirtualClock
from repro.runtime.faults import WORKER_DEATH
from repro.runtime.simulated import EpochStep, SimulatedBackend


# ----------------------------------------------------------------------
# Worker-side epoch execution (module level: picklable)
# ----------------------------------------------------------------------
def _execute_epoch(payload: dict) -> dict:
    """Drain one shipped epoch on a :class:`SimulatedBackend` here."""
    from repro.runtime.channel import chunks_to_arrays
    from repro.workloads.serialize import workload_from_arrays

    backend = SimulatedBackend(
        payload["scheduler_factory"], **{key: payload[key] for key in _OPTIONS}
    )
    plan, spent = payload["fault_plan"], set(payload["fault_spent"])
    if plan is not None:
        if payload["attempt"] == 0 and WORKER_DEATH in {
            fault.kind for index, fault in enumerate(plan.faults) if index not in spent
        }:
            # Injected worker death at process level: the parent rebuilds
            # the pool and re-runs the epoch with the death marked spent.
            os._exit(23)
        # Worker deaths are process-level here, never morsel-level.
        backend.install_faults(plan, spent=spent, skip_kinds=(WORKER_DEATH,))
    for arrival, spec in workload_from_arrays(payload["workload"]):
        backend.submit(spec, at=arrival)
    # Job id == arrival index == record query id; drain() settles in order.
    # Nothing is assembled here: every job's chunks cross in one payload,
    # ``counts`` long each, and the submitting side assembles a result if
    # and when its result() is asked for.
    records, chunks, counts = LatencyCollector(), [], []
    for record in backend.drain():
        records.add(record)
        kept = backend._channels[record.query_id].chunks()
        chunks.extend(kept)
        counts.append(len(kept))
    result, injector = backend.last_result, backend.fault_injector
    out = {
        "records": records, "chunks": chunks_to_arrays(chunks), "counts": counts,
        "tasks_executed": result.tasks_executed, "end_time": result.end_time,
        "events_processed": result.events_processed,
        "faults_fired": [] if injector is None else injector.fired,
    }
    if payload["return_environment"]:
        out["environment"] = backend.last_environment
    return out


#: The worker backend's options, shipped under their own names.
_OPTIONS = ("seed", "noise_sigma", "environment_factory", "max_time", "channel_capacity")


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


class ProcessBackend(SimulatedBackend):
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
        sharing: bool = False,
        sharing_cache_entries: int = 64,
        sharing_attach_buffer: int = 16,
    ) -> None:
        """``scheduler_factory`` and ``environment_factory`` must be
        picklable zero-argument callables (module-level functions or
        :func:`functools.partial` over them) — they are invoked in the
        worker process, never here.  ``return_environment`` ships the
        epoch's environment object back after each drain (it must then
        be picklable) and exposes it as :attr:`last_environment`.  The
        sharing options are the simulated backend's: folds and the
        fragment cache live in this process, not in the worker.
        """
        super().__init__(
            scheduler_factory,
            seed=seed,
            noise_sigma=noise_sigma,
            environment_factory=environment_factory,
            max_time=max_time,
            channel_capacity=channel_capacity,
            sharing=sharing,
            sharing_cache_entries=sharing_cache_entries,
            sharing_attach_buffer=sharing_attach_buffer,
        )
        self._return_environment = return_environment
        self._pool = pool
        self._max_epoch_retries = max_epoch_retries
        #: Counters of the most recent epoch.
        self.last_tasks_executed = 0
        self.last_events_processed = 0
        #: How many times a broken worker pool was rebuilt (recovery).
        self.pool_rebuilds = 0

    def _get_pool(self):
        if self._pool is not None:
            return self._pool
        from repro.experiments.pool import get_pool

        return get_pool()

    def _do_start(self) -> None:
        # Spawn (or attach to) the warm pool eagerly so the first drain
        # pays no startup cost.
        self._get_pool()

    def _run_epoch(self, run) -> Iterator[EpochStep]:
        """Execute one ordered epoch in a pool worker; one step per query."""
        from repro.workloads.serialize import workload_to_arrays

        workload = workload_to_arrays([(arrival, spec) for arrival, spec, _ in run])
        injector = self._fault_injector
        for attempt in itertools.count():
            payload = {
                "scheduler_factory": self._scheduler_factory,
                "seed": self._seed,
                "noise_sigma": self._noise_sigma,
                "max_time": self._max_time,
                "environment_factory": self._environment_factory,
                "return_environment": self._return_environment,
                "channel_capacity": self.channel_capacity,
                "workload": workload,
                "fault_plan": injector.plan if injector is not None else None,
                "fault_spent": () if injector is None else tuple(sorted(injector.spent)),
                "attempt": attempt,
            }
            try:
                epoch = self._get_pool().call(_execute_epoch, payload)
                break
            except BrokenExecutor as exc:
                # A worker process died mid-epoch (injected or real).  The
                # epoch is pure — nothing was applied here — so rebuild
                # the pool and re-run it, up to max_epoch_retries times.
                if injector is not None:
                    # Planned deaths fired as a real process death;
                    # record them so the retry does not die again.
                    for index, fault in enumerate(injector.plan.faults):
                        if fault.kind == WORKER_DEATH and index not in injector.spent:
                            injector.mark_fired(index, fault.query or "", fault.morsel)
                self._rebuild_pool()
                if attempt >= self._max_epoch_retries:
                    error = WorkerFailedError(
                        f"epoch worker processes died {attempt + 1} times; "
                        "giving up on this epoch"
                    )
                    error.__cause__ = exc
                    yield from self._fail_epoch(run, error)
                    return
        # The worker's firing log (empty unless this side has a plan).
        for index, _, name, morsel in epoch["faults_fired"]:
            if index not in injector.spent:
                injector.mark_fired(index, name, morsel)
        self._clock = VirtualClock(epoch["end_time"])
        self.last_tasks_executed = epoch["tasks_executed"]
        self.last_events_processed = epoch["events_processed"]
        self.last_environment = epoch.get("environment")
        chunks = iter(chunks_from_arrays(epoch["chunks"]))
        for record, count in zip(epoch["records"].records, epoch["counts"]):
            # A failed query ships no chunk: the worker isolated it, and
            # _settle reconstructs the cause from the record's error
            # text (class identity is preserved for library errors).
            job_id = run[record.query_id][2]
            channel = self._channels[job_id]
            for kind, payload, rows in itertools.islice(chunks, count):
                channel.put(kind, payload, rows)
            yield job_id, record, None

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

    def _fail_epoch(self, run, error: BaseException) -> Iterator[EpochStep]:
        """Fail every job of one lost epoch (retries exhausted)."""
        text = error_text(error)
        for arrival, spec, job_id in run:
            record = self._synthetic_record(spec, arrival, arrival, error=text)
            yield job_id, record, error

"""The virtual-time execution backend: a thin adapter over the simulator.

:class:`SimulatedBackend` wraps the fast tuple-heap
:class:`~repro.simcore.simulator.Simulator` behind the
:class:`~repro.runtime.backend.ExecutionBackend` lifecycle.  It changes
*nothing* about how a simulation runs — :meth:`SimulatedBackend.execute`
constructs the scheduler and the simulator exactly as the experiment
drivers always have, so results are bit-for-bit identical to calling
:class:`Simulator` directly (the figure/determinism test suite is the
oracle for this claim).

Online semantics in virtual time: submissions accumulate while the
backend is "running" and each :meth:`drain` executes everything pending
as one simulation *epoch* — a fresh scheduler and a fresh virtual clock
starting at zero, with submissions ordered by their requested arrival
times.  Submit-during-drain is meaningless in virtual time (the event
loop is synchronous), so true mid-flight admission is what the
:class:`~repro.runtime.threaded.ThreadedBackend` provides; the epoch
model is the faithful virtual-time analogue.

This class holds the one epoch loop.  A drain offers the pending set to
the fold coordinator, runs the epoch (:meth:`SimulatedBackend._run_epoch`,
one ``(job, record, cause, chunks)`` step per finished query), settles
each step, fans each sealed fold out and fills the fragment cache.  The
:class:`~repro.runtime.process.ProcessBackend` overrides only the step
that runs the epoch, so folds, the §3.2 leader weight and the cache work
the same on both.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.scheduler_base import SchedulerBase
from repro.core.specs import QuerySpec
from repro.errors import ReproError, error_text
from repro.metrics.latency import LatencyRecord
from repro.runtime.backend import ExecutionBackend
from repro.runtime.channel import DEFAULT_CHANNEL_CAPACITY
from repro.runtime.clock import VirtualClock
from repro.runtime.trace import TraceRecorder
from repro.sharing import (
    MISS,
    FoldCoordinator,
    FragmentCache,
    SharingStats,
    spec_fingerprint,
)
from repro.simcore.rng import RngFactory
from repro.simcore.simulator import (
    SimulationEnvironment,
    SimulationResult,
    Simulator,
)

#: One epoch step: ``(job id, record, cause, chunks)`` for :meth:`_settle`.
EpochStep = Tuple[int, LatencyRecord, Optional[BaseException], tuple]


class SimulatedBackend(ExecutionBackend):
    """Run schedulers in virtual time on the discrete-event simulator.

    Epochs run synchronously, so a job can only be cancelled or shed
    while it is still pending.
    """

    def __init__(
        self,
        scheduler_factory: Callable[[], SchedulerBase],
        *,
        seed: int = 0,
        noise_sigma: float = 0.05,
        environment_factory: Optional[Callable[[], object]] = None,
        max_time: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
        channel_capacity: int = DEFAULT_CHANNEL_CAPACITY,
        sharing: bool = False,
        sharing_cache_entries: int = 64,
        sharing_attach_buffer: int = 16,
    ) -> None:
        super().__init__(channel_capacity=channel_capacity)
        self._scheduler_factory = scheduler_factory
        self._seed = seed
        self._noise_sigma = noise_sigma
        self._environment_factory = environment_factory
        self._max_time = max_time
        self._trace = trace
        #: job id -> ``(arrival, spec, job id)``, in submission order.
        self._pending: Dict[int, Tuple[float, QuerySpec, int]] = {}
        self._clock = VirtualClock()
        #: The environment of the most recent epoch (engine results).
        self.last_environment: Optional[object] = None
        #: Work sharing (off by default): fold compatible pending queries
        #: into one execution per drain epoch and serve repeats from the
        #: fragment cache.  With sharing off ``_do_drain`` offers no
        #: folds and runs the pending set as is, so results stay
        #: bit-identical.
        self._sharing = bool(sharing)
        self.sharing_stats = SharingStats()
        self._folds = FoldCoordinator(sharing_attach_buffer, self.sharing_stats)
        self._fragment_cache: Optional[FragmentCache] = (
            FragmentCache(sharing_cache_entries, stats=self.sharing_stats)
            if self._sharing
            else None
        )
        #: The result of the most recent in-process epoch.
        self.last_result: Optional[SimulationResult] = None

    @property
    def clock(self) -> VirtualClock:
        """Virtual time of the most recent epoch."""
        return self._clock

    def set_scheduler_factory(self, factory: Callable) -> None:
        """Build every later epoch's scheduler from ``factory``.

        Epochs already run keep their configuration.  The process
        backend pickles the factory into its worker at each drain, so it
        must be a picklable zero-argument callable.
        """
        self._scheduler_factory = factory

    # ------------------------------------------------------------------
    # ExecutionBackend contract
    # ------------------------------------------------------------------
    def _do_start(self) -> None:
        pass  # virtual time only advances inside drain()

    def _do_submit(self, job_id: int, spec: QuerySpec, at: Optional[float]) -> None:
        arrival = 0.0 if at is None else float(at)
        if arrival < 0.0:
            raise ReproError("arrival time must be non-negative")
        self._pending[job_id] = (arrival, spec, job_id)

    def _do_shutdown(self) -> None:
        self._pending.clear()

    def _do_abort(self, job_id: int, error: Optional[BaseException]) -> None:
        # An abortable job is always still pending: remove it and record
        # the outcome at its arrival time (zero CPU, zero latency) so
        # counters settle and the next drain() reports it once.
        arrival, spec, _ = self._pending.pop(job_id)
        record = self._synthetic_record(
            spec,
            arrival,
            arrival,
            cancelled=error is None,
            error="" if error is None else error_text(error),
        )
        self._settle(job_id, record, error)

    def _begin_epoch(self):
        """Open a drain: the pending set in arrival order.

        The sort is stable by arrival time — ties resolve in submission
        order, and the scheduler numbers resource groups in arrival
        order, so a job's index in the returned list is its query id in
        the epoch.
        """
        pending = sorted(self._pending.values(), key=lambda entry: entry[0])
        self._pending = {}
        return pending

    def _do_drain(self) -> List[int]:
        run = self._begin_epoch()
        sharing = self._sharing
        try:
            if sharing:
                run = self._offer_folds(run)
            for job_id, record, cause, chunks in self._run_epoch(run) if run else ():
                self._settle(job_id, record, cause, chunks)
                fold = self._folds.seal(job_id) if sharing else None
                if fold is None:
                    continue
                # The leader's spilled chunks are the fold's replay
                # buffer: they fan out to every attached query and (on
                # success) into the fragment cache for future epochs.
                spill = self._cursors[job_id].spill
                chunks = tuple((c.kind, c.payload, c.rows) for c in spill)
                self._settle_fold(record, chunks, fold.members)
                if chunks and not record.failed:
                    self._fragment_cache.put(fold.fingerprint, chunks)
        finally:
            if sharing:
                self._folds.seal_all()
        # Jobs cancelled or shed since the previous drain surface here
        # too, exactly once, like every completion.
        return self._take_settled()

    def _run_epoch(self, run) -> Iterator[EpochStep]:
        """Execute one ordered epoch here; one step per finished query.

        ``run`` holds ``(arrival, spec, job id)`` in arrival order.  The
        steps come in the simulator's completion order, each query's
        value already in its channel (or in :attr:`results`).
        """
        environment = (
            self._environment_factory() if self._environment_factory else None
        )
        environment = self._wrap_environment(environment)
        # Hand the environment each query's result channel before the
        # epoch runs: the scheduler numbers resource groups in arrival
        # order, so arrival index == the environment's query id.
        open_channel = getattr(environment, "open_channel", None)
        if open_channel is not None:
            for arrival_index, (_, _, job_id) in enumerate(run):
                open_channel(arrival_index, self._cursors[job_id].channel)
        result = self.execute(
            [(arrival, spec) for arrival, spec, _ in run],
            environment=environment,
        )
        self._clock = VirtualClock(result.end_time)
        self.last_environment = environment
        for record in result.records.records:
            # A failed query was already wound down by the scheduler's
            # abort protocol; survivors of the same epoch are untouched.
            job_id = run[record.query_id][2]
            self._complete(environment, job_id, record)
            yield job_id, record, None, ()

    # ------------------------------------------------------------------
    # Work sharing (sharing=True only)
    # ------------------------------------------------------------------
    def invalidate_sharing_cache(self) -> None:
        """Drop every cached fragment result and bump the cache epoch."""
        if self._fragment_cache is not None:
            self._fragment_cache.invalidate()

    def _offer_folds(self, pending):
        """Offer one epoch's pending set to the fold coordinator.

        The epoch *is* the attach window: queries are offered in arrival
        order, so the earliest arrival of a fingerprint leads.  Returns
        what must execute, fold leaders stamped with the coordinator's
        §3.2 weight rule.  Repeats of a fingerprint that completed in an
        earlier epoch are settled here from the fragment cache, at their
        arrival time and zero cost.
        """
        # Only engine results are worth caching (the cost model has none).
        cache = self._fragment_cache if self._environment_factory else None
        folds = self._folds
        run: List[Tuple[float, QuerySpec, int]] = []
        for arrival, spec, job_id in pending:
            if "noshare" not in spec.tags:
                fp = spec_fingerprint(spec)
                if cache is not None:
                    chunks = cache.get(fp)
                    if chunks is not MISS:
                        record = self._synthetic_record(spec, arrival, arrival)
                        self._settle(job_id, record, chunks=chunks)
                        continue
                if folds.offer(job_id, spec, arrival, fp):
                    continue
            run.append((arrival, spec, job_id))
        return [
            (arrival, folds.stamp(job_id, spec), job_id)
            for arrival, spec, job_id in run
        ]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _wrap_environment(self, environment: Optional[object]):
        """Wrap an epoch's environment when a fault plan is installed.

        Without an installed plan this is the identity — the fault-free
        path constructs environments exactly as before, so results stay
        bit-identical.  With a plan, a cost-model environment is built
        here (when the epoch would otherwise let the simulator build its
        own) so the wrapper can intercept ``run_morsel``.
        """
        if self._fault_injector is None:
            return environment
        if environment is None:
            environment = SimulationEnvironment(
                RngFactory(self._seed), noise_sigma=self._noise_sigma
            )
        return self._fault_injector.wrap(environment)

    # ------------------------------------------------------------------
    # Batch adapter (the experiment drivers' entry point)
    # ------------------------------------------------------------------
    def execute(
        self,
        workload: Sequence[Tuple[float, QuerySpec]],
        environment: Optional[object] = None,
    ) -> SimulationResult:
        """Run one workload through a fresh scheduler and simulator.

        This is the exact pre-refactor code path — scheduler from the
        factory, :class:`Simulator` over the workload — so latencies,
        traces and counters are bit-identical to driving the simulator
        directly.
        """
        environment = self._wrap_environment(environment)
        scheduler = self._scheduler_factory()
        simulator = Simulator(
            scheduler,
            list(workload),
            seed=self._seed,
            noise_sigma=self._noise_sigma,
            max_time=self._max_time,
            trace=self._trace,
            environment=environment,
        )
        result = simulator.run()
        self.last_result = result
        return result

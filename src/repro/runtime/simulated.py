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
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.scheduler_base import SchedulerBase
from repro.core.specs import QuerySpec
from repro.metrics.latency import LatencyRecord
from repro.runtime.backend import EpochBackend
from repro.runtime.channel import DEFAULT_CHANNEL_CAPACITY, STREAMED
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


class SimulatedBackend(EpochBackend):
    """Run schedulers in virtual time on the discrete-event simulator."""

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
        super().__init__(
            scheduler_factory,
            seed=seed,
            noise_sigma=noise_sigma,
            environment_factory=environment_factory,
            max_time=max_time,
            channel_capacity=channel_capacity,
        )
        self._trace = trace
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
        #: The result of the most recent epoch (for counters/overhead).
        self.last_result: Optional[SimulationResult] = None

    # ------------------------------------------------------------------
    # ExecutionBackend contract
    # ------------------------------------------------------------------
    def _do_start(self) -> None:
        pass  # virtual time only advances inside drain()

    def _do_drain(self) -> List[LatencyRecord]:
        finished, run = self._begin_epoch()
        if not self._sharing:
            return self._run_epoch(finished, run)
        try:
            return self._run_epoch(finished, self._offer_folds(run, finished))
        finally:
            self._folds.seal_all()

    def _run_epoch(self, finished, run) -> List[LatencyRecord]:
        if not run:
            return finished
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
        finish_query = getattr(environment, "finish_query", None)
        discard_query = getattr(environment, "discard_query", None)
        for record in result.records.records:
            job_id = run[record.query_id][2]
            if record.failed:
                # Per-query failure isolation: the scheduler already
                # wound this query down through the abort protocol;
                # drop its plan state.  Survivors of the same epoch are
                # untouched.
                if discard_query is not None:
                    discard_query(record.query_id)
            elif finish_query is not None:
                value = finish_query(record.query_id)
                if value is not STREAMED:
                    self.results[job_id] = value
            finished.append(self._settle(job_id, record))
            fold = self._folds.seal(job_id) if self._sharing else None
            if fold is None:
                continue
            # The leader's spilled chunks are the fold's replay buffer:
            # they fan out to every attached query and (on success) into
            # the fragment cache for future epochs.
            spill = self._cursors[job_id].spill
            chunks = tuple((c.kind, c.payload, c.rows) for c in spill)
            finished.extend(self._settle_fold(record, chunks, fold.members))
            if chunks and not record.failed:
                self._fragment_cache.put(fold.fingerprint, chunks)
        return finished

    # ------------------------------------------------------------------
    # Work sharing (sharing=True only)
    # ------------------------------------------------------------------
    def invalidate_sharing_cache(self) -> None:
        """Drop every cached fragment result and bump the cache epoch."""
        if self._fragment_cache is not None:
            self._fragment_cache.invalidate()

    def _offer_folds(self, pending, finished):
        """Offer one epoch's pending set to the fold coordinator.

        The epoch *is* the attach window: queries are offered in arrival
        order, so the earliest arrival of a fingerprint leads.  Returns
        what must execute, fold leaders stamped with the coordinator's
        §3.2 weight rule.  Repeats of a fingerprint that completed in an
        earlier epoch are settled here (onto ``finished``) from the
        fragment cache, at their arrival time and zero cost.
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
                        finished.append(self._settle(job_id, record, chunks=chunks))
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

"""The discrete-event simulator driving scheduler + workload.

The simulator owns the virtual clock and the event heap and mediates
between three parties:

* the **workload** — a list of ``(arrival_time, QuerySpec)`` pairs turned
  into arrival events that call :meth:`SchedulerBase.admit`;
* the **scheduler** — asked for a decision whenever a worker becomes
  ready; a returned :class:`TaskDecision` keeps the worker busy for its
  (virtual) duration, ``None`` parks the worker until the scheduler wakes
  it;
* the **execution environment** — a cost model translating "run this
  morsel" into elapsed virtual seconds, including multiplicative
  log-normal noise and a contention factor for workers sharing a
  pipeline.

Determinism: all randomness flows through named
:class:`~repro.simcore.rng.RngFactory` streams and event ties break by
insertion order, so a (scheduler, workload, seed) triple always yields
the identical trace.

Performance: the event loop is the hottest code in the repository — every
scheduling decision of every figure flows through it.  Instead of
allocating an :class:`~repro.simcore.events.Event` object plus a closure
per event, the loop keeps a raw heap of ``(time, seq, kind, worker_id,
payload)`` tuples and dispatches on the integer ``kind`` inline.  Tuple
comparison happens in C, there is no per-event allocation beyond the
tuple itself, and the three handlers are inlined into the loop body.
Event ordering — ``(time, insertion sequence)`` — is identical to the
previous object-based queue, so traces are bit-for-bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.metrics.latency import LatencyCollector
from repro.simcore.clock import SimClock
from repro.simcore.rng import RngFactory
from repro.runtime.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - avoid a core <-> simcore cycle
    from repro.core.scheduler_base import SchedulerBase
    from repro.core.specs import QuerySpec
    from repro.core.task import TaskSet

#: Heap-entry kinds, dispatched on in :meth:`Simulator.run`.
_EV_ARRIVAL = 0
_EV_READY = 1
_EV_DONE = 2

#: Size of the pre-drawn execution-noise buffer (one numpy draw per
#: ``_NOISE_BLOCK`` morsels instead of one per morsel).
_NOISE_BLOCK = 4096


class SimulationEnvironment:
    """Cost-model implementation of the ExecutionEnvironment protocol.

    ``run_morsel`` charges ``tuples / rate`` seconds, scaled by

    * a log-normal noise factor with unit mean (``noise_sigma``), and
    * a contention factor ``1 + gamma * (pinned - 1)`` capturing the
      imperfect pipeline scalability of §2.3.
    """

    __slots__ = (
        "rng_factory",
        "noise_sigma",
        "cache_pressure",
        "cache_pressure_cap",
        "active_count_fn",
        "_noise_rng",
        "_noise_buffer",
        "_noise_pos",
    )

    def __init__(
        self,
        rng_factory: RngFactory,
        noise_sigma: float = 0.05,
        cache_pressure: float = 0.0,
    ) -> None:
        self.rng_factory = rng_factory
        self.noise_sigma = float(noise_sigma)
        #: Optional per-extra-active-query throughput penalty (off by
        #: default).  §5.2 attributes part of the tuning scheduler's
        #: benefit for long queries to "fewer active queries at any
        #: given time, which reduces scheduling overhead and cache
        #: pressure".  The knob lets users explore that engine-level
        #: effect; EXPERIMENTS.md discusses why a simple global penalty
        #: does not reproduce it.  Active-query counts are supplied by
        #: the scheduler through ``active_count_fn``.
        self.cache_pressure = float(cache_pressure)
        #: The pressure factor saturates: cache pollution is bounded by
        #: the cache itself, so beyond ~2x the worker count additional
        #: active queries do not slow execution further.  The cap also
        #:  keeps the feedback loop (more actives -> slower -> more
        #: actives) from destabilising runs below full load.
        self.cache_pressure_cap = 40
        self.active_count_fn = None
        self._noise_rng = rng_factory.stream("execution-noise")
        # Pre-drawn noise buffer: one numpy call per block of morsels
        # instead of one per morsel keeps large simulations fast.
        self._noise_buffer: Optional[np.ndarray] = None
        self._noise_pos = 0

    # ------------------------------------------------------------------
    # Noise stream
    # ------------------------------------------------------------------
    def _refill_noise(self) -> None:
        """Draw the next noise block, keeping any unconsumed values.

        The underlying RNG stream always advances in fixed-size blocks,
        so the sequence of noise values is independent of *how* callers
        consume the buffer (one at a time or in batched look-aheads).
        """
        mu = -0.5 * self.noise_sigma * self.noise_sigma
        block = self._noise_rng.lognormal(
            mean=mu, sigma=self.noise_sigma, size=_NOISE_BLOCK
        )
        if self._noise_buffer is None or self._noise_pos >= len(self._noise_buffer):
            self._noise_buffer = block
        else:
            self._noise_buffer = np.concatenate(
                [self._noise_buffer[self._noise_pos :], block]
            )
        self._noise_pos = 0

    def next_noise(self) -> float:
        """Draw the next per-morsel noise factor from the buffered stream."""
        if self.noise_sigma <= 0.0:
            return 1.0
        buffer = self._noise_buffer
        if buffer is None or self._noise_pos >= len(buffer):
            self._refill_noise()
            buffer = self._noise_buffer
        value = float(buffer[self._noise_pos])
        self._noise_pos += 1
        return value

    def peek_noise(self, count: int) -> Optional[np.ndarray]:
        """The next ``count`` noise factors *without* consuming them.

        Returns ``None`` when noise is disabled (factor 1.0).  Used by the
        batched morsel executor to decide how many morsels fit a task
        budget before committing to the RNG draws; combined with
        :meth:`consume_noise` this reproduces the exact per-morsel stream
        of sequential :meth:`next_noise` calls.
        """
        if self.noise_sigma <= 0.0:
            return None
        while (
            self._noise_buffer is None
            or len(self._noise_buffer) - self._noise_pos < count
        ):
            self._refill_noise()
        return self._noise_buffer[self._noise_pos : self._noise_pos + count]

    def consume_noise(self, count: int) -> None:
        """Commit ``count`` previously peeked noise factors."""
        if self.noise_sigma <= 0.0:
            return
        self._noise_pos += count

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def morsel_cost_factors(self, task_set: "TaskSet") -> Tuple[float, float, float]:
        """``(tuples_per_second, contention, pressure)`` for one task.

        All three factors are constant while a single task executes (the
        simulation is sequential, so no pin/unpin or admission can
        interleave), which lets the morsel executor cost a whole batch of
        morsels without re-deriving them per morsel.
        """
        profile = task_set.profile
        contention = 1.0 + profile.parallel_efficiency * max(
            0, task_set.pinned_workers - 1
        )
        pressure = 1.0
        if self.cache_pressure > 0.0 and self.active_count_fn is not None:
            active = min(self.active_count_fn(), self.cache_pressure_cap)
            if active > 1:
                pressure = 1.0 + self.cache_pressure * (active - 1)
        return profile.tuples_per_second, contention, pressure

    def run_morsel(self, task_set: "TaskSet", tuples: int) -> float:
        """Simulated execution time of ``tuples`` tuples of the pipeline."""
        rate, contention, pressure = self.morsel_cost_factors(task_set)
        return tuples / rate * contention * pressure * self.next_noise()

    def rng(self, name: str) -> np.random.Generator:
        """Named deterministic RNG stream (used e.g. by lottery picks)."""
        return self.rng_factory.stream(name)


@dataclass
class SimulationResult:
    """Everything a run produces: latencies, counters, overhead, trace."""

    records: LatencyCollector
    end_time: float
    admitted: int
    completed: int
    tasks_executed: int
    overhead_percent: Dict[str, float]
    total_overhead_percent: float
    trace: TraceRecorder
    worker_busy_seconds: List[float] = field(default_factory=list)
    #: Number of discrete events processed by the run (for perf reports).
    events_processed: int = 0

    @property
    def queries_per_second(self) -> float:
        """Completed-query throughput over the run."""
        return self.records.queries_per_second(self.end_time)

    def steady_state_records(self, warmup: float) -> LatencyCollector:
        """Records of queries that *arrived* after the warmup period.

        Standard sustained-load methodology: the first seconds of a run
        start from an empty system and bias latencies downward; dropping
        arrivals before ``warmup`` measures steady-state behaviour.
        """
        out = LatencyCollector()
        for record in self.records.records:
            if record.arrival_time >= warmup:
                out.add(record)
        return out

    def utilisation(self) -> float:
        """Mean worker utilisation over the run."""
        if self.end_time <= 0.0 or not self.worker_busy_seconds:
            return 0.0
        return sum(self.worker_busy_seconds) / (
            self.end_time * len(self.worker_busy_seconds)
        )


class Simulator:
    """Runs one scheduler against one workload in virtual time."""

    def __init__(
        self,
        scheduler: "SchedulerBase",
        workload: Sequence[Tuple[float, "QuerySpec"]],
        seed: int = 0,
        noise_sigma: float = 0.05,
        max_time: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
        environment: Optional[SimulationEnvironment] = None,
    ) -> None:
        self.scheduler = scheduler
        self.workload = sorted(workload, key=lambda item: item[0])
        self.max_time = max_time
        self.clock = SimClock()
        self.rng_factory = RngFactory(seed)
        self.environment = environment or SimulationEnvironment(
            self.rng_factory, noise_sigma=noise_sigma
        )
        self.trace = trace or TraceRecorder(enabled=False)
        #: The live event heap of (time, seq, kind, worker_id, payload).
        self._heap: List[tuple] = []
        #: Monotone insertion sequence shared by run() and _wake(); a C
        #: iterator is cheaper than a Python attribute increment.
        self._seq = count()
        self._events_processed = 0
        self._pending_worker_event = [False] * scheduler.n_workers
        self._busy_seconds = [0.0] * scheduler.n_workers
        scheduler.attach(self.environment, wake_fn=self._wake, trace=self.trace)
        # Wire the default active-query counter only into environments
        # that expose the knob (attribute present) and left it unset.
        if getattr(self.environment, "active_count_fn", False) is None:
            self.environment.active_count_fn = scheduler.active_query_count

    # ------------------------------------------------------------------
    # Scheduler callback
    # ------------------------------------------------------------------
    def _wake(self, worker_id: int) -> None:
        """Scheduler callback: re-run a parked worker's decision loop."""
        if not self._pending_worker_event[worker_id]:
            self._pending_worker_event[worker_id] = True
            heappush(
                self._heap,
                (self.clock._now, next(self._seq), _EV_READY, worker_id, None),
            )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Process events until the workload drains (or ``max_time``)."""
        heap = self._heap
        heap.clear()
        self._seq = seq = count()
        for arrival_time, query in self.workload:
            heap.append((float(arrival_time), next(seq), _EV_ARRIVAL, -1, query))
        pending = self._pending_worker_event
        # Kick every worker once at time zero.
        for worker_id in range(self.scheduler.n_workers):
            pending[worker_id] = True
            heap.append((0.0, next(seq), _EV_READY, worker_id, None))
        # Building the heap in one pass is O(n); pop order depends only on
        # the (time, seq) total order, not on the insertion method.
        heapify(heap)

        scheduler = self.scheduler
        clock = self.clock
        max_time = self.max_time
        time_limit = math.inf if max_time is None else max_time
        decide = scheduler.worker_decide
        finish = scheduler.worker_finish
        make_group = scheduler.make_group
        admit = scheduler.admit
        busy = self._busy_seconds
        inf = math.inf
        ev_ready = _EV_READY
        ev_done = _EV_DONE
        truncated = 0
        while heap:
            time, _tie, kind, worker_id, payload = heappop(heap)
            if time > time_limit:
                truncated = 1
                break
            # Inlined SimClock.advance_to (hot path).
            if time < clock._now:
                raise SimulationError(
                    f"clock moving backwards: {time:.9f} < {clock._now:.9f}"
                )
            clock._now = time
            if kind == ev_done:
                # A DONE handler always queues the follow-up READY, so the
                # pending flag stays True throughout (and worker_finish can
                # never wake this non-idle worker) — no flag writes needed.
                extra = finish(worker_id, time, payload)
                if not 0.0 <= extra < inf:
                    raise SimulationError(
                        f"worker {worker_id}: invalid extra time {extra}"
                    )
                busy[worker_id] += extra
                time += extra
                if heap and heap[0][0] <= time:
                    heappush(heap, (time, next(seq), ev_ready, worker_id, None))
                    continue
                # Nothing precedes the READY (its sequence number is the
                # largest), so it would be popped next: handle it in place.
                next(seq)
                if time > time_limit:
                    truncated = 1
                    break
                clock._now = time
            elif kind != ev_ready:  # _EV_ARRIVAL
                admit(make_group(payload, time), time)
                continue
            pending[worker_id] = False
            decision = decide(worker_id, time)
            if decision is None:
                continue  # parked; the scheduler will wake it
            duration = decision.duration
            # Chained comparison rejects negatives, inf and NaN in one
            # expression (NaN fails every comparison).
            if not 0.0 <= duration < inf:
                raise SimulationError(
                    f"worker {worker_id}: invalid task duration {duration}"
                )
            busy[worker_id] += duration
            pending[worker_id] = True
            heappush(heap, (time + duration, next(seq), ev_done, worker_id, decision))
        # The clock stopped on the last processed event, so no per-event
        # end_time store is needed in the loop.
        end_time = max_time if truncated else clock._now
        # Every pushed event was either popped (and, unless it was the one
        # that crossed max_time, processed) or is still in the heap, so the
        # counts reconcile without a per-event increment in the loop.
        processed = next(seq) - len(heap) - truncated
        self._events_processed = processed
        collector = LatencyCollector()
        for record in scheduler.completed:
            collector.add(record)
        return SimulationResult(
            records=collector,
            end_time=end_time,
            admitted=scheduler.admitted_count,
            completed=scheduler.completed_count,
            tasks_executed=scheduler.tasks_executed,
            overhead_percent=scheduler.overhead.breakdown_percent(),
            total_overhead_percent=100.0
            * scheduler.overhead.total_overhead_fraction(),
            trace=self.trace,
            worker_busy_seconds=list(busy),
            events_processed=processed,
        )

"""Execution drivers for the mini engine.

Two modes:

* :func:`run_plan` — plain single-threaded morsel-wise execution with
  per-pipeline timing (used for calibration and correctness tests);
* :class:`EngineEnvironment` — an
  :class:`~repro.core.morsel_exec.ExecutionEnvironment` implementation
  that lets the *schedulers* of :mod:`repro.core` drive real engine
  work.  Every ``run_morsel`` call executes actual numpy kernels and
  reports the measured wall time, so the whole scheduling stack
  (stride passes, priority decay, adaptive morsel sizing, self-tuning)
  operates on genuine measurements.  Because of the GIL the morsels of
  "parallel" workers are interleaved on one OS thread — virtual time
  then models a single-core machine exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.specs import PipelineSpec, QuerySpec
from repro.core.task import TaskSet
from repro.engine.datagen import TpchDatabase
from repro.engine.operators import ChannelSink
from repro.engine.pipeline import EnginePipeline, QueryPlan
from repro.engine.queries import build_engine_query
from repro.errors import EngineError
from repro.simcore.rng import RngFactory


@dataclass
class PipelineTiming:
    """Measured execution profile of one pipeline."""

    name: str
    rows: int
    seconds: float

    @property
    def rows_per_second(self) -> float:
        """Measured single-thread throughput."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.rows / self.seconds


def run_plan(
    plan: QueryPlan, morsel_rows: int = 65_536
) -> Tuple[object, List[PipelineTiming]]:
    """Execute a plan single-threaded; return (result, per-pipeline timing)."""
    timings: List[PipelineTiming] = []
    for pipeline in plan.pipelines:
        start = time.perf_counter()
        pipeline.run_to_completion(morsel_rows)
        elapsed = time.perf_counter() - start
        timings.append(
            PipelineTiming(
                name=pipeline.name,
                rows=pipeline.rows_processed,
                seconds=elapsed,
            )
        )
    return plan.result(), timings


def engine_query_spec(
    name: str,
    db: TpchDatabase,
    rate_guess: float = 5.0e6,
) -> QuerySpec:
    """A :class:`QuerySpec` describing an engine plan to the scheduler.

    Tuple counts come from the plan's (estimated) input cardinalities;
    throughput starts at ``rate_guess`` and is corrected at runtime by
    the adaptive morsel executor's measurements, which is exactly the
    mechanism §3.1 relies on.
    """
    plan = build_engine_query(name, db)
    pipelines = tuple(
        PipelineSpec(
            name=pipeline.name,
            tuples=max(1, pipeline.estimated_rows),
            tuples_per_second=rate_guess,
        )
        for pipeline in plan.pipelines
    )
    return QuerySpec(name=name, scale_factor=db.scale_factor, pipelines=pipelines)


@dataclass
class _PlanInstance:
    """A per-resource-group plan instantiation."""

    plan: QueryPlan
    pipelines: Dict[int, EnginePipeline] = field(default_factory=dict)
    #: Whether the final pipeline's sink was wrapped in a
    #: :class:`~repro.engine.operators.ChannelSink` — the result then
    #: lives in the channel, not in the plan.
    streamed: bool = False


class EngineEnvironment:
    """Execution environment backed by real engine work.

    The scheduler identifies work as ``(resource group, pipeline
    index)``; this environment instantiates the matching engine plan
    per resource group on first touch and advances the pipeline's
    cursor by the carved tuple count, returning the *measured* wall
    time of the numpy kernels.
    """

    def __init__(self, db: TpchDatabase) -> None:
        self.db = db
        self._rng = RngFactory(db.seed)
        self._instances: Dict[int, _PlanInstance] = {}
        #: Open result channels by query id (see :meth:`open_channel`).
        self._channels: Dict[int, object] = {}
        # Concurrency seams (threaded backend): a creation lock guarding
        # instance/lock setup plus one lock per resource group that
        # serializes the group's engine work — the mini engine's
        # pipeline cursors are not thread-safe, so concurrent morsels of
        # *one* query are serialized while different queries proceed in
        # parallel.  Both stay None under sequential execution.
        self._creation_lock: Optional[threading.Lock] = None
        self._group_locks: Dict[int, threading.Lock] = {}

    def enable_concurrency(self) -> None:
        """Make ``run_morsel`` safe to call from multiple worker threads."""
        if self._creation_lock is None:
            self._creation_lock = threading.Lock()

    # ------------------------------------------------------------------
    # ExecutionEnvironment protocol
    # ------------------------------------------------------------------
    def run_morsel(self, task_set: TaskSet, tuples: int) -> float:
        group = task_set.resource_group
        creation_lock = self._creation_lock
        if creation_lock is None:
            instance = self._instances.get(group.query_id)
            if instance is None:
                instance = _PlanInstance(
                    plan=build_engine_query(group.query.name, self.db)
                )
                self._instances[group.query_id] = instance
            return self._run_pipeline_morsel(instance, task_set, group, tuples)
        with creation_lock:
            instance = self._instances.get(group.query_id)
            if instance is None:
                instance = _PlanInstance(
                    plan=build_engine_query(group.query.name, self.db)
                )
                self._instances[group.query_id] = instance
            group_lock = self._group_locks.get(group.query_id)
            if group_lock is None:
                group_lock = threading.Lock()
                self._group_locks[group.query_id] = group_lock
        with group_lock:
            return self._run_pipeline_morsel(instance, task_set, group, tuples)

    def _run_pipeline_morsel(
        self,
        instance: _PlanInstance,
        task_set: TaskSet,
        group,
        tuples: int,
    ) -> float:
        index = task_set.pipeline_index
        pipeline = instance.pipelines.get(index)
        if pipeline is None:
            if index >= len(instance.plan.pipelines):
                raise EngineError(
                    f"query {group.query.name!r} has no pipeline {index}"
                )
            pipeline = instance.plan.pipelines[index]
            instance.pipelines[index] = pipeline
            if index == len(instance.plan.pipelines) - 1:
                channel = self._channels.get(group.query_id)
                sink = getattr(pipeline, "sink", None)
                if (
                    channel is not None
                    and sink is not None
                    and sink.streams_rows
                ):
                    # Final pipeline of a channel-opened query: result
                    # rows leave per morsel instead of materializing.
                    pipeline.sink = ChannelSink(sink, channel)
                    instance.streamed = True
            # The previous pipeline must be finalized before this one
            # starts (resource-group ordering); finalize it now if the
            # scheduler has not done so via finalize_pipeline.
            if index > 0:
                previous = instance.plan.pipelines[index - 1]
                if not previous.finalized:
                    previous.finalize()
        start = time.perf_counter()
        pipeline.run_morsel(tuples)
        elapsed = time.perf_counter() - start
        # Guard against timer granularity: a zero-duration morsel would
        # break throughput estimation and stride accounting.
        return max(elapsed, 1.0e-7)

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    def open_channel(self, query_id: int, channel) -> None:
        """Attach a result channel to ``query_id`` before it executes.

        If the query's final pipeline can stream (its sink is a
        :class:`~repro.engine.operators.CollectSink`), result rows flow
        into the channel per morsel; otherwise the materialized result
        is pushed as a single terminal chunk at :meth:`finish_query`.
        Must be called before the query's first morsel runs.
        """
        self._channels[query_id] = channel

    def discard_query(self, query_id: int) -> None:
        """Drop a query's plan state without finalizing it.

        For a cancelled or failed query, finalization would drain the
        remaining relation through the pipeline (the defensive drain in
        ``EnginePipeline.finalize``) — exactly the work cancellation is
        meant to avoid.
        """
        self._instances.pop(query_id, None)
        self._channels.pop(query_id, None)
        self._group_locks.pop(query_id, None)

    def finish_query(self, query_id: int) -> object:
        """Finalize any remaining pipelines, return the result and
        release the query's plan state.

        For a query whose rows streamed through a channel the engine
        holds no materialized value — the chunks in the channel are the
        result — so ``None`` is returned instead.  Nothing else is kept
        here: the environment outlives its queries (a threaded server's
        lives as long as the server), so join tables, aggregate state
        and collected rows go with the plan instance.
        """
        instance = self._instances.get(query_id)
        if instance is None:
            raise EngineError(f"query {query_id} never executed")
        try:
            for pipeline in instance.plan.pipelines:
                if not pipeline.finalized:
                    pipeline.finalize()
            if instance.streamed:
                return None
            result = instance.plan.result()
            channel = self._channels.get(query_id)
            if channel is not None:
                # Pipeline-breaker final sink: the whole result crosses
                # as one terminal chunk so handles can still fetch/iterate.
                channel.put_final(result)
            return result
        finally:
            self.discard_query(query_id)

    def rng(self, name: str):
        """Named deterministic RNG stream, as the simulator's (lottery picks)."""
        return self._rng.stream(name)

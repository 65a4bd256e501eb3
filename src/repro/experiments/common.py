"""Shared infrastructure for the figure-reproduction experiments.

The paper runs each sustained-load experiment for 5-30 minutes on a 20
hardware-thread machine.  A pure-Python discrete-event simulation cannot
process that many scheduling events in a benchmark run, so each driver
accepts an :class:`ExperimentConfig` with two presets:

* :meth:`ExperimentConfig.quick` — scaled-down durations (default for
  the pytest benchmarks; minutes of virtual time become tens of
  seconds).  All *relative* effects survive the scaling because every
  scheduler sees the identical workload.
* :meth:`ExperimentConfig.paper` — closer to the paper's setup for
  longer offline runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import SchedulerConfig, make_scheduler
from repro.core.os_scheduler import OsSchedulerModel, OsSystemProfile
from repro.core.specs import QuerySpec
from repro.metrics.latency import LatencyCollector, query_key
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.trace import TraceRecorder
from repro.simcore import RngFactory, SimulationResult
from repro.workloads import generate_workload, tpch_mix
from repro.workloads.mixes import QueryMix

Workload = List[Tuple[float, QuerySpec]]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    n_workers: int = 20
    seed: int = 42
    #: Sustained-run length in virtual seconds.
    duration: float = 30.0
    t_max: float = 0.002
    noise_sigma: float = 0.05
    #: Tracking / refresh durations for the self-tuning controller,
    #: scaled with ``duration`` relative to the paper's 20 s / 60 s.
    tracking_duration: float = 3.0
    refresh_duration: float = 10.0
    #: Code-generation time per query (end-to-end experiments only).
    compile_seconds: float = 0.0
    sf_small: float = 3.0
    sf_large: float = 30.0
    p_small: float = 0.75

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Benchmark-friendly scale (default)."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """Close to the paper's setup; minutes of virtual time."""
        return cls(
            duration=300.0,
            tracking_duration=20.0,
            refresh_duration=60.0,
        )

    def with_options(self, **kwargs) -> "ExperimentConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    def scheduler_config(self, **overrides) -> SchedulerConfig:
        """Derive the scheduler configuration."""
        base = dict(
            n_workers=self.n_workers,
            t_max=self.t_max,
            tracking_duration=self.tracking_duration,
            refresh_duration=self.refresh_duration,
        )
        base.update(overrides)
        return SchedulerConfig(**base)

    def mix(self) -> QueryMix:
        """The paper's TPC-H SF3/SF30 mix under this configuration."""
        return tpch_mix(
            sf_small=self.sf_small,
            sf_large=self.sf_large,
            p_small=self.p_small,
            compile_seconds=self.compile_seconds,
        )


# ----------------------------------------------------------------------
# Base latencies
# ----------------------------------------------------------------------
#: Memoized isolated base latencies.  The measurement is a deterministic
#: pure function of (query specs, scheduler-relevant config fields), so
#: repeat figure runs under the same config — e.g. a sequential and a
#: parallel sweep of the same figure — reuse it instead of re-simulating
#: every query in isolation.
_ISOLATED_LATENCY_CACHE: Dict[tuple, Dict[str, float]] = {}


def measure_isolated_latencies(
    queries: Iterable[QuerySpec],
    config: ExperimentConfig,
) -> Dict[str, float]:
    """Isolated all-cores latency per distinct query (§5.2 baseline).

    Each query runs alone through the stride scheduler with noise
    disabled; the result is deterministic and scheduler-independent,
    which makes it memoizable across sweep cells of one experiment run.
    """
    queries = list(queries)
    cache_key = (
        tuple(queries),
        config.n_workers,
        config.t_max,
        config.seed,
        config.tracking_duration,
        config.refresh_duration,
    )
    cached = _ISOLATED_LATENCY_CACHE.get(cache_key)
    if cached is not None:
        return dict(cached)
    backend = SimulatedBackend(
        lambda: make_scheduler("stride", config.scheduler_config()),
        seed=config.seed,
        noise_sigma=0.0,
    )
    bases: Dict[str, float] = {}
    for query in queries:
        key = query_key(query.name, query.scale_factor)
        if key in bases:
            continue
        result = backend.execute([(0.0, query)])
        bases[key] = result.records.records[0].latency
    _ISOLATED_LATENCY_CACHE[cache_key] = dict(bases)
    return bases


def single_thread_latencies(queries: Iterable[QuerySpec]) -> Dict[str, float]:
    """Single-threaded base latency per query (§5.4 baseline, analytic)."""
    bases: Dict[str, float] = {}
    for query in queries:
        bases[query_key(query.name, query.scale_factor)] = query.total_work_seconds
    return bases


def os_single_thread_latencies(
    queries: Iterable[QuerySpec], profile: OsSystemProfile
) -> Dict[str, float]:
    """Single-threaded base latency inside an OS-scheduled system."""
    bases: Dict[str, float] = {}
    for query in queries:
        bases[query_key(query.name, query.scale_factor)] = (
            profile.single_thread_latency(query)
        )
    return bases


# ----------------------------------------------------------------------
# Running policies
# ----------------------------------------------------------------------
def run_policy(
    name: str,
    workload: Workload,
    config: ExperimentConfig,
    max_time: Optional[float] = None,
    trace: Optional[TraceRecorder] = None,
    scheduler_overrides: Optional[dict] = None,
) -> SimulationResult:
    """Run one task-based scheduler on a workload instance.

    Executes through the virtual-time backend of :mod:`repro.runtime`,
    which constructs scheduler and simulator exactly as this function
    historically did — results are bit-identical.
    """
    overrides = scheduler_overrides or {}
    backend = SimulatedBackend(
        lambda: make_scheduler(name, config.scheduler_config(**overrides)),
        seed=config.seed,
        noise_sigma=config.noise_sigma,
        max_time=max_time,
        trace=trace,
    )
    return backend.execute(workload)


def run_os_system(
    profile: OsSystemProfile,
    workload: Workload,
    config: ExperimentConfig,
    max_time: Optional[float] = None,
) -> LatencyCollector:
    """Run the fluid model of an OS-scheduled system on a workload."""
    model = OsSchedulerModel(profile, n_cores=config.n_workers)
    return model.run(list(workload), max_time=max_time)


def build_workload(
    mix: QueryMix,
    rate: float,
    config: ExperimentConfig,
    salt: int = 0,
) -> Workload:
    """Deterministic Poisson workload for this experiment config."""
    rng = RngFactory(config.seed).fork(salt).stream("workload")
    return generate_workload(mix, rate=rate, duration=config.duration, rng=rng)


def split_by_scale_factor(
    collector: LatencyCollector, small: float, large: float
) -> Tuple[list, list]:
    """Split latency records into the (short, long) query populations."""
    groups = collector.by_scale_factor()
    return groups.get(small, []), groups.get(large, [])


def filter_queries(
    collector: LatencyCollector, names: Sequence[str]
) -> Dict[str, Dict[float, list]]:
    """records[name][scale_factor] for the selected query names."""
    wanted = set(names)
    out: Dict[str, Dict[float, list]] = {name: {} for name in names}
    for record in collector.records:
        if record.name in wanted:
            out[record.name].setdefault(record.scale_factor, []).append(record)
    return out

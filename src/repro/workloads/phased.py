"""Composable workload builders: phases, bursts and tenants.

The basic generator draws one stationary Poisson workload.  Real
analytical workloads — and the scenarios that motivate self-tuning (§4)
— are non-stationary: the mix shifts over time, bursts arrive on top of
a base load, and multiple tenants with different priorities share the
system.  This module provides small composable builders for those
shapes; they all produce the plain ``[(arrival_time, QuerySpec)]``
workload the simulator consumes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.specs import QuerySpec
from repro.errors import WorkloadError
from repro.simcore.rng import RngFactory
from repro.workloads.generator import Workload, generate_workload
from repro.workloads.mixes import QueryMix


@dataclass(frozen=True)
class WorkloadPhase:
    """One stationary stretch of a phased workload."""

    mix: QueryMix
    duration: float
    #: Arrival rate; ``None`` derives it from ``load`` and the workers.
    rate: Optional[float] = None
    load: Optional[float] = None

    def resolved_rate(self, n_workers: int) -> float:
        """The phase's arrival rate (resolving a load target if given)."""
        if self.rate is not None:
            return self.rate
        if self.load is None:
            raise WorkloadError("phase needs either a rate or a load target")
        mean_work = self.mix.expected_work_seconds()
        return self.load * n_workers / mean_work


def phased_workload(
    phases: Sequence[WorkloadPhase],
    n_workers: int,
    rng_factory: RngFactory,
) -> Workload:
    """Concatenate stationary phases into one workload.

    Each phase gets an independent RNG stream, so editing one phase
    never reshuffles the others.
    """
    if not phases:
        raise WorkloadError("need at least one phase")
    workload: Workload = []
    offset = 0.0
    for index, phase in enumerate(phases):
        if phase.duration <= 0.0:
            raise WorkloadError(f"phase {index} has non-positive duration")
        rng = rng_factory.stream(f"phase-{index}")
        rate = phase.resolved_rate(n_workers)
        for arrival, query in generate_workload(phase.mix, rate, phase.duration, rng):
            workload.append((offset + arrival, query))
        offset += phase.duration
    return workload


def burst_workload(
    base: Workload,
    burst_mix: QueryMix,
    burst_at: float,
    burst_size: int,
    rng_factory: RngFactory,
    spread: float = 0.0,
) -> Workload:
    """Overlay a burst of ``burst_size`` queries onto a base workload.

    ``spread`` > 0 smears the burst uniformly over that many seconds;
    0 means all queries arrive at the same instant — the admission-queue
    stress case of §2.3.
    """
    if burst_size < 0:
        raise WorkloadError("burst size must be non-negative")
    rng = rng_factory.stream("burst")
    queries = burst_mix.sample(burst_size, rng)
    if spread > 0.0:
        offsets = np.sort(rng.uniform(0.0, spread, size=burst_size))
    else:
        offsets = np.zeros(burst_size)
    merged = list(base)
    merged.extend(
        (burst_at + float(offset), query) for offset, query in zip(offsets, queries)
    )
    merged.sort(key=lambda item: item[0])
    return merged


@dataclass(frozen=True)
class Tenant:
    """One tenant: a mix, an arrival rate, and a user priority (§3.2).

    ``sla`` optionally names the tenant's admission class (see
    :mod:`repro.runtime.admission`): the cluster router reads it off
    the generated queries' ``sla:<name>`` tag to route and shed by
    class, so the §3.2 fairness experiments run unchanged against a
    sharded cluster.
    """

    name: str
    mix: QueryMix
    rate: float
    user_priority: float = 1.0
    sla: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise WorkloadError(f"tenant {self.name!r}: rate must be positive")
        if self.user_priority <= 0.0:
            raise WorkloadError(f"tenant {self.name!r}: priority must be positive")


def multi_tenant_workload(
    tenants: Sequence[Tenant],
    duration: float,
    rng_factory: RngFactory,
) -> Workload:
    """Interleave independent tenant streams into one workload.

    Every query is tagged with its tenant (``tags=("tenant:<name>",)``)
    and carries the tenant's user priority, which the stride scheduler's
    decay machinery applies as the §3.2 scaling of p0 and p_min.
    """
    if not tenants:
        raise WorkloadError("need at least one tenant")
    workload: Workload = []
    for tenant in tenants:
        rng = rng_factory.stream(f"tenant-{tenant.name}")
        tags = (f"tenant:{tenant.name}",)
        if tenant.sla is not None:
            tags = tags + (f"sla:{tenant.sla}",)
        for arrival, query in generate_workload(
            tenant.mix, tenant.rate, duration, rng
        ):
            tagged = replace(
                query,
                user_priority=tenant.user_priority,
                tags=tuple(query.tags) + tags,
            )
            workload.append((arrival, tagged))
    workload.sort(key=lambda item: item[0])
    return workload


def tenant_of(query: QuerySpec) -> Optional[str]:
    """Extract the (interned) tenant name from a tagged query (or ``None``)."""
    for tag in query.tags:
        if tag.startswith("tenant:"):
            return sys.intern(tag.split(":", 1)[1])
    return None


def sla_of(query: QuerySpec) -> Optional[str]:
    """Extract the (interned) SLA class name from a tagged query (or ``None``)."""
    for tag in query.tags:
        if tag.startswith("sla:"):
            return sys.intern(tag.split(":", 1)[1])
    return None

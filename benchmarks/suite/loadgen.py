"""Seeded inputs for the seven workloads.

Everything a workload feeds the program is made here from ``--seed``;
the program never sees the seed, only the generated inputs.  Mixes are
*stratified*: the multiset of queries in a run is fixed by its size and
the seed decides their order and arrival times.  Two seeds therefore
give different workloads that cost the same total work, so a host-time
metric read on ten seeds spreads by what the machine does, not by how
many heavy queries a seed happened to draw.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

# Spec builders are called through their modules so the traced run's
# wrappers (installed on the module attributes) see the calls.
from repro.workloads import load, mixes, profiles

#: The ten non-streaming engine query shapes, cheapest first (Zipf rank
#: order of ``sharing_overlap``; the streaming scan ``QS`` is separate).
ENGINE_SHAPES = ("Q6", "Q14", "Q22", "Q12", "Q19", "Q3", "Q4", "Q13", "Q1", "Q18")
STREAM_SHAPE = "QS"
#: Phase B of ``serve_threaded``: what runs in the background, what probes.
LONG_SHAPES = ("Q18", "Q1")
SHORT_SHAPES = ("Q6", "Q14", "Q22", "Q12")

#: Sub-stream ids, so that each generator draws from its own stream.
_PAPER, _BURST, _PROBES, _TENANTS, _ZIPF, _PROCESS, _TUNE, _CHURN = range(8)


def rng(seed: int, stream: int, epoch: int = 0) -> np.random.Generator:
    """The generator of one (seed, stream, epoch) cell."""
    return np.random.default_rng([int(seed), stream, epoch])


def units(base: float, scale: float, minimum: int = 1) -> int:
    """``base`` work units at size ``scale`` (1.0 = ``--seconds 10``)."""
    return max(minimum, int(round(base * scale)))


def _uniform_arrivals(generator, count: int, duration: float) -> np.ndarray:
    """``count`` sorted arrival times on ``[0, duration)`` — a Poisson
    process conditioned on its count, so the count stays fixed."""
    return np.sort(generator.uniform(0.0, duration, size=count))


# ----------------------------------------------------------------------
# kernel_sim: the paper's mix
# ----------------------------------------------------------------------
def _paper_specs(groups: int):
    """The paper mix and ``groups`` × 88 of its queries, SF3:SF30 = 3:1."""
    mix = mixes.tpch_mix()
    specs = []
    for query, weight in mix.entries:
        # p_small = 0.75: three SF3 instances per SF30 instance.
        specs.extend([query] * (3 if weight > 0.5 else 1) * groups)
    return mix, specs


def paper_workload(seed: int, groups: int, n_workers: int, load_factor: float):
    """TPC-H at SF3:SF30 = 3:1, ``groups`` × 88 queries, at ``load_factor``.

    Arrivals are stratified in time as well: each window of 88 arrivals
    holds the whole mix once, in seeded order at seeded (uniform) times.
    Bursts still form inside a window, but no seed draws a backlog that
    lasts the whole run — which cost one seed in ten a fifth of its host
    throughput, at equal task counts, when the order was drawn over the
    whole run.

    Returns ``(workload, mix, duration)``; the duration follows from the
    fixed query count and the arrival rate of the requested load.
    """
    mix, window_specs = _paper_specs(1)
    rate = load.arrival_rate_for_load(mix, load_factor, n_workers=n_workers)
    window = len(window_specs) / rate
    generator = rng(seed, _PAPER)
    workload = []
    for index in range(groups):
        order = generator.permutation(len(window_specs))
        times = index * window + _uniform_arrivals(generator, len(window_specs), window)
        workload.extend((float(t), window_specs[int(i)]) for t, i in zip(times, order))
    return workload, mix, groups * window


# ----------------------------------------------------------------------
# serve_threaded / process_epochs: engine query names
# ----------------------------------------------------------------------
def shuffled_names(seed: int, stream: int, names: Sequence[str], copies: int,
                   epoch: int = 0) -> List[str]:
    """``copies`` of every name, in seeded order."""
    pool = [name for name in names for _ in range(copies)]
    order = rng(seed, stream, epoch).permutation(len(pool))
    return [pool[int(i)] for i in order]


def burst_names(seed: int, per_shape: int, burst: int = 0) -> List[str]:
    return shuffled_names(seed, _BURST, ENGINE_SHAPES, per_shape, burst)


def probe_names(seed: int, per_shape: int) -> List[str]:
    """Phase B: the short probes, in seeded order."""
    return shuffled_names(seed, _PROBES, SHORT_SHAPES, per_shape)


def process_epoch(seed: int, epoch: int, per_shape: int, streams: int,
                  spacing: float) -> List[Tuple[float, str]]:
    """One ``process_epochs`` epoch: staggered ``(at, name)`` pairs."""
    names = shuffled_names(seed, _PROCESS, ENGINE_SHAPES, per_shape, epoch)
    generator = rng(seed, _PROCESS, 1000 + epoch)
    for _ in range(streams):
        names.insert(int(generator.integers(len(names) + 1)), STREAM_SHAPE)
    return [(index * spacing, name) for index, name in enumerate(names)]


# ----------------------------------------------------------------------
# cluster_tenants / lifecycle_churn: two tenants of short model queries
# ----------------------------------------------------------------------
def _tenant_specs(sf_small: float, sf_large: float, groups: int, tenant: str,
                  sla: str, user_priority: float):
    tags = (f"tenant:{tenant}", f"sla:{sla}")
    specs = []
    for name in profiles.TPCH_QUERY_NAMES:
        for scale_factor, copies in ((sf_small, 3), (sf_large, 1)):
            spec = profiles.tpch_query(name, scale_factor)
            spec = replace(spec, user_priority=user_priority,
                           tags=tuple(spec.tags) + tags)
            specs.extend([spec] * copies * groups)
    return specs


def tenant_epoch(seed: int, epoch: int, dash_groups: int, etl_groups: int,
                 duration: float, stream: int = _TENANTS):
    """One epoch of the two-tenant stream: ``[(arrival, spec)]`` by arrival.

    ``dash`` (latency class, weight 4) sends 88 × ``dash_groups`` tiny
    queries, ``etl`` (bulk class) 88 × ``etl_groups`` larger ones, both
    spread over ``duration`` virtual seconds.
    """
    generator = rng(seed, stream, epoch)
    out = []
    for specs in (
        _tenant_specs(0.02, 0.08, dash_groups, "dash", "latency", 4.0),
        _tenant_specs(0.5, 1.5, etl_groups, "etl", "bulk", 1.0),
    ):
        order = generator.permutation(len(specs))
        times = _uniform_arrivals(generator, len(specs), duration)
        out.extend((float(t), specs[int(i)]) for t, i in zip(times, order))
    out.sort(key=lambda item: item[0])
    return out


def churn_epoch(seed: int, epoch: int, dash_groups: int, etl_groups: int,
                duration: float):
    """A ``lifecycle_churn`` epoch plus its per-query lifecycle events.

    Returns ``(workload, deadlines, cancels)``: ``deadlines[i]`` is the
    deadline of query ``i`` (30 % of ``etl`` queries) or ``None``;
    ``cancels`` is the set of positions (5 %) cancelled before the drain.
    """
    workload = tenant_epoch(seed, epoch, dash_groups, etl_groups, duration, _CHURN)
    generator = rng(seed, _CHURN, 10_000 + epoch)
    deadlines: List = [None] * len(workload)
    for index, (_, spec) in enumerate(workload):
        if "tenant:etl" in spec.tags and generator.random() < 0.30:
            # 0.4x to 2x the query's own single-thread work: on two
            # workers the tightest are missed even on an idle shard.
            deadlines[index] = float(
                spec.total_work_seconds * generator.uniform(0.4, 2.0)
            )
    n_cancel = max(1, len(workload) // 20)
    cancels = {int(i) for i in generator.choice(len(workload), n_cancel, replace=False)}
    return workload, deadlines, cancels


def fault_seed(seed: int, epoch: int, shard: int) -> int:
    """The seed of one shard's fault plan in one epoch."""
    return int(rng(seed, _CHURN, 20_000 + epoch * 64 + shard).integers(2**31))


# ----------------------------------------------------------------------
# sharing_overlap: Zipf(1) over the engine shapes
# ----------------------------------------------------------------------
def zipf_counts(count: int) -> List[int]:
    """How often each rank appears among ``count`` Zipf(1) picks: the
    expected counts, rounded by largest remainder, every rank at least once."""
    weights = 1.0 / np.arange(1, len(ENGINE_SHAPES) + 1)
    expected = count * weights / weights.sum()
    counts = np.maximum(1, np.floor(expected).astype(int))
    for rank in np.argsort(-(expected - counts), kind="stable"):
        if counts.sum() >= count:
            break
        counts[rank] += 1
    return [int(c) for c in counts]


def zipf_epoch(seed: int, epoch: int, count: int, spacing: float):
    """``count`` names, Zipf(1) by rank in :data:`ENGINE_SHAPES`, in
    seeded arrival order ``spacing`` apart."""
    names = [
        name
        for name, copies in zip(ENGINE_SHAPES, zipf_counts(count))
        for _ in range(copies)
    ]
    order = rng(seed, _ZIPF, epoch).permutation(len(names))
    return [(index * spacing, names[int(i)]) for index, i in enumerate(order)]


# ----------------------------------------------------------------------
# tune_cycles: a bursty model workload
# ----------------------------------------------------------------------
def bursty_epoch(seed: int, epoch: int, groups: int, n_workers: int,
                 load_factor: float = 0.9, bursts: int = 6):
    """88 × ``groups`` paper-mix queries arriving in ``bursts`` clumps."""
    _, specs = _paper_specs(groups)
    generator = rng(seed, _TUNE, epoch)
    order = generator.permutation(len(specs))
    work = sum(spec.total_work_seconds for spec in specs)
    duration = work / (n_workers * load_factor)
    centres = generator.uniform(0.0, duration, size=bursts)
    times = np.sort(
        np.clip(
            centres[generator.integers(bursts, size=len(specs))]
            + generator.exponential(duration / (bursts * 8), size=len(specs)),
            0.0,
            duration,
        )
    )
    return [(float(t), specs[int(i)]) for t, i in zip(times, order)]

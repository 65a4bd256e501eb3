"""Every metric the benchmark reports: name, unit, direction, bound, source.

Two time bases exist and every name says which: **host** time is what
the Python program costs on this machine (the performance metrics);
**virtual** time is what the modelled scheduler achieves (prefix
``virt_``) — exactly repeatable at a fixed seed, so a change there means
the *model* changed.

``END_TO_END`` are the metrics ``BENCHMARK.json`` bounds: each is defined
on all seven workloads.  ``WORKLOAD_METRICS`` are the end-to-end metrics
that exist on some workloads only (the paper's quantities among them);
the driver's contract wants every bounded metric on every workload, so
they are reported with the per-layer metrics instead, measured in the
untraced run.  ``PER_LAYER`` come from the traced run.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, NamedTuple, Tuple

from benchmarks.suite import stats
from benchmarks.suite.trace import (
    CALLS,
    ERRORS,
    SELF,
    TOTAL,
    WORKER_ROOT,
    layer_self_seconds,
    merge_totals,
)

from repro.metrics.slowdown import percentile

WORKLOADS = (
    "kernel_sim",
    "serve_threaded",
    "cluster_tenants",
    "lifecycle_churn",
    "sharing_overlap",
    "process_epochs",
    "tune_cycles",
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"


class Bounded(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float


#: Host-time bounds are the 25 % the driver allows: on a shared 2-core
#: box ten runs on ten seeds spread (inter-quartile distance over the
#: median) by 2-12 %, and further inside a slow episode; see the README.
END_TO_END = (
    Bounded("setup_s", "s", "lower", 0.25),
    Bounded("peak_rss_mb", "MiB", "lower", 0.15),
    Bounded("queries_per_s", "1/s", "higher", 0.25),
    Bounded("op_latency_p50_ms", "ms", "lower", 0.25),
)

#: name -> (unit, better, bound, the workloads it is defined on).  A
#: bound of 0 means exact: the value repeats bit for bit at one seed.
WORKLOAD_METRICS: Dict[str, Tuple[str, str, float, Tuple[str, ...]]] = {
    "sim_tasks_per_s": ("1/s", "higher", 0.25, ("kernel_sim",)),
    "short_latency_p50_ms": ("ms", "lower", 0.25, ("serve_threaded",)),
    "tune_cycle_s": ("s", "lower", 0.25, ("tune_cycles",)),
    "virt_mean_slowdown": ("ratio", "lower", 0.0, ("kernel_sim",)),
    "virt_short_p95_ms": ("ms", "lower", 0.0, ("kernel_sim",)),
    "virt_latency_class_p99_ms": ("ms", "lower", 0.0, ("cluster_tenants",)),
    "virt_tuned_slowdown_ratio": ("ratio", "higher", 0.0, ("tune_cycles",)),
    "virt_survivor_p95_ms": ("ms", "lower", 0.0, ("lifecycle_churn",)),
    # Counted, but through a cache whose eviction order follows measured
    # time (see sharing_overlap): near-exact, so it carries a bound.
    "virt_work_saved_frac": ("fraction", "higher", 0.05, ("sharing_overlap",)),
}


# ----------------------------------------------------------------------
# Reading one workload's child results
# ----------------------------------------------------------------------
class View:
    """The untraced and the traced child results of one workload."""

    def __init__(self, untraced: List[dict], traced: dict) -> None:
        self.untraced = untraced
        self.traced = traced
        trace = traced.get("trace", {})
        self._root = trace.get("root", {})
        # Every thread of the workload's process plus its pool workers.
        # The parent's ``pool.call`` covers the worker's whole epoch, so
        # what the worker recorded is taken out of its self time: the
        # rest is dispatch, framing and the pipe.
        self._all = {key: list(cell) for key, cell in trace.get("all", {}).items()}
        worker = trace.get("worker", {})
        if worker:
            merge_totals(self._all, worker)
            self._all["pool.call"][SELF] -= worker[WORKER_ROOT][TOTAL]
        self._other = trace.get("other", {})
        self._setup = trace.get("setup", {})

    def _cell(self, table: dict, key: str, index: int) -> float:
        cell = table.get(key)
        return float(cell[index]) if cell else 0.0

    def self_s(self, *keys: str) -> float:
        return sum(self._cell(self._all, key, SELF) for key in keys)

    def total_s(self, *keys: str) -> float:
        """Σ duration.  Not for a key whose boundaries nest under it
        (``workloads.generate``, ``server.result``): the inner calls
        would count twice, and their Σ self is the outer duration."""
        return sum(self._cell(self._all, key, TOTAL) for key in keys)

    def calls(self, *keys: str) -> float:
        return sum(self._cell(self._all, key, CALLS) for key in keys)

    def errors(self, key: str) -> float:
        return self._cell(self._all, key, ERRORS)

    def worker_total_s(self, *keys: str) -> float:
        return sum(self._cell(self._other, key, TOTAL) for key in keys)

    def setup_total_s(self, *keys: str) -> float:
        return sum(self._cell(self._setup, key, TOTAL) for key in keys)

    def setup_self_s(self, *keys: str) -> float:
        return sum(self._cell(self._setup, key, SELF) for key in keys)

    def layer(self, name: str) -> float:
        return float(self.traced["layer"].get(name, 0.0))

    def exact(self, name: str) -> float:
        return float(self.traced["exact"].get(name, 0.0))

    def samples(self, name: str) -> Tuple[float, ...]:
        return stats.pooled([rep["samples"].get(name, ()) for rep in self.untraced])

    def host_values(self, name: str) -> Tuple[float, ...]:
        """Every measurement of a host-time quantity: one per repetition,
        or several where a repetition measures it more than once."""
        if name in ("setup_s", "peak_rss_mb"):
            return tuple(rep[name] for rep in self.untraced)
        scalars = tuple(rep["host"][name] for rep in self.untraced if name in rep["host"])
        return scalars + self.samples(name)

    def rep_values(self, name: str) -> Tuple[float, ...]:
        """One value per repetition: its scalar, or the median of its samples."""
        if name in ("setup_s", "peak_rss_mb"):
            return tuple(rep[name] for rep in self.untraced)
        return tuple(
            rep["host"][name] if name in rep["host"]
            else statistics.median(rep["samples"][name])
            for rep in self.untraced
            if name in rep["host"] or rep["samples"].get(name)
        )

    def host(self, name: str) -> float:
        """The median repetition: set-up, memory, counts."""
        values = self.rep_values(name)
        return statistics.median(values) if values else 0.0

    def quietest(self, name: str, better: str) -> float:
        """The best repetition: what the machine does to a run only ever
        adds time, so of several repetitions of identical work the
        quickest is the closest reading of what the program costs."""
        values = self.rep_values(name)
        if not values:
            return 0.0
        return min(values) if better == "lower" else max(values)

    def root_wall(self) -> float:
        return float(self.traced["root_wall"])

    def untraced_root_wall(self) -> float:
        return statistics.median(rep["root_wall"] for rep in self.untraced)

    def unattributed_frac(self) -> float:
        wall = self._cell(self._root, "loadgen.root", TOTAL)
        return self._cell(self._root, "loadgen.root", SELF) / wall if wall else 0.0

    def loadgen_self_s(self) -> float:
        """Self time of the harness's own spans, the root span aside."""
        return sum(
            cell[SELF]
            for key, cell in self._root.items()
            if key.startswith("loadgen.") and key != "loadgen.root"
        )

    def root_self_sum(self) -> float:
        """Σ self over every key of the load generator's thread."""
        return sum(cell[SELF] for cell in self._root.values())

    def layer_shares(self) -> Dict[str, float]:
        """Each layer's share of all self time recorded, every thread."""
        table = dict(self._all)
        table.pop("loadgen.root", None)
        seconds = layer_self_seconds(table)
        total = sum(seconds.values())
        return {layer: value / total for layer, value in sorted(seconds.items())} if total else {}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_values(view: View) -> Dict[str, float]:
    """The bounded metrics of one workload, from its untraced runs."""
    return {
        "setup_s": view.host("setup_s"),
        "peak_rss_mb": view.host("peak_rss_mb"),
        "queries_per_s": view.quietest("queries_per_s", "higher"),
        "op_latency_p50_ms": view.quietest("op_latency_ms", "lower"),
    }


def workload_metric_values(view: View, workload: str) -> Dict[str, float]:
    """The workload-specific end-to-end metrics (0.0 where undefined)."""
    first = view.untraced[0]["exact"]
    values = {}
    for name, (_, _, _, defined_on) in WORKLOAD_METRICS.items():
        if workload not in defined_on:
            values[name] = 0.0
        elif name in first:
            values[name] = float(first[name])
        elif name == "short_latency_p50_ms":
            values[name] = view.quietest("op_latency_ms", "lower")
        elif name == "tune_cycle_s":
            values[name] = view.quietest("op_latency_ms", "lower") / 1e3
        elif name == "sim_tasks_per_s":
            values[name] = view.quietest(name, "higher")
        else:
            values[name] = view.host(name)
    return values


def _tail(view: View, q: float) -> float:
    samples = view.samples("op_latency_ms")
    return percentile(samples, q) if samples else 0.0


#: (metric, how to read it).  "moves" — which end-to-end metric each one
#: should move, on which workload — is the README's table.
PER_LAYER: Tuple[Tuple[Metric, Callable[[View], float]], ...] = (
    # workloads
    # tpch_mix calls tpch_query under the same key: read by self time.
    (Metric("workloads.generate_s", "s", "lower"),
     lambda v: v.setup_self_s("workloads.generate") + v.self_s("workloads.generate")),
    # server
    (Metric("server.submit_calls", "count", "lower"), lambda v: v.calls("server.submit")),
    (Metric("server.submit_self_s", "s", "lower"), lambda v: v.self_s("server.submit")),
    (Metric("server.drain_self_s", "s", "lower"), lambda v: v.self_s("server.drain")),
    (Metric("server.result_self_s", "s", "lower"), lambda v: v.self_s("server.result")),
    (Metric("server.retries_used", "count", "lower"), lambda v: v.layer("server.retries_used")),
    # cluster
    (Metric("cluster.submit_self_s", "s", "lower"), lambda v: v.self_s("cluster.submit")),
    (Metric("cluster.placement_calls", "count", "lower"),
     lambda v: v.calls("cluster.placement_choose")),
    (Metric("cluster.placement_choose_s", "s", "lower"),
     lambda v: v.total_s("cluster.placement_choose")),
    (Metric("cluster.drain_self_s", "s", "lower"), lambda v: v.self_s("cluster.drain")),
    (Metric("cluster.drain_shard_s", "s", "lower"), lambda v: v.total_s("cluster.drain_shard")),
    (Metric("cluster.moved_queries", "count", "lower"),
     lambda v: v.calls("cluster.moved_queries")),
    (Metric("cluster.entries_live", "count", "lower"),
     lambda v: v.layer("cluster.entries_live")),
    # admission
    (Metric("admission.admit_calls", "count", "lower"), lambda v: v.calls("admission.admit")),
    (Metric("admission.admit_self_s", "s", "lower"), lambda v: v.self_s("admission.admit")),
    (Metric("admission.quota_scan_s", "s", "lower"),
     lambda v: v.total_s("admission.quota_scan")),
    (Metric("admission.quota_scan_us_first_epoch", "us", "lower"),
     lambda v: v.layer("admission.quota_scan_us_first_epoch")),
    (Metric("admission.quota_scan_us_last_epoch", "us", "lower"),
     lambda v: v.layer("admission.quota_scan_us_last_epoch")),
    (Metric("admission.rejected", "count", "lower"), lambda v: v.errors("admission.admit")),
    (Metric("admission.shed", "count", "lower"), lambda v: v.calls("admission.shed")),
    # tickets
    (Metric("tickets.register_self_s", "s", "lower"), lambda v: v.self_s("tickets.register")),
    (Metric("tickets.resolve_calls", "count", "lower"), lambda v: v.calls("tickets.resolve")),
    (Metric("tickets.alias_calls", "count", "lower"), lambda v: v.calls("tickets.alias")),
    (Metric("tickets.live_entries", "count", "lower"),
     lambda v: v.layer("tickets.live_entries")),
    # simulated backend
    (Metric("simulated.submit_self_s", "s", "lower"), lambda v: v.self_s("simulated.submit")),
    (Metric("simulated.drain_self_s", "s", "lower"), lambda v: v.self_s("simulated.drain")),
    (Metric("simulated.epochs", "count", "lower"),
     lambda v: v.calls("simcore.run") if v.calls("simulated.drain") else 0.0),
    # simcore
    (Metric("simcore.run_s", "s", "lower"), lambda v: v.total_s("simcore.run")),
    (Metric("simcore.self_s", "s", "lower"), lambda v: v.self_s("simcore.run")),
    (Metric("simcore.events", "count", "lower"), lambda v: v.calls("simcore.events")),
    (Metric("simcore.us_per_event", "us", "lower"),
     lambda v: _ratio(v.total_s("simcore.run") * 1e6, v.calls("simcore.events"))),
    # core
    (Metric("core.decide_calls", "count", "lower"), lambda v: v.calls("core.decide")),
    (Metric("core.decide_self_s", "s", "lower"), lambda v: v.self_s("core.decide")),
    (Metric("core.finish_self_s", "s", "lower"), lambda v: v.self_s("core.finish")),
    (Metric("core.admit_self_s", "s", "lower"), lambda v: v.self_s("core.admit")),
    (Metric("core.tasks_executed", "count", "lower"),
     lambda v: v.calls("core.tasks_executed") or v.layer("core.tasks_executed")),
    (Metric("core.us_per_task", "us", "lower"),
     lambda v: _ratio(
         v.self_s("core.decide", "core.finish", "core.admit") * 1e6,
         v.calls("core.tasks_executed") or v.layer("core.tasks_executed"))),
    (Metric("core.decide_none_frac", "fraction", "lower"),
     lambda v: _ratio(v.calls("core.decide_none"), v.calls("core.decide"))),
    (Metric("core.mask_update_ops", "count", "lower"),
     lambda v: v.calls("core.mask_updates_ops")),
    (Metric("core.local_work_ops", "count", "lower"),
     lambda v: v.calls("core.local_work_ops")),
    (Metric("core.finalization_ops", "count", "lower"),
     lambda v: v.calls("core.finalization_ops")),
    (Metric("core.cancelled_groups", "count", "lower"),
     lambda v: v.calls("core.cancelled_groups")),
    (Metric("core.failed_groups", "count", "lower"), lambda v: v.calls("core.failed_groups")),
    # engine
    (Metric("engine.run_morsel_calls", "count", "lower"),
     lambda v: v.calls("engine.run_morsel")),
    (Metric("engine.run_morsel_s", "s", "lower"), lambda v: v.total_s("engine.run_morsel")),
    (Metric("engine.finish_query_s", "s", "lower"), lambda v: v.total_s("engine.finish_query")),
    (Metric("engine.rows_out", "count", "higher"), lambda v: v.layer("engine.rows_out")),
    (Metric("engine.datagen_s", "s", "lower"), lambda v: v.setup_total_s("engine.datagen")),
    # threaded backend
    (Metric("threaded.submit_self_s", "s", "lower"), lambda v: v.self_s("threaded.submit")),
    (Metric("threaded.wait_s", "s", "lower"),
     lambda v: v.self_s("threaded.wait", "threaded.drain")),
    (Metric("threaded.worker_busy_frac", "fraction", "higher"),
     lambda v: _ratio(v.worker_total_s("core.decide", "core.finish"),
                      v.layer("threaded.workers") * v.root_wall())),
    (Metric("threaded.cpu_over_wall", "ratio", "higher"),
     lambda v: v.layer("threaded.cpu_over_wall")),
    (Metric("threaded.short_latency_p90_ms", "ms", "lower"),
     lambda v: _tail(v, 90.0) if v.layer("threaded.workers") else 0.0),
    (Metric("threaded.short_latency_p99_ms", "ms", "lower"),
     lambda v: _tail(v, 99.0) if v.layer("threaded.workers") else 0.0),
    (Metric("threaded.bg_queries_done", "count", "higher"),
     lambda v: v.layer("threaded.bg_queries_done")),
    (Metric("threaded.dead_workers", "count", "lower"),
     lambda v: v.layer("threaded.dead_workers")),
    # channel
    (Metric("channel.put_calls", "count", "lower"), lambda v: v.calls("channel.put")),
    (Metric("channel.put_wait_s", "s", "lower"), lambda v: v.total_s("channel.put_wait")),
    (Metric("channel.get_wait_s", "s", "lower"), lambda v: v.total_s("channel.get_wait")),
    (Metric("channel.chunks", "count", "lower"), lambda v: v.calls("channel.chunks")),
    (Metric("channel.peak_depth", "count", "lower"), lambda v: v.layer("channel.peak_depth")),
    (Metric("channel.first_batch_ms", "ms", "lower"),
     lambda v: v.layer("channel.first_batch_ms")),
    (Metric("channel.first_batch_frac", "fraction", "lower"),
     lambda v: v.layer("channel.first_batch_frac")),
    # process backend + pool
    (Metric("process.epoch_s", "s", "lower"), lambda v: v.total_s("process.drain")),
    (Metric("process.encode_s", "s", "lower"), lambda v: v.total_s("process.encode")),
    (Metric("process.decode_s", "s", "lower"), lambda v: v.total_s("process.decode")),
    (Metric("process.pipe_bytes_out", "B", "lower"),
     lambda v: v.calls("process.pipe_bytes_out")),
    (Metric("process.pipe_bytes_in", "B", "lower"),
     lambda v: v.calls("process.pipe_bytes_in")),
    (Metric("process.bytes_per_query", "B", "lower"),
     lambda v: _ratio(
         v.calls("process.pipe_bytes_out") + v.calls("process.pipe_bytes_in"),
         v.traced["attempted"]) if v.calls("process.pipe_bytes_out") else 0.0),
    (Metric("process.pool_rebuilds", "count", "lower"),
     lambda v: v.layer("process.pool_rebuilds")),
    (Metric("pool.cold_start_s", "s", "lower"), lambda v: v.layer("pool.cold_start_s")),
    (Metric("pool.call_s", "s", "lower"), lambda v: v.self_s("pool.call")),
    # sharing
    (Metric("sharing.fingerprint_calls", "count", "lower"),
     lambda v: v.calls("sharing.fingerprint")),
    (Metric("sharing.fingerprint_s", "s", "lower"), lambda v: v.total_s("sharing.fingerprint")),
    (Metric("sharing.folds", "count", "higher"), lambda v: v.layer("sharing.folds")),
    (Metric("sharing.attached_queries", "count", "higher"),
     lambda v: v.layer("sharing.attached_queries")),
    (Metric("sharing.cache_hits", "count", "higher"), lambda v: v.layer("sharing.cache_hits")),
    (Metric("sharing.cache_evictions", "count", "lower"),
     lambda v: v.layer("sharing.cache_evictions")),
    (Metric("sharing.replay_fallbacks", "count", "lower"),
     lambda v: v.layer("sharing.replay_fallbacks")),
    (Metric("sharing.hit_frac", "fraction", "higher"), lambda v: v.layer("sharing.hit_frac")),
    # faults
    (Metric("faults.planned", "count", "lower"), lambda v: v.layer("faults.planned")),
    (Metric("faults.fired", "count", "lower"), lambda v: v.layer("faults.fired")),
    (Metric("faults.retried_ok", "count", "higher"), lambda v: v.layer("faults.retried_ok")),
    (Metric("faults.timeouts", "count", "lower"), lambda v: v.layer("faults.timeouts")),
    (Metric("faults.run_morsel_s", "s", "lower"), lambda v: v.self_s("faults.run_morsel")),
    # tuning
    (Metric("tuning.search_s", "s", "lower"), lambda v: v.total_s("tuning.search")),
    (Metric("tuning.compress_s", "s", "lower"), lambda v: v.total_s("tuning.compress")),
    (Metric("tuning.replay_calls", "count", "lower"), lambda v: v.calls("tuning.replay")),
    (Metric("tuning.replay_s", "s", "lower"), lambda v: v.total_s("tuning.replay")),
    (Metric("tuning.history_rank_s", "s", "lower"), lambda v: v.total_s("tuning.history_rank")),
    (Metric("tuning.evaluations", "count", "lower"), lambda v: v.exact("tuning.evaluations")),
    (Metric("tuning.verified", "count", "lower"), lambda v: v.exact("tuning.verified")),
    (Metric("tuning.simulated_steps", "count", "lower"),
     lambda v: v.exact("tuning.simulated_steps")),
    (Metric("tuning.tracked_queries", "count", "lower"),
     lambda v: v.exact("tuning.tracked_queries")),
    (Metric("tuning.cycle_ms_first", "ms", "lower"),
     lambda v: v.layer("tuning.cycle_ms_first")),
    (Metric("tuning.cycle_ms_last", "ms", "lower"),
     lambda v: v.layer("tuning.cycle_ms_last")),
    (Metric("tuning.controller_cycles", "count", "lower"),
     lambda v: v.calls("tuning.controller_cycles")),
    (Metric("tuning.controller_optimize_s", "s", "lower"),
     lambda v: v.total_s("tuning.controller_optimize")),
    # the harness itself
    (Metric("loadgen.self_s", "s", "lower"), lambda v: v.loadgen_self_s()),
    (Metric("loadgen.max_late_ms", "ms", "lower"), lambda v: v.layer("loadgen.max_late_ms")),
    (Metric("trace.overhead_frac", "fraction", "lower"),
     lambda v: _ratio(v.root_wall(), v.untraced_root_wall()) - 1.0),
    (Metric("trace.unattributed_frac", "fraction", "lower"),
     lambda v: v.unattributed_frac()),
)


def per_layer_values(view: View, workload: str) -> Dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for one workload."""
    values = {metric.name: float(read(view)) for metric, read in PER_LAYER}
    values.update(workload_metric_values(view, workload))
    return values


def per_layer_definitions() -> List[Metric]:
    """Per-layer metrics in report order, workload-specific ones last."""
    out = [metric for metric, _ in PER_LAYER]
    out.extend(
        Metric(name, unit, better)
        for name, (unit, better, _, _) in WORKLOAD_METRICS.items()
    )
    return out

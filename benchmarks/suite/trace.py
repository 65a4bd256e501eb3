"""Timing wrappers around each layer's public entry points.

The benchmark measures end-to-end numbers with tracing **off**; a second,
traced run of the same workload installs the wrappers below *from this
file* (nothing under ``src/`` is edited) and yields the per-layer
numbers.  Two kinds of boundary exist:

``span``
    request-level calls (``AnalyticsServer.submit_spec``,
    ``ClusterRouter.drain``, ``Simulator.run`` ...): every call keeps a
    full span — name, start, end, parent span, ticket — in memory, and
    the spans are written as a Chrome trace when the run ends.

``agg``
    boundaries crossed ≥ 100 k times per run (``worker_decide``,
    ``run_morsel``, ``ResultChannel.put`` ...): calls, total time and
    self time are aggregated in place.

A boundary's **self time** is its duration minus the part of that
interval covered by the boundaries it called, so self times of one
thread add up to that thread's covered wall time.  All state is
per-thread (the threaded backend's workers run wrapped code
concurrently) and merged when read.

The process backend runs its epochs in pool workers.  A worker gets a
tracer of its own at spawn (:func:`install_in_worker`) and writes one
totals file per epoch; the parent merges them (``totals("worker")``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Index of each field of an aggregate cell ``[calls, total, self, errors]``.
CALLS, TOTAL, SELF, ERRORS = range(4)
#: The span a pool worker opens around one epoch (see install_in_worker).
WORKER_ROOT = "process.worker_epoch"


@dataclass(frozen=True)
class Boundary:
    """One public function of one layer that the traced run wraps."""

    owner: str  # "package.module" or "package.module:Class"
    attr: str
    key: str  # "<layer>.<name>", the aggregate's name
    kind: str = "agg"  # "agg" | "span"
    #: Late-bound key: layer chosen from the instance (backend methods
    #: live on the shared base class).  Receives the call's ``args``.
    key_of: Optional[Callable[[tuple], str]] = None
    #: Extra bookkeeping after a successful call: ``(cells, args, result)``.
    post: Optional[Callable[[dict, tuple, object], None]] = None
    #: Ticket id recorded on the span: ``(args, result) -> int``.
    ticket_of: Optional[Callable[[tuple, object], Optional[int]]] = None
    #: Whether this call is about to park (a producer on a full channel,
    #: a consumer on an empty one); its duration then also counts as
    #: waiting, under ``<key>_wait``.  Asked before the call.
    parks: Optional[Callable[[tuple], bool]] = None


# ----------------------------------------------------------------------
# Boundary hooks (counts taken where the work happens)
# ----------------------------------------------------------------------
_BACKEND_LAYERS = {
    "SimulatedBackend": "simulated",
    "ThreadedBackend": "threaded",
    "ProcessBackend": "process",
}


def _backend_key(name: str) -> Callable[[tuple], str]:
    def key_of(args: tuple) -> str:
        layer = _BACKEND_LAYERS.get(type(args[0]).__name__, "backend")
        return f"{layer}.{name}"

    return key_of


def _bump(cells: dict, key: str, amount: float = 1) -> None:
    cell = cells.get(key)
    if cell is None:
        cell = cells[key] = [0, 0.0, 0.0, 0]
    cell[CALLS] += amount


def _post_simulator_run(cells: dict, args: tuple, result) -> None:
    scheduler = args[0].scheduler
    _bump(cells, "simcore.events", result.events_processed)
    _bump(cells, "core.tasks_executed", result.tasks_executed)
    for phase, ops in scheduler.overhead.ops.items():
        _bump(cells, f"core.{phase}_ops", ops)
    tuner = getattr(scheduler, "tuner", None)
    if tuner is not None:
        _bump(cells, "tuning.controller_cycles", len(tuner.cycles))


def _post_decide(cells: dict, args: tuple, result) -> None:
    if result is None:
        _bump(cells, "core.decide_none")


def _post_true(key: str) -> Callable[[dict, tuple, object], None]:
    def post(cells: dict, args: tuple, result) -> None:
        if result:
            _bump(cells, key)

    return post


def _post_backend_fail(cells: dict, args: tuple, result) -> None:
    # Load shedding fails its victim through ExecutionBackend.fail with
    # an AdmissionError; that call is the shed count's boundary.
    if result and type(args[2]).__name__ == "AdmissionError":
        _bump(cells, "admission.shed")


def _post_encode(cells: dict, args: tuple, result) -> None:
    _bump(cells, "process.pipe_bytes_out", len(result))


def _post_decode(cells: dict, args: tuple, result) -> None:
    _bump(cells, "process.pipe_bytes_in", len(args[0]))


def _post_channel_get(cells: dict, args: tuple, result) -> None:
    if result is not None:
        _bump(cells, "channel.chunks")


def _put_parks(args: tuple) -> bool:
    channel = args[0]
    return channel.blocking and channel.depth >= channel.capacity


def _get_parks(args: tuple) -> bool:
    channel = args[0]
    return channel.blocking and channel.depth == 0 and not channel.closed


def _ticket_result(args: tuple, result) -> Optional[int]:
    return int(result)


def _ticket_arg(args: tuple, result) -> Optional[int]:
    return int(args[1]) if len(args) > 1 else None


def boundaries() -> Tuple[Boundary, ...]:
    """Every wrapped entry point, layer by layer."""
    B = Boundary
    server = "repro.server:AnalyticsServer"
    router = "repro.cluster.router:ClusterRouter"
    placement = "repro.cluster.placement:PredictivePlacement"
    admission = "repro.runtime.admission:AdmissionPolicy"
    tickets = "repro.runtime.tickets:TicketRegistry"
    backend = "repro.runtime.backend:ExecutionBackend"
    stride = "repro.core.stride:StrideScheduler"
    sched = "repro.core.scheduler_base:SchedulerBase"
    engine = "repro.engine.execution:EngineEnvironment"
    channel = "repro.runtime.channel:ResultChannel"
    cache = "repro.sharing.cache:FragmentCache"
    history = "repro.tuning.history:TuningHistory"
    return (
        # workloads -----------------------------------------------------
        B("repro.workloads.mixes", "tpch_mix", "workloads.generate"),
        B("repro.workloads.mixes", "tpch_query", "workloads.generate"),
        B("repro.workloads.profiles", "tpch_query", "workloads.generate"),
        B("repro.workloads.load", "arrival_rate_for_load", "workloads.generate"),
        # server --------------------------------------------------------
        B(server, "submit_spec", "server.submit", "span", ticket_of=_ticket_result),
        B(server, "drain", "server.drain", "span"),
        B(server, "result", "server.result", ticket_of=_ticket_arg),
        B(server, "record", "server.result"),
        B(server, "wait", "server.wait"),
        B(server, "poll", "server.poll"),
        B(server, "cancel", "server.cancel"),
        B(server, "tune", "server.tune", "span"),
        B(server, "install_faults", "server.install_faults"),
        # cluster -------------------------------------------------------
        B(router, "submit_spec", "cluster.submit", "span", ticket_of=_ticket_result),
        B(router, "drain", "cluster.drain", "span"),
        B(router, "drain_shard", "cluster.drain_shard", "span",
          post=lambda cells, args, result: _bump(cells, "cluster.moved_queries", result)),
        B(router, "record", "cluster.result"),
        B(router, "result", "cluster.result"),
        B(router, "cancel", "cluster.cancel"),
        B(placement, "choose", "cluster.placement_choose"),
        B(placement, "on_submit", "cluster.placement_update"),
        B(placement, "on_complete", "cluster.placement_update"),
        B(placement, "transfer", "cluster.placement_update"),
        B(placement, "epoch_reset", "cluster.placement_update"),
        # admission -----------------------------------------------------
        B(admission, "admit", "admission.admit"),
        B(admission, "tenant_pending", "admission.quota_scan"),
        B("repro.runtime.admission:SheddingAdmission", "shed_victim",
          "admission.shed_scan"),
        # tickets -------------------------------------------------------
        B(tickets, "register", "tickets.register"),
        B(tickets, "resolve", "tickets.resolve"),
        B(tickets, "alias", "tickets.alias"),
        # runtime backends (layer taken from the instance) --------------
        B(backend, "submit", "backend.submit", key_of=_backend_key("submit")),
        B(backend, "drain", "backend.drain", "span", key_of=_backend_key("drain")),
        B(backend, "cancel", "backend.cancel", key_of=_backend_key("cancel")),
        B(backend, "fail", "backend.fail", key_of=_backend_key("fail"),
          post=_post_backend_fail),
        B(backend, "result", "backend.result", key_of=_backend_key("result")),
        B("repro.runtime.threaded:ThreadedBackend", "wait", "threaded.wait"),
        # simcore -------------------------------------------------------
        B("repro.simcore.simulator:Simulator", "run", "simcore.run", "span",
          post=_post_simulator_run),
        B("repro.simcore.simulator:SimulationEnvironment", "run_morsel",
          "simcore.cost_model"),
        # core ----------------------------------------------------------
        B(stride, "worker_decide", "core.decide", post=_post_decide),
        B(stride, "worker_finish", "core.finish"),
        B(stride, "admit", "core.admit"),
        B(sched, "cancel_group", "core.cancel_group",
          post=_post_true("core.cancelled_groups")),
        B(sched, "fail_group", "core.fail_group",
          post=_post_true("core.failed_groups")),
        # engine --------------------------------------------------------
        B(engine, "run_morsel", "engine.run_morsel"),
        B(engine, "finish_query", "engine.finish_query"),
        B("repro.engine.datagen", "generate_tpch", "engine.datagen"),
        B("repro.server", "generate_tpch", "engine.datagen"),
        B("repro.cluster.router", "generate_tpch", "engine.datagen"),
        B("repro.server", "engine_query_spec", "engine.query_spec"),
        # channel -------------------------------------------------------
        B(channel, "put", "channel.put", parks=_put_parks),
        B(channel, "get", "channel.get", post=_post_channel_get, parks=_get_parks),
        B(channel, "get_nowait", "channel.get", post=_post_channel_get),
        # faults --------------------------------------------------------
        B("repro.runtime.faults:FaultyEnvironment", "run_morsel",
          "faults.run_morsel"),
        # sharing -------------------------------------------------------
        B("repro.runtime.simulated", "spec_fingerprint", "sharing.fingerprint"),
        B("repro.runtime.threaded", "spec_fingerprint", "sharing.fingerprint"),
        B(cache, "get", "sharing.cache"),
        B(cache, "put", "sharing.cache"),
        B(cache, "invalidate", "sharing.cache"),
        # tuning --------------------------------------------------------
        B("repro.tuning.optimizer", "search_knob_space", "tuning.search", "span"),
        B("repro.tuning.controller", "search_knob_space", "tuning.search", "span"),
        B("repro.tuning.controller", "optimize", "tuning.controller_optimize"),
        B("repro.tuning.optimizer", "compress_workload", "tuning.compress"),
        B("repro.tuning.optimizer", "replay_cost", "tuning.replay"),
        B(history, "predict", "tuning.history_rank"),
        B(history, "best_vectors", "tuning.history_rank"),
        B(history, "record", "tuning.history_rank"),
        # process + pool (the parent's side of the pipe) ----------------
        B("repro.experiments.pool", "dumps_oob", "process.encode",
          post=_post_encode),
        B("repro.experiments.pool", "loads_oob", "process.decode",
          post=_post_decode),
        B("repro.workloads.serialize", "workload_to_arrays", "process.encode"),
        B("repro.runtime.process", "chunks_from_arrays", "process.decode"),
        B("repro.metrics.latency:LatencyCollector", "from_arrays",
          "process.decode"),
        B("repro.experiments.pool:SweepPool", "call", "pool.call"),
        # process (the worker's side of the pipe) -----------------------
        B("repro.workloads.serialize", "workload_from_arrays", "process.decode"),
        B("repro.metrics.latency:LatencyCollector", "to_arrays", "process.encode"),
        B("repro.runtime.channel", "chunks_to_arrays", "process.encode"),
    )


def merge_totals(into: Dict[str, List[float]], cells: Dict[str, List[float]]) -> None:
    """Add one ``key -> [calls, total, self, errors]`` table to another."""
    for key, cell in cells.items():
        have = into.get(key)
        if have is None:
            into[key] = list(cell)
        else:
            for index in range(4):
                have[index] += cell[index]


# ----------------------------------------------------------------------
# Per-thread state
# ----------------------------------------------------------------------
class _Frame:
    """What one thread has recorded so far."""

    __slots__ = ("child", "span", "cells", "spans", "thread", "root")

    def __init__(self, thread: str, root: bool) -> None:
        #: Time covered by boundaries called from the current one.
        self.child = 0.0
        #: Id of the span currently open on this thread (-1: none).
        self.span = -1
        self.cells: Dict[str, list] = {}
        #: (id, parent, key, start, end, ticket)
        self.spans: List[tuple] = []
        self.thread = thread
        #: Whether this is the thread that installed the tracer — the
        #: load generator's; its self times are what sum to the wall.
        self.root = root


class Tracer:
    """Installs, reads and removes the timing wrappers."""

    def __init__(self, worker_dir: Optional[Path] = None) -> None:
        #: Where pool workers traced by :func:`install_in_worker` leave
        #: their totals (``None``: this run traces no worker process).
        self.worker_dir = worker_dir
        self._tls = threading.local()
        self._frames: List[_Frame] = []
        self._lock = threading.Lock()
        #: ``next()`` on a count is atomic under the GIL.
        self._span_ids = itertools.count(1)
        self._root_ident = threading.get_ident()
        #: (owner object, attribute, original class/module dict entry)
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_owner(path: str):
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner

    def install(self) -> None:
        """Wrap every boundary; idempotent per tracer."""
        if self._installed:
            return
        for boundary in boundaries():
            owner = self._resolve_owner(boundary.owner)
            original = vars(owner)[boundary.attr]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(
                    self._wrap(original.__func__, boundary)
                )
            else:
                wrapped = self._wrap(original, boundary)
            setattr(owner, boundary.attr, wrapped)
            self._installed.append((owner, boundary.attr, original))

    def uninstall(self) -> None:
        """Put every original attribute back (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block with the originals in place (e.g. while forking
        worker processes, which must not inherit the wrappers)."""
        was_installed = bool(self._installed)
        self.uninstall()
        try:
            yield
        finally:
            if was_installed:
                self.install()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _frame(self) -> _Frame:
        try:
            return self._tls.frame
        except AttributeError:
            thread = threading.current_thread()
            frame = _Frame(
                thread.name, threading.get_ident() == self._root_ident
            )
            with self._lock:
                self._frames.append(frame)
            self._tls.frame = frame
            return frame

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        perf = time.perf_counter
        get_frame = self._frame
        static_key = boundary.key
        key_of = boundary.key_of
        post = boundary.post
        keep_span = boundary.kind == "span"
        ticket_of = boundary.ticket_of
        parks = boundary.parks
        span_id = self._span_ids.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = get_frame()
            key = static_key if key_of is None else key_of(args)
            cells = frame.cells
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = [0, 0.0, 0.0, 0]
            saved_child = frame.child
            frame.child = 0.0
            if keep_span:
                parent = frame.span
                frame.span = this = span_id()
            parked = parks is not None and parks(args)
            result = None
            failed = True
            start = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf()
                elapsed = end - start
                cell[CALLS] += 1
                cell[TOTAL] += elapsed
                cell[SELF] += elapsed - frame.child
                frame.child = saved_child + elapsed
                if parked:
                    wait = cells.get(key + "_wait")
                    if wait is None:
                        wait = cells[key + "_wait"] = [0, 0.0, 0.0, 0]
                    wait[CALLS] += 1
                    wait[TOTAL] += elapsed
                if failed:
                    cell[ERRORS] += 1
                elif post is not None:
                    post(cells, args, result)
                if keep_span:
                    frame.span = parent
                    ticket = None
                    if ticket_of is not None and not failed:
                        ticket = ticket_of(args, result)
                    frame.spans.append((this, parent, key, start, end, ticket))

        return wrapper

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        """A span opened by the harness itself (layer ``loadgen``)."""
        frame = self._frame()
        cell = frame.cells.get(key)
        if cell is None:
            cell = frame.cells[key] = [0, 0.0, 0.0, 0]
        saved_child = frame.child
        frame.child = 0.0
        parent = frame.span
        frame.span = this = next(self._span_ids)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            cell[CALLS] += 1
            cell[TOTAL] += elapsed
            cell[SELF] += elapsed - frame.child
            frame.child = saved_child + elapsed
            frame.span = parent
            frame.spans.append((this, parent, key, start, end, None))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self, threads: str = "all") -> Dict[str, List[float]]:
        """Merged ``key -> [calls, total, self, errors]``.

        ``threads`` is ``"all"``, ``"root"`` (the installing thread, the
        load generator's), ``"other"`` (backend worker threads) or
        ``"worker"`` (pool worker processes, from their totals files).
        """
        merged: Dict[str, List[float]] = {}
        if threads == "worker":
            for path in self._worker_files():
                merge_totals(merged, json.loads(path.read_text()))
            return merged
        with self._lock:
            frames = list(self._frames)
        for frame in frames:
            if threads == "root" and not frame.root:
                continue
            if threads == "other" and frame.root:
                continue
            merge_totals(merged, dict(frame.cells))
        return merged

    def _worker_files(self) -> List[Path]:
        return sorted(self.worker_dir.glob("*.json")) if self.worker_dir else []

    def read(self, key: str) -> List[float]:
        """One merged cell (zeros when the boundary was never crossed)."""
        return self.totals().get(key, [0, 0.0, 0.0, 0])

    def reset(self) -> None:
        """Drop everything recorded so far (end of the set-up phase)."""
        with self._lock:
            for frame in self._frames:
                frame.cells = {}
                frame.spans = []
                frame.child = 0.0
        for path in self._worker_files():
            path.unlink()

    def spans(self) -> List[dict]:
        """Every kept span, oldest first."""
        out = []
        with self._lock:
            frames = list(self._frames)
        for frame in frames:
            for this, parent, key, start, end, ticket in frame.spans:
                out.append(
                    {
                        "id": this,
                        "parent": parent,
                        "name": key,
                        "start": start,
                        "end": end,
                        "ticket": ticket,
                        "thread": frame.thread,
                    }
                )
        out.sort(key=lambda span: span["start"])
        return out

    def write_chrome_trace(self, path) -> int:
        """Write the kept spans in Chrome trace format; returns the count."""
        spans = self.spans()
        origin = spans[0]["start"] if spans else 0.0
        threads = {name: i for i, name in enumerate(sorted({s["thread"] for s in spans}))}
        events = [
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": threads[span["thread"]],
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "ticket": span["ticket"],
                },
            }
            for span in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


class NullTracer:
    """The untraced run's stand-in: no wrappers, no clocks, no state."""

    worker_dir = None

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        yield

    def read(self, key: str) -> List[float]:
        return [0, 0.0, 0.0, 0]

    @contextmanager
    def paused(self) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
def install_in_worker(directory: str) -> None:
    """Pool warm-up thunk: trace this worker process.

    Registered with ``register_warmup`` before the pool forks, so it
    runs once in every worker.  Each epoch the worker executes is timed
    under :data:`WORKER_ROOT` and its totals are written to a file of
    its own in ``directory``; the worker's reply is left untouched.
    """
    from repro.runtime import process

    Path(directory).mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.install()
    execute_epoch = process._execute_epoch
    epochs = itertools.count()

    @functools.wraps(execute_epoch)
    def traced_epoch(payload):
        # Drops what the pool's own framing recorded since the last
        # epoch: the parent counts the pipe's bytes and codec time.
        tracer.reset()
        with tracer.span(WORKER_ROOT):
            out = execute_epoch(payload)
        path = Path(directory) / f"{os.getpid()}_{next(epochs)}.json"
        path.write_text(json.dumps(tracer.totals()))
        return out

    # The parent pickles the function by name; the worker resolves the
    # name to this wrapper.
    process._execute_epoch = traced_epoch


def layer_self_seconds(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Sum of self times per layer (the part of a key before the dot)."""
    out: Dict[str, float] = {}
    for key, cell in totals.items():
        layer = key.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + cell[SELF]
    return out

"""The persistent warm sweep pool: long-lived workers, compact handoff.

PR 1 parallelized figure sweeps with a throwaway
``ProcessPoolExecutor`` per ``run_cells`` call.  That made small grids
*slower* than the sequential loop: every call paid process startup,
package import, and per-cell deep-object pickling.  This module replaces
it with one **shared, long-lived pool**:

* **Warm workers** — spawned once per process, pre-importing the
  simulation stack and running registered warmup thunks (e.g. engine
  calibration for a ``(scale_factor, seed)`` database profile) in the
  initializer.  Every later sweep of the process reuses them.
* **Keyed workload cache** — a worker builds the workload for a
  :attr:`~repro.experiments.parallel.SweepCell.workload_key` once;
  cells that share ``(config, rate, salt)`` (all schedulers of one load
  level) skip ``build_workload`` entirely.  Workload generation is
  pure, so the cached instance is bit-identical to a fresh build.
* **Compact pickle-5 handoff** — chunk payloads are serialized
  explicitly with pickle protocol 5 and out-of-band buffer extraction
  (:func:`dumps_oob`); workloads and latency collectors inside them
  cross as the flat columns of the one wire codec (:mod:`repro.wire`)
  instead of per-record object pickles.
* **Cost-aware dispatch** — cells are sorted longest-estimated-first
  and submitted in chunks, so a straggler cell starts early instead of
  serializing the tail; outcomes are restored to input order on
  collect.
* **Auto-jobs heuristic** — :func:`resolve_jobs` falls back to the
  sequential loop when the estimated grid cost cannot amortize pool
  startup and per-cell IPC (or when the machine has a single CPU, where
  a process pool can only add overhead).

The pool is deliberately a module-level singleton (:func:`get_pool`):
the whole point is that consecutive sweeps — figure7, then figure9,
then the ablations — hit the same warm workers.  ``atexit`` tears it
down.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.parallel import CellOutcome, SweepCell, run_cell

# ----------------------------------------------------------------------
# Pickle-5 out-of-band framing
# ----------------------------------------------------------------------
# ``multiprocessing`` pickles task payloads with ``pickle.DEFAULT_PROTOCOL``
# (protocol 4 on the supported interpreters), which embeds every numpy
# buffer in the pickle stream with an extra copy.  We frame payloads
# ourselves: protocol 5 with ``buffer_callback`` extracts each large
# buffer once, raw, and the frame concatenates them after the pickle
# head.  The executor then moves a single flat ``bytes`` object.

_FRAME_MAGIC = b"RPO1"


def dumps_oob(obj) -> bytes:
    """Serialize with pickle protocol 5, out-of-band buffers framed raw."""
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    parts = [
        _FRAME_MAGIC,
        struct.pack("<I", len(raws)),
        struct.pack("<Q", len(head)),
    ]
    parts.extend(struct.pack("<Q", raw.nbytes) for raw in raws)
    parts.append(head)
    parts.extend(raws)
    return b"".join(parts)


def loads_oob(blob: bytes):
    """Inverse of :func:`dumps_oob`."""
    if blob[:4] != _FRAME_MAGIC:
        raise ValueError("not a pool payload frame")
    view = memoryview(blob)
    n_buffers = struct.unpack_from("<I", view, 4)[0]
    head_len = struct.unpack_from("<Q", view, 8)[0]
    offset = 16
    sizes = []
    for _ in range(n_buffers):
        sizes.append(struct.unpack_from("<Q", view, offset)[0])
        offset += 8
    head = view[offset : offset + head_len]
    offset += head_len
    buffers = []
    for size in sizes:
        buffers.append(view[offset : offset + size])
        offset += size
    return pickle.loads(head, buffers=buffers)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Modules pre-imported by every worker at spawn, so the first real cell
#: pays no import cost (matters under the spawn/forkserver start
#: methods; free under fork for what the parent had imported by then).
#: The last two are what a process-backend epoch imports on first use —
#: the tuning scheduler's package and the workload schema of the wire
#: codec, ~45 ms that every worker would otherwise pay inside its first
#: epoch, one epoch after another until each worker has served one.
_PREIMPORT_MODULES = (
    "repro.core",
    "repro.core.os_scheduler",
    "repro.experiments.common",
    "repro.simcore.simulator",
    "repro.workloads",
    "repro.tuning",
    "repro.workloads.serialize",
)

#: Per-worker workload cache: workload_key -> workload.  Bounded FIFO —
#: sweep grids revisit at most a few dozen keys.
_WORKLOAD_CACHE: dict = {}
_WORKLOAD_CACHE_CAP = 64
_CACHE_STATS = {"hits": 0, "misses": 0}


def _cell_workload(cell: SweepCell):
    """The cell's workload, built once per key per worker."""
    key = cell.workload_key
    workload = _WORKLOAD_CACHE.get(key)
    if workload is not None:
        _CACHE_STATS["hits"] += 1
        return workload
    _CACHE_STATS["misses"] += 1
    from repro.experiments.common import build_workload

    config = cell.config
    workload = build_workload(config.mix(), cell.rate, config, salt=cell.salt)
    if len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_CAP:
        _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))
    _WORKLOAD_CACHE[key] = workload
    return workload


def workload_cache_stats() -> dict:
    """Hit/miss counters of this process's workload cache (tests)."""
    return dict(_CACHE_STATS, size=len(_WORKLOAD_CACHE))


def _worker_init(warmups: Sequence[Tuple[Callable, tuple]]) -> None:
    """Run once per worker process at spawn."""
    import importlib

    for module in _PREIMPORT_MODULES:
        importlib.import_module(module)
    for fn, args in warmups:
        fn(*args)


def _run_chunk(blob: bytes) -> bytes:
    """Execute one chunk of (input index, cell) pairs; return outcomes."""
    pairs = loads_oob(blob)
    out = []
    for index, cell in pairs:
        outcome = run_cell(cell, workload=_cell_workload(cell))
        out.append((index, outcome))
    return dumps_oob(out)


def _call(blob: bytes) -> bytes:
    """Generic warm-worker call: ``fn(*args)`` with framed payloads."""
    fn, args = loads_oob(blob)
    return dumps_oob(fn(*args))


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
#: Rough wall seconds per expected query arrival of a policy cell (the
#: simulator processes a few hundred events per query); fluid-model OS
#: cells are ~20x cheaper per arrival.  Only *relative* costs matter for
#: dispatch order; the absolute scale only gates the auto-jobs
#: threshold, where being coarse is fine.
SECONDS_PER_ARRIVAL = 1.0e-3
OS_CELL_FACTOR = 0.05
#: Amortization constants for :func:`resolve_jobs`.
POOL_STARTUP_SECONDS = 0.15
PER_CELL_OVERHEAD_SECONDS = 0.003


def estimate_cell_cost(cell: SweepCell) -> float:
    """Estimated wall seconds to run one cell (coarse, deterministic)."""
    arrivals = max(cell.rate * cell.config.duration, 1.0)
    factor = OS_CELL_FACTOR if cell.kind == "os" else 1.0
    return arrivals * factor * SECONDS_PER_ARRIVAL


def estimate_grid_cost(cells: Sequence[SweepCell]) -> float:
    """Estimated sequential wall seconds for a whole grid."""
    return sum(estimate_cell_cost(cell) for cell in cells)


def resolve_jobs(
    cells: Sequence[SweepCell],
    jobs: Union[int, str, None],
    force_pool: bool = False,
) -> int:
    """The worker count to actually use for this grid (1 = sequential).

    ``jobs`` of ``None``, ``0`` or ``"auto"`` asks for the CPU count.
    Unless ``force_pool`` is set, the heuristic falls back to the
    sequential loop whenever pooling cannot win: a single-CPU machine, a
    single-cell grid, or an estimated parallel saving smaller than pool
    startup (zero once the shared pool is warm) plus per-cell IPC.
    """
    cpus = os.cpu_count() or 1
    if jobs in (None, 0, "auto"):
        jobs = cpus
    jobs = min(int(jobs), len(cells))
    if jobs <= 1:
        return 1
    if force_pool:
        return jobs
    usable = min(jobs, cpus)
    if usable <= 1:
        return 1
    saved = estimate_grid_cost(cells) * (1.0 - 1.0 / usable)
    startup = 0.0 if _pool_is_warm(jobs) else POOL_STARTUP_SECONDS
    overhead = startup + PER_CELL_OVERHEAD_SECONDS * len(cells)
    return jobs if saved > overhead else 1


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class SweepPool:
    """A persistent pool of warm worker processes.

    Wraps one :class:`~concurrent.futures.ProcessPoolExecutor` whose
    workers are initialized once (pre-imports plus the warmup thunks
    registered at creation time) and stay alive across sweeps.  Use the
    module-level :func:`get_pool` for the shared instance.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, int(max_workers))
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_worker_init,
            initargs=(tuple(_WARMUPS),),
        )

    # ------------------------------------------------------------------
    # Sweep execution
    # ------------------------------------------------------------------
    def run_cells(
        self,
        cells: Sequence[SweepCell],
        chunk_size: Optional[int] = None,
        dispatch: str = "cost",
    ) -> List[CellOutcome]:
        """Run a grid on the pool; outcomes come back in input order.

        ``dispatch="cost"`` submits chunks longest-estimated-first so
        straggler cells start as early as possible; ``"input"`` keeps
        submission order.  Both produce identical outcomes.
        """
        indexed = list(enumerate(cells))
        if dispatch == "cost":
            # Deterministic: cost desc, input index as the tiebreak.
            indexed.sort(key=lambda pair: (-estimate_cell_cost(pair[1]), pair[0]))
        elif dispatch != "input":
            raise ValueError(f"unknown dispatch policy {dispatch!r}")
        if chunk_size is None:
            # ~4 chunks per worker amortizes IPC while keeping the tail
            # balanced under heterogeneous cell costs.
            chunk_size = max(1, -(-len(indexed) // (self.max_workers * 4)))
        chunks = [
            indexed[i : i + chunk_size]
            for i in range(0, len(indexed), chunk_size)
        ]
        futures = [
            self._executor.submit(_run_chunk, dumps_oob(chunk))
            for chunk in chunks
        ]
        outcomes: List[Optional[CellOutcome]] = [None] * len(indexed)
        for future in futures:
            for index, outcome in loads_oob(future.result()):
                outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Generic warm-worker calls (the process backend rides on these)
    # ------------------------------------------------------------------
    def submit_call(self, fn: Callable, *args):
        """Schedule ``fn(*args)`` on a warm worker; returns a future.

        ``fn`` and ``args`` must be picklable (module-level functions /
        ``functools.partial`` over them).  The future resolves to the
        call's return value; payloads cross in pickle-5 frames.
        """
        future = self._executor.submit(_call, dumps_oob((fn, args)))
        return _DecodingFuture(future)

    def call(self, fn: Callable, *args):
        """Run ``fn(*args)`` on a warm worker and wait for the result."""
        return self.submit_call(fn, *args).result()

    def shutdown(self) -> None:
        """Terminate the workers (the shared pool does this at exit)."""
        self._executor.shutdown(wait=True, cancel_futures=True)


class _DecodingFuture:
    """A future whose ``result()`` decodes the pickle-5 frame."""

    def __init__(self, future) -> None:
        self._future = future

    def result(self, timeout: Optional[float] = None):
        return loads_oob(self._future.result(timeout=timeout))

    def done(self) -> bool:
        return self._future.done()


# ----------------------------------------------------------------------
# The shared instance
# ----------------------------------------------------------------------
_POOL: Optional[SweepPool] = None
#: Warmup thunks applied in every worker's initializer: ``(fn, args)``
#: pairs, deduplicated, registered before the pool first spawns.
_WARMUPS: List[Tuple[Callable, tuple]] = []


def register_warmup(fn: Callable, *args) -> None:
    """Warm every pool worker with ``fn(*args)`` at spawn.

    Typical warmups: :func:`repro.engine.calibration.warm_calibration`
    for a ``(scale_factor, seed)`` database profile.  Registration after
    the shared pool already spawned still helps — existing workers warm
    the same state lazily through their keyed caches, and future pools
    (or grown replacements) warm eagerly.
    """
    entry = (fn, tuple(args))
    if entry not in _WARMUPS:
        _WARMUPS.append(entry)


def _pool_is_warm(min_workers: int) -> bool:
    """Whether the shared pool exists with at least ``min_workers``."""
    return _POOL is not None and _POOL.max_workers >= min_workers


def get_pool(min_workers: Optional[int] = None) -> SweepPool:
    """The shared warm pool, created on first use and reused after.

    A request for more workers than the current pool has replaces it
    (the warm state is per-worker, so growth pays the startup cost
    once); a request for fewer reuses the existing, larger pool.
    """
    global _POOL
    wanted = min_workers or os.cpu_count() or 1
    if _POOL is not None and _POOL.max_workers >= wanted:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown()
    _POOL = SweepPool(max_workers=wanted)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (idempotent; re-creatable after)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)

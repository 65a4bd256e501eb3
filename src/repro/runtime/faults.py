"""Deterministic fault injection for chaos-testing the runtime.

A :class:`FaultPlan` is a seeded, picklable description of *what should
go wrong*: raise inside an operator at morsel N, stall a worker, kill a
worker, make a channel consumer disappear mid-stream.  Plans install on
any :class:`~repro.runtime.backend.ExecutionBackend` via
``install_faults``; the backend wraps its execution environment in a
:class:`FaultyEnvironment` that fires the planned faults at exactly the
planned morsels.

Determinism contract: on :class:`~repro.runtime.simulated.SimulatedBackend`
the same plan produces bit-for-bit identical failure records and
survivor results.  The wrapper tells the executor how many of a
query's morsels no armed fault can fire on
(:meth:`FaultyEnvironment.clean_morsels`); the executor costs those
through the wrapped environment's batched interface, counts them back,
and sends every other morsel through :meth:`FaultyEnvironment.run_morsel`
— the shared noise stream sees one draw per morsel either way (guarded
by ``tests/core/test_morsel_exec_reference.py``).  Virtual time sees
stalls as deterministic duration inflation and worker death as a query
failure (there is no worker to kill); real-thread backends sleep and
raise :class:`~repro.errors.WorkerDiedError` respectively.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InjectedFault, ReproError, WorkerDiedError

#: Raise :class:`InjectedFault` inside the target query's morsel N.
OPERATOR_RAISE = "operator_raise"
#: Stall the worker executing the target query's morsel N.
WORKER_STALL = "worker_stall"
#: Kill the worker executing the target query's morsel N (thread retires
#: and is respawned; on the process backend the epoch worker dies and
#: the pool is rebuilt; in pure virtual time the query fails).
WORKER_DEATH = "worker_death"
#: The target query's result consumer disappears: its channel fails
#: after ``after_chunks`` chunks, exercising producer-side resilience.
CONSUMER_GONE = "consumer_gone"

FAULT_KINDS = (OPERATOR_RAISE, WORKER_STALL, WORKER_DEATH, CONSUMER_GONE)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Targeting: ``query`` matches by spec name, ``query_index`` by the
    scheduler's arrival index; with neither set the fault hits the first
    query that executes a morsel.  Each fault fires at most once per
    plan installation, so retried queries are not re-poisoned.
    """

    kind: str
    query: Optional[str] = None
    query_index: Optional[int] = None
    #: Fire on the Nth executed morsel of the target query (0-based,
    #: counted across all its pipelines).
    morsel: int = 0
    #: Stall duration for :data:`WORKER_STALL` (real seconds on the
    #: threaded backend, virtual seconds in simulation).
    stall_seconds: float = 0.05
    #: Chunk threshold for :data:`CONSUMER_GONE`.
    after_chunks: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r}")
        if self.morsel < 0:
            raise ReproError("fault morsel index must be >= 0")
        if self.stall_seconds < 0.0:
            raise ReproError("stall_seconds must be >= 0")
        if self.after_chunks < 1:
            raise ReproError("after_chunks must be >= 1")

    def matches(self, query_id: int, name: str) -> bool:
        """Whether this fault targets the given query."""
        if self.query_index is not None:
            return query_id == self.query_index
        if self.query is not None:
            return name == self.query
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of planned faults."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def random(
        cls,
        seed: int,
        n_queries: int,
        kinds: Iterable[str] = (OPERATOR_RAISE,),
        n_faults: int = 1,
        max_morsel: int = 8,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same faults, always."""
        import numpy as np

        kinds = tuple(kinds)
        if not kinds or n_queries < 1:
            raise ReproError("need at least one fault kind and one query")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(n_faults):
            faults.append(
                FaultSpec(
                    kind=kinds[int(rng.integers(len(kinds)))],
                    query_index=int(rng.integers(n_queries)),
                    morsel=int(rng.integers(max_morsel)),
                )
            )
        return cls(faults=tuple(faults), seed=seed)

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds in plan order."""
        seen: List[str] = []
        for fault in self.faults:
            if fault.kind not in seen:
                seen.append(fault.kind)
        return tuple(seen)


class FaultInjector:
    """Shared firing state for one plan installation.

    Lives on the backend and survives across epochs/drains, so each
    fault fires at most once even though every epoch wraps a fresh
    environment.  ``spent`` holds indices into ``plan.faults`` (it can
    be pre-seeded when a plan crosses a process boundary); ``fired`` is
    an ordered log for tests.
    """

    def __init__(
        self,
        plan: FaultPlan,
        realtime: bool = False,
        spent: Iterable[int] = (),
        skip_kinds: Iterable[str] = (),
    ) -> None:
        self.plan = plan
        self.realtime = realtime
        self.spent = set(spent)
        self.skip_kinds = frozenset(skip_kinds)
        #: Ordered log of fired faults: (plan index, kind, query name, morsel).
        self.fired: List[Tuple[int, str, str, int]] = []

    def wrap(self, environment):
        """Wrap an execution environment (idempotent)."""
        if isinstance(environment, FaultyEnvironment):
            return environment
        return FaultyEnvironment(environment, self)

    def pending_for(self, query_id: int, name: str) -> List[Tuple[int, FaultSpec]]:
        """Un-fired faults targeting one query, in plan order."""
        return [
            (index, fault)
            for index, fault in enumerate(self.plan.faults)
            if index not in self.spent
            and fault.kind not in self.skip_kinds
            and fault.matches(query_id, name)
        ]

    def mark_fired(self, index: int, name: str, morsel: int) -> None:
        """Record one fault as fired (it will never fire again)."""
        self.spent.add(index)
        self.fired.append((index, self.plan.faults[index].kind, name, morsel))


class FaultyEnvironment:
    """Execution-environment wrapper that fires planned faults.

    Delegates everything else to the wrapped environment.
    ``open_channel`` is always provided so consumer-gone faults can arm
    result channels even on environments that do not stream results
    themselves.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector
        self._morsel_counts: Dict[int, int] = {}
        self._armed: Dict[int, List[Tuple[int, FaultSpec]]] = {}
        self._channels: Dict[int, object] = {}

    @property
    def inner(self):
        """The wrapped environment."""
        return self._inner

    def __getattr__(self, name: str):
        # ``_inner`` is never delegated: unpickling probes ``__setstate__``
        # before it exists, and reading it here would recurse forever.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __getstate__(self) -> dict:
        # Result channels hold locks and belong to the finished epoch.
        return {**self.__dict__, "_channels": {}}

    # The simulator wires its active-query callback through this
    # attribute; forward both directions so the wrapped cost model sees
    # the exact contention the fault-free run would.
    @property
    def active_count_fn(self):
        return getattr(self._inner, "active_count_fn", False)

    @active_count_fn.setter
    def active_count_fn(self, fn) -> None:
        self._inner.active_count_fn = fn

    def open_channel(self, query_id: int, channel) -> None:
        """Track (and delegate) a result channel registration; kept
        until the query's first morsel arms it."""
        self._channels[query_id] = channel
        inner_open = getattr(self._inner, "open_channel", None)
        if inner_open is not None:
            inner_open(query_id, channel)

    def _arm(self, query_id: int, name: str) -> List[Tuple[int, FaultSpec]]:
        """Resolve this query's faults on its first morsel.

        Consumer-gone faults arm the query's channel immediately (and
        count as fired); morsel-triggered kinds are kept for
        :meth:`run_morsel`.  Nothing reads the channel after this.
        """
        injector = self._injector
        channel = self._channels.pop(query_id, None)
        armed: List[Tuple[int, FaultSpec]] = []
        for index, fault in injector.pending_for(query_id, name):
            if fault.kind == CONSUMER_GONE:
                if channel is not None:
                    channel.fail_after(fault.after_chunks)
                    injector.mark_fired(index, name, 0)
            else:
                armed.append((index, fault))
        self._armed[query_id] = armed
        return armed

    def clean_morsels(self, task_set) -> int:
        """How many of the query's next morsels no armed fault fires on.

        0 before the query's first morsel (which arms it in
        :meth:`run_morsel`) and when a fault is due.  The executor may
        cost that many morsels itself and report them to
        :meth:`count_morsels`.
        """
        query_id = task_set.resource_group.query_id
        n = self._morsel_counts.get(query_id)
        if n is None:
            return 0
        spent = self._injector.spent
        clean = sys.maxsize
        for index, fault in self._armed[query_id]:
            if index not in spent and fault.morsel - n < clean:
                clean = fault.morsel - n
        return clean if clean > 0 else 0

    def count_morsels(self, task_set, morsels: int) -> None:
        """Count morsels the executor ran without :meth:`run_morsel`."""
        self._morsel_counts[task_set.resource_group.query_id] += morsels

    def run_morsel(self, task_set, tuples: int) -> float:
        group = task_set.resource_group
        query_id = group.query_id
        counts = self._morsel_counts
        n = counts.get(query_id)
        if n is None:
            n = 0
            armed = self._arm(query_id, group.query.name)
        else:
            armed = self._armed.get(query_id)
        counts[query_id] = n + 1
        stall = 0.0
        if armed:
            injector = self._injector
            for index, fault in list(armed):
                if index in injector.spent:
                    armed.remove((index, fault))
                    continue
                if n < fault.morsel:
                    continue
                injector.mark_fired(index, group.query.name, n)
                armed.remove((index, fault))
                kind = fault.kind
                if kind == OPERATOR_RAISE:
                    raise InjectedFault(
                        f"injected operator fault in {group.query.name!r} "
                        f"at morsel {n}"
                    )
                if kind == WORKER_DEATH:
                    if injector.realtime:
                        raise WorkerDiedError(
                            f"injected worker death while executing "
                            f"{group.query.name!r} at morsel {n}"
                        )
                    # Pure virtual time has no worker to kill: the
                    # closest deterministic analogue is losing the work,
                    # i.e. failing the query it was executing.
                    raise InjectedFault(
                        f"injected worker death (virtual) while executing "
                        f"{group.query.name!r} at morsel {n}"
                    )
                # WORKER_STALL
                if injector.realtime:
                    time.sleep(fault.stall_seconds)
                else:
                    stall += fault.stall_seconds
        return self._inner.run_morsel(task_set, tuples) + stall


__all__ = [
    "OPERATOR_RAISE",
    "WORKER_STALL",
    "WORKER_DEATH",
    "CONSUMER_GONE",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultyEnvironment",
]

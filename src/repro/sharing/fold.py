"""Fold bookkeeping: the sharing counters and the fold coordinator.

A *fold* is one shared execution serving several attached queries.
:class:`FoldCoordinator` makes every fold decision for every backend,
always in the submitting process; the backends differ only in the
attach window.  The virtual-time epoch loop (which the process backend
shares) offers its pending set in arrival order at drain time, so the
epoch is the window and the earliest arrival leads.  The threaded
backend offers each query live at submit: a compatible query arriving
while a leader is in flight attaches to it as long as the leader's
chunk list is whole.  Either way a member's result channel reads the
leader's one chunk list (:mod:`repro.runtime.channel`); nothing is
copied or replayed.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.specs import QuerySpec
from repro.errors import ReproError


@dataclass
class SharingStats:
    """Observability counters for the work-sharing layer.

    Exported through ``metrics/export.py`` and the server/router stats
    surfaces so the tuner can see them later.
    """

    #: Shared executions that served more than one query.
    folds: int = 0
    #: Queries attached to another query's execution.
    attached_queries: int = 0
    #: Queries served from the fragment result cache.
    cache_hits: int = 0
    #: Cache entries dropped by the LRU bound.
    cache_evictions: int = 0
    #: Attaches refused for a fresh scan (the fold's member cap).
    replay_fallbacks: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view, key-sorted for deterministic export."""
        return dict(sorted(asdict(self).items()))

    def merge(self, other: "SharingStats") -> "SharingStats":
        """Counter-wise sum (cluster aggregation over shards)."""
        return SharingStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class LiveFold:
    """One shared execution: its leader and the queries attached to it."""

    fingerprint: str
    leader_job: int
    leader_spec: QuerySpec
    #: Attached queries: (job id, spec, arrival time).
    members: List[Tuple[int, QuerySpec, float]] = field(default_factory=list)
    #: Leader cancelled mid-flight with members still attached: the
    #: shared execution continues, only the leader's delivery detaches.
    leader_detached: bool = False


class FoldCoordinator:
    """Every fold decision of one backend, under one lock.

    ``attach_buffer`` is the ``sharing_attach_buffer`` option: on every
    backend a fold takes at most that many members (later compatible
    queries execute unshared, counted as replay fallbacks).  Callers
    pass the spec fingerprint they computed as ``key``.
    ``reweigh(fold, share, weight)`` runs under the lock whenever a
    fold's membership changes; the threaded backend uses it to apply
    :meth:`weight` to the live leader group.
    """

    def __init__(
        self,
        attach_buffer: int,
        stats: SharingStats,
        reweigh: Optional[Callable[[LiveFold, int, Optional[float]], None]] = None,
    ) -> None:
        if attach_buffer < 1:
            raise ReproError("sharing_attach_buffer must be at least 1")
        self.attach_buffer = attach_buffer
        self._stats = stats
        self._reweigh = reweigh
        self._lock = threading.Lock()
        #: fingerprint -> the fold a new arrival of it would attach to,
        #: until its leader detaches or completes.
        self._open: Dict[str, LiveFold] = {}
        #: leader job id -> its fold, until sealed.
        self._led: Dict[int, LiveFold] = {}
        #: member job id -> its fold, until served or detached.
        self._member_of: Dict[int, LiveFold] = {}

    def offer(
        self,
        job_id: int,
        spec: QuerySpec,
        arrival: float,
        key: str,
        whole: Optional[Callable[[int], bool]] = None,
    ) -> bool:
        """Lead, attach or fall back; ``True`` when ``job_id`` attached.

        Without an open fold for ``key``, or when ``whole(leader job)``
        says a live read dropped some of its leader's chunks, the query
        leads a new one; with a full one it executes unshared.
        """
        stats = self._stats
        with self._lock:
            fold = self._open.get(key)
            if fold is None or (whole is not None and not whole(fold.leader_job)):
                fold = LiveFold(key, job_id, spec)
                self._open[key] = fold
                self._led[job_id] = fold
                return False
            if len(fold.members) >= self.attach_buffer:
                stats.replay_fallbacks += 1
                return False
            fold.members.append((job_id, spec, arrival))
            self._member_of[job_id] = fold
            if len(fold.members) == 1:
                stats.folds += 1
            stats.attached_queries += 1
            self._reweighed(fold)
            return True

    @staticmethod
    def weight(fold: LiveFold) -> Tuple[int, Optional[float]]:
        """The §3.2 rule for a fold leader: ``(share, weight)``.

        The leader executes on behalf of ``share`` queries, so its
        stride share is the sum of theirs (the stride scheduler
        multiplies the weight by ``share``), and its weight is their
        maximum.  ``weight`` is ``None`` when every query runs at the
        default weight, which leaves the leader's priority untouched.
        """
        specs = [fold.leader_spec] + [spec for _, spec, _ in fold.members]
        weights = [s.user_priority for s in specs if s.user_priority is not None]
        return len(specs), (max(weights + [1.0]) if weights else None)

    def stamp(self, job_id: int, spec: QuerySpec) -> QuerySpec:
        """``spec`` under :meth:`weight` if ``job_id`` leads members; the
        share travels as a ``fold:N`` tag (the group's ``fold_size``)."""
        fold = self._led.get(job_id)
        if fold is None or not fold.members:
            return spec
        share, weight = self.weight(fold)
        changes = {"tags": spec.tags + (f"fold:{share}",)}
        if weight is not None:
            changes["user_priority"] = weight
        return replace(spec, **changes)

    def _reweighed(self, fold: LiveFold) -> None:
        if self._reweigh is not None:
            self._reweigh(fold, *self.weight(fold))

    def leader_of(self, job_id: int) -> Optional[int]:
        """The leader job an attached ``job_id`` waits on, if any."""
        fold = self._member_of.get(job_id)
        return None if fold is None else fold.leader_job

    def detach_member(self, job_id: int) -> Optional[Tuple[QuerySpec, float]]:
        """Detach an attached query; its ``(spec, arrival)``, else ``None``."""
        with self._lock:
            fold = self._member_of.pop(job_id, None)
            if fold is None:
                return None
            member = next(m for m in fold.members if m[0] == job_id)
            fold.members.remove(member)
            self._reweighed(fold)
            return member[1], member[2]

    def detach_leader(self, job_id: int) -> bool:
        """Close a leader's fold; ``True`` when members still need its
        execution, which goes on (:meth:`seal` reports ``leader_detached``).
        """
        with self._lock:
            fold = self._led.get(job_id)
            if fold is None:
                return False
            if self._open.get(fold.fingerprint) is fold:
                del self._open[fold.fingerprint]
            if not fold.members:
                return False
            fold.leader_detached = True
            return True

    def seal(self, job_id: int) -> Optional[LiveFold]:
        """Close the fold ``job_id`` leads, at its completion, and return it.

        The caller serves ``fold.members`` (no longer attached anywhere)
        and reads ``fold.leader_detached``; a later arrival of the
        fingerprint leads a fresh fold.
        """
        with self._lock:
            fold = self._led.pop(job_id, None)
            if fold is None:
                return None
            for member_job, _, _ in fold.members:
                del self._member_of[member_job]
            if self._open.get(fold.fingerprint) is fold:
                del self._open[fold.fingerprint]
            return fold

    def seal_all(self) -> None:
        """Forget every fold (a virtual-time epoch ended)."""
        with self._lock:
            self._open.clear()
            self._led.clear()
            self._member_of.clear()

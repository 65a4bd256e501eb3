"""Fold bookkeeping: sharing counters, live folds and the tee channel.

A *fold* is one shared execution serving several attached queries.  The
virtual-time backend folds at drain time (the epoch is the attach
window); the threaded backend folds *live*: a compatible query arriving
while a leader is in flight attaches to it instead of being admitted,
and the leader's produced chunks are kept in a bounded replay buffer so
attached queries can be served at completion.  When the buffer
overflows, every attached query falls back to a fresh unshared
execution (counted as a replay fallback) and the fold stops accepting
members.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


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
    #: Attaches abandoned for a fresh scan (replay buffer exhausted).
    replay_fallbacks: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view, key-sorted for deterministic export."""
        return {
            "attached_queries": self.attached_queries,
            "cache_evictions": self.cache_evictions,
            "cache_hits": self.cache_hits,
            "folds": self.folds,
            "replay_fallbacks": self.replay_fallbacks,
        }

    def merge(self, other: "SharingStats") -> "SharingStats":
        """Counter-wise sum (cluster aggregation over shards)."""
        return SharingStats(
            folds=self.folds + other.folds,
            attached_queries=self.attached_queries + other.attached_queries,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_evictions=self.cache_evictions + other.cache_evictions,
            replay_fallbacks=self.replay_fallbacks + other.replay_fallbacks,
        )


@dataclass
class LiveFold:
    """One in-flight shared execution on the threaded backend."""

    fingerprint: str
    leader_job: int
    #: Attached queries: (job id, spec, arrival wall time).
    members: List[Tuple[int, object, float]] = field(default_factory=list)
    #: Accepting new members?  Closed at leader completion or overflow.
    open: bool = True
    #: Leader cancelled mid-flight with members still attached: the
    #: shared execution continues, only the leader's delivery detaches.
    leader_detached: bool = False
    #: Chunks produced so far, kept for member replay at completion.
    replay: List[Tuple[str, object, int]] = field(default_factory=list)
    #: Replay gave up (bound exceeded); members were re-admitted fresh.
    overflowed: bool = False


class TeeChannel:
    """Producer-side channel wrapper that records chunks for replay.

    Wraps a fold leader's :class:`~repro.runtime.channel.ResultChannel`:
    the engine writes through the same producer API (``put_rows`` /
    ``put_final``) and every chunk is both forwarded to the leader and
    appended to the fold's bounded replay buffer.  On overflow the
    buffer is dropped and the recorded callback re-admits the attached
    members as fresh unshared executions.

    Only the producer surface the engine touches is exposed; consumers
    keep reading the real leader channel.
    """

    def __init__(self, inner, fold: LiveFold, bound: int, on_overflow) -> None:
        self.inner = inner
        self.fold = fold
        self.bound = bound
        self._on_overflow = on_overflow
        self._lock = threading.Lock()

    # -- producer API used by ChannelSink / EngineEnvironment ----------
    @property
    def closed(self) -> bool:
        # A detached leader's channel is failed (hence closed), but the
        # fold still needs every chunk for member replay — the engine's
        # "echo the terminal chunk unless closed" guard must keep
        # writing through the tee (the inner put is a silent drop on a
        # failed channel).  Report closed only once recording is
        # pointless too.
        return self.inner.closed and self.fold.overflowed

    @property
    def failed(self) -> bool:
        return self.inner.failed

    @property
    def chunks_put(self) -> int:
        return self.inner.chunks_put

    def put(self, kind: str, payload: object, rows: int) -> None:
        self.inner.put(kind, payload, rows)
        overflow = None
        with self._lock:
            fold = self.fold
            if not fold.overflowed:
                fold.replay.append((kind, payload, rows))
                if len(fold.replay) > self.bound:
                    fold.overflowed = True
                    fold.replay.clear()
                    overflow = fold
        if overflow is not None:
            self._on_overflow(overflow)

    def put_rows(self, payload: object, rows: int) -> None:
        self.put("rows", payload, rows)

    def put_final(self, payload: object, rows: int = 0) -> None:
        self.put("final", payload, rows)

    def close(self) -> None:  # pragma: no cover - backend closes inner
        self.inner.close()

    def fail(self, error: BaseException) -> None:
        self.inner.fail(error)


def max_fold_priority(specs) -> Optional[float]:
    """§3.2 fairness for folds: the group's weight is the members' max.

    ``None`` when every member runs at the default weight (so the
    leader's spec is left untouched and the unshared path stays
    bit-identical).
    """
    weights = [
        spec.user_priority for spec in specs if spec.user_priority is not None
    ]
    if not weights:
        return None
    return max(weights + [1.0])

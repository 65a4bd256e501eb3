"""The plan-fragment result cache.

Completed fragment results are cached under their normalized fingerprint
(:mod:`repro.sharing.fingerprint`), so an identical back-to-back query —
the common dashboard pattern — skips execution entirely and is served
at its arrival time by reading the cached chunk list, the leader's own.

Invalidation story: the TPC-H database a server owns is immutable, so
entries never go stale on their own.  Any code path that *does* mutate
data (none exists today) must call :meth:`FragmentCache.invalidate`,
which drops every entry and bumps the cache *epoch*, so no entry stored
before it can hit.  Capacity is bounded by ``max_entries`` with LRU
eviction (evictions are counted on the shared
:class:`~repro.sharing.fold.SharingStats`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ReproError
from repro.sharing.fold import SharingStats

#: Distinguishes "no entry" from a cached empty result.
MISS = object()


class FragmentCache:
    """Bounded LRU cache of completed fragment results."""

    def __init__(
        self,
        max_entries: int = 64,
        stats: Optional[SharingStats] = None,
    ) -> None:
        if max_entries < 1:
            raise ReproError("fragment cache needs max_entries >= 1")
        self.max_entries = max_entries
        self.stats = stats if stats is not None else SharingStats()
        #: Monotone invalidation epoch; bumped by :meth:`invalidate`.
        self.epoch = 0
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str):
        """The cached value, or :data:`MISS`.  Hits count and refresh LRU."""
        value = self._entries.get(fingerprint, MISS)
        if value is MISS:
            return MISS
        self._entries.move_to_end(fingerprint)
        self.stats.cache_hits += 1
        return value

    def put(self, fingerprint: str, value: object) -> None:
        """Store one completed fragment result under its fingerprint."""
        entries = self._entries
        if fingerprint in entries:
            entries.move_to_end(fingerprint)
        entries[fingerprint] = value
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.cache_evictions += 1

    def invalidate(self) -> None:
        """Drop every entry and start a new epoch (explicit, never timed)."""
        self._entries.clear()
        self.epoch += 1

    def snapshot(self) -> dict:
        """Introspection: size, bound and epoch."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "epoch": self.epoch,
        }

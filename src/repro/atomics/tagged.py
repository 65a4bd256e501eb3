"""Tagged pointers for optimistic slot invalidation.

Section 2.3 handles the "task set finished" event optimistically: instead
of notifying every worker, the slot's pointer is *tagged* as invalid.  A
worker that later picks the slot reads the tagged value, notices it is no
longer valid, and disables the slot in its local activity mask.

In C++ this is a pointer with a stolen low bit; here it is a tiny wrapper
holding a payload and a validity flag with compare-and-swap semantics.
A pointer starts lock-free, as the sequential simulation needs; after
:meth:`TaggedPointer.enable_concurrency` the writes (``store`` /
``tag_invalid`` / ``clear``) are serialised by a lock so that
:meth:`tag_invalid` is a *real* compare-and-swap under OS threads:
exactly one of any number of concurrent callers observes the valid →
invalid transition and becomes the finalization coordinator.  Reads stay
lock-free (a stale read is repaired lazily, §2.3).
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Tuple


class TaggedPointer:
    """A (payload, valid) pair with atomic read / tag / store semantics."""

    __slots__ = ("_payload", "_valid", "_lock")

    def __init__(self, payload: Any = None, valid: bool = False) -> None:
        self._payload = payload
        self._valid = valid and payload is not None
        self._lock: Optional[threading.Lock] = None

    def enable_concurrency(self) -> None:
        """Install the write lock; call before a second thread writes."""
        if self._lock is None:
            self._lock = threading.Lock()

    def load(self) -> Tuple[Optional[Any], bool]:
        """Atomically read ``(payload, valid)``."""
        return self._payload, self._valid

    def store(self, payload: Any) -> None:
        """Atomically publish a new valid payload."""
        lock = self._lock
        if lock is None:
            self._payload, self._valid = payload, payload is not None
            return
        with lock:
            self._payload, self._valid = payload, payload is not None

    def tag_invalid(self, expected: Any = None) -> bool:
        """Mark the current payload as invalid; keep it readable.

        Returns ``True`` if this call performed the transition, ``False``
        if the pointer was already invalid (another worker won the race)
        or no longer holds ``expected`` — a late caller must not tag the
        payload published after the one it read (ABA); ``None`` tags
        whatever is there.  This compare-and-swap behaviour lets exactly
        one worker act as the finalization coordinator.
        """
        lock = self._lock
        if lock is None:
            return self._tag(expected)
        with lock:
            return self._tag(expected)

    def _tag(self, expected: Any) -> bool:
        if not self._valid or (expected is not None and self._payload is not expected):
            return False
        self._valid = False
        return True

    def clear(self) -> None:
        """Reset to the empty state (slot free for a new resource group)."""
        lock = self._lock
        if lock is None:
            self._payload, self._valid = None, False
            return
        with lock:
            self._payload, self._valid = None, False

    @property
    def payload(self) -> Optional[Any]:
        """Relaxed read of the payload regardless of validity."""
        return self._payload

    @property
    def valid(self) -> bool:
        """Relaxed read of the validity flag."""
        return self._valid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "valid" if self._valid else "tagged"
        return f"TaggedPointer({self._payload!r}, {state})"

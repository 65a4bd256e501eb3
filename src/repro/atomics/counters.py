"""Atomic counters for the task-set finalization protocol.

Each task set owns a finalization counter (Section 2.3, "Task Set
Finalization").  The coordinating worker *increments* it by the number of
workers it marked; marked workers *decrement* it when they finish their
current task.  Because the decrements may land before the coordinator's
increment, the counter can temporarily become negative — the worker whose
decrement (or increment) brings it to exactly zero runs finalization.

A counter starts lock-free, all the sequential discrete-event
simulation needs.  :meth:`AtomicCounter.enable_concurrency` makes the
fetch-add a genuine atomic: a lock then serialises the
read-modify-write so the counter is safe under real OS threads (the
:class:`~repro.runtime.threaded.ThreadedBackend` arms every task set's
counter).  The exactly-one-finalizer guarantee rests on this: two
concurrent ``add_and_fetch`` calls can never both observe zero.
"""

from __future__ import annotations

import threading
from typing import Optional


class AtomicCounter:
    """An integer with fetch-add semantics; may legally go negative."""

    __slots__ = ("_value", "_lock", "op_count")

    def __init__(self, value: int = 0) -> None:
        self._value = value
        self._lock: Optional[threading.Lock] = None
        #: Number of fetch-add operations, for overhead accounting.
        self.op_count = 0

    def enable_concurrency(self) -> None:
        """Install the lock; call before a second thread adds."""
        if self._lock is None:
            self._lock = threading.Lock()

    def add_and_fetch(self, delta: int) -> int:
        """Atomically add ``delta``; return the *new* value."""
        lock = self._lock
        if lock is None:
            new = self._value + delta
            self._value = new
            self.op_count += 1
            return new
        with lock:
            new = self._value + delta
            self._value = new
            self.op_count += 1
        return new

    def fetch_add(self, delta: int) -> int:
        """Atomically add ``delta``; return the *previous* value."""
        return self.add_and_fetch(delta) - delta

    def load(self) -> int:
        """Relaxed read of the current value."""
        return self._value

    def store(self, value: int) -> None:
        """Relaxed store (only used when resetting between task sets)."""
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomicCounter({self._value})"

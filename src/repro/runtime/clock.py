"""Clocks: the runtime layer's only notion of time.

Schedulers, the morsel executor and the tuning controller never ask the
operating system for the time — they receive ``now`` values from whoever
drives them and, when they need a time source themselves (the tuning
controller measuring its own optimization cost), they consult a
:class:`Clock`.  Two implementations cover both execution backends:

* :class:`VirtualClock` — manually advanced virtual seconds, driven by
  the discrete-event simulator (the
  :class:`~repro.runtime.simulated.SimulatedBackend`);
* :class:`WallClock` — monotonic wall-clock seconds since ``start()``,
  used by the :class:`~repro.runtime.threaded.ThreadedBackend` whose
  workers are real OS threads.

Both express time as floating-point **seconds** starting at zero, so
latency records are directly comparable across backends.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.errors import ReproError


@runtime_checkable
class Clock(Protocol):
    """Anything that can report the current time in seconds."""

    def now(self) -> float:
        """Current time in seconds since the epoch of the run."""
        ...  # pragma: no cover - protocol

    #: Whether ``now()`` advances on its own (wall clock) or only when
    #: the driver advances it (virtual clock).  Lets time consumers —
    #: the tuning controller measuring its own optimization cost —
    #: decide between *measuring* elapsed time and *modelling* it.
    realtime: bool


class VirtualClock:
    """A monotonically advancing virtual clock (discrete-event time).

    The one virtual clock: the discrete-event
    :class:`~repro.simcore.simulator.Simulator` advances it, and it
    exposes time through the :class:`Clock` protocol (``now()`` as a
    method) so schedulers can hold a clock without knowing whether it is
    virtual or real.
    """

    __slots__ = ("_now",)

    realtime = False

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ReproError("clock cannot start before time zero")
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when`` (never backwards)."""
        if when < self._now:
            raise ReproError(
                f"clock moving backwards: {when:.9f} < {self._now:.9f}"
            )
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"


class WallClock:
    """Monotonic wall-clock seconds since :meth:`start`.

    ``now()`` before ``start()`` returns 0.0 so that arrival timestamps
    taken while a backend is still being wired up are well defined.
    """

    __slots__ = ("_epoch",)

    realtime = True

    def __init__(self) -> None:
        self._epoch: float | None = None

    def start(self) -> None:
        """Pin the epoch; subsequent ``now()`` calls are relative to it."""
        if self._epoch is None:
            self._epoch = time.monotonic()

    @property
    def started(self) -> bool:
        """Whether the epoch has been pinned."""
        return self._epoch is not None

    def now(self) -> float:
        """Seconds elapsed since :meth:`start` (0.0 before it)."""
        if self._epoch is None:
            return 0.0
        return time.monotonic() - self._epoch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WallClock(now={self.now():.6f})"

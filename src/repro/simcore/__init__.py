"""Discrete-event simulation substrate.

The paper evaluates its scheduler inside Umbra, a C++ engine running one
OS thread per core.  Pure Python cannot execute compute-bound work on
multiple cores (the GIL serializes it), so this package provides the
faithful alternative: a discrete-event simulator in which every worker is
an actor advancing *virtual time*.  Each scheduling decision of the paper
is made by the real scheduler code in :mod:`repro.core`; only the elapsed
time of a morsel comes from a calibrated cost model instead of a CPU.

Key pieces:

* :class:`~repro.simcore.simulator.Simulator` — drives workers, arrivals
  and the scheduler until the workload is done, over one event heap of
  ``(time, seq, kind, worker, payload)`` tuples and a
  :class:`~repro.runtime.clock.VirtualClock`;
* :class:`~repro.simcore.simulator.SimulationEnvironment` — the cost
  model a morsel's virtual duration comes from;
* :class:`~repro.simcore.rng.RngFactory` — named deterministic RNG streams.
* :class:`~repro.runtime.trace.TraceRecorder` — morsel/task/query spans.
"""

from repro.simcore.rng import RngFactory
from repro.simcore.simulator import SimulationResult, Simulator
from repro.runtime.trace import MorselSpan, TraceRecorder

__all__ = [
    "MorselSpan",
    "RngFactory",
    "SimulationResult",
    "Simulator",
    "TraceRecorder",
]

"""Adaptive query priorities (§3.2).

The priority of a resource group decays with the CPU time it has
received, similar to multi-level feedback queues:

.. math::

    p_{i+1} = \\begin{cases}
        p_i & i < d_{start} \\\\
        \\max(p_{min}, \\lambda \\cdot p_i) & i \\ge d_{start}
    \\end{cases}

where ``i`` counts fixed CPU quanta of length ``t`` (set to the target
task duration ``t_max``, so decay usually happens after every scheduled
task).  The lower bound ``p_min > 0`` guarantees queries never starve.

Custom priorities (end of §3.2) are supported two ways: a query can pin a
*static* priority that never decays, and a *user priority* scales both
``p_0`` and ``p_min`` multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import TuningError

#: Fixed initial priority (§4, "Optimization Problem").
DEFAULT_P0 = 10_000.0
#: Fixed lower priority bound ensuring progress (§4).
DEFAULT_PMIN = 100.0


@dataclass(frozen=True)
class DecayParameters:
    """The tunable decay hyperparameters ``(lambda, d_start)``.

    ``decay`` is the paper's λ ∈ [0, 1]; ``d_start`` ≥ 0 is the number of
    quanta a query executes at full priority before decay begins.  ``p0``
    and ``p_min`` are fixed by the paper to keep progress guarantees but
    remain configurable for experimentation.
    """

    decay: float = 0.9
    d_start: int = 7
    p0: float = DEFAULT_P0
    p_min: float = DEFAULT_PMIN
    quantum: float = 0.002

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay <= 1.0:
            raise TuningError(f"decay must be in [0, 1], got {self.decay}")
        if self.d_start < 0:
            raise TuningError(f"d_start must be >= 0, got {self.d_start}")
        if self.p_min <= 0.0:
            raise TuningError("p_min must be positive (starvation guard)")
        if self.p0 < self.p_min:
            raise TuningError("p0 must be at least p_min")
        if self.quantum <= 0.0:
            raise TuningError("decay quantum must be positive")

    def with_values(self, decay: float, d_start: int) -> "DecayParameters":
        """Return a copy with new tunables (p0/p_min/quantum unchanged)."""
        return replace(self, decay=decay, d_start=int(d_start))

    def priority_after(self, quanta: int, scale: float = 1.0) -> float:
        """Closed-form priority after ``quanta`` CPU quanta.

        ``scale`` applies the user-priority scaling of §3.2 to both the
        initial priority and the floor.
        """
        p0 = self.p0 * scale
        p_min = self.p_min * scale
        if quanta <= self.d_start:
            return p0
        decayed = p0 * (self.decay ** (quanta - self.d_start))
        return max(p_min, decayed)


class PriorityDecay:
    """Mutable per-(worker, resource-group) decay state.

    Each worker tracks decay locally (thread-local priorities, §2.3), so
    this object is cheap: a priority, a quantum counter, and an
    accumulator of CPU time since the last decay step.
    """

    __slots__ = ("_params", "_scale", "_static", "priority", "_quanta", "_accum")

    def __init__(
        self,
        params: DecayParameters,
        user_scale: float = 1.0,
        static_priority: float = None,
    ) -> None:
        self._params = params
        self._scale = user_scale
        self._static = static_priority
        self.priority = (
            static_priority if static_priority is not None else params.p0 * user_scale
        )
        self._quanta = 0
        self._accum = 0.0

    @property
    def quanta(self) -> int:
        """Number of completed decay quanta."""
        return self._quanta

    def charge(self, cpu_seconds: float) -> float:
        """Account CPU time; apply decay steps for each completed quantum.

        Returns the priority after the charge.  Runs once per completed
        scheduler task, so the per-quantum stepping is unrolled into
        local variables.  The accumulator is advanced by *repeated
        subtraction* on purpose: replacing it with a division would
        change the floating-point rounding and break trace
        reproducibility.
        """
        if cpu_seconds < 0.0:
            return self.priority
        accum = self._accum + cpu_seconds
        params = self._params
        quantum = params.quantum
        if accum < quantum:
            self._accum = accum
            return self.priority
        quanta = self._quanta
        if self._static is not None:
            # Pinned static priority never decays (§3.2, custom (1)).
            while accum >= quantum:
                accum -= quantum
                quanta += 1
        else:
            d_start = params.d_start
            decay = params.decay
            floor = params.p_min * self._scale
            priority = self.priority
            while accum >= quantum:
                accum -= quantum
                quanta += 1
                if quanta > d_start:
                    decayed = decay * priority
                    priority = decayed if decayed > floor else floor
            self.priority = priority
        self._accum = accum
        self._quanta = quanta
        return self.priority

    def update_parameters(self, params: DecayParameters) -> None:
        """Adopt newly tuned parameters without resetting progress.

        The priority is recomputed from the closed form so that a tuning
        run taking effect mid-query behaves as if the new parameters had
        been active from the start — this keeps decay consistent across
        workers that adopt the update at slightly different times.
        """
        self._params = params
        if self._static is None:
            self.priority = params.priority_after(self._quanta, self._scale)

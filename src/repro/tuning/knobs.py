"""The knob table: the tunable surface of the whole system, declared once.

The paper's §4 tuner optimizes exactly two parameters, ``(lambda,
d_start)``.  The system has since grown more hand-set constants —
scheduler slot counts, the target task duration, channel capacities,
retry budgets, admission bounds.  :data:`KNOBS` declares each of them
once: name, domain, default and description.  The name's prefix is the
layer the knob lives in (``core``, ``runtime``, ``admission``).  Every
entry is a name the replay cost model reads; a constant it cannot
evaluate is not a knob.

A :class:`KnobSpace` is built by *binding* table entries to a live
target: ``read`` returns the value the target runs, ``apply`` changes
it.  The owner, :meth:`repro.server.AnalyticsServer.knob_space`,
registers only the knobs its target will run, so applying a tuned
vector is the broadcast and reading it back is the check.  Core knobs go
to the live scheduler (threaded) or to the config the next epoch's
scheduler is built from (simulated, process); runtime and admission
knobs are attributes of the backend, the server and the admission
policy.  :func:`scheduler_knobs` binds the decay pair to a running
scheduler, the same pair the §4 controller broadcasts.

:func:`default_knob_space` is the unbound space the replay cost model
(:mod:`repro.tuning.replay`) can search on its own; it cannot apply.
Everything is deterministic: knobs iterate in table order, and domains
generate candidate neighbours in a fixed order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import TuningError


class Domain(abc.ABC):
    """The set of values a knob may take, plus search geometry."""

    @abc.abstractmethod
    def clamp(self, value):
        """Project ``value`` onto the domain."""

    @abc.abstractmethod
    def validate(self, value) -> None:
        """Raise :class:`TuningError` if ``value`` is outside the domain."""

    @abc.abstractmethod
    def neighbors(self, value, width: float) -> List:
        """Candidate moves from ``value`` at step-width ``width``.

        Returned in a fixed (+ then −) order so directional searches are
        deterministic; values equal to ``value`` after clamping are
        dropped.
        """

    @abc.abstractmethod
    def normalize(self, value) -> float:
        """Map ``value`` into [0, 1] for surrogate distance metrics."""


@dataclass(frozen=True)
class ContinuousDomain(Domain):
    """A closed real interval with a directional-search base step."""

    lo: float
    hi: float
    #: The step a directional search takes at width 1.0.
    step: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise TuningError(f"empty domain [{self.lo}, {self.hi}]")
        if self.step <= 0.0:
            raise TuningError("domain step must be positive")

    def clamp(self, value):
        return min(self.hi, max(self.lo, float(value)))

    def validate(self, value) -> None:
        if not self.lo <= value <= self.hi:
            raise TuningError(
                f"value {value!r} outside domain [{self.lo}, {self.hi}]"
            )

    def neighbors(self, value, width: float) -> List:
        out = []
        for direction in (1.0, -1.0):
            candidate = self.clamp(value + direction * width * self.step)
            if candidate != value and candidate not in out:
                out.append(candidate)
        return out

    def normalize(self, value) -> float:
        return (float(value) - self.lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class IntegerDomain(Domain):
    """A closed integer interval with an integer base step."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise TuningError(f"empty domain [{self.lo}, {self.hi}]")
        if self.step < 1:
            raise TuningError("integer domain step must be >= 1")

    def clamp(self, value):
        return min(self.hi, max(self.lo, int(round(value))))

    def validate(self, value) -> None:
        if value != int(value) or not self.lo <= value <= self.hi:
            raise TuningError(
                f"value {value!r} outside integer domain "
                f"[{self.lo}, {self.hi}]"
            )

    def neighbors(self, value, width: float) -> List:
        delta = max(self.step, int(round(width * self.step)))
        out = []
        for direction in (1, -1):
            candidate = self.clamp(value + direction * delta)
            if candidate != value and candidate not in out:
                out.append(candidate)
        return out

    def normalize(self, value) -> float:
        return (int(value) - self.lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class Knob:
    """One tunable parameter: a table entry, optionally bound to a target.

    ``read``/``apply`` close over the object that runs the value (a
    scheduler, a backend, a policy).  An unbound knob is searchable —
    the replay cost model sees its value — but cannot be applied.
    """

    name: str
    domain: Domain
    default: object
    description: str = ""
    read: Optional[Callable[[], object]] = None
    apply: Optional[Callable[[object], None]] = None

    def bind(
        self, read: Callable[[], object], apply: Callable[[object], None]
    ) -> "Knob":
        """This knob bound to a live target."""
        return replace(self, read=read, apply=apply)

    def attribute(self, target: object, name: str) -> "Knob":
        """This knob bound to the attribute ``name`` of ``target``."""
        return self.bind(
            lambda: getattr(target, name),
            lambda value: setattr(target, name, value),
        )

    def current(self):
        """The live value (the default when unbound)."""
        if self.read is None:
            return self.default
        return self.domain.clamp(self.read())


class KnobSpace:
    """An ordered registry of knobs; the search space of the tuner.

    Registration order is the canonical knob order everywhere (vectors,
    neighbours, history distances), so results never depend on dict or
    set iteration order — the same discipline the rest of the system
    follows for hash-seed determinism.
    """

    def __init__(self, knobs: Iterable[Knob] = ()) -> None:
        self._knobs: Dict[str, Knob] = {}
        for knob in knobs:
            self.register(knob)

    def register(self, knob: Knob) -> Knob:
        if knob.name in self._knobs:
            raise TuningError(f"knob {knob.name!r} already registered")
        self._knobs[knob.name] = knob
        return knob

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs.values())

    def __getitem__(self, name: str) -> Knob:
        try:
            return self._knobs[name]
        except KeyError:
            raise TuningError(
                f"unknown knob {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._knobs)

    def current_values(self) -> Dict[str, object]:
        """Read the live value of every knob, in registration order."""
        return {knob.name: knob.current() for knob in self}

    def apply(self, values: Mapping[str, object]) -> List[str]:
        """Push ``values`` into the live system; returns applied names.

        Each value is clamped onto its knob's domain first.  A name that
        is not registered, or whose knob is unbound, raises before
        anything is applied.
        """
        for name in values:
            if self[name].apply is None:
                raise TuningError(
                    f"knob {name!r} is not bound to a target; it exists "
                    "only in the replay cost model"
                )
        applied = []
        for knob in self:
            if knob.name in values:
                knob.apply(knob.domain.clamp(values[knob.name]))
                applied.append(knob.name)
        return applied


#: The table: every well-known knob of the system, in canonical order.
#: These are the names the replay cost model (:mod:`repro.tuning.replay`)
#: understands; owners bind entries to what runs them.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "core.decay",
            ContinuousDomain(0.0, 1.0, step=0.05),
            0.9,
            "priority-decay factor lambda (§3.2)",
        ),
        Knob(
            "core.d_start",
            IntegerDomain(0, 512),
            7,
            "quanta at full priority before decay begins (§3.2)",
        ),
        Knob(
            "core.t_max",
            ContinuousDomain(0.0005, 0.016, step=0.0005),
            0.002,
            "target task duration / decay quantum (§2.2)",
        ),
        Knob(
            "core.slot_limit",
            IntegerDomain(2, 256, step=2),
            128,
            "scheduler slot capacity: concurrently active queries (§2.3)",
        ),
        Knob(
            "runtime.channel_capacity",
            IntegerDomain(1, 128),
            8,
            "bounded result-channel depth in chunks",
        ),
        Knob(
            "runtime.retry_budget",
            IntegerDomain(0, 64),
            16,
            "server-wide transient-failure resubmission budget",
        ),
        Knob(
            "runtime.retry_backoff",
            ContinuousDomain(0.0, 1.0, step=0.01),
            0.05,
            "base exponential backoff between retry attempts (seconds)",
        ),
        Knob(
            "admission.max_pending",
            IntegerDomain(4, 4096, step=4),
            256,
            "admission queue depth: pending queries before backpressure",
        ),
    )
}


def _decays(scheduler) -> bool:
    """Whether ``scheduler`` runs the §3.2 priority decay.

    True for the stride family (stride, tuning, lottery) except the fair
    baseline, which pins every priority to p0; FIFO and Umbra have no
    decay state at all.
    """
    return hasattr(scheduler, "set_decay_parameters") and not (
        scheduler.fixed_priorities
    )


def _decay_knobs(read: Callable, write: Callable) -> List[Knob]:
    """``core.decay`` and ``core.d_start`` over one parameter holder.

    ``read()`` returns the :class:`~repro.core.decay.DecayParameters`
    in force and ``write(params)`` replaces them.
    """
    return [
        KNOBS["core.decay"].bind(
            lambda: read().decay,
            lambda value: write(read().with_values(value, read().d_start)),
        ),
        KNOBS["core.d_start"].bind(
            lambda: read().d_start,
            lambda value: write(read().with_values(read().decay, value)),
        ),
    ]


def scheduler_knobs(scheduler) -> List[Knob]:
    """The decay pair bound to a running scheduler (empty if it does not
    decay): values go through the §4 broadcast into every worker."""
    if not _decays(scheduler):
        return []
    return _decay_knobs(
        lambda: scheduler.decay_parameters, scheduler.set_decay_parameters
    )


def config_knobs(config: Callable, update: Callable, scheduler) -> List[Knob]:
    """The core knobs bound to the config the next epoch is built from.

    ``config()`` returns the :class:`~repro.core.SchedulerConfig` and
    ``update(**changes)`` replaces it; ``scheduler``, one built from it,
    says which knobs would run: the decay pair only if it decays, the
    slot limit only if it has a slot array (FIFO and Umbra do not).
    """
    knobs = _decay_knobs(
        lambda: config().effective_decay(),
        lambda params: update(decay=params),
    ) if _decays(scheduler) else []
    knobs.append(KNOBS["core.t_max"].bind(
        lambda: config().t_max, lambda value: update(t_max=value)
    ))
    if hasattr(scheduler, "slots"):
        knobs.append(KNOBS["core.slot_limit"].bind(
            lambda: config().slot_capacity,
            lambda value: update(slot_capacity=value),
        ))
    return knobs


def default_knob_space(names: Optional[Tuple[str, ...]] = None) -> KnobSpace:
    """An unbound space over the table (cost-model-only tuning)."""
    if names is None:
        return KnobSpace(KNOBS.values())
    unknown = [name for name in names if name not in KNOBS]
    if unknown:
        raise TuningError(f"unknown knobs {unknown}; known: {tuple(KNOBS)}")
    return KnobSpace(knob for knob in KNOBS.values() if knob.name in names)

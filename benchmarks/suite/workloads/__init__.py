"""The seven workloads.

Every workload module exposes::

    NAME, WHY            # its name and the one line saying why it exists
    setup(seed, scale, tracer) -> ctx    # untimed; counted in setup_s
    run(ctx, tracer) -> Rep              # the timed region, fixed op count
    teardown(ctx)                        # stop what setup started

``scale`` is ``--seconds / 10``: op counts are a fixed function of it,
never a time box, so two commits do the same work and the faster one
simply finishes sooner.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List

MAX_FAILURE_MESSAGES = 20


@dataclass
class Rep:
    """What one repetition of one workload measured and checked."""

    #: Wall seconds of the timed region.
    wall: float = 0.0
    #: Host-time scalars of this repetition (``queries_per_s`` ...).
    host: Dict[str, float] = field(default_factory=dict)
    #: Host-time samples (``op_latency_ms`` ...), pooled across reps.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Quantities that must repeat bit for bit (``virt_*``, exact counts).
    exact: Dict[str, object] = field(default_factory=dict)
    #: Per-layer values the harness reads itself, tracing on or off.
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def op(self, ok: bool, message: str = "") -> None:
        """Count one operation; a failed one keeps its message."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An oracle condition that is not itself an operation."""
        if not ok:
            self.fail(message)


def sharing_layer(after: dict, before: dict, submitted: int) -> Dict[str, float]:
    """The ``sharing.*`` counters gained between two ``SharingStats`` dicts."""
    gained = {key: after[key] - before.get(key, 0) for key in after}
    served = gained["attached_queries"] + gained["cache_hits"]
    return {
        "sharing.folds": gained["folds"],
        "sharing.attached_queries": gained["attached_queries"],
        "sharing.cache_hits": gained["cache_hits"],
        "sharing.cache_evictions": gained["cache_evictions"],
        "sharing.replay_fallbacks": gained["replay_fallbacks"],
        "sharing.hit_frac": served / submitted if submitted else 0.0,
    }


def load(name: str):
    """The module of one workload."""
    return importlib.import_module(f"{__name__}.{name}")

"""Shard placement policies: round-robin and predictive least-delay.

The router must answer one question per submission: *which shard should
run this query?*  Two answers are provided:

* :class:`RoundRobinPlacement` — the classic baseline: cycle through
  the active shards, ignoring load.  Balances query *counts*, which is
  exactly wrong for analytical workloads where one Q18 costs two orders
  of magnitude more than one Q6.
* :class:`PredictivePlacement` — a lightweight concurrent-query latency
  predictor in the spirit of learned query-performance prediction
  (Wu et al., arXiv 2501.16256), stripped to what routing actually
  needs.  Per shard it tracks a *busy-until* horizon for every
  scheduling weight class (the §3.2 user-priority weights the stride
  scheduler shares by): submitting a query of weight ``w`` and
  estimated work ``e`` at time ``t`` pushes that class's horizon to
  ``max(horizon, t) + e / n_workers``.  The predicted latency of a
  candidate on shard ``s`` is its own work estimate plus the remaining
  backlog of every class, discounted by how much that class can
  actually delay it under weighted sharing (a weight-1 bulk backlog
  delays a weight-4 dashboard query at most 1/4 as much as peer
  dashboard work does)::

      predicted(s, q) = work(q)
                      + sum_w  max(0, horizon[s][w] - t) * min(1, w / w_q)

  The horizon formulation makes backlog *decay with virtual time* — a
  monster query routed at t=0 stops repelling traffic once the model
  says it has finished — which a plain in-flight-work counter gets
  wrong.  ``work(q)`` starts from the query's cost-model estimate
  (:attr:`QuerySpec.total_work_seconds`) and is calibrated online from
  the shards' own :class:`LatencyRecord` streams (an exponential moving
  average of observed CPU-seconds per query name), so systematic
  cost-model bias washes out after the first drain — the model-mode
  profiles are near-exact, but engine-mode estimates need it.

Both policies are deterministic: round-robin state is a single cursor,
the predictor breaks ties toward the lowest shard index and iterates
weight classes in sorted order, and calibration updates happen in the
router's settlement order (ticket registration order), never in hash
order.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Union

from repro.core.specs import QuerySpec
from repro.errors import ReproError
from repro.metrics.latency import LatencyRecord


class PlacementPolicy(abc.ABC):
    """Chooses a shard for each submission; observes completions.

    ``at`` is the query's arrival time in the epoch's virtual clock
    (0.0 when unspecified) and ``weight`` its §3.2 scheduling weight —
    the router resolves both before consulting the policy.
    """

    #: The ``placement=...`` string this policy implements.
    name: str = "abstract"

    def bind(self, n_shards: int, n_workers: int) -> None:
        """Called once by the router before any placement decision."""
        self.n_shards = n_shards
        self.n_workers = n_workers

    @abc.abstractmethod
    def choose(
        self,
        spec: QuerySpec,
        active: Sequence[int],
        at: float = 0.0,
        weight: float = 1.0,
    ) -> int:
        """Pick a shard index from ``active`` for ``spec``."""

    def on_submit(
        self,
        shard: int,
        spec: QuerySpec,
        at: float = 0.0,
        weight: float = 1.0,
    ) -> float:
        """Account a routed query; returns the *charge* to settle later.

        The router stores the returned charge with the ticket and hands
        it back to :meth:`on_complete` when the query finishes, so a
        policy can reconcile its prediction against the outcome.
        """
        return 0.0

    def on_complete(
        self, shard: int, record: LatencyRecord, charge: float
    ) -> None:
        """Settle a completed (or failed/cancelled) routed query."""

    def transfer(
        self,
        source: int,
        target: int,
        spec: QuerySpec,
        charge: float,
        at: float = 0.0,
        weight: float = 1.0,
    ) -> float:
        """Move a routed query's accounting across shards (handoff).

        Returns the new charge to settle when the query completes on
        ``target``.
        """
        return charge

    def epoch_reset(self) -> None:
        """Called after a cluster-wide drain: all backlog has run dry.

        Virtual-time backends restart each drain epoch at clock zero,
        so any time-based backlog state must reset with them.
        """

    def snapshot(self) -> dict:
        """Introspection: the policy's current internal state."""
        return {}


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through the active shards, ignoring load entirely."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        spec: QuerySpec,
        active: Sequence[int],
        at: float = 0.0,
        weight: float = 1.0,
    ) -> int:
        if not active:
            raise ReproError("no active shards to place on")
        shard = active[self._cursor % len(active)]
        self._cursor += 1
        return shard

    def snapshot(self) -> dict:
        return {"cursor": self._cursor}


class PredictivePlacement(PlacementPolicy):
    """Route to the shard with the smallest predicted completion time.

    See the module docstring for the model.  State per shard is one
    small ``{weight: busy_until}`` dict — constant memory in the number
    of in-flight queries, linear in the number of distinct SLA weights
    (two, for the default latency/bulk pair).
    """

    name = "predictive"

    def __init__(
        self, alpha: float = 0.3, sharing_affinity: float = 0.0
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError("alpha must be in (0, 1]")
        if not 0.0 <= sharing_affinity < 1.0:
            raise ReproError("sharing_affinity must be in [0, 1)")
        #: Calibration EMA step of the work estimates.
        self.alpha = alpha
        #: How strongly to prefer a shard that already has this query's
        #: leading plan fragment in flight (its scan can be folded there
        #: instead of run twice): the candidate's own work estimate is
        #: discounted by this factor when the fragment is live on the
        #: shard.  0.0 (the default) tracks nothing and is bit-identical
        #: to the pre-sharing predictor.
        self.sharing_affinity = float(sharing_affinity)
        #: Calibrated work estimate per query name (EMA of cpu_seconds).
        self._work: Dict[str, float] = {}
        #: Per shard: scheduling weight -> predicted busy-until time.
        self._busy: Optional[List[Dict[float, float]]] = None
        #: Per shard: fragment fingerprint -> predicted busy-until time
        #: (only maintained when ``sharing_affinity > 0``).
        self._fragments: Optional[List[Dict[str, float]]] = None

    def bind(self, n_shards: int, n_workers: int) -> None:
        super().bind(n_shards, n_workers)
        self._busy = [dict() for _ in range(n_shards)]
        if self.sharing_affinity > 0.0:
            self._fragments = [dict() for _ in range(n_shards)]

    def estimate(self, spec: QuerySpec) -> float:
        """Expected CPU-seconds of one run of ``spec``."""
        calibrated = self._work.get(spec.name)
        if calibrated is not None:
            return calibrated
        return spec.total_work_seconds

    def predicted_latency(
        self, shard: int, spec: QuerySpec, at: float = 0.0, weight: float = 1.0
    ) -> float:
        """The model's completion-time prediction for ``spec`` on ``shard``."""
        delay = 0.0
        # Sorted for determinism: dict order must never matter.
        for w, horizon in sorted(self._busy[shard].items()):
            remaining = horizon - at
            if remaining > 0.0:
                delay += remaining * min(1.0, w / weight)
        estimate = self.estimate(spec)
        if self._fragments is not None:
            # Sharing affinity: the shard already runs this leading
            # fragment, so this query's scan folds into it — most of
            # the candidate's own work would be shared, not repeated.
            from repro.sharing import spec_fragment_fingerprint

            horizon = self._fragments[shard].get(
                spec_fragment_fingerprint(spec)
            )
            if horizon is not None and horizon > at:
                estimate = estimate * (1.0 - self.sharing_affinity)
        return estimate + delay

    def choose(
        self,
        spec: QuerySpec,
        active: Sequence[int],
        at: float = 0.0,
        weight: float = 1.0,
    ) -> int:
        if not active:
            raise ReproError("no active shards to place on")
        best = active[0]
        best_predicted = self.predicted_latency(best, spec, at, weight)
        for shard in active[1:]:
            predicted = self.predicted_latency(shard, spec, at, weight)
            if predicted < best_predicted:  # strict: ties → lowest index
                best = shard
                best_predicted = predicted
        return best

    def on_submit(
        self,
        shard: int,
        spec: QuerySpec,
        at: float = 0.0,
        weight: float = 1.0,
    ) -> float:
        charge = self.estimate(spec)
        busy = self._busy[shard]
        busy[weight] = max(busy.get(weight, 0.0), at) + (
            charge / self.n_workers
        )
        if self._fragments is not None:
            from repro.sharing import spec_fragment_fingerprint

            fragments = self._fragments[shard]
            fp = spec_fragment_fingerprint(spec)
            fragments[fp] = max(
                fragments.get(fp, 0.0), at + charge / self.n_workers
            )
        return charge

    def on_complete(
        self, shard: int, record: LatencyRecord, charge: float
    ) -> None:
        if record.cancelled or record.failed:
            return  # partial executions would bias the estimate low
        observed = float(record.cpu_seconds)
        previous = self._work.get(record.name)
        if previous is None:
            self._work[record.name] = observed
        else:
            self._work[record.name] = (
                previous + self.alpha * (observed - previous)
            )

    def transfer(
        self,
        source: int,
        target: int,
        spec: QuerySpec,
        charge: float,
        at: float = 0.0,
        weight: float = 1.0,
    ) -> float:
        # The source keeps its (now pessimistic) horizon — it is being
        # drained and excluded from placement anyway, and time-based
        # backlog decays on its own; the target picks up the work.
        return self.on_submit(target, spec, at, weight)

    def epoch_reset(self) -> None:
        if self._busy is not None:
            for busy in self._busy:
                busy.clear()
        if self._fragments is not None:
            for fragments in self._fragments:
                fragments.clear()

    def snapshot(self) -> dict:
        snap = {
            "busy_until": [
                dict(sorted(busy.items())) for busy in self._busy or ()
            ],
            "calibrated_work": dict(sorted(self._work.items())),
        }
        if self._fragments is not None:
            snap["sharing_affinity"] = self.sharing_affinity
            snap["fragments_in_flight"] = [
                dict(sorted(fragments.items()))
                for fragments in self._fragments
            ]
        return snap


#: ``placement=`` string -> policy factory, the router's construction map.
PLACEMENT_POLICIES = {
    "round-robin": RoundRobinPlacement,
    "predictive": PredictivePlacement,
}


def make_placement_policy(
    policy: Union[str, PlacementPolicy],
) -> PlacementPolicy:
    """Build (or pass through) a placement policy."""
    if isinstance(policy, PlacementPolicy):
        return policy
    cls = PLACEMENT_POLICIES.get(policy)
    if cls is None:
        raise ReproError(
            f"unknown placement policy {policy!r}; choose from "
            f"{sorted(PLACEMENT_POLICIES)}"
        )
    return cls()

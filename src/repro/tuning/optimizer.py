"""Derivative-free directional search over (lambda, d_start) — §4.

The optimization problem (Equation 3) is non-continuous, so the paper
uses a directional search from derivative-free optimization [Conn et
al.]:

* ``d_start`` candidates are chosen heuristically as the minimal values
  that let 5%, 10%, ..., 35% of the tracked morsels execute without
  decay;
* for each candidate, ``lambda`` is refined by a local line search with
  initial step width 1.0 and directions ±0.05; a failed step halves the
  width, a successful one grows it by 1.5x;
* exactly 7 search steps are performed per starting value so the
  optimization cost is deterministic;
* the best refined point overall wins.  The previous run's optimum
  seeds ``lambda`` (0.9 on the first run).

The module now hosts two searches over that shared machinery:

* :func:`optimize` — the paper's (lambda, d_start) special case, kept
  bit-identical to the original implementation (the §4/Figure 6
  experiments gate on it, see tests/tuning/test_bit_identity.py);
* :func:`search_knob_space` — a pluggable pattern search over any
  :class:`repro.tuning.knobs.KnobSpace`, evaluated against the
  whole-system replay cost model under an explicit step budget, with
  greedy workload compression, surrogate ranking from tuning history,
  and full-workload verification of only the top candidates (the WAter
  recipe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.decay import DecayParameters
from repro.tuning.compress import compress_workload
from repro.tuning.cost import CostFunction, mean_slowdown_cost
from repro.tuning.history import TuningHistory, workload_signature
from repro.tuning.knobs import KNOBS, KnobSpace
from repro.tuning.replay import replay_cost
from repro.tuning.self_sim import simulate_policy_pairs
from repro.tuning.tracker import TrackedQuery

#: The undecayed-morsel fractions used to seed d_start (§4, "Optimizer").
DSTART_FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
#: Local-search directions for lambda.
SEARCH_DIRECTIONS = (0.05, -0.05)
#: Fixed number of local-search steps (deterministic optimization cost).
SEARCH_STEPS = 7
#: Simulated seconds charged per replay / self-simulation step; converts
#: the controller's wall-clock tuning budget into a step budget.  Matches
#: the §4 calibration in :mod:`repro.tuning.controller`.
SIM_STEP_COST = 2.0e-7


def directional_line_search(
    evaluate: Callable[[float], float],
    start: float,
    lo: float,
    hi: float,
    directions: Sequence[float] = SEARCH_DIRECTIONS,
    steps: int = SEARCH_STEPS,
) -> Tuple[float, float]:
    """The §4 one-dimensional directional search, parameter-agnostic.

    Starts at ``start`` clamped to [lo, hi], probes ``directions`` scaled
    by the step width, moves to the best improving candidate (growing the
    width 1.5x) or halves the width, for exactly ``steps`` iterations.
    The float operations are exactly those of the original (lambda,
    d_start) tuner — :func:`optimize` goes through here and stays
    bit-identical.  Returns ``(best_value, best_cost)``.
    """
    current = min(hi, max(lo, start))
    current_cost = evaluate(current)
    step_width = 1.0
    for _ in range(steps):
        candidates = []
        for direction in directions:
            value = current + step_width * direction
            if lo <= value <= hi:
                candidates.append((evaluate(value), value))
        improving = [c for c in candidates if c[0] < current_cost]
        if improving:
            current_cost, current = min(improving)
            step_width *= 1.5
        else:
            step_width *= 0.5
    return current, current_cost


@dataclass
class OptimizationResult:
    """Outcome of one tuning run."""

    params: DecayParameters
    cost: float
    baseline_cost: float
    evaluations: int
    simulated_steps: int
    tracked_queries: int


def undecayed_fraction(quanta: Sequence[int], d_start: int) -> float:
    """Fraction of tracked quanta that execute before decay begins."""
    total = sum(quanta)
    if total == 0:
        return 1.0
    undecayed = sum(min(n, d_start) for n in quanta)
    return undecayed / total


def choose_dstart_candidates(
    tracked: Sequence[TrackedQuery],
    quantum: float,
    fractions: Sequence[float] = DSTART_FRACTIONS,
) -> List[int]:
    """Minimal d_start values reaching each target undecayed fraction.

    The fraction is monotone in ``d_start``, so each candidate is found
    by binary search over [0, longest query's quantum count].
    """
    quanta = [max(1, int(round(q.work / quantum))) for q in tracked]
    if not quanta:
        return [0]
    upper = max(quanta)
    candidates: List[int] = []
    for fraction in fractions:
        lo, hi = 0, upper
        while lo < hi:
            mid = (lo + hi) // 2
            if undecayed_fraction(quanta, mid) >= fraction:
                hi = mid
            else:
                lo = mid + 1
        candidates.append(lo)
    # Deduplicate while preserving order.
    seen = set()
    unique: List[int] = []
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def _refine_lambda(
    tracked: Sequence[TrackedQuery],
    base_params: DecayParameters,
    d_start: int,
    lambda0: float,
    quantum: float,
    cost_fn: CostFunction = mean_slowdown_cost,
) -> Tuple[float, float, int, int]:
    """Local line search on lambda for a fixed d_start.

    Returns ``(best_lambda, best_cost, evaluations, simulated_steps)``.
    """
    evaluations = 0
    simulated_steps = 0

    def evaluate(lam: float) -> float:
        nonlocal evaluations, simulated_steps
        pairs, steps = simulate_policy_pairs(
            tracked, base_params.with_values(lam, d_start), quantum
        )
        evaluations += 1
        simulated_steps += steps
        return cost_fn(pairs)

    current_lambda, current_cost = directional_line_search(
        evaluate, lambda0, 0.0, 1.0
    )
    return current_lambda, current_cost, evaluations, simulated_steps


def optimize(
    tracked: Sequence[TrackedQuery],
    current: DecayParameters,
    quantum: float,
    cost_fn: Optional[CostFunction] = None,
) -> OptimizationResult:
    """Solve Equation 3 on the tracked workload; return the best params.

    ``cost_fn`` defaults to the paper's mean relative slowdown; pass one
    of :data:`repro.tuning.cost.COST_FUNCTIONS` for tail-focused or
    fairness-focused tuning ("other cost functions could be considered
    as well", §3.2).
    """
    cost_fn = cost_fn or mean_slowdown_cost
    if not tracked:
        return OptimizationResult(
            params=current,
            cost=0.0,
            baseline_cost=0.0,
            evaluations=0,
            simulated_steps=0,
            tracked_queries=0,
        )
    evaluations = 0
    simulated_steps = 0
    baseline_pairs, steps = simulate_policy_pairs(tracked, current, quantum)
    baseline_cost = cost_fn(baseline_pairs)
    evaluations += 1
    simulated_steps += steps

    best_cost = baseline_cost
    best_params = current
    for d_start in choose_dstart_candidates(tracked, quantum):
        lam, cost, n_eval, n_steps = _refine_lambda(
            tracked, current, d_start, current.decay, quantum, cost_fn
        )
        evaluations += n_eval
        simulated_steps += n_steps
        if cost < best_cost:
            best_cost = cost
            best_params = current.with_values(lam, d_start)
    return OptimizationResult(
        params=best_params,
        cost=best_cost,
        baseline_cost=baseline_cost,
        evaluations=evaluations,
        simulated_steps=simulated_steps,
        tracked_queries=len(tracked),
    )


#: Multivariate search directions: joint (lambda, d_start) moves.  The
#: paper tried this variant and found the heuristic d_start seeding more
#: stable; we ship it as the documented extension so the comparison can
#: be reproduced (see tests/tuning/test_optimizer.py).
MULTIVARIATE_DIRECTIONS = (
    (0.05, 0),
    (-0.05, 0),
    (0.0, 1),
    (0.0, -1),
    (0.05, 1),
    (-0.05, -1),
)


def optimize_multivariate(
    tracked: Sequence[TrackedQuery],
    current: DecayParameters,
    quantum: float,
    cost_fn: Optional[CostFunction] = None,
    search_steps: int = 2 * SEARCH_STEPS,
) -> OptimizationResult:
    """Joint directional search over (lambda, d_start).

    §4: "We also tried a multivariate directional search procedure, but
    found that choosing d_start heuristically provides more stable
    parameter choices."  This implementation lets users reproduce that
    comparison: a pattern search starting from the current parameters,
    moving in combined (lambda, d_start) directions with the same
    halve-on-fail / grow-on-success step-width schedule.
    """
    cost_fn = cost_fn or mean_slowdown_cost
    if not tracked:
        return OptimizationResult(
            params=current,
            cost=0.0,
            baseline_cost=0.0,
            evaluations=0,
            simulated_steps=0,
            tracked_queries=0,
        )
    evaluations = 0
    simulated_steps = 0

    def evaluate(lam: float, d_start: int) -> float:
        nonlocal evaluations, simulated_steps
        pairs, steps = simulate_policy_pairs(
            tracked, current.with_values(lam, d_start), quantum
        )
        evaluations += 1
        simulated_steps += steps
        return cost_fn(pairs)

    best_lambda = min(1.0, max(0.0, current.decay))
    best_dstart = max(0, current.d_start)
    best_cost = evaluate(best_lambda, best_dstart)
    baseline_cost = best_cost
    step_width = 1.0
    max_dstart = max(
        1, max(int(round(q.work / quantum)) for q in tracked)
    )
    for _ in range(search_steps):
        candidates = []
        for d_lambda, d_dstart in MULTIVARIATE_DIRECTIONS:
            lam = best_lambda + step_width * d_lambda
            dstart = best_dstart + int(round(step_width * d_dstart))
            if 0.0 <= lam <= 1.0 and 0 <= dstart <= max_dstart:
                candidates.append((evaluate(lam, dstart), lam, dstart))
        improving = [c for c in candidates if c[0] < best_cost]
        if improving:
            best_cost, best_lambda, best_dstart = min(improving)
            step_width *= 1.5
        else:
            step_width *= 0.5
    return OptimizationResult(
        params=current.with_values(best_lambda, best_dstart),
        cost=best_cost,
        baseline_cost=baseline_cost,
        evaluations=evaluations,
        simulated_steps=simulated_steps,
        tracked_queries=len(tracked),
    )


# ----------------------------------------------------------------------
# Whole-knob-space search (cost-bounded, WAter recipe)
# ----------------------------------------------------------------------

#: Pattern-search rounds of the knob-space search (each round probes
#: every knob's neighbours at the current step width).
KNOB_SEARCH_ROUNDS = 4
#: Top candidates verified on the full workload after the compressed
#: search.
KNOB_SEARCH_TOP_K = 3
#: Default compressed-workload size for candidate evaluation.
KNOB_SEARCH_COMPRESS_TO = 12
#: Full-replay probes reserved (beyond top-k verification) for the
#: final polish around the verified winner.
KNOB_SEARCH_POLISH_SLOTS = 4


@dataclass
class KnobSearchResult:
    """Outcome of one whole-knob-space tuning run."""

    #: The winning knob vector (the start vector if nothing improved).
    values: Dict[str, object]
    #: Full-workload replay cost of :attr:`values`.
    cost: float
    #: Full-workload replay cost of the start vector.
    baseline_cost: float
    #: Total replay evaluations (compressed + full).
    evaluations: int
    #: Full-workload verification replays performed.
    verified: int
    #: Simulated replay steps spent (the budget currency).
    simulated_steps: int
    #: The step budget, or ``None`` for unbounded search.
    budget_steps: Optional[int]
    #: Distinct knobs for which at least one candidate was evaluated.
    knobs_evaluated: int
    #: Compression fidelity of the evaluation workload (1.0 = full).
    fidelity: float
    compressed_queries: int
    tracked_queries: int

    @property
    def within_budget(self) -> bool:
        """Whether the spend respected the step budget."""
        return self.budget_steps is None or (
            self.simulated_steps <= self.budget_steps
        )

    @property
    def improvement(self) -> float:
        """Relative cost reduction over the start vector (0 = none)."""
        if self.baseline_cost <= 0.0:
            return 0.0
        return 1.0 - self.cost / self.baseline_cost


def _projected_replay_steps(
    total_work: float,
    n_queries: int,
    values: Mapping[str, object],
    min_quantum: Optional[float],
) -> int:
    """Upper bound on :func:`repro.tuning.replay.replay_workload` steps.

    Each step executes one quantum of work; transient retries re-run each
    affected query at most once, so executed work is at most twice the
    tracked work; final slivers add at most one step per query per run.
    Used to check affordability *before* spending, so a budgeted search
    never overshoots.
    """
    default = KNOBS["core.t_max"].default
    quantum = max(float(values.get("core.t_max", default)), min_quantum or 0.0)
    if quantum <= 0.0:
        quantum = default
    return int(2.0 * total_work / quantum) + 2 * n_queries


def search_knob_space(
    space: KnobSpace,
    tracked: Sequence[TrackedQuery],
    start: Optional[Mapping[str, object]] = None,
    cost_fn: Optional[CostFunction] = None,
    budget_seconds: Optional[float] = None,
    min_quantum: Optional[float] = None,
    compress_to: Optional[int] = KNOB_SEARCH_COMPRESS_TO,
    history: Optional[TuningHistory] = None,
    top_k: int = KNOB_SEARCH_TOP_K,
    rounds: int = KNOB_SEARCH_ROUNDS,
) -> KnobSearchResult:
    """Cost-bounded pattern search over ``space`` (the WAter recipe).

    The pipeline per tuning cycle:

    1. the tracked workload is greedily compressed to ``compress_to``
       representative queries (:mod:`repro.tuning.compress`); pass
       ``compress_to=None`` for full-replay evaluation (the reference
       mode the 5%-quality benchmark compares against);
    2. candidate vectors — single-knob neighbours of the incumbent at
       the current step width, plus the best vectors of similar past
       workloads from ``history`` — are ranked by the k-NN surrogate
       before any replay is spent on them;
    3. candidates are evaluated on the compressed workload, cheapest
       predicted first, while the step budget allows (affordability is
       checked against a conservative upper bound, so the budget is
       never overshot); the incumbent moves to the best improving
       candidate with the §4 step-width schedule (1.5x grow / 0.5x
       halve);
    4. the ``top_k`` candidates by compressed cost — plus any evaluated
       history bootstraps, which carry a known full-workload record —
       are verified on the *full* workload; only a verified improvement
       over the full-replay baseline is returned, and verified costs are
       recorded into ``history`` for future cycles.

    ``budget_seconds`` converts to a step budget at :data:`SIM_STEP_COST`
    seconds per replay step — deterministic spend accounting, no wall
    clock.  The mandatory baseline evaluation is charged even when it
    alone exceeds a very small budget; everything else is optional and
    skipped when unaffordable.
    """
    cost_fn = cost_fn or mean_slowdown_cost
    vector = dict(space.current_values())
    if start is not None:
        for name, value in start.items():
            vector[name] = space[name].domain.clamp(value)
    if not tracked:
        return KnobSearchResult(
            values=vector, cost=0.0, baseline_cost=0.0, evaluations=0, verified=0,
            simulated_steps=0, budget_steps=None, knobs_evaluated=0, fidelity=1.0,
            compressed_queries=0, tracked_queries=0,
        )

    signature = workload_signature(tracked)
    budget_steps = (
        None
        if budget_seconds is None
        else max(1, int(budget_seconds / SIM_STEP_COST))
    )
    full_work = sum(q.work for q in tracked)

    steps_used = 0
    evaluations = 0
    verified = 0

    # One replay memo per workload, for this search only; an answered
    # replay is charged the stored run's steps, as if replayed.
    full_memo: Dict[tuple, list] = {}
    # Mandatory full-replay baseline: the bar any candidate must beat.
    baseline_cost, steps = replay_cost(tracked, vector, min_quantum, cost_fn, memo=full_memo)
    steps_used += steps
    evaluations += 1

    # Compress the evaluation workload (WAter step 1).
    if compress_to is not None and len(tracked) > compress_to:
        compressed = compress_workload(tracked, compress_to)
        eval_queries = compressed.representatives
        fidelity = compressed.fidelity
        compression_active = True
    else:
        eval_queries = list(tracked)
        fidelity = 1.0
        compression_active = False
    eval_memo = {} if compression_active else full_memo
    eval_work = sum(q.work for q in eval_queries)

    # Reserve budget for the full-workload replays that follow the
    # compressed search — top-k verification plus the polish probes — so
    # cheap compressed evaluations cannot starve the expensive ones.
    reserve = (
        (top_k + KNOB_SEARCH_POLISH_SLOTS)
        * _projected_replay_steps(full_work, len(tracked), vector, min_quantum)
        if (budget_steps is not None and compression_active)
        else 0
    )

    def afford(projected: int, reserved: int) -> bool:
        if budget_steps is None:
            return True
        return steps_used + projected <= budget_steps - reserved

    #: Evaluated candidates as (cost, order, canonical key, vector).
    evaluated: List[Tuple[float, int, Tuple, Dict[str, object]]] = []
    seen_keys: Set[Tuple] = set()
    #: Canonical keys of evaluated history bootstraps — these carry a
    #: known-good full-workload record, so verification always revisits
    #: them even when they rank below the compressed top-k (a history-
    #: armed cycle must never do worse than the cycle that recorded it).
    bootstrap_keys: Set[Tuple] = set()
    knobs_moved: Set[str] = set()
    names = space.names()

    def key_of(values: Mapping[str, object]) -> Tuple:
        return tuple(values[name] for name in names)

    def evaluate_candidate(values: Dict[str, object]) -> Optional[float]:
        """Replay ``values`` on the evaluation workload if affordable."""
        nonlocal steps_used, evaluations
        key = key_of(values)
        if key in seen_keys:
            for cost, _, existing_key, _ in evaluated:
                if existing_key == key:
                    return cost
            return None
        projected = _projected_replay_steps(
            eval_work, len(eval_queries), values, min_quantum
        )
        if not afford(projected, reserve):
            return None
        cost, steps = replay_cost(eval_queries, values, min_quantum, cost_fn, memo=eval_memo)
        steps_used += steps
        evaluations += 1
        seen_keys.add(key)
        evaluated.append((cost, len(evaluated), key, dict(values)))
        return cost

    incumbent = dict(vector)
    incumbent_cost = evaluate_candidate(incumbent)
    width = 1.0
    if incumbent_cost is not None:
        for round_index in range(rounds):
            # Candidate generation: every knob's neighbours at the
            # current width (registration order), plus — in the first
            # round — the best vectors of similar past workloads.
            candidates: List[Tuple[Tuple[str, ...], Dict[str, object]]] = []
            if round_index == 0 and history is not None:
                for bootstrap in history.best_vectors(signature, space):
                    merged = dict(incumbent)
                    changed = []
                    for name in names:
                        if name in bootstrap:
                            value = space[name].domain.clamp(bootstrap[name])
                            if value != merged[name]:
                                merged[name] = value
                                changed.append(name)
                    if changed:
                        bootstrap_keys.add(key_of(merged))
                        candidates.append((tuple(changed), merged))
            for knob in space:
                for value in knob.domain.neighbors(incumbent[knob.name], width):
                    moved = dict(incumbent)
                    moved[knob.name] = value
                    candidates.append(((knob.name,), moved))
            # Surrogate ranking (WAter step 2): spend replay on the most
            # promising candidates first.  Stable sort — ties and the
            # empty-history case preserve generation order.
            if history is not None and len(history):
                candidates.sort(
                    key=lambda item: history.predict(
                        space, signature, item[1]
                    )
                )
            best_cost = incumbent_cost
            best_values: Optional[Dict[str, object]] = None
            for changed_names, values in candidates:
                cost = evaluate_candidate(values)
                if cost is None:
                    continue
                knobs_moved.update(changed_names)
                if cost < best_cost:
                    best_cost = cost
                    best_values = values
            if best_values is not None:
                incumbent = best_values
                incumbent_cost = best_cost
                width *= 1.5
            else:
                width *= 0.5

    # Verification (WAter step 4): replay the top candidates on the full
    # workload; accept only a verified improvement over the baseline.
    best_vector = dict(vector)
    best_cost = baseline_cost
    if history is not None:
        history.record(signature, vector, baseline_cost)
    start_key = key_of(vector)
    #: Full-workload costs known so far (polish reuses them for free).
    full_costs: Dict[Tuple, float] = {start_key: baseline_cost}
    ranked = sorted(evaluated, key=lambda item: (item[0], item[1]))
    checked = 0
    for cost, _, key, values in ranked:
        is_bootstrap = key in bootstrap_keys
        if checked >= top_k and not is_bootstrap:
            continue
        if key == start_key:
            continue
        if not is_bootstrap:
            checked += 1
        if compression_active:
            projected = _projected_replay_steps(
                full_work, len(tracked), values, min_quantum
            )
            if not afford(projected, 0):
                continue
            full_cost, steps = replay_cost(
                tracked, values, min_quantum, cost_fn, memo=full_memo
            )
            steps_used += steps
            evaluations += 1
            verified += 1
        else:
            full_cost = cost
        full_costs[key] = full_cost
        if history is not None:
            history.record(signature, values, full_cost)
        if full_cost < best_cost:
            best_cost = full_cost
            best_vector = dict(values)

    # Polish (budgeted runs only): the compressed landscape's optimum
    # can sit a knob-step off the full landscape's, so leftover budget —
    # use it or lose it — buys full-replay probes of the verified
    # winner's single-knob neighbours, §4 width schedule.
    if compression_active and budget_steps is not None:
        polish_width = 1.0
        stalled = 0
        while stalled < 2:
            move: Optional[Tuple[float, Dict[str, object]]] = None
            affordable = False
            for knob in space:
                for value in knob.domain.neighbors(
                    best_vector[knob.name], polish_width
                ):
                    candidate = dict(best_vector)
                    candidate[knob.name] = value
                    key = key_of(candidate)
                    if key in full_costs:
                        full_cost = full_costs[key]
                    else:
                        projected = _projected_replay_steps(
                            full_work, len(tracked), candidate, min_quantum
                        )
                        if not afford(projected, 0):
                            continue
                        affordable = True
                        full_cost, steps = replay_cost(
                            tracked, candidate, min_quantum, cost_fn, memo=full_memo
                        )
                        steps_used += steps
                        evaluations += 1
                        verified += 1
                        full_costs[key] = full_cost
                        knobs_moved.add(knob.name)
                        if history is not None:
                            history.record(signature, candidate, full_cost)
                    if full_cost < best_cost and (
                        move is None or full_cost < move[0]
                    ):
                        move = (full_cost, candidate)
            if move is not None:
                best_cost, best_vector = move[0], dict(move[1])
                polish_width *= 1.5
                stalled = 0
            elif affordable:
                polish_width *= 0.5
                stalled += 1
            else:
                break  # the leftover budget is exhausted

    return KnobSearchResult(
        values=best_vector,
        cost=best_cost,
        baseline_cost=baseline_cost,
        evaluations=evaluations,
        verified=verified,
        simulated_steps=steps_used,
        budget_steps=budget_steps,
        knobs_evaluated=len(knobs_moved),
        fidelity=fidelity,
        compressed_queries=len(eval_queries),
        tracked_queries=len(tracked),
    )

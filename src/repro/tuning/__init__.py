"""Self-tuning of scheduler and system knobs (Section 4, generalized).

The scheduler periodically tracks the workload seen by a single worker
thread (:mod:`~repro.tuning.tracker`), then *simulates its own execution*
of that workload under candidate knob settings and minimises the mean
relative slowdown.  Two search modes share that replay machinery:

* the paper's directional derivative-free search over ``(lambda,
  d_start)`` (:mod:`~repro.tuning.self_sim` +
  :func:`~repro.tuning.optimizer.optimize`), kept bit-identical; and
* a cost-bounded pattern search over an arbitrary declarative
  :class:`~repro.tuning.knobs.KnobSpace`
  (:func:`~repro.tuning.optimizer.search_knob_space`), which compresses
  the tracked workload (:mod:`~repro.tuning.compress`), ranks candidates
  with a surrogate built from in-memory tuning history
  (:mod:`~repro.tuning.history`), and verifies only the top candidates
  on the full workload.

The first runs inside the stride scheduler: track for ``t_t`` every
``t_r`` seconds, optimize, broadcast, orchestrated by
:mod:`~repro.tuning.controller`.  The second runs one layer up, in
:meth:`repro.server.AnalyticsServer.tune`.
"""

from repro.tuning.compress import (
    FIDELITY_ERROR_FACTOR,
    CompressedWorkload,
    compress_workload,
)
from repro.tuning.controller import TuningController, TuningCycleStats
from repro.tuning.cost import COST_FUNCTIONS, get_cost_function
from repro.tuning.history import HistoryEntry, TuningHistory, workload_signature
from repro.tuning.knobs import (
    KNOBS,
    ContinuousDomain,
    Domain,
    IntegerDomain,
    Knob,
    KnobSpace,
    default_knob_space,
)
from repro.tuning.optimizer import (
    SIM_STEP_COST,
    KnobSearchResult,
    OptimizationResult,
    choose_dstart_candidates,
    directional_line_search,
    optimize,
    optimize_multivariate,
    search_knob_space,
)
from repro.tuning.replay import ReplayResult, replay_cost, replay_workload
from repro.tuning.self_sim import simulate_policy, simulate_policy_pairs
from repro.tuning.tracker import TrackedQuery, WorkloadTracker

__all__ = [
    "COST_FUNCTIONS",
    "CompressedWorkload",
    "ContinuousDomain",
    "Domain",
    "FIDELITY_ERROR_FACTOR",
    "HistoryEntry",
    "IntegerDomain",
    "KNOBS",
    "Knob",
    "KnobSearchResult",
    "KnobSpace",
    "OptimizationResult",
    "ReplayResult",
    "SIM_STEP_COST",
    "TrackedQuery",
    "TuningController",
    "TuningCycleStats",
    "TuningHistory",
    "WorkloadTracker",
    "choose_dstart_candidates",
    "compress_workload",
    "default_knob_space",
    "directional_line_search",
    "get_cost_function",
    "optimize",
    "optimize_multivariate",
    "replay_cost",
    "replay_workload",
    "search_knob_space",
    "simulate_policy",
    "simulate_policy_pairs",
    "workload_signature",
]

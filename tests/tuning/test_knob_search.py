"""Tests for the cost-bounded whole-knob-space search and its wiring.

Covers the WAter pipeline end to end — budget accounting, compression
quality, history bootstrapping — plus the online integration: the
server's bound knob space (apply == broadcast through the backend).
Determinism is checked the strict way: identical output across
``PYTHONHASHSEED`` subprocesses.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.server import AnalyticsServer
from repro.tuning import (
    SIM_STEP_COST,
    KnobSearchResult,
    TrackedQuery,
    TuningHistory,
    default_knob_space,
    replay_cost,
    search_knob_space,
    workload_signature,
)


def tq(group_id, arrival, work):
    return TrackedQuery(
        group_id=group_id,
        name=f"q{group_id}",
        scale_factor=1.0,
        arrival_offset=arrival,
        work=work,
    )


def bursty_workload(seed=11, n=36):
    """Bursty arrivals + heavy tail: every knob has something to do."""
    rng = random.Random(seed)
    tracked = []
    for i in range(n):
        burst = (i // 6) * 0.4
        arrival = burst + rng.uniform(0.0, 0.05)
        work = rng.uniform(0.004, 0.03)
        if i % 7 == 0:
            work *= 12.0  # long-tail queries the decay knobs act on
        tracked.append(tq(i, arrival, work))
    return tracked


#: The budget of the coverage and quality gates: 60 % of the 99 671
#: steps the full-replay search spent on ``bursty_workload()`` when the
#: gates were set.  A fixed number, so the budget the compressed search
#: is judged at does not move with the reference search's own spend.
GATE_BUDGET_SECONDS = 0.6 * 99_671 * SIM_STEP_COST


class TestSearchKnobSpace:
    def test_empty_workload_is_a_noop(self):
        space = default_knob_space()
        result = search_knob_space(space, [])
        assert result.evaluations == 0
        assert result.cost == 0.0
        assert result.values == space.current_values()

    def test_unbudgeted_search_never_regresses(self):
        space = default_knob_space()
        tracked = bursty_workload()
        result = search_knob_space(space, tracked, budget_seconds=None)
        assert isinstance(result, KnobSearchResult)
        assert result.cost <= result.baseline_cost
        assert result.within_budget  # vacuous without a budget
        # The returned cost is the true full-workload cost of the vector.
        check, _ = replay_cost(tracked, result.values)
        assert check == pytest.approx(result.cost)

    def test_budget_respected_and_wide_coverage(self):
        space = default_knob_space()
        tracked = bursty_workload()
        result = search_knob_space(
            space, tracked, budget_seconds=GATE_BUDGET_SECONDS
        )
        assert result.budget_steps is not None
        assert result.simulated_steps <= result.budget_steps
        assert result.within_budget
        # The acceptance bar: at least 5 distinct knobs actually probed.
        assert result.knobs_evaluated >= 5
        assert result.fidelity < 1.0  # compression really happened
        assert result.compressed_queries < result.tracked_queries

    def test_budgeted_quality_within_5_percent_of_full_replay(self):
        space = default_knob_space()
        tracked = bursty_workload()
        reference = search_knob_space(
            space, tracked, budget_seconds=None, compress_to=None
        )
        budgeted = search_knob_space(
            space, tracked, budget_seconds=GATE_BUDGET_SECONDS
        )
        assert budgeted.simulated_steps < reference.simulated_steps
        assert budgeted.cost <= reference.cost * 1.05

    def test_tiny_budget_still_reports_honestly(self):
        space = default_knob_space()
        tracked = bursty_workload(n=16)
        result = search_knob_space(space, tracked, budget_seconds=1.0e-6)
        # Only the mandatory baseline evaluation could be afforded; the
        # start vector comes back and the overshoot is visible.
        assert result.evaluations == 1
        assert result.cost == result.baseline_cost

    def test_start_vector_is_clamped(self):
        space = default_knob_space(("core.decay", "core.d_start"))
        tracked = bursty_workload(n=10)
        result = search_knob_space(
            space,
            tracked,
            start={"core.decay": 7.0},
            budget_seconds=None,
            compress_to=None,
        )
        assert 0.0 <= result.values["core.decay"] <= 1.0

    def test_history_records_and_bootstraps(self):
        space = default_knob_space()
        tracked = bursty_workload()
        history = TuningHistory()
        first = search_knob_space(
            space, tracked, budget_seconds=None, history=history
        )
        assert len(history) >= 1 + first.verified
        # A second cycle on the same workload starts from the recorded
        # optimum (via best_vectors) and must not do worse.
        second = search_knob_space(
            space, tracked, budget_seconds=None, history=history
        )
        assert second.cost <= first.cost * (1.0 + 1e-9)

    def test_surrogate_ranking_keeps_results_deterministic(self):
        space = default_knob_space()
        tracked = bursty_workload()
        runs = []
        for _ in range(2):
            history = TuningHistory()
            signature = workload_signature(tracked)
            history.record(signature, space.current_values(), 10.0)
            runs.append(
                search_knob_space(
                    space, tracked, budget_seconds=None, history=history
                )
            )
        assert runs[0].values == runs[1].values
        assert runs[0].cost == runs[1].cost
        assert runs[0].simulated_steps == runs[1].simulated_steps


_DETERMINISM_SCRIPT = """
import random
from repro.tuning import (
    TrackedQuery, TuningHistory, default_knob_space, search_knob_space,
    workload_signature,
)

rng = random.Random(11)
tracked = []
for i in range(36):
    burst = (i // 6) * 0.4
    arrival = burst + rng.uniform(0.0, 0.05)
    work = rng.uniform(0.004, 0.03)
    if i % 7 == 0:
        work *= 12.0
    tracked.append(TrackedQuery(
        group_id=i, name=f"q{i}", scale_factor=1.0,
        arrival_offset=arrival, work=work,
    ))

space = default_knob_space()
history = TuningHistory()
history.record(workload_signature(tracked), space.current_values(), 10.0)
result = search_knob_space(
    space, tracked, budget_seconds=0.02, history=history
)
for name in space.names():
    print(name, repr(result.values[name]))
print(repr(result.cost), repr(result.baseline_cost))
print(result.evaluations, result.verified, result.simulated_steps,
      result.budget_steps, result.knobs_evaluated)
print(repr(result.fidelity), result.compressed_queries)
for entry in history.entries:
    print(repr(entry.cost), sorted(entry.values.items()))
"""


class TestHashSeedDeterminism:
    def test_compressed_tuning_identical_across_hash_seeds(self):
        # Compression, surrogate ranking and the pattern search must not
        # depend on dict/set iteration order anywhere.
        outputs = []
        for hashseed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = "src"
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(
                    os.path.dirname(os.path.dirname(__file__))
                ),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("\n") > 10


def make_server(**kwargs):
    defaults = dict(
        scheduler="tuning",
        n_workers=2,
        seed=7,
        environment="model",
        max_pending=64,
    )
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


class TestServerTuning:
    def test_knob_space_covers_three_layers(self):
        server = make_server()
        names = server.knob_space().names()
        assert names == (
            "core.decay",
            "core.d_start",
            "core.t_max",
            "core.slot_limit",
            "runtime.channel_capacity",
            "runtime.retry_budget",
            "runtime.retry_backoff",
            "admission.max_pending",
        )

    def test_max_pending_knob_only_when_bounded(self):
        server = make_server(max_pending=None)
        assert "admission.max_pending" not in server.knob_space().names()

    def test_tracked_workload_excludes_failures(self):
        server = make_server()
        for i in range(6):
            server.submit("Q6", at=0.01 * i)
        server.drain()
        tracked = server.tracked_workload()
        assert len(tracked) == 6
        assert all(q.work > 0.0 for q in tracked)
        arrivals = [q.arrival_offset for q in tracked]
        assert arrivals == sorted(arrivals)

    def test_tune_applies_and_broadcasts_mid_run(self):
        server = make_server()
        for i in range(18):
            server.submit("Q6" if i % 3 else "Q18", at=0.02 * i)
        server.drain()
        result = server.tune(budget_seconds=0.05)
        assert result.within_budget
        space = server.knob_space()
        live = space.current_values()
        for name in space.names():
            assert live[name] == pytest.approx(result.values[name])
        # The server keeps serving under the broadcast configuration.
        handle = server.submit("Q6")
        server.drain()
        assert server.record(handle).failed is False

    def test_tuned_retry_knobs_steer_submissions(self):
        server = make_server()
        space = server.knob_space()
        space.apply({"runtime.retry_budget": 3, "runtime.retry_backoff": 0.2})
        assert server._retry_budget == 3
        assert server._retry_backoff == 0.2

"""Tests for the self-simulation (§4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import DecayParameters
from repro.tuning import TrackedQuery, simulate_policy, simulate_policy_pairs
from repro.tuning.cost import mean_slowdown_cost
from repro.tuning.self_sim import _stride_loop

from tests.tuning.test_replay_reference import FAILING_IDS, decay_parameters, workloads


def tq(group_id, arrival, work, name="q"):
    return TrackedQuery(
        group_id=group_id,
        name=name,
        scale_factor=1.0,
        arrival_offset=arrival,
        work=work,
    )


QUANTUM = 0.002


class TestSimulatePolicy:
    def test_empty_workload(self):
        cost, steps = simulate_policy([], DecayParameters(), QUANTUM)
        assert cost == 0.0
        assert steps == 0

    def test_single_query_cost_one(self):
        """A lone query runs uninterrupted: latency == base, cost == 1."""
        cost, steps = simulate_policy([tq(0, 0.0, 0.02)], DecayParameters(), QUANTUM)
        assert cost == pytest.approx(1.0, rel=1e-6)
        assert steps == 10

    def test_two_equal_queries_fair_cost(self):
        """Two identical queries sharing one worker: the one finishing
        last has slowdown 2, the other just under 2 (alternating)."""
        queries = [tq(0, 0.0, 0.02), tq(1, 0.0, 0.02)]
        cost, _ = simulate_policy(
            queries, DecayParameters(decay=1.0, d_start=0), QUANTUM
        )
        assert cost == pytest.approx(1.95, rel=0.05)

    def test_decay_prioritizes_short_query(self):
        """Aggressive decay must reduce the mean relative slowdown when a
        short query arrives while a long, already-decayed one is running
        — the §3.2 scenario."""
        queries = [tq(0, 0.0, 0.2), tq(1, 0.05, 0.004)]
        no_decay = DecayParameters(decay=1.0, d_start=0)
        aggressive = DecayParameters(decay=0.5, d_start=0)
        cost_plain, _ = simulate_policy(queries, no_decay, QUANTUM)
        cost_decay, _ = simulate_policy(queries, aggressive, QUANTUM)
        assert cost_decay < cost_plain

    def test_idle_gaps_jump_to_next_arrival(self):
        queries = [tq(0, 0.0, 0.01), tq(1, 1.0, 0.01)]
        cost, steps = simulate_policy(queries, DecayParameters(), QUANTUM)
        # Both run alone -> both cost 1.
        assert cost == pytest.approx(1.0, rel=1e-6)
        assert steps == 10

    def test_step_count_scales_with_work(self):
        _, few = simulate_policy([tq(0, 0.0, 0.01)], DecayParameters(), QUANTUM)
        _, many = simulate_policy([tq(0, 0.0, 0.1)], DecayParameters(), QUANTUM)
        assert many == 10 * few

    def test_final_sliver_counts_fractionally(self):
        """Work that is not a quantum multiple still completes exactly."""
        cost, _ = simulate_policy([tq(0, 0.0, 0.003)], DecayParameters(), QUANTUM)
        assert cost == pytest.approx(1.0, rel=1e-6)

    def test_deterministic(self):
        queries = [tq(i, i * 0.001, 0.01 * (i + 1)) for i in range(5)]
        params = DecayParameters(decay=0.8, d_start=2)
        assert simulate_policy(queries, params, QUANTUM) == simulate_policy(
            queries, params, QUANTUM
        )


class TestStrideLoopArguments:
    def test_will_fail_is_left_untouched(self):
        """The loop reads its failure lottery and never writes it: a list
        reused across runs gives the same schedule every time."""
        queries = [tq(g, 0.001 * i, 0.005) for i, g in enumerate(FAILING_IDS[:4])]
        will_fail = [True, False, True, True]
        kwargs = dict(will_fail=will_fail, retry_budget=2, retry_backoff=0.01)
        first = _stride_loop(queries, QUANTUM, 10_000.0, 100.0, 0.8, 1, **kwargs)
        assert will_fail == [True, False, True, True]
        second = _stride_loop(queries, QUANTUM, 10_000.0, 100.0, 0.8, 1, **kwargs)
        assert will_fail == [True, False, True, True]
        assert first == second
        assert first.retried == 2 and first.failed == 1


def reference_mean(pairs):
    """The mean ``simulate_policy`` computed before it used Equation 1's
    one implementation, :func:`repro.tuning.cost.mean_slowdown_cost`."""
    if not pairs:
        return 0.0
    return sum(latency / base for latency, base in pairs if base > 0.0) / len(pairs)


class TestOneEquationOne:
    @settings(max_examples=200, deadline=None)
    @given(
        tracked=workloads(),
        params=decay_parameters,
        quantum=st.sampled_from([0.001, 0.002, 0.005]),
    )
    def test_simulate_policy_is_mean_slowdown_cost(self, tracked, params, quantum):
        pairs, steps = simulate_policy_pairs(tracked, params, quantum)
        cost = mean_slowdown_cost(pairs)
        assert cost == reference_mean(pairs)
        assert simulate_policy(tracked, params, quantum) == (cost, steps)

    def test_zero_work_entries_leave_no_pair(self):
        tracked = [tq(0, 0.0, 0.0), tq(1, 0.0, 0.004), tq(2, 0.01, 0.0)]
        pairs, _ = simulate_policy_pairs(tracked, DecayParameters(), QUANTUM)
        assert len(pairs) == 1
        assert simulate_policy(tracked, DecayParameters(), QUANTUM)[0] == reference_mean(pairs)

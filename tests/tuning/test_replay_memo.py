"""A replay answered from the search's memo equals the replay it skips.

``search_knob_space`` keeps one memo per workload it replays;
``replay_workload`` reuses a stored run for a vector whose slot limit,
admission bound, retry budget and backoff the run shows could not have
changed its schedule, and adds the channel term per call.  Hypothesis
warms a memo with an incumbent vector and its single-knob neighbours in
random order, then replays one more neighbour through it: the result
must equal the memo-free replay with ``==``.  The neighbours cover slot
limits that bind and that do not, admission bounds that shed, retry
budgets below, at and above the failure count, backoffs with and
without retries, channel capacities, and workloads with zero-work
entries.  A counted test checks that the memo does answer the
neighbours it should.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuning import replay_workload
from repro.tuning.replay import _fails_transiently

from tests.tuning.test_replay_reference import (
    COLLIDING_BACKOFF,
    FAILING_IDS,
    PASSING_IDS,
    tq,
    workloads,
)

#: Values each knob's neighbours take (the retry budget's depend on the
#: workload's failure count, see :func:`neighbours`).
ALTERNATIVES = {
    "core.decay": [0.0, 0.5, 0.9, 1.0],
    "core.d_start": [0, 2, 7],
    "core.t_max": [0.001, 0.002, 0.004],
    "core.slot_limit": [1, 2, 3, 5, 128],
    "admission.max_pending": [1, 2, 3, 5, 4096],
    "runtime.channel_capacity": [1, 4, 16],
    "runtime.retry_backoff": [0.0, 0.01, COLLIDING_BACKOFF],
    "runtime.retry_budget": [0, 1, 2, 1000],
}


def failure_count(tracked):
    """Queries that fail once if they run: the most failure events."""
    return sum(q.work > 0.0 and _fails_transiently(q.group_id) for q in tracked)


def neighbours(tracked, incumbent):
    """Every single-knob move of ``incumbent`` to another listed value."""
    failures = failure_count(tracked)
    moves = []
    for name, values in ALTERNATIVES.items():
        if name == "runtime.retry_budget":
            values = sorted(set(values) | {max(0, failures + d) for d in (-1, 0, 1)})
        for value in values:
            if value != incumbent[name]:
                moved = dict(incumbent)
                moved[name] = value
                moves.append(moved)
    return moves


incumbents = st.fixed_dictionaries(
    {name: st.sampled_from(values) for name, values in ALTERNATIVES.items()}
)


@settings(max_examples=300, deadline=None)
@given(
    tracked=workloads(max_size=16),
    incumbent=incumbents,
    min_quantum=st.sampled_from([None, 0.003]),
    data=st.data(),
)
def test_memo_answers_equal_memo_free_replays(tracked, incumbent, min_quantum, data):
    moves = neighbours(tracked, incumbent)
    target = data.draw(st.sampled_from(moves))
    warm = data.draw(st.permutations([m for m in moves if m is not target]))
    memo = {}
    for values in [incumbent] + warm:
        assert replay_workload(tracked, values, min_quantum, memo) == replay_workload(
            tracked, values, min_quantum
        )
    assert replay_workload(tracked, target, min_quantum, memo) == replay_workload(
        tracked, target, min_quantum
    )


def test_memo_answers_limits_the_run_never_reached():
    # Four queries, one failing: 4 active at most, 3 pending at the last
    # admission, 1 failure event, retried.
    tracked = [tq(g, 0.001 * i, 0.01) for i, g in enumerate(PASSING_IDS[:3])]
    tracked.append(tq(FAILING_IDS[0], 0.002, 0.02))
    incumbent = {
        "core.decay": 0.9, "core.d_start": 2, "core.slot_limit": 128,
        "admission.max_pending": 4096, "runtime.retry_budget": 4,
        "runtime.retry_backoff": 0.01, "runtime.channel_capacity": 8,
    }
    memo = {}

    def replay(move):
        values = {**incumbent, **move}
        result = replay_workload(tracked, values, None, memo)
        assert result == replay_workload(tracked, values)
        return sum(len(runs) for runs in memo.values())

    for move in (
        {},
        {"runtime.channel_capacity": 1},
        {"core.slot_limit": 4},
        {"admission.max_pending": 4},
        {"runtime.retry_budget": 1},
        {"runtime.retry_budget": 1, "runtime.retry_backoff": 0.01},
    ):
        assert replay(move) == 1, move
    for stored, move in enumerate(
        (
            {"core.slot_limit": 3},  # the fourth query queues
            {"admission.max_pending": 3},  # the fourth arrival is shed
            {"runtime.retry_budget": 0},  # the failure is not retried
            {"runtime.retry_backoff": 0.05},  # the retry wakes later
            {"core.decay": 0.5},  # another schedule
        ),
        start=2,
    ):
        assert replay(move) == stored, move

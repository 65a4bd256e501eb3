"""The one heap-ordered stride loop equals the two scanning loops it
replaced, and compression equals the full rescan.

``repro.tuning.self_sim._stride_loop`` serves both the §4 decay-only
self-simulation and the knob tuner's replay; ``compress_workload``
recomputes only the merge penalties beside each merge.
``tests/tuning/reference_replay.py`` holds the formulations they
replaced.  Hypothesis drives both sides over workloads built to hit
every tie and every mechanism — simultaneous arrivals (pass ties broken
by activation order), zero-work entries, slot limits from 1 up,
shedding, retries with colliding backoff deadlines, coarsened quanta,
λ ∈ {0, 1}, priorities on the ``p_min`` floor, equal compression
penalties — and every result must agree with ``==`` and ``repr`` (so
``-0.0`` against ``0.0`` would fail too).  The searches that call these
functions are then run end to end on both sides.  Two complexity pins
close the file: a replay step costs about the same number of executed
lines with 8 or 256 queries active, and compression merges linearly.
"""

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.tuning.compress as compress_module
import repro.tuning.optimizer as optimizer
from repro.core.decay import DecayParameters
from repro.tuning import (
    TrackedQuery,
    TuningHistory,
    compress_workload,
    default_knob_space,
    optimize,
    replay_workload,
    search_knob_space,
    simulate_policy_pairs,
)
from repro.tuning.replay import _fails_transiently

from tests.tuning import reference_replay as reference

#: Group ids on either side of the replay's transient-failure lottery.
FAILING_IDS = [g for g in range(2000) if _fails_transiently(g)]
PASSING_IDS = [g for g in range(2000) if not _fails_transiently(g)]
#: A backoff so large that every retry deadline rounds to the same float.
COLLIDING_BACKOFF = 2.0 ** 60


def tq(group_id, arrival, work):
    return TrackedQuery(
        group_id=group_id,
        name=f"q{group_id}",
        scale_factor=1.0,
        arrival_offset=arrival,
        work=work,
    )


def assert_identical(new, old):
    assert new == old
    assert repr(new) == repr(old)


@st.composite
def workloads(draw, min_size=0, max_size=24, zero_work=True):
    """Tracked workloads with many simultaneous arrivals and equal sizes."""
    n = draw(st.integers(min_size, max_size))
    group_ids = draw(
        st.lists(
            st.sampled_from(FAILING_IDS) | st.sampled_from(PASSING_IDS),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    if draw(st.booleans()):
        # Equal work on an exact-binary grid: equal passes, equal
        # merge penalties.
        work = draw(st.sampled_from([0.001, 0.005, 0.0125]))
        step = draw(st.sampled_from([0.0, 0.25]))
        return [tq(g, (i // 3) * step, work) for i, g in enumerate(group_ids)]
    arrival = st.sampled_from([0.0, 0.004, 0.01, 0.05]) | st.floats(0.0, 0.3)
    smallest = 0.0 if zero_work else 1e-4
    work = st.sampled_from([smallest, 0.002, 0.005, 0.02]) | st.floats(
        smallest, 0.06
    )
    return [tq(g, draw(arrival), draw(work)) for g in group_ids]


knob_vectors = st.fixed_dictionaries(
    {
        "core.decay": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        "core.d_start": st.integers(0, 8),
    },
    optional={
        "core.t_max": st.sampled_from([0.001, 0.002, 0.004, 0.01]),
        "core.slot_limit": st.sampled_from([1, 2, 3, 5, 128, 10**9]),
        "runtime.channel_capacity": st.integers(1, 16),
        "runtime.retry_budget": st.sampled_from([0, 1, 2, 1000]),
        "runtime.retry_backoff": st.sampled_from(
            [0.0, 0.01, 0.05, COLLIDING_BACKOFF]
        ),
        "admission.max_pending": st.sampled_from([1, 2, 3, 5, 4096]),
        "unmodelled.knob": st.just(3),
    },
)

decay_parameters = st.builds(
    lambda decay, d_start, floor: DecayParameters(
        decay=decay, d_start=d_start, p0=floor[0], p_min=floor[1]
    ),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.integers(0, 8),
    # (p0, p_min): the paper's, one already on its floor, one a step
    # above it.
    st.sampled_from([(10_000.0, 100.0), (100.0, 100.0), (1_000.0, 999.0)]),
)


class TestReplayEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        tracked=workloads(),
        values=knob_vectors,
        min_quantum=st.sampled_from([None, 0.0, 0.003, 0.01]),
    )
    @example(  # eight simultaneous equal queries in one slot, all retried
        tracked=[tq(g, 0.0, 0.004) for g in FAILING_IDS[:8]],
        values={
            "core.decay": 1.0,
            "core.d_start": 0,
            "core.slot_limit": 1,
            "runtime.retry_backoff": COLLIDING_BACKOFF,
        },
        min_quantum=None,
    )
    def test_replay_workload(self, tracked, values, min_quantum):
        assert_identical(
            replay_workload(tracked, values, min_quantum),
            reference.replay_workload(tracked, values, min_quantum),
        )

    @settings(max_examples=300, deadline=None)
    @given(
        tracked=workloads(),
        params=decay_parameters,
        quantum=st.sampled_from([0.001, 0.002, 0.005]),
    )
    @example(  # the reference's IndexError: a zero-work entry ends it
        tracked=[tq(1, 0.0, 0.004), tq(2, 0.5, 0.0)],
        params=DecayParameters(),
        quantum=0.002,
    )
    def test_simulate_policy_pairs(self, tracked, params, quantum):
        try:
            old = reference.simulate_policy_pairs(tracked, params, quantum)
        except IndexError:
            # The one deliberate difference (reference_replay.py): zero-
            # work entries change nothing but the finished count, so the
            # reference without them is what the loop must return.
            old = reference.simulate_policy_pairs(
                [q for q in tracked if q.work > 0.0], params, quantum
            )
        assert_identical(simulate_policy_pairs(tracked, params, quantum), old)

    @settings(max_examples=300, deadline=None)
    @given(tracked=workloads(min_size=1, zero_work=False), data=st.data())
    def test_compress_workload(self, tracked, data):
        n = len(tracked)
        max_queries = data.draw(
            st.sampled_from([1, n]) | st.integers(1, n + 1)
        )
        assert_identical(
            compress_workload(tracked, max_queries),
            reference.compress_workload(tracked, max_queries),
        )


def bursty_cycles(n_cycles=3, per_cycle=30):
    """Growing tracked workloads, like a server tuning after each epoch."""
    tracked = []
    for cycle in range(n_cycles):
        for i in range(per_cycle):
            g = cycle * per_cycle + i
            burst = (i // 6) * 0.3 + cycle * 2.0
            work = 0.004 + 0.003 * (g % 5) + (0.15 if g % 7 == 0 else 0.0)
            tracked.append(tq(g, burst + 0.001 * (g % 4), work))
        yield list(tracked)


class Transcript:
    """Every call into the patched functions, with its result.

    A call is recorded without its ``memo`` keyword: the shipped replay
    fills the search's memo, the reference ignores it, and both must see
    the same workloads and vectors and return the same results.
    """

    def __init__(self, monkeypatch, impls):
        self.calls = []
        for name, fn in impls.items():
            monkeypatch.setattr(optimizer, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorded = {k: v for k, v in kwargs.items() if k != "memo"}
            self.calls.append((name, args, recorded, result))
            return result

        return wrapper


SHIPPED = {
    "replay_cost": optimizer.replay_cost,
    "compress_workload": optimizer.compress_workload,
    "simulate_policy_pairs": optimizer.simulate_policy_pairs,
}
REFERENCE = {
    "replay_cost": reference.replay_cost,
    "compress_workload": reference.compress_workload,
    "simulate_policy_pairs": reference.simulate_policy_pairs,
}


def run_searches(monkeypatch, impls):
    transcript = Transcript(monkeypatch, impls)
    history = TuningHistory()
    results = []
    for tracked in bursty_cycles():
        results.append(
            search_knob_space(
                default_knob_space(), tracked, budget_seconds=0.02,
                history=history,
            )
        )
        results.append(search_knob_space(default_knob_space(), tracked))
    for quantum in (0.001, 0.002):
        results.append(optimize(tracked, DecayParameters(), quantum))
    return results, transcript.calls, history.entries


class TestSearchesEqualReference:
    def test_same_results_and_transcript(self, monkeypatch):
        with monkeypatch.context() as patch:
            shipped = run_searches(patch, SHIPPED)
        with monkeypatch.context() as patch:
            old = run_searches(patch, REFERENCE)
        assert_identical(shipped[0], old[0])
        assert [call[0] for call in shipped[1]] == [call[0] for call in old[1]]
        assert shipped[1] == old[1]
        assert shipped[2] == old[2]
        assert {call[0] for call in shipped[1]} == set(SHIPPED)


# ----------------------------------------------------------------------
# Complexity pins (counted, not timed)
# ----------------------------------------------------------------------
def replay_line_events_per_step(n_active):
    """Executed-line events per replay step, ``n_active`` queries at once."""
    tracked = [tq(g, 0.0, 0.1) for g in PASSING_IDS[:n_active]]
    values = {"core.decay": 1.0, "core.slot_limit": n_active}
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = replay_workload(tracked, values)
    finally:
        sys.settrace(previous)
    return events / result.steps


def test_replay_step_cost_does_not_grow_with_active_queries():
    # Equal work at λ = 1: every query stays active until the last
    # round, so the 256-query run steps with 256 queries active.  The
    # scanning loop reads 18.6 x here (the one loop 1.2 x).
    ratio = replay_line_events_per_step(256) / replay_line_events_per_step(8)
    assert ratio <= 2.5


def test_compression_merges_linearly(monkeypatch):
    calls = 0
    merge = compress_module._merge

    def counting_merge(a, b):
        nonlocal calls
        calls += 1
        return merge(a, b)

    monkeypatch.setattr(compress_module, "_merge", counting_merge)
    tracked = [
        tq(g, 0.002 * i, 0.001 + 0.0007 * (i % 11))
        for i, g in enumerate(PASSING_IDS[:512])
    ]
    compressed = compress_workload(tracked, 8)
    assert len(compressed.representatives) == 8
    assert calls <= 3 * 512

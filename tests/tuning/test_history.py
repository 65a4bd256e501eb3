"""Tests for the in-memory tuning history and its k-NN surrogate."""

import pytest

from repro.tuning import (
    TrackedQuery,
    TuningHistory,
    default_knob_space,
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


SPACE = default_knob_space(("core.decay", "core.d_start"))


def vec(decay, d_start):
    return {"core.decay": decay, "core.d_start": d_start}


class TestWorkloadSignature:
    def test_empty(self):
        assert workload_signature([]) == (0.0, 0.0, 0.0, 0.0)

    def test_components_in_unit_range(self):
        tracked = [tq(i, 0.1 * i, 0.05) for i in range(20)]
        sig = workload_signature(tracked)
        assert len(sig) == 4
        assert all(0.0 <= x <= 1.0 for x in sig)

    def test_distinguishes_workloads(self):
        uniform = [tq(i, 0.0, 0.1) for i in range(10)]
        skewed = [tq(i, 0.0, 0.001 if i else 1.0) for i in range(10)]
        assert workload_signature(uniform) != workload_signature(skewed)

    def test_deterministic_under_order(self):
        tracked = [tq(i, 0.05 * i, 0.01 * (i + 1)) for i in range(12)]
        assert workload_signature(tracked) == workload_signature(tracked[:])


class TestSurrogate:
    def test_empty_history_predicts_none(self):
        history = TuningHistory()
        assert history.predict(SPACE, (0.0,) * 4, vec(0.9, 7)) is None

    def test_exact_revisit_dominates(self):
        history = TuningHistory()
        sig = (0.1, 0.1, 0.1, 0.1)
        history.record(sig, vec(0.9, 7), 5.0)
        history.record(sig, vec(0.1, 400), 100.0)
        estimate = history.predict(SPACE, sig, vec(0.9, 7), k=2)
        # The zero-distance neighbour carries almost all the weight.
        assert estimate == pytest.approx(5.0, rel=0.01)

    def test_signature_mismatch_discounts(self):
        near_sig = (0.1, 0.1, 0.1, 0.1)
        far_sig = (0.9, 0.9, 0.9, 0.9)
        history = TuningHistory()
        history.record(near_sig, vec(0.5, 10), 1.0)
        history.record(far_sig, vec(0.5, 10), 9.0)
        estimate = history.predict(SPACE, near_sig, vec(0.5, 10), k=2)
        assert estimate < 5.0  # the near-workload observation dominates

    def test_grown_space_skips_missing_knobs(self):
        # Old entries lack knobs the space has since grown; distance is
        # measured over the shared knobs only, never raising.
        history = TuningHistory()
        sig = (0.1, 0.1, 0.1, 0.1)
        history.record(sig, {"core.decay": 0.9}, 2.0)
        space = default_knob_space(("core.decay", "core.t_max"))
        estimate = history.predict(
            space, sig, {"core.decay": 0.9, "core.t_max": 0.002}
        )
        assert estimate == pytest.approx(2.0, rel=0.01)


class TestBestVectors:
    def test_bootstrap_order_and_dedup(self):
        sig = (0.1, 0.1, 0.1, 0.1)
        history = TuningHistory()
        history.record(sig, vec(0.9, 7), 3.0)
        history.record(sig, vec(0.8, 5), 1.0)
        history.record(sig, vec(0.8, 5), 2.0)  # duplicate vector
        history.record(sig, vec(0.7, 3), 2.5)
        best = history.best_vectors(sig, SPACE, limit=3)
        assert best[0] == {"core.decay": 0.8, "core.d_start": 5.0}
        assert len(best) == 3
        keys = {tuple(sorted(v.items())) for v in best}
        assert len(keys) == 3

    def test_empty(self):
        assert TuningHistory().best_vectors((0.0,) * 4, SPACE) == []

"""Workload handoff through the wire codec and the pool's pickle-5 frame.

The generic round-trip properties of every schema live in
``tests/test_wire.py``; these are the workload schema's examples.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.experiments.pool import dumps_oob, loads_oob
from repro.simcore import RngFactory
from repro.workloads import generate_workload, tpch_mix, tpch_query
from repro.workloads.serialize import workload_from_arrays, workload_to_arrays

from tests.conftest import make_query


def _ship(workload):
    """A workload after one trip through the pipe's encoding."""
    return workload_from_arrays(loads_oob(dumps_oob(workload_to_arrays(workload))))


def _query_roundtrip(query):
    ((_, restored),) = _ship([(0.0, query)])
    return restored


class TestQueryRoundtrip:
    def test_plain_query(self):
        query = make_query("q", work=0.02, pipelines=3, finalize=0.001)
        assert _query_roundtrip(query) == query

    def test_priorities_and_tags_preserved(self):
        query = replace(
            make_query(),
            user_priority=2.0,
            static_priority=5000.0,
            tags=("tenant:etl",),
        )
        restored = _query_roundtrip(query)
        assert restored.user_priority == 2.0
        assert restored.static_priority == 5000.0
        assert restored.tags == ("tenant:etl",)

    def test_tpch_query_roundtrip(self):
        query = tpch_query("Q18", 3.0, compile_seconds=0.01)
        assert _query_roundtrip(query) == query


class TestWorkloadRoundtrip:
    def test_roundtrip_preserves_everything(self):
        mix = tpch_mix(names=("Q1", "Q6"))
        rng = RngFactory(1).stream("workload")
        workload = generate_workload(mix, rate=50.0, duration=1.0, rng=rng)
        restored = _ship(workload)
        assert [(repr(t), q) for t, q in restored] == [
            (repr(t), q) for t, q in workload
        ]

    def test_spec_table_deduplicates(self):
        # Equal by value, distinct objects: one table entry.
        workload = [(0.1 * i, make_query("q")) for i in range(50)]
        _, (specs, ids) = workload_to_arrays(workload)
        assert specs == [make_query("q")]
        assert ids.tolist() == [0] * 50

    def test_corrupt_index(self):
        # A negative id used to index the spec table from its end.
        arrivals, (specs, ids) = workload_to_arrays([(0.0, make_query("q"))])
        with pytest.raises(WorkloadError):
            workload_from_arrays([arrivals, (specs, np.array([-1], np.int32))])

    def test_arrays_roundtrip_is_lossless(self):
        mix = tpch_mix(names=("Q1", "Q6", "Q13"))
        rng = RngFactory(3).stream("workload")
        workload = generate_workload(mix, rate=80.0, duration=1.0, rng=rng)
        restored = workload_from_arrays(workload_to_arrays(workload))
        assert len(restored) == len(workload)
        for (t1, q1), (t2, q2) in zip(workload, restored):
            assert repr(t1) == repr(t2)  # bit-exact, not approx
            assert q1 == q2

    def test_arrays_spec_table_deduplicates(self):
        query = make_query("q")
        workload = [(0.1 * i, query) for i in range(50)]
        arrivals, (specs, ids) = workload_to_arrays(workload)
        assert specs == [query]
        assert len(arrivals) == 50
        assert arrivals.dtype.name == "float64"
        assert set(ids.tolist()) == {0}

    def test_arrays_corrupt_index(self):
        payload = [np.array([0.0]), ([], np.array([3], dtype=np.int32))]
        with pytest.raises(WorkloadError):
            workload_from_arrays(payload)

    def test_replay_gives_identical_simulation(self):
        """A shipped workload reproduces a bit-identical run."""
        from repro.core import SchedulerConfig, make_scheduler
        from repro.simcore import Simulator

        mix = tpch_mix(sf_small=0.5, sf_large=2.0, names=("Q3", "Q6"))
        rng = RngFactory(8).stream("workload")
        workload = generate_workload(mix, rate=30.0, duration=1.0, rng=rng)
        restored = _ship(workload)

        def run(wl):
            scheduler = make_scheduler("stride", SchedulerConfig(n_workers=2))
            return Simulator(scheduler, wl, seed=8).run()

        original = run(workload)
        replayed = run(restored)
        assert [repr(r) for r in original.records.records] == [
            repr(r) for r in replayed.records.records
        ]

"""Spec normalization: fingerprints recognize equal work.

The fold coordinator and the fragment cache both key on these, so the
tests pin the two properties everything downstream depends on:
stability (equal specs fingerprint equal, including across hash seeds —
sha1, never ``hash()``) and scheduling-metadata blindness (tags, priorities
and deadlines change *when* a query runs, never *what* it computes).
"""

from dataclasses import replace

import pytest

from repro.engine import generate_tpch
from repro.engine.execution import engine_query_spec
from repro.sharing import spec_fingerprint, spec_fragment_fingerprint
from repro.workloads import tpch_query


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


class TestSpecFingerprints:
    def test_engine_specs_stable(self, db):
        assert spec_fingerprint(
            engine_query_spec("Q6", db)
        ) == spec_fingerprint(engine_query_spec("Q6", db))

    def test_scheduling_metadata_excluded(self, db):
        spec = engine_query_spec("Q6", db)
        decorated = replace(
            spec,
            tags=spec.tags + ("tenant:dash", "fold:3"),
            user_priority=4.0,
            static_priority=2,
            deadline=0.5,
        )
        assert spec_fingerprint(decorated) == spec_fingerprint(spec)
        assert spec_fragment_fingerprint(decorated) == (
            spec_fragment_fingerprint(spec)
        )

    def test_distinct_specs_distinct(self, db):
        specs = [engine_query_spec(n, db) for n in ("Q1", "Q6", "Q14")]
        assert len({spec_fingerprint(s) for s in specs}) == 3

    def test_scale_factor_matters(self):
        small = tpch_query("Q6", 3.0)
        large = tpch_query("Q6", 30.0)
        assert spec_fingerprint(small) != spec_fingerprint(large)
        assert spec_fragment_fingerprint(small) != (
            spec_fragment_fingerprint(large)
        )

    def test_fragment_drops_the_query_name(self, db):
        # Same leading pipeline shape under two different names shares
        # a fragment key (the affinity term keys on the scan, not the
        # query identity).
        spec = engine_query_spec("Q6", db)
        renamed = replace(spec, name="Q6-dashboard-copy")
        assert spec_fingerprint(renamed) != spec_fingerprint(spec)
        assert spec_fragment_fingerprint(renamed) == (
            spec_fragment_fingerprint(spec)
        )

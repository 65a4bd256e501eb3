"""Tests for the morsel-wise physical operators."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import Col
from repro.engine.operators import (
    AntiJoinProbe,
    CollectSink,
    Filter,
    HashAggregateSink,
    HashJoinBuildSink,
    HashJoinProbe,
    JoinTable,
    LazyJoinTable,
    Project,
    ScalarAggregateSink,
    SemiJoinProbe,
    TopKSink,
    dense_presence,
    distinct_keys,
)
from repro.errors import EngineError
from tests.engine.reference_aggregate import ReferenceHashAggregateSink
from tests.engine.reference_kernels import ReferenceJoinTable, reference_distinct_keys


def batch(**columns):
    return {name: np.asarray(values) for name, values in columns.items()}


#: Key domains that steer the sink's grouping: a dense span (counting),
#: a span far wider than any batch (sort on the folded code), and
#: values whose span — alone or multiplied across columns — no int64
#: code can hold (row-wise sort).
_KEY_DOMAINS = (
    (st.integers(-4, 4), (np.int32, np.int64)),
    (st.integers(-(2**31), 2**31 - 1), (np.int32, np.int64)),
    (st.sampled_from([-(2**63), -(2**40), -1, 0, 2**33, 2**63 - 1]), (np.int64,)),
)


@st.composite
def grouped_morsels(draw):
    """Key columns, a value column and a morsel split, as batches."""
    n = draw(st.integers(0, 60))
    columns = {}
    for i in range(draw(st.integers(1, 3))):
        elements, dtypes = draw(st.sampled_from(_KEY_DOMAINS))
        keys = draw(st.lists(elements, min_size=n, max_size=n))
        columns[f"k{i}"] = np.array(keys, dtype=draw(st.sampled_from(dtypes)))
    values = st.floats(-1.0e6, 1.0e6, allow_nan=False)
    columns["v"] = np.array(
        draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    bounds = [0] + cuts + [n]
    return [
        {name: array[lo:hi] for name, array in columns.items()}
        for lo, hi in zip(bounds, bounds[1:])
    ]


#: Join and distinct-key domains: a dense span with negative keys (rank
#: or presence table), a span far wider than any input (sorted keys),
#: and int64's extremes, dense or not depending on the draw.
_INT64 = st.integers(-(2**63), 2**63 - 1)
_DENSE_KEYS = st.integers(-40, 40)
_JOIN_DOMAINS = (
    (_DENSE_KEYS, np.int32),
    (_DENSE_KEYS, np.int64),
    (st.integers(-(2**40), 2**40), np.int64),
    (st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]), np.int64),
)


@st.composite
def join_inputs(draw, duplicate=False):
    """Build keys (unique unless ``duplicate``) and probe keys, the
    probes partly in the build's domain and partly anywhere in the
    dtype — below, inside and above the build span."""
    elements, dtype = draw(st.sampled_from(_JOIN_DOMAINS))
    keys = draw(st.lists(elements, min_size=int(duplicate), max_size=50, unique=True))
    if duplicate:
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    info = np.iinfo(dtype)
    anywhere = st.integers(int(info.min), int(info.max))
    probes = draw(st.lists(st.one_of(elements, anywhere), max_size=60))
    return np.array(keys, dtype=dtype), np.array(probes, dtype=dtype)


class TestTransforms:
    def test_filter(self):
        out = Filter(Col("a") > 2).apply(batch(a=[1, 2, 3, 4], b=[10, 20, 30, 40]))
        assert out["a"].tolist() == [3, 4]
        assert out["b"].tolist() == [30, 40]

    def test_project(self):
        out = Project({"double": Col("a") * 2}).apply(batch(a=[1, 2]))
        assert list(out) == ["double"]
        assert out["double"].tolist() == [2, 4]

    def test_project_requires_outputs(self):
        with pytest.raises(EngineError):
            Project({})


class TestJoinTable:
    def test_lookup(self):
        table = JoinTable("k", batch(k=[5, 1, 3], v=[50, 10, 30]))
        mask, idx = table.lookup(np.array([1, 2, 5]))
        assert mask.tolist() == [True, False, True]
        payload = table.gather(idx, ["v"])
        assert payload["v"].tolist() == [10, 50]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(EngineError):
            JoinTable("k", batch(k=[1, 1], v=[1, 2]))

    def test_empty_table(self):
        table = JoinTable("k", {"k": np.empty(0, dtype=np.int64)})
        mask, idx = table.lookup(np.array([1, 2]))
        assert not mask.any()
        assert len(idx) == 0

    def test_missing_key_column(self):
        with pytest.raises(EngineError):
            JoinTable("k", batch(v=[1]))


class TestJoinTableIdentity:
    """The dense rank table against the sorted-key table it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=join_inputs())
    def test_identical_to_sorted_reference(self, inputs):
        keys, probes = inputs
        payload = {"k": keys, "v": np.arange(len(keys)) * 0.5}
        table = JoinTable("k", payload)
        reference = ReferenceJoinTable("k", payload)
        assert table.n_rows == reference.n_rows
        mask, rows = table.lookup(probes)
        want_mask, want_rows = reference.lookup(probes)
        assert mask.dtype == want_mask.dtype
        assert mask.tobytes() == want_mask.tobytes()
        got = table.gather(rows, ["k", "v"])
        want = reference.gather(want_rows, ["k", "v"])
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes()
        assert table.contains(probes).tobytes() == reference.contains(probes).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(inputs=join_inputs(duplicate=True))
    def test_duplicates_rejected_on_both_paths(self, inputs):
        keys, _ = inputs
        payload = {"k": keys}
        with pytest.raises(EngineError, match="not unique"):
            ReferenceJoinTable("k", payload)
        with pytest.raises(EngineError, match="not unique"):
            JoinTable("k", payload)

    def test_dense_or_sort_rule(self):
        """Counting up to ``max(65 536, 4·n)`` values of span, sorting beyond."""
        small = np.arange(10)
        assert dense_presence(small, 65_536) is not None
        assert dense_presence(small, 65_537) is None
        large = np.arange(20_000)
        assert dense_presence(large, 80_000) is not None
        assert dense_presence(large, 80_001) is None
        present = dense_presence(np.array([0, 7, 0]), 8)
        assert present.tolist() == [True] + [False] * 6 + [True]

    def test_probes_out_of_range_miss(self):
        table = JoinTable("k", batch(k=[-2, 0, 3], v=[1, 2, 3]))
        probes = np.array([-(2**63), -3, -2, 1, 3, 4, 2**63 - 1])
        mask, rows = table.lookup(probes)
        assert mask.tolist() == [False, False, True, False, True, False, False]
        assert table.gather(rows, ["v"])["v"].tolist() == [1, 3]

    @settings(max_examples=200, deadline=None)
    @given(inputs=join_inputs())
    def test_distinct_keys_identical_to_unique(self, inputs):
        keys, probes = inputs
        # An empty CollectSink column is float64.
        for values in (keys, probes, np.concatenate([keys, keys[::-1]]), np.empty(0)):
            got = distinct_keys(values)
            want = reference_distinct_keys(values)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestJoinProbes:
    def _table(self):
        ref = LazyJoinTable()
        ref.set(JoinTable("k", batch(k=[1, 3], payload=[100, 300])))
        return ref

    def test_inner_probe_extends_payload(self):
        probe = HashJoinProbe(self._table(), "fk", ["payload"])
        out = probe.apply(batch(fk=[1, 2, 3], x=[10, 20, 30]))
        assert out["x"].tolist() == [10, 30]
        assert out["payload"].tolist() == [100, 300]

    def test_semi_join(self):
        probe = SemiJoinProbe(self._table(), "fk")
        out = probe.apply(batch(fk=[1, 2, 3]))
        assert out["fk"].tolist() == [1, 3]

    def test_anti_join(self):
        probe = AntiJoinProbe(self._table(), "fk")
        out = probe.apply(batch(fk=[1, 2, 3]))
        assert out["fk"].tolist() == [2]

    def test_unset_lazy_table_raises(self):
        """Probing before the build pipeline finalized is a plan bug."""
        probe = SemiJoinProbe(LazyJoinTable(), "fk")
        with pytest.raises(EngineError):
            probe.apply(batch(fk=[1]))


class TestBuildSink:
    def test_build_across_morsels(self):
        ref = LazyJoinTable()
        sink = HashJoinBuildSink("k", ["v"], ref)
        sink.consume(batch(k=[1, 2], v=[10, 20]))
        sink.consume(batch(k=[3], v=[30]))
        sink.finalize()
        table = ref.get()
        assert table.n_rows == 3
        mask, idx = table.lookup(np.array([2]))
        assert table.gather(idx, ["v"])["v"].tolist() == [20]

    def test_empty_build(self):
        ref = LazyJoinTable()
        sink = HashJoinBuildSink("k", [], ref)
        sink.finalize()
        assert ref.get().n_rows == 0


class TestHashAggregateSink:
    def test_single_key_sums_and_counts(self):
        sink = HashAggregateSink(["g"], {"total": Col("v")}, count_alias="n")
        sink.consume(batch(g=[1, 1, 2], v=[10.0, 20.0, 5.0]))
        sink.consume(batch(g=[2, 3], v=[5.0, 7.0]))
        rows = sink.result_rows()
        assert rows == [(1, 30.0, 2), (2, 10.0, 2), (3, 7.0, 1)]

    def test_multi_key(self):
        sink = HashAggregateSink(["a", "b"], {"s": Col("v")})
        sink.consume(batch(a=[1, 1, 2], b=[0, 1, 0], v=[1.0, 2.0, 3.0]))
        assert sink.result_rows() == [(1, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]

    def test_requires_group_columns(self):
        with pytest.raises(EngineError):
            HashAggregateSink([], {"s": Col("v")})

    def test_empty_batches_ignored(self):
        sink = HashAggregateSink(["g"], {"s": Col("v")})
        sink.consume(batch(g=[], v=[]))
        assert sink.result_rows() == []

    def test_morsel_independence(self):
        """Results must not depend on how input is split into morsels."""
        g = np.random.default_rng(0).integers(0, 10, 1000)
        v = np.random.default_rng(1).random(1000)
        whole = HashAggregateSink(["g"], {"s": Col("v")})
        whole.consume(batch(g=g, v=v))
        split = HashAggregateSink(["g"], {"s": Col("v")})
        for start in range(0, 1000, 37):
            split.consume(batch(g=g[start : start + 37], v=v[start : start + 37]))
        for (k1, s1), (k2, s2) in zip(whole.result_rows(), split.result_rows()):
            assert k1 == k2
            assert s1 == pytest.approx(s2)

    @settings(max_examples=200, deadline=None)
    @given(morsels=grouped_morsels(), compact_groups=st.sampled_from([1 << 18, 2, 0]))
    def test_identical_to_dict_reference(self, morsels, compact_groups):
        """Same morsels in the same order: the same rows, bit for bit,
        as the dict-state sink this one replaced — on every grouping
        path, with and without early merging of the partials."""
        keys = [name for name in morsels[0] if name != "v"]
        spec = dict(
            sums={"s": Col("v"), "s2": Col("v") * Col("v")},
            mins={"lo": Col("v")},
            maxs={"hi": Col("v")},
            avgs={"mean": Col("v")},
            count_alias="n",
        )
        sink = HashAggregateSink(keys, **spec)
        sink._COMPACT_GROUPS = compact_groups
        reference = ReferenceHashAggregateSink(keys, **spec)
        for morsel in morsels:
            sink.consume(morsel)
            reference.consume(morsel)
        sink.finalize()
        assert sink.result_rows() == reference.result_rows()
        got_keys, got_values, got_counts = sink.result_columns()
        want_keys, want_values, want_counts = reference.result_columns()
        for got, want in zip(
            got_keys + got_values + [got_counts],
            want_keys + want_values + [want_counts],
        ):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    def test_consume_runs_no_python_per_group(self):
        """The count of Python-level call events in ``consume`` must not
        depend on the number of groups (no clock involved)."""

        def call_events(n_groups):
            rows = np.arange(20_000)
            morsel = batch(g=rows % n_groups, v=rows * 0.5)
            sink = HashAggregateSink(
                ["g"], {"s": Col("v")}, avgs={"a": Col("v")}, count_alias="n"
            )
            events = []

            def profiler(frame, event, arg):
                if event in ("call", "c_call"):
                    events.append(event)

            sys.setprofile(profiler)
            try:
                sink.consume(morsel)
            finally:
                sys.setprofile(None)
            assert len(sink.result_rows()) == n_groups
            return len(events)

        assert call_events(5) == call_events(5_000)


class TestScalarAggregateSink:
    def test_sums_and_count(self):
        sink = ScalarAggregateSink({"s": Col("v")})
        sink.consume(batch(v=[1.0, 2.0]))
        sink.consume(batch(v=[3.0]))
        assert sink.totals["s"] == pytest.approx(6.0)
        assert sink.count == 3


class TestTopKSink:
    def test_keeps_largest(self):
        sink = TopKSink("score", 2, ["id"])
        sink.consume(batch(score=[1.0, 9.0, 5.0], id=[1, 2, 3]))
        sink.consume(batch(score=[7.0], id=[4]))
        rows = sink.result_rows()
        # Columns sorted alphabetically: (id, score); descending by score.
        assert [row[1] for row in rows] == [9.0, 7.0]

    def test_fewer_than_k(self):
        sink = TopKSink("score", 10, ["id"])
        sink.consume(batch(score=[1.0], id=[1]))
        assert len(sink.result_rows()) == 1

    def test_empty(self):
        assert TopKSink("score", 3, []).result_rows() == []

    def test_invalid_k(self):
        with pytest.raises(EngineError):
            TopKSink("score", 0, [])


class TestCollectSink:
    def test_concatenates(self):
        sink = CollectSink(["a"])
        sink.consume(batch(a=[1, 2]))
        sink.consume(batch(a=[3]))
        sink.finalize()
        assert sink.result["a"].tolist() == [1, 2, 3]

    def test_empty(self):
        sink = CollectSink(["a"])
        sink.finalize()
        assert sink.result["a"].tolist() == []


class TestExtendedAggregates:
    def test_min_max_avg(self):
        sink = HashAggregateSink(
            ["g"],
            sums={"s": Col("v")},
            mins={"lo": Col("v")},
            maxs={"hi": Col("v")},
            avgs={"mean": Col("v")},
            count_alias="n",
        )
        sink.consume(batch(g=[1, 1, 2], v=[10.0, 20.0, 5.0]))
        sink.consume(batch(g=[1], v=[1.0]))
        rows = sink.result_rows()
        # (key, sum, min, max, avg, count)
        assert rows[0] == (1, 31.0, 1.0, 20.0, pytest.approx(31.0 / 3), 3)
        assert rows[1] == (2, 5.0, 5.0, 5.0, 5.0, 1)

    def test_avg_merges_across_morsels(self):
        """AVG must be (sum, count)-decomposed, not averaged averages."""
        whole = HashAggregateSink(["g"], sums={}, avgs={"a": Col("v")})
        whole.consume(batch(g=[1, 1, 1], v=[1.0, 2.0, 9.0]))
        split = HashAggregateSink(["g"], sums={}, avgs={"a": Col("v")})
        split.consume(batch(g=[1, 1], v=[1.0, 2.0]))
        split.consume(batch(g=[1], v=[9.0]))
        assert whole.result_rows() == split.result_rows()


class TestSortSink:
    def test_full_sort(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], ["v"])
        sink.consume(batch(k=[3, 1], v=[30, 10]))
        sink.consume(batch(k=[2], v=[20]))
        sink.finalize()
        rows = sink.result_rows()
        assert [row[0] for row in rows] == [1, 2, 3]

    def test_descending_with_limit(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [], descending=True, limit=2)
        sink.consume(batch(k=[5, 1, 9, 3]))
        sink.finalize()
        assert [row[0] for row in sink.result_rows()] == [9, 5]

    def test_multi_column_lexicographic(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["a", "b"], [])
        sink.consume(batch(a=[1, 1, 0], b=[2, 1, 9]))
        sink.finalize()
        assert sink.result_rows() == [(0, 9), (1, 1), (1, 2)]

    def test_read_before_finalize(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [])
        with pytest.raises(EngineError):
            sink.result_rows()

    def test_requires_sort_columns(self):
        from repro.engine.operators import SortSink

        with pytest.raises(EngineError):
            SortSink([], [])

    def test_empty_input(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [])
        sink.finalize()
        assert sink.result_rows() == []

"""Tests for columnar relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.relation import Relation, batch_length, filter_batch
from repro.errors import EngineError
from tests.engine.reference_kernels import reference_filter_batch


def simple_relation():
    return Relation(
        {
            "k": np.arange(10, dtype=np.int64),
            "v": np.arange(10, dtype=np.float64) * 2.0,
            "s": np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int32),
        },
        dictionaries={"s": ["yes", "no"]},
    )


class TestRelation:
    def test_row_count(self):
        assert simple_relation().n_rows == 10

    def test_rejects_empty(self):
        with pytest.raises(EngineError):
            Relation({})

    def test_rejects_ragged(self):
        with pytest.raises(EngineError):
            Relation({"a": np.arange(3), "b": np.arange(4)})

    def test_rejects_dictionary_for_missing_column(self):
        with pytest.raises(EngineError):
            Relation({"a": np.arange(3)}, dictionaries={"b": ["x"]})

    def test_unknown_column(self):
        with pytest.raises(EngineError):
            simple_relation().column("missing")

    def test_slice_is_view(self):
        relation = simple_relation()
        batch = relation.slice(2, 5)
        assert batch["k"].tolist() == [2, 3, 4]
        assert batch["k"].base is not None  # zero-copy view

    def test_slice_column_subset(self):
        batch = simple_relation().slice(0, 3, names=["v"])
        assert list(batch) == ["v"]

    def test_slice_bounds(self):
        with pytest.raises(EngineError):
            simple_relation().slice(5, 3)
        with pytest.raises(EngineError):
            simple_relation().slice(0, 11)

    def test_take(self):
        batch = simple_relation().take(np.array([9, 0, 5]))
        assert batch["k"].tolist() == [9, 0, 5]

    def test_encode_value(self):
        relation = simple_relation()
        assert relation.encode_value("s", "no") == 1

    def test_encode_unknown_value(self):
        with pytest.raises(EngineError):
            simple_relation().encode_value("s", "maybe")

    def test_encode_numeric_column_rejected(self):
        with pytest.raises(EngineError):
            simple_relation().encode_value("k", "1")

    def test_dictionary_lookup(self):
        assert simple_relation().dictionary("s") == ["yes", "no"]
        assert simple_relation().dictionary("k") is None


class TestBatchHelpers:
    def test_batch_length(self):
        assert batch_length({"a": np.arange(4)}) == 4
        assert batch_length({}) == 0

    def test_filter_batch(self):
        batch = {"a": np.arange(5), "b": np.arange(5) * 10}
        mask = np.array([True, False, True, False, True])
        filtered = filter_batch(batch, mask)
        assert filtered["a"].tolist() == [0, 2, 4]
        assert filtered["b"].tolist() == [0, 20, 40]

    def test_filter_batch_preserves_dtype_of_empty_selection(self):
        batch = {"a": np.arange(3, dtype=np.int32), "b": np.ones(3)}
        filtered = filter_batch(batch, np.zeros(3, dtype=bool))
        assert filtered["a"].dtype == np.int32
        assert filtered["b"].dtype == np.float64
        assert batch_length(filtered) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 40),
        selection=st.sampled_from(["none", "all", "random"]),
        data=st.data(),
    )
    def test_filter_batch_identical_to_per_column_masks(self, n, selection, data):
        """Row indices taken once select exactly what one boolean mask
        per column selected: same columns, dtypes and bytes."""
        if selection == "random":
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        else:
            mask = np.full(n, selection == "all")
        ints = data.draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n))
        floats = data.draw(st.lists(st.floats(allow_nan=True), min_size=n, max_size=n))
        batch = {
            "i32": np.array(ints, dtype=np.int32),
            "i64": np.array(ints, dtype=np.int64) * 3,
            "f64": np.array(floats, dtype=np.float64),
            "flag": np.array(ints, dtype=np.int64) % 2 == 0,
        }
        got = filter_batch(batch, mask)
        want = reference_filter_batch(batch, mask)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes()

"""Correctness tests for the engine query plans.

Every query result is cross-checked against a direct numpy reference
computation over the same database — the morsel-wise pipelined execution
must agree exactly.
"""

import numpy as np
import pytest

from repro.engine import ENGINE_QUERIES, build_engine_query
from repro.errors import EngineError
from tests.engine.reference_aggregate import ReferenceHashAggregateSink
from tests.engine.reference_kernels import (
    ReferenceJoinTable,
    reference_distinct_keys,
    reference_filter_batch,
)


def _as_bytes(value):
    """A result with every number as its exact bytes (and dtype), so
    ``==`` on two of them is byte identity."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.str, np.asarray(value).tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_as_bytes(item) for item in value]
    if isinstance(value, dict):
        return [(key, _as_bytes(item)) for key, item in value.items()]
    return value


class TestQ1:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q1", tiny_db).execute(morsel_rows=1024)
        lineitem = tiny_db.table("lineitem")
        mask = lineitem.column("l_shipdate") <= 2_467
        flags = lineitem.column("l_returnflag")[mask]
        statuses = lineitem.column("l_linestatus")[mask]
        quantity = lineitem.column("l_quantity")[mask]
        reference = {}
        for flag in np.unique(flags):
            for status in np.unique(statuses):
                group_mask = (flags == flag) & (statuses == status)
                if group_mask.any():
                    reference[(int(flag), int(status))] = (
                        float(quantity[group_mask].sum()),
                        int(group_mask.sum()),
                    )
        assert len(rows) == len(reference)
        for row in rows:
            key = (row[0], row[1])
            sum_qty, count = reference[key]
            assert row[2] == pytest.approx(sum_qty)
            assert row[-1] == count


class TestQ3:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q3", tiny_db).execute(morsel_rows=512)
        customer = tiny_db.table("customer")
        orders = tiny_db.table("orders")
        lineitem = tiny_db.table("lineitem")
        building = customer.encode_value("c_mktsegment", "BUILDING")
        good_customers = set(
            customer.column("c_custkey")[
                customer.column("c_mktsegment") == building
            ].tolist()
        )
        order_mask = (orders.column("o_orderdate") < 1_600) & np.isin(
            orders.column("o_custkey"), list(good_customers)
        )
        good_orders = set(orders.column("o_orderkey")[order_mask].tolist())
        li_mask = (lineitem.column("l_shipdate") > 1_600) & np.isin(
            lineitem.column("l_orderkey"), list(good_orders)
        )
        keys = lineitem.column("l_orderkey")[li_mask]
        revenue = (
            lineitem.column("l_extendedprice")[li_mask]
            * (1.0 - lineitem.column("l_discount")[li_mask])
        )
        reference = {}
        for key in np.unique(keys):
            reference[int(key)] = float(revenue[keys == key].sum())
        expected_top = sorted(reference.items(), key=lambda kv: -kv[1])[:10]
        assert len(rows) == len(expected_top)
        for (got_key, got_rev), (want_key, want_rev) in zip(rows, expected_top):
            assert got_rev == pytest.approx(want_rev)


class TestQ6:
    def test_matches_reference(self, tiny_db):
        result = build_engine_query("Q6", tiny_db).execute(morsel_rows=777)
        lineitem = tiny_db.table("lineitem")
        mask = (
            (lineitem.column("l_shipdate") >= 1_096)
            & (lineitem.column("l_shipdate") <= 1_460)
            & (lineitem.column("l_discount") >= 0.05)
            & (lineitem.column("l_discount") <= 0.07)
            & (lineitem.column("l_quantity") < 24)
        )
        expected = float(
            (
                lineitem.column("l_extendedprice")[mask]
                * lineitem.column("l_discount")[mask]
            ).sum()
        )
        assert result == pytest.approx(expected)


class TestQ13:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q13", tiny_db).execute(morsel_rows=999)
        orders_cust = tiny_db.table("orders").column("o_custkey")
        per_customer = np.bincount(
            orders_cust, minlength=tiny_db.table("customer").n_rows
        )
        reference = {}
        for count in per_customer:
            reference[int(count)] = reference.get(int(count), 0) + 1
        got = dict(rows)
        assert got == reference

    def test_total_customers_conserved(self, tiny_db):
        rows = build_engine_query("Q13", tiny_db).execute()
        assert sum(n for _, n in rows) == tiny_db.table("customer").n_rows


class TestQ18:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q18", tiny_db).execute(morsel_rows=2048)
        lineitem = tiny_db.table("lineitem")
        orders = tiny_db.table("orders")
        sums = np.zeros(orders.n_rows)
        np.add.at(sums, lineitem.column("l_orderkey"), lineitem.column("l_quantity"))
        big = np.where(sums > 190.0)[0]
        prices = orders.column("o_totalprice")[big]
        expected_count = min(100, len(big))
        assert len(rows) == expected_count
        got_prices = sorted((row[3] for row in rows), reverse=True)
        want_prices = sorted(prices, reverse=True)[:expected_count]
        np.testing.assert_allclose(got_prices, want_prices)


class TestQueryCatalog:
    def test_all_engine_queries_build(self, tiny_db):
        for name in ENGINE_QUERIES:
            plan = build_engine_query(name, tiny_db)
            assert plan.pipelines

    def test_unknown_query(self, tiny_db):
        with pytest.raises(EngineError):
            build_engine_query("Q99", tiny_db)

    def test_results_independent_of_morsel_size(self, tiny_db):
        for name in ("Q1", "Q6"):
            small = build_engine_query(name, tiny_db).execute(morsel_rows=64)
            large = build_engine_query(name, tiny_db).execute(morsel_rows=100_000)
            if isinstance(small, float):
                assert small == pytest.approx(large)
            else:
                assert len(small) == len(large)

    @pytest.mark.parametrize("morsel_rows", [977, 4_096, 65_536])
    def test_identical_to_dict_reference_sink(self, small_db, monkeypatch, morsel_rows):
        """At a fixed morsel split every plan returns exactly (``==``)
        what it returns on the dict-state sink the columnar one replaced."""
        results = {
            name: build_engine_query(name, small_db).execute(morsel_rows)
            for name in ENGINE_QUERIES
        }
        monkeypatch.setattr(
            "repro.engine.queries.HashAggregateSink", ReferenceHashAggregateSink
        )
        for name, got in results.items():
            want = build_engine_query(name, small_db).execute(morsel_rows)
            if name == "QS":
                assert list(got) == list(want)
                for column in want:
                    assert got[column].dtype == want[column].dtype
                    assert got[column].tobytes() == want[column].tobytes()
            else:
                assert got == want, name


class TestReferenceKernels:
    @pytest.mark.parametrize("morsel_rows", [1_000, 4_096, 65_536])
    def test_identical_to_reference_kernels(self, small_db, monkeypatch, morsel_rows):
        """Every catalog query returns the same bytes on the dense-key
        kernels as on the sorted-key join table, per-column masks and
        ``np.unique`` they replaced."""
        results = {
            name: build_engine_query(name, small_db).execute(morsel_rows)
            for name in ENGINE_QUERIES
        }
        monkeypatch.setattr("repro.engine.operators.JoinTable", ReferenceJoinTable)
        monkeypatch.setattr("repro.engine.operators.filter_batch", reference_filter_batch)
        monkeypatch.setattr("repro.engine.queries.filter_batch", reference_filter_batch)
        monkeypatch.setattr("repro.engine.queries.distinct_keys", reference_distinct_keys)
        for name, got in results.items():
            want = build_engine_query(name, small_db).execute(morsel_rows)
            assert _as_bytes(got) == _as_bytes(want), name


class TestQ4:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q4", tiny_db).execute(morsel_rows=1024)
        lineitem = tiny_db.table("lineitem")
        orders = tiny_db.table("orders")
        late_keys = set(
            lineitem.column("l_orderkey")[
                lineitem.column("l_commitdate") < lineitem.column("l_receiptdate")
            ].tolist()
        )
        order_mask = (
            (orders.column("o_orderdate") >= 800)
            & (orders.column("o_orderdate") <= 891)
        )
        reference = {}
        priorities = orders.column("o_orderpriority")[order_mask]
        keys = orders.column("o_orderkey")[order_mask]
        for priority, key in zip(priorities, keys):
            if int(key) in late_keys:
                reference[int(priority)] = reference.get(int(priority), 0) + 1
        got = {row[0]: row[1] for row in rows}
        assert got == reference


class TestQ14:
    def test_matches_reference(self, tiny_db):
        result = build_engine_query("Q14", tiny_db).execute(morsel_rows=512)
        lineitem = tiny_db.table("lineitem")
        part_brand = tiny_db.table("part").column("p_brand")
        mask = (lineitem.column("l_shipdate") >= 1_000) & (
            lineitem.column("l_shipdate") <= 1_030
        )
        brands = part_brand[lineitem.column("l_partkey")[mask]]
        revenue = lineitem.column("l_extendedprice")[mask] * (
            1.0 - lineitem.column("l_discount")[mask]
        )
        total = float(revenue.sum())
        promo = float(revenue[brands < 5].sum())
        expected = 100.0 * promo / total if total else 0.0
        assert result == pytest.approx(expected)


class TestQ19:
    def test_matches_reference(self, tiny_db):
        result = build_engine_query("Q19", tiny_db).execute(morsel_rows=4096)
        lineitem = tiny_db.table("lineitem")
        part_brand = tiny_db.table("part").column("p_brand")
        quantity = lineitem.column("l_quantity")
        quantity_mask = (
            ((quantity >= 1) & (quantity <= 11))
            | ((quantity >= 10) & (quantity <= 20))
            | ((quantity >= 20) & (quantity <= 30))
        )
        brands = part_brand[lineitem.column("l_partkey")]
        mask = quantity_mask & np.isin(brands, [1, 7, 13])
        expected = float(
            (
                lineitem.column("l_extendedprice")[mask]
                * (1.0 - lineitem.column("l_discount")[mask])
            ).sum()
        )
        assert result == pytest.approx(expected)


class TestQ12:
    def test_matches_reference(self, tiny_db):
        rows = build_engine_query("Q12", tiny_db).execute(morsel_rows=777)
        lineitem = tiny_db.table("lineitem")
        orders = tiny_db.table("orders")
        mask = (
            (lineitem.column("l_commitdate") < lineitem.column("l_receiptdate"))
            & (lineitem.column("l_receiptdate") >= 1_096)
            & (lineitem.column("l_receiptdate") <= 1_460)
            & np.isin(lineitem.column("l_shipmode"), [5, 6])
        )
        priorities = orders.column("o_orderpriority")[
            lineitem.column("l_orderkey")[mask]
        ]
        modes = lineitem.column("l_shipmode")[mask]
        reference = {}
        for mode, priority in zip(modes, priorities):
            entry = reference.setdefault(int(mode), [0, 0])
            entry[0 if priority < 2 else 1] += 1
        got = {row[0]: [row[1], row[2]] for row in rows}
        assert got == reference


class TestQ22:
    def test_matches_reference(self, tiny_db):
        result = build_engine_query("Q22", tiny_db).execute(morsel_rows=500)
        customer = tiny_db.table("customer")
        orders = tiny_db.table("orders")
        balances = customer.column("c_acctbal")
        mean_positive = balances[balances > 0.0].mean()
        has_orders = np.zeros(customer.n_rows, dtype=bool)
        has_orders[orders.column("o_custkey")] = True
        idle_rich = (balances > mean_positive) & ~has_orders
        assert result["count"] == int(idle_rich.sum())
        assert result["total_balance"] == pytest.approx(
            float(balances[idle_rich].sum())
        )

    def test_finds_orderless_customers(self, tiny_db):
        """The dbgen rule (every third customer orderless) makes Q22
        non-degenerate."""
        result = build_engine_query("Q22", tiny_db).execute()
        assert result["count"] > 0

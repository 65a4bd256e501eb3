"""The one wire codec: every schema round-trips bit-exactly through the
pool's pickle-5 frame, and agrees with the encoders it replaced.

Per schema (workload, latency records, result chunks, and the sweep
outcome that carries a collector) a hypothesis test ships random rows
through ``dumps_oob`` / ``loads_oob`` and compares the result with the
input, float by float as ``struct`` bits, so NaN payloads, ±0.0 and
±inf count.  The same input through the parent's codecs in
``tests/reference_wire.py`` must decode ``==`` to the same bits.  The
codec checks table ids, which the references did not: a corrupt id
raises the schema's error instead of decoding to another row (the
workload schema's case is in ``tests/workloads/test_serialize.py``).
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.parallel import CellOutcome
from repro.experiments.pool import dumps_oob, loads_oob
from repro.metrics.latency import LatencyCollector, LatencyRecord
from repro.runtime.channel import (
    FINAL,
    ROWS,
    ResultChunk,
    chunks_from_arrays,
    chunks_to_arrays,
)
from repro.wire import OBJECT, TABLE, Schema, decode_columns, encode_columns
from repro.workloads.serialize import workload_from_arrays, workload_to_arrays

from tests import reference_wire as ref
from tests.conftest import make_query


def bits(value):
    """``value`` with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return type(value)(bits(v) for v in value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, LatencyRecord):
        return bits(tuple(vars(value).values()))
    return value


def ship(payload):
    return loads_oob(dumps_oob(payload))


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), float("nan"))),
)
names = st.sampled_from(("Q1", "Q6", "Q13", "", "Q18 ☃"))
specs = st.builds(
    lambda name, work, pipelines, priority: replace(
        make_query(name, work=work, pipelines=pipelines),
        user_priority=priority,
    ),
    names,
    st.sampled_from((0.01, 0.2)),
    st.integers(1, 3),
    st.sampled_from((None, 2.0)),
)
records = st.builds(
    LatencyRecord,
    query_id=st.integers(-(2**63), 2**63 - 1),
    name=names,
    scale_factor=floats,
    arrival_time=floats,
    completion_time=floats,
    cpu_seconds=floats,
    base_latency=floats,
    cancelled=st.booleans(),
    failed=st.booleans(),
    error=st.one_of(st.just(""), st.text()),
)
rows_chunks = st.builds(
    lambda values, rows: ResultChunk(
        ROWS,
        {"x": np.array(values, dtype=np.float64), "k": np.arange(len(values))},
        rows,
    ),
    st.lists(floats, max_size=6),
    st.integers(0, 2**40),
)
final_chunks = st.builds(
    lambda value: ResultChunk(FINAL, value, 0),
    st.one_of(st.none(), floats, st.dictionaries(st.text(max_size=3), floats)),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(floats, specs), max_size=40))
    def test_workload(self, workload):
        restored = workload_from_arrays(ship(workload_to_arrays(workload)))
        assert bits(restored) == bits(workload)
        reference = ref.workload_from_arrays(ship(ref.workload_to_arrays(workload)))
        assert bits(restored) == bits(reference)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=40))
    def test_records(self, rows):
        collector = LatencyCollector()
        for record in rows:
            collector.add(record)
        restored = ship(collector)
        assert isinstance(restored, LatencyCollector)
        assert bits(restored.records) == bits(rows)
        reference = ref.records_from_arrays(ship(ref.records_to_arrays(collector)))
        assert bits(restored.records) == bits(reference.records)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(rows_chunks, final_chunks), max_size=12))
    def test_chunks(self, chunks):
        expected = [(c.kind, c.payload, c.rows) for c in chunks]
        restored = chunks_from_arrays(ship(chunks_to_arrays(chunks)))
        assert bits(restored) == bits(expected)
        reference = ref.chunks_from_arrays(ship(ref.chunks_to_arrays(chunks)))
        assert bits(restored) == bits(
            [(c.kind, c.payload, c.rows) for c in reference]
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(records, max_size=10), st.integers(0, 10**6), floats, floats)
    def test_outcome(self, rows, tasks, overhead, end_time):
        collector = LatencyCollector()
        for record in rows:
            collector.add(record)
        outcome = CellOutcome(collector, tasks, tasks + 1, overhead, end_time)

        def fields(o):
            return bits((
                o.records.records, o.tasks_executed, o.events_processed,
                o.total_overhead_percent, o.end_time,
            ))

        assert fields(ship(outcome)) == fields(outcome)
        assert fields(ship(outcome)) == fields(
            ref.decode_outcome(ship(ref.encode_outcome(outcome)))
        )


class TestTables:
    def test_table_deduplicates_by_value_in_first_appearance_order(self):
        a, b = make_query("a"), make_query("b")
        workload = [
            (0.0, b), (1.0, make_query("a")), (2.0, make_query("b")), (3.0, a)
        ]
        _, (table, ids) = workload_to_arrays(workload)
        assert table == [b, a]
        assert ids.dtype == np.int32 and ids.tolist() == [0, 1, 0, 1]
        restored = workload_from_arrays(ship(workload_to_arrays(workload)))
        assert restored[0][1] is restored[2][1]

    def test_empty_input(self):
        assert workload_from_arrays(ship(workload_to_arrays([]))) == []
        assert len(ship(LatencyCollector())) == 0
        assert chunks_from_arrays(ship(chunks_to_arrays([]))) == []

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_record_name_id_outside_the_table_raises(self, bad):
        collector = LatencyCollector()
        collector.add(LatencyRecord(0, "Q1", 1.0, 0.0, 1.0, 0.5))
        collector.add(LatencyRecord(1, "Q6", 1.0, 0.0, 1.0, 0.5))
        payload = collector.to_arrays()
        _, ids = payload[1]
        ids[1] = bad
        with pytest.raises(ReproError):
            LatencyCollector.from_arrays(payload)

    def test_ragged_columns_raise(self):
        schema = Schema(("float64", TABLE, OBJECT))
        payload = encode_columns([(1.0, "a", None), (2.0, "b", None)], schema)
        payload[2] = payload[2][:1]
        with pytest.raises(ReproError):
            decode_columns(payload, schema, lambda *row: row)

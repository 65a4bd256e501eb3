"""Morsel-wise physical operators.

Operators come in two flavours:

* **transforms** consume a batch and produce a batch (filter, project,
  hash-join probe, semi/anti-join probe);
* **sinks** terminate a pipeline and materialise state for later
  pipelines (hash-join build, hash aggregation, scalar aggregation,
  top-k, plain collection).

All operators are vectorised over numpy arrays.  Grouping, join tables
and distinct keys share one dense-or-sort rule (:func:`dense_presence`):
keys in a small span are counted over a table indexed by ``key - low``,
so a join lookup is one bounded gather; wide spans are sorted.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.relation import Batch, batch_length, filter_batch
from repro.errors import EngineError


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------
class Transform(abc.ABC):
    """A batch-to-batch operator."""

    @abc.abstractmethod
    def apply(self, batch: Batch) -> Batch:
        """Process one batch; may shrink or extend it."""


class Filter(Transform):
    """Keep rows satisfying a predicate."""

    def __init__(self, predicate: Expr) -> None:
        self.predicate = predicate

    def apply(self, batch: Batch) -> Batch:
        mask = self.predicate.evaluate(batch)
        return filter_batch(batch, mask)


class Project(Transform):
    """Compute a new set of columns from expressions."""

    def __init__(self, outputs: Dict[str, Expr]) -> None:
        if not outputs:
            raise EngineError("projection needs at least one output")
        self.outputs = outputs

    def apply(self, batch: Batch) -> Batch:
        return {name: expr.evaluate(batch) for name, expr in self.outputs.items()}


class JoinTable:
    """A build-side 'hash table' over a unique integer key column.

    Dense keys get a rank table, ``rank[key - low]`` = build row, ``-1``
    for absent keys and in one trailing slot that every probe outside
    ``[low, high]`` is clamped onto: a lookup is one bounded gather.
    Wide spans keep the keys sorted and binary-search them.
    """

    def __init__(self, key_column: str, payload: Batch) -> None:
        keys = payload.get(key_column)
        if keys is None:
            raise EngineError(f"build payload lacks key column {key_column!r}")
        self.n_rows = len(keys)
        self._rank: Optional[np.ndarray] = None
        present = None
        if self.n_rows and keys.dtype.kind == "i":
            self._low = int(keys.min())
            codes = keys - self._low
            present = dense_presence(codes, int(keys.max()) - self._low + 1)
        if present is not None:
            unique = np.count_nonzero(present) == self.n_rows
            self._rank = np.full(len(present) + 1, -1, dtype=np.intp)
            self._rank[codes] = np.arange(self.n_rows)
            self._payload = dict(payload)
        else:
            order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[order]
            unique = not np.any(self._sorted_keys[1:] == self._sorted_keys[:-1])
            self._payload = {name: array[order] for name, array in payload.items()}
        if not unique:
            raise EngineError(f"join key {key_column!r} is not unique on the build side")

    def lookup(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (probe mask, build-row indices) for matching rows."""
        if self._rank is not None:
            # Wrapped differences land outside [0, span) too: a probe
            # equals a key exactly when they agree modulo 2**64.
            codes = np.subtract(probe_keys, self._low, dtype=np.int64).view(np.uint64)
            rows = self._rank[np.minimum(codes, len(self._rank) - 1, out=codes)]
            mask = rows >= 0
            return mask, rows[mask]
        if self.n_rows == 0:
            return np.zeros(len(probe_keys), dtype=bool), np.empty(0, dtype=np.int64)
        positions = np.searchsorted(self._sorted_keys, probe_keys)
        positions_clipped = np.minimum(positions, self.n_rows - 1)
        mask = self._sorted_keys[positions_clipped] == probe_keys
        return mask, positions_clipped[mask]

    def contains(self, probe_keys: np.ndarray) -> np.ndarray:
        """Membership mask (for semi/anti joins)."""
        mask, _ = self.lookup(probe_keys)
        return mask

    def gather(self, build_indices: np.ndarray, columns: List[str]) -> Batch:
        """Fetch payload columns for matched build rows."""
        return {name: self._payload[name][build_indices] for name in columns}


class HashJoinProbe(Transform):
    """Inner join: extend probe rows with build-side payload columns."""

    def __init__(
        self,
        table_ref: "LazyJoinTable",
        probe_key: str,
        payload_columns: List[str],
    ) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key
        self.payload_columns = payload_columns

    def apply(self, batch: Batch) -> Batch:
        table = self.table_ref.get()
        mask, build_indices = table.lookup(batch[self.probe_key])
        result = filter_batch(batch, mask)
        result.update(table.gather(build_indices, self.payload_columns))
        return result


class SemiJoinProbe(Transform):
    """Keep probe rows whose key exists on the build side."""

    def __init__(self, table_ref: "LazyJoinTable", probe_key: str) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key

    def apply(self, batch: Batch) -> Batch:
        mask = self.table_ref.get().contains(batch[self.probe_key])
        return filter_batch(batch, mask)


class AntiJoinProbe(Transform):
    """Keep probe rows whose key does NOT exist on the build side."""

    def __init__(self, table_ref: "LazyJoinTable", probe_key: str) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key

    def apply(self, batch: Batch) -> Batch:
        mask = self.table_ref.get().contains(batch[self.probe_key])
        return filter_batch(batch, np.logical_not(mask))


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class Sink(abc.ABC):
    """A pipeline terminator accumulating state across morsels."""

    #: Whether this sink can emit result rows per morsel instead of
    #: materializing them: ``True`` only for sinks whose per-morsel
    #: output *is* final result rows (:class:`CollectSink`).  Pipeline
    #: breakers (joins' build sides, aggregates, sorts, top-k) must see
    #: all input before producing anything and stay ``False``.
    streams_rows = False

    @abc.abstractmethod
    def consume(self, batch: Batch) -> None:
        """Fold one batch into the sink state."""

    def finalize(self) -> None:
        """Hook run during task-set finalization (may be a no-op)."""


class LazyJoinTable:
    """Holder wiring a build sink to the probes of later pipelines."""

    def __init__(self) -> None:
        self._table: Optional[JoinTable] = None

    def set(self, table: JoinTable) -> None:
        self._table = table

    def get(self) -> JoinTable:
        if self._table is None:
            raise EngineError(
                "join table probed before its build pipeline finalized"
            )
        return self._table


class HashJoinBuildSink(Sink):
    """Materialise build-side rows; produce the JoinTable on finalize."""

    def __init__(self, key_column: str, payload_columns: List[str], out: LazyJoinTable) -> None:
        self.key_column = key_column
        self.payload_columns = sorted(set(payload_columns) | {key_column})
        self.out = out
        self._parts: List[Batch] = []

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.payload_columns})

    def finalize(self) -> None:
        if self._parts:
            merged = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.payload_columns
            }
        else:
            merged = {name: np.empty(0, dtype=np.int64) for name in self.payload_columns}
        self.out.set(JoinTable(self.key_column, merged))
        self._parts = []


def dense_presence(codes: np.ndarray, span: int) -> Optional[np.ndarray]:
    """The engine's one dense-or-sort rule.

    Integer ``codes`` in ``[0, span)`` are counted when the span is small
    against their number — at most ``max(65 536, 4·n)`` — and sorted
    otherwise.  Returns the presence table over the span, or ``None``
    where sorting is cheaper.
    """
    if span > max(65_536, 4 * len(codes)):
        return None
    present = np.zeros(span, dtype=bool)
    present[codes] = True
    return present


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``: sorted distinct values of the same dtype,
    counted over the presence table where the span is dense."""
    if len(keys) and keys.dtype.kind == "i":
        low = int(keys.min())
        present = dense_presence(keys - low, int(keys.max()) - low + 1)
        if present is not None:
            return (np.flatnonzero(present) + low).astype(keys.dtype, copy=False)
    return np.unique(keys)


def _group_rows(keys: List[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Group rows by ``int64`` key columns.

    Returns the distinct key rows (as columns, in lexicographic order)
    and every input row's group index.  The columns fold into one
    mixed-radix code whose order is the rows' lexicographic order; the
    code is grouped by :func:`dense_presence`' rule, counting or sorting,
    and a span no ``int64`` can hold falls back to a row-wise sort.
    """
    lows = [int(column.min()) for column in keys]
    # Python ints: the product of the spans must not wrap.
    spans = [int(column.max()) - low + 1 for column, low in zip(keys, lows)]
    span = math.prod(spans)
    if span > np.iinfo(np.int64).max:
        rows, inverse = np.unique(
            np.stack(keys, axis=1), axis=0, return_inverse=True
        )
        # numpy 2.0.x returns an (n, 1) inverse for axis=0.
        return list(rows.T), inverse.reshape(-1)
    code = keys[0] - lows[0]
    for column, low, width in zip(keys[1:], lows[1:], spans[1:]):
        code = code * width + (column - low)
    present = dense_presence(code, span)
    if present is not None:
        codes = np.flatnonzero(present)
        rank = np.empty(span, dtype=np.intp)
        rank[codes] = np.arange(len(codes))
        inverse = rank[code]
    else:
        codes, inverse = np.unique(code, return_inverse=True)
    uniques = []
    for low, width in zip(reversed(lows), reversed(spans)):
        uniques.append(codes % width + low)
        codes = codes // width
    return uniques[::-1], inverse


class HashAggregateSink(Sink):
    """Group-by aggregation with SUM / MIN / MAX / AVG / COUNT aggregates.

    State is columnar end to end.  ``consume`` reduces its morsel to one
    *partial* — distinct key rows, one array per aggregate, counts — and
    appends it; nothing in it runs per group.  ``finalize`` is the
    paper's task-set finalization step (§2.3): it merges the partial
    aggregates once, by the same grouping and scatter a morsel uses.

    Partials are merged in arrival order and the scatters
    (``ufunc.at``) apply in index order, so a group's sum is the float
    sequence ``0.0 + p1 + p2 + ...`` over its partials whether they are
    merged one by one, all at once or in stages (``0.0 + x == x``):
    results are bit-identical at any fixed morsel split.

    ``avgs`` are kept as (sum, count) pairs, which is the only
    decomposition that merges correctly across morsels.
    """

    #: ``consume`` merges early once this many partial groups — and more
    #: than the merged state holds — are pending, which bounds the state
    #: by the group count instead of the input size at O(1) per group.
    _COMPACT_GROUPS = 1 << 18

    def __init__(
        self,
        group_columns: List[str],
        sums: Dict[str, Expr],
        count_alias: Optional[str] = None,
        mins: Optional[Dict[str, Expr]] = None,
        maxs: Optional[Dict[str, Expr]] = None,
        avgs: Optional[Dict[str, Expr]] = None,
    ) -> None:
        if not group_columns:
            raise EngineError("use ScalarAggregateSink for global aggregates")
        self.group_columns = group_columns
        self.sums = sums
        self.mins = mins or {}
        self.maxs = maxs or {}
        self.avgs = avgs or {}
        self.count_alias = count_alias
        #: (expression, scatter ufunc, identity) per aggregate column,
        #: in result order; an avg accumulates its sum.
        self._aggregates = (
            [(expr, np.add, 0.0) for expr in self.sums.values()]
            + [(expr, np.minimum, np.inf) for expr in self.mins.values()]
            + [(expr, np.maximum, -np.inf) for expr in self.maxs.values()]
            + [(expr, np.add, 0.0) for expr in self.avgs.values()]
        )
        #: (key columns, aggregate columns, counts) per consumed morsel,
        #: in arrival order; at most one entry once finalized.
        self._partials: List[Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]] = []
        self._pending_groups = 0

    def _reduce(self, keys, values, counts):
        """One partial from rows: group by key, scatter in row order."""
        uniques, inverse = _group_rows(keys)
        n_groups = len(uniques[0])
        columns = []
        for (_, ufunc, identity), column in zip(self._aggregates, values):
            acc = np.full(n_groups, identity)
            ufunc.at(acc, inverse, column)
            columns.append(acc)
        total = np.zeros(n_groups, dtype=np.int64)
        np.add.at(total, inverse, counts)
        return uniques, columns, total

    def consume(self, batch: Batch) -> None:
        if batch_length(batch) == 0:
            return
        partial = self._reduce(
            [batch[c].astype(np.int64, copy=False) for c in self.group_columns],
            [expr.evaluate(batch) for expr, _, _ in self._aggregates],
            1,
        )
        self._partials.append(partial)
        self._pending_groups += len(partial[2])
        if self._pending_groups > max(self._COMPACT_GROUPS, len(self._partials[0][2])):
            self.finalize()

    def finalize(self) -> None:
        """Merge the partials into one (idempotent)."""
        if len(self._partials) > 1:
            keys, values, counts = zip(*self._partials)
            merged = self._reduce(
                [np.concatenate(columns) for columns in zip(*keys)],
                [np.concatenate(columns) for columns in zip(*values)],
                np.concatenate(counts),
            )
            self._partials = [merged]
        self._pending_groups = 0

    def result_columns(self) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        """(key columns, aggregate columns, counts), groups in key order.

        Aggregate columns come as sums, mins, maxs, avgs — the order of
        :meth:`result_rows`.
        """
        self.finalize()
        if not self._partials:
            return (
                [np.empty(0, dtype=np.int64) for _ in self.group_columns],
                [np.empty(0) for _ in self._aggregates],
                np.empty(0, dtype=np.int64),
            )
        keys, values, counts = self._partials[0]
        first_avg = len(values) - len(self.avgs)
        return (
            keys,
            values[:first_avg] + [column / counts for column in values[first_avg:]],
            counts,
        )

    def result_rows(self) -> List[Tuple]:
        """(group key..., sums..., mins..., maxs..., avgs..., count) rows
        sorted by group key."""
        keys, values, counts = self.result_columns()
        columns = keys + values
        if self.count_alias is not None:
            columns.append(counts)
        return list(zip(*(column.tolist() for column in columns)))


class ScalarAggregateSink(Sink):
    """Global SUM / COUNT aggregates without grouping."""

    def __init__(self, sums: Dict[str, Expr]) -> None:
        self.sums = sums
        self.totals: Dict[str, float] = {alias: 0.0 for alias in sums}
        self.count = 0

    def consume(self, batch: Batch) -> None:
        n = batch_length(batch)
        if n == 0:
            return
        self.count += n
        for alias, expr in self.sums.items():
            self.totals[alias] += float(np.sum(expr.evaluate(batch)))


class TopKSink(Sink):
    """Keep the k rows with the largest sort-key value."""

    def __init__(self, sort_column: str, k: int, payload_columns: List[str]) -> None:
        if k <= 0:
            raise EngineError("top-k needs k >= 1")
        self.sort_column = sort_column
        self.k = k
        self.payload_columns = sorted(set(payload_columns) | {sort_column})
        self._best: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch) == 0:
            return
        part = {name: np.asarray(batch[name]) for name in self.payload_columns}
        if self._best is not None:
            part = {
                name: np.concatenate([self._best[name], part[name]])
                for name in self.payload_columns
            }
        keys = part[self.sort_column]
        if len(keys) > self.k:
            top = np.argpartition(keys, len(keys) - self.k)[-self.k:]
            part = {name: array[top] for name, array in part.items()}
        self._best = part

    def result_rows(self) -> List[Tuple]:
        """The top-k rows, sorted descending by the sort key."""
        if self._best is None:
            return []
        order = np.argsort(self._best[self.sort_column])[::-1]
        names = self.payload_columns
        return [
            tuple(self._best[name][i] for name in names) for i in order
        ]


class SortSink(Sink):
    """Materialise all rows and sort them on finalize (full ORDER BY).

    Partial batches are collected during execution; finalization performs
    the sort — the engine analogue of the paper's "shuffling of
    partitions during sorting" finalization step.
    """

    def __init__(
        self,
        sort_columns: List[str],
        payload_columns: List[str],
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        if not sort_columns:
            raise EngineError("ORDER BY needs at least one sort column")
        self.sort_columns = sort_columns
        self.payload_columns = sorted(set(payload_columns) | set(sort_columns))
        self.descending = descending
        self.limit = limit
        self._parts: List[Batch] = []
        self._sorted: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.payload_columns})

    def finalize(self) -> None:
        if self._parts:
            merged = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.payload_columns
            }
        else:
            merged = {name: np.empty(0) for name in self.payload_columns}
        keys = [merged[c] for c in reversed(self.sort_columns)]
        order = np.lexsort(keys)
        if self.descending:
            order = order[::-1]
        if self.limit is not None:
            order = order[: self.limit]
        self._sorted = {name: array[order] for name, array in merged.items()}
        self._parts = []

    def result_rows(self) -> List[Tuple]:
        """Rows in sort order, columns in payload order."""
        if self._sorted is None:
            raise EngineError("SortSink read before finalization")
        n = batch_length(self._sorted)
        names = self.payload_columns
        return [tuple(self._sorted[name][i] for name in names) for i in range(n)]


class CollectSink(Sink):
    """Materialise all rows (small results / intermediate views)."""

    streams_rows = True

    def __init__(self, columns: List[str]) -> None:
        self.columns = columns
        self._parts: List[Batch] = []
        self.result: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.columns})

    def finalize(self) -> None:
        if self._parts:
            self.result = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.columns
            }
        else:
            self.result = {name: np.empty(0) for name in self.columns}
        self._parts = []


class ChannelSink(Sink):
    """Stream result rows into a bounded channel, morsel by morsel.

    Wraps a :class:`CollectSink` of a query's *final* pipeline when the
    caller opened a result channel: each consumed batch leaves the
    engine immediately as one ``rows`` chunk instead of joining a
    private buffer, so peak result memory is bounded by the channel
    capacity regardless of output size.  The chunks are exactly the
    batches the collect sink would have buffered, in the same order —
    reassembling them reproduces its materialized result bit for bit.

    On a full *blocking* channel ``consume`` parks the producing worker
    thread inside the morsel; the stride scheduler keeps charging that
    query's CPU time, so a slow consumer naturally deprioritizes its
    own query (backpressure through the scheduler, §2 resource groups).
    """

    streams_rows = True

    def __init__(self, inner: CollectSink, channel) -> None:
        self.inner = inner
        self.channel = channel

    @property
    def columns(self) -> List[str]:
        return self.inner.columns

    def consume(self, batch: Batch) -> None:
        rows = batch_length(batch)
        if rows:
            self.channel.put_rows(
                {name: batch[name] for name in self.inner.columns}, rows
            )

    def finalize(self) -> None:
        # An empty result still needs one chunk so the assembled value
        # matches CollectSink's empty-column batch.
        if self.channel.chunks_put == 0:
            self.channel.put_rows(
                {name: np.empty(0) for name in self.inner.columns}, 0
            )

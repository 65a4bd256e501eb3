"""Columnar relations.

A :class:`Relation` is an ordered set of equally long numpy columns.
String columns are dictionary-encoded: the relation stores ``int32``
codes plus a per-column list of distinct values, which is both how
analytical engines store low-cardinality strings and what keeps the
pure-numpy operators vectorisable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import EngineError

#: A batch is the unit flowing through operators: column name -> array.
Batch = Dict[str, np.ndarray]


class Relation:
    """An immutable columnar table."""

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        dictionaries: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        if not columns:
            raise EngineError("a relation needs at least one column")
        lengths = {name: len(array) for name, array in columns.items()}
        distinct = set(lengths.values())
        if len(distinct) != 1:
            raise EngineError(f"ragged columns: {lengths}")
        self._columns = dict(columns)
        self._dictionaries = dict(dictionaries or {})
        self._n_rows = distinct.pop()
        for name in self._dictionaries:
            if name not in self._columns:
                raise EngineError(f"dictionary for unknown column {name!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def column_names(self) -> List[str]:
        """Column names in definition order."""
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """The backing array of one column."""
        try:
            return self._columns[name]
        except KeyError:
            raise EngineError(
                f"unknown column {name!r}; have {self.column_names}"
            ) from None

    def has_column(self, name: str) -> bool:
        """Whether the relation contains ``name``."""
        return name in self._columns

    def dictionary(self, name: str) -> Optional[List[str]]:
        """The value dictionary of a string column (``None`` if numeric)."""
        return self._dictionaries.get(name)

    def encode_value(self, column: str, value: str) -> int:
        """Translate a string literal into its dictionary code.

        Raises if the value does not occur — predicates on non-existent
        values should fail loudly during plan building, not silently
        return empty results at runtime.
        """
        dictionary = self._dictionaries.get(column)
        if dictionary is None:
            raise EngineError(f"column {column!r} is not dictionary-encoded")
        try:
            return dictionary.index(value)
        except ValueError:
            raise EngineError(
                f"value {value!r} not present in column {column!r}"
            ) from None

    # ------------------------------------------------------------------
    # Morsel access
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int, names: Optional[Sequence[str]] = None) -> Batch:
        """Zero-copy views of rows [start, stop) for selected columns."""
        if not 0 <= start <= stop <= self._n_rows:
            raise EngineError(f"bad slice [{start}, {stop}) of {self._n_rows} rows")
        wanted: Iterable[str] = names if names is not None else self._columns
        return {name: self.column(name)[start:stop] for name in wanted}

    def take(self, indices: np.ndarray, names: Optional[Sequence[str]] = None) -> Batch:
        """Gather arbitrary rows (used by hash-join probes)."""
        wanted: Iterable[str] = names if names is not None else self._columns
        return {name: self.column(name)[indices] for name in wanted}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self._n_rows} rows, {len(self._columns)} columns)"


def batch_length(batch: Batch) -> int:
    """Row count of a batch (0 for an empty one)."""
    for array in batch.values():
        return len(array)
    return 0


def filter_batch(batch: Batch, mask: np.ndarray) -> Batch:
    """Apply a boolean selection mask to every column: the mask becomes
    row indices once, and each column is gathered through them."""
    rows = np.flatnonzero(mask)
    return {name: array.take(rows) for name, array in batch.items()}

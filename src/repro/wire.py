"""The one wire codec: rows of Python values as flat columns.

What crosses the process pipe in bulk (a workload, latency records,
streamed result chunks) is a list of rows.  A :class:`Schema` names one
field kind per row position: a numpy dtype name (one flat array, which
pickle protocol 5 ships out-of-band), :data:`TABLE` (values deduplicated
by value into a first-appearance table plus ``int32`` ids) or
:data:`OBJECT` (a plain list).  Decoding uses ``.tolist()``, which gives
back the exact Python ``float``, ``int`` and ``bool`` values, so the
round trip is bit-lossless.  A table id outside the table or ragged
columns raise the schema's error instead of decoding to a wrong row.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Tuple, Type

import numpy as np

from repro.errors import ReproError

TABLE = "table"
OBJECT = "object"


class Schema(NamedTuple):
    """One field kind per row position, and the error a bad payload raises."""

    fields: Tuple[str, ...]
    error: Type[ReproError] = ReproError


def encode_columns(rows: Iterable[tuple], schema: Schema) -> list:
    """``rows`` as one column per schema field."""
    rows = list(rows)
    columns = zip(*rows) if rows else [()] * len(schema.fields)
    out = []
    for kind, column in zip(schema.fields, columns):
        if kind == TABLE:
            index: dict = {}
            ids = [index.setdefault(value, len(index)) for value in column]
            out.append((list(index), np.array(ids, dtype=np.int32)))
        else:
            out.append(list(column) if kind == OBJECT else np.array(column, kind))
    return out


def decode_columns(payload: list, schema: Schema, make: Callable) -> List:
    """Inverse of :func:`encode_columns`: ``make(*row)`` for every row."""
    columns = []
    for kind, column in zip(schema.fields, payload):
        if kind == TABLE:
            table, ids = column
            if len(ids) and not (0 <= ids.min() and ids.max() < len(table)):
                raise schema.error("corrupt payload: table id out of range")
            column = [table[i] for i in ids.tolist()]
        elif kind != OBJECT:
            column = column.tolist()
        columns.append(column)
    if len(columns) != len(schema.fields) or len(set(map(len, columns))) > 1:
        raise schema.error("corrupt payload: columns do not match the schema")
    return [make(*row) for row in zip(*columns)]

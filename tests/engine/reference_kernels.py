"""The engine kernels the dense-key ones replaced — kept as the
references the identity tests compare against.

* :class:`ReferenceJoinTable` is the previous
  ``repro.engine.operators.JoinTable`` verbatim (class name aside): the
  build keys are sorted and every lookup binary-searches them.
* :func:`reference_filter_batch` is the previous
  ``repro.engine.relation.filter_batch``: one boolean mask per column.
* :func:`reference_distinct_keys` is what Q4 and Q22 called before
  ``distinct_keys``: ``np.unique``.
"""

from typing import List, Tuple

import numpy as np

from repro.engine.relation import Batch
from repro.errors import EngineError


class ReferenceJoinTable:
    """A build-side 'hash table' over a unique integer key column.

    Keys are stored sorted; lookups binary-search them.  Payload columns
    are gathered through the matching build-row indices.
    """

    def __init__(self, key_column: str, payload: Batch) -> None:
        keys = payload.get(key_column)
        if keys is None:
            raise EngineError(f"build payload lacks key column {key_column!r}")
        order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[order]
        if len(self.sorted_keys) > 1 and np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1]
        ):
            raise EngineError(
                f"join key {key_column!r} is not unique on the build side"
            )
        self.key_column = key_column
        self._payload = {name: array[order] for name, array in payload.items()}

    @property
    def n_rows(self) -> int:
        """Build-side cardinality."""
        return len(self.sorted_keys)

    def lookup(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (probe mask, build-row indices) for matching rows."""
        if len(self.sorted_keys) == 0:
            return np.zeros(len(probe_keys), dtype=bool), np.empty(0, dtype=np.int64)
        positions = np.searchsorted(self.sorted_keys, probe_keys)
        positions_clipped = np.minimum(positions, len(self.sorted_keys) - 1)
        mask = self.sorted_keys[positions_clipped] == probe_keys
        return mask, positions_clipped[mask]

    def contains(self, probe_keys: np.ndarray) -> np.ndarray:
        """Membership mask (for semi/anti joins)."""
        mask, _ = self.lookup(probe_keys)
        return mask

    def gather(self, build_indices: np.ndarray, columns: List[str]) -> Batch:
        """Fetch payload columns for matched build rows."""
        return {name: self._payload[name][build_indices] for name in columns}


def reference_filter_batch(batch: Batch, mask: np.ndarray) -> Batch:
    """Apply a boolean selection mask to every column."""
    return {name: array[mask] for name, array in batch.items()}


def reference_distinct_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys by sorting."""
    return np.unique(keys)

"""Row deduplication through packed int64 keys.

Edges, faces and cells are short rows of vertex ids.  Deduplicating them with
``np.unique(rows, axis=0)`` sorts a structured view of the rows, which is
several times slower than sorting one integer per row.  A row ``(a, b, c)``
over ids below ``n`` packs into the key ``(a*n + b)*n + c``; the keys sort in
exactly the lexicographic order of the rows, so a stable argsort of the keys
followed by a read of the run boundaries reproduces ``np.unique(axis=0,
return_index=True, return_counts=True)`` bit for bit.  When ``n**k`` would
overflow int64 (hexahedral quad faces above 55,108 vertices, pairs of ids
near ``2**32``) the rows are sorted with ``np.lexsort`` over their columns
instead, which is slower but has the same output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fits_int64", "run_starts", "unique_rows"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def fits_int64(n: int, k: int) -> bool:
    """True when every ``k``-column row over ids ``< n`` packs into one int64 key."""
    return int(n) ** k - 1 <= _INT64_MAX


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first entry of every run of equal sorted keys."""
    first = np.empty(sorted_keys.shape[0], dtype=bool)
    if first.size:
        first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def unique_rows(rows: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of a non-negative ``(m, k)`` int array.

    Returns ``(first_index, counts)``: the distinct rows in lexicographic
    order are ``rows[first_index]``, ``first_index[i]`` is the position of
    the first occurrence of that row and ``counts[i]`` its multiplicity —
    the ``return_index``/``return_counts`` outputs of
    ``np.unique(rows, axis=0)``.  ``n`` bounds the ids (default: the largest
    id plus one).
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, k = rows.shape
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n is None:
        n = int(rows.max()) + 1
    if fits_int64(n, k):
        # Written column by column: one int64 per row, no wider temporary.
        keys = rows[:, 0].copy()
        for column in range(1, k):
            keys *= n
            keys += rows[:, column]
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(run_starts(keys[order]))
    else:
        # np.lexsort is stable and sorts by its last key first.
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        boundary = np.ones(m, dtype=bool)
        boundary[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, m))
    return order[starts], counts

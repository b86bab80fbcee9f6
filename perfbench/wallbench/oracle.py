"""The benchmark's own answer checks.

Nothing here calls the program.  Top-k answers are checked against a
numpy ``lexsort`` on (value descending, index ascending).  The
descending key is the bitwise complement for integers and negation for
floats: ``~x`` orders every signed and unsigned integer in reverse
without the overflow that negating ``iinfo(int64).min`` would hit.

An answer is correct when its values equal the oracle's in rank order
and its indices name distinct rows holding those values.  Whether tied
values also come in index-ascending order is reported apart, as a tie
order deviation, since ``topk`` promises no order among equal values.
"""

from __future__ import annotations

import numpy as np


def descending_key(values: np.ndarray) -> np.ndarray:
    """Keys whose ascending order is the descending order of ``values``."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return ~values
    if values.dtype.kind == "f":
        return -values.astype(np.float64)
    raise TypeError(f"no descending key for dtype {values.dtype}")


def topk_order(values: np.ndarray, k: int, ids: np.ndarray | None = None):
    """Positions of the k best entries: value descending, then id
    (default: position) ascending."""
    values = np.asarray(values)
    ids = np.arange(len(values)) if ids is None else np.asarray(ids)
    return np.lexsort((ids, descending_key(values)))[:k]


def topk(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, indices) of the exact top-k of a 1-D array."""
    order = topk_order(values, k)
    return np.asarray(values)[order], order


def compare_topk(got_values, got_ids, want_values, want_ids, lookup):
    """Check a top-k answer against the oracle's.

    The answer is correct when its values equal the oracle's in rank
    order and its ids name distinct rows that hold those values
    (``lookup(ids)`` returns the values at ``ids``, or None when an id
    names no row).  Equal values may come in any id order; whether the
    ids also follow the oracle's index-ascending tie order is returned
    separately.  Returns (problem or None, canonical tie order).
    """
    got_values = np.asarray(got_values)
    got_ids = np.asarray(got_ids)
    if got_values.shape != want_values.shape or got_ids.shape != want_ids.shape:
        return f"shape {got_values.shape} != expected {want_values.shape}", False
    if not np.array_equal(got_values, want_values):
        first = int(np.flatnonzero(got_values != want_values)[0])
        return (
            f"value[{first}] = {got_values[first]!r}, "
            f"expected {want_values[first]!r}"
        ), False
    if len(np.unique(got_ids)) != len(got_ids):
        return "an index is returned twice", False
    held = lookup(got_ids)
    if held is None or not np.array_equal(held, got_values):
        return "an index does not hold the value returned for it", False
    return None, bool(np.array_equal(got_ids, want_ids))


def array_lookup(data: np.ndarray):
    """``lookup`` for :func:`compare_topk` over a plain array."""

    def lookup(ids):
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu" or ((ids < 0) | (ids >= len(data))).any():
            return None
        return data[ids]

    return lookup


def check_sql_rows(
    rows: np.ndarray,
    where: np.ndarray,
    rank: np.ndarray,
    limit: int,
) -> str | None:
    """Check a ``WHERE ... ORDER BY rank DESC LIMIT limit`` answer.

    ``rows`` are the table rows the query returned, ``where`` the boolean
    mask of rows satisfying its WHERE clause and ``rank`` the ORDER BY
    value of every row.  The answer must name distinct rows that satisfy
    the WHERE clause, and its ORDER BY values must equal the true
    top-``limit`` ORDER BY values as a multiset.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) != min(limit, int(where.sum())):
        return f"{len(rows)} rows returned, expected {min(limit, int(where.sum()))}"
    if len(np.unique(rows)) != len(rows):
        return "duplicate rows returned"
    if rows.min(initial=0) < 0 or rows.max(initial=0) >= len(where):
        return "row id out of range"
    if not where[rows].all():
        return f"{int((~where[rows]).sum())} returned rows fail the WHERE clause"
    candidates = np.flatnonzero(where)
    best = candidates[topk_order(rank[candidates], limit)]
    if not np.array_equal(np.sort(rank[rows]), np.sort(rank[best])):
        return "ORDER BY values differ from the true top-LIMIT multiset"
    return None


def check_group_counts(
    keys: np.ndarray, counts: np.ndarray, column: np.ndarray, limit: int
) -> str | None:
    """Check a ``GROUP BY key ORDER BY COUNT() DESC LIMIT limit`` answer:
    distinct keys, each with its true count, whose counts equal the true
    top-``limit`` counts as a multiset."""
    keys = np.asarray(keys)
    counts = np.asarray(counts, dtype=np.int64)
    uniques, true_counts = np.unique(column, return_counts=True)
    if len(keys) != min(limit, len(uniques)):
        return f"{len(keys)} groups returned, expected {min(limit, len(uniques))}"
    if len(np.unique(keys)) != len(keys):
        return "duplicate group keys returned"
    slots = np.searchsorted(uniques, keys)
    slots = np.minimum(slots, len(uniques) - 1)
    if not np.array_equal(uniques[slots], keys):
        return "a returned group key does not occur in the column"
    if not np.array_equal(true_counts[slots], counts):
        return "a returned count differs from the key's true count"
    best = np.sort(true_counts)[::-1][:limit]
    if not np.array_equal(np.sort(counts)[::-1], best):
        return "counts differ from the true top-LIMIT multiset"
    return None

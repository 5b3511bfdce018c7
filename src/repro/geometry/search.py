"""Pair search over rectangle columns.

:func:`close_pairs` finds every pair of rectangles, given as coordinate
columns, that come within a margin of each other in both axes.  It is
the one candidate search of the verification engines: wire spacing,
shorts, active and placement overlaps, and the touching wires of the net
graph all run on it.

A sweep sorts the rows by ``(group, lo)`` and bounds each row's
candidates (the rows after it, in its group, starting before its reach)
with one ``searchsorted``.  Each group sweeps along the axis that gives
it fewer candidates: long horizontal straps sweep by y, tall rails and
stubs by x.  That keeps the candidates near the pairs found, instead of
growing with the square of a layer's shape count.
"""

from __future__ import annotations

import numpy as np


def _sweep(
    lo: np.ndarray, reach: np.ndarray, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, candidate count per sorted row)`` of a sweep along one axis."""
    order = np.lexsort((lo, group))
    # Each group owns one ``span``-wide band of the sort key, so a row's
    # reach never spills into the next group.
    span = int(reach.max()) - int(lo.min()) + 1
    band = group[order] * span - lo.min()
    hi = np.searchsorted(band + lo[order], band + reach[order], side="right")
    return order, hi - np.arange(1, len(lo) + 1)


def _candidates(
    order: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pairs of a sweep, as row indices."""
    offsets = np.cumsum(counts) - counts
    first = np.repeat(np.arange(len(counts)), counts)
    second = np.arange(int(counts.sum())) + np.repeat(
        np.arange(1, len(counts) + 1) - offsets, counts
    )
    return order[first], order[second]


def close_pairs(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    margin: int | np.ndarray = 0,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of rectangles that come within ``margin`` in both axes.

    Pairs come back in the order of an x sweep: rows sorted by
    ``(group, x0)``, stably, so ties keep their input order.  A pair's
    first member is the one that sorts first, and pairs are ordered by
    their first member's place, then their second's.

    Args:
        x0, y0, x1, y1: Integer rectangle corner columns.
        margin: Largest separation reported, one value or one per row
            (rows of one group share it); ``0`` reports touching or
            overlapping pairs only.
        group: Non-negative group id per row; pairs never cross groups.
            ``None`` puts every row in one group.

    Returns:
        ``(first, second)`` row indices of the pairs.
    """
    n = len(x0)
    gap = np.broadcast_to(np.asarray(margin, dtype=np.int64), (n,))
    if n == 0:
        return gap[:0], gap[:0]
    if group is None:
        group = np.zeros(n, dtype=np.int64)
    by_x, count_x = _sweep(x0, x1 + gap, group)
    by_y, count_y = _sweep(y0, y1 + gap, group)
    size = int(group.max()) + 1
    along_y = np.bincount(group[by_y], count_y, size) < np.bincount(
        group[by_x], count_x, size
    )
    ax, bx = _candidates(by_x, np.where(along_y[group[by_x]], 0, count_x))
    ay, by = _candidates(by_y, np.where(along_y[group[by_y]], count_y, 0))
    a, b = np.concatenate([ax, ay]), np.concatenate([bx, by])
    m = gap[a]
    near = (
        (x0[b] - x1[a] <= m) & (x0[a] - x1[b] <= m)
        & (y0[b] - y1[a] <= m) & (y0[a] - y1[b] <= m)
    )
    a, b = a[near], b[near]
    rank = np.empty(n, dtype=np.int64)
    rank[by_x] = np.arange(n)
    swap = rank[a] > rank[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    order = np.lexsort((rank[b], rank[a]))
    return a[order], b[order]


def first_seen(keys: np.ndarray) -> np.ndarray:
    """Rank of each row's key by first appearance (``0`` is seen first).

    A check that once filled a dict per key met the keys in this order;
    as :func:`close_pairs` groups, the ranks keep that order.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]

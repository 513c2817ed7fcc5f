"""Numerical kernels, one numpy path.

* :func:`pairwise_condensed` computes the condensed (row-major upper triangle) Euclidean
  distances of an n×p matrix and, on request, each point's least squared distance;
* :func:`cutoff_from_condensed` is the minimax scan over condensed entries;
* :func:`neighbors_within` gives every point's ordering within a radius,
  center first, in CSR form, from one sort of packed int64 keys (row,
  distance rank, column), which fit for n < 65 536;
* :func:`distances_from` gives the distances from one point to each of a
  set of points.

The O(n²) kernels work on blocks of rows: rows ``r..r1`` against the
columns ``r..n``, with rows per block chosen so a block holds at most
``_CELL_BUDGET`` cells. The condensed entries of a block of rows form one
contiguous segment, and a boolean upper-triangle mask over the block visits
its cells right of the diagonal in that segment's order. The mask depends
only on a cell's offset from the block's first row and column, so one mask
as tall as the tallest block serves every block of a call. The distance
and cut-off kernels therefore allocate no n×n array, and no kernel builds
an index array of n²/2 entries.

Squared differences accumulate feature by feature in ascending order in
both distance functions, so a distance has the same bits whichever of them
computes it (``(a - b)²`` equals ``(b - a)²`` exactly, so the order of a
pair does not matter either).
"""
from __future__ import annotations

import numpy as np

# Cells of one row block (256 KiB of float64), small enough to stay in cache.
_CELL_BUDGET = 1 << 15


def _row_blocks(n: int):
    """Yield ``(r, r1, lo, hi)``: rows ``r..r1`` and their condensed slice ``lo:hi``.

    Each block has at least one row and at most ``_CELL_BUDGET`` cells
    unless a single row is wider; the last row, which has no pair to its
    right, is in no block.
    """
    r = lo = 0
    while r < n - 1:
        r1 = min(n - 1, r + max(1, _CELL_BUDGET // (n - r)))
        hi = lo + (r1 - r) * (2 * n - r - r1 - 1) // 2
        yield r, r1, lo, hi
        r, lo = r1, hi


def _blocks(n: int) -> tuple[list, np.ndarray]:
    """The row blocks of ``n`` points and one mask of the cells right of the diagonal.

    The mask is as tall as the tallest block; block ``r..r1`` uses
    ``mask[: r1 - r, : n - r]``.
    """
    blocks = list(_row_blocks(n))
    rows = max((r1 - r for r, r1, _, _ in blocks), default=0)
    return blocks, np.arange(rows)[:, None] < np.arange(n)


def pairwise_condensed(coords: np.ndarray, nearest: np.ndarray | None = None) -> np.ndarray:
    """Condensed (row-major upper-triangle) Euclidean distances for an n×p matrix.

    Each block's squared sums, diagonal at inf, fold their row and column
    minima (as in :func:`cutoff_from_condensed`; cells left of the diagonal
    repeat the block's pairs) into ``nearest``, an inf-filled n-vector if
    given. ``sqrt`` is monotone, so its roots are the least entries per point.
    """
    # One contiguous row per feature.
    xt = np.ascontiguousarray(np.asarray(coords, dtype=np.float64).T)
    p, n = xt.shape
    out = np.empty(n * (n - 1) // 2)
    blocks, upper = _blocks(n)
    for r, r1, lo, hi in blocks:
        acc = np.subtract.outer(xt[0, r:r1], xt[0, r:])
        acc *= acc
        d = np.empty_like(acc)
        for k in range(1, p):
            np.subtract.outer(xt[k, r:r1], xt[k, r:], out=d)
            d *= d
            acc += d
        if nearest is not None:
            np.fill_diagonal(acc, np.inf)
            np.minimum(nearest[r:r1], acc.min(axis=1), out=nearest[r:r1])
            np.minimum(nearest[r:], acc.min(axis=0), out=nearest[r:])
        np.sqrt(acc[upper[: r1 - r, : n - r]], out=out[lo:hi])
    return out


def cutoff_from_condensed(entries: np.ndarray, n: int) -> float:
    """Minimax scan: max over points of the distance to their nearest other point.

    Each block's segment is scattered into an inf-padded block; its row
    minima cover the pairs right of each of its rows, its column minima the
    pairs above each later point.
    """
    nearest = np.full(n, np.inf)
    blocks, upper = _blocks(n)
    for r, r1, lo, hi in blocks:
        block = np.full((r1 - r, n - r), np.inf)
        block[upper[: r1 - r, : n - r]] = entries[lo:hi]
        np.minimum(nearest[r:r1], block.min(axis=1), out=nearest[r:r1])
        np.minimum(nearest[r:], block.min(axis=0), out=nearest[r:])
    return float(nearest.max())


# Keys (row·(D + 1) + rank)·n + column stay below n²·(D + 1) <= n⁴/2 < 2⁶³ for smaller n.
_MAX_NEIGHBOR_POINTS = 1 << 16


def neighbors_within(entries: np.ndarray, n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every point's ordering within ``radius``, center first, in CSR form.

    Point i's ordering is ``members[starts[i]:starts[i + 1]]``: i itself,
    then every j != i with d(i, j) <= radius, nearest first, ties (``-0.0``
    and ``0.0`` included) broken by index. The center leads even where a
    lower-index duplicate lies at distance 0. Only the condensed entries are
    read.

    The D distinct in-radius distances get the dense ranks 1..D and each
    center the rank 0, so the int64 key ``(row·(D + 1) + rank)·n + column``
    sorts like (row, distance, column); each in-radius pair is written as
    (i, j) and (j, i), each center as (i, i), and one sort of these unique
    keys orders every neighbourhood. The keys stay below n⁴/2, so n must be
    below 65 536, where the condensed vector alone already takes 17 GB; a
    larger n raises ``ValueError`` before anything is allocated. The ranks
    and the key are built in place and the index arrays are freed before
    the sort; where every pair is in radius the peak stays near 2.5 n×n
    float64 squares.
    """
    if n >= _MAX_NEIGHBOR_POINTS:
        raise ValueError(f"neighbour keys overflow int64 for n={n} >= {_MAX_NEIGHBOR_POINTS}")
    idx = np.flatnonzero(entries <= radius)
    m = idx.size
    # Dense ranks without np.unique's five temporaries: rank the sorted copy
    # in its own buffer, then scatter the ranks back to pair order.
    dist = entries[idx]
    order = dist.argsort()
    dist = dist[order]
    new_value = dist[1:] != dist[:-1]
    sorted_rank = dist.view(np.int64)
    sorted_rank[:1] = 1
    np.cumsum(new_value, out=sorted_rank[1:])
    sorted_rank[1:] += 1
    # w = D + 1 rank values per row, the centers' 0 included.
    w = int(sorted_rank[-1]) + 1 if m else 1
    rank = np.empty_like(idx)
    rank[order] = sorted_rank
    del dist, order, new_value, sorted_rank
    # Row r's entries start at r(2n - r - 1)/2, and idx is sorted, so the
    # rows are runs; idx becomes the column j.
    r = np.arange(n, dtype=np.int64)
    row_starts = r * (2 * n - r - 1) // 2
    i = np.repeat(r, np.diff(np.searchsorted(idx, row_starts), append=m))
    j = idx
    j -= row_starts[i]
    j += i
    j += 1
    key = np.empty(2 * m + n, dtype=np.int64)
    ij, ji, ii = key[:m], key[m : 2 * m], key[2 * m :]
    np.multiply(i, w, out=ij)
    ij += rank
    ij *= n
    ij += j
    np.multiply(j, w, out=ji)
    ji += rank
    ji *= n
    ji += i
    np.multiply(r, w * n + 1, out=ii)
    del idx, i, j, rank, ij, ji, ii
    key.sort()
    # Row r's keys are those from r·(D + 1)·n up to (r + 1)·(D + 1)·n.
    starts = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * (w * n))
    key %= n
    return starts, key


def distances_from(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distances from point ``x`` to each row of ``ys``."""
    acc = np.zeros(ys.shape[0])
    for k in range(x.shape[0]):
        d = x[k] - ys[:, k]
        acc += d * d
    return np.sqrt(acc)

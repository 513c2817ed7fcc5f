"""Numerical kernels, one numpy path.

* :func:`pairwise_condensed` computes the condensed (row-major upper
  triangle) Euclidean distances of an n×p matrix;
* :func:`square_from_condensed` fills a symmetric n×n array from condensed
  entries, block by block; only the stepwise baseline builds one;
* :func:`cutoff_from_condensed` is the minimax scan over condensed entries;
* :func:`neighbors_within` orders every point's neighbours within a radius
  with one sort of packed int64 keys (row, distance rank, column), which
  fit for n < 65 536;
* :func:`sq_distance` is the single-pair distance.

The O(n²) kernels work on blocks of rows: rows ``r..r1`` against the
columns ``r..n``, with rows per block chosen so a block holds at most
``_CELL_BUDGET`` cells. The condensed entries of a block of rows form one
contiguous segment, and a boolean upper-triangle mask over the block visits
its cells right of the diagonal in that segment's order. The mask depends
only on a cell's offset from the block's first row and column, so one mask
as tall as the tallest block serves every block of a call. The distance
and cut-off kernels therefore allocate no n×n array, the square builder
none besides its output, and no kernel builds an index array of n²/2
entries.

Squared differences accumulate feature by feature in ascending order in
both distance functions, so a distance has the same bits whichever of them
computes it.
"""
from __future__ import annotations

import math

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


def pairwise_condensed(coords: np.ndarray) -> np.ndarray:
    """Condensed (row-major upper-triangle) Euclidean distances for an n×p matrix."""
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
        np.sqrt(acc[upper[: r1 - r, : n - r]], out=out[lo:hi])
    return out


def square_from_condensed(entries: np.ndarray, n: int, diagonal: float) -> np.ndarray:
    """Symmetric n×n array of condensed entries, ``diagonal`` on the diagonal.

    Each row block's segment fills the block's cells right of the diagonal;
    the block is then mirrored below the diagonal, the part right of the
    block's own rows as one transposed copy and the in-block triangle
    through the transposed view.
    """
    square = np.empty((n, n))
    blocks, upper = _blocks(n)
    for r, r1, lo, hi in blocks:
        tri = upper[: r1 - r, : r1 - r]
        square[r:r1, r:][upper[: r1 - r, : n - r]] = entries[lo:hi]
        square[r1:, r:r1] = square[r:r1, r1:].T
        square[r:r1, r:r1].T[tri] = square[r:r1, r:r1][tri]
    np.fill_diagonal(square, diagonal)
    return square


def cutoff_from_condensed(entries: np.ndarray, n: int) -> float:
    """Minimax scan: max over points of the distance to their nearest other point.

    Each block's segment is scattered into an inf-padded block; its row
    minima cover the pairs to the right of each of its rows, its column
    minima the pairs above each later point, and both fold into one
    nearest-neighbour distance per point.
    """
    nearest = np.full(n, np.inf)
    blocks, upper = _blocks(n)
    for r, r1, lo, hi in blocks:
        block = np.full((r1 - r, n - r), np.inf)
        block[upper[: r1 - r, : n - r]] = entries[lo:hi]
        np.minimum(nearest[r:r1], block.min(axis=1), out=nearest[r:r1])
        np.minimum(nearest[r:], block.min(axis=0), out=nearest[r:])
    return float(nearest.max())


# Keys (row·D + rank)·n + column stay below n²·D <= n⁴/2 < 2⁶³ for smaller n.
_MAX_NEIGHBOR_POINTS = 1 << 16


def neighbors_within(entries: np.ndarray, n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every point's neighbours within ``radius``, by (distance, index), in CSR form.

    Point i's neighbours are ``members[starts[i]:starts[i + 1]]``: every
    j != i with d(i, j) <= radius, nearest first, ties (``-0.0`` and ``0.0``
    included) broken by index. Only the condensed entries are read.

    The D distinct in-radius distances get one dense rank each, so the int64
    key ``(row·D + rank)·n + column`` sorts like (row, distance, column);
    each in-radius pair is written as (i, j) and (j, i), and one sort of
    these unique keys orders every neighbourhood. The keys stay below
    n⁴/2, so n must be below 65 536, where the condensed vector alone
    already takes 17 GB; a larger n raises ``ValueError`` before anything
    is allocated. The ranks and the key are built in place and the index
    arrays are freed before the sort; where every pair is in radius the peak
    stays near 2.5 n×n float64 squares.
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
    sorted_rank[:1] = 0
    np.cumsum(new_value, out=sorted_rank[1:])
    d = int(sorted_rank[-1]) + 1 if m else 1
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
    key = np.empty(2 * m, dtype=np.int64)
    ij, ji = key[:m], key[m:]
    np.multiply(i, d, out=ij)
    ij += rank
    ij *= n
    ij += j
    np.multiply(j, d, out=ji)
    ji += rank
    ji *= n
    ji += i
    del idx, i, j, rank, ij, ji
    key.sort()
    # Row r's keys are those from r·D·n up to (r + 1)·D·n.
    starts = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * (d * n))
    key %= n
    return starts, key


def sq_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Single-pair Euclidean distance, same accumulation order as the kernels."""
    acc = 0.0
    for k in range(x.shape[0]):
        d = float(x[k]) - float(y[k])
        acc += d * d
    return math.sqrt(acc)

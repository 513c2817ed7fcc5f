"""Numerical kernels, one numpy path.

* :func:`pairwise_condensed` computes the condensed (row-major upper
  triangle) Euclidean distances of an n×p matrix;
* :func:`square_from_condensed` scatters condensed entries into a symmetric
  n×n array, the one square builder of the package;
* :func:`cutoff_from_condensed` is the minimax scan over condensed entries;
* :func:`sq_distance` is the single-pair distance.

The two O(n²) kernels work on blocks of rows: rows ``r..r1`` against the
columns ``r..n``, with rows per block chosen so a block holds at most
``_CELL_BUDGET`` cells. The condensed entries of a block of rows form one
contiguous segment, and a boolean upper-triangle mask over the block visits
its cells right of the diagonal in that segment's order. So neither kernel
allocates an n×n array or an index array of n²/2 entries.

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


def _upper(rows: int, cols: int) -> np.ndarray:
    """Mask of the cells right of the diagonal in a block of ``rows``×``cols``."""
    return np.arange(rows)[:, None] < np.arange(cols)


def pairwise_condensed(coords: np.ndarray) -> np.ndarray:
    """Condensed (row-major upper-triangle) Euclidean distances for an n×p matrix."""
    # One contiguous row per feature.
    xt = np.ascontiguousarray(np.asarray(coords, dtype=np.float64).T)
    p, n = xt.shape
    out = np.empty(n * (n - 1) // 2)
    for r, r1, lo, hi in _row_blocks(n):
        acc = np.subtract.outer(xt[0, r:r1], xt[0, r:])
        acc *= acc
        d = np.empty_like(acc)
        for k in range(1, p):
            np.subtract.outer(xt[k, r:r1], xt[k, r:], out=d)
            d *= d
            acc += d
        np.sqrt(acc[_upper(r1 - r, n - r)], out=out[lo:hi])
    return out


def square_from_condensed(entries: np.ndarray, n: int, diagonal: float) -> np.ndarray:
    """Symmetric n×n array of condensed entries, ``diagonal`` on the diagonal.

    A boolean upper-triangle mask visits its cells in row-major order, the
    order of condensed storage, and the same mask over the transposed view
    fills the lower triangle.
    """
    upper = _upper(n, n)
    square = np.empty((n, n))
    square[upper] = entries
    square.T[upper] = entries
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
    for r, r1, lo, hi in _row_blocks(n):
        block = np.full((r1 - r, n - r), np.inf)
        block[_upper(r1 - r, n - r)] = entries[lo:hi]
        np.minimum(nearest[r:r1], block.min(axis=1), out=nearest[r:r1])
        np.minimum(nearest[r:], block.min(axis=0), out=nearest[r:])
    return float(nearest.max())


def sq_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Single-pair Euclidean distance, same accumulation order as the kernels."""
    acc = 0.0
    for k in range(x.shape[0]):
        d = float(x[k]) - float(y[k])
        acc += d * d
    return math.sqrt(acc)

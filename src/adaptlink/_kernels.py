"""Numerical kernels, one numpy path.

* :func:`pairwise_condensed` computes the condensed (row-major upper triangle) Euclidean
  distances of an n×p matrix and each point's least squared distance;
* :func:`distance_square` computes the full symmetric n×n Euclidean
  distances, the stepwise baselines' working square;
* :func:`distances_from` gives the distances from one point to each of a
  set of points;
* :func:`cutoff_from_condensed` is the minimax scan over condensed entries,
  one row's run at a time, kept as the reference the pairwise kernel's
  fused minima are tested against;
* :func:`pairs_within` lists the ``(i, j, d)`` pairs of a condensed vector
  within a radius, and :func:`expand_copies` turns pairs of distinct values
  into pairs of the rows that hold them;
* :func:`neighbors_within` gives every point's ordering from such pairs,
  center first, in CSR form, from one sort of packed int64 keys (row,
  distance rank, column), which fit for n < 65 536.

The condensed kernel works on blocks of rows: rows ``r..r1`` against the
columns ``r..n``, with rows per block chosen so a block holds at most
``_CELL_BUDGET`` cells. The condensed entries of a block of rows form one
contiguous segment, and a boolean upper-triangle mask over the block
visits its cells right of the diagonal in that segment's order; the mask
depends only on a cell's offset from the block's first row and column, so
one mask as tall as the tallest block serves every block of a call. The
kernels therefore allocate no n×n array, and none builds an index array of
n²/2 entries; :func:`distance_square` fills its square a block of whole
rows at a time, in place, so its output is its only n×n array.

All three distance functions get their squared sums from one routine,
``_squared_distances``, which adds the squared differences feature by
feature in ascending order, so a distance has the same bits whichever of
them computes it (``(a - b)²`` equals ``(b - a)²`` exactly, so the order of
a pair does not matter either).
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


def _squared_distances(at: np.ndarray, bt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the columns of ``at`` (p×a) to those of ``bt`` (p×b).

    The one place where coordinates are subtracted and squared: the a×b
    sums go into ``out``, features added in ascending order, so every
    caller gets the same bits for a pair.
    """
    np.subtract(at[0, :, None], bt[0], out=out)
    out *= out
    d = np.empty_like(out) if len(at) > 1 else None
    for k in range(1, len(at)):
        np.subtract(at[k, :, None], bt[k], out=d)
        d *= d
        out += d
    return out


def pairwise_condensed(coords: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """Condensed (row-major upper-triangle) Euclidean distances for an n×p matrix.

    Each block's squared sums, diagonal at inf, fold their row and column
    minima (cells left of the diagonal repeat the block's pairs) into
    ``nearest``, an inf-filled n-vector. ``sqrt`` is monotone, so its roots
    are the least entries per point.
    """
    # One contiguous row per feature.
    xt = np.ascontiguousarray(np.asarray(coords, dtype=np.float64).T)
    n = xt.shape[1]
    out = np.empty(n * (n - 1) // 2)
    blocks = list(_row_blocks(n))
    # The cells right of the diagonal; block r..r1 uses upper[: r1 - r, : n - r].
    tallest = max((r1 - r for r, r1, _, _ in blocks), default=0)
    upper = np.arange(tallest)[:, None] < np.arange(n)
    for r, r1, lo, hi in blocks:
        acc = _squared_distances(xt[:, r:r1], xt[:, r:], np.empty((r1 - r, n - r)))
        acc.reshape(-1)[:: n - r + 1] = np.inf  # the diagonal of a block no taller than wide
        np.minimum(nearest[r:r1], np.minimum.reduce(acc, axis=1), out=nearest[r:r1])
        np.minimum(nearest[r:], np.minimum.reduce(acc, axis=0), out=nearest[r:])
        np.sqrt(acc[upper[: r1 - r, : n - r]], out=out[lo:hi])
    return out


def distance_square(coords: np.ndarray) -> np.ndarray:
    """Symmetric n×n Euclidean distances for an n×p matrix, 0.0 on the diagonal.

    Each block of rows is summed against every column straight into its
    rows of the square, and the square is then rooted in place; ``(a - b)²``
    equals ``(b - a)²`` exactly, so it is symmetric bit for bit. A block is
    half as tall as the budget allows, which leaves room for the buffer
    numpy's broadcast subtraction takes beside the block's per-feature terms.
    """
    xt = np.ascontiguousarray(np.asarray(coords, dtype=np.float64).T)
    n = xt.shape[1]
    out = np.empty((n, n))
    rows = max(1, _CELL_BUDGET // (2 * n))
    for r in range(0, n, rows):
        _squared_distances(xt[:, r : r + rows], xt, out[r : r + rows])
    return np.sqrt(out, out=out)


def cutoff_from_condensed(entries: np.ndarray, n: int) -> float:
    """Minimax scan: max over points of the distance to their nearest other point.

    Row i's run of condensed entries holds its pairs with the later points:
    its minimum is i's nearest later point, and it lowers each later point's
    nearest earlier one. The scan holds one n-vector besides its input.
    """
    nearest = np.full(n, np.inf)
    lo = 0
    for i in range(n - 1):
        run = entries[lo : lo + n - 1 - i]
        nearest[i] = np.minimum(nearest[i], run.min())
        np.minimum(nearest[i + 1 :], run, out=nearest[i + 1 :])
        lo += n - 1 - i
    return float(nearest.max())


def pairs_within(entries: np.ndarray, n: int, radius: float):
    """The pairs ``(i, j, d)`` of a condensed vector with ``d <= radius``, ``i < j``.

    Row r's entries start at r(2n - r - 1)/2, and the n-th such start is
    the vector's length; the in-radius positions are found in order, so
    each row's pairs are one run.
    """
    idx = (entries <= radius).nonzero()[0]
    d = entries[idx]
    r = np.arange(n + 1, dtype=np.int64)
    row_starts = r * (2 * n - r - 1) // 2
    bounds = idx.searchsorted(row_starts)
    i = r[:-1].repeat(bounds[1:] - bounds[:-1])
    j = idx  # the position becomes the column in place
    j -= row_starts[i]
    j += i
    j += 1
    return i, j, d


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """``0..l-1`` for each ``l`` of ``lengths``, concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) - (ends - lengths).repeat(lengths)


def expand_copies(i, j, d, rows: np.ndarray, starts: np.ndarray):
    """Pairs of distinct values ``(i, j, d)`` as pairs of the rows that hold them.

    Value k is held by ``rows[starts[k]:starts[k + 1]]``. Each pair becomes
    every pair of a row of i's value and a row of j's value, at the same d,
    and every two rows of one value are added as a pair at +0.0.
    """
    size = starts[1:] - starts[:-1]
    across = size[i] * size[j]
    t = _ragged_arange(across)
    cols = size[j].repeat(across)
    a = rows[starts[i].repeat(across) + t // cols]
    b = rows[starts[j].repeat(across) + t % cols]
    # Each row against the later rows of its value.
    later = size.repeat(size) - 1 - _ragged_arange(size)
    a0 = rows.repeat(later)
    b0 = rows[np.arange(rows.size).repeat(later) + 1 + _ragged_arange(later)]
    return (
        np.concatenate((a, a0)),
        np.concatenate((b, b0)),
        np.concatenate((d.repeat(across), np.zeros(a0.size))),
    )


# With b = (n - 1).bit_length() bits for the column, the keys
# ((row·(D + 1) + rank) << b) | column stay below n·(D + 1)·2^b, and for
# n <= 65 535 that is at most 65 535·(65 535·65 534/2 + 1)·2^16 < 2^63.
_MAX_NEIGHBOR_POINTS = 1 << 16


def neighbors_within(
    i: np.ndarray, j: np.ndarray, d: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every point's ordering from its pairs, center first, in CSR form.

    ``(i, j, d)`` lists each pair within the radius once, in either
    orientation and in any order, with its distance; i and j are int64,
    and d is overwritten with the distances' ranks. Point i's ordering is
    ``members[starts[i]:starts[i + 1]]``: i itself, then every j it is
    paired with, nearest first, ties (``-0.0`` and ``0.0`` included) broken
    by index. The center leads even where a lower-index duplicate lies at
    distance 0.

    The D distinct distances get the dense ranks 1..D and each center the
    rank 0, so the int64 key ``((row·(D + 1) + rank) << b) | column``, with
    the column in the low ``b = (n - 1).bit_length()`` bits, sorts like
    (row, distance, column); each pair is written as (i, j) and (j, i),
    each center as (i, i), and one sort of these unique keys orders every
    neighbourhood, whose members are the keys' low b bits. The keys stay
    below n·(D + 1)·2^b < 2⁶³ (see ``_MAX_NEIGHBOR_POINTS``), so n must be
    below 65 536, where the condensed vector alone already takes 17 GB; a
    larger n raises ``ValueError`` before anything is allocated. The ranks take d's buffer
    and the key 2m + n values, so with m pairs the peak is about 5m
    values, inputs included: where every pair is in radius, about 2.5 n×n
    float64 squares.
    """
    if n >= _MAX_NEIGHBOR_POINTS:
        raise ValueError(f"neighbour keys overflow int64 for n={n} >= {_MAX_NEIGHBOR_POINTS}")
    m = d.size
    # Dense ranks without np.unique's five temporaries: rank the sorted copy
    # in its own buffer, then scatter the ranks back to pair order in d's.
    # The cumsum runs in place on int64, as a cast one would copy its input.
    order = d.argsort()
    dist = d[order]
    new_value = dist[1:] != dist[:-1]
    sorted_rank = dist.view(np.int64)
    sorted_rank[:1] = 1
    sorted_rank[1:] = new_value
    sorted_rank.cumsum(out=sorted_rank)
    # w = D + 1 rank values per row, the centers' 0 included.
    w = int(sorted_rank[-1]) + 1 if m else 1
    rank = d.view(np.int64)
    rank[order] = sorted_rank
    del dist, order, new_value, sorted_rank
    b = (n - 1).bit_length()
    key = np.empty(2 * m + n, dtype=np.int64)
    ij, ji, ii = key[:m], key[m : 2 * m], key[2 * m :]
    np.multiply(i, w, out=ij)
    ij += rank
    ij <<= b
    ij |= j
    np.multiply(j, w, out=ji)
    ji += rank
    ji <<= b
    ji |= i
    np.multiply(np.arange(n, dtype=np.int64), (w << b) + 1, out=ii)
    del rank, ij, ji, ii
    key.sort()
    # Row r's keys are those from r·(D + 1)·2^b up to (r + 1)·(D + 1)·2^b.
    starts = key.searchsorted(np.arange(n + 1, dtype=np.int64) * (w << b))
    key &= (1 << b) - 1
    return starts, key


def distances_from(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distances from point ``x`` to each row of ``ys``."""
    return np.sqrt(_squared_distances(x[:, None], ys.T, np.empty((1, len(ys))))[0])

"""Numerical kernels, one numpy path.

* :func:`pairwise_condensed` computes the condensed (row-major upper
  triangle) Euclidean distances of an n×p matrix;
* :func:`square_from_condensed` scatters condensed entries into a symmetric
  n×n array, the one square builder of the package;
* :func:`cutoff_from_condensed` is the minimax scan over that square;
* :func:`sq_distance` is the single-pair distance.

Squared differences accumulate feature by feature in ascending order in
both distance functions, so a distance has the same bits whichever of them
computes it.
"""
from __future__ import annotations

import math

import numpy as np


def pairwise_condensed(coords: np.ndarray) -> np.ndarray:
    """Condensed (row-major upper-triangle) Euclidean distances for an n×p matrix."""
    x = np.ascontiguousarray(coords, dtype=np.float64)
    n, p = x.shape
    iu, ju = np.triu_indices(n, 1)
    acc = np.zeros(iu.size, dtype=np.float64)
    for k in range(p):
        d = x[iu, k] - x[ju, k]
        acc += d * d
    return np.sqrt(acc)


def square_from_condensed(entries: np.ndarray, n: int, diagonal: float) -> np.ndarray:
    """Symmetric n×n array of condensed entries, ``diagonal`` on the diagonal.

    A boolean upper-triangle mask visits its cells in row-major order, the
    order of condensed storage, and the same mask over the transposed view
    fills the lower triangle.
    """
    upper = np.arange(n)[:, None] < np.arange(n)
    square = np.empty((n, n))
    square[upper] = entries
    square.T[upper] = entries
    np.fill_diagonal(square, diagonal)
    return square


def cutoff_from_condensed(entries: np.ndarray, n: int) -> float:
    """Minimax scan: max over points of the distance to their nearest other point."""
    return float(square_from_condensed(entries, n, np.inf).min(axis=1).max())


def sq_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Single-pair Euclidean distance, same accumulation order as the kernels."""
    acc = 0.0
    for k in range(x.shape[0]):
        d = float(x[k]) - float(y[k])
        acc += d * d
    return math.sqrt(acc)

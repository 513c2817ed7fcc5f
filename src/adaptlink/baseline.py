"""Classical stepwise agglomerative baselines (single/complete/average/centroid).

One closest pair merges per step, n-1 binary merges in all (fewer under a
stop threshold, leaving a forest), returned as the adaptive engine's
:class:`~adaptlink.adaptive.Dendrogram` — the yardstick its level count is
compared against. The starting distances are the adaptive engine's
condensed matrix; single, complete and average linkage update them by the
Lance-Williams formulas, and centroid linkage recomputes the merged
centroid's distances with :func:`~adaptlink._kernels.distances_from`, which
has the matrix kernel's bits.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .adaptive import Dendrogram, DepthRecord, TreeNode, _preorder, _run_meta
from .core import (
    ClusteringError,
    NormalizedDataset,
    Overflow,
    TooFewPoints,
    matrix_from_coords,
)


class LeafMismatch(ClusteringError):
    """Compared dendrograms cover different leaf sets."""


class LinkageMethod(str, enum.Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"
    CENTROID = "centroid"


def _lw_update(method: LinkageMethod, d_ai, d_bi, na: int, nb: int):
    if method is LinkageMethod.SINGLE:
        return np.minimum(d_ai, d_bi)
    if method is LinkageMethod.COMPLETE:
        return np.maximum(d_ai, d_bi)
    return (na * d_ai + nb * d_bi) / (na + nb)


def _upper_square(entries: np.ndarray, n: int) -> np.ndarray:
    """n×n array with the condensed entries above the diagonal and inf elsewhere.

    Each row's entries are one contiguous run of the condensed vector, so
    the rows are copied one by one and nothing besides the output is
    allocated.
    """
    dist = np.full((n, n), np.inf)
    lo = 0
    for i in range(n - 1):
        dist[i, i + 1 :] = entries[lo : lo + n - 1 - i]
        lo += n - 1 - i
    return dist


def stepwise_cluster(
    nd: NormalizedDataset,
    method: LinkageMethod,
    stop_threshold: float | None = None,
) -> Dendrogram:
    """Merge the closest pair repeatedly; ties break on the clusters' smallest leaves.

    A merge keeps the lower slot, so slot ``s`` always holds the cluster whose
    smallest leaf is row ``s``, and the pair with the lowest (distance, lower
    leaf, upper leaf) key is the first minimum of the upper triangle in
    row-major order. Every active row caches its first nearest active slot to
    the right; a merge rescans only the merged row and the rows whose cached
    neighbour was one of the merged pair. A step costs O(n) plus O(n) per
    rescanned row: O(n^2) overall on typical data, O(n^3) at worst.

    With ``stop_threshold`` the loop stops before any merge whose distance
    exceeds it, leaving a forest; by default it runs to a single root. A NaN
    or infinite threshold raises :class:`ClusteringError`, and a centroid
    distance that overflows raises :class:`Overflow`.
    """
    method = LinkageMethod(method)
    if stop_threshold is not None:
        stop_threshold = float(stop_threshold)  # a numpy scalar would not serialize
        if not math.isfinite(stop_threshold):
            raise ClusteringError(
                f"stop threshold must be finite, not NaN or infinite, got {stop_threshold}"
            )
    if nd.n < 2:
        raise TooFewPoints(f"stepwise clustering needs n >= 2, got {nd.n}")
    n = nd.n
    # Distances live in the upper triangle (i < j); the lower triangle, the
    # diagonal and the row and column of every merged-away slot hold inf.
    dist = _upper_square(matrix_from_coords(nd.coords).entries, n)
    nn_j = dist.argmin(axis=1)
    nn_d = dist[np.arange(n), nn_j]
    nodes: list[TreeNode | None] = [
        TreeNode(leaves=frozenset({lab}), label=lab, depth=0) for lab in nd.labels
    ]
    min_label = list(nd.labels)
    centroids = np.array(nd.coords) if method is LinkageMethod.CENTROID else None
    active = np.ones(n, dtype=bool)
    records: list[DepthRecord] = []
    for step in range(1, n):
        a = int(nn_d.argmin())
        d = nn_d[a]
        if stop_threshold is not None and d > stop_threshold:
            break
        b = int(nn_j[a])
        na, nb = len(nodes[a].leaves), len(nodes[b].leaves)
        if min_label[b] < min_label[a]:
            children = (nodes[b], nodes[a])
        else:
            children = (nodes[a], nodes[b])
        merged_leaves = nodes[a].leaves | nodes[b].leaves
        nodes[a] = TreeNode(
            leaves=merged_leaves,
            children=children,
            depth=step,
            cutoff=float(d),
        )
        nodes[b] = None
        records.append(
            DepthRecord(depth=step, cutoff=float(d), groups=(frozenset(merged_leaves),))
        )
        min_label[a] = min(min_label[a], min_label[b])
        active[[a, b]] = False
        others = np.flatnonzero(active)
        active[a] = True
        # Rows whose cached neighbour was a or b (row a among them) need a rescan.
        stale = active & ((nn_j == a) | (nn_j == b))
        if method is LinkageMethod.CENTROID:
            with np.errstate(over="ignore", invalid="ignore"):
                centroids[a] = (na * centroids[a] + nb * centroids[b]) / (na + nb)
                new = _kernels.distances_from(centroids[a], centroids[others])
            if not np.isfinite(new).all():
                raise Overflow(
                    "centroid distances overflow double precision; "
                    "rescale the descriptors"
                )
        else:
            # One of d[a, i] and d[i, a] is the distance, the other is inf.
            new = _lw_update(
                method,
                np.minimum(dist[a, others], dist[others, a]),
                np.minimum(dist[b, others], dist[others, b]),
                na,
                nb,
            )
        split = int(np.searchsorted(others, a))
        before, after = others[:split], others[split:]
        dist[before, a] = new[:split]
        dist[a, after] = new[split:]
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        nn_d[b] = np.inf
        # A row i < a keeps its cached neighbour unless column a is now
        # nearer, or as near and further left.
        cand = new[:split]
        closer = (cand < nn_d[before]) | ((cand == nn_d[before]) & (nn_j[before] > a))
        nn_d[before[closer]] = cand[closer]
        nn_j[before[closer]] = a
        rows = np.flatnonzero(stale)
        nn_j[rows] = dist[rows].argmin(axis=1)
        nn_d[rows] = dist[rows, nn_j[rows]]
    roots = tuple(nodes[i] for i in np.flatnonzero(active))
    meta = {**_run_meta(nd, method.value), "stop_threshold": stop_threshold}
    return Dendrogram(nd.labels, roots, tuple(records), meta)


def _max_arity(roots) -> int:
    return max(len(node.children) for node, _ in _preorder(roots))


@dataclass(frozen=True)
class ComparisonReport:
    """Compactness comparison between an adaptive run and a stepwise run."""

    adaptive_levels: int
    stepwise_steps: int
    stepwise_method: str
    adaptive_max_arity: int
    stepwise_max_arity: int
    groups_per_level: tuple[int, ...]

    @property
    def adaptive_more_compact(self) -> bool:
        return self.adaptive_levels < self.stepwise_steps

    def __str__(self) -> str:
        lines = [
            f"adaptive: {self.adaptive_levels} levels, "
            f"{self.stepwise_method}-linkage: {self.stepwise_steps} steps",
            f"max merge arity: adaptive {self.adaptive_max_arity}, "
            f"{self.stepwise_method} {self.stepwise_max_arity}",
            "groups per adaptive level: "
            + (
                " ".join(str(c) for c in self.groups_per_level)
                if self.groups_per_level
                else "(none)"
            ),
        ]
        return "\n".join(lines)


def compare_compactness(adaptive: Dendrogram, stepwise: Dendrogram) -> ComparisonReport:
    """Levels-vs-steps report; both runs must cover the same leaves.

    The second run's ``meta["method"]`` must be a :class:`LinkageMethod`, else ``ValueError``.
    """
    if frozenset(adaptive.labels) != frozenset(stepwise.labels):
        raise LeafMismatch("dendrograms cover different leaf sets")
    return ComparisonReport(
        adaptive_levels=len(adaptive.trace),
        stepwise_steps=len(stepwise.trace),
        stepwise_method=LinkageMethod(stepwise.meta["method"]).value,
        adaptive_max_arity=_max_arity(adaptive.roots),
        stepwise_max_arity=_max_arity(stepwise.roots),
        groups_per_level=tuple(len(rec.groups) for rec in adaptive.trace),
    )

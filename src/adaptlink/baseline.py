"""Classical stepwise agglomerative baselines (single/complete/average/centroid).

One closest pair merges per step, n-1 binary merges in all (fewer under a
stop threshold, leaving a forest), returned as the adaptive engine's
:class:`~adaptlink.adaptive.Dendrogram` — the yardstick its level count is
compared against. The starting distances are one symmetric n×n working
square, filled in place from the coordinates by
:func:`~adaptlink._kernels.distance_square`, so a run holds no other n²
array. A merge holds the merged-away slot's row and column at +inf, so each
step works on whole rows of the square: single, complete and average
linkage update the merged row by the Lance-Williams formulas, and centroid
linkage recomputes the merged centroid's distances with
:func:`~adaptlink._kernels.distances_from`. Both share one per-feature
routine with the adaptive engine's matrix kernel, so a pair's distance has
the same bits whichever kernel computes it, and one overflow check with it.
:func:`compare_compactness` counts the steps to one root, so it refuses a
forest.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .adaptive import Dendrogram, DepthRecord, TreeNode, _run_meta
from .core import ClusteringError, NormalizedDataset, TooFewPoints, _finite_distances


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


def _square(coords: np.ndarray) -> np.ndarray:
    """The working square: symmetric n×n Euclidean distances, inf on the diagonal.

    Raises :class:`Overflow` when a distance is not finite.
    """
    dist = _finite_distances(_kernels.distance_square, coords)
    dist.reshape(-1)[:: len(dist) + 1] = np.inf
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
    row-major order. Every active row caches its first nearest active slot in
    either direction; the lowest row holding the least cached distance has
    its cached slot above it, so that pair is the one merged. Only the merged
    row's distances change, so a merge rescans only that row and the rows
    whose cached slot was one of the merged pair and is now further away. A
    step costs O(n) plus O(n) per rescanned row: O(n^2) overall on typical
    data, O(n^3) at worst.

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
    # dist[i, j] == dist[j, i] is the distance between live slots i != j; the
    # diagonal and a merged-away slot's row and column hold +inf, so a whole
    # row's first minimum is its first nearest live slot.
    dist = _square(nd.coords)
    nn_j = dist.argmin(axis=1)
    nn_d = dist[np.arange(n), nn_j]
    nodes: list[TreeNode | None] = [TreeNode((), lab) for lab in nd.labels]
    min_label = list(nd.labels)
    centroids = np.array(nd.coords) if method is LinkageMethod.CENTROID else None
    merged = np.zeros(n, dtype=bool)
    records: list[DepthRecord] = []
    for step in range(1, n):
        a = int(nn_d.argmin())
        d = float(nn_d[a])
        if stop_threshold is not None and d > stop_threshold:
            break
        b = int(nn_j[a])  # b > a: a slot below a at d would be a lower row at d
        na, nb = nodes[a].size, nodes[b].size
        if min_label[b] < min_label[a]:
            children = (nodes[b], nodes[a])
        else:
            children = (nodes[a], nodes[b])
        nodes[a] = TreeNode(children, None, step, d, na + nb)
        nodes[b] = None
        records.append(DepthRecord(step, d, (nodes[a],)))
        min_label[a] = min(min_label[a], min_label[b])
        merged[b] = True
        if method is LinkageMethod.CENTROID:
            with np.errstate(over="ignore", invalid="ignore"):
                centroids[a] = (na * centroids[a] + nb * centroids[b]) / (na + nb)
            # Stale centroids are measured too, but only the live slots besides a
            # are checked, as only their distances are used.
            others = ~merged
            others[a] = False
            new = _finite_distances(
                _kernels.distances_from, centroids[a], centroids, of="centroid", where=others
            )
            new[~others] = np.inf
        else:
            # Merged-away slots hold +inf in both rows, and every formula keeps it.
            new = _lw_update(method, dist[a], dist[b], na, nb)
            new[a] = new[b] = np.inf
        dist[a] = dist[:, a] = new
        dist[b] = dist[:, b] = nn_d[b] = np.inf
        # Only slot a moved. A row takes it when it is nearer than the cached
        # slot, or as near and further left; a row whose cached slot was a or
        # b and is now further away is rescanned, and so is row a. A merged-away
        # row compares +inf with +inf and is never rescanned.
        closer = (new < nn_d) | ((new == nn_d) & (nn_j > a))
        np.copyto(nn_d, new, where=closer)
        np.copyto(nn_j, a, where=closer)
        rows = (((nn_j == a) | (nn_j == b)) & (new > nn_d)).nonzero()[0]
        scan = dist[rows]
        nn_j[rows] = scan.argmin(axis=1)
        nn_d[rows] = np.minimum.reduce(scan, axis=1)
    roots = tuple(nodes[i] for i in (~merged).nonzero()[0])
    meta = {**_run_meta(nd, method.value), "stop_threshold": stop_threshold}
    return Dendrogram(nd.labels, roots, tuple(records), meta)


def _max_arity(run: Dendrogram) -> int:
    # Each merge is in exactly one record.
    return max((len(node.children) for rec in run.trace for node in rec.nodes), default=0)


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

    The first run's ``meta["method"]`` must be ``"adaptive"`` and the second's a
    :class:`LinkageMethod`, and the second run must have one root, not a
    forest left by a stop threshold; else ``ValueError``.
    """
    method = adaptive.meta.get("method")
    if method != "adaptive":
        raise ValueError(f"the first run's method is {method!r}, not 'adaptive'")
    if len(stepwise.roots) != 1:
        raise ValueError(f"the second run is a forest of {len(stepwise.roots)} trees")
    if frozenset(adaptive.labels) != frozenset(stepwise.labels):
        raise LeafMismatch("dendrograms cover different leaf sets")
    return ComparisonReport(
        adaptive_levels=len(adaptive.trace),
        stepwise_steps=len(stepwise.trace),
        stepwise_method=LinkageMethod(stepwise.meta["method"]).value,
        adaptive_max_arity=_max_arity(adaptive),
        stepwise_max_arity=_max_arity(stepwise),
        groups_per_level=tuple(len(rec.nodes) for rec in adaptive.trace),
    )

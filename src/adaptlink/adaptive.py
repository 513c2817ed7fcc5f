"""Adaptive mean-linkage engine.

Each iteration computes a minimax cut-off distance (the largest
nearest-neighbor distance in the current point set), builds per-point
neighborhoods under that cut-off, finds all maximal *extremely close* sets
(groups whose members share identical leading sub-neighborhoods), and merges
every group simultaneously into a pseudo-point whose coordinates are the
arithmetic mean of its members' coordinates. The loop repeats until a single
pseudo-point remains, so several points can join a cluster in one step and
the full tree typically needs far fewer levels than one-merge-at-a-time
agglomeration.

A level is three things: the active coordinates (an m x p float64 array),
the tree node of each row, and their distance matrix. A step builds each
merged node once and records its leaves in the trace.

:func:`_step` calls :func:`cutoff_distance`, :func:`neighborhood` (once per
level: every point's ordering in CSR form) and :func:`extremely_close_sets`
through this module's globals, so a tracer that rebinds them here (the
benchmark's per-layer timers do) sees every call of a level.

The working coordinate frame follows the input (see README for the rationale
and the reference tabulation it reproduces):

* z-scored input (:func:`~adaptlink.core.normalize`) is re-z-scored at the
  start of every iteration, so the shrinking point set keeps zero-mean,
  unit-s.d. columns, and each frame is rounded to six decimals, which
  resolves equal-distance ties identically on every platform (equal-step
  descriptor series otherwise tie at the last bit of the mantissa);
* raw input (:func:`~adaptlink.core.identity_normalized`, the CLI's
  ``--no-normalize``) keeps its raw frame, so merged coordinates stay the
  exact member means.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Context, Decimal

import numpy as np

from . import _kernels
from .core import (
    ClusteringError, DistanceMatrix, NormalizedDataset, SdMode, TooFewPoints, matrix_from_coords
)

# Decimals of the grid a z-scored working frame is rounded to.
_WORKING_DECIMALS = 6


# Digits enough to show any finite float to two decimals (the default keeps 28).
_DISPLAY_CONTEXT = Context(prec=320)


def format_cutoff(x: float) -> str:
    """Two-decimal display of a cut-off, truncated toward zero (not rounded)."""
    exact = Decimal(repr(float(x)))
    return str(exact.quantize(Decimal("0.01"), rounding=ROUND_DOWN, context=_DISPLAY_CONTEXT))


@dataclass(frozen=True)
class Neighborhoods:
    """Every point's ordering under one cut-off, in read-only CSR arrays.

    Point i's ordering is ``members[starts[i]:starts[i + 1]]``: i itself,
    then the points within the cut-off, nearest first.
    """

    starts: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        for a in (self.starts, self.members):
            a.setflags(write=False)


@dataclass(frozen=True)
class MergeGroup:
    """An extremely close set: every member's leading sub-neighborhood equals it."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if len(self.members) < 2:
            raise ValueError("merge groups have at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("merge group members must be distinct")


@dataclass(frozen=True)
class DepthRecord:
    """One level of the trace: the cut-off used and the groups it merged."""

    depth: int
    cutoff: float
    groups: tuple[frozenset[str], ...]

    @property
    def display(self) -> str:
        """The cut-off as :func:`format_cutoff` shows it."""
        return format_cutoff(self.cutoff)


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Dendrogram node; leaves carry a label, merges carry depth and cut-off.

    Equality walks both subtrees with a stack, and hash and repr read only
    the node's own fields, so trees deeper than the recursion limit work too.
    """

    leaves: frozenset[str]
    children: tuple["TreeNode", ...] = ()
    label: str | None = None
    depth: int = 0
    cutoff: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _own(self) -> tuple:
        return self.leaves, self.label, self.depth, self.cutoff

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a._own() != b._own() or len(a.children) != len(b.children):
                    return False
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash(self._own())

    def __repr__(self) -> str:
        return (
            f"TreeNode(label={self.label!r}, depth={self.depth}, cutoff={self.cutoff!r}, "
            f"{len(self.leaves)} leaves, {len(self.children)} children)"
        )


@dataclass(frozen=True)
class Dendrogram:
    """Clustering result: the tree, the per-depth trace, and run metadata."""

    labels: tuple[str, ...]
    root: TreeNode
    trace: tuple[DepthRecord, ...]
    meta: dict = field(default_factory=dict)


def cutoff_distance(m: DistanceMatrix) -> float:
    """Max over points of the distance to their nearest other point."""
    if m.n < 2:
        raise TooFewPoints(f"cut-off needs n >= 2, got {m.n}")
    return _kernels.cutoff_from_condensed(m.entries, m.n)


def neighborhood(m: DistanceMatrix, d_u: float) -> Neighborhoods:
    """Every point's ordered neighborhood under cut-off d_u, center first.

    Point i's members are i, then every j with d(i, j) <= d_u, sorted by
    (distance, index) ascending; the index component makes tied distances
    (e.g. duplicate rows) resolve deterministically. The center leads even
    when a duplicate of it (distance 0) has a lower index.
    """
    return Neighborhoods(*_kernels.neighbors_within(m.entries, m.n, d_u))


# Rank-block cells evaluated per batch of centers in extremely_close_sets.
_CELL_BUDGET = 1 << 17
# Rows of the rank block evaluated first; doubled while a longer prefix may qualify.
_FIRST_ROWS = 8


def _longest_prefixes(orders: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Length of the longest qualifying prefix of each center's ordering.

    ``orders`` holds every point's ordering padded with n, plus an all-padding
    row n. Where only the center itself qualifies the length is 1.
    """
    n, width = orders.shape[0] - 1, orders.shape[1]
    cols = np.arange(width)
    sizes = cols + 1
    prefixes = orders[centers]
    # Rank rows: ranks[b, x] is x's position in the ordering of centers[b].
    ranks = np.full((centers.size, n + 1), n, dtype=np.int32)
    ranks[np.arange(centers.size)[:, None], prefixes] = cols
    ranks[:, n] = n  # padding was written there; it stays outside the cut-off
    longest = np.ones(centers.size, dtype=np.intp)
    live = np.arange(centers.size)
    rows = min(width, _FIRST_ROWS)
    while live.size:
        block = ranks[live[:, None, None], orders[prefixes[live, :rows]]]
        np.maximum.accumulate(block, axis=1, out=block)
        np.maximum.accumulate(block, axis=2, out=block)
        # The diagonal holds the maximum rank of each leading square, which
        # decides every prefix of up to `rows` points.
        reach = block.reshape(live.size, -1)[:, : rows * width : width + 1]
        longest[live] = ((reach < sizes[:rows]) * sizes[:rows]).max(axis=1)
        if rows == width:
            break
        # Maxima only grow with more rows, so a longer prefix can still
        # qualify only where the last row's running maximum allows it.
        live = live[(block[:, -1, rows:] < sizes[rows:]).any(axis=1)]
        del block, reach  # free them before the next, larger block is built
        rows = min(width, 2 * rows)
    return longest


def extremely_close_sets(nbs: Neighborhoods) -> list[MergeGroup]:
    """All maximal extremely close sets, pairwise disjoint, sorted by smallest member.

    A set S of size v qualifies when, for every member c, the first v
    entries of c's ordering equal S as a set. So every qualifying set that
    contains a point i is a prefix of i's ordering, and the maximal set
    containing i is the longest qualifying prefix of that ordering.

    Write pos_i(x) for x's position in i's ordering, or n when x lies outside
    the cut-off. The prefix P of length v qualifies iff pos_i(o_c[k]) <= v - 1
    for every c in P and every k < v, where o_c is c's ordering. The running
    maximum of this rank block along both axes tests every v at once on its
    diagonal. The block is evaluated over its first few rows, and the rows
    double only while the last row's running maximum leaves room for a
    longer prefix. Centers are batched under a fixed cell budget, and a
    center already placed in a group is skipped.
    """
    n = nbs.starts.size - 1
    if n == 0:
        return []
    sizes = np.diff(nbs.starts)
    width = int(sizes.max())
    # Row c holds c's ordering padded with n; row n is all padding, so a
    # padded member's own ordering is padding too. The mask's row-major
    # order is the CSR order.
    orders = np.full((n + 1, width), n, dtype=np.intp)
    orders[:n][np.arange(width) < sizes[:, None]] = nbs.members
    placed = np.zeros(n, dtype=bool)
    batch = max(1, _CELL_BUDGET // (n + width * width))
    groups: list[MergeGroup] = []
    for start in range(0, n, batch):
        todo = start + np.flatnonzero(~placed[start : start + batch])
        if not todo.size:
            continue
        longest = _longest_prefixes(orders, todo)
        for c, v in zip(todo.tolist(), longest.tolist()):
            if v < 2 or placed[c]:
                continue
            members = orders[c, :v]
            placed[members] = True
            groups.append(MergeGroup(members=members.tolist()))
    # Overlapping groups would place fewer points than they hold.
    if placed.sum() != sum(len(g.members) for g in groups):
        raise RuntimeError("internal invariant violated: overlapping maximal sets")
    groups.sort(key=lambda g: g.members[0])
    return groups


def _merge(coords: np.ndarray, groups: list[MergeGroup]) -> tuple[np.ndarray, list[int]]:
    """Next level's rows, each group's member mean at its smallest slot, and the kept slots.

    The mean is taken over the *member* rows of the current frame, so merging
    a pseudo-point with a singleton weights them equally, regardless of how
    many leaves each covers. A group's other slots are dropped; the remaining
    rows keep their order, and row k of the result is slot ``kept[k]``.
    """
    out = coords.copy()
    keep = np.ones(len(coords), dtype=bool)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for g in groups:
        by_size.setdefault(len(g.members), []).append(g.members)
    # One mean per size over the (groups x size) member slots has the bits of
    # each group's own mean (np.add.reduceat does not).
    for members in map(np.array, by_size.values()):
        out[members[:, 0]] = coords[members].mean(axis=1)
        keep[members[:, 1:]] = False
    return out[keep], np.flatnonzero(keep).tolist()


def _standardize_working(coords: np.ndarray, mode: SdMode) -> np.ndarray:
    """Z-score a working frame; columns that collapsed to a constant become 0."""
    out = np.empty_like(coords)
    ddof = 1 if mode is SdMode.SAMPLE else 0
    for k in range(coords.shape[1]):
        col = coords[:, k]
        if (col == col[0]).all():
            out[:, k] = 0.0
        else:
            out[:, k] = (col - col.mean()) / col.std(ddof=ddof)
    return out


# Coordinates, the tree node of each row, and their matrix (None once one row is left).
Level = tuple[np.ndarray, list[TreeNode], DistanceMatrix | None]


def initial_state(nd: NormalizedDataset) -> Level:
    """Depth-0 level: one leaf node per row (z-scored input on the working grid).

    Raises :class:`ClusteringError` for 65 536 points or more, which the
    neighbour ordering's int64 keys cannot hold, before any O(n²) allocation.
    """
    if nd.n >= _kernels._MAX_NEIGHBOR_POINTS:
        raise ClusteringError(
            f"the adaptive engine takes fewer than {_kernels._MAX_NEIGHBOR_POINTS} "
            f"points, got n={nd.n}"
        )
    coords = np.asarray(nd.coords, dtype=np.float64)
    if nd.normalized:
        coords = np.round(coords, _WORKING_DECIMALS)
    matrix = matrix_from_coords(coords) if nd.n >= 2 else None
    nodes = [TreeNode(leaves=frozenset({lab}), label=lab) for lab in nd.labels]
    return coords, nodes, matrix


def _step(level: Level, nd: NormalizedDataset, depth: int) -> tuple[Level, DepthRecord]:
    """One iteration: cut-off, neighborhoods, maximal groups, simultaneous merge."""
    coords, nodes, matrix = level
    if matrix is None:
        raise TooFewPoints("cluster step needs at least two active points")
    d_u = float(cutoff_distance(matrix))
    groups = extremely_close_sets(neighborhood(matrix, d_u))
    if not groups:
        raise RuntimeError("internal invariant violated: no extremely close set")
    coords, kept = _merge(coords, groups)
    # Groups are disjoint and sorted by smallest member, which is the slot
    # their merged node takes; the trace lists them in that order.
    heads: dict[int, TreeNode] = {}
    for g in groups:
        kids = tuple(nodes[k] for k in g.members)
        leaves = frozenset().union(*(c.leaves for c in kids))
        heads[g.members[0]] = TreeNode(leaves, kids, depth=depth, cutoff=d_u)
    record = DepthRecord(depth, d_u, tuple(h.leaves for h in heads.values()))
    nodes = [heads.get(k, nodes[k]) for k in kept]
    matrix = None
    if len(nodes) > 1:
        if nd.normalized:
            coords = np.round(
                _standardize_working(coords, nd.stats.mode), _WORKING_DECIMALS
            )
        matrix = matrix_from_coords(coords)
    return (coords, nodes, matrix), record


def build_dendrogram(nd: NormalizedDataset) -> Dendrogram:
    """Run the adaptive loop to a single root and record every depth.

    A single-point dataset yields a leaf-only tree with an empty trace. The
    loop always terminates: every iteration merges at least one group, so at
    most n-1 iterations occur.
    """
    level = initial_state(nd)
    records: list[DepthRecord] = []
    while len(level[1]) > 1:
        level, record = _step(level, nd, len(records) + 1)
        records.append(record)
    meta = {
        "method": "adaptive",
        "sd_mode": nd.stats.mode.value,
        "normalized": nd.normalized,
        "restandardize": nd.normalized,
        "working_decimals": _WORKING_DECIMALS if nd.normalized else None,
        "columns": list(nd.column_names),
        "dataset_sha256": nd.source_hash,
    }
    return Dendrogram(labels=nd.labels, root=level[1][0], trace=tuple(records), meta=meta)

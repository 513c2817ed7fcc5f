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

Two engine options control the working coordinate frame (see README for the
rationale and the reference tabulation they reproduce):

* ``restandardize`` (default on): re-z-score the active coordinates at the
  start of every iteration, so the shrinking point set keeps zero-mean,
  unit-s.d. columns;
* ``working_decimals`` (default 6): round each freshly standardized frame to
  a fixed decimal grid, which resolves equal-distance ties identically on
  every platform (equal-step descriptor series otherwise tie at the last
  bit of the mantissa).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Decimal
from operator import attrgetter

import numpy as np

from . import _kernels
from .core import (
    ClusteringError,
    DistanceMatrix,
    NormalizedDataset,
    SdMode,
    TooFewPoints,
    _readonly,
    matrix_from_coords,
)


class OutOfRange(ClusteringError):
    """A sub-neighborhood size is outside [1, len(neighborhood)]."""


class StaleIndex(ClusteringError):
    """A merge referenced a point that is not active (or was already consumed)."""


def format_cutoff(x: float) -> str:
    """Two-decimal display of a cut-off, truncated toward zero (not rounded)."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


@dataclass(frozen=True)
class EngineConfig:
    """Options for the adaptive engine loop."""

    restandardize: bool = True
    working_decimals: int | None = 6
    sd_mode: SdMode | None = None  # None: inherit the dataset's mode


@dataclass(frozen=True)
class Neighborhood:
    """All points within ``cutoff`` of ``center``, nearest first."""

    center: int
    members: tuple[int, ...]
    distances: tuple[float, ...]
    cutoff: float


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
class PseudoPoint:
    """An active point: an original leaf or the mean of previously merged points."""

    id: int
    coords: np.ndarray
    leaves: frozenset[int]
    formed_at_depth: int

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords).ravel())
        object.__setattr__(self, "leaves", frozenset(self.leaves))
        if not self.leaves:
            raise ValueError("a pseudo-point covers at least one leaf")


@dataclass(frozen=True)
class ClusterState:
    """Active points and their distance matrix at one depth of the loop."""

    depth: int
    points: tuple[PseudoPoint, ...]
    matrix: DistanceMatrix | None
    labels: tuple[str, ...]
    config: EngineConfig
    sd_mode: SdMode


@dataclass(frozen=True)
class DepthRecord:
    """One level of the trace: the cut-off used and the groups it merged."""

    depth: int
    cutoff: float
    display: str
    groups: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class TreeNode:
    """Dendrogram node; leaves carry a label, merges carry depth and cut-off."""

    leaves: frozenset[str]
    children: tuple["TreeNode", ...] = ()
    label: str | None = None
    depth: int = 0
    cutoff: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


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


def neighborhood(m: DistanceMatrix, i: int, d_u: float) -> Neighborhood:
    """Ordered neighborhood of point i under cut-off d_u (center first).

    Members are every j with d(i, j) <= d_u, sorted by (distance, index)
    ascending; the index component makes tied distances (e.g. duplicate rows)
    resolve deterministically. The center leads even when a duplicate of it
    (distance 0) has a lower index.
    """
    if not 0 <= i < m.n:
        raise OutOfRange(f"center index {i} outside [0, {m.n})")
    row = m.row(i)
    mask = row <= d_u
    mask[i] = False
    inside = mask.nonzero()[0]
    dist = row[inside]
    # A stable sort of ascending indices breaks distance ties by index.
    by_dist = dist.argsort(kind="stable")
    return Neighborhood(
        center=i,
        members=(i, *inside[by_dist].tolist()),
        distances=(0.0, *dist[by_dist].tolist()),
        cutoff=float(d_u),
    )


def sub_neighborhood(nb: Neighborhood, v: int) -> tuple[int, ...]:
    """First v members of a neighborhood."""
    if not 1 <= v <= len(nb.members):
        raise OutOfRange(f"v={v} outside [1, {len(nb.members)}]")
    return nb.members[:v]


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


def extremely_close_sets(neighborhoods: list[Neighborhood]) -> list[MergeGroup]:
    """All maximal extremely close sets, pairwise disjoint, sorted by smallest member.

    Takes one neighborhood per point 0..n-1, in any order. A set S of size v
    qualifies when, for every member c, the first v entries of c's
    neighborhood equal S as a set. So every qualifying set that contains a
    point i is a prefix of i's ordering, and the maximal set containing i is
    the longest qualifying prefix of that ordering.

    Write pos_i(x) for x's position in i's ordering, or n when x lies outside
    the cut-off. The prefix P of length v qualifies iff pos_i(o_c[k]) <= v - 1
    for every c in P and every k < v, where o_c is c's ordering. The running
    maximum of this rank block along both axes tests every v at once on its
    diagonal. The block is evaluated over its first few rows, and the rows
    double only while the last row's running maximum leaves room for a
    longer prefix. Centers are batched under a fixed cell budget, and a
    center already placed in a group is skipped.
    """
    n = len(neighborhoods)
    if n == 0:
        return []
    by_center = sorted(neighborhoods, key=attrgetter("center"))
    if [nb.center for nb in by_center] != list(range(n)):
        raise ValueError("expected one neighborhood per point 0..n-1")
    width = max(len(nb.members) for nb in by_center)
    # Row c holds c's ordering padded with n; row n is all padding, so a
    # padded member's own ordering is padding too.
    pad = (n,) * width
    padded = itertools.chain(
        (nb.members + pad[len(nb.members) :] for nb in by_center), [pad]
    )
    orders = np.fromiter(
        itertools.chain.from_iterable(padded), np.intp, (n + 1) * width
    ).reshape(n + 1, width)
    placed: set[int] = set()
    batch = max(1, _CELL_BUDGET // (n + width * width))
    groups: list[MergeGroup] = []
    for start in range(0, n, batch):
        todo = [c for c in range(start, min(start + batch, n)) if c not in placed]
        if not todo:
            continue
        longest = _longest_prefixes(orders, np.array(todo, dtype=np.intp))
        for c, v in zip(todo, longest.tolist()):
            if v < 2 or c in placed:
                continue
            members = by_center[c].members[:v]
            placed.update(members)
            groups.append(MergeGroup(members=members))
    # Overlapping groups would place fewer points than they hold.
    if len(placed) != sum(len(g.members) for g in groups):
        raise RuntimeError("internal invariant violated: overlapping maximal sets")
    groups.sort(key=lambda g: g.members[0])
    return groups


def merge_group(state: ClusterState, g: MergeGroup, new_depth: int) -> PseudoPoint:
    """Merge a group into one pseudo-point: coords = mean of member coords.

    The mean is taken over the *member* coordinates in the state's current
    frame — merging a pseudo-point with a singleton weights them equally,
    regardless of how many leaves each covers.
    """
    n_active = len(state.points)
    if len(set(g.members)) != len(g.members) or any(
        not 0 <= k < n_active for k in g.members
    ):
        raise StaleIndex(
            f"group {g.members} does not reference distinct active points "
            f"(n={n_active})"
        )
    pts = [state.points[k] for k in sorted(g.members)]
    coords = np.mean(np.stack([p.coords for p in pts]), axis=0)
    return PseudoPoint(
        id=min(p.id for p in pts),
        coords=coords,
        leaves=frozenset().union(*(p.leaves for p in pts)),
        formed_at_depth=new_depth,
    )


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


def _next_frame(coords: np.ndarray, config: EngineConfig, mode: SdMode) -> np.ndarray:
    if not config.restandardize or coords.shape[0] < 2:
        return coords
    w = _standardize_working(coords, mode)
    if config.working_decimals is not None:
        w = np.round(w, config.working_decimals)
    return w


def _apply_groups(
    state: ClusterState, groups: list[MergeGroup], new_depth: int
) -> tuple[tuple[PseudoPoint, ...], list[tuple[int, ...]]]:
    """Replace each group with its pseudo-point at the smallest member's slot."""
    consumed: set[int] = set()
    owner_at: dict[int, MergeGroup] = {}
    for g in groups:
        for k in g.members:
            if k in consumed:
                raise StaleIndex(f"point {k} consumed by two groups at depth {new_depth}")
            consumed.add(k)
        owner_at[min(g.members)] = g
    new_points: list[PseudoPoint] = []
    index_groups: list[tuple[int, ...]] = []
    for idx, pt in enumerate(state.points):
        if idx in owner_at:
            g = owner_at[idx]
            new_points.append(merge_group(state, g, new_depth))
            index_groups.append(g.members)
        elif idx not in consumed:
            new_points.append(pt)
    return tuple(new_points), index_groups


def _step(
    state: ClusterState,
) -> tuple[ClusterState, DepthRecord, list[tuple[int, ...]]]:
    if state.matrix is None or len(state.points) < 2:
        raise TooFewPoints("cluster step needs at least two active points")
    d_u = cutoff_distance(state.matrix)
    nbs = [neighborhood(state.matrix, i, d_u) for i in range(len(state.points))]
    groups = extremely_close_sets(nbs)
    if not groups:
        raise RuntimeError("internal invariant violated: no extremely close set")
    new_depth = state.depth + 1
    merged_points, index_groups = _apply_groups(state, groups, new_depth)
    group_leafsets = [
        frozenset().union(*(state.points[k].leaves for k in g)) for g in index_groups
    ]
    record = DepthRecord(
        depth=new_depth,
        cutoff=float(d_u),
        display=format_cutoff(d_u),
        groups=tuple(
            frozenset(state.labels[i] for i in ls) for ls in group_leafsets
        ),
    )
    if len(merged_points) > 1:
        frame = _next_frame(
            np.stack([p.coords for p in merged_points]), state.config, state.sd_mode
        )
        points = tuple(
            PseudoPoint(p.id, frame[k], p.leaves, p.formed_at_depth)
            for k, p in enumerate(merged_points)
        )
        matrix = matrix_from_coords(frame)
    else:
        points, matrix = merged_points, None
    next_state = ClusterState(
        depth=new_depth,
        points=points,
        matrix=matrix,
        labels=state.labels,
        config=state.config,
        sd_mode=state.sd_mode,
    )
    return next_state, record, index_groups


def cluster_step(state: ClusterState) -> tuple[ClusterState, DepthRecord]:
    """One iteration: cut-off, neighborhoods, maximal groups, simultaneous merge."""
    next_state, record, _ = _step(state)
    return next_state, record


def initial_state(
    nd: NormalizedDataset, config: EngineConfig | None = None
) -> ClusterState:
    """Depth-0 state over the dataset's coordinates (grid-rounded per config)."""
    config = config or EngineConfig()
    sd_mode = config.sd_mode or nd.stats.mode
    coords = np.asarray(nd.coords, dtype=np.float64)
    if config.working_decimals is not None:
        coords = np.round(coords, config.working_decimals)
    points = tuple(
        PseudoPoint(id=i, coords=coords[i], leaves=frozenset({i}), formed_at_depth=0)
        for i in range(nd.n)
    )
    matrix = matrix_from_coords(coords) if nd.n >= 2 else None
    return ClusterState(
        depth=0,
        points=points,
        matrix=matrix,
        labels=nd.labels,
        config=config,
        sd_mode=sd_mode,
    )


def build_dendrogram(
    nd: NormalizedDataset, config: EngineConfig | None = None
) -> Dendrogram:
    """Run the adaptive loop to a single root and record every depth.

    A single-point dataset yields a leaf-only tree with an empty trace. The
    loop always terminates: every iteration merges at least one group, so at
    most n-1 iterations occur.
    """
    config = config or EngineConfig()
    state = initial_state(nd, config)
    nodes = [
        TreeNode(leaves=frozenset({lab}), label=lab, depth=0) for lab in nd.labels
    ]
    records: list[DepthRecord] = []
    while len(state.points) > 1:
        state, record, index_groups = _step(state)
        records.append(record)
        owner_at = {g[0]: g for g in index_groups}
        consumed = {k for g in index_groups for k in g}
        new_nodes: list[TreeNode] = []
        for idx, node in enumerate(nodes):
            if idx in owner_at:
                children = tuple(nodes[k] for k in owner_at[idx])
                new_nodes.append(
                    TreeNode(
                        leaves=frozenset().union(*(c.leaves for c in children)),
                        children=children,
                        depth=record.depth,
                        cutoff=record.cutoff,
                    )
                )
            elif idx not in consumed:
                new_nodes.append(node)
        nodes = new_nodes
    meta = {
        "method": "adaptive",
        "sd_mode": state.sd_mode.value,
        "normalized": nd.normalized,
        "restandardize": config.restandardize,
        "working_decimals": config.working_decimals,
        "columns": list(nd.column_names),
        "dataset_sha256": nd.source_hash,
    }
    return Dendrogram(
        labels=nd.labels, root=nodes[0], trace=tuple(records), meta=meta
    )

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

A level is the active coordinates (an m x p float64 array) and the tree
node of each row. A step builds its own distances, so one set is alive at
a time, builds each merged node once and records the merged nodes in the
trace. A node holds its children and its leaf count, not its leaves' labels,
so a merge costs O(children) and a tree with its trace takes O(nodes) memory.
A level of more than ``_SMALL_LEVEL`` (16) rows gets its distances as one
:class:`~adaptlink.core.DistanceMatrix` from
:func:`~adaptlink.core.matrix_from_coords`, which computes them once per
distinct row (rows that compare equal in every column are copies). That
one record of the level is internal, not public API: its cut-off is the
root of the largest least distance, and the orderings are built from its
:meth:`~adaptlink.core.DistanceMatrix.pairs_within` the cut-off, which
expands the copies, so nothing here reads how the record groups them.

For such a level :func:`_step` calls
:func:`~adaptlink.core.matrix_from_coords`, :func:`cutoff_distance`,
:func:`neighborhood` (every point's ordering, in CSR form, once per level)
and :func:`extremely_close_sets` (prefix hashes, a last-member test, then
an exact check) through this module's globals, so a tracer that rebinds
them here (the benchmark's per-layer timers do) sees every call of the
level. A level of 2 to 16 rows, where that machinery costs more than
its arithmetic, takes one exact pass over its full square instead,
:func:`_small_level`, which gives the same cut-off bits and groups; a
tracer counts its time in ``build_dendrogram``'s own. Every benchmark
workload starts above 16 rows, so each of those layers is still called.

On a small level numpy's Python-level wrappers (``ndarray.any``, ``.max``,
``.mean`` and ``.std``, ``np.sort``, ``np.repeat`` and the like) cost more
than the arithmetic, so every per-level function, here, in ``core`` and in
``_kernels``, calls ufuncs, ``ufunc.reduce`` and C-level ndarray methods
directly; the reductions are the ones those wrappers make, so the bits are
theirs.

The working coordinate frame follows the input (see README for the rationale
and the reference tabulation it reproduces):

* z-scored input (:func:`~adaptlink.core.normalize`) is re-z-scored after
  every merge, so the shrinking point set keeps zero-mean,
  unit-s.d. columns, and each frame is rounded to six decimals, which
  resolves equal-distance ties identically on every platform (equal-step
  descriptor series otherwise tie at the last bit of the mantissa);
* raw input (:func:`~adaptlink.core.identity_normalized`, the CLI's
  ``--no-normalize``) keeps its raw frame, so merged coordinates stay the
  exact member means.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Context, Decimal
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import (
    ClusteringError, DistanceMatrix, NormalizedDataset, SdMode, _frozen, _square,
    matrix_from_coords
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
        for name in ("starts", "members"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


class TreeNode(NamedTuple):
    """Dendrogram node; a leaf carries its label, a merge its children, depth and cut-off.

    ``size`` counts the leaves under the node: 1 for a leaf, the sum of the
    children's for a merge. The leaves' labels are not stored, and
    :attr:`leaves` collects them on demand. Equality walks both
    subtrees in lockstep with :func:`_preorder`, and hash and repr read only
    the node's own fields, so trees deeper than the recursion limit work too.
    """

    children: tuple[TreeNode, ...] = ()
    label: str | None = None
    depth: int = 0
    cutoff: float | None = None
    size: int = 1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def leaves(self) -> frozenset[str]:
        """The labels of the leaves under the node, from one walk of its subtree."""
        return frozenset(node.label for node, _ in _preorder((self,)) if not node.children)

    def _own(self) -> tuple:
        return self.label, self.depth, self.cutoff, self.size

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal child counts at every node keep the two walks in step.
        for (a, _), (b, _) in zip(_preorder((self,)), _preorder((other,))):
            if a._own() != b._own() or len(a.children) != len(b.children):
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._own())

    def __repr__(self) -> str:
        return (
            f"TreeNode(label={self.label!r}, depth={self.depth}, cutoff={self.cutoff!r}, "
            f"{self.size} leaves, {len(self.children)} children)"
        )


@dataclass(frozen=True, eq=False, slots=True)
class DepthRecord:
    """One level of the trace: the cut-off used and the nodes of the groups it merged.

    Records compare and hash by depth, cut-off and :attr:`groups`.
    """

    depth: int
    cutoff: float
    nodes: tuple[TreeNode, ...]

    @property
    def groups(self) -> tuple[frozenset[str], ...]:
        """Each merged node's leaf labels, in the order of ``nodes``."""
        return tuple(node.leaves for node in self.nodes)

    @property
    def display(self) -> str:
        """The cut-off as :func:`format_cutoff` shows it."""
        return format_cutoff(self.cutoff)

    def _key(self) -> tuple:
        return self.depth, self.cutoff, self.groups

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _preorder(roots):
    """Yield ``(node, depth)`` for every node under ``roots`` in preorder; roots have depth 0.

    The walk keeps its own stack, so trees deeper than the recursion limit work too.
    """
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in reversed(node.children):  # a loop: extend() over a generator is slower
            stack.append((child, depth + 1))


@dataclass(frozen=True, init=False)
class Dendrogram:
    """Either engine's result: the tree's roots, the per-depth trace, and run metadata.

    ``roots`` holds one root, or a stepwise forest; ``meta["method"]`` names
    the engine or linkage. ``root=r`` stands for ``roots=(r,)``, the form
    the benchmark's self-tests build.
    """

    labels: tuple[str, ...]
    roots: tuple[TreeNode, ...]
    trace: tuple[DepthRecord, ...]
    meta: dict = field(hash=False)  # a dict cannot hash; equal runs still hash equal

    def __init__(self, labels, roots=(), trace=(), meta=None, *, root=None):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "roots", roots if root is None else (root,))
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    @property
    def root(self) -> TreeNode | None:
        """The single root, or None for a forest."""
        return self.roots[0] if len(self.roots) == 1 else None


def _run_meta(nd: NormalizedDataset, method: str) -> dict:
    """The metadata both engines record: method, s.d. mode, normalization, columns, input hash."""
    return {
        "method": method,
        "sd_mode": nd.stats.mode.value,
        "normalized": nd.normalized,
        "columns": list(nd.column_names),
        "dataset_sha256": nd.source_hash,
    }


def cutoff_distance(level: DistanceMatrix) -> float:
    """Max over the level's rows of the distance to their nearest other row.

    A row with a copy is at +0.0 from it, the least distance ``nearest``
    holds for its value. Any other row's nearest distance is the root of
    the squared minimum :func:`~adaptlink.core.matrix_from_coords` keeps;
    ``sqrt`` is monotone and correctly rounded, so the result has the bits
    of the least condensed entries.
    """
    return float(np.sqrt(np.maximum.reduce(level.nearest)))


def neighborhood(level: DistanceMatrix, d_u: float) -> Neighborhoods:
    """Every row's ordered neighborhood under the cut-off d_u >= 0, center first.

    Row i's members are i, then every j with d(i, j) <= d_u, sorted by
    (distance, index) ascending; the index component makes tied distances
    (e.g. duplicate rows) resolve deterministically. The center leads even
    when a duplicate of it (distance 0) has a lower index.
    """
    return Neighborhoods(*_kernels.neighbors_within(*level.pairs_within(d_u), level.n))


# Key seeds a level is tried with before its groups count as unverifiable.
_KEY_SEEDS = 4


def _keys(n: int, seed: int) -> np.ndarray:
    """The uint64 key of each of n points: the first 8·n bytes of SHAKE-128 of the seed."""
    return np.frombuffer(bytearray(hashlib.shake_128(b"%d" % seed).digest(8 * n)), "<u8")


def _longest_candidates(nbs: Neighborhoods, keys: np.ndarray) -> np.ndarray:
    """Each center's longest prefix that passes the last-member test and whose key
    sum occurs among the passing prefixes at least as often as it is long; else 1."""
    starts, members = nbs.starts, nbs.members
    h = keys[members]
    # One cumsum over all rows, restarted per row by taking off the previous row's sum.
    h[starts[1:-1]] -= np.add.reduceat(h, starts[:-1])[:-1]
    np.add.accumulate(h, out=h)
    # Entry q, at offset k of c's row and holding e, passes when h[starts[e] + k]
    # equals h[q]. Blocks of whole rows of at most half the cell budget's
    # entries keep the indices and the one temporary beside them within it (take
    # would copy the read-only members first). An index past the last entry is
    # clipped, and then passes only by a collision.
    passed = np.empty(h.size, dtype=bool)
    r0, m, block = 0, starts.size - 1, _kernels._CELL_BUDGET // 2
    while r0 < m:
        r1 = max(r0 + 1, int(starts.searchsorted(starts[r0] + block, "right")) - 1)
        a, b = starts[r0], starts[r1]
        idx = starts[members[a:b]]
        idx -= starts[r0:r1].repeat(starts[r0 + 1 : r1 + 1] - starts[r0:r1])
        idx += np.arange(a, b)
        np.equal(h.take(idx, mode="clip"), h[a:b], out=passed[a:b])
        r0 = r1
    passed[starts[:-1]] = False  # a center alone is no candidate
    pos = passed.nonzero()[0]
    sums = h[pos]
    del h, passed
    # Each passing entry counts the entries in its run of equal sums.
    order = sums.argsort()
    sums = sums[order]
    edges = np.empty(sums.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(sums[1:], sums[:-1], out=edges[1:-1])
    runs = edges.nonzero()[0]
    runs = runs[1:] - runs[:-1]
    count = np.empty_like(pos)
    count[order] = runs.repeat(runs)
    rows = starts.searchsorted(pos, "right") - 1
    sizes = pos - starts[rows] + 1
    ok = count >= sizes
    longest = np.empty(m, dtype=np.intp)
    longest.fill(1)
    np.maximum.at(longest, rows[ok], sizes[ok])
    return longest


def _verified_groups(nbs: Neighborhoods, keys: np.ndarray) -> list[tuple[int, ...]] | None:
    """The classes of the centers' longest candidates, in order, or None if one fails the check.

    A center's candidate is its first ``v > 1`` entries and its class the
    candidate's least member; a point with no candidate has class -1. Each
    class must hold exactly v centers for each of its members' v, and every
    entry of its candidates must be of that class. Then each member's first
    v entries are v distinct points of the class, so they are the class; no
    candidate is shorter than the maximal set, so the class is that set.
    """
    longest = _longest_candidates(nbs, keys)
    centers = (longest > 1).nonzero()[0]
    v = longest[centers]
    offsets = v.cumsum() - v
    # Every candidate's positions, then its members, in one buffer: ones with
    # a jump to each candidate's start, summed in place (the ufunc's own
    # cumsum, the cheapest call); the positions are in range, and "clip"
    # takes in place where "raise" copies.
    jumps = nbs.starts[centers] - offsets
    jumps[1:] -= jumps[:-1] - 1
    entries = np.empty(np.add.reduce(v), dtype=int)
    entries.fill(1)
    entries[offsets] = jumps
    np.add.accumulate(entries, out=entries)
    nbs.members.take(entries, out=entries, mode="clip")
    least = np.minimum.reduceat(entries, offsets)
    classes = np.empty(longest.size, dtype=int)
    classes.fill(-1)
    classes[centers] = least
    classes.take(entries, out=entries, mode="clip")
    if (
        np.logical_or.reduce(np.minimum.reduceat(entries, offsets) != least)
        or np.logical_or.reduce(np.maximum.reduceat(entries, offsets) != least)
        or np.logical_or.reduce(np.bincount(least, minlength=longest.size)[least] != v)
    ):
        return None
    # A stable sort by class lists the classes by least member, members ascending.
    flat = centers[least.argsort(kind="stable")].tolist()
    ends = v[least == centers].cumsum().tolist()
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


def extremely_close_sets(nbs: Neighborhoods) -> list[tuple[int, ...]]:
    """All maximal extremely close sets as ascending tuples, disjoint, sorted by first member.

    A set S of size v qualifies when, for every member c, the first v
    entries of c's ordering equal S as a set. So every qualifying set that
    contains a point i is a prefix of i's ordering, and the maximal set
    containing i is the longest qualifying prefix of that ordering.

    Every point gets a pseudo-random 64-bit key, and one segmented cumsum
    over the CSR arrays gives every prefix the wrapping sum of its keys. A
    prefix of v entries is kept only if its last member's first v entries
    have the same sum (one gather per entry), and one argsort of the kept
    sums counts those that repeat. Each center takes its longest kept prefix
    whose sum occurs at least as often as the prefix is long. A qualifying
    set is the length-v prefix of each of its v members, and each of those
    prefixes ends in a member whose own length-v prefix is the set, so its
    sum is kept v times whatever the keys: no candidate is shorter than the
    maximal set, and one is longer only through a collision of sums. So the
    candidates are checked exactly in one array pass: each candidate's class
    (its least member) must hold as many centers as the candidate is long,
    and hold every point in it. A collision that fails the check redoes the
    level with the next of a few fixed key seeds, so runs stay deterministic.
    """
    n = nbs.starts.size - 1
    for seed in range(_KEY_SEEDS):
        groups = _verified_groups(nbs, _keys(n, seed))
        if groups is not None:
            return groups
    raise RuntimeError("internal invariant violated: no key seed gave groups that pass the check")


# Levels of 2 to this many rows take _small_level's one pass over their square.
_SMALL_LEVEL = 16


def _small_level(coords: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """The cut-off and maximal extremely close sets of a level of 2 to 16 rows.

    The level's square comes from ``core._square``, as the stepwise
    baselines' does, and the cut-off is its largest row minimum (the
    diagonal is +inf); ``sqrt`` is monotone and correctly rounded, so it
    has the bits of :func:`cutoff_distance`. One stable argsort of every
    row, diagonal at -1, gives each ordering, center first and ties by
    index, as :func:`neighborhood` does. With ``pos[x, y]`` the place of y
    in x's ordering (w, the longest ordering's length, where y lies past
    the cut-off) and ``o`` each row's first w entries, prefix v of center c
    is an extremely close set exactly when every ``pos[o[c, a], o[c, b]]``
    with a, b < v is below v, that is when their maximum is v - 1
    (``a = 0`` gives that much). Two running maxima over the m×w×w cube of
    these places give that maximum for every prefix at once, and each
    center takes its longest qualifying prefix, which is the maximal set
    holding it.
    """
    m = len(coords)
    d = _square(coords)
    d_u = float(np.maximum.reduce(np.minimum.reduce(d, axis=1)))
    d.reshape(-1)[:: m + 1] = -1.0
    order = d.argsort(axis=1, kind="stable")
    past = d > d_u
    w = m - int(np.minimum.reduce(np.add.reduce(past, axis=1)))
    pos = np.empty((m, m), dtype=np.intp)
    pos[np.arange(m)[:, None], order] = np.arange(m)
    pos[past] = w
    o = order[:, :w]
    cube = pos[o[:, :, None], o[:, None, :]]
    np.maximum.accumulate(cube, axis=1, out=cube)
    np.maximum.accumulate(cube, axis=2, out=cube)
    k = np.arange(w)
    longest = np.maximum.reduce((cube[:, k, k] == k) * (k + 1), axis=1).tolist()
    # Each set is the longest prefix of every member; its least member lists it.
    groups = []
    for c, (row, v) in enumerate(zip(o.tolist(), longest)):
        if v > 1:
            group = sorted(row[:v])
            if group[0] == c:
                groups.append(tuple(group))
    return d_u, groups


def _merge(coords: np.ndarray, groups: list[tuple[int, ...]]) -> tuple[np.ndarray, list[int]]:
    """Next level's rows, each group's member mean at its smallest slot, and the kept slots.

    The mean is taken over the *member* rows of the current frame, so merging
    a pseudo-point with a singleton weights them equally, regardless of how
    many leaves each covers. A group's other slots are dropped; the remaining
    rows keep their order, and row k of the result is slot ``kept[k]``.
    """
    out = coords.copy()
    keep = np.empty(len(coords), dtype=bool)
    keep.fill(True)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for g in groups:
        by_size.setdefault(len(g), []).append(g)
    # One mean per size over the (groups x size) member slots has the bits of
    # each group's own mean (np.add.reduceat does not); the sum and division
    # are the ones ndarray.mean makes. A raw-frame mean that overflows to inf
    # fails the next level's distances; a last merge has none.
    with np.errstate(over="ignore", invalid="ignore"):
        for size, same_size in by_size.items():
            members = np.array(same_size)
            out[members[:, 0]] = np.add.reduce(coords[members], axis=1) / size
            keep[members[:, 1:]] = False
    return out[keep], keep.nonzero()[0].tolist()


def _standardize_working(coords: np.ndarray, mode: SdMode) -> np.ndarray:
    """Z-score a working frame; columns that collapsed to a constant become 0.

    Each column is one contiguous row of a transposed copy, so the axis-1
    mean and s.d. have the bits of that column's own 1-D reductions. They
    are the sums, divisions and root that ndarray.mean and ndarray.std make,
    in the same order, so they have those methods' bits too.
    """
    cols = np.ascontiguousarray(coords.T)
    varying = np.logical_or.reduce(cols != cols[:, :1], axis=1)
    out = np.zeros(coords.shape)
    if np.logical_or.reduce(varying):  # a one-row frame has none, and asks no s.d. of one row
        v = cols[varying]
        k = v.shape[1]
        dev = v - np.add.reduce(v, axis=1, keepdims=True) / k
        ddof = 1 if mode is SdMode.SAMPLE else 0
        sd = np.sqrt(np.add.reduce(dev * dev, axis=1, keepdims=True) / (k - ddof))
        out[:, varying] = (dev / sd).T
    return out


# The active coordinates and the tree node of each row.
Level = tuple[np.ndarray, list[TreeNode]]


def initial_state(nd: NormalizedDataset) -> Level:
    """Depth-0 level: one leaf node per row (z-scored input on the working grid).

    Nothing O(n²) is allocated here. Raises :class:`ClusteringError` for
    65 536 points or more, which the neighbour ordering's int64 keys cannot hold.
    """
    if nd.n >= _kernels._MAX_NEIGHBOR_POINTS:
        raise ClusteringError(
            f"the adaptive engine takes fewer than {_kernels._MAX_NEIGHBOR_POINTS} "
            f"points, got n={nd.n}"
        )
    coords = np.asarray(nd.coords, dtype=np.float64)
    if nd.normalized:
        coords = coords.round(_WORKING_DECIMALS)
    return coords, [TreeNode((), lab) for lab in nd.labels]


def _step(level: Level, nd: NormalizedDataset, depth: int) -> tuple[Level, DepthRecord]:
    """One iteration: distances, cut-off, neighborhoods, maximal groups, simultaneous merge.

    The matrix lives only inside the step; a one-row level reaches
    :func:`~adaptlink.core.matrix_from_coords`, which raises
    :class:`~adaptlink.core.TooFewPoints`.
    """
    coords, nodes = level
    if 1 < len(coords) <= _SMALL_LEVEL:
        d_u, groups = _small_level(coords)
    else:
        distances = matrix_from_coords(coords)
        d_u = float(cutoff_distance(distances))
        nbs = neighborhood(distances, d_u)
        del distances  # freed before the level's other allocations, which then reuse its space
        groups = extremely_close_sets(nbs)
    if not groups:
        raise RuntimeError("internal invariant violated: no extremely close set")
    coords, kept = _merge(coords, groups)
    # Groups are disjoint and sorted by smallest member, which is the slot
    # their merged node takes; the trace lists them in that order.
    merged = nodes.copy()
    for g in groups:
        kids = tuple([nodes[k] for k in g])
        merged[g[0]] = TreeNode(kids, None, depth, d_u, sum([c.size for c in kids]))
    record = DepthRecord(depth, d_u, tuple([merged[g[0]] for g in groups]))
    nodes = [merged[k] for k in kept]
    if nd.normalized:  # a one-row frame becomes zeros, which nothing reads
        coords = _standardize_working(coords, nd.stats.mode).round(_WORKING_DECIMALS)
    return (coords, nodes), record


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
        **_run_meta(nd, "adaptive"),
        "restandardize": nd.normalized,
        "working_decimals": _WORKING_DECIMALS if nd.normalized else None,
    }
    return Dendrogram(nd.labels, (level[1][0],), tuple(records), meta)

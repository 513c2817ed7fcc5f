"""Independent brute-force verifiers for the adaptive engine and the baselines.

Re-derives every per-depth quantity from the level's coordinates with naive
full scans (O(n^3) overall) and direct validation of the extremely-close-set
definition, then checks the engine's output against it: cut-off value, emitted
groups, homogeneity, disjointness, leaf partition, merge means, termination,
the no-unmerged-mutual-pair condition, and bit-for-bit determinism.

``oracle_stepwise`` is the stepwise baseline as an all-pairs scan per step
(O(n^3) overall); the cached-minimum ``stepwise_cluster`` must match its
output byte for byte.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

import adaptlink as al
from adaptlink import _kernels, adaptive
from adaptlink.adaptive import Dendrogram, DepthRecord, TreeNode
from adaptlink.baseline import LinkageMethod
from adaptlink.core import TooFewPoints, matrix_from_coords


def _dist(a, b) -> float:
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        d = x - y
        acc += d * d
    return math.sqrt(acc)


def oracle_square(coords: np.ndarray) -> list[list[float]]:
    n = coords.shape[0]
    return [
        [0.0 if i == j else _dist(coords[i], coords[j]) for j in range(n)]
        for i in range(n)
    ]


def pairwise(coords) -> np.ndarray:
    """The condensed entries over every row, copies included, from the all-pairs
    kernel with an inf-filled vector for the minima."""
    return _kernels.pairwise_condensed(coords, np.full(len(coords), np.inf))


def condensed_square(entries: np.ndarray, n: int) -> np.ndarray:
    """Symmetric n×n array of condensed entries with inf on the diagonal."""
    square = np.full((n, n), np.inf)
    upper = np.triu_indices(n, 1)
    square[upper] = entries
    square.T[upper] = entries
    return square


def oracle_cutoff(square) -> float:
    return max(
        min(row[j] for j in range(len(row)) if j != i) for i, row in enumerate(square)
    )


def oracle_neighbor_order(square, i: int, cutoff: float) -> list[int]:
    inside = [j for j in range(len(square)) if j != i and square[i][j] <= cutoff]
    inside.sort(key=lambda j: (square[i][j], j))
    return [i] + inside


def oracle_groups(square, cutoff: float) -> list[frozenset[int]]:
    orders = [oracle_neighbor_order(square, i, cutoff) for i in range(len(square))]
    sets: set[frozenset[int]] = set()
    for order in orders:
        for v in range(2, len(order) + 1):
            s = frozenset(order[:v])
            if all(frozenset(orders[m][:v]) == s for m in s):
                sets.add(s)
    return [s for s in sets if not any(s < t for t in sets)], orders


def all_prefix_candidates(nbs, keys: np.ndarray) -> np.ndarray:
    """Each center's longest prefix whose key sum occurs, among every prefix of
    every ordering, at least as often as the prefix is long.

    The engine's candidates count only the prefixes that pass its last-member
    test; absent a collision of sums both give each center its maximal set's
    size (1 where it has none). This count sorts every prefix's sum.
    """
    starts = nbs.starts
    h = keys[nbs.members]
    h[starts[1:-1]] -= np.add.reduceat(h, starts[:-1])[:-1]
    np.add.accumulate(h, out=h)
    order = h.argsort()
    h.sort()
    # Where h[k] == h[k + 1], both lie in one run of a repeated sum.
    k = (h[1:] == h[:-1]).nonzero()[0]
    count = h.searchsorted(h[k], "right") - h.searchsorted(h[k])
    pos = order[np.concatenate((k, k + 1))]
    rows = np.repeat(np.arange(starts.size - 1), starts[1:] - starts[:-1])[pos]
    sizes = pos - starts[rows] + 1
    ok = np.concatenate((count, count)) >= sizes
    longest = np.ones(starts.size - 1, dtype=np.intp)
    np.maximum.at(longest, rows[ok], sizes[ok])
    return longest


def level_orderings(nd):
    """Yield the orderings of every level of the engine's run on ``nd``, depth 1 first."""
    level, depth = adaptive.initial_state(nd), 1
    while len(level[1]) > 1:
        distances = matrix_from_coords(level[0])
        yield adaptive.neighborhood(distances, adaptive.cutoff_distance(distances))
        level, _ = adaptive._step(level, nd, depth)
        depth += 1


def candidate_mismatches(nbs, seeds=range(adaptive._KEY_SEEDS)) -> list[int]:
    """The key seeds under which the engine's candidates and the all-prefix count differ."""
    n = nbs.starts.size - 1
    return [
        seed for seed in seeds
        if not np.array_equal(
            adaptive._longest_candidates(nbs, adaptive._keys(n, seed)),
            all_prefix_candidates(nbs, adaptive._keys(n, seed)),
        )
    ]


@dataclass
class RunReport:
    n: int
    p: int
    depths: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, cond: bool, message: str) -> None:
        self.checks += 1
        if not cond:
            self.failures.append(message)


def raw_frame(nd) -> al.NormalizedDataset:
    """The same values as raw input: the engine keeps them in a raw frame."""
    data = al.Dataset(labels=nd.labels, values=nd.coords, column_names=nd.column_names)
    return al.identity_normalized(data, nd.stats.mode)


def verify_run(nd) -> RunReport:
    """Drive the engine step by step and verify every depth independently."""
    report = RunReport(n=nd.n, p=nd.p)
    first = _drive(nd, report)
    second = _replay(nd)  # engine-only rerun to check determinism
    report.expect(len(first) == len(second), "determinism: trace lengths differ")
    for (c1, g1), (c2, g2) in zip(first, second):
        report.expect(c1 == c2, f"determinism: cutoffs differ ({c1!r} vs {c2!r})")
        report.expect(g1 == g2, "determinism: groups differ")
    return report


def _replay(nd):
    level = adaptive.initial_state(nd)
    trace = []
    while len(level[1]) > 1:
        level, record = adaptive._step(level, nd, len(trace) + 1)
        trace.append((record.cutoff, frozenset(record.groups)))
    return trace


def _drive(nd, report: RunReport):
    label_of = dict(enumerate(nd.labels))
    index_of = {lab: i for i, lab in label_of.items()}
    all_leaves = frozenset(range(nd.n))

    def leaf_indices(nodes):
        return [frozenset(index_of[lab] for lab in node.leaves) for node in nodes]

    level = adaptive.initial_state(nd)
    trace = []
    depths = 0
    while len(level[1]) > 1:
        coords, prev_nodes = level
        prev_leaf_sets = leaf_indices(prev_nodes)
        square = oracle_square(coords)
        cutoff = oracle_cutoff(square)
        groups, orders = oracle_groups(square, cutoff)

        for order in orders:
            report.expect(len(order) >= 2, "Lemma 1 violated: singleton neighborhood")
        report.expect(len(groups) >= 1, "Lemma 2 violated: no extremely close set")

        # homogeneity: inside-group distances never exceed distances out of the group
        for s in groups:
            outside = [j for j in range(len(square)) if j not in s]
            for i, i2 in itertools.combinations(sorted(s), 2):
                for j in outside:
                    report.expect(
                        square[i][i2] <= square[i][j] + 1e-9
                        and square[i][i2] <= square[i2][j] + 1e-9,
                        f"homogeneity violated for {sorted(s)} vs {j}",
                    )
        # pairwise disjoint
        for s, t in itertools.combinations(groups, 2):
            report.expect(not (s & t), "maximal groups overlap")
        # no mutually-first pair left unmerged
        merged_in = {}
        for s in groups:
            for k in s:
                merged_in[k] = s
        for i, j in itertools.combinations(range(len(square)), 2):
            if (
                frozenset(orders[i][:2]) == frozenset(orders[j][:2]) == frozenset({i, j})
            ):
                report.expect(
                    merged_in.get(i) is not None and j in merged_in.get(i, ()),
                    f"mutually-first pair {{{i},{j}}} left unmerged",
                )

        # merge means (exact-mean contract of the merge): a group's row sits
        # at its smallest slot among the slots the merge keeps
        merged, _ = adaptive._merge(coords, [tuple(sorted(s)) for s in groups])
        dropped = {k for s in groups for k in s if k != min(s)}
        kept = [k for k in range(len(coords)) if k not in dropped]
        for s in groups:
            row = merged[kept.index(min(s))]
            for k in range(coords.shape[1]):
                want = math.fsum(float(coords[m][k]) for m in sorted(s)) / len(s)
                report.expect(
                    abs(float(row[k]) - want) <= 1e-12,
                    "merged coords are not the member mean",
                )

        level, record = adaptive._step(level, nd, depths + 1)
        depths += 1

        report.expect(record.cutoff == cutoff, f"cutoff mismatch at depth {record.depth}")
        want_groups = {
            frozenset(label_of[leaf] for m in s for leaf in prev_leaf_sets[m])
            for s in groups
        }
        report.expect(
            set(record.groups) == want_groups,
            f"group mismatch at depth {record.depth}",
        )
        shrink = sum(len(s) - 1 for s in groups)
        leaf_sets = leaf_indices(level[1])
        report.expect(
            len(leaf_sets) == len(level[0]) == len(prev_leaf_sets) - shrink,
            "active count did not shrink by sum(|group|-1)",
        )
        # leaves partition the original index set
        report.expect(
            frozenset().union(*leaf_sets) == all_leaves
            and sum(len(s) for s in leaf_sets) == nd.n,
            "active leaves do not partition the dataset",
        )
        if not nd.normalized:
            # raw frame: stored coords stay the exact merge means
            row_of = {leaves: k for k, leaves in enumerate(leaf_sets)}
            for s in groups:
                merged_leaves = frozenset().union(*(prev_leaf_sets[m] for m in s))
                stored = level[0][row_of[merged_leaves]]
                for k in range(coords.shape[1]):
                    want = math.fsum(float(coords[m][k]) for m in sorted(s)) / len(s)
                    report.expect(
                        abs(float(stored[k]) - want) <= 1e-12,
                        "stored pseudo-point coords drifted from the member mean",
                    )
        trace.append((cutoff, frozenset(record.groups)))
        report.expect(depths <= nd.n - 1, "more than n-1 iterations")
    report.depths = max(report.depths, depths)
    return trace


def random_dataset(rng: np.random.Generator) -> al.Dataset:
    """Uniform values with adversarial duplicate rows mixed in."""
    n = int(rng.integers(2, 41))
    p = int(rng.integers(1, 6))
    values = rng.uniform(-3.0, 3.0, size=(n, p))
    if n >= 3 and rng.random() < 0.6:
        for _ in range(int(rng.integers(1, max(2, n // 4) + 1))):
            src, dst = rng.choice(n, size=2, replace=False)
            values[dst] = values[src]
    labels = tuple(f"pt{i:02d}" for i in range(n))
    columns = tuple(f"c{k}" for k in range(p))
    return al.Dataset(labels=labels, values=values, column_names=columns)


REGIMES = ("grid", "duplicates", "outlier", "cloud", "nested")
# Regimes whose point lies in the raw values, so they run in the raw frame.
RAW_REGIMES = ("signed_zeros", "underflow")


def regime_dataset(regime: str, seed: int = 0) -> al.Dataset:
    """A seeded dataset from a regime where fast group discovery can go wrong.

    * ``grid``: n=150 integer rows with values 0-4 in 3 columns (exact ties);
    * ``duplicates``: 50 distinct rows, each 3 times, shuffled (n=150);
    * ``outlier``: n=150 Gaussian rows, one moved far away (a degenerate level);
    * ``cloud``: n=200 Gaussian rows (large neighborhoods);
    * ``nested``: a tight cluster of 50 rows around one mutual nearest pair
      (rows 0 and 1), 4 units above a box of 100 uniform rows, and one row
      9 units below the box that sets the level-1 cut-off (n=151). Each
      cluster row's ordering runs past the cluster into the box, yet the
      level-1 group of the pair is the whole cluster: its maximal set is
      longer than the leading pair and shorter than its orderings;
    * ``signed_zeros``: n=60 integer rows 0-2 in 3 columns, each zero given
      a random sign, so rows are equal except for the sign of a zero;
    * ``underflow``: n=60 integer rows 0-2 in 2 columns and a third column
      of 1e-200, 2e-200 or 3e-200, so distinct rows lie at distance 0.0.
    """
    rng = np.random.default_rng(seed)
    if regime == "signed_zeros":
        values = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
        values[(values == 0) & (rng.random(values.shape) < 0.5)] = -0.0
    elif regime == "underflow":
        values = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
        values[:, 2] = (values[:, 2] + 1) * 1e-200
    elif regime == "grid":
        values = rng.integers(0, 5, size=(150, 3)).astype(np.float64)
    elif regime == "duplicates":
        values = rng.permutation(np.repeat(rng.normal(size=(50, 3)), 3, axis=0))
    elif regime == "outlier":
        values = rng.normal(size=(150, 3))
        values[int(rng.integers(150))] = 25.0
    elif regime == "cloud":
        values = rng.normal(size=(200, 3))
    elif regime == "nested":
        cluster = np.array([0.0, 0.0, 9.0]) + rng.normal(scale=0.05, size=(50, 3))
        cluster[1] = cluster[0] + 0.001
        box = rng.uniform(-5.0, 5.0, size=(100, 3))
        values = np.vstack([cluster, box, [[0.0, 0.0, -14.0]]])
    else:
        raise ValueError(f"unknown regime {regime!r}")
    labels = tuple(f"{regime[0]}{i:03d}" for i in range(len(values)))
    return al.Dataset(labels=labels, values=values, column_names=("a", "b", "c"))


def regime_frame(regime: str, seed: int = 0) -> al.NormalizedDataset:
    """The regime's input: raw regimes keep their values, the others are z-scored."""
    data = regime_dataset(regime, seed)
    return al.identity_normalized(data) if regime in RAW_REGIMES else al.normalize(data)


def far_outlier(seed: int, n: int = 1000) -> np.ndarray:
    """n Gaussian rows in 3 columns with row 0 moved to 40.0 in each: it sets
    the level-1 cut-off, so the other n - 1 rows form one group."""
    x = np.random.default_rng(seed).standard_normal((n, 3))
    x[0] = 40.0
    return x


def chain(n: int = 1200) -> al.Dataset:
    """x = i² in one column: single linkage adds one point per step, a chain
    n - 1 merges deep, deeper than Python's default recursion limit."""
    return al.Dataset(
        labels=tuple(f"r{i}" for i in range(n)),
        values=[[float(i * i)] for i in range(n)],
        column_names=("c0",),
    )


def run_random_suite(count: int = 200, seed: int = 20240817):
    """Verify `count` random datasets; returns (reports, elapsed_seconds)."""
    rng = np.random.default_rng(seed)
    reports = []
    start = time.perf_counter()
    for i in range(count):
        data = random_dataset(rng)
        mode = al.SdMode.SAMPLE if i % 2 == 0 else al.SdMode.POPULATION
        try:
            nd = al.normalize(data, mode)
        except al.ZeroVariance:
            nd = al.identity_normalized(data, mode)
        reports.append(verify_run(raw_frame(nd) if i % 3 == 2 else nd))
    return reports, time.perf_counter() - start


def _lw_update(method: LinkageMethod, d_ai, d_bi, na: int, nb: int):
    if method is LinkageMethod.SINGLE:
        return np.minimum(d_ai, d_bi)
    if method is LinkageMethod.COMPLETE:
        return np.maximum(d_ai, d_bi)
    return (na * d_ai + nb * d_bi) / (na + nb)


def oracle_stepwise(
    nd,
    method: LinkageMethod,
    stop_threshold: float | None = None,
) -> Dendrogram:
    """Merge the closest pair repeatedly, scanning every active pair per step.

    Ties break on the key (distance, smaller leaf index, larger leaf index),
    where a cluster's leaf index is its smallest leaf's row.
    """
    method = LinkageMethod(method)
    if nd.n < 2:
        raise TooFewPoints(f"stepwise clustering needs n >= 2, got {nd.n}")
    n = nd.n
    dist = condensed_square(pairwise(nd.coords), n)
    nodes: list[TreeNode | None] = [TreeNode((), lab) for lab in nd.labels]
    sizes = [1] * n
    min_leaf = list(range(n))
    min_label = list(nd.labels)
    centroids = np.array(nd.coords) if method is LinkageMethod.CENTROID else None
    active = set(range(n))
    records: list[DepthRecord] = []
    step = 0
    while len(active) > 1:
        act = sorted(active)
        best: tuple | None = None
        for ai, a in enumerate(act):
            for b in act[ai + 1 :]:
                lo, hi = sorted((min_leaf[a], min_leaf[b]))
                key = (dist[a, b], lo, hi)
                if best is None or key < best[0:3]:
                    best = (*key, a, b)
        d, _, _, a, b = best
        if stop_threshold is not None and d > stop_threshold:
            break
        step += 1
        if min_leaf[b] < min_leaf[a]:
            a, b = b, a
        first, second = sorted((a, b), key=lambda s: min_label[s])
        nodes[a] = TreeNode(
            children=(nodes[first], nodes[second]),
            depth=step,
            cutoff=float(d),
            size=sizes[a] + sizes[b],
        )
        nodes[b] = None
        records.append(DepthRecord(depth=step, cutoff=float(d), nodes=(nodes[a],)))
        min_label[a] = min(min_label[a], min_label[b])
        na, nb = sizes[a], sizes[b]
        sizes[a] = na + nb
        min_leaf[a] = min(min_leaf[a], min_leaf[b])
        active.remove(b)
        others = [i for i in sorted(active) if i != a]
        if method is LinkageMethod.CENTROID:
            centroids[a] = (na * centroids[a] + nb * centroids[b]) / (na + nb)
            for i in others:
                dist[a, i] = dist[i, a] = _dist(centroids[a], centroids[i])
        elif others:
            idx = np.array(others)
            updated = _lw_update(method, dist[a, idx], dist[b, idx], na, nb)
            dist[a, idx] = updated
            dist[idx, a] = updated
        dist[b, :] = np.inf
        dist[:, b] = np.inf
    roots = tuple(nodes[i] for i in sorted(active, key=lambda i: min_leaf[i]))
    meta = {
        "method": method.value,
        "sd_mode": nd.stats.mode.value,
        "normalized": nd.normalized,
        "stop_threshold": stop_threshold,
        "columns": list(nd.column_names),
        "dataset_sha256": nd.source_hash,
    }
    return Dendrogram(labels=nd.labels, roots=roots, trace=tuple(records), meta=meta)

"""Tests for the classical stepwise baselines and the compactness comparison."""
import functools
import gc
import tracemalloc

import numpy as np
import pytest

import adaptlink as al
from adaptlink import _kernels, core, io
from adaptlink.adaptive import _preorder

from _oracle import RAW_REGIMES, REGIMES, chain, oracle_stepwise, regime_frame


ALL_METHODS = tuple(al.LinkageMethod)


def tiny(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(f"r{i}" for i in range(len(values)))
    data = al.Dataset(
        labels=labels,
        values=values,
        column_names=tuple(f"c{k}" for k in range(values.shape[1])),
    )
    return al.identity_normalized(data)


class TestStepwise:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_two_points(self, method):
        nd = tiny([[0.0, 0.0], [3.0, 4.0]])
        d = al.stepwise_cluster(nd, method)
        assert len(d.trace) == 1
        assert d.trace[0].cutoff == 5.0
        assert d.trace[0].groups == (frozenset({"r0", "r1"}),)
        assert d.root is not None and len(d.root.children) == 2

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_first_merge_is_global_minimum(self, method):
        nd = tiny([[0.0], [1.0], [3.0]])  # d01=1, d12=2, d02=3
        d = al.stepwise_cluster(nd, method)
        assert d.trace[0].groups == (frozenset({"r0", "r1"}),)
        assert d.trace[0].cutoff == 1.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_step_merges_exactly_two(self, para_nd, method):
        d = al.stepwise_cluster(para_nd, method)
        assert len(d.trace) == para_nd.n - 1
        assert all(len(rec.groups) == 1 for rec in d.trace)

        def count_internal(node):
            if node.is_leaf:
                return 0
            assert len(node.children) == 2
            return 1 + sum(count_internal(c) for c in node.children)

        assert count_internal(d.root) == para_nd.n - 1

    @pytest.mark.parametrize(
        "method", (al.LinkageMethod.SINGLE, al.LinkageMethod.COMPLETE, al.LinkageMethod.AVERAGE)
    )
    def test_merge_distances_monotone(self, para_nd, method):
        d = al.stepwise_cluster(para_nd, method)
        cuts = [rec.cutoff for rec in d.trace]
        assert all(a <= b + 1e-12 for a, b in zip(cuts, cuts[1:]))

    def test_centroid_runs_to_root(self, meta_nd):
        d = al.stepwise_cluster(meta_nd, al.LinkageMethod.CENTROID)
        assert len(d.trace) == meta_nd.n - 1
        assert d.root.leaves == frozenset(meta_nd.labels)

    def test_average_linkage_midpoint_distance(self):
        # clusters {0,1} and {2}: average linkage = (d02 + d12) / 2
        nd = tiny([[0.0], [2.0], [7.0]])
        d = al.stepwise_cluster(nd, al.LinkageMethod.AVERAGE)
        assert d.trace[0].cutoff == 2.0
        assert d.trace[1].cutoff == (7.0 + 5.0) / 2

    def test_single_vs_complete_divergence(self):
        nd = tiny([[0.0], [2.0], [7.0]])
        single = al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)
        complete = al.stepwise_cluster(nd, al.LinkageMethod.COMPLETE)
        assert single.trace[1].cutoff == 5.0
        assert complete.trace[1].cutoff == 7.0

    def test_centroid_uses_cluster_means(self):
        # after merging [0] and [2], centroid sits at 1: distance to [7] is 6
        nd = tiny([[0.0], [2.0], [7.0]])
        d = al.stepwise_cluster(nd, al.LinkageMethod.CENTROID)
        assert d.trace[1].cutoff == 6.0

    def test_threshold_leaves_forest(self, para_nd):
        d = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=1.0)
        assert len(d.roots) > 1
        assert len(d.trace) < para_nd.n - 1
        assert d.root is None
        leaves = [leaf for r in d.roots for leaf in r.leaves]
        assert sorted(leaves) == sorted(para_nd.labels)
        assert all(rec.cutoff <= 1.0 for rec in d.trace)

    @pytest.mark.parametrize("threshold", [np.float32(1.0), np.float64(1.0), 1])
    def test_threshold_is_stored_as_a_float(self, para_nd, threshold):
        d = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=threshold)
        assert type(d.meta["stop_threshold"]) is float
        as_float = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=1.0)
        assert io.write_trace(d) == io.write_trace(as_float)

    @pytest.mark.parametrize("threshold", [None, 1.0])
    def test_result_is_a_dendrogram(self, para_nd, threshold):
        d = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=threshold)
        assert type(d) is al.Dendrogram
        assert d.meta["method"] == "average"
        assert (len(d.roots) == 1) is (threshold is None)

    def test_threshold_above_range_gives_single_root(self, para_nd):
        d = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=1e9)
        assert len(d.roots) == 1

    def test_deterministic(self, meta_nd):
        a = al.stepwise_cluster(meta_nd, al.LinkageMethod.AVERAGE)
        b = al.stepwise_cluster(meta_nd, al.LinkageMethod.AVERAGE)
        assert [r.cutoff for r in a.trace] == [r.cutoff for r in b.trace]
        assert [r.groups for r in a.trace] == [r.groups for r in b.trace]

    def test_duplicate_rows_merge_first(self):
        nd = tiny([[5.0], [0.0], [5.0], [9.0]])
        d = al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)
        assert d.trace[0].cutoff == 0.0
        assert d.trace[0].groups == (frozenset({"r0", "r2"}),)

    def test_rejects_single_point(self):
        with pytest.raises(al.TooFewPoints):
            al.stepwise_cluster(tiny([[1.0, 2.0]]), al.LinkageMethod.SINGLE)

    def test_rejects_nan_threshold(self, para_nd):
        with pytest.raises(al.ClusteringError, match="NaN"):
            al.stepwise_cluster(
                para_nd, al.LinkageMethod.AVERAGE, stop_threshold=float("nan")
            )

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf")])
    def test_rejects_infinite_threshold(self, para_nd, threshold):
        with pytest.raises(al.ClusteringError, match="finite"):
            al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=threshold)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_centroid(self):
        # distances are finite, but the mean of two 1.5e308 rows overflows
        nd = tiny([[1.5e308, 0.0], [1.5e308, 1.0], [1.5e308, 3.0]])
        message = "^centroid distances overflow double precision; rescale the descriptors$"
        with pytest.raises(al.Overflow, match=message):
            al.stepwise_cluster(nd, al.LinkageMethod.CENTROID)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_square_built_without_condensed_distances(self, monkeypatch, para_nd, method):
        def refuse(*args):
            raise AssertionError("condensed distances built")

        monkeypatch.setattr(core, "matrix_from_coords", refuse)
        monkeypatch.setattr(_kernels, "pairwise_condensed", refuse)
        assert len(al.stepwise_cluster(para_nd, method).trace) == para_nd.n - 1

    def test_overflowing_distances(self):
        # The square is checked before any linkage reads it.
        nd = tiny([[1e200, 0.0], [-1e200, 1.0], [0.0, 0.5]])
        with pytest.raises(al.Overflow, match="pairwise distances overflow"):
            al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)


def outputs(d):
    return io.write_trace(d), io.write_dot(d), io.write_tree_text(d)


@functools.lru_cache(maxsize=None)
def normalized(name):
    if name in ("para", "meta"):
        return al.normalize(io.load_fixture(name))
    return regime_frame(name)  # the raw regimes stay in the raw frame


class TestAgainstOracle:
    """The cached row minimum gives the all-pairs scan's bytes, ties included."""

    @pytest.mark.parametrize("cut", ("full", "mid"))
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("name", (*REGIMES, *RAW_REGIMES, "para", "meta"))
    def test_same_bytes(self, name, method, cut):
        nd = normalized(name)
        threshold = None
        if cut == "mid":
            # a merge height itself, so merges at exactly the threshold happen
            heights = [rec.cutoff for rec in al.stepwise_cluster(nd, method).trace]
            threshold = heights[len(heights) // 2]
        got = al.stepwise_cluster(nd, method, stop_threshold=threshold)
        want = oracle_stepwise(nd, method, stop_threshold=threshold)
        assert outputs(got) == outputs(want)
        if cut == "mid":
            assert 1 < len(got.roots) < nd.n


class TestWholeRows:
    """A merged-away slot's row, column and cached distance hold +inf."""

    def test_merged_slot_never_comes_back_as_a_nearest(self):
        # min(dist[a], dist[b]) is d01 = 1 at slot 1 itself: without the
        # reset, row 1 would cache slot 0 at 1 and merge again at step 2.
        nd = tiny([[0.0], [1.0], [3.0], [7.0]])
        got = al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)
        assert [rec.cutoff for rec in got.trace] == [1.0, 2.0, 4.0]
        assert outputs(got) == outputs(oracle_stepwise(nd, al.LinkageMethod.SINGLE))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_forest_roots_in_slot_order(self, method):
        # Slots 1 and 3 merge first, then 0 and 2; slot 4 stays a leaf.
        nd = tiny([[0.0], [10.0], [1.5], [11.0], [5.0]])
        got = al.stepwise_cluster(nd, method, stop_threshold=1.6)
        assert [rec.cutoff for rec in got.trace] == [1.0, 1.5]
        assert [set(root.leaves) for root in got.roots] == [{"r0", "r2"}, {"r1", "r3"}, {"r4"}]
        assert outputs(got) == outputs(oracle_stepwise(nd, method, stop_threshold=1.6))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_last_centroid_is_never_read(self):
        # The mean of the last pair overflows, but no live slot is left to
        # measure it against, so only its own merge height is recorded.
        nd = tiny([[1.5e308, 0.0], [1.5e308, 1.0]])
        got = al.stepwise_cluster(nd, al.LinkageMethod.CENTROID)
        assert [rec.cutoff for rec in got.trace] == [1.0]


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_merge_heights_in_order(self, method, seed):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        coords = np.random.default_rng(seed).standard_normal((60, 3))
        ours = [rec.cutoff for rec in al.stepwise_cluster(tiny(coords), method).trace]
        ref = hierarchy.linkage(coords, method=method.value)[:, 2]
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=0)


class TestCompare:
    def test_para_levels_vs_steps(self, para_nd):
        adaptive = al.build_dendrogram(para_nd)
        stepwise = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE)
        report = al.compare_compactness(adaptive, stepwise)
        assert report.adaptive_levels == 10
        assert report.stepwise_steps == 24
        assert report.adaptive_more_compact
        assert str(report).splitlines()[0] == "adaptive: 10 levels, average-linkage: 24 steps"

    def test_meta_levels_vs_steps(self, meta_nd):
        adaptive = al.build_dendrogram(meta_nd)
        stepwise = al.stepwise_cluster(meta_nd, al.LinkageMethod.AVERAGE)
        report = al.compare_compactness(adaptive, stepwise)
        assert report.adaptive_levels == 7
        assert report.stepwise_steps == 24
        assert report.adaptive_more_compact
        assert report.stepwise_max_arity == 2
        assert report.adaptive_max_arity == 3  # the H/NO2/SO2Me triple
        assert sum(report.groups_per_level) == sum(len(g) for g in (r.groups for r in adaptive.trace))

    def test_two_points_tie(self):
        nd = tiny([[0.0], [1.0]])
        adaptive = al.build_dendrogram(nd)
        stepwise = al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)
        report = al.compare_compactness(adaptive, stepwise)
        assert report.adaptive_levels == report.stepwise_steps == 1
        assert not report.adaptive_more_compact
        assert adaptive.root.leaves == stepwise.root.leaves
        assert {c.leaves for c in adaptive.root.children} == {
            c.leaves for c in stepwise.root.children
        }

    def test_adaptive_run_as_the_stepwise_run_raises(self, para_nd):
        adaptive = al.build_dendrogram(para_nd)
        with pytest.raises(ValueError, match="adaptive"):
            al.compare_compactness(adaptive, adaptive)

    def test_stepwise_run_as_the_adaptive_run_raises(self, para_nd):
        stepwise = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE)
        with pytest.raises(ValueError, match="^the first run's method is 'average', not 'adaptive'$"):
            al.compare_compactness(stepwise, stepwise)

    @pytest.mark.parametrize("threshold, roots", [(1.0, 7), (0.0, 25)], ids=["seven", "no-merge"])
    def test_stepwise_forest_raises(self, para_nd, threshold, roots):
        # A run stopped early is no count of the steps to one tree.
        adaptive = al.build_dendrogram(para_nd)
        forest = al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE, stop_threshold=threshold)
        assert len(forest.roots) == roots
        with pytest.raises(ValueError, match=f"^the second run is a forest of {roots} trees$"):
            al.compare_compactness(adaptive, forest)

    def test_leaf_mismatch(self, para_nd):
        adaptive = al.build_dendrogram(para_nd)
        other = tiny([[0.0], [1.0], [2.0]], labels=("x", "y", "z"))
        stepwise = al.stepwise_cluster(other, al.LinkageMethod.AVERAGE)
        with pytest.raises(al.LeafMismatch):
            al.compare_compactness(adaptive, stepwise)


class TestDeepTree:
    """The single-linkage run on ``_oracle.chain``: a tree 1199 merges deep."""

    N = 1200

    def chain_root(self):
        return al.stepwise_cluster(al.identity_normalized(chain()), al.LinkageMethod.SINGLE).root

    @staticmethod
    def with_deepest_cutoff(root, cutoff):
        """A copy of the chain whose deepest merge has another cut-off."""
        path = [root]
        while not all(c.is_leaf for c in path[-1].children):
            path.append(next(c for c in path[-1].children if not c.is_leaf))
        node = path[-1]._replace(cutoff=cutoff)
        for parent in reversed(path[:-1]):
            children = tuple(c if c.is_leaf else node for c in parent.children)
            node = parent._replace(children=children)
        return node, len(path)

    def test_equal_trees_compare_equal(self):
        a, b = self.chain_root(), self.chain_root()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) and repr(a).startswith("TreeNode(")

    def test_one_changed_cutoff_compares_unequal(self):
        a = self.chain_root()
        changed, depth = self.with_deepest_cutoff(a, 0.5)
        assert depth == self.N - 1
        assert changed != a and a != changed
        assert changed == self.with_deepest_cutoff(self.chain_root(), 0.5)[0]
        assert changed == self.with_deepest_cutoff(a, 0.5)[0]
        assert a == self.with_deepest_cutoff(a, 1.0)[0]  # x = 0, 1: the first merge is at 1

    def test_leaf_and_other_types(self):
        leaf = al.TreeNode(label="a")
        assert leaf == al.TreeNode(label="a")
        assert leaf != al.TreeNode(label="a", depth=1)
        assert (leaf == al.TreeNode(label="a", size=2)) is False
        pair = al.TreeNode((leaf, al.TreeNode(label="b")), depth=1, cutoff=1.0, size=2)
        longer = pair._replace(children=(*pair.children, al.TreeNode(label="c")))
        assert (pair == longer) is False  # the walk zips children, so it counts them first
        assert leaf != "a" and len({leaf, al.TreeNode((), "a")}) == 1


class TestTreeMemory:
    """A node holds its leaf count, not its leaves' labels, and a trace record
    its merged nodes, so a tree and its trace take O(nodes) memory."""

    def test_chain_keeps_less_than_a_square(self):
        # TestDeepTree's chain: a node per merge that held its leaves' labels
        # kept 33 MiB here, three times the square.
        n = TestDeepTree.N
        nd = al.identity_normalized(chain(n))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = al.stepwise_cluster(nd, al.LinkageMethod.SINGLE)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(d.trace) == n - 1 and d.root.size == n
        assert kept < n * n * 8  # one n×n float64 square, 11 MiB

    @pytest.mark.parametrize("fixture", ["para", "meta"])
    def test_size_counts_the_leaves(self, fixture):
        nd = al.normalize(io.load_fixture(fixture))
        for d in (al.build_dendrogram(nd), al.stepwise_cluster(nd, al.LinkageMethod.AVERAGE)):
            for node, _ in _preorder(d.roots):
                assert node.size == len(node.leaves)
                if node.children:
                    assert node.leaves == frozenset().union(*(c.leaves for c in node.children))
            assert d.root.leaves == frozenset(nd.labels)

    @pytest.mark.parametrize("fixture", ["para", "meta"])
    def test_equal_runs_hash_equal(self, fixture):
        # The metadata is a dict, so it stays out of the hash.
        nd = al.normalize(io.load_fixture(fixture))
        for run in (al.build_dendrogram, functools.partial(al.stepwise_cluster, method="single")):
            a, b = run(nd), run(nd)
            assert a == b and hash(a) == hash(b)
            assert a.trace == b.trace and hash(a.trace) == hash(b.trace)

"""Tests for the adaptive clustering engine."""
import numpy as np
import pytest

import adaptlink as al
from adaptlink import io

import _expected as exp
from _oracle import REGIMES, oracle_groups, oracle_square, regime_dataset, verify_run


RAW = al.EngineConfig(restandardize=False, working_decimals=None)


def leaf_state(coords, config=RAW):
    coords = np.asarray(coords, dtype=float)
    points = tuple(
        al.PseudoPoint(id=i, coords=coords[i], leaves=frozenset({i}), formed_at_depth=0)
        for i in range(len(coords))
    )
    return al.ClusterState(
        depth=0,
        points=points,
        matrix=al.matrix_from_coords(coords),
        labels=tuple(f"p{i}" for i in range(len(coords))),
        config=config,
        sd_mode=al.SdMode.SAMPLE,
    )


@pytest.fixture(scope="module")
def para_nd():
    return al.normalize(io.load_fixture("para"))


@pytest.fixture(scope="module")
def meta_nd():
    return al.normalize(io.load_fixture("meta"))


class TestCutoff:
    def test_two_points(self):
        m = al.matrix_from_coords(np.array([[0.0], [3.0]]))
        assert al.cutoff_distance(m) == 3.0

    def test_max_of_row_minima(self):
        # distances: d01=1, d02=3, d12=2 -> row minima 1, 1, 2 -> cut-off 2
        m = al.DistanceMatrix(n=3, entries=np.array([1.0, 3.0, 2.0]))
        assert al.cutoff_distance(m) == 2.0

    def test_needs_two_points(self):
        with pytest.raises(al.TooFewPoints):
            al.cutoff_distance(al.DistanceMatrix(n=1, entries=np.array([])))

    def test_para_depth1_value(self, para_nd):
        state = al.initial_state(para_nd)
        cut = al.cutoff_distance(state.matrix)
        assert cut == exp.PARA_CUTOFFS[0]
        assert al.format_cutoff(cut) == "1.05"

    def test_meta_depth1_value(self, meta_nd):
        state = al.initial_state(meta_nd)
        cut = al.cutoff_distance(state.matrix)
        assert cut == exp.META_CUTOFFS[0]
        assert al.format_cutoff(cut) == "0.89"


class TestFormatCutoff:
    def test_truncates_toward_zero(self):
        assert al.format_cutoff(0.8974306608629996) == "0.89"
        assert al.format_cutoff(1.5078407935206555) == "1.50"
        assert al.format_cutoff(1.9716314260114642) == "1.97"

    def test_exact_values_unchanged(self):
        assert al.format_cutoff(2.0000006188979045) == "2.00"
        assert al.format_cutoff(0.29) == "0.29"
        assert al.format_cutoff(1.05) == "1.05"


class TestNeighborhood:
    def test_center_first_and_sorted(self, para_nd):
        state = al.initial_state(para_nd)
        cut = al.cutoff_distance(state.matrix)
        for i in range(state.matrix.n):
            nb = al.neighborhood(state.matrix, i, cut)
            assert nb.members[0] == i
            assert nb.distances[0] == 0.0
            assert len(nb.members) >= 2  # Lemma 1: the cut-off admits a neighbor
            assert all(d <= cut for d in nb.distances)
            assert list(nb.distances) == sorted(nb.distances)

    def test_para_cl_contains_br(self, para_nd):
        state = al.initial_state(para_nd)
        cut = al.cutoff_distance(state.matrix)
        cl = para_nd.labels.index("Cl")
        br = para_nd.labels.index("Br")
        nb = al.neighborhood(state.matrix, cl, cut)
        assert br in nb.members

    def test_center_out_of_range(self, para_nd):
        m = al.distance_matrix(para_nd)
        with pytest.raises(al.OutOfRange):
            al.neighborhood(m, 25, 1.0)
        with pytest.raises(al.OutOfRange):
            al.neighborhood(m, -1, 1.0)


class TestSubNeighborhood:
    def test_prefixes(self):
        nb = al.Neighborhood(center=3, members=(3, 1, 0), distances=(0.0, 0.5, 0.9), cutoff=1.0)
        assert al.sub_neighborhood(nb, 1) == (3,)
        assert al.sub_neighborhood(nb, 2) == (3, 1)
        assert al.sub_neighborhood(nb, 3) == (3, 1, 0)

    def test_out_of_range(self):
        nb = al.Neighborhood(center=0, members=(0, 1), distances=(0.0, 1.0), cutoff=1.0)
        for v in (0, 3, -1):
            with pytest.raises(al.OutOfRange):
                al.sub_neighborhood(nb, v)

    def test_mutual_pair_on_fixture(self, para_nd):
        state = al.initial_state(para_nd)
        cut = al.cutoff_distance(state.matrix)
        cl = para_nd.labels.index("Cl")
        br = para_nd.labels.index("Br")
        a = al.neighborhood(state.matrix, cl, cut)
        b = al.neighborhood(state.matrix, br, cut)
        assert set(al.sub_neighborhood(a, 2)) == set(al.sub_neighborhood(b, 2)) == {cl, br}


class TestExtremelyCloseSets:
    def nbhds(self, coords):
        m = al.matrix_from_coords(coords)
        cut = al.cutoff_distance(m)
        return [al.neighborhood(m, i, cut) for i in range(m.n)]

    def test_two_points_merge(self):
        groups = al.extremely_close_sets(self.nbhds(np.array([[0.0], [1.0]])))
        assert [g.members for g in groups] == [(0, 1)]

    def test_clustered_pairs(self):
        coords = np.array([[0.0], [0.1], [5.0], [5.1]])
        groups = al.extremely_close_sets(self.nbhds(coords))
        assert [g.members for g in groups] == [(0, 1), (2, 3)]

    def test_para_depth1_groups(self, para_nd):
        state = al.initial_state(para_nd)
        cut = al.cutoff_distance(state.matrix)
        nbs = [al.neighborhood(state.matrix, i, cut) for i in range(state.matrix.n)]
        groups = {g.members for g in al.extremely_close_sets(nbs)}
        assert groups == {
            (1, 21), (3, 8), (4, 7), (6, 24), (9, 17), (10, 18), (13, 14), (15, 16)
        }

    def test_meta_depth1_groups(self, meta_nd):
        state = al.initial_state(meta_nd)
        cut = al.cutoff_distance(state.matrix)
        nbs = [al.neighborhood(state.matrix, i, cut) for i in range(state.matrix.n)]
        groups = {g.members for g in al.extremely_close_sets(nbs)}
        assert groups == {
            (0, 21), (2, 19), (4, 22), (5, 23), (6, 7, 24),
            (9, 17), (10, 18), (11, 12), (15, 16),
        }

    def test_groups_disjoint_and_sorted(self, meta_nd):
        state = al.initial_state(meta_nd)
        cut = al.cutoff_distance(state.matrix)
        nbs = [al.neighborhood(state.matrix, i, cut) for i in range(state.matrix.n)]
        groups = al.extremely_close_sets(nbs)
        seen = set()
        for g in groups:
            assert not (seen & set(g.members))
            seen |= set(g.members)
        assert [min(g.members) for g in groups] == sorted(min(g.members) for g in groups)

    def test_center_first_before_lower_index_duplicate(self):
        m = al.matrix_from_coords(np.array([[0.0], [0.0], [5.0]]))
        nb = al.neighborhood(m, 1, al.cutoff_distance(m))
        assert nb.members == (1, 0, 2) and nb.distances == (0.0, 0.0, 5.0)

    def test_unequal_neighborhood_lengths(self):
        # Lengths 3, 3, 4, 2: the padded rows must not admit the fourth point.
        nbs = self.nbhds(np.array([[0.0], [1.0], [2.5], [6.0]]))
        assert [len(nb.members) for nb in nbs] == [3, 3, 4, 2]
        assert [g.members for g in al.extremely_close_sets(nbs)] == [(0, 1, 2)]

    def test_degenerate_level_merges_all_but_one(self):
        rng = np.random.default_rng(3)
        coords = np.concatenate([[[100.0]], rng.uniform(0, 1, size=(59, 1))])
        groups = al.extremely_close_sets(self.nbhds(coords))
        assert [g.members for g in groups] == [tuple(range(1, 60))]

    def test_sorted_by_smallest_member_in_any_input_order(self):
        coords = np.array([[5.0], [0.0], [5.1], [0.1], [9.0], [9.2]])
        nbs = self.nbhds(coords)
        groups = al.extremely_close_sets(nbs[::-1])
        assert [g.members for g in groups] == [(0, 2), (1, 3), (4, 5)]

    def test_missing_neighborhood_rejected(self):
        nbs = self.nbhds(np.array([[0.0], [1.0], [3.0]]))
        with pytest.raises(ValueError):
            al.extremely_close_sets(nbs[1:])

    @pytest.mark.parametrize("regime", REGIMES)
    def test_batching_does_not_change_groups(self, regime, monkeypatch):
        # One center per batch and one first row force every batch and row
        # doubling path; the result must match the oracle's definition.
        coords = al.normalize(regime_dataset(regime)).coords
        m = al.matrix_from_coords(coords)
        cut = al.cutoff_distance(m)
        nbs = [al.neighborhood(m, i, cut) for i in range(m.n)]
        want, _ = oracle_groups(oracle_square(coords), cut)
        want = sorted(tuple(sorted(s)) for s in want)
        assert [g.members for g in al.extremely_close_sets(nbs)] == want
        monkeypatch.setattr(al.adaptive, "_CELL_BUDGET", 1)
        monkeypatch.setattr(al.adaptive, "_FIRST_ROWS", 1)
        assert [g.members for g in al.extremely_close_sets(nbs)] == want


class TestMergeGroup:
    def test_identical_points(self):
        state = leaf_state([[2.0, 3.0], [2.0, 3.0], [9.0, 9.0]])
        p = al.merge_group(state, al.MergeGroup(members=(0, 1)), 1)
        assert np.array_equal(p.coords, [2.0, 3.0])
        assert p.leaves == frozenset({0, 1})
        assert p.id == 0 and p.formed_at_depth == 1

    def test_midpoint(self):
        state = leaf_state([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]])
        p = al.merge_group(state, al.MergeGroup(members=(0, 1)), 1)
        assert np.array_equal(p.coords, [1.0, 1.0])

    def test_mean_of_members_not_leaves(self):
        # merging a merged pair with a third point averages the two *members*
        state = leaf_state([[0.0, 0.0], [2.0, 2.0], [4.0, 6.0]])
        m = al.merge_group(state, al.MergeGroup(members=(0, 1)), 1)
        state2 = al.ClusterState(
            depth=1,
            points=(m, state.points[2]),
            matrix=al.matrix_from_coords(np.stack([m.coords, state.points[2].coords])),
            labels=state.labels,
            config=RAW,
            sd_mode=al.SdMode.SAMPLE,
        )
        p = al.merge_group(state2, al.MergeGroup(members=(0, 1)), 2)
        assert np.array_equal(p.coords, [2.5, 3.5])  # (m + c) / 2
        leaf_mean = np.mean(np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 6.0]]), axis=0)
        assert not np.array_equal(p.coords, leaf_mean)
        assert p.leaves == frozenset({0, 1, 2})

    def test_stale_index(self):
        state = leaf_state([[0.0], [1.0], [2.0]])
        with pytest.raises(al.StaleIndex):
            al.merge_group(state, al.MergeGroup(members=(0, 7)), 1)

    def test_group_validation(self):
        with pytest.raises(ValueError):
            al.MergeGroup(members=(3,))
        with pytest.raises(ValueError):
            al.MergeGroup(members=(3, 3))
        assert al.MergeGroup(members=(4, 2)).members == (2, 4)


class TestClusterStep:
    def test_para_first_step_counts(self, para_nd):
        state, record = al.cluster_step(al.initial_state(para_nd))
        assert record.depth == 1
        assert len(record.groups) == 8
        assert len(state.points) == 25 - 8
        assert state.depth == 1

    def test_meta_first_step_counts(self, meta_nd):
        state, record = al.cluster_step(al.initial_state(meta_nd))
        assert len(record.groups) == 9
        assert len(state.points) == 25 - 10  # eight pairs and one triple

    def test_two_points_collapse(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        state, record = al.cluster_step(al.initial_state(nd, RAW))
        assert len(state.points) == 1
        assert record.groups == (frozenset({"a", "b"}),)
        assert state.points[0].leaves == frozenset({0, 1})

    def test_single_point_state_rejected(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        state, _ = al.cluster_step(al.initial_state(nd, RAW))
        with pytest.raises(al.TooFewPoints):
            al.cluster_step(state)

    def test_pseudo_point_ids_stay_unique(self, meta_nd):
        state = al.initial_state(meta_nd)
        while len(state.points) > 1:
            state, _ = al.cluster_step(state)
            ids = [p.id for p in state.points]
            assert len(ids) == len(set(ids))
            assert ids == sorted(ids)


class TestBuildDendrogram:
    def test_single_point(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("only",), values=np.array([[1.0, 2.0]]), column_names=("x", "y"))
        )
        d = al.build_dendrogram(nd, RAW)
        assert d.trace == ()
        assert d.root.is_leaf and d.root.label == "only"

    def test_para_trace(self, para_nd):
        d = al.build_dendrogram(para_nd)
        assert len(d.trace) == 10
        assert tuple(r.display for r in d.trace) == exp.PARA_DISPLAYS
        assert tuple(r.cutoff for r in d.trace) == exp.PARA_CUTOFFS
        for rec, want in zip(d.trace, exp.PARA_GROUPS):
            assert set(rec.groups) == exp.as_group_sets(want)

    def test_meta_trace(self, meta_nd):
        d = al.build_dendrogram(meta_nd)
        assert len(d.trace) == 7
        assert tuple(r.display for r in d.trace) == exp.META_DISPLAYS
        assert tuple(r.cutoff for r in d.trace) == exp.META_CUTOFFS
        for rec, want in zip(d.trace, exp.META_GROUPS):
            assert set(rec.groups) == exp.as_group_sets(want)

    def test_root_covers_all_leaves(self, para_nd):
        d = al.build_dendrogram(para_nd)
        assert d.root.leaves == frozenset(para_nd.labels)

    def test_each_leaf_exactly_once(self, meta_nd):
        d = al.build_dendrogram(meta_nd)
        seen = []

        def walk(node):
            if node.is_leaf:
                seen.append(node.label)
            for c in node.children:
                assert c.leaves < node.leaves
                walk(c)

        walk(d.root)
        assert sorted(seen) == sorted(meta_nd.labels)

    def test_child_depths_precede_parent(self, meta_nd):
        d = al.build_dendrogram(meta_nd)

        def walk(node):
            for c in node.children:
                assert c.depth < node.depth
                walk(c)

        walk(d.root)

    def test_meta_triple_is_one_node(self, meta_nd):
        d = al.build_dendrogram(meta_nd)
        target = frozenset({"H", "NO2", "SO2Me"})
        found = []

        def walk(node):
            if node.leaves == target:
                found.append(node)
            for c in node.children:
                walk(c)

        walk(d.root)
        assert len(found) == 1
        assert len(found[0].children) == 3
        assert all(c.is_leaf for c in found[0].children)

    def test_meta_dict(self, para_nd):
        d = al.build_dendrogram(para_nd)
        assert d.meta["method"] == "adaptive"
        assert d.meta["sd_mode"] == "sample"
        assert d.meta["normalized"] is True
        assert d.meta["restandardize"] is True
        assert d.meta["working_decimals"] == 6

    def test_deterministic_across_runs(self, meta_nd):
        a = al.build_dendrogram(meta_nd)
        b = al.build_dendrogram(meta_nd)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.cutoff == rb.cutoff  # bit-for-bit
            assert ra.groups == rb.groups

    def test_raw_config_terminates(self, para_nd):
        d = al.build_dendrogram(para_nd, RAW)
        assert d.root.leaves == frozenset(para_nd.labels)
        assert 1 <= len(d.trace) <= 24

    def test_population_mode_runs(self):
        nd = al.normalize(io.load_fixture("para"), al.SdMode.POPULATION)
        d = al.build_dendrogram(nd)
        assert d.root.leaves == frozenset(nd.labels)


class TestAgainstOracle:
    def test_para_every_depth(self, para_nd):
        report = verify_run(para_nd)
        assert report.failures == []

    def test_meta_every_depth(self, meta_nd):
        report = verify_run(meta_nd)
        assert report.failures == []

    def test_meta_raw_config(self, meta_nd):
        report = verify_run(meta_nd, RAW)
        assert report.failures == []

    @pytest.mark.parametrize("regime", REGIMES)
    def test_regime(self, regime):
        report = verify_run(al.normalize(regime_dataset(regime)))
        assert report.failures == []
        assert report.depths >= 1

    def test_small_random(self):
        rng = np.random.default_rng(42)
        values = rng.uniform(-1, 1, size=(9, 3))
        values[4] = values[1]  # force a duplicate row
        data = al.Dataset(
            labels=tuple(f"x{i}" for i in range(9)),
            values=values,
            column_names=("a", "b", "c"),
        )
        report = verify_run(al.normalize(data))
        assert report.failures == []

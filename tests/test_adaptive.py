"""Tests for the adaptive clustering engine."""
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import adaptlink as al
from adaptlink import _kernels, adaptive, core, io

import _expected as exp
from _oracle import (
    RAW_REGIMES, REGIMES, candidate_mismatches, condensed_square, level_orderings,
    oracle_groups, oracle_neighbor_order, oracle_square, pairwise, raw_frame, regime_dataset,
    regime_frame, verify_run
)


def orderings(nbs):
    """Each point's ordering, sliced from the level's CSR arrays."""
    return [nbs.members[a:b].tolist() for a, b in zip(nbs.starts[:-1], nbs.starts[1:])]


def merge(coords, *groups):
    rows, _ = adaptive._merge(np.asarray(coords, dtype=float), list(groups))
    return rows


def first_matrix(nd):
    """The distances the first step of ``nd`` builds."""
    return core.matrix_from_coords(adaptive.initial_state(nd)[0])


@pytest.fixture(params=[0, 16], ids=["hash-path", "square-path"])
def small_level(request, monkeypatch):
    """Run the test with levels of at most this many rows on ``_small_level``:
    0 sends every level through the four module globals."""
    monkeypatch.setattr(adaptive, "_SMALL_LEVEL", request.param)
    return request.param


class TestCutoff:
    def test_two_points(self):
        m = core.matrix_from_coords(np.array([[0.0], [3.0]]))
        assert adaptive.cutoff_distance(m) == 3.0

    def test_max_of_row_minima(self):
        # distances: d01=1, d02=3, d12=2 -> row minima 1, 1, 2 -> cut-off 2
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0]]))
        assert m.entries.tolist() == [1.0, 3.0, 2.0]
        assert adaptive.cutoff_distance(m) == 2.0

    def test_every_value_with_copies_is_at_zero(self):
        m = core.matrix_from_coords(np.array([[0.0], [5.0], [0.0], [5.0]]))
        assert m.entries.tolist() == [5.0] and adaptive.cutoff_distance(m) == 0.0

    def test_para_depth1_value(self, para_nd):
        matrix = first_matrix(para_nd)
        cut = adaptive.cutoff_distance(matrix)
        assert cut == exp.PARA_CUTOFFS[0]
        assert al.format_cutoff(cut) == "1.05"

    def test_meta_depth1_value(self, meta_nd):
        matrix = first_matrix(meta_nd)
        cut = adaptive.cutoff_distance(matrix)
        assert cut == exp.META_CUTOFFS[0]
        assert al.format_cutoff(cut) == "0.89"

    @pytest.mark.parametrize("name", ["para", "meta"])
    def test_runs_take_no_second_pass(self, monkeypatch, name):
        # Each level's cut-off comes from the pairwise pass, never from the scan.
        def scan(*args):
            raise AssertionError("cutoff_from_condensed called")

        monkeypatch.setattr(_kernels, "cutoff_from_condensed", scan)
        d = al.build_dendrogram(al.normalize(io.load_fixture(name)))
        key = name.upper()
        assert tuple(r.cutoff for r in d.trace) == getattr(exp, f"{key}_CUTOFFS")
        assert tuple(r.display for r in d.trace) == getattr(exp, f"{key}_DISPLAYS")
        for rec, want in zip(d.trace, getattr(exp, f"{key}_GROUPS"), strict=True):
            assert set(rec.groups) == exp.as_group_sets(want)


class TestFormatCutoff:
    def test_truncates_toward_zero(self):
        assert al.format_cutoff(0.8974306608629996) == "0.89"
        assert al.format_cutoff(1.5078407935206555) == "1.50"
        assert al.format_cutoff(1.9716314260114642) == "1.97"

    def test_exact_values_unchanged(self):
        assert al.format_cutoff(2.0000006188979045) == "2.00"
        assert al.format_cutoff(0.29) == "0.29"
        assert al.format_cutoff(1.05) == "1.05"

    def test_beyond_the_default_decimal_precision(self):
        assert al.format_cutoff(1e30) == "1" + "0" * 30 + ".00"
        assert al.format_cutoff(1.7976931348623157e308).startswith("17976931348623157")


class TestNeighborhood:
    def test_center_first_and_sorted(self, para_nd):
        coords = adaptive.initial_state(para_nd)[0]
        matrix = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(matrix)
        for i, members in enumerate(orderings(adaptive.neighborhood(matrix, cut))):
            dists = _kernels.distances_from(coords[i], coords[members]).tolist()
            assert members[0] == i
            assert dists[0] == 0.0
            assert len(members) >= 2  # Lemma 1: the cut-off admits a neighbor
            assert all(d <= cut for d in dists)
            assert dists == sorted(dists)

    def test_para_cl_contains_br(self, para_nd):
        matrix = first_matrix(para_nd)
        cut = adaptive.cutoff_distance(matrix)
        cl = para_nd.labels.index("Cl")
        br = para_nd.labels.index("Br")
        assert br in orderings(adaptive.neighborhood(matrix, cut))[cl]


class TestNeighborOrdering:
    """The per-point orderings sliced from one sort of a level's condensed distances."""

    @staticmethod
    def orders(m, d_u):
        return orderings(adaptive.neighborhood(m, d_u))

    @staticmethod
    def kernel_orders(entries, n, radius):
        pairs = _kernels.pairs_within(entries, n, radius)
        return orderings(adaptive.Neighborhoods(*_kernels.neighbors_within(*pairs, n)))

    @pytest.mark.parametrize("regime", REGIMES + RAW_REGIMES)
    def test_every_level_matches_the_oracle(self, regime):
        nd = regime_frame(regime)
        level = adaptive.initial_state(nd)
        depth = 0
        while len(level[1]) > 1:
            coords, _ = level
            matrix = core.matrix_from_coords(coords)
            d_u = adaptive.cutoff_distance(matrix)
            square = oracle_square(coords)
            want = [oracle_neighbor_order(square, i, d_u) for i in range(matrix.n)]
            assert self.orders(matrix, d_u) == want, f"level {depth + 1}"
            depth += 1
            level, _ = adaptive._step(level, nd, depth)
        assert depth >= 2

    def test_radius_below_every_distance(self):
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0], [7.0]]))
        assert self.orders(m, 0.5) == [[0], [1], [2], [3]]
        nbs = adaptive.neighborhood(m, 0.5)
        assert nbs.starts.tolist() == list(range(5)) and nbs.members.tolist() == [0, 1, 2, 3]

    def test_second_radius_is_not_the_stored_one(self):
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0], [7.0]]))
        assert self.orders(m, 2.0) == [[0, 1], [1, 0, 2], [2, 1], [3]]
        assert self.orders(m, 4.0) == [[0, 1, 2], [1, 0, 2], [2, 1, 0, 3], [3, 2]]
        assert self.orders(m, 2.0) == [[0, 1], [1, 0, 2], [2, 1], [3]]

    def test_negative_zero_ties_zero_by_index(self):
        # d03 = 0.0, d13 = -0.0, d23 = 0.0; every other pair 1.0.
        entries = np.array([1.0, 1.0, 0.0, 1.0, -0.0, 0.0])
        zero = self.kernel_orders(entries, 4, 0.0)
        assert zero == [[0, 3], [1, 3], [2, 3], [3, 0, 1, 2]]
        assert self.kernel_orders(entries, 4, -0.0) == zero
        # Enough mixed values that the sort moves the signed zeros around.
        n = 40
        values = np.random.default_rng(5).choice([-0.0, 0.0, 1.0], n * (n - 1) // 2)
        square = condensed_square(values, n)
        want = [
            [i, *sorted((j for j in range(n) if j != i), key=lambda j: (square[i, j], j))]
            for i in range(n)
        ]
        assert self.kernel_orders(values, n, 1.0) == want
        # The pairs may come in any order and orientation.
        i, j, d = _kernels.pairs_within(values, n, 1.0)
        flip = np.random.default_rng(6).permutation(d.size)
        i, j, d = i[flip], j[flip], d[flip]
        i[::2], j[::2] = j[::2].copy(), i[::2].copy()
        assert orderings(adaptive.Neighborhoods(*_kernels.neighbors_within(i, j, d, n))) == want

    def test_two_points(self):
        m = core.matrix_from_coords(np.array([[0.0, 1.0], [3.0, 5.0]]))
        assert self.orders(m, adaptive.cutoff_distance(m)) == [[0, 1], [1, 0]]
        assert self.orders(m, 4.9) == [[0], [1]]

    def test_csr_arrays_are_read_only(self):
        # As read-only as the level's distances: not even setflags reopens them.
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0]]))
        nbs = adaptive.neighborhood(m, 2.0)
        for a in (nbs.starts, nbs.members, m.entries, m.nearest):
            with pytest.raises(ValueError):
                a[0] = 1
            with pytest.raises(ValueError):
                a.setflags(write=True)

    @staticmethod
    def no_pairs():
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)

    def test_too_many_points_rejected_before_allocating(self):
        # The ordering's int64 keys fit n < 65 536, and initial_state, the
        # engine's first call, is the one check of that limit.
        n = _kernels._MAX_NEIGHBOR_POINTS
        values = np.arange(n, dtype=float)[:, None]
        nd = al.identity_normalized(al.Dataset([f"p{i}" for i in range(n)], values, ["x"]))
        tracemalloc.start()
        try:
            with pytest.raises(al.ClusteringError, match="fewer than 65536 points, got n=65536"):
                adaptive.initial_state(nd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        starts, _ = _kernels.neighbors_within(*self.no_pairs(), 1)
        assert starts.tolist() == [0, 1]

    def test_largest_n_passes_the_limit(self):
        n = _kernels._MAX_NEIGHBOR_POINTS - 1
        values = np.arange(n, dtype=float)[:, None]
        nd = al.identity_normalized(al.Dataset([f"p{i}" for i in range(n)], values, ["x"]))
        coords, nodes = adaptive.initial_state(nd)
        assert coords.shape == (n, 1) and len(nodes) == n

    def test_orderings_at_the_largest_n(self):
        # Columns take all b = 16 low bits of the key; the top indices keep theirs.
        n = _kernels._MAX_NEIGHBOR_POINTS - 1
        i = np.array([n - 3, n - 2, n - 1], dtype=np.int64)
        j = np.array([n - 1, n - 1, 0], dtype=np.int64)
        starts, members = _kernels.neighbors_within(i, j, np.array([0.5, 0.25, 1.0]), n)
        assert starts.size == n + 1
        orders = [members[starts[c]:starts[c + 1]].tolist() for c in (0, n - 3, n - 2, n - 1)]
        assert orders == [[0, n - 1], [n - 3, n - 1], [n - 2, n - 1], [n - 1, n - 2, n - 3, 0]]


class TestSubNeighborhood:
    def test_mutual_pair_on_fixture(self, para_nd):
        matrix = first_matrix(para_nd)
        cut = adaptive.cutoff_distance(matrix)
        cl = para_nd.labels.index("Cl")
        br = para_nd.labels.index("Br")
        orders = orderings(adaptive.neighborhood(matrix, cut))
        assert set(orders[cl][:2]) == set(orders[br][:2]) == {cl, br}


class TestExtremelyCloseSets:
    def nbhds(self, coords):
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        return adaptive.neighborhood(m, cut)

    def test_two_points_merge(self):
        groups = adaptive.extremely_close_sets(self.nbhds(np.array([[0.0], [1.0]])))
        assert groups == [(0, 1)]

    def test_clustered_pairs(self):
        coords = np.array([[0.0], [0.1], [5.0], [5.1]])
        groups = adaptive.extremely_close_sets(self.nbhds(coords))
        assert groups == [(0, 1), (2, 3)]

    def test_para_depth1_groups(self, para_nd):
        matrix = first_matrix(para_nd)
        cut = adaptive.cutoff_distance(matrix)
        nbs = adaptive.neighborhood(matrix, cut)
        groups = set(adaptive.extremely_close_sets(nbs))
        assert groups == {
            (1, 21), (3, 8), (4, 7), (6, 24), (9, 17), (10, 18), (13, 14), (15, 16)
        }

    def test_meta_depth1_groups(self, meta_nd):
        matrix = first_matrix(meta_nd)
        cut = adaptive.cutoff_distance(matrix)
        nbs = adaptive.neighborhood(matrix, cut)
        groups = set(adaptive.extremely_close_sets(nbs))
        assert groups == {
            (0, 21), (2, 19), (4, 22), (5, 23), (6, 7, 24),
            (9, 17), (10, 18), (11, 12), (15, 16),
        }

    def test_groups_disjoint_and_sorted(self, meta_nd):
        matrix = first_matrix(meta_nd)
        cut = adaptive.cutoff_distance(matrix)
        nbs = adaptive.neighborhood(matrix, cut)
        groups = adaptive.extremely_close_sets(nbs)
        seen = set()
        for g in groups:
            assert not (seen & set(g))
            seen |= set(g)
        assert [min(g) for g in groups] == sorted(min(g) for g in groups)

    def test_center_first_before_lower_index_duplicate(self):
        coords = np.array([[0.0], [0.0], [5.0]])
        m = core.matrix_from_coords(coords)
        members = orderings(adaptive.neighborhood(m, adaptive.cutoff_distance(m)))[1]
        assert members == [1, 0, 2]
        assert _kernels.distances_from(coords[1], coords[members]).tolist() == [0.0, 0.0, 5.0]

    def test_unequal_neighborhood_lengths(self):
        # Lengths 3, 3, 4, 2: the padded rows must not admit the fourth point.
        nbs = self.nbhds(np.array([[0.0], [1.0], [2.5], [6.0]]))
        assert np.diff(nbs.starts).tolist() == [3, 3, 4, 2]
        assert adaptive.extremely_close_sets(nbs) == [(0, 1, 2)]

    def test_degenerate_level_merges_all_but_one(self):
        rng = np.random.default_rng(3)
        coords = np.concatenate([[[100.0]], rng.uniform(0, 1, size=(59, 1))])
        groups = adaptive.extremely_close_sets(self.nbhds(coords))
        assert groups == [tuple(range(1, 60))]

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_cluster_is_one_group(self, seed):
        # Level 1 of the nested regime: the far row sets the cut-off, the
        # pair leads its own orderings, and every cluster row's ordering runs
        # past the cluster, yet the pair's maximal group is the cluster.
        coords = al.normalize(regime_dataset("nested", seed)).coords
        m = core.matrix_from_coords(coords)
        assert int(np.argmax(m.nearest)) == 150
        nbs = adaptive.neighborhood(m, adaptive.cutoff_distance(m))
        starts, members = nbs.starts, nbs.members
        assert members[starts[0] : starts[0] + 2].tolist() == [0, 1]
        assert members[starts[1] : starts[1] + 2].tolist() == [1, 0]
        assert (np.diff(starts)[:50] > 50).all()
        groups = adaptive.extremely_close_sets(nbs)
        assert tuple(range(50)) in groups

    @pytest.mark.parametrize("regime", REGIMES)
    def test_groups_match_the_oracle(self, regime):
        coords = al.normalize(regime_dataset(regime)).coords
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        nbs = adaptive.neighborhood(m, cut)
        want, _ = oracle_groups(oracle_square(coords), cut)
        assert adaptive.extremely_close_sets(nbs) == sorted(tuple(sorted(s)) for s in want)


def colliding_keys(monkeypatch, collide, seeds=(0,)):
    """Pass the keys of ``seeds`` through ``collide``; returns the seeds asked for, in order."""
    real, asked = adaptive._keys, []

    def keys(n, seed):
        asked.append(seed)
        k = real(n, seed)
        return collide(k) if seed in seeds else k

    monkeypatch.setattr(adaptive, "_keys", keys)
    return asked


def all_equal(keys):
    return np.full_like(keys, keys[0]) if keys.size else keys


def clashing_sums(keys):
    # k1 = k2 + k3 - k0 (mod 2**64): a set holding 0 and 1 sums like one holding 2 and 3.
    if keys.size >= 4:
        keys[1:2] = keys[2:3] + keys[3:4] - keys[0:1]
    return keys


def fixture_or_regime(frame):
    if frame in ("para", "meta"):
        return al.normalize(io.load_fixture(frame))
    return regime_frame(frame)


@pytest.mark.parametrize("frame", [*REGIMES, *RAW_REGIMES, "para", "meta"])
def test_candidates_match_the_all_prefix_count_on_every_level(frame):
    # Every key seed, on every level: the last-member test drops no prefix
    # that the count over every prefix would have kept.
    levels = list(level_orderings(fixture_or_regime(frame)))
    assert len(levels) > 1
    for depth, nbs in enumerate(levels, 1):
        assert candidate_mismatches(nbs) == [], f"depth {depth}"


def copied_pair(keys):
    # Keys 2 and 3 equal keys 0 and 1.
    keys[2:4] = keys[0:2]
    return keys


class TestKeyCollisions:
    """Colliding keys may cost a retry with the next key seed, never a wrong group."""

    @staticmethod
    def line():
        # Only {2, 3} qualifies.
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [1.8], [2.0]]))
        nbs = adaptive.neighborhood(m, adaptive.cutoff_distance(m))
        assert orderings(nbs) == [[0, 1], [1, 2, 0, 3], [2, 3, 1], [3, 2, 1]]
        return nbs

    @pytest.mark.parametrize("collide", [all_equal, clashing_sums])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_regime_level_matches_the_oracle(self, regime, collide, monkeypatch):
        coords = al.normalize(regime_dataset(regime)).coords
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        nbs = adaptive.neighborhood(m, cut)
        want, _ = oracle_groups(oracle_square(coords), cut)
        colliding_keys(monkeypatch, collide)
        assert adaptive.extremely_close_sets(nbs) == sorted(tuple(sorted(s)) for s in want)

    @pytest.mark.parametrize("collide", [all_equal, clashing_sums])
    @pytest.mark.parametrize("fixture", ["para", "meta"])
    def test_every_fixture_level_matches_the_oracle(self, fixture, collide, monkeypatch):
        monkeypatch.setattr(adaptive, "_SMALL_LEVEL", 0)  # every level on the hash path
        colliding_keys(monkeypatch, collide)
        assert verify_run(al.normalize(io.load_fixture(fixture))).failures == []

    def test_a_clash_the_last_member_test_drops_costs_no_retry(self, monkeypatch):
        # {0, 1} now sums like {2, 3}, but 1's first two entries are {1, 2}, so
        # the prefix [0, 1] fails the last-member test and is never counted.
        nbs = self.line()
        asked = colliding_keys(monkeypatch, clashing_sums)
        assert adaptive.extremely_close_sets(nbs) == [(2, 3)]
        assert asked == [0]

    def test_a_clash_that_fakes_a_candidate_is_caught(self, monkeypatch):
        # Keys 2 and 3 copy keys 0 and 1, so every prefix of two sums alike and
        # passes the last-member test: each center gets a candidate of two.
        nbs = self.line()
        asked = colliding_keys(monkeypatch, copied_pair)
        assert adaptive.extremely_close_sets(nbs) == [(2, 3)]
        assert asked == [0, 1]

    def test_a_candidate_longer_than_a_members_ordering_fails(self, monkeypatch):
        # Under equal keys a candidate outgrows the ordering of the last row,
        # so the check must not read past that row.
        coords = np.array([[3.0], [2.0], [8.0], [7.0], [0.0], [1.0], [4.0]])
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        nbs = adaptive.neighborhood(m, cut)
        want, _ = oracle_groups(oracle_square(coords), cut)
        asked = colliding_keys(monkeypatch, all_equal)
        assert adaptive.extremely_close_sets(nbs) == sorted(tuple(sorted(s)) for s in want)
        assert asked == [0, 1]

    @pytest.mark.parametrize("points, want_orderings, longest", [
        # {0, 2, 3} has three centers of three, but 2's candidate holds 1, which has none.
        pytest.param(
            [7.0, 0.0, 4.0, 8.0], [[0, 3, 2], [1, 2], [2, 0, 1, 3], [3, 0, 2]], [3, 1, 3, 3],
            id="a-point-without-a-candidate",
        ),
        # {0, 3} has two centers of two, but 0's candidate holds 2, of class 1.
        pytest.param(
            [3.0, 7.0, 6.0, 0.0], [[0, 2, 3], [1, 2], [2, 1, 0], [3, 0]], [2, 2, 2, 2],
            id="a-later-class",
        ),
        # Every candidate lies in class 0, which has four centers, not 3 or 2.
        pytest.param(
            [5.0, 3.0, 2.0, 10.0], [[0, 1, 2, 3], [1, 2, 0], [2, 1, 0], [3, 0]], [3, 3, 3, 2],
            id="more-centers-than-its-size",
        ),
    ])
    def test_an_over_long_candidate_is_caught(self, points, want_orderings, longest, monkeypatch):
        # The first key seed yields the candidates ``longest``, none shorter than the real ones.
        coords = np.array(points)[:, None]
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        nbs = adaptive.neighborhood(m, cut)
        assert orderings(nbs) == want_orderings
        real = adaptive._longest_candidates
        assert (np.array(longest) >= real(nbs, adaptive._keys(len(points), 0))).all()
        asked = colliding_keys(monkeypatch, lambda keys: keys)
        monkeypatch.setattr(
            adaptive, "_longest_candidates",
            lambda nbs, keys: np.array(longest) if asked == [0] else real(nbs, keys),
        )
        want, _ = oracle_groups(oracle_square(coords), cut)
        assert adaptive.extremely_close_sets(nbs) == sorted(tuple(sorted(s)) for s in want)
        assert asked == [0, 1]

    def test_keys_that_collide_for_every_seed_raise(self, monkeypatch):
        nbs = self.line()
        asked = colliding_keys(monkeypatch, all_equal, seeds=range(adaptive._KEY_SEEDS))
        with pytest.raises(RuntimeError, match="no key seed"):
            adaptive.extremely_close_sets(nbs)
        assert asked == list(range(adaptive._KEY_SEEDS))


class TestKeys:
    def test_deterministic_per_seed_and_distinct_between_seeds(self):
        assert np.array_equal(adaptive._keys(50, 0), adaptive._keys(50, 0))
        assert not np.array_equal(adaptive._keys(50, 0), adaptive._keys(50, 1))
        assert np.array_equal(adaptive._keys(50, 2)[:20], adaptive._keys(20, 2))

    @pytest.mark.parametrize("n", [0, 1, 7, 2000])
    def test_writable_uint64_of_length_n(self, n):
        keys = adaptive._keys(n, 3)
        assert keys.dtype == np.uint64 and keys.shape == (n,) and keys.flags.writeable


def standardize_by_column(coords, mode):
    """Each column z-scored on its own; constant columns become 0."""
    out = np.zeros_like(coords)
    for k, col in enumerate(coords.T):
        if (col != col[0]).any():
            out[:, k] = (col - col.mean()) / col.std(ddof=1 if mode is al.SdMode.SAMPLE else 0)
    return out


class TestStandardizeWorking:
    @pytest.mark.parametrize("mode", list(al.SdMode))
    def test_bits_of_each_columns_own_z_score(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, p = int(rng.integers(2, 120)), int(rng.integers(1, 5))
            coords = np.round(rng.standard_normal((n, p)) * 7.3, int(rng.integers(0, 7)))
            coords[:, rng.random(p) < 0.3] = rng.standard_normal()
            got = adaptive._standardize_working(coords, mode)
            assert got.tobytes() == standardize_by_column(coords, mode).tobytes()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("mode", list(al.SdMode))
    def test_one_row_gives_zeros_without_a_warning(self, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = adaptive._standardize_working(np.array([[1.5, -2.0, 0.0]]), mode)
        assert np.array_equal(got, [[0.0, 0.0, 0.0]])


def engine_levels(nd):
    """Yield each level's coordinates and groups, depth 1 first, as ``_step`` finds them."""
    level, depth = adaptive.initial_state(nd), 1
    while len(level[1]) > 1:
        distances = core.matrix_from_coords(level[0])
        nbs = adaptive.neighborhood(distances, adaptive.cutoff_distance(distances))
        yield level[0], adaptive.extremely_close_sets(nbs)
        level, _ = adaptive._step(level, nd, depth)
        depth += 1


@pytest.mark.parametrize("frame", [*REGIMES, "para", "meta"])
def test_merge_and_standardize_keep_the_bits_of_ndarray_mean_and_std(frame):
    # The engine calls the ufuncs behind ndarray.mean and ndarray.std itself;
    # on every level the results must match those methods byte for byte.
    for coords, groups in engine_levels(fixture_or_regime(frame)):
        merged, kept = adaptive._merge(coords, groups)
        for size in {len(g) for g in groups}:
            members = np.array([g for g in groups if len(g) == size])
            slots = [kept.index(k) for k in members[:, 0]]
            assert merged[slots].tobytes() == coords[members].mean(axis=1).tobytes()
        cols = np.ascontiguousarray(merged.T)
        varying = (cols != cols[:, :1]).any(axis=1)
        for mode in al.SdMode:
            got = adaptive._standardize_working(merged, mode).T
            assert not got[~varying].any()
            if varying.any():
                v = cols[varying]
                ddof = 1 if mode is al.SdMode.SAMPLE else 0
                z = (v - v.mean(axis=1, keepdims=True)) / v.std(axis=1, ddof=ddof, keepdims=True)
                assert np.ascontiguousarray(got[varying]).tobytes() == z.tobytes()


# numpy's Python-level wrappers: the ndarray reductions routed through
# _methods.py, and the functions of these files (numpy 1.x and 2.x names)
# that wrap a C method or a ufunc. Their *_dispatcher functions, the C shims
# of multiarray.py and np.errstate stay allowed.
_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
_WRAPPER_FILES = {
    "fromnumeric.py", "numeric.py", "shape_base.py", "function_base.py",
    "_function_base_impl.py", "index_tricks.py", "_index_tricks_impl.py",
}


def numpy_wrappers_entered(fn, *args):
    """``fn(*args)`` and the numpy wrapper functions it entered, as ``file:function``."""
    entered = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(_NUMPY_DIR):
            name = os.path.basename(code.co_filename)
            if name == "_methods.py" or (
                name in _WRAPPER_FILES and not code.co_name.endswith("_dispatcher")
            ):
                entered.append(f"{name}:{code.co_name}")

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(before)
    return out, entered


class TestNoNumpyWrappers:
    """Each level calls ufuncs and C-level ndarray methods directly, so it pays
    no numpy Python frames per call beyond the allowed shims."""

    @pytest.mark.parametrize("name", ["para", "meta"])
    def test_every_step_of_a_fixture(self, name, small_level):
        nd = al.normalize(io.load_fixture(name))
        level, depth = adaptive.initial_state(nd), 1
        if name == "meta":  # level 1 takes the copies path
            assert core._distinct_rows(level[0]) is not None
        while len(level[1]) > 1:
            (level, _), entered = numpy_wrappers_entered(adaptive._step, level, nd, depth)
            assert entered == [], f"depth {depth}"
            depth += 1

    @pytest.mark.parametrize("method", list(al.LinkageMethod))
    def test_a_whole_stepwise_run(self, para_nd, method):
        run, entered = numpy_wrappers_entered(al.stepwise_cluster, para_nd, method)
        assert entered == [] and len(run.trace) == para_nd.n - 1


class TestMergeGroup:
    def test_identical_points(self):
        out = merge([[2.0, 3.0], [2.0, 3.0], [9.0, 9.0]], (0, 1))
        assert np.array_equal(out, [[2.0, 3.0], [9.0, 9.0]])

    def test_midpoint(self):
        out = merge([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]], (0, 1))
        assert np.array_equal(out, [[1.0, 1.0], [9.0, 9.0]])

    def test_smallest_slot_kept_others_dropped(self):
        coords = [[0.0], [5.0], [1.0], [6.0], [2.0]]
        out = merge(coords, (1, 3), (0, 2, 4))
        assert np.array_equal(out, [[1.0], [5.5]])
        assert np.array_equal(coords, [[0.0], [5.0], [1.0], [6.0], [2.0]])
        _, kept = adaptive._merge(np.array(coords), [(1, 3), (0, 2)])
        assert kept == [0, 1, 4]

    def test_mean_of_members_not_leaves(self):
        # merging a merged pair with a third point averages the two *members*
        once = merge([[0.0, 0.0], [2.0, 2.0], [4.0, 6.0]], (0, 1))
        twice = merge(once, (0, 1))
        assert np.array_equal(twice, [[2.5, 3.5]])  # (m + c) / 2
        leaf_mean = np.mean(np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 6.0]]), axis=0)
        assert not np.array_equal(twice[0], leaf_mean)


class TestClusterStep:
    def test_para_first_step_counts(self, para_nd):
        level, record = adaptive._step(adaptive.initial_state(para_nd), para_nd, 1)
        assert record.depth == 1
        assert len(record.groups) == 8
        coords, nodes = level
        assert len(nodes) == coords.shape[0] == core.matrix_from_coords(coords).n == 25 - 8

    def test_meta_first_step_counts(self, meta_nd):
        level, record = adaptive._step(adaptive.initial_state(meta_nd), meta_nd, 1)
        assert len(record.groups) == 9
        assert len(level[1]) == 25 - 10  # eight pairs and one triple

    def test_two_points_collapse(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        (coords, nodes), record = adaptive._step(adaptive.initial_state(nd), nd, 1)
        assert record.groups == (frozenset({"a", "b"}),)
        assert sorted(nodes[0].leaves) == ["a", "b"] and len(nodes) == 1
        assert [c.label for c in nodes[0].children] == ["a", "b"]
        assert (nodes[0].depth, nodes[0].cutoff) == (1, 1.0)
        assert np.array_equal(coords, [[0.5]])

    def test_single_point_state_rejected(self, small_level):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        level, _ = adaptive._step(adaptive.initial_state(nd), nd, 1)
        with pytest.raises(al.TooFewPoints, match="distance matrix needs n >= 2"):
            adaptive._step(level, nd, 2)

    def test_pseudo_point_ids_stay_unique(self, meta_nd):
        # A pseudo-point's id is its smallest leaf; slots stay in id order.
        index = {lab: i for i, lab in enumerate(meta_nd.labels)}
        level = adaptive.initial_state(meta_nd)
        depth = 0
        while len(level[1]) > 1:
            depth += 1
            level, _ = adaptive._step(level, meta_nd, depth)
            leaf_sets = [[index[lab] for lab in node.leaves] for node in level[1]]
            firsts = [min(leaves) for leaves in leaf_sets]
            assert firsts == sorted(set(firsts))
            assert sorted(i for leaves in leaf_sets for i in leaves) == list(range(25))


def raw(values):
    labels = tuple("abcdefgh"[: len(values)])
    columns = tuple(f"c{k}" for k in range(len(values[0])))
    return al.identity_normalized(al.Dataset(labels=labels, values=values, column_names=columns))


OVERFLOW = "^pairwise distances overflow double precision; rescale the descriptors$"


class TestDistinctRows:
    """A level's distances are computed once per distinct row."""

    def test_rows_equal_but_for_a_zero_sign_are_copies(self):
        rows, starts = core._distinct_rows(np.array([[0.0, 1.0], [5.0, 5.0], [-0.0, 1.0]]))
        assert rows.tolist() == [0, 2, 1] and starts.tolist() == [0, 2, 3]
        # The raw regime holds such rows, so its oracle run covers them.
        coords = regime_frame("signed_zeros").coords
        equal = (coords[:, None] == coords[None, :]).all(axis=2)
        same_bits = np.array([[a.tobytes() == b.tobytes() for b in coords] for a in coords])
        assert (equal & ~same_bits).any()

    def test_rows_at_an_underflowing_distance_stay_distinct(self):
        coords = np.array([[1e-200], [2e-200], [1e-200]])
        assert _kernels.distances_from(coords[0], coords).tolist() == [0.0, 0.0, 0.0]
        rows, starts = core._distinct_rows(coords)
        assert rows.tolist() == [0, 2, 1] and starts.tolist() == [0, 2, 3]
        level = core.matrix_from_coords(coords)
        assert level.nearest.size == 2 and adaptive.cutoff_distance(level) == 0.0
        # The raw regime holds distinct rows at distance 0.0.
        coords = regime_frame("underflow").coords
        square = np.array(oracle_square(coords))
        equal = (coords[:, None] == coords[None, :]).all(axis=2)
        assert ((square == 0.0) & ~equal).any()

    def test_no_copies_leaves_every_row(self):
        coords = np.array([[0.0, 1.0], [0.0, 2.0], [3.0, 1.0]])
        assert core._distinct_rows(coords) is None
        level = core.matrix_from_coords(coords)
        assert level.rows is None and level.starts is None and level.n == 3
        nearest = np.full(3, np.inf)
        assert level.entries.tolist() == _kernels.pairwise_condensed(coords, nearest).tolist()
        assert level.nearest.tolist() == nearest.tolist()

    def test_copies_keep_the_representatives_distances(self):
        # Values 0.0 (rows 1, 3), 1.0 (row 0), 3.0 (row 2) and 7.0 (rows 4, 5).
        coords = np.array([[1.0], [0.0], [3.0], [0.0], [7.0], [7.0]])
        level = core.matrix_from_coords(coords)
        assert isinstance(level, core.DistanceMatrix) and level.n == 6
        assert level.rows.tolist() == [1, 3, 0, 2, 4, 5]
        assert level.starts.tolist() == [0, 2, 3, 4, 6]
        reps = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0], [7.0]]))
        assert level.entries.tolist() == reps.entries.tolist()
        # Each multi-row value at 0.0; each single row at its own minimum.
        assert level.nearest.tolist() == [0.0, 1.0, 4.0, 0.0]
        assert adaptive.cutoff_distance(level) == 2.0
        for a in (level.entries, level.nearest, level.rows, level.starts):
            with pytest.raises(ValueError):
                a[0] = 1
            with pytest.raises(ValueError):
                a.setflags(write=True)

    @pytest.mark.parametrize("frame", ["raw", "z-scored"])
    def test_one_value_level_takes_the_one_constructor(self, monkeypatch, frame):
        # Every row equal: the level's matrix runs the kernel on the one
        # representative, which gives no entries, and the copies' least
        # distance of 0.0 gives the cut-off 0.0 and one group of every row.
        seen = []
        matrix, kernel = adaptive.matrix_from_coords, _kernels.pairwise_condensed

        def spy_matrix(coords):
            seen.append(("matrix", len(coords)))
            return matrix(coords)

        def spy_kernel(coords, nearest):
            entries = kernel(coords, nearest)
            seen.append(("kernel", len(coords), entries.size))
            return entries

        monkeypatch.setattr(adaptive, "matrix_from_coords", spy_matrix)
        monkeypatch.setattr(_kernels, "pairwise_condensed", spy_kernel)
        monkeypatch.setattr(adaptive, "_SMALL_LEVEL", 0)  # a 3-row level on the hash path
        if frame == "raw":
            nd = raw([[1.0, 2.0]] * 3)
            d = al.build_dendrogram(nd)
            assert [(r.cutoff, r.groups) for r in d.trace] == [(0.0, (frozenset("abc"),))]
            assert [c.label for c in d.root.children] == ["a", "b", "c"]
            level = adaptive.initial_state(nd)
        else:
            # A z-scored frame whose every column collapsed, as re-z-scoring leaves it.
            values = [[1.0, 2.0], [0.0, 5.0], [3.0, 1.0]]
            nd = al.normalize(al.Dataset(labels=("a", "b", "c"), values=values, column_names="xy"))
            level = (np.zeros((3, 2)), adaptive.initial_state(nd)[1])
        seen.clear()
        (_, nodes), record = adaptive._step(level, nd, 1)
        assert seen == [("matrix", 3), ("kernel", 1, 0)]
        assert (record.cutoff, record.groups) == (0.0, (frozenset("abc"),))
        assert len(nodes) == 1 and nodes[0].size == 3

    def test_one_value_matrix(self):
        level = core.matrix_from_coords(np.zeros((2, 1)))
        assert level.entries.size == 0 and level.nearest.tolist() == [0.0]
        assert level.n == 2 and adaptive.cutoff_distance(level) == 0.0
        assert orderings(adaptive.neighborhood(level, 0.0)) == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("regime, frame", [
        *((r, "raw") for r in REGIMES + RAW_REGIMES), *((r, "z-scored") for r in REGIMES)
    ])
    def test_pairs_within_match_the_all_pairs_kernel(self, regime, frame):
        # Level 1's pairs within the cut-off, copies expanded, against every
        # pair of rows from the all-pairs kernel and a plain mask: same bits.
        data = regime_dataset(regime)
        nd = al.identity_normalized(data) if frame == "raw" else al.normalize(data)
        coords = adaptive.initial_state(nd)[0]
        m = core.matrix_from_coords(coords)
        d_u = adaptive.cutoff_distance(m)
        i, j, d = m.pairs_within(d_u)
        got = zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist(), map(float.hex, d.tolist()))
        entries = pairwise(coords)
        within = entries <= d_u
        a, b = (k[within].tolist() for k in np.triu_indices(nd.n, 1))
        want = zip(a, b, map(float.hex, entries[within].tolist()))
        assert sorted(got) == sorted(want)

    @pytest.mark.parametrize("coords", [
        [[np.inf], [np.inf]],
        [[np.inf, 0.0], [np.inf, 0.0], [-np.inf, 1.0], [-np.inf, 1.0]],
        [[np.nan], [np.nan], [0.0]],
    ])
    def test_non_finite_copies_overflow(self, coords, small_level):
        # Equal rows whose coordinates overflowed are not merged at 0.0.
        nd = raw([[0.0]] * len(coords))
        nodes = adaptive.initial_state(nd)[1]
        with pytest.raises(al.Overflow, match=OVERFLOW):
            adaptive._step((np.array(coords), nodes), nd, 2)

    @pytest.mark.parametrize("values, depth", [
        ([[1.7e308], [1.7e308], [1.6e308], [1.6e308]], 1),
        # Each pair of copies merges to an overflowing mean at level 1.
        ([[1.7e308, 0.0], [1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 1.0]], 2),
    ])
    def test_raw_copies_that_overflow(self, values, depth, small_level):
        nd = raw(values)
        level = adaptive.initial_state(nd)
        for k in range(1, depth):
            level, _ = adaptive._step(level, nd, k)
        with pytest.raises(al.Overflow, match=OVERFLOW):
            adaptive._step(level, nd, depth)
        with pytest.raises(al.Overflow, match=OVERFLOW):
            al.build_dendrogram(nd)


class TestBuildDendrogram:
    def test_single_point(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("only",), values=np.array([[1.0, 2.0]]), column_names=("x", "y"))
        )
        d = al.build_dendrogram(nd)
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

    def test_one_root(self, para_nd):
        d = al.build_dendrogram(para_nd)
        assert type(d) is al.Dendrogram
        assert len(d.roots) == 1 and d.root is d.roots[0]
        # The keyword form stands for a one-root tuple.
        same = al.Dendrogram(labels=d.labels, root=d.root, trace=d.trace, meta=d.meta)
        assert same == d and same.roots == d.roots

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

    @pytest.mark.parametrize("source", ["para", "meta", *REGIMES])
    def test_trace_groups_are_the_tree_merges(self, source):
        data = io.load_fixture(source) if source in io.FIXTURES else regime_dataset(source, 3)
        nd = al.normalize(data)
        d = al.build_dendrogram(nd)
        merges = {}
        stack = [d.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                merges.setdefault(node.depth, []).append(node)
                stack.extend(node.children)
        assert sorted(merges) == list(range(1, len(d.trace) + 1))
        index = {lab: i for i, lab in enumerate(nd.labels)}
        for k, rec in enumerate(d.trace):
            nodes = merges[k + 1]
            assert all(node.cutoff == rec.cutoff for node in nodes)
            assert len(rec.groups) == len(nodes)
            assert set(rec.groups) == {node.leaves for node in nodes}
            # smallest-slot order: a slot is named by its smallest leaf
            firsts = [min(index[lab] for lab in g) for g in rec.groups]
            assert firsts == sorted(firsts)

    def test_meta_dict(self, para_nd):
        d = al.build_dendrogram(para_nd)
        assert d.meta["method"] == "adaptive"
        assert d.meta["sd_mode"] == "sample"
        assert d.meta["normalized"] is True
        assert d.meta["restandardize"] is True
        assert d.meta["working_decimals"] == 6

    def test_meta_dict_raw_frame(self, para_nd):
        d = al.build_dendrogram(raw_frame(para_nd))
        assert d.meta["normalized"] is False
        assert d.meta["restandardize"] is False
        assert d.meta["working_decimals"] is None

    def test_deterministic_across_runs(self, meta_nd):
        a = al.build_dendrogram(meta_nd)
        b = al.build_dendrogram(meta_nd)
        assert a.root == b.root and hash(a.root) == hash(b.root)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.cutoff == rb.cutoff  # bit-for-bit
            assert ra.groups == rb.groups

    def test_raw_config_terminates(self, para_nd):
        d = al.build_dendrogram(raw_frame(para_nd))
        assert d.root.leaves == frozenset(para_nd.labels)
        assert 1 <= len(d.trace) <= 24

    def test_population_mode_runs(self):
        nd = al.normalize(io.load_fixture("para"), al.SdMode.POPULATION)
        d = al.build_dendrogram(nd)
        assert d.root.leaves == frozenset(nd.labels)


class TestSmallLevel:
    """Levels of at most ``_SMALL_LEVEL`` rows take one pass over their square."""

    def test_a_line(self):
        # Only {2, 3} qualifies; the cut-off is 0's distance to 1.
        assert adaptive._small_level(np.array([[0.0], [1.0], [1.8], [2.0]])) == (1.0, [(2, 3)])

    def test_copies_and_their_nearest_row(self):
        # 2's ordering ties 0 and 1 at 1.0 and takes 0 first; both copies lead with themselves.
        coords = np.array([[0.0], [0.0], [1.0], [5.0], [5.0]])
        assert adaptive._small_level(coords) == (1.0, [(0, 1, 2), (3, 4)])

    def test_two_rows(self):
        assert adaptive._small_level(np.array([[0.0], [3.0]])) == (3.0, [(0, 1)])

    def test_sixteen_copies_form_one_group(self):
        d_u, groups = adaptive._small_level(np.zeros((16, 2)))
        assert (d_u, groups) == (0.0, [tuple(range(16))])

    @pytest.mark.parametrize("m", [2, 3, adaptive._SMALL_LEVEL, adaptive._SMALL_LEVEL + 1])
    def test_step_routes_by_row_count(self, m, monkeypatch):
        calls = []
        for layer in ("_small_level", "matrix_from_coords"):
            def spy(coords, _real=getattr(adaptive, layer), _layer=layer):
                calls.append((_layer, len(coords)))
                return _real(coords)

            monkeypatch.setattr(adaptive, layer, spy)
        values = np.arange(m, dtype=float)[:, None] ** 2
        nd = al.identity_normalized(al.Dataset([f"p{i}" for i in range(m)], values, ["x"]))
        (coords, _), record = adaptive._step(adaptive.initial_state(nd), nd, 1)
        path = "_small_level" if m <= adaptive._SMALL_LEVEL else "matrix_from_coords"
        assert calls == [(path, m)]
        assert record.groups and len(coords) < m

    def test_overflow_message_on_either_path(self, small_level):
        # Both paths take their distances through _finite_distances: one message.
        values = np.array([[1e200, 0.0], [-1e200, 1.0]] * 3)
        nd = al.identity_normalized(al.Dataset([f"p{i}" for i in range(6)], values, ["x", "y"]))
        with pytest.raises(al.Overflow) as hashed:
            core.matrix_from_coords(values)
        with pytest.raises(al.Overflow) as stepped:
            adaptive._step(adaptive.initial_state(nd), nd, 1)
        assert str(stepped.value) == str(hashed.value)

    @pytest.mark.parametrize("source, variant", [
        *((f, v) for f in ("para", "meta") for v in ("z-scored", "raw")),
        *((r, seed) for r in REGIMES + RAW_REGIMES for seed in range(3)),
    ])
    def test_both_paths_pass_the_oracle_with_the_same_trace(self, source, variant, monkeypatch):
        # The oracle checks the hash path on every level; the square path
        # must then give the same trace bytes.
        if source in ("para", "meta"):
            data = io.load_fixture(source)
            nd = al.normalize(data) if variant == "z-scored" else al.identity_normalized(data)
        else:
            nd = regime_frame(source, variant)
        monkeypatch.setattr(adaptive, "_SMALL_LEVEL", 0)
        report = verify_run(nd)
        assert report.failures == []
        assert report.depths >= 1
        hashed = io.write_trace(al.build_dendrogram(nd))
        real, small = adaptive._small_level, []
        monkeypatch.setattr(
            adaptive, "_small_level", lambda coords: small.append(len(coords)) or real(coords)
        )
        monkeypatch.setattr(adaptive, "_SMALL_LEVEL", 16)
        assert io.write_trace(al.build_dendrogram(nd)) == hashed
        assert small and all(2 <= m <= 16 for m in small), small


@pytest.mark.parametrize("name", ["para", "meta"])
def test_the_fixtures_call_every_traced_layer(name, monkeypatch):
    layers = ("matrix_from_coords", "cutoff_distance", "neighborhood", "extremely_close_sets")
    called = set()
    for layer in layers:
        def spy(*args, _real=getattr(adaptive, layer), _layer=layer):
            called.add(_layer)
            return _real(*args)

        monkeypatch.setattr(adaptive, layer, spy)
    al.build_dendrogram(al.normalize(io.load_fixture(name)))
    missing = [f"adaptive.{layer}" for layer in layers if layer not in called]
    assert missing == [], (
        f"the {name} fixture never calls {', '.join(missing)}: the benchmark's tracer times "
        "these module globals, so CI's \"Traced benchmark smoke\" step would list them as "
        "not called; keep the fixtures' first level above adaptive._SMALL_LEVEL rows, or "
        "give the small-level pass its own traced layer first (ROADMAP item 1)"
    )


class TestAgainstOracle:
    """Inputs beyond ``TestSmallLevel``'s sweep, which runs the oracle on
    both fixtures and on seed 0 of every regime."""

    def test_meta_raw_config(self, meta_nd):
        report = verify_run(raw_frame(meta_nd))
        assert report.failures == []

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

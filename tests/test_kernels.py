"""Tests for the numpy distance, cut-off and neighbour kernels, and the one full square."""
import tracemalloc

import numpy as np
import pytest

import adaptlink as al
from adaptlink import _kernels, adaptive, baseline, core, io

from _oracle import condensed_square, far_outlier, oracle_cutoff, pairwise


def random_coords(rng, n, p):
    x = rng.uniform(-4, 4, size=(n, p))
    if n >= 4:
        x[n - 1] = x[0]  # duplicate row: exercises exact zero distances
    return x


class TestAgainstScipy:
    def test_pairwise_matches_pdist(self):
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        rng = np.random.default_rng(13)
        for n, p in ((6, 2), (20, 3), (35, 5)):
            x = random_coords(rng, n, p)
            ours = pairwise(x)
            theirs = pdist(x, metric="euclidean")
            assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)

    def test_fixture_matrix_matches_pdist(self):
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        nd = al.normalize(io.load_fixture("meta"))
        assert np.allclose(pairwise(nd.coords), pdist(nd.coords), rtol=1e-12, atol=1e-12)


class TestDistancesFrom:
    def test_matches_condensed_entries(self):
        rng = np.random.default_rng(14)
        x = random_coords(rng, 9, 3)
        entries = pairwise(x)
        square = condensed_square(entries, 9)
        np.fill_diagonal(square, 0.0)
        for i in range(9):
            # Row i against every point, those before i (reversed differences) included.
            assert np.array_equal(_kernels.distances_from(x[i], x), square[i])
        assert np.array_equal(pairwise(x), entries)


class TestStepwiseSquare:
    """``core._square``, the stepwise baseline's working square and a small
    adaptive level's, built from coordinates, against the condensed entries:
    symmetric, with inf on the diagonal."""

    def test_matches_squareform(self):
        rng = np.random.default_rng(15)
        for n, p in ((2, 1), (7, 2), (40, 3)):
            x = random_coords(rng, n, p)
            assert np.array_equal(core._square(x), condensed_square(pairwise(x), n))

    def test_two_points(self):
        square = core._square(np.array([[0.0], [2.5]]))
        assert np.array_equal(square, [[np.inf, 2.5], [2.5, np.inf]])
        assert _kernels.cutoff_from_condensed(np.array([2.5]), 2) == 2.5

    @pytest.mark.parametrize("budget", [1, 16])
    def test_overflow_raised(self, monkeypatch, budget):
        # The pairs across the two values overflow; every row has a duplicate.
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        x = np.array([[1e200, 0.0], [-1e200, 1.0]] * 3)
        for rows in (x, x[:2]):
            with pytest.raises(al.Overflow):
                core._square(rows)

    def test_cutoff_zero_when_every_point_has_a_duplicate(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-4, 4, size=(6, 3))
        x = np.concatenate([x, x[::-1]])
        entries = pairwise(x)
        assert entries.min() == 0.0 < entries.max()
        assert _kernels.cutoff_from_condensed(entries, 12) == 0.0


def assert_exact(x):
    """Every condensed entry and the cut-off equal the per-point references bit for bit."""
    n = x.shape[0]
    entries = pairwise(x)
    assert entries.shape == (n * (n - 1) // 2,)
    x = np.asarray(x, dtype=np.float64)
    lo = 0
    for i in range(n - 1):
        hi = lo + n - i - 1
        assert np.array_equal(entries[lo:hi], _kernels.distances_from(x[i], x[i + 1 :])), i
        lo = hi
    assert _kernels.cutoff_from_condensed(entries, n) == oracle_cutoff(
        condensed_square(entries, n).tolist()
    )


def assert_fused_cutoff(x):
    """The pairwise pass's nearest distances give the scans' cut-off bit for bit.

    The level's cut-off, from the distinct rows' pass, has those bits too.
    """
    n = len(x)
    nearest = np.full(n, np.inf)
    entries = _kernels.pairwise_condensed(x, nearest)
    square = condensed_square(entries, n)
    assert np.sqrt(nearest).tobytes() == square.min(axis=1).tobytes()
    cuts = (
        adaptive.cutoff_distance(core.matrix_from_coords(x)),
        _kernels.cutoff_from_condensed(entries, n),
        oracle_cutoff(square.tolist()),
    )
    assert len({c.hex() for c in cuts}) == 1, cuts


def block_inputs():
    rng = np.random.default_rng(17)
    grid = rng.integers(0, 4, size=(40, 3))
    grid[20:30] = grid[:10]  # duplicate rows: exact zeros
    outlier = rng.standard_normal((41, 2))
    outlier[13] = 1e6
    wide = np.asfortranarray(rng.uniform(-4, 4, size=(38, 5)))
    return {
        "integer grid with duplicates": grid,
        "far outlier": outlier,
        "p=1": rng.standard_normal((40, 1)),
        "p=5 fortran order": wide,
        "sliced rows and columns": rng.standard_normal((80, 7))[::2, 1:6:2],
        "n=2": rng.standard_normal((2, 3)),
        "n=3": rng.integers(-3, 3, size=(3, 2)),
    }


class TestRowBlocks:
    @pytest.mark.parametrize("budget", [1, 7, 16, 150])
    def test_blocks_tile_the_condensed_vector(self, monkeypatch, budget):
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        n = 40
        blocks = list(_kernels._row_blocks(n))
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert [b[2] for b in blocks[1:]] == [b[3] for b in blocks[:-1]]
        assert blocks[0][0] == blocks[0][2] == 0
        assert blocks[-1][1] == n - 1 and blocks[-1][3] == n * (n - 1) // 2
        rows = [r1 - r for r, r1, _, _ in blocks]
        if budget < n:
            assert min(rows) == 1
        if budget > 1:
            assert max(rows) > 1

    @pytest.mark.parametrize("budget", [1, 16, 150])
    @pytest.mark.parametrize("name", list(block_inputs()))
    def test_same_bits_across_block_boundaries(self, monkeypatch, budget, name):
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        assert_exact(block_inputs()[name])

    @pytest.mark.parametrize("budget", [1, 16, 150])
    @pytest.mark.parametrize("name", list(block_inputs()))
    def test_square_matches_squareform(self, monkeypatch, budget, name):
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        x = block_inputs()[name]
        want = condensed_square(pairwise(x), x.shape[0])
        assert np.array_equal(core._square(x), want)

    def test_same_bits_at_the_real_budget(self):
        rng = np.random.default_rng(18)
        x = rng.integers(0, 10, size=(400, 3))
        assert len(list(_kernels._row_blocks(400))) > 3
        assert_exact(x)


class TestFusedCutoff:
    """The cut-off from the minima folded into the pairwise pass."""

    @pytest.mark.parametrize("budget", [1, 16, 150])
    @pytest.mark.parametrize("name", list(block_inputs()))
    def test_same_bits_as_the_scans(self, monkeypatch, budget, name):
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        assert_fused_cutoff(block_inputs()[name])

    def test_same_bits_at_the_real_budget(self):
        x = np.random.default_rng(18).integers(0, 10, size=(400, 3))
        assert len(list(_kernels._row_blocks(400))) > 3
        assert_fused_cutoff(x)

    @pytest.mark.parametrize("budget", [1, 16, 150])
    def test_overflow_raised_though_every_nearest_distance_is_finite(self, monkeypatch, budget):
        # Every row has a duplicate, so each nearest squared distance is 0,
        # while the pairs across the two values overflow.
        monkeypatch.setattr(_kernels, "_CELL_BUDGET", budget)
        x = np.array([[1e200, 0.0], [-1e200, 1.0]] * 3)
        with pytest.raises(al.Overflow):
            core.matrix_from_coords(x)
        with pytest.raises(al.Overflow):
            core.matrix_from_coords(x[:2])


class TestMemory:
    """tracemalloc sees numpy's allocations: no kernel allocates an n×n array
    besides the stepwise baseline's square, which is its output and is filled
    in place. The neighbour kernel holds O(pairs within the radius): far below
    a square on a typical level, a few squares' worth on a degenerate one,
    where group discovery adds its prefix sums and its candidates' entries.
    """

    n = 1000

    @staticmethod
    def peak_bytes(f, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_pairwise_peak_near_its_output(self):
        x = np.random.default_rng(19).standard_normal((self.n, 3))
        nearest = np.full(self.n, np.inf)
        entries, peak = self.peak_bytes(_kernels.pairwise_condensed, x, nearest)
        assert peak < 1.5 * entries.nbytes

    def test_square_peak_near_its_output(self):
        x = np.random.default_rng(21).standard_normal((self.n, 3))
        square, peak = self.peak_bytes(core._square, x)
        assert peak <= 1.05 * square.nbytes

    def test_matrix_and_cutoff_peak_near_the_condensed_vector(self):
        # The cut-off reads the nearest distances kept by the pairwise pass.
        x = np.random.default_rng(26).standard_normal((self.n, 3))
        cut, peak = self.peak_bytes(lambda: adaptive.cutoff_distance(core.matrix_from_coords(x)))
        assert cut > 0
        assert peak < 1.5 * self.n * (self.n - 1) // 2 * 8

    def test_cutoff_peak_far_below_a_square(self):
        x = np.random.default_rng(20).standard_normal((self.n, 3))
        entries = pairwise(x)
        _, peak = self.peak_bytes(_kernels.cutoff_from_condensed, entries, self.n)
        square_bytes = self.n * self.n * 8
        assert peak < square_bytes / 8

    def grid(self, top=10):
        values = np.random.default_rng(22).integers(0, top, size=(self.n, 3))
        data = al.Dataset(
            labels=[f"r{i}" for i in range(self.n)], values=values, column_names="abc"
        )
        return al.normalize(data)

    def test_initial_state_peak_far_below_a_square(self):
        # Each step builds its own matrix; the depth-0 level is rows and leaves.
        _, peak = self.peak_bytes(al.adaptive.initial_state, self.grid())
        assert peak < self.n * self.n * 8 / 8

    def test_neighbors_peak_far_below_a_square_on_a_grid_level(self):
        # Every pair of rows, copies included, in the condensed vector's order.
        coords = al.adaptive.initial_state(self.grid())[0]
        cut = adaptive.cutoff_distance(core.matrix_from_coords(coords))
        pairs = _kernels.pairs_within(pairwise(coords), self.n, cut)
        (_, members), peak = self.peak_bytes(_kernels.neighbors_within, *pairs, self.n)
        square_bytes = self.n * self.n * 8
        assert 0 < members.size < self.n * self.n / 50
        assert peak < square_bytes / 8

    def test_duplicate_heavy_level_peaks_at_its_distinct_rows(self):
        # 125 distinct rows among 1000: the level's distances, cut-off and
        # orderings come to the distinct rows' condensed vector, the pairwise
        # kernel's u×u block and the orderings, far below the n-row vector.
        coords = al.adaptive.initial_state(self.grid(top=5))[0]
        u = len(np.unique(coords, axis=0))
        assert u == 125

        def level():
            distances = core.matrix_from_coords(coords)
            return adaptive.neighborhood(distances, adaptive.cutoff_distance(distances))

        nbs, peak = self.peak_bytes(level)
        vector = u * (u - 1) // 2 * 8
        orderings = nbs.starts.nbytes + nbs.members.nbytes
        block = 2 * u * u * 8  # the squared sums and one feature's terms
        assert peak < block + 2 * (vector + orderings)
        assert peak < self.n * (self.n - 1) // 2 * 8 / 4

    def test_neighbors_peak_on_a_degenerate_level(self):
        # One far row sets the cut-off, so every other pair is within it.
        x = far_outlier(23, self.n)
        entries = pairwise(x)
        cut = _kernels.cutoff_from_condensed(entries, self.n)
        pairs = _kernels.pairs_within(entries, self.n, cut)
        del entries
        (_, members), peak = self.peak_bytes(_kernels.neighbors_within, *pairs, self.n)
        square_bytes = self.n * self.n * 8
        assert members.size >= (self.n - 1) * (self.n - 2)
        assert peak < 3 * square_bytes

    def test_orderings_and_groups_peak_on_a_degenerate_level(self):
        # The orderings, then group discovery's prefix sums and the exact
        # check's 999 candidates of 999 entries beside them, in one buffer;
        # every ordering but the far row's spans the set.
        x = far_outlier(23, self.n)
        m = core.matrix_from_coords(x)
        cut = adaptive.cutoff_distance(m)
        groups, peak = self.peak_bytes(
            lambda: adaptive.extremely_close_sets(adaptive.neighborhood(m, cut))
        )
        assert groups == [tuple(range(1, self.n))]
        assert peak < 2.75 * self.n * self.n * 8

    @pytest.mark.parametrize("method", list(baseline.LinkageMethod))
    def test_stepwise_peak_is_its_square(self, method):
        # The square is built in place; centroid linkage adds its n×p centroids.
        x = np.random.default_rng(24).standard_normal((self.n, 3))
        data = al.Dataset(labels=[f"r{i}" for i in range(self.n)], values=x, column_names="abc")
        nd = al.identity_normalized(data)
        _, peak = self.peak_bytes(baseline.stepwise_cluster, nd, method)
        assert peak < 1.1 * self.n * self.n * 8

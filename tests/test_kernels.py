"""Tests for the numpy distance, square and cut-off kernels."""
import numpy as np
import pytest

import adaptlink as al
from adaptlink import _kernels, io


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
            ours = _kernels.pairwise_condensed(x)
            theirs = pdist(x, metric="euclidean")
            assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)

    def test_fixture_matrix_matches_pdist(self):
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        nd = al.normalize(io.load_fixture("meta"))
        m = al.distance_matrix(nd)
        assert np.allclose(m.entries, pdist(nd.coords), rtol=1e-12, atol=1e-12)


class TestSqDistance:
    def test_matches_condensed_entries(self):
        rng = np.random.default_rng(14)
        x = random_coords(rng, 9, 3)
        entries = _kernels.pairwise_condensed(x)
        m = al.matrix_from_coords(x)
        for i in range(9):
            for j in range(i + 1, 9):
                assert _kernels.sq_distance(x[i], x[j]) == m.value(i, j)
        assert np.array_equal(m.entries, entries)


class TestSquareFromCondensed:
    def test_matches_squareform(self):
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        rng = np.random.default_rng(15)
        for n, p in ((2, 1), (7, 2), (40, 3)):
            entries = _kernels.pairwise_condensed(random_coords(rng, n, p))
            square = _kernels.square_from_condensed(entries, n, 0.0)
            assert np.array_equal(square, squareform(entries))
            square = _kernels.square_from_condensed(entries, n, np.inf)
            assert np.array_equal(np.diag(square), np.full(n, np.inf))

    def test_two_points(self):
        square = _kernels.square_from_condensed(np.array([2.5]), 2, np.inf)
        assert np.array_equal(square, [[np.inf, 2.5], [2.5, np.inf]])
        assert _kernels.cutoff_from_condensed(np.array([2.5]), 2) == 2.5

    def test_cutoff_zero_when_every_point_has_a_duplicate(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-4, 4, size=(6, 3))
        x = np.concatenate([x, x[::-1]])
        entries = _kernels.pairwise_condensed(x)
        assert entries.min() == 0.0 < entries.max()
        assert _kernels.cutoff_from_condensed(entries, 12) == 0.0

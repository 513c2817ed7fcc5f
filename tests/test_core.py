"""Tests for normalization and distance computation."""
import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest

import adaptlink as al
from adaptlink import _kernels, core, io

from _oracle import condensed_square, pairwise


def small(values, columns=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return al.Dataset(
        labels=tuple(f"r{i}" for i in range(n)),
        values=values,
        column_names=columns or tuple(f"c{k}" for k in range(p)),
    )


def decimal_stats(column, sample: bool):
    """Column mean and sd computed exactly in decimal arithmetic."""
    vals = [Decimal(repr(float(v))) for v in column]
    n = len(vals)
    mean = sum(vals) / n
    ss = sum((v - mean) ** 2 for v in vals)
    var = ss / (n - 1 if sample else n)
    return float(mean), float(var.sqrt())


class TestNormalize:
    def test_zero_mean_unit_sd(self):
        nd = al.normalize(small([[1.0, 4.0], [2.0, 5.0], [4.0, 9.0]]))
        assert np.allclose(nd.coords.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(nd.coords.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_population_mode(self):
        nd = al.normalize(small([[1.0], [2.0], [4.0]]), al.SdMode.POPULATION)
        assert np.allclose(nd.coords.std(axis=0, ddof=0), 1.0, atol=1e-12)

    def test_default_mode_is_sample(self):
        data = small([[1.0], [2.0], [4.0]])
        assert np.array_equal(
            al.normalize(data).coords, al.normalize(data, al.SdMode.SAMPLE).coords
        )

    def test_constant_column_rejected(self):
        with pytest.raises(al.ZeroVariance) as err:
            al.normalize(small([[1.0, 7.0], [2.0, 7.0]], columns=("a", "b")))
        assert err.value.column == 1
        assert "b" in str(err.value)

    @pytest.mark.parametrize("scale", [1e-200, 1e-170])
    def test_underflowing_sd_rejected(self, scale):
        # The column varies, but its squared deviations underflow: its s.d. is 0.0.
        with pytest.raises(al.ZeroVariance) as err:
            al.normalize(small([[1.0, scale], [2.0, 2 * scale], [4.0, 3 * scale]], ("a", "b")))
        assert err.value.column == 1
        assert "b" in str(err.value)

    def test_single_point_rejected(self):
        with pytest.raises(al.TooFewPoints):
            al.normalize(small([[1.0, 2.0]]))

    def test_stats_match_decimal_oracle(self):
        data = io.load_fixture("para")
        for mode, sample in ((al.SdMode.SAMPLE, True), (al.SdMode.POPULATION, False)):
            nd = al.normalize(data, mode)
            for k in range(data.p):
                mean, sd = decimal_stats(data.values[:, k], sample)
                assert nd.stats.means[k] == pytest.approx(mean, abs=1e-12)
                assert nd.stats.sds[k] == pytest.approx(sd, abs=1e-12)

    def test_para_frozen_stats(self):
        nd = al.normalize(io.load_fixture("para"))
        assert nd.stats.means[0] == pytest.approx(1.2864, abs=1e-12)
        assert nd.stats.sds[0] == pytest.approx(1.3895799125395176, rel=1e-12)
        assert nd.stats.means[1] == pytest.approx(0.02, abs=1e-12)
        assert nd.stats.sds[1] == pytest.approx(0.31754264805429416, rel=1e-12)

    def test_meta_frozen_stats(self):
        nd = al.normalize(io.load_fixture("meta"))
        assert nd.stats.means[0] == pytest.approx(1.2612, abs=1e-12)
        assert nd.stats.sds[0] == pytest.approx(1.499775872144457, rel=1e-12)
        assert nd.stats.means[1] == pytest.approx(0.14632, abs=1e-12)
        assert nd.stats.sds[1] == pytest.approx(0.27099150048171866, rel=1e-12)

    def test_para_first_row_coords(self):
        nd = al.normalize(io.load_fixture("para"))
        assert nd.labels[0] == "CF3"
        assert nd.coords[0][0] == pytest.approx(0.09614416471798326, rel=1e-12)
        assert nd.coords[0][1] == pytest.approx(1.6690671418391, rel=1e-12)

    def test_identity_normalized_keeps_values(self):
        data = small([[1.0, 4.0], [2.0, 5.0], [4.0, 9.0]])
        nd = al.identity_normalized(data)
        assert np.array_equal(nd.coords, data.values)
        assert not nd.normalized

    def test_duplicate_rows_stay_identical(self):
        nd = al.normalize(small([[1.0, 2.0], [3.0, 5.0], [1.0, 2.0]]))
        assert np.array_equal(nd.coords[0], nd.coords[2])

    def test_rank_order_preserved_across_modes(self):
        rng = np.random.default_rng(7)
        data = small(rng.uniform(-2, 2, size=(12, 1)))
        orders = []
        for mode in al.SdMode:
            m = core.matrix_from_coords(al.normalize(data, mode).coords)
            orders.append(np.argsort(condensed_square(m.entries, m.n)[0, 1:]))
        assert np.array_equal(orders[0], orders[1])

    def test_overflowing_column_rejected(self):
        # The s.d. of this column is inf, which used to give all-zero z-scores.
        data = small([[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]], ("big", "ok"))
        with pytest.raises(al.Overflow, match="'big'"):
            al.normalize(data)
        assert issubclass(al.Overflow, al.ClusteringError)

    def test_stats_reject_non_finite(self):
        with pytest.raises(ValueError):
            al.NormalizationStats(
                means=np.zeros(1), sds=np.array([np.inf]), mode=al.SdMode.SAMPLE
            )
        with pytest.raises(ValueError):
            al.NormalizationStats(
                means=np.array([np.nan]), sds=np.ones(1), mode=al.SdMode.SAMPLE
            )


class TestDistance:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        assert _kernels.distances_from(x, x[None, :]).tolist() == [0.0]

    def test_three_four_five(self):
        ys = np.array([[3.0, 4.0], [-3.0, -4.0]])
        assert _kernels.distances_from(np.array([0.0, 0.0]), ys).tolist() == [5.0, 5.0]

    def test_matrix_accessor_matches_direct(self):
        nd = al.normalize(io.load_fixture("para"))
        m = core.matrix_from_coords(nd.coords)
        square = condensed_square(m.entries, m.n)
        np.fill_diagonal(square, 0.0)
        for i in range(nd.n):
            want = _kernels.distances_from(nd.coords[i], nd.coords)
            assert square[i].tolist() == want.tolist()

    def test_para_cl_br_distance(self):
        nd = al.normalize(io.load_fixture("para"))
        i, j = nd.labels.index("Cl"), nd.labels.index("Br")
        m = core.matrix_from_coords(nd.coords)
        d = condensed_square(m.entries, m.n)[i, j]
        assert d == pytest.approx(0.07855304526571197, rel=1e-12)

    def test_meta_duplicate_rows_distance_zero(self):
        nd = al.normalize(io.load_fixture("meta"))
        square = condensed_square(pairwise(nd.coords), nd.n)
        for a, b in (("H", "NO2"), ("OMe", "OH")):
            assert square[nd.labels.index(a), nd.labels.index(b)] == 0.0

    def test_collinear_points_additive(self):
        nd = al.normalize(small([[0.0], [1.0], [2.0]]))
        m = core.matrix_from_coords(nd.coords)
        d01, d02, d12 = m.entries.tolist()
        assert d02 == d01 + d12

    def test_matrix_requires_two_points(self):
        data = small([[1.0, 2.0]])
        with pytest.raises(al.TooFewPoints):
            core.matrix_from_coords(al.identity_normalized(data).coords)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_distances_rejected(self):
        with pytest.raises(al.Overflow):
            core.matrix_from_coords(np.array([[1e200, 0.0], [-1e200, 1.0]]))
        with pytest.raises(al.Overflow):
            core.matrix_from_coords(np.array([[np.inf], [0.0]]))

    def test_matrix_keeps_a_read_only_copy(self):
        m = core.matrix_from_coords(np.array([[0.0], [1.0], [3.0]]))
        for a in (m.entries, m.nearest):
            with pytest.raises(ValueError):
                a[0] = 0.5
            with pytest.raises(ValueError):
                a.setflags(write=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_coordinates_overflow(self):
        with pytest.raises(al.Overflow):
            core.matrix_from_coords(np.array([[np.nan], [0.0], [1.0]]))

    def test_matrix_needs_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            core.matrix_from_coords(np.zeros((3, 0)))


# Each public container builds its arrays through one float64 conversion,
# which would keep only the real parts.
@pytest.mark.parametrize(
    "build",
    [
        lambda: al.Dataset(labels=("a", "b"), values=[[1j], [2]], column_names=("c",)),
        lambda: al.NormalizationStats(means=[1j], sds=[1.0], mode="sample"),
        lambda: al.NormalizationStats(means=[0.0], sds=[1 + 1j], mode="sample"),
        lambda: TestNormalizedDataset.frame(coords=((0.0, 1j), (1.0, 0.0), (2.0, 2.0))),
    ],
    ids=["dataset", "stats-means", "stats-sds", "normalized-dataset"],
)
def test_complex_values_rejected(build):
    with pytest.raises(ValueError, match="complex"):
        build()


class TestDataset:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            al.Dataset(
                labels=("a", "a"),
                values=np.zeros((2, 1)),
                column_names=("c",),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            al.Dataset(
                labels=("a", "b", "c"),
                values=np.zeros((2, 1)),
                column_names=("c",),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            al.Dataset(
                labels=("a", "b"),
                values=np.array([[1.0], [math.nan]]),
                column_names=("c",),
            )

    @pytest.mark.parametrize(
        "label", ["a,b", "a\nb", "a\rb", " pad", "pad ", "\tpad"],
        ids=["comma", "newline", "carriage-return", "leading-space", "trailing-space", "tab"],
    )
    def test_label_that_cannot_round_trip_rejected(self, label):
        with pytest.raises(ValueError, match="does not survive the table format"):
            al.Dataset(labels=(label, "b"), values=np.zeros((2, 1)), column_names=("c",))

    @pytest.mark.parametrize(
        "labels, columns", [((1, 2), ("c",)), (("a", "b"), (0,))], ids=["label", "column-name"]
    )
    def test_non_string_names_rejected(self, labels, columns):
        with pytest.raises(ValueError, match="is not a string"):
            al.Dataset(labels=labels, values=np.zeros((2, 1)), column_names=columns)

    def test_column_name_that_cannot_round_trip_rejected(self):
        with pytest.raises(ValueError, match="column name"):
            al.Dataset(labels=("a", "b"), values=np.zeros((2, 1)), column_names=("x,y",))

    def test_inner_space_round_trips(self):
        data = al.Dataset(
            labels=("4-NO2 Ph", "b"), values=[[1.0], [2.0]], column_names=("sigma p",)
        )
        again = io.parse_table(io.format_table(data))
        assert (again.labels, again.column_names) == (data.labels, data.column_names)

    def test_content_hash_is_computed_once(self, monkeypatch):
        data = small([[1.0, 2.0], [3.0, 4.0]])
        first = data.content_hash()
        calls = []
        monkeypatch.setattr(io, "format_table", lambda d: calls.append(d) or "")
        assert data.content_hash() == first and calls == []
        with pytest.raises(ValueError):
            data.values.setflags(write=True)  # so the cached hash cannot go stale
        assert small([[1.0, 2.0], [3.0, 4.0]]).content_hash() != first and len(calls) == 1

    def test_content_hash_stable(self):
        a = small([[1.0, 2.0], [3.0, 4.0]])
        b = small([[1.0, 2.0], [3.0, 4.0]])
        assert a.content_hash() == b.content_hash()
        c = small([[1.0, 2.0], [3.0, 4.5]])
        assert a.content_hash() != c.content_hash()


class TestNormalizedDataset:
    @staticmethod
    def frame(labels=("a", "b", "c"), coords=((0.0, 1.0), (1.0, 0.0), (2.0, 2.0)), **kw):
        kw.setdefault("column_names", ("x", "y"))
        kw.setdefault(
            "stats", al.NormalizationStats(means=np.zeros(2), sds=np.ones(2), mode="sample")
        )
        return al.NormalizedDataset(labels=labels, coords=np.array(coords), **kw)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            self.frame(labels=("a", "a", "b"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            self.frame(coords=((0.0, 1.0), (bad, 0.0), (2.0, 2.0)))

    @pytest.mark.parametrize(
        "kw, problem",
        [
            (dict(labels=(), coords=np.zeros((0, 2))), "at least one row"),
            (
                dict(
                    labels=("a", "b"), coords=np.zeros((2, 0)), column_names=(),
                    stats=al.NormalizationStats(means=[], sds=[], mode="sample"),
                ),
                "one column",
            ),
            (dict(labels=(1, 2, 3)), "must be strings"),
            (dict(column_names=(1, 2)), "must be strings"),
        ],
        ids=["no-rows", "no-columns", "non-string-labels", "non-string-column-names"],
    )
    def test_unusable_frame_rejected(self, kw, problem):
        with pytest.raises(ValueError, match=problem):
            self.frame(**kw)

    @pytest.mark.parametrize(
        "label", ["a\nb", "a\rb", "\tpad", " pad", "pad ", ""],
        ids=["newline", "carriage-return", "tab", "leading-space", "trailing-space", "empty"],
    )
    def test_label_the_writers_cannot_draw_rejected(self, label):
        with pytest.raises(ValueError, match="does not survive the table format or a written tree"):
            self.frame(labels=(label, "b", "c"))

    def test_column_name_on_two_lines_rejected(self):
        with pytest.raises(ValueError, match=r"^column name 'x\\ny' does not survive"):
            self.frame(column_names=("x\ny", "y"))

    def test_comma_label_accepted(self):
        # Commas break only the table format, which a frame is never written to.
        assert self.frame(labels=("2,4-Cl2", "b", "c")).labels[0] == "2,4-Cl2"

    def test_column_names_must_be_empty_or_one_per_column(self):
        assert self.frame(column_names=()).column_names == ()
        with pytest.raises(ValueError, match="1 column names for 2 columns"):
            self.frame(column_names=("x",))

    def test_stats_must_have_one_entry_per_column(self):
        stats = al.NormalizationStats(means=np.zeros(3), sds=np.ones(3), mode="sample")
        with pytest.raises(ValueError, match="for 2 columns"):
            self.frame(stats=stats)

    def test_string_mode_is_coerced(self):
        assert self.frame().stats.mode is al.SdMode.SAMPLE
        with pytest.raises(ValueError):
            al.NormalizationStats(means=np.zeros(1), sds=np.ones(1), mode="median")
        nd = al.normalize(io.load_fixture("para"))
        named = dataclasses.replace(
            nd, stats=dataclasses.replace(nd.stats, mode=nd.stats.mode.value)
        )
        want, got = al.build_dendrogram(nd), al.build_dendrogram(named)
        assert got.trace == want.trace and got.meta == want.meta

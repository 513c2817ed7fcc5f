"""Property-based tests: engine invariants on randomized inputs."""
from decimal import Decimal

import numpy as np
from hypothesis import given, settings, strategies as st

import adaptlink as al
from adaptlink import adaptive, core, io

from _oracle import (
    condensed_square, oracle_cutoff, oracle_square, oracle_stepwise, pairwise, random_dataset,
    raw_frame, verify_run
)


def finite_floats(lo=-5.0, hi=5.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=32)


@st.composite
def datasets(draw, min_n=2, max_n=12, max_p=4):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.integers(1, max_p))
    rows = draw(
        st.lists(
            st.lists(finite_floats(), min_size=p, max_size=p),
            min_size=n,
            max_size=n,
        )
    )
    if n >= 3 and draw(st.booleans()):
        rows[-1] = list(rows[0])  # adversarial duplicate
    return al.Dataset(
        labels=tuple(f"pt{i}" for i in range(n)),
        values=np.array(rows, dtype=float),
        column_names=tuple(f"c{k}" for k in range(p)),
    )


@st.composite
def tie_heavy_datasets(draw, min_n=2, max_n=40, max_p=3):
    """Small-integer grid rows, drawn with repetition: exact ties and duplicates."""
    p = draw(st.integers(1, max_p))
    distinct = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=p, max_size=p),
            min_size=1,
            max_size=12,
        )
    )
    picks = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=min_n, max_size=max_n)
    )
    n = len(picks)
    return al.Dataset(
        labels=tuple(f"pt{i}" for i in range(n)),
        values=np.array([distinct[k] for k in picks], dtype=float),
        column_names=tuple(f"c{k}" for k in range(p)),
    )


@st.composite
def outlier_datasets(draw):
    """A tie-heavy grid with one row moved far away, so that row sets the cut-off."""
    data = draw(tie_heavy_datasets(min_n=8, max_n=30))
    values = data.values.copy()
    values[draw(st.integers(0, data.n - 1))] += 100.0
    return al.Dataset(labels=data.labels, values=values, column_names=data.column_names)


@st.composite
def merge_cases(draw):
    """Rows of mixed magnitudes with duplicates, and disjoint groups, several of one size."""
    p = draw(st.integers(1, 5))
    runs = draw(
        st.lists(st.tuples(st.integers(2, 140), st.integers(1, 4)), min_size=1, max_size=4)
    )
    sizes = [k for k, count in runs for _ in range(count)]
    m = sum(sizes) + draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.standard_normal((m, p)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    copies = rng.integers(0, m, size=m // 3)
    coords[copies] = coords[rng.integers(0, m, size=copies.size)]  # duplicate rows
    slots = np.split(rng.permutation(m), np.cumsum(sizes))[:-1]
    groups = sorted(tuple(sorted(s.tolist())) for s in slots)
    return coords, groups


def wrap(data):
    try:
        return al.normalize(data)
    except al.ZeroVariance:
        return al.identity_normalized(data)


class TestMerge:
    @settings(max_examples=80, deadline=None)
    @given(merge_cases())
    def test_batched_means_have_the_bits_of_per_group_means(self, case):
        coords, groups = case
        want = coords.copy()
        keep = np.ones(len(coords), dtype=bool)
        for g in groups:
            want[g[0]] = coords[list(g)].mean(axis=0)
            keep[list(g[1:])] = False
        got, kept = adaptive._merge(coords, groups)
        assert got.shape == want[keep].shape
        assert got.tobytes() == want[keep].tobytes()
        assert kept == np.flatnonzero(keep).tolist()


class TestEngineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_oracle_verifies_every_step(self, data):
        report = verify_run(wrap(data))
        assert report.failures == []

    @settings(max_examples=25, deadline=None)
    @given(datasets(max_n=9))
    def test_oracle_verifies_raw_config(self, data):
        report = verify_run(raw_frame(wrap(data)))
        assert report.failures == []

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_datasets(min_n=8), st.booleans())
    def test_oracle_verifies_tie_heavy(self, data, raw):
        # raw integer coordinates keep every tie exact
        nd = al.identity_normalized(data) if raw else wrap(data)
        report = verify_run(nd)
        assert report.failures == [], report.failures[:3]

    @settings(max_examples=60, deadline=None)
    @given(outlier_datasets(), st.booleans())
    def test_oracle_verifies_far_outlier(self, data, raw):
        nd = al.identity_normalized(data) if raw else wrap(data)
        report = verify_run(nd)
        assert report.failures == [], report.failures[:3]

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_terminates_within_n_minus_one_levels(self, data):
        d = al.build_dendrogram(wrap(data))
        assert 1 <= len(d.trace) <= data.n - 1
        assert d.root.leaves == frozenset(data.labels)

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_cutoff_is_max_of_row_minima(self, data):
        # The pure-Python oracle adds squares in the kernel's order: the same bits.
        nd = wrap(data)
        cut = adaptive.cutoff_distance(core.matrix_from_coords(nd.coords))
        assert cut.hex() == oracle_cutoff(oracle_square(nd.coords)).hex()

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(datasets(max_n=16), tie_heavy_datasets(max_n=16)), st.booleans())
    def test_small_level_pass_matches_the_four_calls(self, data, raw):
        # 2-16 rows: the one pass over the square gives the cut-off bits and
        # the groups of matrix, cut-off, orderings and hash discovery.
        nd = al.identity_normalized(data) if raw else wrap(data)
        coords = adaptive.initial_state(nd)[0]
        m = core.matrix_from_coords(coords)
        cut = adaptive.cutoff_distance(m)
        groups = adaptive.extremely_close_sets(adaptive.neighborhood(m, cut))
        d_u, got = adaptive._small_level(coords)
        assert (d_u.hex(), got) == (cut.hex(), groups)

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_lemma1_every_neighborhood_has_a_neighbor(self, data):
        nd = wrap(data)
        m = core.matrix_from_coords(nd.coords)
        cut = adaptive.cutoff_distance(m)
        assert (np.diff(adaptive.neighborhood(m, cut).starts) >= 2).all()

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_lemma2_at_least_one_merge(self, data):
        nd = wrap(data)
        m = core.matrix_from_coords(nd.coords)
        cut = adaptive.cutoff_distance(m)
        groups = adaptive.extremely_close_sets(adaptive.neighborhood(m, cut))
        assert len(groups) >= 1
        seen = set()
        for g in groups:
            assert not (seen & set(g))
            seen |= set(g)


class TestDisplayRounding:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 99.99, allow_nan=False, allow_infinity=False))
    def test_display_truncates(self, x):
        shown = Decimal(al.format_cutoff(x))
        assert shown <= Decimal(repr(x)) < shown + Decimal("0.01")

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 99.99, allow_nan=False, allow_infinity=False))
    def test_display_has_two_decimals(self, x):
        whole, _, frac = al.format_cutoff(x).partition(".")
        assert len(frac) == 2
        assert whole.isdigit()


class TestNormalizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_zscores_standard(self, data):
        try:
            nd = al.normalize(data)
        except al.ZeroVariance:
            return
        assert np.allclose(nd.coords.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(nd.coords.std(axis=0, ddof=1), 1.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(datasets(min_n=3))
    def test_duplicates_survive_zscoring(self, data):
        values = data.values.copy()
        values[-1] = values[0]
        data = al.Dataset(labels=data.labels, values=values, column_names=data.column_names)
        try:
            nd = al.normalize(data)
        except al.ZeroVariance:
            return
        assert np.array_equal(nd.coords[0], nd.coords[-1])
        assert condensed_square(pairwise(nd.coords), nd.n)[0, -1] == 0.0


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_table_round_trip(self, data):
        again = io.parse_table(io.format_table(data))
        assert again.labels == data.labels
        assert again.column_names == data.column_names
        assert np.array_equal(again.values, data.values)

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_trace_rewrite_byte_identical(self, data):
        d = al.build_dendrogram(wrap(data))
        text = io.write_trace(d)
        assert io.write_trace(io.read_trace(text)) == text


class TestStepwiseProperties:
    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.sampled_from(list(al.LinkageMethod)))
    def test_binary_and_complete(self, data, method):
        nd = wrap(data)
        d = al.stepwise_cluster(nd, method)
        assert len(d.trace) == data.n - 1
        assert d.root.leaves == frozenset(data.labels)

    @settings(max_examples=40, deadline=None)
    @given(
        datasets(),
        st.sampled_from(
            [al.LinkageMethod.SINGLE, al.LinkageMethod.COMPLETE, al.LinkageMethod.AVERAGE]
        ),
    )
    def test_merge_heights_monotone(self, data, method):
        d = al.stepwise_cluster(wrap(data), method)
        cuts = [r.cutoff for r in d.trace]
        assert all(a <= b + 1e-9 for a, b in zip(cuts, cuts[1:]))

    @settings(max_examples=80, deadline=None)
    @given(
        tie_heavy_datasets(),
        st.sampled_from(list(al.LinkageMethod)),
        st.sampled_from([None, 0.0, 1.0, 1.5, 2.0]),
    )
    def test_tie_heavy_matches_oracle(self, data, method, threshold):
        # raw integer coordinates keep every tie exact
        nd = al.identity_normalized(data)
        got = al.stepwise_cluster(nd, method, stop_threshold=threshold)
        want = oracle_stepwise(nd, method, stop_threshold=threshold)
        for write in (io.write_trace, io.write_dot, io.write_tree_text):
            assert write(got) == write(want)


class TestSeededSuite:
    def test_thirty_random_datasets(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            data = random_dataset(rng)
            try:
                nd = al.normalize(data)
            except al.ZeroVariance:
                nd = al.identity_normalized(data)
            report = verify_run(nd if k % 2 else raw_frame(nd))
            assert report.failures == [], report.failures[:3]

"""Tests for table parsing, trace documents, and dendrogram exports."""
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import adaptlink as al
from adaptlink import io
from adaptlink.adaptive import TreeNode

from _oracle import chain


class TestParseTable:
    def test_basic(self):
        data = io.parse_table("name,x,y\na,1,2\nb,3.5,-4e-1\n")
        assert data.labels == ("a", "b")
        assert data.column_names == ("x", "y")
        assert np.array_equal(data.values, [[1.0, 2.0], [3.5, -0.4]])

    def test_blank_lines_skipped(self):
        data = io.parse_table("name,x\n\na,1\n\n\nb,2\n")
        assert data.labels == ("a", "b")

    def test_whitespace_stripped(self):
        data = io.parse_table("name , x\n a , 1.5 \n b , 2 \n")
        assert data.labels == ("a", "b")
        assert data.column_names == ("x",)

    def test_bad_cell_names_row_and_column(self):
        with pytest.raises(io.ParseError) as err:
            io.parse_table("name,x,y\na,1,2\nb,oops,4\n")
        assert err.value.row == 3
        assert err.value.column == 2
        assert "oops" in str(err.value)

    def test_non_finite_rejected(self):
        with pytest.raises(io.ParseError) as err:
            io.parse_table("name,x\na,inf\n")
        assert err.value.row == 2

    def test_ragged_row(self):
        with pytest.raises(io.ParseError) as err:
            io.parse_table("name,x,y\na,1\n")
        assert err.value.row == 2

    def test_duplicate_label(self):
        with pytest.raises(io.ParseError) as err:
            io.parse_table("name,x\na,1\na,2\n")
        assert err.value.row == 3

    @pytest.mark.parametrize("text, message", [
        ("name,x\n\n\na,1\nb,oops\n", "row 5, column 2: not a number: 'oops'"),
        ("\n\nname,x\na,1\n\nb,oops\n", "row 6, column 2: not a number: 'oops'"),
        ("\nname,x\n\na,1\n\na,2\n", "row 6, column 1: duplicate label 'a' (first at row 4)"),
        ("\n\nname,x,y\n\na,1\n", "row 5: expected 3 cells, got 2"),
        ("\n\nname,x\n\n", "row 3: no data rows"),
        ("\nname\na\n", "row 2: header needs a label column and at least one descriptor"),
    ])
    def test_errors_name_the_line_past_blank_lines(self, text, message):
        with pytest.raises(io.ParseError) as err:
            io.parse_table(text)
        assert str(err.value) == message

    def test_empty_label(self):
        with pytest.raises(io.ParseError):
            io.parse_table("name,x\n,1\n")

    def test_empty_input(self):
        with pytest.raises(io.ParseError):
            io.parse_table("")

    def test_header_only(self):
        with pytest.raises(io.ParseError):
            io.parse_table("name,x\n")

    def test_label_only_header(self):
        with pytest.raises(io.ParseError):
            io.parse_table("name\na\n")


class TestFormatTable:
    def test_round_trip_identity(self):
        data = io.parse_table("name,x,y\na,1.42,-0.15\nb,0.1,3\n")
        again = io.parse_table(io.format_table(data))
        assert again.labels == data.labels
        assert again.column_names == data.column_names
        assert np.array_equal(again.values, data.values)

    def test_shortest_repr_round_trip(self):
        values = np.array([[0.1 + 0.2], [1e-17], [12345.678901234567]])
        data = al.Dataset(labels=("a", "b", "c"), values=values, column_names=("x",))
        again = io.parse_table(io.format_table(data))
        assert np.array_equal(again.values, data.values)

    def test_format_stable(self):
        data = io.load_fixture("para")
        assert io.format_table(data) == io.format_table(data)

    def test_cells_are_float_reprs(self):
        values = np.array(
            [[-0.0, 5e-324, 1e-300], [1e308, 3.0, -12.0], [0.0, 0.1 + 0.2, 2.0**53]]
        )
        data = al.Dataset(labels=("a", "b", "c"), values=values, column_names=("x", "y", "z"))
        want = "".join(
            ",".join((lab, *(repr(float(v)) for v in row))) + "\n"
            for lab, row in zip(data.labels, data.values)
        )
        assert io.format_table(data) == "label,x,y,z\n" + want
        assert io.format_table(data).splitlines()[1:3] == [
            "a,-0.0,5e-324,1e-300",
            "b,1e+308,3.0,-12.0",
        ]


class TestFixtures:
    @pytest.mark.parametrize("name", io.FIXTURES)
    def test_shape(self, name):
        data = io.load_fixture(name)
        assert data.n == 25
        assert data.p == 2
        assert data.labels[0] == "CF3"
        assert data.labels[7] == "H"

    def test_para_columns_and_first_row(self):
        data = io.load_fixture("para")
        assert data.column_names == ("pi_p", "sigma_p")
        assert tuple(data.values[0]) == (1.42, 0.55)

    def test_meta_columns(self):
        data = io.load_fixture("meta")
        assert data.column_names == ("pi_m", "sigma_m")
        assert tuple(data.values[24]) == (0.10, 0.710)

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            io.load_fixture("ortho")


def trace_text(levels):
    """A trace document, laid out as write_trace does, with (depth, groups) levels."""
    entries = [
        {"depth": d, "cutoff": 1.0, "cutoff_display": "1.00", "groups": groups}
        for d, groups in levels
    ]
    payload = {"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestTraceDocuments:
    def test_round_trip_lossless(self, para_dendro):
        text = io.write_trace(para_dendro)
        doc = io.read_trace(text)
        assert doc.meta == para_dendro.meta
        assert doc.trace == para_dendro.trace

    def test_rewrite_byte_identical(self, para_dendro, meta_dendro):
        for d in (para_dendro, meta_dendro):
            text = io.write_trace(d)
            again = io.write_trace(io.read_trace(text))
            assert again == text

    def test_cutoffs_survive_at_full_precision(self, meta_dendro):
        doc = io.read_trace(io.write_trace(meta_dendro))
        for rec, orig in zip(doc.trace, meta_dendro.trace):
            assert rec.cutoff == orig.cutoff  # bit-for-bit through JSON

    def test_stepwise_trace_round_trip(self):
        nd = al.normalize(io.load_fixture("meta"))
        d = al.stepwise_cluster(nd, al.LinkageMethod.AVERAGE)
        text = io.write_trace(d)
        assert io.write_trace(io.read_trace(text)) == text

    def test_document_shape(self, para_dendro):
        payload = json.loads(io.write_trace(para_dendro))
        assert payload["format"] == "adaptlink-trace"
        assert payload["version"] == 1
        assert len(payload["trace"]) == 10
        first = payload["trace"][0]
        assert set(first) == {"depth", "cutoff", "cutoff_display", "groups"}
        assert first["cutoff_display"] == "1.05"
        assert all(g == sorted(g) for g in first["groups"])

    def test_ends_with_newline(self, para_dendro):
        assert io.write_trace(para_dendro).endswith("}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            '{"format": "something-else", "version": 1, "metadata": {}, "trace": []}',
            '{"format": "adaptlink-trace", "version": 2, "metadata": {}, "trace": []}',
            '{"format": "adaptlink-trace", "version": true, "metadata": {}, "trace": []}',
            '{"format": "adaptlink-trace", "version": 1.0, "metadata": {}, "trace": []}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": [], "trace": []}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{}]}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": "x", "cutoff_display": "1.00", "groups": []}]}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": 1.0, "cutoff_display": "1.00", "groups": [[]]}]}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": 1.0, "cutoff_display": "1.00", "groups": [[1, 2]]}]}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": -0.0, "cutoff_display": "-0.00", "groups": [["A", "B"]]}]}',
            '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": 1.0, "cutoff_display": "1.00", "groups": []}]}',
            *(
                '{"format": "adaptlink-trace", "version": 1, "metadata": {}, "trace": [{"depth": 1, "cutoff": 1.0, "cutoff_display": "1.00", "groups": [[%s, "B"]]}]}'
                % json.dumps(label)
                for label in ("A\nC", "A\rC", "\tA", " A", "A ", "")
            ),
        ],
    )
    def test_schema_errors(self, text):
        with pytest.raises(io.SchemaError):
            io.read_trace(text)

    @pytest.mark.parametrize(
        "levels, problem",
        [
            ([(2, [["A", "B"]])], "expected 1"),
            ([(1, [["A", "B"]]), (1, [["A", "B", "C"]])], "expected 2"),
            ([(1, [["A"]])], "fewer than two"),
            ([(1, [["A", "B"], ["B", "C"]])], "more than once"),
            ([(1, [["A", "A", "B"]])], "more than once"),
            ([(1, [["A", "B"]]), (2, [["B", "C"]])], "splits the cluster of 'A'"),
            ([(1, [["A", "B"], ["C", "D"]]), (2, [["A", "B"]])], "fewer than two"),
        ],
    )
    def test_traces_that_do_not_replay(self, levels, problem):
        with pytest.raises(io.SchemaError, match=problem):
            io.read_trace(trace_text(levels))

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ({"depth": True}, "mistyped"),
            ({"cutoff": True, "cutoff_display": "1.00"}, "mistyped"),
            ({"cutoff": 1, "cutoff_display": "1.00"}, "mistyped"),
            ({"cutoff": math.nan, "cutoff_display": "nan"}, "not a distance"),
            ({"cutoff": math.inf, "cutoff_display": "inf"}, "not a distance"),
            ({"cutoff": -1.0, "cutoff_display": "-1.00"}, "not a distance"),
            ({"cutoff": 1.239, "cutoff_display": "1.24"}, "expected '1.23'"),
        ],
    )
    def test_values_the_package_never_writes(self, entry, problem):
        payload = json.loads(trace_text([(1, [["A", "B"]])]))
        payload["trace"][0].update(entry)
        with pytest.raises(io.SchemaError, match=problem):
            io.read_trace(json.dumps(payload))

    def test_group_labels_follow_the_dataset_rule(self):
        # Commas break only the table format; a label on two lines is refused by name.
        text = trace_text([(1, [["2,4-Cl2", "B"]])])
        assert io.write_trace(io.read_trace(text)) == text
        with pytest.raises(io.SchemaError, match=r"^trace entry 0: label 'A\\nC' does not survive"):
            io.read_trace(trace_text([(1, [["A\nC", "B"]])]))

    def test_huge_cutoff_round_trip(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b", "c"), values=[[0.0], [1e30], [3e30]], column_names=("x",))
        )
        d = al.build_dendrogram(nd)
        assert d.trace[-1].display == "2500000000000000000000000000000.00"
        text = io.write_trace(d)
        assert io.write_trace(io.read_trace(text)) == text

    def test_built_record_writes_a_trace_that_reads_back(self):
        # The display is derived from the cut-off, so no record can disagree with it.
        pair = TreeNode((TreeNode(label="A"), TreeNode(label="B")), depth=1, cutoff=0.8974, size=2)
        rec = al.DepthRecord(depth=1, cutoff=0.8974, nodes=(pair,))
        assert rec.groups == (frozenset({"A", "B"}),)
        assert rec.display == al.format_cutoff(0.8974) == "0.89"
        doc = io.TraceDocument(meta={}, trace=(rec,))
        again = io.read_trace(io.write_trace(doc))
        assert again == doc and again.trace[0].display == "0.89"

    def test_records_compare_by_their_groups(self):
        def pair(x, y):
            return TreeNode((TreeNode(label=x), TreeNode(label=y)), depth=1, cutoff=0.5, size=2)

        rec = al.DepthRecord(1, 0.5, (pair("a", "b"),))
        same = al.DepthRecord(1, 0.5, (pair("b", "a"),))  # other child order, same group
        assert rec == same and hash(rec) == hash(same)
        assert rec != al.DepthRecord(1, 0.5, (pair("a", "c"),))
        assert rec != al.DepthRecord(2, 0.5, (pair("a", "b"),))
        assert rec != al.DepthRecord(1, 0.25, (pair("a", "b"),))

    def test_group_over_an_unrecorded_merge_writes_sorted_labels(self):
        # The pair under the group is in no record, so its labels come from its leaves.
        pair = TreeNode((TreeNode(label="b"), TreeNode(label="a")), depth=1, cutoff=0.5, size=2)
        triple = TreeNode((TreeNode(label="c"), pair), depth=1, cutoff=1.0, size=3)
        doc = io.TraceDocument(meta={}, trace=(al.DepthRecord(1, 1.0, (triple,)),))
        text = io.write_trace(doc)
        assert json.loads(text)["trace"][0]["groups"] == [["a", "b", "c"]]
        assert io.read_trace(text) == doc

    def test_first_seen_label_is_a_singleton(self):
        levels = [
            (1, [["A", "B"], ["C", "D"]]),
            (2, [["A", "B", "E"]]),
            (3, [["A", "B", "C", "D", "E"]]),
        ]
        text = trace_text(levels)
        assert io.write_trace(io.read_trace(text)) == text

    @pytest.mark.parametrize("method", list(al.LinkageMethod))
    def test_stepwise_forest_round_trip(self, method):
        nd = al.normalize(io.load_fixture("para"))
        full = al.stepwise_cluster(nd, method)
        threshold = full.trace[len(full.trace) // 2].cutoff
        forest = al.stepwise_cluster(nd, method, stop_threshold=threshold)
        assert len(forest.roots) > 1
        text = io.write_trace(forest)
        assert io.write_trace(io.read_trace(text)) == text


def hand_forest():
    """Three roots: a 3-way merge over a pair and two leaves, a pair, a leaf."""

    def leaf(lab):
        return TreeNode(label=lab)

    def join(depth, cutoff, *children):
        size = sum(c.size for c in children)
        return TreeNode(children=children, depth=depth, cutoff=cutoff, size=size)

    return SimpleNamespace(
        roots=(
            join(2, 1.5, join(1, 0.5, leaf("a"), leaf("b")), leaf("c"), leaf("d")),
            join(1, 0.25, leaf("e"), leaf("f")),
            leaf("g"),
        )
    )


def chain_1200():
    return al.stepwise_cluster(al.identity_normalized(chain()), al.LinkageMethod.SINGLE)


def para_forest():
    nd = al.normalize(io.load_fixture("para"))
    return al.stepwise_cluster(nd, al.LinkageMethod.AVERAGE, stop_threshold=1.0)


# sha256 of the exports, recorded before the writers shared one tree walk.
EXPORT_SHA256 = {
    ("forest", "dot"): "fdcc71d46803abd9369235e170545ca49dd5d900077ce0d05954152bcb5efb0b",
    ("forest", "tree-text"): "23c1fb2f182c457bc1919943fd5391079557841add7e3d821b822aa9375db635",
    ("chain", "dot"): "771cf216b1ae0eb9124f5d962790668ddec4d9af1390f77c1ea48382fe5f0acb",
    ("chain", "tree-text"): "5906f3641b44f828d3f9a04900900dcc2d1f5c58a2b06614fdc703024eb689d6",
}


@pytest.mark.parametrize("tree, fmt", list(EXPORT_SHA256))
def test_export_bytes(tree, fmt):
    d = {"forest": para_forest, "chain": chain_1200}[tree]()
    text = {"dot": io.write_dot, "tree-text": io.write_tree_text}[fmt](d)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXPORT_SHA256[tree, fmt]


class TestDot:
    def test_forest_bytes(self):
        # Preorder names; a node's edges follow those of its whole subtree.
        nodes = ["2:1.50", "1:0.50", "a", "b", "c", "d", "1:0.25", "e", "f", "g"]
        edges = [(1, 2), (1, 3), (0, 1), (0, 4), (0, 5), (6, 7), (6, 8)]
        assert io.write_dot(hand_forest()) == "\n".join(
            ["digraph dendrogram {", "  node [shape=box];"]
            + [f'  n{k} [label="{lab}"];' for k, lab in enumerate(nodes)]
            + [f"  n{a} -> n{b};" for a, b in edges]
            + ["}\n"]
        )

    def test_single_leaf(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("only",), values=np.array([[1.0]]), column_names=("x",))
        )
        d = al.build_dendrogram(nd)
        dot = io.write_dot(d)
        assert dot.count("label=") == 1
        assert "->" not in dot
        assert '"only"' in dot

    def test_pair_three_nodes_two_edges(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        d = al.build_dendrogram(nd)
        dot = io.write_dot(d)
        assert dot.count("label=") == 3
        assert dot.count("->") == 2
        assert dot.startswith("digraph dendrogram {")
        assert dot.endswith("}\n")

    def test_meta_root_label(self, meta_dendro):
        dot = io.write_dot(meta_dendro)
        assert '[label="7:2.00"]' in dot
        # 25 leaves appear, each exactly once
        nd = io.load_fixture("meta")
        for lab in nd.labels:
            assert dot.count(f'[label="{io._dot_escape(lab)}"]') == 1

    def test_deterministic(self, para_dendro):
        assert io.write_dot(para_dendro) == io.write_dot(para_dendro)

    def test_quote_escaping(self):
        nd = al.identity_normalized(
            al.Dataset(labels=('say "hi"', "b"), values=np.array([[0.0], [1.0]]), column_names=("x",))
        )
        d = al.build_dendrogram(nd)
        dot = io.write_dot(d)
        assert '\\"hi\\"' in dot

    def test_forest_export(self):
        nd = al.normalize(io.load_fixture("para"))
        forest = al.stepwise_cluster(nd, al.LinkageMethod.AVERAGE, stop_threshold=1.0)
        dot = io.write_dot(forest)
        # binary merges: every step contributes exactly two edges
        assert dot.count("->") == 2 * len(forest.trace)
        for lab in nd.labels:
            assert f'[label="{io._dot_escape(lab)}"]' in dot


class TestTreeText:
    def test_forest_bytes(self):
        assert io.write_tree_text(hand_forest()) == (
            "[depth 2, cutoff 1.50]\n  [depth 1, cutoff 0.50]\n    a\n    b\n  c\n  d\n"
            "[depth 1, cutoff 0.25]\n  e\n  f\ng\n"
        )

    def test_pair(self):
        nd = al.identity_normalized(
            al.Dataset(labels=("a", "b"), values=np.array([[0.0], [2.0]]), column_names=("x",))
        )
        d = al.build_dendrogram(nd)
        text = io.write_tree_text(d)
        assert text == "[depth 1, cutoff 2.00]\n  a\n  b\n"

    def test_meta_header_line(self, meta_dendro):
        lines = io.write_tree_text(meta_dendro).splitlines()
        assert lines[0] == "[depth 7, cutoff 2.00]"
        leaf_lines = [ln for ln in lines if "[" not in ln]
        assert len(leaf_lines) == 25

    def test_indentation_reflects_depth(self, para_dendro):
        text = io.write_tree_text(para_dendro)
        assert "\n  " in text and "\n    " in text

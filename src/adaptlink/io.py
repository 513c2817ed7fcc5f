"""Table ingestion, trace serialization, and dendrogram export.

File formats (all UTF-8, byte-deterministic for a given input):

* table: comma-separated, mandatory header, first column = label, remaining
  columns = finite reals;
* trace document: canonical JSON (sorted keys, two-space indent, trailing
  newline) holding run metadata plus one entry per depth — cut-off at full
  precision alongside its two-decimal display, groups as sorted label arrays;
* DOT: one node per leaf (its label), one node per merge ("depth:cutoff"),
  edges parent -> child, deterministic ordering;
* tree-text: indented outline of the same tree.

The writers take either engine's :class:`~adaptlink.adaptive.Dendrogram`
and draw every tree of its ``roots`` (several for a stepwise forest).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .adaptive import DepthRecord, TreeNode, _preorder, format_cutoff
from .core import ClusteringError, Dataset, _check_names

FIXTURES = ("para", "meta")


class ParseError(ClusteringError):
    """A table cell or row could not be parsed."""

    def __init__(self, row: int, column: int | None, reason: str):
        self.row = row
        self.column = column
        at = f"row {row}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{at}: {reason}")


class SchemaError(ClusteringError):
    """A trace document does not match the expected schema."""


def parse_table(text: str) -> Dataset:
    """Parse a delimited table (header; label column + numeric descriptors).

    Blank lines are skipped; an error names a row by its line in ``text``.
    """
    lines = text.splitlines()
    used = [k for k, ln in enumerate(lines) if ln.strip()]  # the non-blank lines
    if not used:
        raise ParseError(0, None, "empty input")
    top, header = used[0] + 1, [c.strip() for c in lines[used[0]].split(",")]
    if len(header) < 2:
        raise ParseError(top, None, "header needs a label column and at least one descriptor")
    width = len(header)
    labels: list[str] = []
    rows: list[list[float]] = []
    seen: dict[str, int] = {}
    for k in used[1:]:
        lineno, cells = k + 1, [c.strip() for c in lines[k].split(",")]
        if len(cells) != width:
            raise ParseError(lineno, None, f"expected {width} cells, got {len(cells)}")
        label = cells[0]
        if not label:
            raise ParseError(lineno, 1, "empty label")
        if label in seen:
            raise ParseError(lineno, 1, f"duplicate label {label!r} (first at row {seen[label]})")
        seen[label] = lineno
        values = []
        for col, cell in enumerate(cells[1:], start=2):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(lineno, col, f"not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(lineno, col, f"non-finite value: {cell!r}")
            values.append(v)
        labels.append(label)
        rows.append(values)
    if not rows:
        raise ParseError(top, None, "no data rows")
    return Dataset(labels=tuple(labels), values=rows, column_names=tuple(header[1:]))


def format_table(data: Dataset) -> str:
    """Canonical serialization; parse_table(format_table(d)) preserves labels/values."""
    lines = [",".join(("label", *data.column_names))]
    # tolist() yields Python floats, so each cell reads repr(float(v)).
    for lab, row in zip(data.labels, data.values.tolist()):
        lines.append(",".join((lab, *map(repr, row))))
    return "\n".join(lines) + "\n"


def load_fixture(name: str) -> Dataset:
    """Bundled 25-substituent descriptor table ('para' or 'meta')."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURES}")
    text = (
        resources.files("adaptlink")
        .joinpath("data", f"substituents_{name}.csv")
        .read_text(encoding="utf-8")
    )
    return parse_table(text)


@dataclass(frozen=True)
class TraceDocument:
    """Parsed trace file: run metadata plus the per-depth records, named as in a dendrogram."""

    meta: dict
    trace: tuple[DepthRecord, ...]


def _sorted_groups(trace):
    """Each record's groups as sorted label lists.

    A merged node's list is its children's lists joined and sorted; a child
    merged at an earlier record reuses that record's list, so each label is
    copied once per level it is merged at, not collected from the subtree.
    """
    known: dict[int, list[str]] = {}  # id of a node merged at an earlier record -> its list
    out = []
    for rec in trace:
        lists = []
        for node in rec.nodes:
            labels = []
            for c in node.children:
                labels += known.pop(id(c), None) or ([c.label] if c.is_leaf else sorted(c.leaves))
            labels.sort()  # the children's lists are sorted runs, which the sort merges
            known[id(node)] = labels
            lists.append(labels)
        out.append(lists)
    return out


def write_trace(d) -> str:
    """Serialize the ``meta`` and ``trace`` of a dendrogram or trace document."""
    payload = {
        "format": "adaptlink-trace",
        "version": 1,
        "metadata": d.meta,
        "trace": [
            {
                "depth": rec.depth,
                "cutoff": rec.cutoff,
                "cutoff_display": rec.display,
                "groups": groups,
            }
            for rec, groups in zip(d.trace, _sorted_groups(d.trace))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_trace(text: str) -> TraceDocument:
    """Parse a trace document; raises SchemaError on anything malformed.

    Besides its shape, a document must be one the package writes: every
    cut-off is a finite distance, not ``-0.0``, displayed as ``format_cutoff``
    displays it, every level merges at least one group, and every label is
    one a dataset may hold (non-empty, one line, no surrounding whitespace).
    And it must replay: depths count 1, 2, ...; a label appears at most once
    per level; and every group is exactly the union of two or more clusters
    active at its level, a label not seen before being a cluster of its own
    (so a group has at least two labels).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != "adaptlink-trace":
        raise SchemaError("missing adaptlink-trace format marker")
    version = payload.get("version")
    if type(version) is not int or version != 1:  # true and 1.0 both equal 1
        raise SchemaError(f"unsupported version {version!r}")
    meta = payload.get("metadata")
    entries = payload.get("trace")
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise SchemaError("metadata/trace sections missing or mistyped")
    records = []
    cluster_of: dict[str, TreeNode] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"trace entry {k} is not an object")
        try:
            depth = entry["depth"]
            cutoff = entry["cutoff"]
            display = entry["cutoff_display"]
            groups = entry["groups"]
        except KeyError as e:
            raise SchemaError(f"trace entry {k} lacks key {e}") from None
        if (
            type(depth) is not int  # a JSON true or false is a bool, not a number
            or type(cutoff) is not float  # written as 1.0, never as 1
            or not isinstance(display, str)
            or not isinstance(groups, list)
            or not all(
                isinstance(g, list) and g and all(isinstance(x, str) for x in g)
                for g in groups
            )
        ):
            raise SchemaError(f"trace entry {k} is mistyped")
        if not math.isfinite(cutoff) or math.copysign(1.0, cutoff) < 0:  # -0.0 too
            raise SchemaError(f"trace entry {k} has cut-off {cutoff!r}, not a distance")
        if not groups:
            raise SchemaError(f"trace entry {k} merges no group")
        if display != format_cutoff(cutoff):
            raise SchemaError(
                f"trace entry {k} displays cut-off {cutoff!r} as {display!r}, "
                f"expected {format_cutoff(cutoff)!r}"
            )
        records.append(DepthRecord(depth, cutoff, _replay(k, depth, cutoff, groups, cluster_of)))
    return TraceDocument(meta=meta, trace=tuple(records))


def _replay(
    k: int, depth: int, cutoff: float, groups: list[list[str]], cluster_of: dict
) -> tuple[TreeNode, ...]:
    """Check one level's groups against the clusters before it, then merge them.

    ``cluster_of`` maps every label seen so far to the node of its active
    cluster; each group becomes one node over the clusters it joins, and the
    level's nodes are returned.
    """
    if depth != k + 1:
        raise SchemaError(f"trace entry {k} has depth {depth}, expected {k + 1}")
    labels = [lab for g in groups for lab in g]
    try:
        _check_names("label", labels)
    except ValueError as e:
        raise SchemaError(f"trace entry {k}: {e}") from None
    if len(set(labels)) != len(labels):
        raise SchemaError(f"depth {depth}: a label appears more than once")
    nodes = []
    for g in groups:
        parts = {}  # id -> node of each cluster the group joins, in order of first label
        for lab in g:
            part = cluster_of.get(lab) or TreeNode((), lab)
            parts.setdefault(id(part), part)
        if len(parts) < 2:
            raise SchemaError(
                f"depth {depth}: the group of {min(g)!r} joins fewer than two "
                "active clusters"
            )
        children = tuple(parts.values())
        size = sum(c.size for c in children)
        if size != len(g):  # the clusters are disjoint and cover g, so more leaves lie outside
            outside = frozenset().union(*(c.leaves for c in children)) - frozenset(g)
            raise SchemaError(
                f"depth {depth}: a group is not a union of active clusters: it "
                f"splits the cluster of {min(outside)!r}"
            )
        node = TreeNode(children, None, depth, cutoff, size)
        for lab in g:
            cluster_of[lab] = node
        nodes.append(node)
    return tuple(nodes)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def write_dot(d) -> str:
    """DOT digraph of the dendrogram (or forest), parent -> child edges.

    Nodes are named in depth-first preorder; a node's edges follow those of
    its whole subtree.
    """
    lines = ["digraph dendrogram {", "  node [shape=box];"]
    edges: list[str] = []
    # The merges on the path to the current node, one per depth, with the
    # names of their children so far.
    path: list[tuple[str, list[str]]] = []

    def close(depth: int) -> None:  # the merges from this depth down have named their subtrees
        while len(path) > depth:
            name, children = path.pop()
            edges.extend(f"  {name} -> {child};" for child in children)

    for k, (node, depth) in enumerate(_preorder(d.roots)):
        close(depth)
        name = f"n{k}"
        if path:
            path[-1][1].append(name)
        if node.is_leaf:
            lines.append(f'  {name} [label="{_dot_escape(node.label)}"];')
        else:
            lines.append(f'  {name} [label="{node.depth}:{format_cutoff(node.cutoff)}"];')
            path.append((name, []))
    close(0)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_tree_text(d) -> str:
    """Indented text outline of the dendrogram (or forest)."""
    lines: list[str] = []
    for node, depth in _preorder(d.roots):
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}{node.label}")
        else:
            lines.append(f"{pad}[depth {node.depth}, cutoff {format_cutoff(node.cutoff)}]")
    return "\n".join(lines) + "\n"

"""Command-line front end: cluster, compare.

Exit codes: 0 success; 1 input/config errors (bad flags, unreadable or
non-UTF-8 files, malformed tables, too many rows for memory); 2 internal
invariant violations.
"""
from __future__ import annotations

import argparse
import sys

from .adaptive import build_dendrogram
from .baseline import LinkageMethod, compare_compactness, stepwise_cluster
from .core import ClusteringError, SdMode, identity_normalized, normalize
from .io import FIXTURES, load_fixture, parse_table, write_dot, write_trace, write_tree_text

STEPWISE = tuple(m.value for m in LinkageMethod)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; config errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH", help="delimited table file")
    src.add_argument("--fixture", choices=FIXTURES, help="bundled substituent table")
    sub.add_argument(
        "--sd",
        choices=[m.value for m in SdMode],
        default=SdMode.SAMPLE.value,
        help="standard-deviation convention for z-scoring (default: sample)",
    )
    sub.add_argument(
        "--no-normalize",
        action="store_true",
        help="cluster raw values (skips z-scoring and the working-grid rounding)",
    )
    sub.add_argument("--output", metavar="PATH", help="write the document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaptlink", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    cluster = subs.add_parser("cluster", help="run a clustering and emit a document")
    _add_common(cluster)
    cluster.add_argument(
        "--method",
        choices=("adaptive", *STEPWISE),
        default="adaptive",
        help="clustering algorithm (default: adaptive)",
    )
    cluster.add_argument(
        "--format",
        choices=("trace", "dot", "tree-text"),
        default="trace",
        help="output document (default: trace)",
    )
    cluster.add_argument(
        "--threshold",
        type=float,
        help="stop stepwise merging above this distance (stepwise methods only)",
    )
    compare = subs.add_parser("compare", help="compactness: adaptive vs stepwise")
    _add_common(compare)
    compare.add_argument(
        "--method",
        choices=STEPWISE,
        default=LinkageMethod.AVERAGE.value,
        help="stepwise baseline to compare against (default: average)",
    )
    return parser


def _load_normalized(args):
    if args.fixture:
        data = load_fixture(args.fixture)
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = parse_table(fh.read())
        except UnicodeDecodeError as e:
            raise ClusteringError(f"{args.input}: not UTF-8 text ({e.reason})") from None
    mode = SdMode(args.sd)
    if args.no_normalize:
        return identity_normalized(data, mode)
    return normalize(data, mode)


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_cluster(args) -> int:
    nd = _load_normalized(args)
    if args.method == "adaptive":
        if args.threshold is not None:
            raise ClusteringError("--threshold applies to stepwise methods only")
        dendro = build_dendrogram(nd)
    else:
        dendro = stepwise_cluster(nd, LinkageMethod(args.method), args.threshold)
    writer = {"trace": write_trace, "dot": write_dot, "tree-text": write_tree_text}
    _emit(writer[args.format](dendro), args)
    return 0


def _cmd_compare(args) -> int:
    nd = _load_normalized(args)
    adaptive = build_dendrogram(nd)
    stepwise = stepwise_cluster(nd, LinkageMethod(args.method))
    report = compare_compactness(adaptive, stepwise)
    _emit(str(report) + "\n", args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_cluster(args)
    except (ClusteringError, OSError) as e:
        print(f"adaptlink: error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        note = "out of memory: the distance matrices need O(n^2) memory"
        print(f"adaptlink: error: {note}", file=sys.stderr)
        return 1
    except Exception as e:  # invariant violations and genuine bugs
        print(f"adaptlink: internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, the timed call, output checks.

A workload is built from the seed alone, so one seed always gives the same
inputs.  ``solve`` is the timed call and goes through the public API or
``cli.main``.  ``check`` runs outside the timing and returns a message when
an output is wrong, ``None`` when it is right.  NOTES.md says why each
workload exists and what it stresses.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re

import numpy as np

# The seeds whose outputs ``digests.json`` records (record_digests.py).
RECORDED_SEEDS = range(32)


class InvariantError(ValueError):
    """A dendrogram trace breaks a structural invariant."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def level_stats(labels, trace):
    """Per level: the active point count and each group's size in points.

    Replays the trace over the leaves and raises :class:`InvariantError`
    unless every group is the exact union of at least two clusters active at
    that level, no cluster joins two groups, and depths count up from 1.
    Returns the per-level stats and the number of clusters left at the end.
    """
    owner = {lab: i for i, lab in enumerate(labels)}
    leaves = dict.fromkeys(range(len(labels)), 1)
    next_id = len(labels)
    stats = []
    for depth, rec in enumerate(trace, start=1):
        if rec.depth != depth:
            raise InvariantError(f"level {depth} is numbered {rec.depth}")
        if not (math.isfinite(rec.cutoff) and rec.cutoff >= 0):
            raise InvariantError(f"level {depth} has cut-off {rec.cutoff!r}")
        active, used, sizes = len(leaves), set(), []
        for group in rec.groups:
            try:
                ids = {owner[lab] for lab in group}
            except KeyError as e:
                raise InvariantError(f"level {depth}: unknown label {e}") from None
            if len(ids) < 2 or used & ids or sum(leaves[i] for i in ids) != len(group):
                raise InvariantError(f"level {depth}: group is not a merge of free clusters")
            used |= ids
            for i in ids:
                del leaves[i]
            leaves[next_id] = len(group)
            for lab in group:
                owner[lab] = next_id
            next_id += 1
            sizes.append(len(ids))
        if not sizes:
            raise InvariantError(f"level {depth} merges nothing")
        stats.append((active, sizes))
    return stats, len(leaves)


def dendrogram_problem(labels, d) -> str | None:
    """Invariant check for an adaptive or stepwise run of any seed."""
    if tuple(d.labels) != tuple(labels):
        return "dendrogram labels differ from the input"
    if not 1 <= len(d.trace) <= len(labels) - 1:
        return f"{len(d.trace)} levels for n={len(labels)}"
    try:
        _, left = level_stats(labels, d.trace)
    except InvariantError as e:
        return str(e)
    if left != 1 or d.root.leaves != frozenset(labels):
        return "leaves are not partitioned into one root"
    return None


_REPORT = re.compile(
    r"adaptive: (\d+) levels, average-linkage: (\d+) steps\n"
    r"max merge arity: adaptive (\d+), average (\d+)\n"
    r"groups per adaptive level: ([\d ]+)\n"
)


def report_problem(text: str, n: int) -> str | None:
    """Invariant check for a ``compare`` report over n points."""
    m = _REPORT.fullmatch(text)
    if not m:
        return f"unexpected report: {text!r}"
    levels, steps, arity, stepwise_arity = map(int, m.groups()[:4])
    groups = [int(g) for g in m.group(5).split()]
    if steps != n - 1 or stepwise_arity != 2:
        return f"stepwise run has {steps} steps of arity {stepwise_arity}"
    if not 1 <= levels <= n - 1 or len(groups) != levels or min(groups) < 1:
        return f"adaptive run has {levels} levels and groups {groups}"
    if not 2 <= arity <= n:
        return f"adaptive arity {arity}"
    return None


def run_cli(al, argv):
    """``adaptlink <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = al.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _dataset(al, values, prefix):
    return al.Dataset(
        labels=tuple(f"{prefix}{i}" for i in range(len(values))),
        values=values,
        column_names=("x", "y", "z"),
    )


class Workload:
    """Inputs for one seed; ``cases`` is one round of timed calls."""

    n: int  # leaves clustered per call
    cases: list = [None]

    def __init__(self, al, seed, workdir, digests, expected=None):
        self.al = al
        self.digests = digests.get(self.name, {})
        self.expected = expected
        self.recorded = {}  # case -> output digest recorded for this seed
        self.seen = {}  # case -> output digest of its first call in this run

    def _same_bytes(self, case, digest, first_call_check):
        """Digest checks shared by the generated workloads."""
        recorded = self.recorded.get(case)
        if recorded is not None and digest != recorded:
            return "output differs from the digest recorded for this seed"
        if case not in self.seen:
            self.seen[case] = digest
            return first_call_check()
        if digest != self.seen[case]:
            return "output bytes differ between calls of one run"
        return None

    final_check = None  # or a method run once per run, outside the timing


class _Engine(Workload):
    inputs = 1  # datasets drawn from one seed; a round clusters each once

    def __init__(self, al, seed, workdir, digests, expected=None):
        super().__init__(al, seed, workdir, digests, expected)
        rng = np.random.default_rng(seed)
        self.data = [
            _dataset(al, self.generate(rng), self.name[0]) for _ in range(self.inputs)
        ]
        self.cases = list(range(self.inputs))
        self.n = self.data[0].n
        self.recorded = dict(enumerate(self.digests.get(str(seed), ())))

    def solve(self, case):
        return self.al.build_dendrogram(self.al.normalize(self.data[case]))

    def check(self, case, dendro):
        digest = sha256(self.al.write_trace(dendro))
        return self._same_bytes(
            case, digest, lambda: dendrogram_problem(self.data[case].labels, dendro)
        )


class Cloud(_Engine):
    name = "cloud"
    # The cost of a call follows the shape of its cloud by about 8% from seed
    # to seed; a round over four clouds averages that out.
    inputs = 4

    @staticmethod
    def generate(rng, n=200, radius=2.6, gap=3.5):
        # A Gaussian cloud cut at ``radius``, plus one anchor point ``gap``
        # beyond its farthest point.  The anchor's nearest-neighbour distance
        # sets the level-1 cut-off, so on every seed each neighborhood spans
        # the whole cloud and group discovery dominates.  Left to an untrimmed
        # tail point, the cut-off and so the cost per call varied fourfold
        # from seed to seed.
        x = rng.standard_normal((2 * n, 3))
        x = x[np.linalg.norm(x, axis=1) < radius][:n].copy()
        far = x[np.argmax(np.linalg.norm(x[:-1], axis=1))]
        x[-1] = far * (1 + gap / np.linalg.norm(far))
        return x


class DupGrid(_Engine):
    name = "dupgrid"

    @staticmethod
    def generate(rng):
        return rng.integers(0, 10, size=(2000, 3)).astype(np.float64)


class Compare(Workload):
    name = "compare"
    n = 150

    def __init__(self, al, seed, workdir, digests, expected=None):
        super().__init__(al, seed, workdir, digests, expected)
        values = np.random.default_rng(seed).standard_normal((self.n, 3))
        values[-1] = 20.0  # one point about 35 s.d. from the cloud's centre
        data = _dataset(al, values, "o")
        self.labels = data.labels
        self.path = workdir / f"compare-{seed}.csv"
        self.path.write_text(al.format_table(data), encoding="utf-8")
        self.argv = ["compare", "--input", str(self.path), "--method", "average"]
        # The report holds only counts and reads the same on every recorded
        # seed, so one digest covers them; the traces are recorded per seed.
        if seed in RECORDED_SEEDS and "report" in self.digests:
            self.recorded = {None: self.digests["report"]}
        self.recorded_traces = {
            kind: self.digests.get(kind, {}).get(str(seed)) for kind in ("adaptive", "stepwise")
        }

    def solve(self, case):
        return run_cli(self.al, self.argv)

    def check(self, case, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        return self._same_bytes(case, sha256(out), lambda: report_problem(out, self.n))

    def dendrograms(self):
        """The input table's adaptive and stepwise average-linkage runs,
        through the public API: (normalized data, adaptive, stepwise)."""
        nd = self.al.normalize(self.al.parse_table(self.path.read_text(encoding="utf-8")))
        adaptive = self.al.build_dendrogram(nd)
        stepwise = self.al.stepwise_cluster(nd, self.al.LinkageMethod.AVERAGE)
        return nd, adaptive, stepwise

    def final_check(self):
        """What the report's counts cannot show, checked once per run: both
        traces against their digests on recorded seeds, their invariants,
        and the stepwise merge heights against scipy's average linkage."""
        from scipy.cluster.hierarchy import linkage

        nd, adaptive, stepwise = self.dendrograms()
        for kind, d in (("adaptive", adaptive), ("stepwise", stepwise)):
            want = self.recorded_traces[kind]
            if want is not None and sha256(self.al.write_trace(d)) != want:
                return f"{kind} trace differs from the digest recorded for this seed"
            problem = dendrogram_problem(self.labels, d)
            if problem:
                return f"{kind} run: {problem}"
        ours = sorted(rec.cutoff for rec in stepwise.trace)
        ref = sorted(linkage(nd.coords, method="average")[:, 2])
        if len(ours) != len(ref) or not np.allclose(ours, ref, rtol=1e-9, atol=0):
            return "stepwise average-linkage heights differ from scipy"
        return None


class Fixtures(Workload):
    name = "fixtures"
    n = 25

    def __init__(self, al, seed, workdir, digests, expected=None):
        super().__init__(al, seed, workdir, digests, expected)
        self.cases = [
            (fixture, fmt)
            for fixture in ("para", "meta")
            for fmt in ("trace", "dot", "tree-text")
        ]
        random.Random(seed).shuffle(self.cases)

    def solve(self, case):
        fixture, fmt = case
        return run_cli(self.al, ["cluster", "--fixture", fixture, "--format", fmt])

    def check(self, case, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        fixture, fmt = case
        if sha256(out) != self.digests.get(f"{fixture}/{fmt}"):
            return f"{fixture}/{fmt} output differs from its recorded digest"
        if fmt == "trace":
            return fixture_trace_problem(self.expected, fixture, json.loads(out))
        return None


def fixture_trace_problem(expected, fixture, payload) -> str | None:
    """Compare a fixture trace with the frozen cut-offs and groups."""
    key = fixture.upper()
    trace = payload["trace"]
    cutoffs = tuple(rec["cutoff"] for rec in trace)
    displays = tuple(rec["cutoff_display"] for rec in trace)
    groups = [{frozenset(g) for g in rec["groups"]} for rec in trace]
    want = [expected.as_group_sets(g) for g in getattr(expected, f"{key}_GROUPS")]
    if cutoffs != getattr(expected, f"{key}_CUTOFFS"):
        return f"{fixture} cut-offs differ from the frozen trace"
    if displays != getattr(expected, f"{key}_DISPLAYS"):
        return f"{fixture} cut-off displays differ from the frozen trace"
    if groups != want:
        return f"{fixture} groups differ from the frozen trace"
    return None


WORKLOADS = {w.name: w for w in (Cloud, DupGrid, Compare, Fixtures)}

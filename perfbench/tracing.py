"""Per-layer tracing from outside the program.

The tracer wraps public adaptlink functions where the engine looks them up:
every module global of the package that is bound to a traced function is
rebound to a timing wrapper while ``installed()`` is active, and restored
afterwards.  The source is never edited.

Spans are kept in memory.  Consecutive calls of one function under one
parent are aggregated into a single span (name, start, end, parent, call
count, busy time), so each engine level yields one ``neighborhood`` span
rather than one per point.  A span's self time is its busy time minus the
busy time of its child spans.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from workloads import InvariantError, level_stats

ROOT_NAME = "bench.solve"


def _matrix_bytes(args, kwargs, m):
    return {"core.matrix_bytes": m.entries.nbytes}


def _pairwise_flops(args, kwargs, entries):
    # Per pair: p subtractions, p multiplications, p additions and one sqrt.
    p = args[0].shape[1]
    return {"kernels.pairwise_condensed.flops": entries.size * (3 * p + 1)}


def _neighborhood_members(args, kwargs, nb):
    return {"adaptive.neighborhood.members": len(nb.members)}


def _dendrogram_counts(args, kwargs, d):
    levels, _ = level_stats(d.labels, d.trace)
    return {
        "adaptive.levels": len(levels),
        "adaptive.groups": sum(len(sizes) for _, sizes in levels),
        "adaptive.degenerate_levels": sum(
            max(sizes) > active / 2 for active, sizes in levels
        ),
    }


def _pairs_scanned(args, kwargs, s):
    # Each stepwise step scans every pair of the clusters still active.
    n = len(s.labels)
    return {
        "baseline.pairs_scanned": sum(
            (n - k) * (n - k - 1) // 2 for k in range(len(s.trace))
        )
    }


def _bytes_written(args, kwargs, text):
    return {"io.bytes_written": len(text.encode("utf-8"))}


# layer name -> (module under adaptlink, function name, counter or None).
# Metric names must start with a letter, so ``_kernels`` is named ``kernels``.
LAYERS = {
    "core.normalize": ("core", "normalize", None),
    "core.matrix_from_coords": ("core", "matrix_from_coords", _matrix_bytes),
    "kernels.pairwise_condensed": ("_kernels", "pairwise_condensed", _pairwise_flops),
    "kernels.cutoff_from_condensed": ("_kernels", "cutoff_from_condensed", None),
    "adaptive.build_dendrogram": ("adaptive", "build_dendrogram", _dendrogram_counts),
    "adaptive.initial_state": ("adaptive", "initial_state", None),
    "adaptive.cutoff_distance": ("adaptive", "cutoff_distance", None),
    "adaptive.neighborhood": ("adaptive", "neighborhood", _neighborhood_members),
    "adaptive.extremely_close_sets": ("adaptive", "extremely_close_sets", None),
    "baseline.stepwise_cluster": ("baseline", "stepwise_cluster", _pairs_scanned),
    "io.parse_table": ("io", "parse_table", None),
    "io.format_table": ("io", "format_table", None),
    "io.write_trace": ("io", "write_trace", _bytes_written),
    "io.write_dot": ("io", "write_dot", _bytes_written),
    "io.write_tree_text": ("io", "write_tree_text", _bytes_written),
    "cli.main": ("cli", "main", None),
}


class Span:
    __slots__ = (
        "id", "name", "parent", "root", "start", "end", "calls", "busy",
        "child_busy", "last_child",
    )

    def __init__(self, id, name, parent, root):
        self.id = id
        self.name = name
        self.parent = parent
        self.root = root
        self.start = self.end = 0.0
        self.calls = 0
        self.busy = 0.0
        self.child_busy = 0.0
        self.last_child = None

    def as_dict(self, t0):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "root": self.root,
            "start_s": self.start - t0,
            "end_s": self.end - t0,
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.busy - self.child_busy,
        }


class Tracer:
    """Wraps the traced layers of the adaptlink modules currently imported."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[Span] = []
        self.roots = 0
        self.counts: Counter[str] = Counter()
        self._stack: list[Span] = []
        self._pending: list = []
        self._patches = []
        self.absent: list[str] = []
        modules = [
            m for name, m in sys.modules.items()
            if name == "adaptlink" or name.startswith("adaptlink.")
        ]
        for layer, (modname, attr, counter) in LAYERS.items():
            original = getattr(sys.modules.get(f"adaptlink.{modname}"), attr, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def _wrap(self, name, fn, counter):
        stack, spans, pending = self._stack, self.spans, self._pending

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = parent.last_child
            if span is None or span.name != name:
                span = Span(len(spans), name, parent.id, parent.root)
                spans.append(span)
                parent.last_child = span
            t0 = perf_counter()
            if not span.calls:
                span.start = t0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = perf_counter()
                span.end = t1
                span.calls += 1
                span.busy += t1 - t0
                parent.child_busy += t1 - t0
            if counter is not None:
                pending.append((counter, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the traced functions to their wrappers for the block."""
        for m, key, _, wrapper in self._patches:
            setattr(m, key, wrapper)
        try:
            yield
        finally:
            for m, key, original, _ in self._patches:
                setattr(m, key, original)

    @contextmanager
    def root(self):
        """One traced solve call: the root span every layer span hangs under."""
        span = Span(len(self.spans), ROOT_NAME, None, None)
        span.root = span.id
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            span.calls = 1
            span.busy = span.end - span.start
            self.roots += 1

    def drain(self):
        """Evaluate the counters of finished calls (kept out of the timing)."""
        for counter, args, kwargs, result in self._pending:
            try:
                counted = counter(args, kwargs, result)
            except InvariantError:  # a broken output; its check reports it
                continue
            self.counts.update(counted)
        self._pending.clear()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over every traced call."""
        totals = dict.fromkeys((ROOT_NAME, *LAYERS), 0.0)
        for s in self.spans:
            totals[s.name] += s.busy - s.child_busy
        return totals

    def called(self) -> set[str]:
        return {s.name for s in self.spans}

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(self.t0)) + "\n")

"""The brute-force oracles at benchmark scale: too slow for tier-1, whose
``test_*.py`` pattern leaves this module out. Run it by path:

    python -m pytest -q tests/scale_checks.py --durations=0

The inputs are seed 0 of the ``dupgrid``, ``cloud`` and ``compare``
workloads (``perfbench/workloads.py`` is imported, not changed), a far
outlier at n=1000 that gives a degenerate level (one group of 999 points),
a raw integer grid full of ties, and Gaussian rows at n=3000. Most of the
module's three minutes go to ``verify_run`` on the far outlier.
"""
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.cluster import hierarchy

import adaptlink as al

from _oracle import candidate_mismatches, far_outlier, level_orderings, oracle_stepwise, verify_run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CLOUDS = [f"cloud[{k}]" for k in range(workloads.Cloud.inputs)]


def xyz(values):
    labels = [f"r{i}" for i in range(len(values))]
    return al.normalize(al.Dataset(labels=labels, values=values, column_names="xyz"))


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    """Every input by name, built once: several feed more than one check."""
    tmp = tmp_path_factory.mktemp("workloads")
    frames = {}
    for name in ("dupgrid", "cloud"):
        wl = workloads.WORKLOADS[name](al, 0, tmp, {})
        frames.update((f"{name}[{k}]", al.normalize(data)) for k, data in enumerate(wl.data))
    table = workloads.Compare(al, 0, tmp, {}).path.read_text(encoding="utf-8")
    frames["compare"] = al.normalize(al.parse_table(table))  # the text the workload writes
    frames["outlier"] = xyz(far_outlier(1))
    grid = np.random.default_rng(0).integers(0, 5, size=(300, 2)).astype(float)
    frames["grid"] = al.identity_normalized(
        al.Dataset(labels=[f"g{i}" for i in range(300)], values=grid, column_names="xy")
    )
    frames["gauss1"] = xyz(np.random.default_rng(1).standard_normal((3000, 3)))
    frames["gauss24"] = xyz(np.random.default_rng(24).standard_normal((3000, 3)))
    return frames


@pytest.mark.parametrize("name", ["dupgrid[0]", *CLOUDS, "compare", "outlier"])
def test_every_level_passes_the_oracle(frames, name):
    failures = verify_run(frames[name]).failures
    assert not failures, failures[:10]


# On the grid, stopped at 1.0, complete, average and centroid linkage leave
# a forest of 13 roots.
@pytest.mark.parametrize("method", al.LinkageMethod)
@pytest.mark.parametrize("name, cut", [("compare", None), ("grid", None), ("grid", 1.0)])
def test_stepwise_bytes_match_the_all_pairs_oracle(frames, name, cut, method):
    nd = frames[name]
    got, want = al.stepwise_cluster(nd, method, cut), oracle_stepwise(nd, method, cut)
    for write in (al.write_trace, al.write_dot, al.write_tree_text):
        assert write(got) == write(want), write.__name__


# The engine counts only the prefixes that pass its last-member test; the
# all-prefix count sorts every prefix's sum. Both must give each center the
# same candidate under every key seed.
@pytest.mark.parametrize(
    "name, levels",
    [("gauss1", None), ("dupgrid[0]", None), *((c, None) for c in CLOUDS), ("outlier", 1)],
)
def test_candidates_match_the_all_prefix_count(frames, name, levels):
    orderings = itertools.islice(level_orderings(frames[name]), levels)
    mismatches = {depth: seeds for depth, nbs in enumerate(orderings, 1)
                  if (seeds := candidate_mismatches(nbs))}
    assert not mismatches


# The stepwise square is filled in place from the coordinates, so a run holds
# one n×n float64 square (72 MB at n=3000) plus its cache vectors and one row
# block; the condensed vector it was once copied from took the peak to 1.5
# squares. The Python oracle cannot reach this scale, so the merge heights are
# checked against scipy's, as TestAgainstScipy does at n=60.
@pytest.mark.parametrize("method", al.LinkageMethod)
def test_stepwise_peak_and_heights_at_n3000(frames, method):
    nd = frames["gauss24"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = al.stepwise_cluster(nd, method)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * nd.n * nd.n * 8
    heights = np.sort([rec.cutoff for rec in run.trace])
    want = np.sort(hierarchy.linkage(nd.coords, method=method.value)[:, 2])
    assert np.allclose(heights, want, rtol=1e-9, atol=0)

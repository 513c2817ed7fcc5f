"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
pytest capture) and then asserts, so a glance at the run output shows the
verdict for every criterion.
"""
import time

import numpy as np
import pytest

import adaptlink as al
from adaptlink import io

import _expected as exp
from _oracle import random_dataset, run_random_suite, verify_run


@pytest.fixture
def announce(capsys):
    def _announce(num, desc, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {desc}")
        assert ok, f"acceptance criterion {num} failed: {desc}"

    return _announce


@pytest.fixture(scope="module")
def suite():
    reports, elapsed = run_random_suite(200)
    return reports, elapsed


def test_criterion_1_para_depth1(announce, para_nd, para_dendro):
    start = time.perf_counter()
    d = al.build_dendrogram(para_nd)
    elapsed = time.perf_counter() - start
    got = set(d.trace[0].groups)
    ok = got == exp.as_group_sets(exp.PARA_GROUPS[0]) and len(got) == 8 and elapsed < 1.0
    announce(1, f"para depth-1: 8 exact groups in {elapsed:.3f}s", ok)


def test_criterion_2_meta_depth1(announce, meta_dendro):
    got = set(meta_dendro.trace[0].groups)
    ok = (
        got == exp.as_group_sets(exp.META_GROUPS[0])
        and len(got) == 9
        and frozenset({"H", "NO2", "SO2Me"}) in got
    )
    announce(2, "meta depth-1: 9 exact groups including the H/NO2/SO2Me triple", ok)


def test_criterion_3_depth1_cutoffs(announce, para_dendro, meta_dendro):
    para, meta = para_dendro.trace[0], meta_dendro.trace[0]
    ok = (
        para.display == "1.05"
        and meta.display == "0.89"
        and abs(float(para.display) - 1.05) <= 0.005
        and abs(float(meta.display) - 0.89) <= 0.005
        and para_dendro.meta["sd_mode"] == "sample"  # the documented default
    )
    announce(3, f"depth-1 cut-offs {para.display}/{meta.display} under the default sd mode", ok)


def test_criterion_4_full_traces(announce, para_dendro, meta_dendro):
    ok = len(para_dendro.trace) == 10 and len(meta_dendro.trace) == 7
    for dendro, displays, groups in (
        (para_dendro, exp.PARA_DISPLAYS, exp.PARA_GROUPS),
        (meta_dendro, exp.META_DISPLAYS, exp.META_GROUPS),
    ):
        ok = ok and tuple(r.display for r in dendro.trace) == displays
        for rec, want in zip(dendro.trace, groups):
            ok = ok and set(rec.groups) == exp.as_group_sets(want)
    announce(4, "full traces: 10 para / 7 meta levels, every cut-off and group", ok)


def test_criterion_5_compactness(announce, para_nd, meta_nd, para_dendro, meta_dendro):
    para_report = al.compare_compactness(
        para_dendro, al.stepwise_cluster(para_nd, al.LinkageMethod.AVERAGE)
    )
    meta_report = al.compare_compactness(
        meta_dendro, al.stepwise_cluster(meta_nd, al.LinkageMethod.AVERAGE)
    )
    ok = (
        para_report.adaptive_levels == 10
        and para_report.stepwise_steps == 24
        and para_report.adaptive_more_compact
        and meta_report.adaptive_levels == 7
        and meta_report.stepwise_steps == 24
        and meta_report.adaptive_more_compact
    )
    announce(5, "compactness: 10 < 24 (para) and 7 < 24 (meta) vs average linkage", ok)


def test_criterion_6_property_suite(announce, suite):
    reports, elapsed = suite
    failures = [f for r in reports for f in r.failures]
    sizes_ok = all(2 <= r.n <= 40 and 1 <= r.p <= 5 for r in reports)
    ok = len(reports) == 200 and not failures and sizes_ok and elapsed < 30.0
    announce(
        6,
        f"invariants on 200 random datasets (n=2..40, p=1..5) in {elapsed:.1f}s",
        ok,
    )


def test_criterion_7_oracle_equivalence(announce, para_nd, meta_nd, suite):
    reports, _ = suite
    fixture_reports = [verify_run(para_nd), verify_run(meta_nd)]
    violations = [f for r in (*reports, *fixture_reports) for f in r.failures]
    checks = sum(r.checks for r in (*reports, *fixture_reports))
    ok = not violations and checks > 0
    announce(7, f"oracle equivalence: {checks} checks, {len(violations)} violations", ok)


def test_criterion_8_round_trips(announce, para_dendro, meta_nd):
    ok = True
    # tables: format -> parse is lossless
    for name in io.FIXTURES:
        data = io.load_fixture(name)
        again = io.parse_table(io.format_table(data))
        ok = ok and again.labels == data.labels and np.array_equal(again.values, data.values)
    # traces: write -> read -> write is byte-identical
    docs = [
        io.write_trace(para_dendro),
        io.write_trace(al.stepwise_cluster(meta_nd, al.LinkageMethod.AVERAGE)),
    ]
    rng = np.random.default_rng(99)
    for _ in range(3):
        data = random_dataset(rng)
        try:
            nd = al.normalize(data)
        except al.ZeroVariance:
            nd = al.identity_normalized(data)
        docs.append(io.write_trace(al.build_dendrogram(nd)))
    for text in docs:
        ok = ok and io.write_trace(io.read_trace(text)) == text
    announce(8, f"round-trips: 2 tables lossless, {len(docs)} trace rewrites byte-identical", ok)

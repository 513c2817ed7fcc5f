"""Self-test of the benchmark: wrong outputs must count as failed calls.

    python3 -m pytest perfbench -q
"""
import json
import re

import pytest

import run
import workloads


def test_fixtures_pass_unperturbed():
    summary, result = run.run("fixtures", 1, 0.2, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 6 == 0 and summary["fail_ratio"] == 0


def test_perturbed_fixture_bytes_count_as_failed():
    def perturb(al):
        write_dot = al.cli.write_dot
        al.cli.write_dot = lambda d: write_dot(d).replace("->", "-> ", 1)

    summary, result = run.run("fixtures", 1, 0.2, trace=False, after_setup=perturb)
    assert not result["correct"]
    # Two of the six cases in every round write DOT.
    assert summary["fail_ratio"] == pytest.approx(1 / 3)


def test_perturbed_cutoff_fails_the_recorded_digest():
    def perturb(al):
        cutoff = al.adaptive.cutoff_distance
        al.adaptive.cutoff_distance = lambda m: cutoff(m) * (1 + 1e-9)

    summary, result = run.run("dupgrid", 1, 0.1, trace=False, after_setup=perturb)
    assert result["failed"] == result["attempted"] > 0
    assert summary["fail_ratio"] == 1


def test_compare_checks_the_traces_behind_its_report():
    # The report only counts levels and steps, so a changed cut-off leaves it
    # intact; the once-per-run check of the recorded traces must catch it.
    def perturb(al):
        cutoff = al.adaptive.cutoff_distance
        al.adaptive.cutoff_distance = lambda m: cutoff(m) * (1 + 1e-9)

    summary, result = run.run("compare", 1, 0.1, trace=False, after_setup=perturb)
    assert result["failed"] == 1 and result["attempted"] == 2
    assert summary["problems"] == ["adaptive trace differs from the digest recorded for this seed"]


def test_unrecorded_seed_falls_back_to_invariants():
    def perturb(al):
        build = al.build_dendrogram

        def drop_last_level(nd):
            d = build(nd)
            return type(d)(labels=d.labels, root=d.root, trace=d.trace[:-1], meta=d.meta)

        al.build_dendrogram = drop_last_level

    summary, result = run.run("dupgrid", 10_000, 0.1, trace=False, after_setup=perturb)
    assert result["failed"] == result["attempted"] > 0
    assert summary["problems"][0] == "leaves are not partitioned into one root"


def test_scaler_rescales_each_stretch_by_its_calibrations(monkeypatch):
    cals = iter([0.04, 0.02, 0.03])
    monkeypatch.setattr(run, "calibrate", lambda: next(cals))
    scaler = run.Scaler()
    scaler.add(1.0)
    scaler.add(2.0)
    scaler.flush()  # both stretches are scaled by the mean of their calibrations
    scaler.add(4.0)
    assert scaler.flush() == pytest.approx(
        [1.0 * run.CAL_REF_S / 0.03, 2.0 * run.CAL_REF_S / 0.03, 4.0 * run.CAL_REF_S / 0.025]
    )


def test_invariants_reject_overlapping_groups():
    class Rec:  # level_stats reads only depth, cutoff and groups
        def __init__(self, depth, groups):
            self.depth, self.cutoff, self.groups = depth, 1.0, groups

    labels = ("a", "b", "c")
    ok = [Rec(1, [{"a", "b"}]), Rec(2, [{"a", "b", "c"}])]
    bad = [Rec(1, [{"a", "b"}, {"b", "c"}])]
    assert workloads.level_stats(labels, ok) == ([(3, [2]), (2, [2])], 1)
    with pytest.raises(workloads.InvariantError):
        workloads.level_stats(labels, bad)


def test_traced_run_reports_the_layers_of_the_cli():
    summary, result = run.run("fixtures", 1, 0.2, trace=True)
    assert result["correct"] and summary["absent"] == []
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["adaptive.levels"] == (10 + 7) / 2
    # Every count the fixtures produce is found under its declared name.
    for name in (
        "adaptive.neighborhood.members", "adaptive.groups", "core.matrix_bytes",
        "kernels.pairwise_condensed.flops", "io.bytes_written", "cli.main.self_s",
    ):
        assert values[name] > 0, name


def test_benchmark_json_names_are_well_formed():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for kind in ("end_to_end", "per_layer"):
        for key, u in run.metric_units(kind).items():
            assert name.fullmatch(key) and unit.fullmatch(u), key
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)

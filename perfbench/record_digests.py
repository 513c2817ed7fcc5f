#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: the SHA-256 of every fixture output, of
the trace of each ``cloud`` and ``dupgrid`` input for each seed in
``workloads.RECORDED_SEEDS``, and for ``compare`` of its report (one digest,
the same on every recorded seed) and of its adaptive and stepwise traces
per seed.  Each output passes the benchmark's own checks before it is
recorded.  Only re-record when a change is meant to alter the output bytes.
"""
import json

import run
import workloads


def record_fixtures(al, expected):
    fixtures = {}
    wl = workloads.Fixtures(al, 0, run.OUT, {}, expected)
    for case in wl.cases:
        code, out, err = wl.solve(case)
        fixture, fmt = case
        if code != 0:
            raise SystemExit(f"{fixture}/{fmt}: exit code {code}: {err}")
        if fmt == "trace":
            problem = workloads.fixture_trace_problem(expected, fixture, json.loads(out))
            if problem:
                raise SystemExit(problem)
        fixtures[f"{fixture}/{fmt}"] = workloads.sha256(out)
    return dict(sorted(fixtures.items()))


def checked(al, cls, seed):
    """A workload of one seed after one call and its checks have passed."""
    wl = cls(al, seed, run.OUT, {})
    problems = [wl.check(case, wl.solve(case)) for case in wl.cases]
    if wl.final_check is not None:
        problems.append(wl.final_check())
    for problem in filter(None, problems):
        raise SystemExit(f"{cls.name} seed {seed}: {problem}")
    print(cls.name, seed, *wl.seen.values(), flush=True)
    return wl


def main():
    _, expected = run.load_references()
    run.OUT.mkdir(exist_ok=True)
    al = run.import_program()
    digests = {"fixtures": record_fixtures(al, expected)}
    for cls in (workloads.Cloud, workloads.DupGrid):
        digests[cls.name] = {
            str(seed): list(checked(al, cls, seed).seen.values())
            for seed in workloads.RECORDED_SEEDS
        }

    compare = {"adaptive": {}, "stepwise": {}}
    for seed in workloads.RECORDED_SEEDS:
        wl = checked(al, workloads.Compare, seed)
        report = wl.seen[None]
        if compare.setdefault("report", report) != report:
            raise SystemExit(f"compare seed {seed}: the report differs from the first seed's")
        _, adaptive, stepwise = wl.dendrograms()
        compare["adaptive"][str(seed)] = workloads.sha256(al.write_trace(adaptive))
        compare["stepwise"][str(seed)] = workloads.sha256(al.write_trace(stepwise))
    digests["compare"] = compare

    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

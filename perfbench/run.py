#!/usr/bin/env python3
"""Run one adaptlink benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cloud --seed 1 --seconds 25 --trace 0

Run it from the repository root; the program is imported from ``src/``,
never from an installed copy.  The run uses one process and one thread.

``--trace 0`` times untraced calls and reports the end-to-end metrics;
its ``setup_s`` is the median of several set-ups, each in a fresh
interpreter (``setup_once.py``), run one after another before the timing.
Its times are in reference seconds: each stretch of calls is scaled by how
long a fixed piece of plain Python took just before and just after it, and
the set-ups by the same loop timed between them, so that the host's speed,
which on a shared machine drifts by a third within minutes, cancels out
(see ``calibrate``).
``--trace 1`` alternates untraced and traced rounds of calls and reports
the per-layer self times and counts of the traced calls, per call, with
the tracing overhead; its spans go to ``.perfbench-out/``.  Metric names
and units are those declared in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every call's
output is checked outside the timing; a wrong or raising call counts as
failed, so the fail ratio is ``failed / attempted``.
"""
import argparse
import gc
import importlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One thread per run: pin BLAS and OpenMP pools before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import tracing  # noqa: E402  (imports numpy)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 21
CAL_LOOPS = 20  # passes of the calibration loop
CAL_REF_S = 0.03  # the loop's time on the reference host (2-core VM, Python 3.11)
CAL_EVERY_S = 0.25  # longest stretch of timed calls between calibrations


def calibrate():
    """Seconds a fixed piece of plain Python takes: the host's speed right now.

    It does the kind of work the engine does (dict updates, set lookups,
    sorting, list building); a loop of integer arithmetic alone tracked the
    program's slowdowns less well.
    """
    t0 = perf_counter()
    for _ in range(CAL_LOOPS):
        counts = {}
        for i in range(3000):
            counts[i % 512] = counts.get(i % 512, 0) + 1
        for _ in range(20):
            evens = set(range(0, 600, 2))
            [x for x in sorted(range(600, 0, -1)) if x in evens]
    return perf_counter() - t0


class Scaler:
    """Scales call times to reference seconds: each stretch of calls between
    two calibrations by CAL_REF_S over the mean of those two."""

    def __init__(self):
        self.last = calibrate()
        self.pending = []
        self.scaled = []

    def add(self, seconds):
        self.pending.append(seconds)

    def due(self):
        return sum(self.pending) >= CAL_EVERY_S

    def flush(self):
        if self.pending:
            now = calibrate()
            factor = 2 * CAL_REF_S / (self.last + now)
            self.scaled.extend(t * factor for t in self.pending)
            self.last = now
            self.pending.clear()
        return self.scaled


def metric_units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared
    in ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def time_metric(layer):
    """Name of a layer's self-time metric; layers that contain other layers
    say so with ``.self_s``."""
    contains = ("adaptive.build_dendrogram", "cli.main", tracing.ROOT_NAME)
    return f"{layer}.self_s" if layer in contains else f"{layer}.s"


def import_program():
    """Import adaptlink afresh from ``src/``, dropping any earlier import."""
    if not (SRC / "adaptlink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no adaptlink source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "adaptlink" or m.startswith("adaptlink.")]:
        del sys.modules[name]
    al = importlib.import_module("adaptlink")
    importlib.import_module("adaptlink.cli")
    if Path(al.__file__).resolve().parent != (SRC / "adaptlink").resolve():
        raise SystemExit(f"perfbench: adaptlink imported from {al.__file__}")
    return al


def load_references():
    """Recorded output digests and the frozen fixture traces."""
    expected_path = ROOT / "tests" / "_expected.py"
    if not expected_path.is_file():
        raise SystemExit(f"perfbench: missing {expected_path}")
    spec = importlib.util.spec_from_file_location("perfbench_expected", expected_path)
    expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(expected)
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return digests, expected


def run(workload, seed, seconds, trace, after_setup=None):
    """Set up, time and check one workload; return (summary, result).

    ``after_setup`` is called with the freshly imported package before the
    timing starts (the self-test uses it to perturb the program).
    """
    units = metric_units("per_layer" if trace else "end_to_end")
    digests, expected = load_references()
    OUT.mkdir(exist_ok=True)
    al = import_program()
    wl = workloads.WORKLOADS[workload](al, seed, OUT, digests, expected)
    setup_s = None if trace else measure_setup(workload, seed)
    if after_setup is not None:
        after_setup(al)

    tracer = tracing.Tracer() if trace else None
    times = {False: [], True: []}
    scaler = None if trace else Scaler()
    attempted = failed = 0
    problems = []
    traced = False
    gc.collect()
    deadline = perf_counter() + seconds
    while True:
        outputs = []
        with tracer.installed() if traced else nullcontext():
            for case in wl.cases:
                t0 = perf_counter()
                try:
                    with tracer.root() if traced else nullcontext():
                        out, err = wl.solve(case), None
                except Exception as e:  # a raising call is a failed call
                    out, err = None, e
                times[traced].append(perf_counter() - t0)
                outputs.append((case, out, err))
                if scaler is not None:
                    scaler.add(times[False][-1])
        if traced:
            tracer.drain()
        for case, out, err in outputs:
            attempted += 1
            problem = f"raised {err!r}" if err is not None else wl.check(case, out)
            if problem:
                failed += 1
                problems.append(problem)
        if trace:
            traced = not traced
        done = perf_counter() >= deadline and (not trace or times[True])
        if scaler is not None and (done or scaler.due()):
            scaler.flush()
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if wl.final_check is not None:
        attempted += 1
        problem = wl.final_check()
        if problem:
            failed += 1
            problems.append(problem)

    untraced = times[False]
    if trace:
        metrics = layer_metrics(tracer, untraced, times[True], units)
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    else:
        scaled = scaler.scaled
        # Every round calls each case once, in order.  Where the cases differ
        # in cost, the median of all calls jumps between them with the noise,
        # so take each case's median and average those.
        k = len(wl.cases)
        metrics = {
            "leaves_per_s": wl.n * len(scaled) / sum(scaled),
            "solve_s.p50": statistics.fmean(statistics.median(scaled[i::k]) for i in range(k)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    summary = {
        "workload": workload,
        "seed": seed,
        "calls": len(untraced),
        "wall_solve_s.p50": statistics.median(untraced),
        "wall_solve_s.p90": (
            statistics.quantiles(untraced, n=10, method="inclusive")[8]
            if len(untraced) > 1 else untraced[0]
        ),
        "traced_calls": len(times[True]),
        "fail_ratio": failed / attempted,
        "problems": problems[:5],
    }
    if trace:
        summary["absent"] = tracer.absent
        summary["not_called"] = sorted(set(tracing.LAYERS) - tracer.called() - set(tracer.absent))
    return summary, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def measure_setup(workload, seed):
    """Median reference seconds of SETUP_REPS set-ups, each in a fresh
    interpreter started after the previous one has ended (see
    ``setup_once.py``).  A set-up is too short to calibrate on its own, so
    the median is scaled by the median of calibrations made between them."""
    argv = [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)]
    times, cals = [], [calibrate()]
    for _ in range(SETUP_REPS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
        cals.append(calibrate())
    return statistics.median(times) * CAL_REF_S / statistics.median(cals)


def layer_metrics(tracer, untraced, traced, units):
    """Per-layer self times and counts, each per traced call."""
    calls = tracer.roots
    self_s = tracer.self_seconds()
    metrics = {}
    for name, total in self_s.items():
        metrics[time_metric(name)] = total / calls
    metrics["trace.solve_s.p50"] = statistics.median(traced)
    metrics["trace.untraced_solve_s.p50"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.solve_s.p50"] - metrics["trace.untraced_solve_s.p50"]
    for name in units:  # any other metric is a count; one never produced reads 0
        if name not in metrics:
            metrics[name] = tracer.counts[name] / calls
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

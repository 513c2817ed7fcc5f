"""One set-up of a workload in a fresh interpreter; prints its seconds.

    python3 perfbench/setup_once.py <workload> <seed>

A set-up is what a run does before its first timed call: importing numpy
and adaptlink, generating the seeded input and, for ``compare``, writing
the table.  ``run.py`` starts this several times, one after another, and
reports the median as ``setup_s``.  Output checking is not part of it.
"""
from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

import run  # noqa: E402  (imports numpy)
import workloads  # noqa: E402


def main(workload, seed):
    al = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    workloads.WORKLOADS[workload](al, int(seed), run.OUT, {})
    print(perf_counter() - T0)


if __name__ == "__main__":
    main(*sys.argv[1:])

#!/usr/bin/env python3
"""Strong scaling of logistic regression across control planes.

A scaled-down Figure 7a: the same 100 GB logistic-regression job (tasks are
virtual-time spin waits at the calibrated C++ rate, like the paper's
"-opt" variants) on growing worker counts under three control planes —
Nimbus with execution templates, a Naiad-like static data flow, and a
Spark-like centralized scheduler.

Run:  python examples/lr_scaling.py          (~1 minute)
      python examples/lr_scaling.py --full   (the paper's 20/50/100 points)
"""

import sys

from repro.analysis import render_series
from repro.apps import LRSpec
from repro.apps.runner import RunSpec, execute

SYSTEMS = [("Spark-opt", "spark"), ("Naiad-opt", "naiad"),
           ("Nimbus", "nimbus")]


def run_one(system: str, num_workers: int, iterations: int = 14):
    run = execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=iterations),
        system=system, warmup=iterations // 2))
    return run.iteration_time, run.throughput


def main() -> None:
    full = "--full" in sys.argv
    worker_counts = [20, 50, 100] if full else [10, 20, 40]
    times = {name: [] for name, _ in SYSTEMS}
    throughputs = {name: [] for name, _ in SYSTEMS}
    for n in worker_counts:
        for name, system in SYSTEMS:
            iteration_s, tput = run_one(system, n)
            times[name].append(iteration_s)
            throughputs[name].append(tput)
            print(f"  {name:10s} @ {n:3d} workers: "
                  f"{iteration_s * 1000:8.1f} ms/iteration, "
                  f"{tput:9.0f} tasks/s")
    print()
    print(render_series("Iteration time vs. workers (cf. Fig. 7a)",
                        "workers", worker_counts, times, unit="s"))
    print()
    print(render_series("Task throughput vs. workers (cf. Fig. 8)",
                        "workers", worker_counts, throughputs, unit="tasks/s"))
    print("\nExpected shape: Nimbus and Naiad scale out nearly linearly;")
    print("Spark's centralized scheduler saturates near 6,000 tasks/s and")
    print("its iteration time grows with parallelism.")


if __name__ == "__main__":
    main()

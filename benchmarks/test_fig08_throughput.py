"""Figure 8 — task throughput of Nimbus and Spark as workers increase.

Paper: Spark saturates at ~6,000 tasks/second regardless of cluster size;
Nimbus grows superlinearly to ~128,000 tasks/second at 100 workers (more
workers simultaneously create more tasks *and* make each task shorter).
"""

from repro.analysis import render_series
from repro.apps import LRSpec
from repro.apps.runner import RunSpec, execute

from conftest import emit, once


def run_throughput(system, num_workers, iterations=14):
    return execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=iterations),
        system=system, warmup=iterations // 2)).throughput


def test_fig08_task_throughput(benchmark, paper_scale):
    worker_counts = ([10, 20, 40, 60, 80, 100] if paper_scale
                     else [10, 20, 30])

    def sweep():
        return (
            [run_throughput("spark", n) for n in worker_counts],
            [run_throughput("nimbus", n) for n in worker_counts],
        )

    spark, nimbus = once(benchmark, sweep)

    emit("")
    emit(render_series(
        "Figure 8 — task throughput vs workers",
        "workers", worker_counts,
        {"Spark (tasks/s)": spark, "Nimbus (tasks/s)": nimbus}))
    emit("Paper: Spark saturates ~6,000 tasks/s; Nimbus reaches ~128,000 "
         "tasks/s at 100 workers (superlinear).")

    # Spark saturates: throughput stops growing and never exceeds ~6,100
    assert max(spark) < 6100
    if paper_scale:
        assert spark[-1] < 1.25 * spark[-3]  # flat tail
        # Nimbus keeps growing, superlinearly
        for before, after in zip(nimbus, nimbus[1:]):
            assert after > before
        scale = worker_counts[-1] / worker_counts[0]
        assert nimbus[-1] / nimbus[0] > scale  # superlinear growth
        assert nimbus[-1] > 100_000

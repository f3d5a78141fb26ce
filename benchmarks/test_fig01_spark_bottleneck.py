"""Figure 1 — the control plane bottlenecks Spark MLlib's strong scaling.

Paper: logistic regression on 100 GB with Spark 2.0 MLlib on 30–100
workers. Computation time (black bars) shrinks with parallelism, but
control-plane overhead outgrows the gains: total iteration time is
1.44 s at 30 workers, bottoms out near 50–60 workers (~1.33 s), and climbs
back to 1.73 s at 100 workers.

Here: the Spark-like BSP control plane (166 µs/task) running MLlib-rate
tasks (8x slower than C++, §5.1). The required shape: computation strictly
decreases with workers while total time is U-shaped / increasing.
"""

from repro.analysis import render_series
from repro.apps import LRSpec, MLLIB_RATE
from repro.apps.runner import RunSpec, execute

from conftest import emit, once

PAPER_TOTALS = {30: 1.44, 40: 1.38, 50: 1.33, 60: 1.34, 70: 1.38,
                80: 1.59, 90: 1.64, 100: 1.73}


def run_spark_mllib(num_workers: int, iterations: int = 8):
    run = execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=iterations,
               compute_rate=MLLIB_RATE),
        system="spark", warmup=iterations // 2))
    return run.iteration_time, run.compute_time


def test_fig01_spark_mllib_scaling(benchmark, paper_scale):
    worker_counts = [30, 50, 70, 100] if paper_scale else [10, 20, 30]

    def sweep():
        totals, computes = [], []
        for n in worker_counts:
            total, compute = run_spark_mllib(n)
            totals.append(total)
            computes.append(compute)
        return totals, computes

    totals, computes = once(benchmark, sweep)

    emit("")
    emit(render_series(
        "Figure 1 — Spark MLlib iteration time vs workers",
        "workers", worker_counts,
        {
            "total": totals,
            "computation": computes,
            "control": [t - c for t, c in zip(totals, computes)],
            "paper total": [PAPER_TOTALS.get(n, float("nan"))
                            for n in worker_counts],
        }, unit="s"))
    emit("Shape: computation shrinks with parallelism; control grows and "
         "dominates — adding workers stops helping.")

    # computation strictly decreases
    for before, after in zip(computes, computes[1:]):
        assert after < before
    # control overhead strictly grows
    controls = [t - c for t, c in zip(totals, computes)]
    for before, after in zip(controls, controls[1:]):
        assert after > before
    # at scale, total time stops improving: the largest cluster is no
    # faster than the smallest
    if paper_scale:
        assert totals[-1] > 0.95 * totals[0]

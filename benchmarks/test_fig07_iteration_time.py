"""Figure 7 — iteration time of LR and k-means: Spark-opt vs Naiad-opt vs
Nimbus.

Paper (100 GB, spin-wait C++-rate tasks, mean of 30 iterations):

    LR      @ 20/50/100 workers: Spark-opt 0.44/0.75/1.43 s,
            Naiad-opt 0.22/0.10/0.08 s, Nimbus 0.21/0.10/0.06 s
    k-means @ 20/50/100 workers: Spark-opt 0.53/0.79/1.57 s,
            Naiad-opt 0.31/0.14/0.11 s, Nimbus 0.32/0.15/0.10 s

Shape: Nimbus ≈ Naiad, both scale out nearly linearly; Spark scales
*backwards* (15–23x slower than Nimbus at 100 workers for LR).
"""

import pytest

from repro.analysis import render_series
from repro.apps import KMeansSpec, LRSpec
from repro.apps.runner import RunSpec, execute

from conftest import emit, once

PAPER = {
    "lr": {"Spark-opt": [0.44, 0.75, 1.43],
           "Naiad-opt": [0.22, 0.10, 0.08],
           "Nimbus": [0.21, 0.10, 0.06]},
    "kmeans": {"Spark-opt": [0.53, 0.79, 1.57],
               "Naiad-opt": [0.31, 0.14, 0.11],
               "Nimbus": [0.32, 0.15, 0.10]},
}

SYSTEMS = [("Spark-opt", "spark"), ("Naiad-opt", "naiad"),
           ("Nimbus", "nimbus")]

def run_app(spec_cls, system, num_workers, iterations=14):
    return execute(RunSpec(
        spec_cls(num_workers=num_workers, iterations=iterations),
        system=system, warmup=iterations // 2)).iteration_time


def sweep(spec_cls, worker_counts):
    return {name: [run_app(spec_cls, system, n) for n in worker_counts]
            for name, system in SYSTEMS}


@pytest.mark.parametrize("workload", ["lr", "kmeans"])
def test_fig07_iteration_time(benchmark, paper_scale, workload):
    worker_counts = [20, 50, 100] if paper_scale else [10, 20]
    spec_cls = LRSpec if workload == "lr" else KMeansSpec
    results = once(benchmark, sweep, spec_cls, worker_counts)

    label = ("7a — logistic regression" if workload == "lr"
             else "7b — k-means clustering")
    series = {}
    for name, values in results.items():
        series[name] = values
        if paper_scale:
            series[f"{name} (paper)"] = PAPER[workload][name]
    emit("")
    emit(render_series(f"Figure {label}: iteration time",
                       "workers", worker_counts, series, unit="s"))

    nimbus = results["Nimbus"]
    naiad = results["Naiad-opt"]
    spark = results["Spark-opt"]
    # Nimbus scales out: more workers => faster iterations
    for before, after in zip(nimbus, nimbus[1:]):
        assert after < before
    # Nimbus matches or beats Naiad everywhere (the paper's own gap is
    # up to 33% at 100 workers: 60 ms vs 80 ms)
    for a, b in zip(nimbus, naiad):
        assert 0.9 * a < b < 1.7 * a
    # Spark is slower everywhere and the gap explodes with parallelism
    assert spark[0] > 1.3 * nimbus[0]
    assert spark[-1] > 8 * nimbus[-1]
    if paper_scale and workload == "lr":
        ratio = spark[-1] / nimbus[-1]
        emit(f"Spark/Nimbus at 100 workers: {ratio:.1f}x "
             f"(paper: 15-23x)")
        assert 10 <= ratio <= 40

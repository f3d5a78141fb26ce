"""The ``job_arrival`` workload: multi-tenant serving under Poisson load.

ROADMAP item 1's acceptance workload: a stream of jobs (cycling through
the fig07 logistic regression, the fig08 k-means, and the patch-rotation
loop) arrives at a shared cluster with seeded-Poisson interarrival gaps.
The :class:`~repro.nimbus.multijob.JobManager` admits up to
``max_concurrent`` at a time, queues the overflow, and the controller
multiplexes their blocks through the weighted fair-share dispatcher.

Two serving metrics come out, both pure functions of the seed (virtual
time, no wall clock):

* **aggregate task throughput** — total tasks executed across every job
  divided by the virtual makespan (tasks/virtual-second). This is the
  multi-tenant analogue of Fig. 8's single-job throughput ceiling.
* **p95 job latency** — 95th percentile of submit-to-finish virtual
  latency over the completed jobs, the number a serving deployment would
  put an SLO on. Queueing delay behind the admission cap counts.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    RotationApp,
    RotationSpec,
)
from ..nimbus import NimbusCluster, merged_registry

#: job mix, cycled in arrival order. Sized well below the paper-figure
#: runs: the point is concurrency and queueing, not per-job scale.
JOB_MIX = ("fig07_lr", "fig08_kmeans", "patch_rotation")


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def build_job_arrival(
    num_workers: int = 8,
    num_jobs: int = 6,
    seed: int = 0,
    mean_interarrival: float = 0.05,
    iterations: int = 6,
    max_concurrent: int = 3,
    queue_cap: int = 8,
    dispatch_inflight_cap: int = 4,
    mode: str = "centralized",
    shards: Optional[int] = None,
) -> Tuple[NimbusCluster, Dict[Callable, str]]:
    """Build a serve-mode cluster with ``num_jobs`` scheduled arrivals;
    also return the workload name of each submitted program.

    One app instance per workload type is shared by every job of that
    type (blocks are translated into each job's oid namespace by its
    :class:`JobContext`, so sharing the spec is safe). Arrival times are
    cumulative ``Expovariate(1/mean_interarrival)`` gaps from a dedicated
    ``random.Random(seed)`` stream — the schedule is reproducible and
    independent of everything else the simulation draws.
    """
    lr = LRApp(LRSpec(num_workers=num_workers, iterations=iterations,
                      partitions_per_worker=4, data_bytes=1e9, seed=seed))
    km = KMeansApp(KMeansSpec(num_workers=num_workers,
                              iterations=iterations,
                              partitions_per_worker=4, data_bytes=1e9,
                              seed=seed))
    rot = RotationApp(RotationSpec(num_workers=num_workers,
                                   iterations=iterations, seed=seed))
    programs = {
        "fig07_lr": lr.program(blocking=False),
        "fig08_kmeans": km.program(blocking=False),
        # the rotation loop must block (round k+1 overwrites what round k
        # reads); it is also what keeps the patch cache busy while the
        # other tenants stream templates
        "patch_rotation": rot.program(),
    }
    cluster = NimbusCluster(
        num_workers, program=None,
        registry=merged_registry([lr.registry, km.registry, rot.registry]),
        trace=False,
        max_concurrent_jobs=max_concurrent,
        job_queue_cap=queue_cap,
        dispatch_inflight_cap=dispatch_inflight_cap,
        mode=mode, shards=shards,
    )
    rng = random.Random(seed)
    arrival = 0.0
    for i in range(num_jobs):
        arrival += rng.expovariate(1.0 / mean_interarrival)
        workload = JOB_MIX[i % len(JOB_MIX)]
        cluster.jobs.submit_at(arrival, programs[workload])
    return cluster, {program: name for name, program in programs.items()}


def run_job_arrival(
    num_workers: int = 8,
    num_jobs: int = 6,
    seed: int = 0,
    mean_interarrival: float = 0.05,
    iterations: int = 6,
    max_concurrent: int = 3,
    queue_cap: int = 8,
    dispatch_inflight_cap: int = 4,
    mode: str = "centralized",
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the arrival workload and report the serving metrics."""
    cluster, workload_of = build_job_arrival(
        num_workers=num_workers, num_jobs=num_jobs, seed=seed,
        mean_interarrival=mean_interarrival, iterations=iterations,
        max_concurrent=max_concurrent, queue_cap=queue_cap,
        dispatch_inflight_cap=dispatch_inflight_cap, mode=mode,
        shards=shards,
    )
    start = time.perf_counter()
    cluster.run_until_jobs_finished(max_seconds=1e6)
    wall = time.perf_counter() - start
    records = sorted(cluster.jobs.records.values(), key=lambda r: r.job_id)
    latencies = [r.latency for r in records if r.latency is not None
                 and r.state == "finished"]
    per_job = [
        {
            "job_id": r.job_id,
            # by program, not job id: a rejected arrival takes no id
            "workload": workload_of[r.program],
            "submit_time": r.submit_time,
            "start_time": r.start_time,
            "finish_time": r.finish_time,
            "latency": r.latency,
            # workers charge tasks_executed to the shared cluster stream;
            # the per-job stream carries the controller-side schedule count
            "tasks_scheduled": r.metrics.count("tasks_scheduled")
            if r.metrics is not None else 0.0,
        }
        for r in records
    ]
    tasks_total = cluster.metrics.count("tasks_executed")
    makespan = cluster.sim.now
    return {
        "workers": num_workers,
        "jobs": num_jobs,
        "seed": seed,
        "mean_interarrival": mean_interarrival,
        "iterations": iterations,
        "max_concurrent": max_concurrent,
        "queue_cap": queue_cap,
        "dispatch_inflight_cap": dispatch_inflight_cap,
        "wall_seconds": round(wall, 4),
        "events": cluster.sim.events_run,
        "events_per_second": round(cluster.sim.events_run / wall)
        if wall > 0 else 0,
        "virtual_seconds": makespan,
        "jobs_finished": sum(1 for r in records if r.state == "finished"),
        "jobs_rejected": len(cluster.jobs.rejections),
        "tasks_executed": tasks_total,
        "aggregate_task_throughput": tasks_total / makespan
        if makespan > 0 else float("nan"),
        "p95_job_latency": _percentile(latencies, 0.95),
        "mean_job_latency": sum(latencies) / len(latencies)
        if latencies else float("nan"),
        "per_job": per_job,
    }

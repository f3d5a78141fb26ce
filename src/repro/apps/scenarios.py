"""The end-to-end scenarios behind ``repro serve``, ``repro rebalance`` and
``repro autoscale``, reporting virtual-time results (``bench/run.py`` is
the one instrument that times this repository).

**Serving** (:func:`run_job_arrival`): jobs cycling through the fig07 LR,
the fig08 k-means and the patch-rotation loop arrive at a shared cluster
with seeded-Poisson gaps; the :class:`~repro.nimbus.multijob.JobManager`
admits up to ``max_concurrent``, queues the overflow, and the controller
multiplexes their blocks through the weighted fair-share dispatcher. Both
metrics are pure functions of the seed: **aggregate task throughput**
(tasks over the virtual makespan, the multi-tenant analogue of Fig. 8's
ceiling) and **p95 job latency** (submit to finish, the number a serving
deployment would put an SLO on; queueing behind the admission cap counts).

**Step scenarios** script one event into an LR run where iteration *k*
ends. A fault-free probe run fixes that virtual time and the measured
run injects the event exactly there; observation is pure, so the
measured run's prefix is bit-identical to the probe.

* :func:`run_fig09_auto` degrades one worker (``slow_worker``). The
  adaptive rebalancer detects the skew from piggybacked per-task timings
  and template *edits* move the straggler's gradient tasks to the least
  loaded survivors — recovery without a script calling
  ``migrate_tasks``, as ``benchmarks/test_fig09_dynamic.py`` does.
* :func:`run_scale_step` scales every worker's task durations
  (``demand_step``) with the elastic autoscaler on (DESIGN.md §15) and
  reports how long reconciliation took to go quiet: provision, cold
  start, spread through the template machinery (edits or reinstall,
  never a job restart), and for a downward step the DRAINING drain. A
  fixed-size control run with the same step pins zero loss: the same
  executed-task count and bit-identical computed values.

:mod:`repro.apps` does not import this module.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..chaos import FaultPlan
from ..nimbus import NimbusCluster, merged_registry
from .kmeans import KMeansApp, KMeansSpec
from .lr import LRApp, LRSpec
from .rotation import RotationApp, RotationSpec
from .runner import Run, RunSpec, execute

#: job mix, cycled in arrival order. Sized well below the paper-figure
#: runs: the point is concurrency and queueing, not per-job scale.
JOB_MIX = ("fig07_lr", "fig08_kmeans", "patch_rotation")


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def build_job_arrival(
    num_workers: int = 8, num_jobs: int = 6, seed: int = 0,
    mean_interarrival: float = 0.05, iterations: int = 6,
    max_concurrent: int = 3, queue_cap: int = 8,
    dispatch_inflight_cap: int = 4, mode: str = "centralized",
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
    km = KMeansApp(KMeansSpec(num_workers=num_workers, iterations=iterations,
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
        trace=False, max_concurrent_jobs=max_concurrent,
        job_queue_cap=queue_cap, dispatch_inflight_cap=dispatch_inflight_cap,
        mode=mode, shards=shards)
    rng = random.Random(seed)
    arrival = 0.0
    for i in range(num_jobs):
        arrival += rng.expovariate(1.0 / mean_interarrival)
        cluster.jobs.submit_at(arrival, programs[JOB_MIX[i % len(JOB_MIX)]])
    return cluster, {program: name for name, program in programs.items()}


def run_job_arrival(
    num_workers: int = 8, num_jobs: int = 6, seed: int = 0,
    mean_interarrival: float = 0.05, iterations: int = 6,
    max_concurrent: int = 3, queue_cap: int = 8,
    dispatch_inflight_cap: int = 4, mode: str = "centralized",
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the arrival workload and report the serving metrics."""
    cluster, workload_of = build_job_arrival(
        num_workers, num_jobs, seed, mean_interarrival, iterations,
        max_concurrent, queue_cap, dispatch_inflight_cap, mode, shards)
    start = time.perf_counter()
    cluster.run_until_jobs_finished(max_seconds=1e6)
    wall = time.perf_counter() - start
    records = sorted(cluster.jobs.records.values(), key=lambda r: r.job_id)
    latencies = [r.latency for r in records if r.latency is not None
                 and r.state == "finished"]
    per_job = [dict(
        # by program, not job id: a rejected arrival takes no id
        job_id=r.job_id, workload=workload_of[r.program],
        submit_time=r.submit_time, start_time=r.start_time,
        finish_time=r.finish_time, latency=r.latency,
        # workers charge tasks_executed to the shared cluster stream;
        # the per-job stream carries the controller-side schedule count
        tasks_scheduled=r.metrics.count("tasks_scheduled")
        if r.metrics is not None else 0.0,
    ) for r in records]
    tasks_total = cluster.metrics.count("tasks_executed")
    makespan = cluster.sim.now
    return dict(
        # the inputs
        workers=num_workers, jobs=num_jobs, seed=seed,
        mean_interarrival=mean_interarrival, iterations=iterations,
        max_concurrent=max_concurrent, queue_cap=queue_cap,
        dispatch_inflight_cap=dispatch_inflight_cap,
        # the run
        wall_seconds=round(wall, 4), events=cluster.sim.events_run,
        events_per_second=round(cluster.sim.events_run / wall)
        if wall > 0 else 0,
        virtual_seconds=makespan,
        jobs_finished=sum(1 for r in records if r.state == "finished"),
        jobs_rejected=len(cluster.jobs.rejections),
        tasks_executed=tasks_total,
        aggregate_task_throughput=tasks_total / makespan
        if makespan > 0 else float("nan"),
        p95_job_latency=_percentile(latencies, 0.95),
        mean_job_latency=sum(latencies) / len(latencies)
        if latencies else float("nan"),
        per_job=per_job,
    )


#: tdata partition size: small enough that the one-time relocation copies
#: (~26 ms each at 1.25 GB/s) cost well under one iteration, large enough
#: that the 10.5 ms gradient dominates the 0.3–2 ms reduction tasks
BYTES_PER_PARTITION = 32e6


class NoRoom(ValueError):
    """The scripted event leaves no iterations to measure on one side."""


def _probe(num_workers: int, iterations: int, seed: int,
           partitions_per_worker: int, at: int, skip: int, window: int,
           name: str) -> Tuple[RunSpec, float, float]:
    """The step scenarios' pipelined LR run, and from running it
    fault-free: the virtual time iteration ``at`` ends, and the mean
    iteration time after the ``skip`` warm-up iterations up to there."""
    if not skip < at < iterations - window:
        raise NoRoom(f"{name} {at} leaves no room to measure recovery: it "
                     f"must be above {skip} and below {iterations - window}")
    spec = RunSpec(LRSpec(
        num_workers=num_workers,
        data_bytes=BYTES_PER_PARTITION * num_workers * partitions_per_worker,
        partitions_per_worker=partitions_per_worker, iterations=iterations),
        seed=seed, trace=False)
    ends = execute(spec).iteration_ends
    return spec, ends[at - 1], (ends[at - 1] - ends[skip - 1]) / (at - skip)


def run_fig09_auto(
    num_workers: int = 16, iterations: int = 40, seed: int = 0,
    partitions_per_worker: int = 4, scale: float = 2.0,
    fault_iteration: int = 12, skip: int = 4, window: int = 4,
    rebalance: bool = True, recovery_slack: float = 1.15,
) -> Dict:
    """Run the automated-fig09 workload and report recovery statistics.

    ``iterations_to_recover`` counts iterations from the fault until every
    later iteration's completion spacing stays within ``recovery_slack`` ×
    the pre-fault mean (None if the run never settles — e.g. with
    ``rebalance=False``, the control experiment). ``recovered_iteration_
    time`` is the mean spacing of the final ``window`` iterations.
    """
    spec, fault_at, pre = _probe(num_workers, iterations, seed,
                                 partitions_per_worker, fault_iteration,
                                 skip, window, "fault_iteration")
    straggler = num_workers - 1
    run = execute(replace(
        spec, rebalance=rebalance,
        chaos_plan=FaultPlan(seed).slow_worker(fault_at, straggler, scale)))
    ends = run.iteration_ends
    spacing = [b - a for a, b in zip(ends, ends[1:])]
    peak = max(spacing[fault_iteration - 1:])
    recovered = sum(spacing[-window:]) / window
    threshold = recovery_slack * pre
    bad = [k for k in range(fault_iteration - 1, len(spacing))
           if spacing[k] > threshold]
    if not bad:
        iterations_to_recover = 0
    elif bad[-1] >= len(spacing) - window:
        iterations_to_recover = None  # still unstable at the end of the run
    else:
        # spacing[k] measures iteration k+2; the first clean one is k+3
        iterations_to_recover = (bad[-1] + 3) - fault_iteration

    decisions = list(getattr(run.cluster.rebalancer, "decisions", ()))
    moves = sum(len(applied) for (_t, _b, applied, _m) in decisions)
    mechanisms = sorted({mech for (_t, _b, _a, mech) in decisions})
    converged = (iterations_to_recover is not None
                 and iterations_to_recover <= 10 and recovered <= threshold)
    return dict(
        # the inputs
        workers=num_workers, iterations=iterations,
        partitions_per_worker=partitions_per_worker, seed=seed, scale=scale,
        fault_iteration=fault_iteration, skip=skip, window=window,
        rebalance=rebalance, recovery_slack=recovery_slack,
        # the run
        straggler=straggler, fault_at=fault_at,
        pre_fault_iteration_time=pre, post_fault_peak=peak,
        recovered_iteration_time=recovered,
        recovery_ratio=recovered / pre if pre > 0 else float("inf"),
        iterations_to_recover=iterations_to_recover,
        decisions=len(decisions), moves=moves, mechanisms=mechanisms,
        edits_applied=run.count("edits_applied"),
        rebalance_moves=run.count("rebalance_moves"),
        worker_template_regenerations=run.count(
            "worker_template_regenerations"),
        converged=converged,
    )


def run_scale_step(
    num_workers: int = 16, iterations: int = 40, seed: int = 0,
    partitions_per_worker: int = 4, step: float = 2.0,
    step_iteration: int = 12, skip: int = 4, window: int = 4,
    interval: Optional[float] = None, cold_start: Optional[float] = None,
    stable_ticks_bound: int = 120, control: bool = True,
    mode: str = "centralized", shards: Optional[int] = None,
) -> Dict:
    """Run the scale-step workload and report reconciliation statistics.

    ``interval`` defaults to the probe's pre-step mean iteration time —
    reconciliation paced to the workload's own cadence, as an operator
    would tune it — and ``cold_start`` to four intervals; both come from
    the deterministic probe, so the run stays reproducible per seed.

    ``time_to_stable`` runs from the demand step to the autoscaler's
    *last* decision, after which the loop observed only in-band
    utilization. ``converged`` requires the loop to go quiet within
    ``stable_ticks_bound`` intervals of the step and the program to
    finish; with ``control=True``, also zero loss against a fixed-size
    run with the identical step: equal executed-task counts and an
    identical results digest.
    """
    spec, step_at, pre = _probe(num_workers, iterations, seed,
                                partitions_per_worker, step_iteration, skip,
                                window, "step_iteration")
    interval = pre if interval is None else interval
    cold_start = 4 * interval if cold_start is None else cold_start

    def stepped(**settings) -> Run:
        return execute(replace(
            spec, chaos_plan=FaultPlan(seed).demand_step(step_at, step),
            mode=mode, shards=shards, **settings))

    run = stepped(autoscale=True, autoscale_interval=interval,
                  autoscale_cold_start=cold_start)
    cluster = run.cluster
    ends = run.iteration_ends
    spacing = [b - a for a, b in zip(ends, ends[1:])]
    final = sum(spacing[-window:]) / window if len(spacing) >= window else None

    decisions = list(cluster.autoscaler.decisions)
    actions = [d["action"] for d in decisions]
    mechanisms = sorted({m for d in decisions if d["action"] == "spread"
                         for m in d["mechanisms"]})
    time_to_stable = (max(d["t"] for d in decisions) - step_at
                      if decisions else None)
    ticks_to_stable = (int(round(time_to_stable / interval))
                       if time_to_stable is not None else None)
    converged = (cluster.job.finished
                 and (time_to_stable is None
                      or ticks_to_stable <= stable_ticks_bound))

    report = dict(
        # the inputs; interval and cold start as the probe resolved them
        workers=num_workers, iterations=iterations,
        partitions_per_worker=partitions_per_worker, seed=seed, mode=mode,
        step=step, step_iteration=step_iteration, interval=interval,
        cold_start=cold_start, stable_ticks_bound=stable_ticks_bound,
        # the run
        step_at=step_at, pre_step_iteration_time=pre,
        final_iteration_time=final, time_to_stable=time_to_stable,
        ticks_to_stable=ticks_to_stable,
        workers_final=len(cluster.controller.live_workers),
        workers_added=int(run.count("scale.workers_added")),
        workers_drained=int(run.count("scale.workers_drained")),
        spread_moves=int(run.count("scale.spread_moves")),
        decisions=len(decisions), actions=actions, mechanisms=mechanisms,
        tasks_executed=int(run.count("tasks_executed")),
        converged=converged,
    )
    if control:
        fixed = stepped()
        report["control_tasks_executed"] = int(fixed.count("tasks_executed"))
        report["zero_loss"] = (
            report["tasks_executed"] == report["control_tasks_executed"]
            and run.digest == fixed.digest)
        report["converged"] = converged and report["zero_loss"]
    return report

"""The five benchmark workloads, driven through the public API only.

Each ``build_*`` function turns a seed into inputs, constructs the apps
and the cluster, and returns a :class:`Run` whose two phases the child
process executes in order: ``run.setup()`` (up to the quiesce point) and
``run.steady()``. The boundary is real: the workload's own driver program
drains every posted block, reads the clocks and counters
(:meth:`Run.quiesce`), and halts the simulator so ``setup()`` returns to
the top level — which is what lets the traced pass swap profilers with an
empty stack between the phases.

Why these five, and which layer each loads or bypasses, is recorded in
``bench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from typing import Callable, Dict, List

from repro.apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    RotationApp,
    RotationSpec,
    WaterApp,
    WaterSpec,
)
from repro.nimbus import NimbusCluster, merged_registry
from repro.nimbus import protocol as P

#: Every seed is a distinct input: it scales the dataset size (task
#: durations for water) by a factor within 1 +/- JITTER. Small enough that
#: the virtual metrics of two seeds agree to a tenth of their bound, large
#: enough that no two seeds read the same.
JITTER = 1e-4

#: serve_mix replays one Poisson arrival trace; the run seed picks where
#: in the trace the replay starts and which job type goes first. All
#: seeds therefore see the same bursts (so job-latency percentiles are
#: comparable between seeds) against a different alignment of job types.
ARRIVAL_TRACE_SEED = 20170712


def _jitter(seed: int) -> float:
    return 1.0 + JITTER * random.Random(seed).uniform(-1.0, 1.0)


class Run:
    """One built workload: its cluster, its two phases and its readings."""

    def __init__(self, jobs: int):
        #: jobs this run submits (the attempted-operation count of a rep)
        self.jobs = jobs
        self.cluster: NimbusCluster = None
        self.stamp: Dict[str, float] = None
        self.setup: Callable[[], None] = self._run_to_quiesce
        self.steady: Callable[[], None] = self._run_to_finish

    def quiesce(self, halt: bool = True) -> None:
        """Read clocks and counters at the setup/steady boundary.

        Called from inside the driver program at a point where nothing is
        in flight. The host clock is read last so the collection and the
        counter copies are charged to setup.
        """
        cluster = self.cluster
        gc.collect()
        self.stamp = {
            "virt": cluster.sim.now,
            "events": cluster.sim.events_run,
            "counters": dict(cluster.metrics.counters),
            "busy": actor_busy(cluster),
            "host": time.perf_counter(),
        }
        if halt:
            cluster.sim.halt()

    def _run_to_quiesce(self) -> None:
        self.cluster.driver.halt_on_finish = True
        self.cluster.run()
        if self.stamp is None:
            raise RuntimeError("driver program ended before its quiesce point")

    def _run_to_finish(self) -> None:
        self.cluster.sim.run()
        if not self.cluster.job.finished:
            raise RuntimeError("simulation drained before the job finished")

    def latencies(self) -> List[float]:
        """Virtual submit-to-finish latency of every finished job."""
        records = self.cluster.jobs.records
        if not records:
            return [self.cluster.job.finish_time]
        return [r.latency for r in records.values() if r.state == "finished"]

    def digest(self) -> str:
        """sha256 over every job's ordered per-block results history.

        Per-job digests are sorted before hashing, so the value depends on
        what each job computed and not on which job id it was given.
        """
        per_job = sorted(
            hashlib.sha256(json.dumps(
                [[block_id, results]
                 for block_id, results in ctx.results_history],
                sort_keys=True).encode()).hexdigest()
            for ctx in self.cluster.controller.jobs.values())
        return hashlib.sha256("".join(per_job).encode()).hexdigest()


def actor_busy(cluster: NimbusCluster) -> Dict[str, float]:
    """Cumulative virtual control-thread busy seconds per actor class."""
    workers = cluster.workers.values()
    return {
        "controller": cluster.controller.busy_time,
        "worker_mean": sum(w.busy_time for w in workers) / len(workers),
    }


# ---------------------------------------------------------------------------
# lr_steady / lr_scaleout: pipelined logistic regression
# ---------------------------------------------------------------------------
def _build_lr_pipelined(seed: int, workers: int, mode: str, warm: int,
                        steady: int, trace: bool) -> Run:
    spec = LRSpec(num_workers=workers, iterations=warm + steady,
                  data_bytes=100e9 * _jitter(seed), seed=seed)
    app = LRApp(spec)
    run = Run(jobs=1)

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        params = {"step": spec.step_size}
        for _ in range(warm):
            job.post(app.iteration_block, params)
        yield job.drain()
        run.quiesce()
        for _ in range(steady):
            job.post(app.iteration_block, params)
        yield job.drain()

    run.cluster = NimbusCluster(workers, program, registry=app.registry,
                                trace=trace, mode=mode)
    return run


def build_lr_steady(seed: int, quick: bool, trace: bool) -> Run:
    workers, steady = (10, 6) if quick else (100, 40)
    return _build_lr_pipelined(seed, workers, "centralized", 6, steady, trace)


def build_lr_scaleout(seed: int, quick: bool, trace: bool) -> Run:
    workers, steady = (16, 6) if quick else (256, 12)
    return _build_lr_pipelined(seed, workers, "sharded", 4, steady, trace)


# ---------------------------------------------------------------------------
# lr_migrate: the Fig. 10 program
# ---------------------------------------------------------------------------
MIGRATE_EVERY = 2
MIGRATE_FRACTION = 0.05


def build_lr_migrate(seed: int, quick: bool, trace: bool) -> Run:
    workers, warm, steady = (10, 4, 6) if quick else (100, 4, 12)
    spec = LRSpec(num_workers=workers, iterations=warm + steady,
                  data_bytes=100e9 * _jitter(seed), seed=seed)
    app = LRApp(spec)
    run = Run(jobs=1)
    block_id = app.iteration_block.block_id
    count = max(1, int(MIGRATE_FRACTION * spec.num_partitions))
    stride = spec.num_partitions // count
    # the seed picks the first slice; each round rotates it by one task so
    # moves never collide
    offset = random.Random(seed).randrange(spec.num_partitions)

    def migrate(controller):
        nonlocal offset
        version = controller.current_version[block_id]
        locations = controller.worker_templates[
            (block_id, version)].task_locations
        moves = []
        for i in range(count):
            task = (i * stride + offset) % spec.num_partitions
            src = locations[task][0]
            moves.append((task, (src + workers // 2) % workers))
        offset += 1
        mechanism = controller.migrate_tasks(block_id, moves)
        if mechanism != "edits":
            raise RuntimeError(
                f"migration used {mechanism!r}; the workload needs edits")

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        params = {"step": spec.step_size}
        for _ in range(warm):
            yield job.run(app.iteration_block, params)
        run.quiesce()
        for i in range(steady):
            if i % MIGRATE_EVERY == 0:
                run.cluster.controller.deliver(P.ManagerDirective(migrate))
            yield job.run(app.iteration_block, params)

    run.cluster = NimbusCluster(workers, program, registry=app.registry,
                                trace=trace, mode="centralized")
    return run


# ---------------------------------------------------------------------------
# water_nested: the Fig. 11 PhysBAM proxy
# ---------------------------------------------------------------------------
class _FrameLog(list):
    """``frame_log`` hook: the first completed frame is the quiesce point."""

    def __init__(self, run: Run):
        super().__init__()
        self._run = run

    def append(self, now: float) -> None:
        super().append(now)
        if len(self) == 1:
            self._run.quiesce()


def build_water_nested(seed: int, quick: bool, trace: bool) -> Run:
    workers, per_worker, frames = (8, 2, 2) if quick else (64, 5, 4)
    spec = WaterSpec(num_workers=workers, partitions_per_worker=per_worker,
                     scale=1.5 * _jitter(seed), frame_duration=0.004,
                     frames=frames)
    app = WaterApp(spec)
    run = Run(jobs=1)
    run.cluster = NimbusCluster(
        workers, app.program(frame_log=_FrameLog(run)),
        registry=app.registry, trace=trace, mode="centralized")
    return run


# ---------------------------------------------------------------------------
# serve_mix: open-loop multi-tenant serving
# ---------------------------------------------------------------------------
SERVE_MEAN_INTERARRIVAL = 0.08


def arrival_schedule(seed: int, jobs: int) -> List[float]:
    """Scheduled arrival times: the fixed Poisson trace, rotated by seed.

    The trace is scaled so its last arrival falls at
    ``jobs * SERVE_MEAN_INTERARRIVAL``; the offered rate is the same for
    every seed.
    """
    trace = random.Random(ARRIVAL_TRACE_SEED)
    gaps = [trace.expovariate(1.0 / SERVE_MEAN_INTERARRIVAL)
            for _ in range(jobs)]
    norm = jobs * SERVE_MEAN_INTERARRIVAL / sum(gaps)
    start = random.Random(seed).randrange(jobs)
    times, now = [], 0.0
    for gap in gaps[start:] + gaps[:start]:
        now += gap * norm
        times.append(now)
    return times


def build_serve_mix(seed: int, quick: bool, trace: bool) -> Run:
    workers, jobs = (4, 12) if quick else (16, 150)
    iterations = 6
    lr = LRApp(LRSpec(num_workers=workers, iterations=iterations,
                      partitions_per_worker=4, data_bytes=1e9, seed=seed))
    km = KMeansApp(KMeansSpec(num_workers=workers, iterations=iterations,
                              partitions_per_worker=4, data_bytes=1e9,
                              seed=seed))
    rot = RotationApp(RotationSpec(num_workers=workers,
                                   iterations=iterations, seed=seed))
    # rotation must block (round k+1 overwrites what round k reads)
    programs = [lr.program(blocking=False), km.program(blocking=False),
                rot.program()]
    run = Run(jobs=jobs)
    run.cluster = NimbusCluster(
        workers, program=None,
        registry=merged_registry([lr.registry, km.registry, rot.registry]),
        trace=trace, mode="centralized", max_concurrent_jobs=3,
        job_queue_cap=16, dispatch_inflight_cap=4)
    first_type = random.Random(seed ^ 0x5EED).randrange(len(programs))
    for i, when in enumerate(arrival_schedule(seed, jobs)):
        run.cluster.jobs.submit_at(
            when, programs[(i + first_type) % len(programs)])
    # the whole run is steady; setup is construction and scheduling
    run.setup = lambda: run.quiesce(halt=False)
    run.steady = run.cluster.run_until_jobs_finished
    return run


BUILDERS: Dict[str, Callable[[int, bool, bool], Run]] = {
    "lr_steady": build_lr_steady,
    "lr_scaleout": build_lr_scaleout,
    "lr_migrate": build_lr_migrate,
    "water_nested": build_water_nested,
    "serve_mix": build_serve_mix,
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, so it repeats exactly)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

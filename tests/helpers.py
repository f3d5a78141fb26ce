"""Shared test helpers: tiny programs, reference interpreters, builders,
the seeded-sweep workhorses (one fig07 run + its observable tuple) used
by the compiled-template, tracing, rebalancer, and multi-tenant
equivalence sweeps, and a probe that drives one real worker through
template instantiations."""

from __future__ import annotations

import collections
import contextlib
import gc
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import mean_iteration_time
from repro.apps import LRApp, LRSpec
from repro.chaos import FaultPlan
from repro.core.controller_template import ControllerTemplate
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.worker_template import generate_worker_templates
from repro.nimbus import FunctionRegistry, NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.commands import Command, CommandKind
from repro.nimbus.costs import CostModel
from repro.nimbus.worker import DurableStorage, Worker
from repro.sim.actor import Actor
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network


def combine_registry() -> FunctionRegistry:
    """Registry with a deterministic value-combining task function.

    ``combine`` writes a hash-like fold of its read payloads and parameter,
    so any reordering or missed copy changes the result — ideal for
    verifying read-latest-value semantics end to end.
    """
    registry = FunctionRegistry()

    def combine(ctx):
        acc = 17
        for value in ctx.reads():
            acc = (acc * 31 + (value if value is not None else 7)) % 1000003
        if ctx.params is not None:
            acc = (acc * 31 + ctx.params) % 1000003
        ctx.write(ctx.write_set[0], acc)

    def seed(ctx):
        ctx.write(ctx.write_set[0], ctx.params if ctx.params is not None else 1)

    registry.register("combine", fn=combine, duration=1e-3)
    registry.register("seed", fn=seed, duration=1e-4)
    return registry


def reference_execute(blocks: Sequence[Tuple[BlockSpec, Dict[str, Any]]],
                      initial: Optional[Dict[int, Any]] = None) -> Dict[int, Any]:
    """Sequential reference interpreter: run blocks in program order on a
    single global store, with the same ``combine``/``seed`` semantics."""
    store: Dict[int, Any] = dict(initial or {})
    for block, params in blocks:
        for _stage, task in block.all_tasks():
            param = params.get(task.param_slot) if task.param_slot else None
            if task.function == "seed":
                store[task.write[0]] = param if param is not None else 1
            elif task.function == "combine":
                acc = 17
                for oid in task.read:
                    value = store.get(oid)
                    acc = (acc * 31 + (value if value is not None else 7)) % 1000003
                if param is not None:
                    acc = (acc * 31 + param) % 1000003
                store[task.write[0]] = acc
            else:
                raise ValueError(f"unknown reference function {task.function}")
    return store


def run_program(program, registry, num_workers=2, use_templates=True,
                max_seconds=1e5, **kwargs):
    """Build a cluster, run the program to completion, return the cluster."""
    cluster = NimbusCluster(num_workers, program, registry=registry,
                            use_templates=use_templates, **kwargs)
    cluster.run_until_finished(max_seconds=max_seconds)
    return cluster


def simple_define(objects: Dict[int, Tuple[str, int]], homes=None):
    """Build a job.define() payload: {oid: (name, size)} (+ optional homes)."""
    homes = homes or {}
    return [(oid, name, 0, size, homes.get(oid))
            for oid, (name, size) in objects.items()]


def worker_values(cluster: NimbusCluster, oids) -> Dict[int, Any]:
    """Read each object's value from the worker holding its latest version."""
    directory = cluster.controller.jobs[0].directory
    out = {}
    for oid in oids:
        holders = directory.holders_of_latest(oid)
        assert holders, f"object {oid} has no latest holder"
        out[oid] = cluster.workers[min(holders)].store.get(oid)
    return out


# ---------------------------------------------------------------------------
# Seeded-sweep workhorses (shared by the equivalence/property suites)
# ---------------------------------------------------------------------------
def run_lr(workers=4, iterations=8, seed=0, partitions_per_worker=4,
           rebalance=False, chaos_profile=None, chaos_seed=0, trace=None,
           straggler_scales=None, blocking=False, **cluster_kwargs):
    """One fig07 logistic-regression run to completion.

    The canonical subject of every seeded sweep: small enough to run in
    tens of milliseconds, rich enough (templates, reductions, patches
    under chaos) to exercise the whole control plane. Extra cluster
    keywords (``mode``, ``patch_cache_cap``, ...) pass through.
    """
    spec = LRSpec(num_workers=workers, iterations=iterations,
                  partitions_per_worker=partitions_per_worker)
    app = LRApp(spec)
    plan = (None if chaos_profile is None
            else FaultPlan.from_profile(chaos_profile, seed=chaos_seed))
    cluster = NimbusCluster(workers, app.program(blocking=blocking),
                            registry=app.registry, seed=seed,
                            chaos_plan=plan, rebalance=rebalance,
                            trace=trace, straggler_scales=straggler_scales,
                            **cluster_kwargs)
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


@contextlib.contextmanager
def cyclic_garbage():
    """Tally, by type name, the objects the enclosed scenario leaves for
    the cycle collector — what reference counting alone never frees.

    Collects first so earlier tests' garbage is not counted, then runs
    the scenario with automatic collection off and ``DEBUG_SAVEALL`` on,
    so the closing ``gc.collect()`` parks everything unreachable in
    ``gc.garbage`` instead of freeing it. The yielded Counter is filled
    on exit; collector flags and state are always restored and
    ``gc.garbage`` emptied, so a sibling test in the same process (xdist)
    never inherits either.
    """
    found = collections.Counter()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.update(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def virtual_results(cluster, block_id: Optional[str] = None, skip: int = 0):
    """Everything a run computes in virtual time, as one comparable tuple.

    With ``block_id`` the tuple leads with that block's steady-state mean
    iteration time (the tracing suite's convention); without it the tuple
    is (virtual end time, events run, full counter snapshot).
    """
    base = (
        cluster.sim.now,
        cluster.sim.events_run,
        cluster.metrics.counters_snapshot(),
    )
    if block_id is None:
        return base
    return (mean_iteration_time(cluster.metrics, block_id, skip=skip),) + base


def canon(value):
    """Hashable bit-exact form of a task result (arrays by raw bytes)."""
    import numpy as np
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def computed_values(cluster, job_id: int = 0):
    """Everything one job *computed*, independent of when it computed it.

    The decentralized scheduling mode intentionally changes event timing
    (windows replace per-instance controller round-trips), so mode-parity
    sweeps cannot compare :func:`virtual_results` — they compare this:
    the ordered per-block results history, the executed-task count, and
    the final bit-exact value of every object in the job's directory.
    """
    ctx = cluster.controller.jobs[job_id]
    history = tuple(
        (block_id, tuple(sorted((k, canon(v)) for k, v in results.items())))
        for block_id, results in ctx.results_history)
    values = {}
    for obj in ctx.directory.objects():
        holders = ctx.directory.holders_of_latest(obj.oid)
        if not holders:  # evicted/garbage-collected objects have no value
            continue
        values[obj.oid] = canon(cluster.workers[min(holders)].store.get(obj.oid))
    return (history, cluster.metrics.count("tasks_executed"), values)


def random_combine_schedule(seed: int, oids: Sequence[int]):
    """A seeded random program over ``combine``/``seed`` tasks.

    Returns ``(seed_block, params, blocks, iterations)``: a seeding block
    that gives every object a parameterized initial value, then 1-3
    random combine blocks (random read sets, random single writes, split
    into up to two stages) looped a random number of times. Any control
    plane that reorders a copy or drops a version changes the fold.
    """
    rng = random.Random(seed)
    oids = list(oids)
    blocks = []
    for b in range(rng.randint(1, 3)):
        tasks = []
        for _ in range(rng.randint(1, 8)):
            reads = tuple(rng.sample(oids, rng.randint(0, 3)))
            write = rng.choice(oids)
            tasks.append(LogicalTask("combine", read=reads, write=(write,)))
        split = rng.randint(1, len(tasks))
        stages = [StageSpec("s0", tasks[:split])]
        if tasks[split:]:
            stages.append(StageSpec("s1", tasks[split:]))
        blocks.append(BlockSpec(f"rand{b}", stages))
    seed_block = BlockSpec("seedblk", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot=f"v{oid}")
        for oid in oids
    ])])
    params = {f"v{oid}": rng.randint(1, 100) for oid in oids}
    iterations = rng.randint(2, 5)
    return seed_block, params, blocks, iterations


def cluster_observables(cluster, oids):
    """(counters, virtual end time, events, final object values) — the
    four-way observable the equivalence sweeps compare."""
    return (
        cluster.metrics.counters_snapshot(),
        cluster.sim.now,
        cluster.sim.events_run,
        worker_values(cluster, oids),
    )


def assert_identical(actual, expected, label: str) -> None:
    """Compare two :func:`cluster_observables` tuples field by field."""
    a_counters, a_now, a_events, a_values = actual
    e_counters, e_now, e_events, e_values = expected
    assert a_counters == e_counters, f"{label}: counters diverged"
    assert a_now == e_now, f"{label}: virtual end time diverged"
    assert a_events == e_events, f"{label}: event count diverged"
    assert a_values == e_values, f"{label}: data values diverged"


# ---------------------------------------------------------------------------
# Delivery order at one actor (the cross-channel causal barrier)
# ---------------------------------------------------------------------------
def handled_by(actor, *types):
    """The type names of the ``types`` messages ``actor`` handles from
    now on, in order."""
    handled = []
    handle = actor.handle

    def recording(msg):
        if isinstance(msg, types):
            handled.append(type(msg).__name__)
        handle(msg)

    actor.handle = recording
    return handled


def stamped_ahead(origin, msg, dst, ahead=1):
    """Stamp ``msg`` against the ``ahead``-th next message ``origin``
    sends ``dst`` directly."""
    ((name, seq),) = origin.stamp(msg, dst).rel_after
    msg.rel_after = ((name, seq + ahead),)
    return msg


# ---------------------------------------------------------------------------
# One real worker, driven through template instantiations
# ---------------------------------------------------------------------------
def lr_iteration_template(num_workers: int, **spec):
    """(controller template, object sizes) of the LR iteration block, each
    task at the home of its anchor object as the central scheduler
    places it; ``spec`` keywords pass to :class:`LRSpec`."""
    app = LRApp(LRSpec(num_workers=num_workers, iterations=2, **spec))
    block = app.iteration_block
    home = {oid: h for oid, _n, _p, _s, h in app.variables.definitions}
    sizes = {oid: s for oid, _n, _p, s, _h in app.variables.definitions}
    assignment = []
    for _stage, task in block.all_tasks():
        anchor = task.write[0] if task.write else task.read[0]
        assignment.append(home[anchor] if home[anchor] is not None else 0)
    return ControllerTemplate.from_block(block, assignment), sizes


def _busiest_lr_half(num_workers: int):
    """(worker_id, entries, report indices) of the largest worker half of
    the LR iteration block, generated the way the controller does."""
    template_set = generate_worker_templates(
        *lr_iteration_template(num_workers))
    worker_id, entries = max(template_set.entries.items(),
                             key=lambda kv: len(kv[1]))
    reports = tuple(e.index for e in entries if e is not None and e.report)
    return worker_id, entries, reports


class _Sink(Actor):
    """Stands in for the controller and for peer workers: absorbs all."""

    def handle(self, msg) -> None:
        pass


class WorkerDriver:
    """A real :class:`Worker` holding the busiest LR half, driven through
    ``InstantiateWorkerTemplate`` at a fixed pipeline depth.

    Only the instantiation handler is timed. Between timed calls the
    oldest in-flight instance is fed its RECV payloads and the simulator
    runs to quiescence, so with ``depth`` > 1 the instance being
    instantiated always follows one whose commands are all still pending
    (the steady pipelined state of fig07), and with ``depth`` 1 one that
    has fully drained (blocking programs, self-schedule windows).
    ``seam=False`` enqueues an unrelated central command before every
    instantiation, which is what sends the next one down the tracker walk.
    """

    BLOCK = "bench.block"

    def __init__(self, num_workers: int, depth: int, seam: bool = True):
        worker_id, entries, reports = _busiest_lr_half(num_workers)
        self.depth, self.seam = depth, seam
        self.sim = Simulator()
        network = Network(self.sim, latency=1e-6, bandwidth=1e12)
        sink = network.attach(_Sink(self.sim, "controller"))
        registry = FunctionRegistry()
        for name in sorted({e.function for e in entries
                            if e is not None and e.function}):
            registry.register(name, fn=None, duration=1e-4)
        self.worker = Worker(self.sim, worker_id, sink, registry, CostModel(),
                             Metrics(), DurableStorage())
        network.attach(self.worker)
        self.worker.peers = {e.dst_worker: sink for e in entries
                             if e is not None and e.kind == CommandKind.SEND}
        self.recvs = [e for e in entries
                      if e is not None and e.kind == CommandKind.RECV]
        self.stride = len(entries) + 1
        self.version = 0  # template version the next instances name
        self.worker.handle(P.InstallWorkerTemplate(
            self.BLOCK, 0, entries, list(reports)))
        self.instances, self.seconds = 0, 0.0
        for _ in range(depth + 2):  # fill the pipeline, build the seam
            self.step()
        self.warm, self.seconds = self.instances, 0.0

    def next_message(self) -> P.InstantiateWorkerTemplate:
        i = self.instances
        return P.InstantiateWorkerTemplate(
            self.BLOCK, self.version, i, (i + 1) * self.stride, {}, i)

    def step(self) -> None:
        worker, i = self.worker, self.instances
        if not self.seam:
            worker.handle(P.DispatchCommandBatch([Command(
                -1 - i, CommandKind.CREATE, worker.worker_id, write=(-1,))],
                0))
        msg = self.next_message()
        start = time.perf_counter()
        worker.handle(msg)
        self.seconds += time.perf_counter() - start
        self.instances = i + 1
        done = i + 1 - self.depth  # this instance may now drain
        if done >= 0:
            for e in self.recvs:
                worker.handle(P.DataMessage(
                    (done, worker.worker_id, e.index), e.write[0], None, 8))
        self.sim.run()

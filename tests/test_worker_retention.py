"""A worker keeps only what the controller can still invoke (DESIGN.md §12).

* A relocation patch is one-shot: once its instance has drained no worker
  keeps its plan, pooled frame, seam or tracker entry, and the patches a
  worker holds are the ones the controller's patch cache holds.
* A patch that leaves the controller's cache (an LRU eviction, a
  replacement) is freed on its workers once its last instance drained;
  an invocation already on its way still runs.
* The redelivery guards are watermarks (DESIGN.md §7): a long job keeps
  as many guard entries as a short one in every scheduling mode, and a
  redelivered instantiation, patch install or patch invocation, or a
  re-granted window instance, of a live job is stale and runs nothing.
* The controller's driver-request guard is exact in any arrival order,
  and the driver sends its requests in program order: a window never
  overtakes the driver's backlog.
"""

import random
from collections import deque

import pytest

from repro.apps import LRApp, LRSpec, RotationApp, RotationSpec
from repro.core.patching import PatchCache
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.worker_template import RecvEntry
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.multijob import JobContext
from repro.nimbus.worker import Worker

from .helpers import combine_registry, computed_values, run_lr, simple_define

pytestmark = pytest.mark.guard


@pytest.fixture
def patch_runs(monkeypatch):
    """Every patch instance a worker starts: (worker, patch id, plan,
    command-id base)."""
    runs = []
    run = Worker._run_patch

    def recording(self, patch_id, plan, instance_id, cid_base):
        runs.append((self, patch_id, plan, cid_base))
        run(self, patch_id, plan, instance_id, cid_base)
    monkeypatch.setattr(Worker, "_run_patch", recording)
    return runs


def _cached_on(cluster, worker):
    """The ids of the cached patches ``worker`` was sent."""
    return {patch.patch_id for ctx in cluster.controller.jobs.values()
            for patch in ctx.patch_cache._cache.values()
            if worker in patch.holders}


def _reachable_plans(worker):
    """Every compiled plan ``worker`` can still reach."""
    tracker = worker.tracker
    plans = {live[0] for live in worker._patches.values()}
    plans.update(half._plan for half in worker._templates.values())
    plans.update(plan for pair in worker._seams for plan in pair)
    plans.update(tracker._prune_in)
    plans.update(plan for plan, _base, _rem in tracker._chain)
    if tracker.tail is not None:
        plans.add(tracker.tail.plan)
    return plans


def _tracker_cids(worker):
    """Every command id the worker's conflict tracker names."""
    tracker = worker.tracker
    cids = set(tracker._last_writer.values())
    for readers in tracker._readers_since.values():
        cids.update([readers] if readers.__class__ is int else readers)
    return cids


def _migrating_lr(workers=10, warm=4, steady=6, seed=0):
    """The lr_migrate shape at its small scale: LR whose every second
    steady iteration moves 5 % of the tasks by template edits, relocating
    their sole-reader inputs with one-shot patches."""
    spec = LRSpec(num_workers=workers, iterations=warm + steady, seed=seed)
    app = LRApp(spec)
    block_id = app.iteration_block.block_id
    count = max(1, spec.num_partitions // 20)
    stride = spec.num_partitions // count
    offset = [random.Random(seed).randrange(spec.num_partitions)]

    def migrate(controller):
        version = controller.jobs[0].current_version[block_id]
        locations = controller.jobs[0].worker_templates[
            (block_id, version)].task_locations
        tasks = [(i * stride + offset[0]) % spec.num_partitions
                 for i in range(count)]
        offset[0] += 1
        moves = [(t, (locations[t][0] + workers // 2) % workers)
                 for t in tasks]
        assert controller.migrate_tasks(block_id, moves) == "edits"

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(warm + steady):
            if i >= warm and (i - warm) % 2 == 0:
                cluster.controller.deliver(P.ManagerDirective(migrate))
            yield job.run(app.iteration_block, {"step": spec.step_size})

    cluster = NimbusCluster(workers, program, registry=app.registry,
                            seed=seed)
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


def test_relocation_patches_are_freed_once_drained(patch_runs):
    """After the run drains, each worker holds exactly the patches the
    controller's cache holds for it; every relocation patch is gone, with
    its pooled frames, seams and tracker entries (pre-change each worker
    kept every relocation patch it was ever sent)."""
    cluster = _migrating_lr()
    assert cluster.metrics.count("relocation_copies") > 0
    cached = set().union(*(_cached_on(cluster, w)
                           for w in cluster.workers.values()))
    relocations = [run for run in patch_runs if run[1] not in cached]
    assert relocations
    for worker in cluster.workers.values():
        assert not worker._pending
        assert set(worker._patches) == _cached_on(cluster, worker)
        assert not worker._retire_at
    for worker, _pid, plan, base in relocations:
        assert plan.pool is None  # retired: no pooled frame left
        assert plan not in _reachable_plans(worker)
        assert not any(base <= cid < base + plan.m
                       for cid in _tracker_cids(worker))


def _two_transition_app(rounds=12, num_workers=4, ppw=2):
    """Produce, then one of two consumers reading the produced data one
    or two workers ahead: two block transitions, each needing a patch."""
    app = RotationApp(RotationSpec(num_workers=num_workers,
                                   partitions_per_worker=ppw))
    parts = app.spec.num_partitions
    far = app.variables.partitioned(
        "far", parts, 8, lambda p: (p // ppw + 2) % num_workers)
    consume_far = BlockSpec("rot.consume_far", [StageSpec("consume", [
        LogicalTask("rot.consume", read=(app.data[p],), write=(far[p],))
        for p in range(parts)])])

    def program(job):
        yield job.define(app.variables.definitions)
        for i in range(rounds):
            yield job.run(app.produce_block)
            yield job.run(consume_far if i % 2 else app.consume_block)
    return app, program


def test_an_evicted_patch_is_freed_on_its_workers(patch_runs):
    """With a one-entry patch cache and two alternating transitions every
    patch is evicted by the next: once drained no worker holds more live
    patch bodies than the cache holds, and the results are those of a
    cache that never evicts."""
    app, program = _two_transition_app()
    runs = {}
    for cap in (1, 256):
        cluster = NimbusCluster(4, program, registry=app.registry,
                                patch_cache_cap=cap)
        cluster.run_until_finished(max_seconds=1e6)
        runs[cap] = cluster
    tight = runs[1]
    assert tight.metrics.count("patch_cache.evictions") > 0
    assert len({pid for _w, pid, _p, _b in patch_runs}) > 4
    for worker in tight.workers.values():
        assert len(worker._patches) <= 1 and not worker._retire_at
        assert set(worker._patches) == _cached_on(tight, worker)
    assert computed_values(tight) == computed_values(runs[256])


def test_a_replaced_patch_is_freed_on_its_workers(monkeypatch):
    """Moving a produce task moves the source of the cached rotation
    patch, so the next consume misses and its new patch replaces the old
    one under the same key: the workers free the old one."""
    replaced = []
    store = PatchCache.store

    def recording(self, prev_key, target_key, patch):
        old = self._cache.get((prev_key, target_key))
        if old is not None:
            replaced.append(old.patch_id)
        store(self, prev_key, target_key, patch)
    monkeypatch.setattr(PatchCache, "store", recording)
    app = RotationApp(RotationSpec(num_workers=4))

    def program(job):
        yield job.define(app.variables.definitions)
        for i in range(14):
            if i in (6, 9):
                cluster.controller.deliver(P.ManagerDirective(
                    lambda ctrl, i=i: ctrl.migrate_tasks(
                        "rot.produce", [(i, (i + 2) % 4)])))
            yield job.run(app.produce_block)
            yield job.run(app.consume_block)

    cluster = NimbusCluster(4, program, registry=app.registry)
    cluster.run_until_finished(max_seconds=1e6)
    assert replaced
    for worker in cluster.workers.values():
        assert set(worker._patches) == _cached_on(cluster, worker)
        assert not set(worker._patches) & set(replaced)


def test_a_patch_retired_in_flight_still_runs_its_last_instance():
    """The controller retires a patch as it leaves the cache, possibly
    while the patch's install or last invocation is still on its way (the
    retirement is a host-side call): that instance still runs, the patch
    goes once it has drained, and anything later is stale."""
    cluster = NimbusCluster(1, program=None)
    w = cluster.workers[0]
    m = cluster.metrics

    def recv(oid, pid, base, instance_id):
        return P.InstallPatch(pid, [RecvEntry(0, (oid,), src_worker=0)],
                              base, instance_id)

    def data(instance_id, oid):
        w.handle(P.DataMessage((instance_id, 0, 0), oid, None, 8))

    # an eviction while the last invocation is in flight
    w.handle(recv(1, 9, 100, 5))
    data(5, 1)
    assert set(w._patches) == {9} and not w._pending
    w.retire_patch(9, 6)
    assert set(w._patches) == {9}  # instance 6 has yet to arrive
    w.handle(P.InstantiatePatch(9, 200, 6))
    assert w._pending and set(w._patches) == {9}  # it runs
    stale = m.count("protocol.stale_discards")
    w.handle(P.InstantiatePatch(9, 250, 7))  # past the last instance
    assert m.count("protocol.stale_discards") == stale + 1
    data(6, 1)
    assert not w._patches and not w._retire_at and not w._pending
    # a one-shot patch retired before its install arrived
    w.retire_patch(10, 7)
    w.handle(recv(2, 10, 300, 7))
    assert set(w._patches) == {10}
    data(7, 2)
    assert not w._patches and not w._retire_at
    stale = m.count("protocol.stale_discards")
    for msg in (P.InstantiatePatch(9, 400, 8), recv(1, 9, 500, 9),
                recv(2, 10, 600, 10), P.InstantiatePatch(10, 700, 11)):
        w.handle(msg)
    assert m.count("protocol.stale_discards") == stale + 4
    assert not w._pending and not w._patches


def _entries(obj):
    """Entries of each container ``obj`` holds, one nesting level deep
    (a dict of sets counts its keys and their members)."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, (dict, set, list, deque)):
            nested = value.values() if isinstance(value, dict) else ()
            out[name] = len(value) + sum(
                len(v) for v in nested if isinstance(v, (dict, set, list)))
    return out


def _structure_counts(cluster):
    """Per worker: the entries of every container it and its tracker
    hold (redelivery guards, patches, seams, tracker maps ...), its plans
    and their pooled frames; per job the controller's skipped request
    ids — counts, not bytes."""
    counts = {}
    for wid, w in cluster.workers.items():
        plans = {half._plan for half in w._templates.values()}
        plans.update(live[0] for live in w._patches.values())
        plans.discard(None)
        counts[wid] = (_entries(w), _entries(w.tracker), len(plans),
                       sum(len(p.pool or ()) for p in plans))
    counts["requests"] = [len(ctx.skipped_requests)
                          for ctx in cluster.controller.jobs.values()]
    return counts


def _rotation(iterations):
    """A rotation run: a cached patch invoked once per round."""
    app = RotationApp(RotationSpec(num_workers=4, iterations=iterations))
    cluster = NimbusCluster(4, app.program(), registry=app.registry)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.metrics.count("patch_cache_hits") >= iterations - 4
    return cluster


@pytest.mark.parametrize("mode", ["centralized", "decentralized", "sharded"])
def test_worker_state_does_not_grow_with_iterations(mode):
    """40 and 160 steady LR iterations on 10 workers end with equal
    worker-side structure counts (pre-change each worker added a guard
    entry per instance it ran)."""
    ends = [_structure_counts(run_lr(workers=10, iterations=iterations,
                                     mode=mode))
            for iterations in (40, 160)]
    assert ends[0] == ends[1], ends


def _evicting(rounds):
    """A two-transition run with a one-entry patch cache: a new patch
    installed every round."""
    app, program = _two_transition_app(rounds)
    cluster = NimbusCluster(4, program, registry=app.registry,
                            patch_cache_cap=1)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.metrics.count("patches_computed") >= rounds - 6
    return cluster


@pytest.mark.parametrize("run, rounds", [(_rotation, (10, 40)),
                                          (_evicting, (12, 48))],
                         ids=["invocations", "installs"])
def test_patch_guards_do_not_grow_with_patches(run, rounds):
    """Rotation rounds invoking the cached patch, or rounds each
    installing a fresh patch, end with equal worker-side structure counts
    at 4x the rounds (pre-change each patch kept the id of every instance
    it ran, and each patch id installed stayed as a tombstone)."""
    short, long = (_structure_counts(run(n)) for n in rounds)
    assert short == long


def test_recovery_retires_every_cached_patch():
    """A worker crash mid-rotation: the recovery invalidates the patch
    cache, so the survivors free every patch cached before the halt once
    its frames are gone, and keep only what the cache holds after it."""
    app = RotationApp(RotationSpec(num_workers=4, iterations=14))
    box, rounds = {}, app.program()

    def program(job):
        gen, value, n = rounds(job), None, 0
        while True:
            try:
                item = gen.send(value)
            except StopIteration:
                return
            n += 1
            if n == 14 and not box["cluster"].workers[3]._dead:
                box["cluster"].workers[3].fail()
            value = yield item

    cluster = box["cluster"] = NimbusCluster(
        4, program, registry=app.registry, checkpoint_every=3,
        heartbeat_timeout=0.5)
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.metrics.count("recoveries_completed") == 1
    computed = cluster.metrics.count("patches_computed")
    for wid in range(3):
        w = cluster.workers[wid]
        assert set(w._patches) == _cached_on(cluster, w)
        assert not w._retire_at and w._patch_mark == computed


def _redeliver(cluster, worker, seen):
    """Hand ``worker`` each recorded message again: each adds one stale
    discard and runs nothing."""
    executed, compiled = worker.tasks_executed, worker.plans_compiled
    stale = cluster.metrics.count("protocol.stale_discards")
    marks = {job: dict(m) for job, m in worker._instance_marks.items()}
    for msg in seen:
        worker.handle(msg)
    assert cluster.metrics.count("protocol.stale_discards") == (
        stale + len(seen))
    assert not worker._pending
    assert (worker.tasks_executed, worker.plans_compiled) == (
        executed, compiled)
    assert worker._instance_marks == marks


def test_redelivery_to_a_live_job_is_stale_and_runs_nothing(monkeypatch):
    """A redelivered instantiation, patch install or patch invocation of a
    job still running is answered by the watermarks alone."""
    seen = []
    app = RotationApp(RotationSpec(num_workers=4, iterations=6))
    for name in ("_on_instantiate_template", "_on_install_patch",
                 "_on_instantiate_patch"):
        def recording(self, msg, _handler=getattr(Worker, name)):
            if self.worker_id == 1:
                seen.append(msg)
            _handler(self, msg)
        monkeypatch.setattr(Worker, name, recording)
    cluster = NimbusCluster(4, app.program(), registry=app.registry)
    cluster.run_until_finished(max_seconds=1e6)
    monkeypatch.undo()
    assert {type(msg) for msg in seen} == {
        P.InstantiateWorkerTemplate, P.InstallPatch, P.InstantiatePatch}
    w = cluster.workers[1]
    assert 0 in w._instance_marks and w._patches  # the job is live
    _redeliver(cluster, w, seen)


def test_a_regranted_window_instance_is_stale_and_runs_nothing(monkeypatch):
    """Re-granting a worker the instances of its windows under fresh
    window ids (so not a redelivered grant) skips each instance as stale
    and runs nothing."""
    windows = []
    grant = Worker._on_self_schedule

    def recording(self, msg):
        if self.worker_id == 0:
            windows.append(msg)
        grant(self, msg)
    monkeypatch.setattr(Worker, "_on_self_schedule", recording)
    cluster = run_lr(workers=4, iterations=12, mode="decentralized")
    monkeypatch.undo()
    w = cluster.workers[0]
    assert windows and w._instance_marks[0]
    regrants = [P.SelfScheduleWindow(
        10 ** 6 + k, msg.block_id, msg.version, w._pm_epoch, msg.instances,
        job_id=msg.job_id) for k, msg in enumerate(windows)]
    instances = sum(len(msg.instances) for msg in windows)
    executed, compiled = w.tasks_executed, w.plans_compiled
    stale = cluster.metrics.count("protocol.stale_discards")
    for msg in regrants:
        w.handle(msg)
    assert cluster.metrics.count("protocol.stale_discards") == (
        stale + instances)
    assert not w._pending and not w._grants
    assert (w.tasks_executed, w.plans_compiled) == (executed, compiled)


def test_request_guard_is_exact_in_any_order():
    """Every id is taken once whatever the arrival order, and the skipped
    set drains once the overtaken ids arrive."""
    rng = random.Random(7)
    ids = list(range(1, 200))
    rng.shuffle(ids)
    ctx = JobContext(3)
    assert all(ctx.take_request(i) for i in ids)
    assert not any(ctx.take_request(i) for i in ids)
    assert ctx.last_request == 199 and not ctx.skipped_requests


def test_a_window_waits_behind_the_backlog(monkeypatch):
    """A block submitted while the driver's backlog is full waits there,
    and the installed blocks posted after it queue behind it instead of
    leaving as a window: every mode sends the job's requests in program
    order and computes the centralized mode's value (a window that went
    ahead of the backlog once left x = 5 against 16 869)."""
    a = BlockSpec("A", [StageSpec("s", [
        LogicalTask("combine", read=(1,), write=(1,))])])
    b = BlockSpec("B", [StageSpec("s", [
        LogicalTask("seed", read=(), write=(1,), param_slot="v")])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8)}))
        for _ in range(11):
            job.post(a)
        job.post(b, {"v": 5})  # backlogged: 12 requests outstanding
        for _ in range(32):
            job.post(a)  # a full window's worth, queued behind b
        yield job.drain()

    values, orders = {}, {}
    take = JobContext.take_request

    def recording(ctx, request_id):
        orders[mode].append(request_id)
        return take(ctx, request_id)
    monkeypatch.setattr(JobContext, "take_request", recording)
    for mode in ("centralized", "decentralized", "sharded"):
        orders[mode] = []
        cluster = NimbusCluster(2, program, registry=combine_registry(),
                                mode=mode)
        cluster.run_until_finished(max_seconds=1e6)
        assert not cluster.controller.jobs[0].skipped_requests
        values[mode] = computed_values(cluster)
    assert values["decentralized"] == values["centralized"]
    assert values["sharded"] == values["centralized"]
    for mode, order in orders.items():
        assert order == list(range(1, 45)), mode

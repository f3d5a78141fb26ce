"""Multi-tenant serving: cross-job isolation, admission, and fair share.

The load-bearing property (ROADMAP item 1's acceptance bar): a job
co-scheduled with strangers computes **bit-identical values** to the same
job running alone — across a 10-seed sweep, under chaos fault plans, with
the adaptive rebalancer enabled, and behind the controller's fair-share
dispatch cap. Timing observables (virtual end time, event counts) are
*expected* to differ under contention; the isolation contract is about
what each job computes, never when.

Alongside the property sweeps: admission-control lifecycle (descriptive
queue-overflow rejection; a cancelled job releases its namespace and
never stalls the others) and per-job observability (metrics streams
round-trip through JSON, never leak across jobs, and match a golden
snapshot).
"""

import json
import os
import random

import numpy as np
import pytest

from repro.apps import LRApp, LRSpec
from repro.baselines import SparkCluster
from repro.chaos import FaultPlan
from repro.nimbus import (
    OID_STRIDE,
    FairShareQueue,
    JobRejected,
    NimbusCluster,
)
from repro.apps.scenarios import JOB_MIX, run_job_arrival

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SNAPSHOT = os.path.join(DATA_DIR, "golden_multijob_metrics.json")

SEEDS = range(10)
#: the second tenant runs fewer iterations so the pair is asymmetric
#: (different lifetimes, different result histories)
SHORT_ITERS = 3


def small_lr_app(seed=0, workers=3, iterations=5):
    """A real-compute fig07 job small enough for 10-seed co-run sweeps.

    ``real_compute=True`` is the point: isolation must hold for the
    actual numpy values each job computes, not just for virtual timings.
    """
    spec = LRSpec(num_workers=workers, iterations=iterations,
                  partitions_per_worker=2, rows_per_partition=16,
                  dim=20, data_bytes=1e6, real_compute=True, seed=seed)
    return LRApp(spec)


def serve_cluster(app, seed=0, chaos_profile=None, chaos_seed=0,
                  **cluster_kwargs):
    """A serve-mode cluster (no resident program; jobs arrive via the
    JobManager) sized to the app's spec."""
    plan = (None if chaos_profile is None
            else FaultPlan.from_profile(chaos_profile, seed=chaos_seed))
    return NimbusCluster(app.spec.num_workers, program=None,
                         registry=app.registry, seed=seed, chaos_plan=plan,
                         **cluster_kwargs)


def canon(value):
    """Hashable bit-exact form of a task result (arrays by raw bytes)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def job_observables(cluster, job_id, app):
    """Everything a job *computed*: block-return history plus the final
    value of every object it defined, keyed by job-local oid. Excludes
    all timing (co-scheduling legitimately changes when things happen)."""
    ctx = cluster.controller.jobs[job_id]
    values = {}
    for oid, _name, _part, _size, _home in app.variables.definitions:
        goid = ctx.goid(oid)
        holders = ctx.directory.holders_of_latest(goid)
        assert holders, f"job {job_id}: object {oid} has no latest holder"
        values[oid] = canon(cluster.workers[min(holders)].store.get(goid))
    history = tuple(
        (block_id, tuple(sorted((k, canon(v)) for k, v in results.items())))
        for block_id, results in ctx.results_history
    )
    return history, values


def run_solo(app, iterations=None, seed=0, chaos_profile=None,
             chaos_seed=0, **cluster_kwargs):
    """The reference: the same job admitted alone through the JobManager."""
    cluster = serve_cluster(app, seed=seed, chaos_profile=chaos_profile,
                            chaos_seed=chaos_seed, **cluster_kwargs)
    record = cluster.jobs.submit(
        app.program(blocking=False, iterations=iterations))
    cluster.run_until_jobs_finished(max_seconds=1e6)
    return job_observables(cluster, record.job_id, app)


def run_pair(app, seed=0, chaos_profile=None, chaos_seed=0,
             weights=(1.0, 1.0), **cluster_kwargs):
    """Two co-scheduled tenants of the same app (asymmetric lifetimes)."""
    cluster = serve_cluster(app, seed=seed, chaos_profile=chaos_profile,
                            chaos_seed=chaos_seed, **cluster_kwargs)
    a = cluster.jobs.submit(app.program(blocking=False), weight=weights[0])
    b = cluster.jobs.submit(app.program(blocking=False,
                                        iterations=SHORT_ITERS),
                            weight=weights[1])
    cluster.run_until_jobs_finished(max_seconds=1e6)
    return (job_observables(cluster, a.job_id, app),
            job_observables(cluster, b.job_id, app))


# ---------------------------------------------------------------------------
# The isolation property: co-scheduled values == solo values, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_cojob_values_bit_identical_to_solo(seed):
    app = small_lr_app(seed=seed)
    solo_a = run_solo(app, seed=seed)
    solo_b = run_solo(app, iterations=SHORT_ITERS, seed=seed)
    co_a, co_b = run_pair(app, seed=seed)
    assert co_a == solo_a, f"seed {seed}: co-scheduling changed job A"
    assert co_b == solo_b, f"seed {seed}: co-scheduling changed job B"


@pytest.mark.parametrize("seed", SEEDS)
def test_cojob_isolation_holds_under_chaos(seed):
    """Chaos co-runs compare against *fault-free* solo runs: the hardened
    protocol makes faults invisible to values, tenants or not."""
    app = small_lr_app(seed=seed)
    solo_a = run_solo(app, seed=seed)
    solo_b = run_solo(app, iterations=SHORT_ITERS, seed=seed)
    co_a, co_b = run_pair(app, seed=seed, chaos_profile="lossy",
                          chaos_seed=seed)
    assert co_a == solo_a, f"seed {seed}: chaos co-run changed job A"
    assert co_b == solo_b, f"seed {seed}: chaos co-run changed job B"


@pytest.mark.parametrize("seed", SEEDS)
def test_cojob_isolation_holds_with_rebalancer_on(seed):
    app = small_lr_app(seed=seed)
    solo_a = run_solo(app, seed=seed)
    solo_b = run_solo(app, iterations=SHORT_ITERS, seed=seed)
    co_a, co_b = run_pair(app, seed=seed, rebalance=True)
    assert co_a == solo_a, f"seed {seed}: rebalancer co-run changed job A"
    assert co_b == solo_b, f"seed {seed}: rebalancer co-run changed job B"


def test_cojob_isolation_holds_behind_dispatch_cap_and_weights():
    """Fair-share queueing (cap 1 forces every block through the stride
    scheduler, 3:1 weights skew the order) must reorder *time*, not
    values."""
    app = small_lr_app()
    solo_a = run_solo(app)
    solo_b = run_solo(app, iterations=SHORT_ITERS)
    co_a, co_b = run_pair(app, weights=(1.0, 3.0), dispatch_inflight_cap=1)
    assert co_a == solo_a
    assert co_b == solo_b


# ---------------------------------------------------------------------------
# Fair-share queue semantics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("submit", ["submit_job", "submit_at"])
@pytest.mark.parametrize("cluster_cls", [NimbusCluster, SparkCluster])
def test_served_jobs_take_the_clusters_use_templates(cluster_cls, submit):
    """A served job runs with the cluster's ``use_templates`` whichever
    way it arrives (Spark has no templates; this Nimbus turns them off)."""
    app = small_lr_app()
    kwargs = {"use_templates": False} if cluster_cls is NimbusCluster else {}
    cluster = cluster_cls(app.spec.num_workers, program=None,
                          registry=app.registry, **kwargs)
    program = app.program(blocking=False)
    if submit == "submit_job":
        cluster.submit_job(program)
    else:
        cluster.jobs.submit_at(0.0, program)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    record = cluster.jobs.records[1]
    assert record.state == "finished"
    assert record.use_templates is False
    assert record.metrics.count("template_instantiations") == 0
    assert record.metrics.count("controller_templates_installed") == 0


def test_fair_share_queue_serves_weighted_order():
    q = FairShareQueue()
    for i in range(3):
        q.push(1, 1.0, f"a{i}")
        q.push(2, 2.0, f"b{i}")
    order = [q.pop()[1] for _ in range(len(q))]
    # job 2 (double weight) gets two dequeues per job-1 dequeue; ties on
    # virtual time break toward the lower job id
    assert order == ["a0", "b0", "b1", "a1", "b2", "a2"]


def test_fair_share_queue_drop_job_discards_backlog():
    q = FairShareQueue()
    q.push(1, 1.0, "a0")
    q.push(2, 1.0, "b0")
    q.push(2, 1.0, "b1")
    assert q.drop_job(2) == 2
    assert len(q) == 1
    assert q.pop() == (1, "a0")
    assert not q
    with pytest.raises(IndexError):
        q.pop()


# ---------------------------------------------------------------------------
# Admission control and lifecycle
# ---------------------------------------------------------------------------
def test_admission_overflow_is_rejected_descriptively():
    app = small_lr_app()
    cluster = serve_cluster(app, max_concurrent_jobs=1, job_queue_cap=1)
    cluster.jobs.submit(app.program(blocking=False))
    cluster.jobs.submit(app.program(blocking=False))  # waits behind the cap
    with pytest.raises(JobRejected,
                       match=r"1 jobs running \(cap 1\) and the wait queue "
                             r"is full \(1/1\)"):
        cluster.jobs.submit(app.program(blocking=False))
    assert cluster.metrics.count("jobs_rejected") == 1
    assert len(cluster.jobs.rejections) == 1
    # the rejection harmed nobody: both accepted jobs run to completion
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert cluster.metrics.count("jobs_finished") == 2


def test_cancelled_job_releases_namespace_and_never_stalls_others():
    app = small_lr_app()
    solo_b = run_solo(app)
    cluster = serve_cluster(app)
    a = cluster.jobs.submit(app.program(blocking=False))
    b = cluster.jobs.submit(app.program(blocking=False))
    # tear job A down mid-run, well after its objects and templates exist
    cluster.sim.schedule_at(0.004, lambda: cluster.jobs.cancel(a.job_id))
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert cluster.jobs.records[a.job_id].state == "cancelled"
    assert cluster.jobs.records[b.job_id].state == "finished"
    # the survivor's values are untouched by its neighbor's demise
    assert job_observables(cluster, b.job_id, app) == solo_b
    # A's namespace is gone from the controller...
    assert a.job_id not in cluster.controller.jobs
    # ...and its objects are gone from every worker store
    lo, hi = a.job_id * OID_STRIDE, (a.job_id + 1) * OID_STRIDE
    leaked = {worker_id: [oid for oid in worker.store.live_objects()
                          if lo <= oid < hi]
              for worker_id, worker in cluster.workers.items()}
    assert not any(leaked.values()), f"cancelled job left objects: {leaked}"


def test_queued_job_admitted_after_a_cancellation():
    app = small_lr_app()
    cluster = serve_cluster(app, max_concurrent_jobs=1, job_queue_cap=2)
    a = cluster.jobs.submit(app.program(blocking=False))
    b = cluster.jobs.submit(app.program(blocking=False,
                                        iterations=SHORT_ITERS))
    assert cluster.jobs.records[b.job_id].state == "queued"
    cluster.jobs.cancel(a.job_id)
    assert cluster.jobs.records[b.job_id].state == "running"
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert cluster.jobs.records[b.job_id].state == "finished"


def test_cancelling_an_ended_job_changes_nothing():
    """``cancel`` on a job that already finished, or was already
    cancelled, leaves its record and the cluster's counters as they are —
    pre-fix it rewrote a finished job as cancelled at the current time
    (stretching its latency) and counted one more cancellation per call."""
    app = small_lr_app()
    cluster = serve_cluster(app)
    a = cluster.jobs.submit(app.program(blocking=False,
                                        iterations=SHORT_ITERS))
    b = cluster.jobs.submit(app.program(blocking=False))
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert a.state == b.state == "finished" and a.finish_time < b.finish_time
    latency = a.latency
    cancelled = cluster.metrics.count("jobs_cancelled")
    for _ in range(2):
        cluster.jobs.cancel(a.job_id)
    assert a.state == "finished" and a.latency == latency
    assert cluster.metrics.count("jobs_cancelled") == cancelled

    queued = serve_cluster(app, max_concurrent_jobs=1, job_queue_cap=2)
    queued.jobs.submit(app.program(blocking=False, iterations=SHORT_ITERS))
    c = queued.jobs.submit(app.program(blocking=False))
    queued.jobs.cancel(c.job_id)
    ended = c.finish_time
    queued.run_until_jobs_finished(max_seconds=1e6)
    queued.jobs.cancel(c.job_id)
    assert c.state == "cancelled" and c.finish_time == ended
    assert queued.metrics.count("jobs_cancelled") == 1


# ---------------------------------------------------------------------------
# A finished tenant leaves the scheduling surface and keeps only its data
# and its record (DESIGN.md §12)
# ---------------------------------------------------------------------------
def _plan_job(plan):
    """The job a compiled plan runs for, by its first entry's object."""
    entry = plan.live[0]
    return (entry.write or entry.read)[0] // OID_STRIDE


def _held_of(worker, job_id):
    """Everything ``worker`` still holds of ``job_id``, by structure."""
    halves = [half for key, half in worker._templates.items()
              if key[0] == job_id]
    tracker = worker.tracker
    reachable = {plan for pair in worker._seams for plan in pair}
    reachable.update(tracker._prune_in, (p for p, _b, _r in tracker._chain))
    reachable.update(half._plan for half in halves)
    reachable.update(live[0] for live in worker._patches.values())
    if tracker.tail is not None:
        reachable.add(tracker.tail.plan)
    plans = {plan for plan in reachable
             if plan is not None and plan.m and _plan_job(plan) == job_id}
    return {
        "halves": len(halves),
        "instance_marks": len(worker._instance_marks.get(job_id, ())),
        "plans": sum(half._plan is not None for half in halves),
        "frames": sum(len(plan.pool or ()) for plan in plans),
        "seams": sum(a in plans or b in plans for a, b in worker._seams),
        "prune_in": sum(plan in plans for plan in tracker._prune_in),
        "patch_bodies": sum(live[0] in plans
                            for live in worker._patches.values()),
        "tracker": sum(oid // OID_STRIDE == job_id
                       for entries in (tracker._last_writer,
                                       tracker._readers_since)
                       for oid in entries),
    }


def _template_side(ctx):
    """The template-side state a job context holds, by structure."""
    return {
        "templates": len(ctx.templates),
        "phases": len(ctx.phase) + len(ctx.current_version),
        "template_sets": len(ctx.worker_templates),
        "assignments": len(ctx.assignments),
        "pending_edits": len(ctx.pending_edits) + len(ctx.divergent_wts),
        "validation_state": ctx.validation_state.last_key is not None,
        "patch_entries": len(ctx.patch_cache),
    }


def _structure_counts(cluster):
    """Per worker: plans held, their pooled frames, seams, tracker
    entries, halves and redelivery guards; on the controller: templates,
    template sets, cached patches and the template deltas finished jobs'
    directories still record — counts, not bytes."""
    counts = {}
    for wid, worker in cluster.workers.items():
        plans = {half._plan for half in worker._templates.values()}
        plans.update(live[0] for live in worker._patches.values())
        plans.discard(None)
        stats = worker.tracker.stats()
        counts[wid] = (len(plans), sum(len(p.pool or ()) for p in plans),
                       len(worker._seams), stats["writers"],
                       stats["reader_lists"], stats["plans"],
                       len(worker._templates), len(worker._patches),
                       len(worker._retire_at),
                       sum(map(len, worker._instance_marks.values())))
    contexts = cluster.controller.jobs.values()
    counts["controller"] = {
        name: sum(len(getattr(ctx, name)) for ctx in contexts)
        for name in ("templates", "worker_templates", "patch_cache")}
    counts["controller"]["finished_deltas"] = sum(
        len(ctx.directory._deferred) for ctx in contexts if ctx.finished)
    return counts


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_finished_tenants_leave_only_their_data(mode):
    """After a served run a finished job keeps no controller template,
    template set, assignment, queued edit, live validation state or cached
    patch, and no worker keeps its half, plan, pooled frame, seam, prune
    countdown, live patch body, tracker entry or redelivery guard — the
    per-worker finished marker answers instead. Its data and its record
    stay: directory, placement, store objects, results and metrics."""
    from repro.apps.scenarios import build_job_arrival

    cluster, _names = build_job_arrival(num_workers=4, num_jobs=4, mode=mode)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    records = cluster.jobs.records.values()
    assert all(r.state == "finished" for r in records)
    assert any(w._patch_mark > 0 for w in cluster.workers.values())
    # the finish folded each directory's recorded deltas
    assert _structure_counts(cluster)["controller"]["finished_deltas"] == 0
    for record in records:
        job_id = record.job_id
        ctx = cluster.controller.jobs[job_id]
        assert ctx.finished
        kept = {k: n for k, n in _template_side(ctx).items() if n}
        assert not kept, (job_id, kept)
        held = {wid: _held_of(worker, job_id)
                for wid, worker in cluster.workers.items()}
        leftover = {wid: {k: n for k, n in h.items() if n}
                    for wid, h in held.items()}
        assert not any(leftover.values()), (job_id, leftover)
        assert all(job_id in w._finished_jobs
                   for w in cluster.workers.values())
        # what stays: the data and the record
        assert ctx.results_history and ctx.placement is not None
        assert any(o.oid // OID_STRIDE == job_id
                   for o in ctx.directory.objects())
        assert any(oid // OID_STRIDE == job_id
                   for w in cluster.workers.values()
                   for oid in w.store.live_objects())
        assert record.metrics.count("template_instantiations")
    # every tenant finished: no patch or guard entry of any job is left
    assert not any(w._patches or w._retire_at or w._instance_marks
                   for w in cluster.workers.values())


def test_worker_state_does_not_grow_with_jobs_served():
    """A 3-job and a 6-job serve run end with equal worker and controller
    structure counts: what the cluster holds is bounded by the tenants it
    is serving, not by the tenants it has served."""
    from repro.apps.scenarios import build_job_arrival

    ends = []
    for jobs in (3, 6):
        cluster, _names = build_job_arrival(num_workers=4, num_jobs=jobs)
        cluster.run_until_jobs_finished(max_seconds=1e6)
        ends.append(_structure_counts(cluster))
    assert ends[0] == ends[1], ends


def test_finished_tenant_is_off_the_scheduling_surface():
    """After tenant A finished, a spread onto a joined worker and an
    eviction leave A's templates alone: no edit, reassignment or
    regeneration of A. The eviction still relocates A's objects, and
    both tenants compute what they compute alone. Pre-fix the spread
    edited the dead tenant's templates and the eviction regenerated
    them, spending controller time on a job that never runs again.
    Once the relocation has drained, no worker keeps anything of A's
    relocation patch: no body, pooled frame or tracker entry (pre-fix
    each receiving worker kept them until a release that never came)."""
    app = small_lr_app()
    solo_a = run_solo(app, iterations=SHORT_ITERS)
    solo_b = run_solo(app, iterations=40)
    cluster = serve_cluster(app, autoscale=True, autoscale_cold_start=0.0)
    a = cluster.jobs.submit(app.program(blocking=False,
                                        iterations=SHORT_ITERS))
    b = cluster.jobs.submit(app.program(blocking=False, iterations=40))
    while a.state != "finished":
        assert cluster.sim.step()
    assert b.state == "running"
    counted = ("edits_applied", "migrations_reassigned",
               "worker_template_regenerations")

    def counts(record):
        return [record.metrics.count(name) for name in counted]

    at_finish, b_before = counts(a), counts(b)
    scaler, ctrl = cluster.autoscaler, cluster.controller
    scaler._scale_up(1)  # joins after a zero cold start, then spreads
    while not any(d["action"] == "spread" for d in scaler.decisions):
        assert cluster.sim.step()
    assert b.state == "running" and counts(b) != b_before  # B did move
    assert counts(a) == at_finish
    copies = a.metrics.count("relocation_copies")
    ctrl.membership.evict_workers([0])
    assert counts(a) == at_finish
    assert a.metrics.count("relocation_copies") > copies  # A's data moved
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert counts(a) == at_finish
    held = {wid: {k: n for k, n in _held_of(worker, a.job_id).items() if n}
            for wid, worker in cluster.workers.items()}
    assert not any(held.values()), held
    assert job_observables(cluster, a.job_id, app) == solo_a
    assert job_observables(cluster, b.job_id, app) == solo_b


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_a_program_ending_in_posts_finishes_once_drained(mode):
    """A program that returns right after ``job.post`` finishes only when
    its last posted block has completed: the finish frees the job's
    templates and guards, so work still in flight would find them gone.
    Co-scheduled with a longer tenant, it computes what it computes
    alone (whose program ends in a drain)."""
    app = small_lr_app()
    iters = 6

    def posting(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for _ in range(iters):
            job.post(app.iteration_block, {"step": app.spec.step_size})

    solo = run_solo(app, iterations=iters, mode=mode)
    solo_b = run_solo(app, iterations=12, mode=mode)
    cluster = serve_cluster(app, mode=mode)
    a = cluster.jobs.submit(posting)
    b = cluster.jobs.submit(app.program(blocking=False, iterations=12))
    while a.state != "finished":
        assert cluster.sim.step()
    assert b.state == "running" and a.driver._outstanding == 0
    assert a.finish_time >= max(end for _r, _s, end in a.driver.iteration_log)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert job_observables(cluster, a.job_id, app) == solo
    assert job_observables(cluster, b.job_id, app) == solo_b


def test_migrating_a_finished_job_raises_before_any_change():
    """``migrate_tasks`` on a finished job names it as finished and
    changes nothing — pre-fix it edited the dead tenant's templates and
    bumped the partition-map epoch."""
    app = small_lr_app()
    cluster = serve_cluster(app)
    a = cluster.jobs.submit(app.program(blocking=False))
    cluster.run_until_jobs_finished(max_seconds=1e6)
    ctrl = cluster.controller
    epoch, edits = ctrl.pm_epoch, a.metrics.count("edits_applied")
    with pytest.raises(KeyError, match=f"job {a.job_id} has finished"):
        ctrl.migrate_tasks("lr.iteration", [(0, 1)], job_id=a.job_id)
    assert ctrl.pm_epoch == epoch
    assert a.metrics.count("edits_applied") == edits


def test_redelivery_to_a_finished_job_is_stale_and_runs_nothing(monkeypatch):
    """A redelivered install, instantiation or patch invocation of a
    finished job is discarded as stale once its guards are gone: no half
    comes back, no command runs. Releasing the finished job afterwards
    still destroys its objects."""
    from repro.apps.scenarios import build_job_arrival
    from repro.nimbus import protocol as P
    from repro.nimbus.worker import Worker

    seen = []
    for name in ("_on_install_template", "_on_instantiate_template",
                 "_on_instantiate_patch"):
        def recording(self, msg, _handler=getattr(Worker, name)):
            if self.worker_id == 0:
                seen.append(msg)
            _handler(self, msg)
        monkeypatch.setattr(Worker, name, recording)
    cluster, _names = build_job_arrival(num_workers=4, num_jobs=4)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    monkeypatch.undo()
    kinds = {type(msg) for msg in seen}
    assert kinds == {P.InstallWorkerTemplate, P.InstantiateWorkerTemplate,
                     P.InstantiatePatch}, kinds
    w = cluster.workers[0]
    executed, compiled = w.tasks_executed, w.plans_compiled
    stale = cluster.metrics.count("protocol.stale_discards")
    for msg in seen:
        w.handle(msg)
    assert cluster.metrics.count("protocol.stale_discards") == (
        stale + len(seen))
    assert not w._pending and not w._templates and not w._instance_marks
    assert (w.tasks_executed, w.plans_compiled) == (executed, compiled)

    job_id = max(cluster.jobs.records)
    owned = [oid for worker in cluster.workers.values()
             for oid in worker.store.live_objects()
             if oid // OID_STRIDE == job_id]
    assert owned
    cluster.controller.deliver(P.ManagerDirective(
        lambda ctrl: ctrl.release_job(job_id)))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert not any(oid // OID_STRIDE == job_id
                   for worker in cluster.workers.values()
                   for oid in worker.store.live_objects())


def test_rebalancer_forgets_finished_tenants():
    """The rebalancer's per-(job, block) trackers, cooldowns and reverse
    location maps go at a tenant's finish, not never."""
    app = small_lr_app()
    cluster = serve_cluster(app, rebalance=True)
    a = cluster.jobs.submit(app.program(blocking=False, iterations=8))
    b = cluster.jobs.submit(app.program(blocking=False, iterations=16))
    rebalancer = cluster.rebalancer
    states = (rebalancer.trackers, rebalancer._cooldown_left,
              rebalancer._locations_rev)

    def keys_of(job_id):
        return [key for state in states for key in state
                if key[0] == job_id]

    grew = False
    while a.state != "finished":
        grew = grew or bool(keys_of(a.job_id))
        assert cluster.sim.step()
    assert grew and not keys_of(a.job_id)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert b.state == "finished" and not any(states)


@pytest.mark.parametrize("kwargs, rejected, throughput, p95", [
    # a rejected arrival takes no job id, so ids and arrival indices part
    # ways after the first rejection
    (dict(num_workers=4, num_jobs=9, iterations=4, max_concurrent=1,
          queue_cap=1), 5, None, None),
    # the ``repro serve`` defaults (8 workers, 6 jobs): both serving
    # metrics are pure virtual-time quantities, pinned bit for bit
    ({}, 0, 3513.293707274314, 0.32154639526607737),
], ids=["rejections", "defaults"])
def test_job_arrival_reports_what_each_job_ran(kwargs, rejected, throughput,
                                               p95):
    """The mix cycles in *arrival* order, so the arrival schedule says
    what each admitted job ran; ``per_job`` must say the same."""
    result = run_job_arrival(seed=0, mean_interarrival=0.05, **kwargs)
    rng, arrival, scheduled = random.Random(0), 0.0, {}
    for i in range(result["jobs"]):
        arrival += rng.expovariate(1.0 / 0.05)
        scheduled[arrival] = JOB_MIX[i % len(JOB_MIX)]
    assert result["jobs_rejected"] == rejected
    assert result["jobs_finished"] == result["jobs"] - rejected
    assert len(result["per_job"]) == result["jobs_finished"]
    for row in result["per_job"]:
        assert row["workload"] == scheduled[row["submit_time"]], row
        assert row["tasks_scheduled"] > 0
    if throughput is not None:
        assert result["aggregate_task_throughput"] == throughput
        assert result["p95_job_latency"] == p95
        assert 0 < result["mean_job_latency"] <= p95


# ---------------------------------------------------------------------------
# Per-job observability: round-trip, no leakage, golden snapshot
# ---------------------------------------------------------------------------
def _virtual_pair_cluster():
    """A deterministic virtual-time co-run (spin-wait tasks, no numpy)
    used for the obs-stream assertions and the golden snapshot."""
    app = LRApp(LRSpec(num_workers=4, iterations=6,
                       partitions_per_worker=2))
    cluster = NimbusCluster(4, program=None, registry=app.registry)
    a = cluster.jobs.submit(app.program(blocking=False))
    b = cluster.jobs.submit(app.program(blocking=False, iterations=4),
                            weight=2.0)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    return cluster, a, b


def test_per_job_metrics_round_trip_without_cross_job_leakage():
    cluster, a, b = _virtual_pair_cluster()
    snap_a = a.metrics.counters_snapshot()
    snap_b = b.metrics.counters_snapshot()
    assert json.loads(json.dumps(snap_a)) == snap_a
    assert json.loads(json.dumps(snap_b)) == snap_b
    # each job's control-plane decisions land in its own stream...
    assert snap_a["tasks_scheduled"] > 0
    assert snap_b["tasks_scheduled"] > 0
    assert snap_a["template_instantiations"] > 0
    # ...sized to that job's own program (B ran fewer iterations)
    assert snap_b["tasks_scheduled"] < snap_a["tasks_scheduled"]
    # and none of it leaks into the shared job-0 stream, which carries
    # only cluster-wide facts (worker execution, admission events)
    assert cluster.metrics.count("tasks_scheduled") == 0
    assert cluster.metrics.count("template_instantiations") == 0
    assert cluster.metrics.count("tasks_executed") > 0
    assert cluster.metrics.count("jobs_admitted") == 2


def test_traced_corun_tags_every_run_with_its_job_id():
    app = LRApp(LRSpec(num_workers=4, iterations=4,
                       partitions_per_worker=2))
    cluster = NimbusCluster(4, program=None, registry=app.registry,
                            trace=True)
    a = cluster.jobs.submit(app.program(blocking=False))
    b = cluster.jobs.submit(app.program(blocking=False))
    cluster.run_until_jobs_finished(max_seconds=1e6)
    job_ids = {run.job_id for run in cluster.tracer.runs.values()}
    assert job_ids == {a.job_id, b.job_id}


def test_per_job_snapshots_match_golden():
    """The golden file pins the exact per-job counter streams of the
    deterministic co-run — any cross-job bleed, double-count, or dropped
    decision changes it."""
    cluster, a, b = _virtual_pair_cluster()
    actual = {
        "job_1": a.metrics.counters_snapshot(),
        "job_2": b.metrics.counters_snapshot(),
        "cluster": {
            name: cluster.metrics.count(name)
            for name in ("jobs_registered", "jobs_admitted",
                         "jobs_finished", "tasks_executed",
                         "tasks_scheduled")
        },
    }
    with open(GOLDEN_SNAPSHOT) as fh:
        expected = json.load(fh)
    assert actual == expected

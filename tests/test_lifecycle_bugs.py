"""Regression tests for dynamic-scheduling lifecycle bugs.

Three bugs found while closing the Fig. 9/10 loop, each with the failing
scenario it was found under:

1. **stale pending edits** — ``migrate_tasks`` queues worker-half edit
   ops that ship with the next instantiation; if an eviction (and its
   regeneration) landed first, the queued ops survived, and a later
   restore could resurrect the cached pre-edit worker halves while the
   controller half already contained the migration.
2. **eviction left stale replicas** — ``evict_workers`` re-homed objects
   without relocation copies, and left queued edit ops addressed to the
   evicted workers.
3. **bare KeyError** — ``migrate_tasks`` before worker templates exist
   crashed on an internal lookup instead of failing descriptively (no
   template at all) or falling back to a plain reassignment (template
   captured, worker halves not yet generated).

Plus the lifecycle bugs the elastic autoscaler (DESIGN.md §15) flushed
out: the load EWMA retained entries for departed workers and had no
arrival gating, and ``evict_workers`` could mutate state before
rejecting an impossible eviction.
"""

import pytest

from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.templates import PHASE_WT_GENERATED

from .helpers import (combine_registry, handled_by, simple_define,
                      stamped_ahead, worker_values)
from .test_dynamic import ACC, DATA, OUT, blocks, reference, run_with_directives


def run_two_directives(iterations, at1, d1, at2, d2, num_workers=2):
    """Like run_with_directives, but with two delivery points."""
    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    box = {}

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 3})
        for i in range(iterations):
            if i == at1:
                box["cluster"].controller.deliver(P.ManagerDirective(d1))
            if i == at2:
                box["cluster"].controller.deliver(P.ManagerDirective(d2))
            yield job.run(iter_block)

    cluster = NimbusCluster(num_workers, program, registry=combine_registry(),
                            use_templates=True)
    box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e5)
    return cluster


# ---------------------------------------------------------------------------
# Bug 1: pending edits must not survive regeneration / eviction / restore
# ---------------------------------------------------------------------------
def test_migrate_then_evict_then_restore_stays_consistent():
    state = {}

    def migrate_then_evict(controller):
        controller.edit_threshold = 0.5
        # queue worker-half edit ops (they ship on the *next* instantiation)
        assert controller.migrate_tasks("iter", [(0, 1)]) == "edits"
        assert controller.jobs[0].pending_edits
        state["placement"] = controller.membership.snapshot_placement(0)
        state["versions"] = controller.membership.snapshot_versions(0)
        # the eviction regenerates before the queued ops ever ship: they
        # must be dropped, along with the now-divergent cached version
        controller.membership.evict_workers([1])
        assert not controller.jobs[0].pending_edits
        assert ("iter", 0) not in controller.jobs[0].worker_templates

    def restore(controller):
        controller.membership.restore_workers(0, [1], state["placement"],
                                                 state["versions"])

    cluster = run_two_directives(12, 5, migrate_then_evict, 9, restore)
    expected = reference(12)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    controller = cluster.controller
    assert not controller.jobs[0].pending_edits
    # the restore could not reuse the invalidated version-0 cache: it
    # re-installed fresh templates instead of resurrecting stale halves
    assert controller.jobs[0].current_version["iter"] == 2
    # evict regenerated seed + iter; restore regenerated iter once more
    assert cluster.metrics.count("worker_template_regenerations") == 3


def test_restore_without_divergence_still_reuses_cache():
    """The bug-1 fix must not regress the happy path: a restore whose
    snapshot version was never edited reuses the cached templates."""
    state = {}

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement(0)
        state["versions"] = controller.membership.snapshot_versions(0)
        controller.membership.evict_workers([1])

    def restore(controller):
        controller.membership.restore_workers(0, [1], state["placement"],
                                                 state["versions"])

    cluster = run_two_directives(12, 5, evict, 9, restore)
    expected = reference(12)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    assert cluster.controller.jobs[0].current_version["iter"] == 0
    assert cluster.metrics.count("worker_template_regenerations") == 2


# ---------------------------------------------------------------------------
# Bug 2: eviction must relocate data and quiesce the evicted workers
# ---------------------------------------------------------------------------
def test_eviction_relocates_objects_and_quiesces_evicted_worker():
    sends = []

    def evict(controller):
        controller.edit_threshold = 0.5
        # queue edit ops addressed to worker 1, then evict it: the ops
        # must never ship (regeneration drops them)
        assert controller.migrate_tasks("iter", [(0, 1)]) == "edits"
        before = controller.membership.snapshot_placement(0)
        controller.membership.evict_workers([1])
        after = controller.membership.snapshot_placement(0)
        moved = [oid for oid in before if before[oid] != after[oid]]
        assert moved, "eviction re-homed nothing"
        # survivors physically hold every object they now home
        for oid in moved:
            assert controller.jobs[0].directory.is_fresh(oid, after[oid]), \
                f"object {oid} re-homed without a relocation copy"
        # from here on, nothing may target the evicted worker
        orig = controller.send_reliable

        def spy(dest, msg):
            sends.append((dest, type(msg).__name__))
            return orig(dest, msg)

        controller.send_reliable = spy

    cluster = run_with_directives(8, directive_at=4, directive=evict)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    assert cluster.metrics.count("relocation_copies") > 0
    evicted = cluster.workers[1]
    offenders = [name for dest, name in sends if dest is evicted]
    assert not offenders, \
        f"control messages sent to the evicted worker: {offenders}"


# ---------------------------------------------------------------------------
# Bug 3: migrate_tasks before the worker templates are generated
# ---------------------------------------------------------------------------
def test_migrate_before_capture_raises_descriptive_error():
    cluster = NimbusCluster(2, lambda job: iter(()),
                            registry=combine_registry())
    with pytest.raises(KeyError) as exc:
        cluster.controller.migrate_tasks("iter", [(0, 1)])
    assert "no controller template captured" in str(exc.value)


def test_migrate_before_worker_templates_falls_back_to_reassign():
    def migrate(controller):
        # one templated run so far: controller template captured, worker
        # halves not yet generated
        assert controller.jobs[0].phase["iter"] < PHASE_WT_GENERATED
        assert controller.migrate_tasks("iter", [(0, 1)]) == "reassign"

    cluster = run_with_directives(8, directive_at=1, directive=migrate)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    assert cluster.metrics.count("migrations_reassigned") == 1
    # the reassignment stuck: worker templates were generated from the
    # updated assignment, so task 0 runs on worker 1
    version = cluster.controller.jobs[0].current_version["iter"]
    wts = cluster.controller.jobs[0].worker_templates[("iter", version)]
    assert wts.task_locations[0][0] == 1


# ---------------------------------------------------------------------------
# Autoscaler-flushed lifecycle bugs: load-signal churn (bug 2) and
# evict_workers preconditions (bug 3)
# ---------------------------------------------------------------------------
def test_load_tracker_forgets_departed_and_gates_arrivals():
    """Regression (autoscaler bugfix 2, unit): the load EWMA must follow
    worker-set churn. Before the fix a departed worker's entries lived
    forever — any policy summing ``tracker.load`` over stale keys booked
    load onto dead workers — and there was no arrival story at all."""
    from repro.sched.rebalance import LoadTracker

    tracker = LoadTracker()
    for w in (0, 1, 2):
        for _ in range(3):
            tracker.observe(w, 1.0, {})
    assert tracker.min_samples([0, 1, 2]) == 3
    tracker.drop_worker(2)
    assert 2 not in tracker.load
    assert 2 not in tracker.samples
    # an arrival has no signal yet: min_samples pins the whole set at 0,
    # so sample-gated policies wait for real post-change observations
    assert tracker.min_samples([0, 1, 3]) == 0


def test_eviction_drops_load_signal_for_departed_workers():
    """Regression (autoscaler bugfix 2, integration): a mid-run eviction
    followed by continued rebalancer observation leaves no EWMA entry —
    controller-wide or per-block — for the departed worker."""
    from repro.apps import LRApp, LRSpec

    spec = LRSpec(num_workers=4, iterations=16, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0, rebalance=True)
    ctrl = cluster.controller
    state = {}

    def evict():
        state["had_signal"] = 3 in ctrl.load_tracker.load
        ctrl.membership.evict_workers([3])
        state["after_evict"] = dict(ctrl.load_tracker.load)

    cluster.sim.schedule_at(2.0, evict)
    cluster.run_until_finished(max_seconds=1e6)
    assert state["had_signal"], "no load signal for worker 3 before evict"
    assert 3 not in state["after_evict"]
    # ... and the signal never came back, even though the run (and the
    # rebalancer's per-block observation) continued for many iterations
    assert set(ctrl.load_tracker.load) <= ctrl.live_workers
    assert set(ctrl.load_tracker.samples) <= ctrl.live_workers
    for tracker in cluster.rebalancer.trackers.values():
        assert set(tracker.load) <= ctrl.live_workers


def _evict_snapshot(controller):
    return (set(controller.live_workers),
            controller.membership.snapshot_placement(0),
            controller.membership.snapshot_versions(0))


def test_evict_unknown_worker_raises_before_mutating():
    """Regression (autoscaler bugfix 3): every evict_workers precondition
    failure must be descriptive and must fire before any state mutates."""
    def evict(controller):
        before = _evict_snapshot(controller)
        with pytest.raises(RuntimeError) as exc:
            controller.membership.evict_workers([0, 7])
        assert "not in the live set" in str(exc.value)
        assert "no state was changed" in str(exc.value)
        assert _evict_snapshot(controller) == before

    cluster = run_with_directives(8, directive_at=4, directive=evict)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]


def test_evict_full_live_set_raises_before_mutating():
    def evict(controller):
        before = _evict_snapshot(controller)
        with pytest.raises(RuntimeError) as exc:
            controller.membership.evict_workers([0, 1])
        assert "cannot evict every worker" in str(exc.value)
        assert _evict_snapshot(controller) == before

    cluster = run_with_directives(8, directive_at=4, directive=evict)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]


def test_evict_below_minimum_raises_before_mutating():
    """The autoscaler's policy floor (min_live_workers) applies to manual
    evictions too, and failing it mutates nothing."""
    def evict(controller):
        controller.membership.min_live_workers = 2
        before = _evict_snapshot(controller)
        with pytest.raises(RuntimeError) as exc:
            controller.membership.evict_workers([1])
        assert "minimum live worker count" in str(exc.value)
        assert _evict_snapshot(controller) == before
        # let the run finish unharmed
        controller.membership.min_live_workers = 1

    cluster = run_with_directives(8, directive_at=4, directive=evict)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]


# ---------------------------------------------------------------------------
# Cross-feature lifecycle sweep (sharded control plane PR)
#
# Three races between features that each worked alone:
#
# A. ``ReleaseJob`` racing an in-flight ``SelfScheduleWindow`` — a
#    shard-relayed window could land after the release scrubbed the
#    job's templates and KeyError the worker (or leak a parked window).
# B. serve + autoscale — a job admitted from the wait queue while the
#    autoscaler drains a worker used to place partitions on the
#    DRAINING node, parking fresh work on a machine on its way out.
# C. ``pm_epoch`` monotonicity across worker churn — a stale
#    retransmitted ``EpochUpdate`` (sharded relays and churn-window
#    retransmits use more than one channel) could regress a worker's
#    epoch and wrongly stall its re-granted windows; late joiners
#    missed earlier broadcasts entirely.
# ---------------------------------------------------------------------------
def test_release_mid_window_scrubs_parked_and_late_windows():
    """Bug A, worker side: release closes every window *first*.

    A shard-relayed window stamped against the ``ReleaseJob`` itself is
    held by the worker's transport until the release has been handled,
    then dropped (counted) instead of raising on the scrubbed template;
    so is a window that was already in flight when the release landed."""
    cluster = run_with_directives(2)
    ctrl, w, shard = cluster.controller, cluster.workers[0], cluster.shards[0]
    m = cluster.metrics
    drops = m.count("self_schedule.released_window_drops")
    handled = handled_by(w, P.ReleaseJob, P.SelfScheduleWindow)

    def window(window_id, instance_id):
        return P.SelfScheduleWindow(window_id, "iter", 0, 0,
                                    [(instance_id, 0, 0, {})], job_id=5,
                                    reply_to=shard.name)

    # relayed ahead of the ReleaseJob its stamp names
    shard.send_reliable(w, stamped_ahead(ctrl, window(7, 100), w))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert handled == []

    ctrl.send_reliable(w, P.ReleaseJob(5, []))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert handled == ["ReleaseJob", "SelfScheduleWindow"]
    assert m.count("self_schedule.released_window_drops") == drops + 1
    assert not any(k[0] == 5 for k in w._grants)

    # a window that was already in flight when the release landed:
    # pre-fix this raised KeyError on the scrubbed template
    shard.send_reliable(w, ctrl.stamp(window(8, 101), w))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert m.count("self_schedule.released_window_drops") == drops + 2
    assert (5, 8) not in w._grants


def test_job_registration_excludes_draining_workers():
    """Bug B, placement seam: ``register_job`` must not hand a new
    tenant partitions on a DRAINING worker (pre-fix the placement order
    was ``sorted(live_workers)``, drains included)."""
    cluster = run_with_directives(4, num_workers=3)
    ctrl = cluster.controller

    ctrl.membership.start_drain([2])
    ctx = ctrl.register_job(99, driver=None, metrics=cluster.metrics)
    assert 2 not in ctx.placement.workers
    assert ctx.placement.workers, "job left with nowhere to place"

    # degenerate case: everything draining falls back to the live set
    # rather than an empty placement
    ctrl.membership.start_drain(ctrl.live_workers)
    ctx2 = ctrl.register_job(100, driver=None, metrics=cluster.metrics)
    assert sorted(ctx2.placement.workers) == sorted(ctrl.live_workers)


def test_job_admitted_mid_drain_lands_off_the_draining_worker():
    """Bug B, end to end: serve + autoscale. A job admitted in the same
    tick the autoscaler begins a scale-down places only on non-DRAINING
    workers, and both tenants still compute solo-identical values."""
    from .test_multitenant import (
        job_observables, run_solo, serve_cluster, small_lr_app)

    app = small_lr_app(seed=1, workers=4)
    solo = run_solo(app, seed=1)

    cluster = serve_cluster(app, seed=1, autoscale=True)
    a = cluster.jobs.submit(app.program(blocking=False))
    box = {}

    def drain_and_admit():
        cluster.autoscaler._begin_scale_down(1)
        box["draining"] = set(
            cluster.controller.membership.draining_workers)
        assert box["draining"], "scale-down marked nothing DRAINING"
        box["record"] = cluster.jobs.submit(app.program(blocking=False))
        ctx = cluster.controller.jobs[box["record"].job_id]
        box["placement"] = set(ctx.placement.workers)

    # mid-run for this app: the whole solo run ends around t=0.025
    cluster.sim.schedule_at(0.01, drain_and_admit)
    cluster.run_until_jobs_finished(max_seconds=1e6)

    assert box["placement"].isdisjoint(box["draining"]), (
        f"job placed on DRAINING worker(s) "
        f"{box['placement'] & box['draining']}")
    assert box["record"].state == "finished"
    assert job_observables(cluster, a.job_id, app) == solo
    assert job_observables(cluster, box["record"].job_id, app) == solo


def test_stale_epoch_update_does_not_regress_pm_epoch():
    """Bug C, worker side: epoch accepts are monotone. A stale
    retransmit arriving after a newer broadcast (possible once epoch
    signals travel more than one channel) must not roll the epoch back
    — pre-fix the handler assigned unconditionally."""
    cluster = run_with_directives(2)
    w = cluster.workers[0]

    w.handle(P.EpochUpdate(5))
    assert w._pm_epoch == 5
    w.handle(P.EpochUpdate(3))  # stale retransmit on a second channel
    assert w._pm_epoch == 5, "stale EpochUpdate regressed the epoch"
    w.handle(P.EpochUpdate(6))
    assert w._pm_epoch == 6


def test_provisioned_worker_syncs_epoch_after_churn():
    """Bug C, end to end: epoch bump, then a late joiner. The new
    worker missed the broadcast; ``add_worker`` must sync it (pre-fix
    it joined at epoch 0 behind the cluster) and the run's values stay
    bit-identical to an undisturbed baseline."""
    from repro.apps import LRApp, LRSpec

    from .helpers import computed_values, run_lr

    baseline = computed_values(run_lr(iterations=16))

    spec = LRSpec(num_workers=4, iterations=16, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0, mode="sharded")
    ctrl = cluster.controller
    box = {}

    cluster.sim.schedule_at(0.5, ctrl.bump_partition_epoch)

    def join():
        worker = cluster.provision_worker()
        ctrl.membership.add_worker(worker.worker_id, worker)
        box["worker"] = worker

    cluster.sim.schedule_at(0.8, join)
    cluster.run_until_finished(max_seconds=1e6)

    assert ctrl.pm_epoch >= 1
    assert box["worker"]._pm_epoch == ctrl.pm_epoch, (
        "late joiner never learned the current partition-map epoch")
    assert computed_values(cluster) == baseline


# ---------------------------------------------------------------------------
# PR 12: a long-running service must not grow with every tenant it served,
# nor with every iteration of a read-mostly object
# ---------------------------------------------------------------------------
def _tenant_state(cluster):
    """Per-worker sizes of everything a worker keeps per tenant."""
    def sizes(w):
        tracker = w.tracker.stats()
        return (tracker["writers"], tracker["reader_lists"],
                tracker["readers"],
                len(w._patches) + len(w._retire_at),
                len(w._seams), len(w._templates),
                tracker["plans"], len(w._released_cids), tracker["chain"])
    return {wid: sizes(w) for wid, w in cluster.workers.items()}


def test_released_tenants_leave_no_tracker_plan_or_seam_state():
    """50 submit -> finish -> release cycles: the conflict tracker, the
    patch cache and the seam cache return to what they held after the
    first cycle (pre-fix only ``_on_halt`` ever cleared them, so each
    released tenant left its oids and patch bodies behind). Already at
    the finish a tenant holds none of it, halves included; a finished or
    released patch id stays covered by the worker's patch mark — the
    redelivery guard — and nothing else is kept."""
    from repro.apps import LRApp, LRSpec, RotationApp, RotationSpec
    from repro.nimbus import merged_registry

    lr = LRApp(LRSpec(num_workers=3, iterations=5, partitions_per_worker=2,
                      data_bytes=1e6))
    rot = RotationApp(RotationSpec(num_workers=3, iterations=5))  # patches
    cluster = NimbusCluster(
        3, program=None,
        registry=merged_registry([lr.registry, rot.registry]))
    programs = [lr.program(blocking=False), rot.program()]
    baseline = None
    for cycle in range(50):
        record = cluster.jobs.submit(programs[cycle % 2])
        cluster.run_until_jobs_finished(max_seconds=1e6)
        assert record.state == "finished"
        # finished, not yet released: the finish already freed it all,
        # the tenant's installed halves too
        live = _tenant_state(cluster)
        assert all(not any(state) for state in live.values()), live
        cluster.controller.deliver(P.ManagerDirective(
            lambda ctrl, jid=record.job_id: ctrl.release_job(jid)))
        cluster.sim.run(until=cluster.sim.now + 1.0)
        state = _tenant_state(cluster)
        if cycle < 2:
            baseline = state  # one released LR tenant + one rotation
        else:
            assert state == baseline, f"cycle {cycle}: worker state grew"
    # the rotation tenants did run patches: the ids are still guarded by
    # the mark, the bodies (counted in the state above) went with them
    assert any(w._patch_mark > 0 for w in cluster.workers.values())
    assert all(not any(sizes) for sizes in baseline.values()), baseline


def test_redelivered_patch_install_after_release_is_still_discarded():
    """The scrub frees a released tenant's patch body, and the patch mark
    still covers its id: an ``InstallPatch`` redelivered after the release
    must hit the idempotence guard, not run the patch a second time."""
    from repro.core.worker_template import RecvEntry
    from repro.nimbus.multijob import OID_STRIDE

    cluster = NimbusCluster(1, program=None)
    w = cluster.workers[0]
    oid = 3 * OID_STRIDE + 1
    install = P.InstallPatch(
        9, [RecvEntry(0, (oid,), src_worker=0)],
        10 ** 6, "p")
    w.handle(install)
    w.handle(P.DataMessage(("p", 0, 0), oid, None, 8))
    assert 9 in w._patches and not w._pending
    w.handle(P.ReleaseJob(3, [oid]))
    assert not w._patches and w._patch_mark == 9
    stale = cluster.metrics.count("protocol.stale_discards")
    w.handle(install)
    assert cluster.metrics.count("protocol.stale_discards") == stale + 1
    assert not w._pending


def test_tenant_released_mid_run_is_scrubbed_once_drained():
    """A tenant cancelled with pipelined instances in flight: the entries
    of its draining commands survive the scrub at release and go when the
    last of them completes — not with some later tenant's release."""
    from repro.apps import LRApp, LRSpec

    lr = LRApp(LRSpec(num_workers=3, iterations=30, partitions_per_worker=2,
                      data_bytes=1e6))
    cluster = NimbusCluster(3, program=None, registry=lr.registry)
    record = cluster.jobs.submit(lr.program(blocking=False))
    workers = cluster.workers.values()
    # far enough in that instances are pipelined and commands in flight
    while not all(w.tasks_executed > 40 and w._pending for w in workers):
        assert cluster.sim.step(), "the job finished before the release"
    cluster.controller.deliver(P.ManagerDirective(
        lambda ctrl: ctrl.release_job(record.job_id)))
    while not any(w._released_jobs for w in workers):
        cluster.sim.step()
    assert any(w._released_cids and w.tracker.stats()["writers"]
               for w in workers)
    cluster.sim.run(until=cluster.sim.now + 5.0)
    assert all(not w._pending for w in workers)
    assert all(not any(sizes) for sizes in _tenant_state(cluster).values())


@pytest.mark.guard
@pytest.mark.parametrize("use_templates", [True, False])
def test_read_only_reader_lists_stay_bounded(use_templates):
    """An object read every iteration and never rewritten (fig07's
    training data) gained one reader cid per instance, forever; a later
    write then walked the whole list. Over 200 iterations, sampled after
    every event while instances are in flight, the lists stay at
    O(pipeline depth), and a write after them still depends on exactly
    the readers that are pending. Templated instances defer their
    readers to the tracker's chain, which drops drained instances and
    prunes per plan when it folds; a ``use_templates=False`` stream is
    resolved command by command, and each command leaves the lists as it
    completes."""
    from repro.apps import LRApp, LRSpec

    iterations = 200
    spec = LRSpec(num_workers=2, iterations=iterations,
                  partitions_per_worker=2, data_bytes=1e6)
    app = LRApp(spec)

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(iterations):
            job.post(app.iteration_block, {"step": spec.step_size})
            if i % 20 == 19:
                yield job.drain()
        yield job.drain()

    cluster = NimbusCluster(2, program, registry=app.registry,
                            use_templates=use_templates)
    cluster.driver.start()
    longest = 0
    while not cluster.job.finished:
        assert cluster.sim.step()
        for worker in cluster.workers.values():
            stats = worker.tracker.stats()
            longest = max(longest, stats["longest"], stats["chain"])
    assert 0 < longest <= 32, longest
    w = cluster.workers[0]

    # now write an object that 200 instances read: its only dependencies
    # are the readers still pending (two hand-enqueued ones; nothing runs
    # them, the simulator has stopped)
    from repro.nimbus.commands import make_task
    oid = next(oid for oid, _n, _p, _s, home in app.variables.definitions
               if oid in app.tdata and home == w.worker_id)
    assert w.tracker.view(oid) == (None, [])
    base = 10 ** 9
    for k in range(2):
        w._enqueue(make_task(base + k, 0, "__noop__", (oid,), ()), (0, False))
    writer = make_task(base + 9, 0, "__noop__", (), (oid,))
    w._enqueue(writer, (0, False))
    assert writer._rem == 2

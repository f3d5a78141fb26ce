"""Fault-tolerance integration tests: checkpointing and recovery (§4.4)."""

import pytest

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.templates import PHASE_WT_INSTALLED

from .helpers import (
    combine_registry,
    reference_execute,
    simple_define,
    worker_values,
)

pytestmark = pytest.mark.guard

DATA = [1, 2, 3]
OUT = [11, 12, 13]
ACC = 30


def blocks():
    seed_block = BlockSpec("seed", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot="v")
        for oid in DATA + [ACC]
    ])])
    iter_block = BlockSpec("iter", [
        StageSpec("map", [
            LogicalTask("combine", read=(DATA[i],), write=(OUT[i],))
            for i in range(len(DATA))
        ]),
        StageSpec("fold", [
            LogicalTask("combine", read=tuple(OUT) + (ACC,), write=(ACC,)),
        ]),
    ], returns={"acc": ACC})
    return seed_block, iter_block


def build_cluster(iterations, fail_worker_after=None, num_workers=3,
                  checkpoint_every=3, mode="centralized"):
    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    box = {}

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 2})
        for i in range(iterations):
            if fail_worker_after is not None and i == fail_worker_after:
                cluster = box["cluster"]
                if not cluster.workers[num_workers - 1]._dead:
                    cluster.workers[num_workers - 1].fail()
            yield job.run(iter_block)

    cluster = NimbusCluster(
        num_workers, program, registry=combine_registry(),
        use_templates=True, checkpoint_every=checkpoint_every,
        heartbeat_timeout=0.5, mode=mode,
    )
    box["cluster"] = cluster
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    return cluster


def reference(iterations):
    seed_block, iter_block = blocks()
    return reference_execute(
        [(seed_block, {"v": 2})] + [(iter_block, {})] * iterations)


def test_checkpoints_commit_periodically():
    cluster = build_cluster(iterations=8)
    cluster.run_until_finished(max_seconds=1e4)
    assert cluster.metrics.count("checkpoints_committed") >= 2
    # checkpointed payloads really are in durable storage
    checkpoint_id = cluster.controller.membership.last_committed_checkpoint
    assert any(cluster.storage.has(checkpoint_id, oid) for oid in DATA)


def test_worker_failure_recovers_and_finishes():
    cluster = build_cluster(iterations=10, fail_worker_after=6)
    cluster.run_until_finished(max_seconds=1e4)
    assert cluster.metrics.count("recoveries_completed") == 1
    assert cluster.metrics.count("driver_replays") == 1
    assert cluster.job.finished
    # the dead worker is out of the live set
    assert 2 not in cluster.controller.live_workers


def _recovery_timeline(cluster):
    return (cluster.sim.now, cluster.sim.events_run,
            cluster.metrics.count("controller.messages_out"),
            cluster.metrics.count("worker_template_regenerations"),
            cluster.metrics.count("checkpoints_committed"))


def test_recovery_timeline_is_pinned():
    """Exact timeline of a checkpoint-recovery run: restore re-homes the
    dead worker's template entries and regenerates both installed blocks,
    a path no benchmark workload takes. The program blocks on every
    iteration, so a window holds one entry and the window modes send it
    as a plain instantiation: all three modes share one timeline."""
    for mode in ("centralized", "decentralized", "sharded"):
        cluster = build_cluster(iterations=10, fail_worker_after=6,
                                mode=mode)
        cluster.run_until_finished(max_seconds=1e4)
        assert _recovery_timeline(cluster) \
            == (0.6168435807999999, 436, 70, 2, 3), mode


#: mode -> recovery timeline of a pipelined LR run whose worker 3 dies
#: while the second self-schedule window is granted: the first window's
#: boundary is the only checkpoint, and recovery drops the open grant
WINDOWED_RECOVERY_PINS = {
    "decentralized": (147.92306741361344, 13738, 79, 2, 1),
    "sharded": (147.92320749041343, 13758, 74, 2, 1),
}


@pytest.mark.parametrize("mode", sorted(WINDOWED_RECOVERY_PINS))
def test_windowed_recovery_timeline_is_pinned(mode):
    from repro.apps import LRApp, LRSpec
    app = LRApp(LRSpec(num_workers=4, iterations=40,
                       partitions_per_worker=4))
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, mode=mode,
                            checkpoint_every=4, heartbeat_timeout=0.5)
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    cluster.sim.schedule_at(70.0, cluster.workers[3].fail)
    cluster.run_until_finished(max_seconds=1e4)
    assert cluster.metrics.count("recoveries_completed") == 1
    assert _recovery_timeline(cluster) == WINDOWED_RECOVERY_PINS[mode]


def test_recovered_run_produces_correct_results():
    """After a failure mid-job, replay + re-execution must converge to the
    exact values of an undisturbed run."""
    cluster = build_cluster(iterations=10, fail_worker_after=6)
    cluster.run_until_finished(max_seconds=1e4)
    expected = reference(10)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    values = worker_values(cluster, OUT)
    assert values == {oid: expected[oid] for oid in OUT}


def test_failed_worker_objects_rehomed():
    cluster = build_cluster(iterations=10, fail_worker_after=6)
    cluster.run_until_finished(max_seconds=1e4)
    directory = cluster.controller.jobs[0].directory
    for oid in DATA + OUT + [ACC]:
        holders = directory.holders_of_latest(oid)
        assert holders, f"object {oid} lost"
        assert all(h in cluster.controller.live_workers for h in holders)


def test_failure_without_checkpoint_raises():
    cluster = build_cluster(iterations=30, fail_worker_after=0,
                            checkpoint_every=1000)
    with pytest.raises(RuntimeError):
        cluster.run_until_finished(max_seconds=1e4)


def _crash_on_message(cluster, target, message_type, after=0.0):
    """Kill ``target`` when the first ``message_type`` is transmitted to it
    (``after`` seconds later), so the crash lands inside a protocol window
    instead of between iterations."""
    original = cluster.network.transmit
    fired = {}

    def transmit(src, dst, msg, depart):
        original(src, dst, msg, depart)
        if not fired and dst is target and isinstance(msg, message_type):
            fired["at"] = cluster.sim.now
            if after == 0.0:
                target.fail()
            else:
                cluster.sim.schedule(after, target.fail)

    cluster.network.transmit = transmit
    return fired


def test_crash_during_template_install_recovers():
    """The worker dies while its template half is on the wire: the install
    never lands, the controller must re-halt and regenerate templates for
    the survivors, and the results still match the reference."""
    cluster = build_cluster(iterations=8, checkpoint_every=1)
    fired = _crash_on_message(cluster, cluster.workers[2],
                              P.InstallWorkerTemplate)
    cluster.run_until_finished(max_seconds=1e4)
    assert fired, "no InstallWorkerTemplate was ever sent to the victim"
    assert cluster.metrics.count("recoveries_completed") == 1
    expected = reference(8)
    assert worker_values(cluster, OUT + [ACC]) == \
        {oid: expected[oid] for oid in OUT + [ACC]}


def test_crash_between_instantiation_and_completion_recovers():
    """The worker dies after receiving an instantiation but before sending
    InstanceComplete — the controller is left waiting on a completion that
    will never come, and only failure recovery can unblock the job."""
    cluster = build_cluster(iterations=8, checkpoint_every=1)
    # task duration is 1e-3s: dying 2e-4s after the instantiation arrives
    # lands mid-instance, with commands enqueued but unreported
    fired = _crash_on_message(cluster, cluster.workers[2],
                              P.InstantiateWorkerTemplate, after=3e-4)
    cluster.run_until_finished(max_seconds=1e4)
    assert fired, "no InstantiateWorkerTemplate was ever sent to the victim"
    assert cluster.metrics.count("recoveries_completed") == 1
    assert cluster.metrics.count("driver_replays") == 1
    expected = reference(8)
    assert worker_values(cluster, OUT + [ACC]) == \
        {oid: expected[oid] for oid in OUT + [ACC]}


def test_templates_survive_recovery():
    """Controller templates persist; worker templates are regenerated for
    the surviving workers and the job returns to the template fast path."""
    cluster = build_cluster(iterations=14, fail_worker_after=6)
    cluster.run_until_finished(max_seconds=1e4)
    controller = cluster.controller
    assert "iter" in controller.jobs[0].templates
    assert controller.jobs[0].phase["iter"] == PHASE_WT_INSTALLED
    # post-recovery iterations ran through templates again
    assert cluster.metrics.count("auto_validations") >= 2


def serve_with_recovery(tenants, fail_worker_after=None, iterations=10):
    """``tenants`` copies of the test program served (no job-0 driver)
    on a fault-tolerant cluster; the first to reach iteration
    ``fail_worker_after`` kills worker 2. Returns the cluster."""
    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    box = {}

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 2})
        for i in range(iterations):
            victim = box["cluster"].workers[2]
            if i == fail_worker_after and not victim._dead:
                victim.fail()
            yield job.run(iter_block)

    cluster = NimbusCluster(3, None, registry=combine_registry(),
                            checkpoint_every=3, heartbeat_timeout=0.5)
    box["cluster"] = cluster
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    for _ in range(tenants):
        cluster.submit_job(program)
    cluster.run_until_jobs_finished(max_seconds=1e4)
    return cluster


@pytest.mark.parametrize("tenants", [1, 2])
def test_a_served_tenant_recovers_from_a_checkpoint(tenants):
    """Checkpoints cover every job, not just job 0: served tenants that
    lose a worker are restored and replayed, and each one's results equal
    its failure-free run."""
    solo = serve_with_recovery(tenants)
    assert solo.metrics.count("recoveries_started") == 0
    cluster = serve_with_recovery(tenants, fail_worker_after=6)
    assert cluster.metrics.count("recoveries_completed") == 1
    assert 2 not in cluster.controller.live_workers
    for job_id, record in cluster.jobs.records.items():
        assert record.state == "finished"
        assert record.metrics.count("driver_replays") == 1
        assert cluster.controller.jobs[job_id].results_history \
            == solo.controller.jobs[job_id].results_history


def test_a_tenant_admitted_after_the_checkpoint_fails_by_name():
    """A tenant registered after the last committed checkpoint has no
    snapshot to restore: recovery refuses, naming it, before it changes
    anything."""
    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    box = {}

    def late(job):
        yield job.define(simple_define(objects))
        for _ in range(30):
            yield job.run(seed_block, {"v": 2})

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 2})
        for i in range(10):
            if i == 5:
                box["cluster"].submit_job(late)
            if i == 6:
                box["cluster"].workers[2].fail()
            yield job.run(iter_block)

    cluster = NimbusCluster(3, None, registry=combine_registry(),
                            checkpoint_every=3, heartbeat_timeout=0.5)
    box["cluster"] = cluster
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    cluster.submit_job(program)
    with pytest.raises(RuntimeError, match=(
            r"workers \[2\] failed, and jobs \[2\] were registered after "
            r"the last committed checkpoint")):
        cluster.run_until_jobs_finished(max_seconds=1e4)
    assert not cluster.controller.membership.recovering

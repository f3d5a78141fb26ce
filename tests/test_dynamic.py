"""Dynamic scheduling integration tests: edits, eviction, restore (§2.3,
Figures 9 and 10) — with end-to-end value correctness after every change."""

import pytest

from repro.core.edits import MigrationError
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import (
    combine_registry,
    reference_execute,
    simple_define,
    worker_values,
)

NUM_PARTS = 4
DATA = list(range(1, NUM_PARTS + 1))  # oids 1..4
OUT = [oid + 10 for oid in DATA]  # oids 11..14
ACC = 30


def blocks():
    seed_block = BlockSpec("seed", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot="v")
        for oid in DATA + [ACC]
    ])])
    iter_block = BlockSpec("iter", [
        StageSpec("map", [
            LogicalTask("combine", read=(DATA[i],), write=(OUT[i],))
            for i in range(NUM_PARTS)
        ]),
        StageSpec("fold", [
            LogicalTask("combine", read=tuple(OUT) + (ACC,), write=(ACC,)),
        ]),
    ], returns={"acc": ACC})
    return seed_block, iter_block


def reference(iterations):
    seed_block, iter_block = blocks()
    return reference_execute(
        [(seed_block, {"v": 3})] + [(iter_block, {})] * iterations)


def run_with_directives(iterations, directive_at=None, directive=None,
                        num_workers=2, directives=None):
    """Run the iteration program, delivering a ManagerDirective to the
    controller just before iteration ``directive_at`` (and one per entry
    of ``directives``, iteration -> directive)."""
    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    cluster_box = {}
    directives = dict(directives or {})
    if directive_at is not None:
        directives[directive_at] = directive

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 3})
        for i in range(iterations):
            if i in directives:
                cluster_box["cluster"].controller.deliver(
                    P.ManagerDirective(directives[i]))
            yield job.run(iter_block)

    cluster = NimbusCluster(num_workers, program, registry=combine_registry(),
                            use_templates=True)
    cluster_box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e5)
    return cluster


def test_baseline_without_directives():
    cluster = run_with_directives(8)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]


def test_migration_via_edits_preserves_results():
    def migrate(controller):
        # move the first two map tasks to worker 1 (small change → edits;
        # the tiny 5-task test template needs a generous edit threshold)
        controller.edit_threshold = 0.5
        result = controller.migrate_tasks("iter", [(0, 1), (2, 1)])
        assert result == "edits"

    cluster = run_with_directives(8, directive_at=5, directive=migrate)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    # relocatable inputs move with the tasks: 3 edit ops per migration
    assert cluster.metrics.count("edits_applied") == 6
    # the migrated tasks now run on worker 1
    wts = cluster.controller.worker_templates[("iter", 0)]
    assert wts.task_locations[0][0] == 1
    assert wts.task_locations[2][0] == 1


def test_rejected_move_leaves_the_halves_in_agreement():
    """A batch with a move that cannot be planned raises — after the moves
    before it, which are on the controller half by then, were queued for
    the workers like any batch. (They used to be dropped: the next valid
    migration then appended past the end of the worker's shorter half.)"""
    def rejected(controller):
        controller.edit_threshold = 1.0
        with pytest.raises(MigrationError):
            controller.migrate_tasks("iter", [(0, 1), (10 ** 9, 1), (2, 1)])
        wts = controller.worker_templates[("iter", 0)]
        assert wts.task_locations[0][0] == 1  # planned before the bad one
        assert wts.task_locations[2][0] == 0  # never reached

    def valid(controller):
        assert controller.migrate_tasks("iter", [(2, 1)]) == "edits"

    cluster = run_with_directives(10, directives={4: rejected, 6: valid})
    assert worker_values(cluster, [ACC])[ACC] == reference(10)[ACC]
    assert cluster.metrics.count("edits_applied") == 6  # two moves, 3 ops
    wts = cluster.controller.worker_templates[("iter", 0)]
    assert wts.task_locations[0][0] == wts.task_locations[2][0] == 1
    assert cluster.controller.templates["iter"].workers == [
        1, 1, 1, 1, 0]  # map tasks 0 and 2 joined 1 and 3
    for worker_id, worker in cluster.workers.items():
        assert [(e.kind, e.read, e.write, e.before) for e in
                worker._templates[(0, "iter", 0)].entries] == [
            (e.kind, e.read, e.write, e.before)
            for e in wts.entries[worker_id]]


def test_migration_keeps_auto_validation():
    """Edit-based migration preserves the template contract, so iterations
    after the edit still auto-validate (Fig. 10's 'negligible overhead')."""
    def migrate(controller):
        controller.migrate_tasks("iter", [(0, 1)])

    cluster = run_with_directives(10, directive_at=6, directive=migrate)
    # 10 iterations: 3 install phases, 7 templated; all 7 auto-validate
    # except the first templated one (full validation after central runs)
    assert cluster.metrics.count("auto_validations") == 6
    assert cluster.metrics.count("full_validations") == 1


def test_large_migration_triggers_reinstall():
    def migrate(controller):
        moves = [(i, 1) for i in range(NUM_PARTS)]  # move everything
        result = controller.migrate_tasks("iter", moves)
        assert result == "reinstall"

    cluster = run_with_directives(8, directive_at=5, directive=migrate)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    assert cluster.metrics.count("worker_template_regenerations") == 1
    assert cluster.controller.current_version["iter"] == 1


def test_eviction_moves_work_and_preserves_results():
    state = {}

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement()
        state["versions"] = controller.membership.snapshot_versions()
        controller.membership.evict_workers([1])

    cluster = run_with_directives(8, directive_at=4, directive=evict,
                                  num_workers=2)
    expected = reference(8)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    # all template entries now live on worker 0
    template = cluster.controller.templates["iter"]
    assert set(template.workers) == {0}


def test_evict_then_restore_reuses_cached_templates():
    state = {}

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement()
        state["versions"] = controller.membership.snapshot_versions()
        controller.membership.evict_workers([1])

    def restore(controller):
        controller.membership.restore_workers([1], state["placement"],
                                              state["versions"])

    seed_block, iter_block = blocks()
    objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
    box = {}

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, {"v": 3})
        for i in range(12):
            if i == 5:
                box["cluster"].controller.deliver(P.ManagerDirective(evict))
            if i == 9:
                box["cluster"].controller.deliver(P.ManagerDirective(restore))
            yield job.run(iter_block)

    cluster = NimbusCluster(2, program, registry=combine_registry(),
                            use_templates=True)
    box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e5)
    expected = reference(12)
    assert worker_values(cluster, [ACC])[ACC] == expected[ACC]
    # after restore, the original version-0 templates are current again
    assert cluster.controller.current_version["iter"] == 0
    # eviction regenerated both installed blocks (seed + iter) once; the
    # restore reused cached version-0 templates instead of regenerating
    assert cluster.metrics.count("worker_template_regenerations") == 2
    # worker halves for version 0 are still cached on both workers
    assert (0, "iter", 0) in cluster.workers[0]._templates
    assert (0, "iter", 0) in cluster.workers[1]._templates


def test_cannot_evict_all_workers():
    cluster = NimbusCluster(2, lambda job: iter(()),
                            registry=combine_registry())
    with pytest.raises(RuntimeError):
        cluster.controller.membership.evict_workers([0, 1])


def test_edit_cost_charged_per_operation():
    """Table 3: edit cost scales with the number of edit operations."""
    def migrate_one(controller):
        controller.migrate_tasks("iter", [(0, 1)])

    one = run_with_directives(8, directive_at=5, directive=migrate_one)

    def migrate_two(controller):
        controller.edit_threshold = 0.5
        controller.migrate_tasks("iter", [(0, 1), (2, 1)])

    two = run_with_directives(8, directive_at=5, directive=migrate_two)
    assert two.metrics.count("edits_applied") == 2 * one.metrics.count(
        "edits_applied")


def _pin_edits(controller):
    controller.edit_threshold = 0.5
    controller.migrate_tasks("iter", [(0, 1), (2, 1)])


def _pin_reinstall(controller):
    controller.migrate_tasks("iter", [(i, 1) for i in range(NUM_PARTS)])


def _pin_reassign(controller):
    """A migration one templated run in: the controller template exists,
    the worker templates do not yet."""
    assert controller.migrate_tasks("iter", [(0, 1)]) == "reassign"


def _pin_evict(controller):
    controller.membership.evict_workers([1])


def _pin_evict_then_restore():
    """Evict worker 1 before iteration 4 and bring it back before 6 onto
    the placement and versions snapshotted just before the eviction."""
    state = {}

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement()
        state["versions"] = controller.membership.snapshot_versions()
        controller.membership.evict_workers([1])

    def restore(controller):
        controller.membership.restore_workers([1], state["placement"],
                                              state["versions"])

    return {4: evict, 6: restore}


#: scenario -> (iteration -> directive, sim.now, sim.events_run,
#: controller.messages_out, relocation_copies,
#: worker_template_regenerations). Patch build-and-ship, worker-template
#: regeneration, re-homing off departed workers and a migration before
#: the worker templates exist run on almost no benchmark workload, so
#: their exact timeline is held here.
TIMELINE_PINS = {
    "none": ({}, 0.02767672879999999, 237, 32, 0, 0),
    "edits": ({5: _pin_edits}, 0.02791348159999999, 260, 34, 2, 0),
    "reassign": ({1: _pin_reassign}, 0.02779445199999999, 255, 32, 0, 0),
    "reinstall": ({5: _pin_reinstall}, 0.029316335999999988, 271, 34, 0, 1),
    "evict": ({4: _pin_evict}, 0.02885166399999999, 224, 31, 2, 2),
    "restore": (_pin_evict_then_restore(), 0.02907775999999999, 238, 33,
                2, 2),
}


@pytest.mark.parametrize("scenario", sorted(TIMELINE_PINS))
def test_dynamic_scheduling_timeline_is_pinned(scenario):
    directives, now, events, out, copies, regens = TIMELINE_PINS[scenario]
    cluster = run_with_directives(8, directives=directives)
    assert (cluster.sim.now, cluster.sim.events_run,
            cluster.metrics.count("controller.messages_out"),
            cluster.metrics.count("relocation_copies"),
            cluster.metrics.count("worker_template_regenerations")) \
        == (now, events, out, copies, regens)

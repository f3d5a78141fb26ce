"""Unit tests for edits and migration planning (§2.3, §4.3, Figure 6)."""

import pytest

from repro.core.controller_template import ControllerTemplate
from repro.core.edits import (
    EditOp,
    MigrationError,
    apply_edits,
    migration_conflict,
    plan_migration,
    plan_migrations,
)
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.validation import brute_force_validate, full_validate
from repro.core.worker_template import (
    AccessIndex,
    TemplateEntry,
    generate_worker_templates,
)
from repro.nimbus.commands import CommandKind
from repro.nimbus.data import LogicalObject, ObjectDirectory

from .helpers import lr_iteration_template

pytestmark = pytest.mark.guard

SIZES = {oid: 32 for oid in range(1, 30)}


def make_wts(assignment=(0, 0, 0)):
    """Figure-6-like block: produce input, task t, consume t's result."""
    block = BlockSpec("fig6", [
        StageSpec("produce", [LogicalTask("p", read=(), write=(1,))]),
        StageSpec("t", [LogicalTask("t", read=(1,), write=(2,))]),
        StageSpec("consume", [LogicalTask("c", read=(2,), write=(3,))]),
    ])
    template = ControllerTemplate.from_block(block, list(assignment))
    return generate_worker_templates(template, SIZES)


class TestApplyEdits:
    def entry(self, index):
        return TemplateEntry(index=index, kind=CommandKind.TASK,
                             function="x")

    def test_replace(self):
        entries = [self.entry(0), self.entry(1)]
        new = TemplateEntry(index=0, kind=CommandKind.RECV, write=(9,))
        apply_edits(entries, [EditOp(EditOp.REPLACE, 1, new)])
        assert entries[1].kind == CommandKind.RECV
        assert entries[1].index == 1

    def test_append(self):
        entries = [self.entry(0)]
        apply_edits(entries, [EditOp(EditOp.APPEND, 1, self.entry(1))])
        assert len(entries) == 2

    def test_append_wrong_index_rejected(self):
        entries = [self.entry(0)]
        with pytest.raises(ValueError):
            apply_edits(entries, [EditOp(EditOp.APPEND, 5, self.entry(5))])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            apply_edits([self.entry(0)], [EditOp("mutate", 0)])


class TestPlanMigration:
    def test_figure6_shape(self):
        """Migrating t from worker 0 to worker 1 produces S1/R1/t'/S2/R2."""
        wts = make_wts()
        ops = plan_migration(wts, ct_index=1, dst=1, object_sizes=SIZES)
        src_ops, dst_ops = ops[0], ops[1]
        # source: replace t's slot with the result RECV, append input SEND
        kinds_src = [(op.op, op.entry.kind if op.entry else None)
                     for op in src_ops]
        assert (EditOp.APPEND, CommandKind.SEND) in kinds_src
        assert (EditOp.REPLACE, CommandKind.RECV) in kinds_src
        # destination: input RECV, the task, result SEND
        kinds_dst = [op.entry.kind for op in dst_ops]
        assert kinds_dst == [CommandKind.RECV, CommandKind.TASK,
                             CommandKind.SEND]

    def test_result_recv_keeps_task_index(self):
        """Fig. 6: the replacement RECV takes the task's index so dependents'
        before sets are untouched."""
        wts = make_wts()
        old_worker, old_index = wts.task_locations[1]
        consumer_before = wts.entries[0][2].before  # consumer names t's index
        plan_migration(wts, 1, 1, SIZES)
        replaced = wts.entries[0][old_index]
        assert replaced.kind == CommandKind.RECV
        assert replaced.write == (2,)
        assert wts.entries[0][2].before == consumer_before

    def test_controller_half_mutated_and_location_updated(self):
        wts = make_wts()
        plan_migration(wts, 1, 1, SIZES)
        worker, index = wts.task_locations[1]
        assert worker == 1
        migrated = wts.entries[1][index]
        assert migrated.kind == CommandKind.TASK
        assert migrated.function == "t"

    def test_contract_preserved(self):
        """Preconditions and the directory delta survive the migration, so
        auto-validation stays sound (the result ships home every run)."""
        wts = make_wts()
        before_preconds = {w: set(s) for w, s in wts.preconditions.items()}
        before_counts = dict(wts.delta.write_counts)
        plan_migration(wts, 1, 1, SIZES)
        assert {w: set(s) for w, s in wts.preconditions.items()} == before_preconds
        assert wts.delta.write_counts == before_counts
        # the original worker still ends up holding the result
        assert 0 in wts.delta.final_holders[2]
        assert 1 in wts.delta.final_holders[2]

    def test_migrate_to_same_worker_is_noop(self):
        wts = make_wts()
        assert plan_migration(wts, 1, 0, SIZES) == {}

    def test_repeated_migration_follows_task(self):
        wts = make_wts(assignment=(0, 0, 0))
        plan_migration(wts, 1, 1, SIZES)
        ops = plan_migration(wts, 1, 2, SIZES)
        assert set(ops) == {1, 2}
        assert wts.task_locations[1][0] == 2

    def test_unknown_task_rejected(self):
        wts = make_wts()
        with pytest.raises(MigrationError):
            plan_migration(wts, 99, 1, SIZES)

    def test_multi_write_task_rejected(self):
        block = BlockSpec("mw", [
            StageSpec("s", [LogicalTask("t", read=(), write=(1, 2))]),
        ])
        template = ControllerTemplate.from_block(block, [0])
        wts = generate_worker_templates(template, SIZES)
        with pytest.raises(MigrationError):
            plan_migration(wts, 0, 1, SIZES)

    def test_destination_conflict_rejected(self):
        # destination already touches the task's objects
        wts = make_wts(assignment=(0, 0, 1))  # consumer of oid 2 on worker 1
        with pytest.raises(MigrationError):
            plan_migration(wts, 1, 1, SIZES)

    def test_report_flag_transfers_to_result_recv(self):
        block = BlockSpec("rep", [
            StageSpec("p", [LogicalTask("p", read=(), write=(1,))]),
            StageSpec("t", [LogicalTask("t", read=(1,), write=(2,))]),
        ], returns={"out": 2})
        template = ControllerTemplate.from_block(block, [0, 0])
        wts = generate_worker_templates(template, SIZES)
        old_worker, old_index = wts.task_locations[1]
        plan_migration(wts, 1, 1, SIZES)
        replaced = wts.entries[0][old_index]
        assert replaced.report  # the recv now reports the returned value


def make_batch_wts():
    block = BlockSpec("batch", [
        StageSpec("p", [LogicalTask("p", read=(), write=(1,)),
                        LogicalTask("p", read=(), write=(2,))]),
        StageSpec("t", [LogicalTask("t", read=(1,), write=(11,)),
                        LogicalTask("t", read=(2,), write=(12,))]),
    ])
    template = ControllerTemplate.from_block(block, [0, 0, 0, 0])
    return generate_worker_templates(template, SIZES)


def test_plan_migrations_batches_and_counts_ops():
    wts = make_batch_wts()
    batch = plan_migrations(wts, [(2, 1), (3, 2)], SIZES)
    # inputs here are produced *in-block*, so they ship per iteration:
    # each single-input/single-output migration is 5 ops (S1,R1,t',S2,R2)
    assert batch.total_ops == 10
    assert set(batch.edits) == {0, 1, 2}
    assert batch.relocations == []
    assert batch.moves == [(2, 1), (3, 2)] and batch.rejected is None


def test_sole_reader_preblock_inputs_relocate():
    """A task whose input is pre-block data it alone reads (a training
    partition) relocates the input instead of re-shipping it every
    instantiation: 3 edit ops (t', S2, R2) plus a reported relocation."""
    block = BlockSpec("reloc", [
        StageSpec("t", [LogicalTask("t", read=(1,), write=(11,)),
                        LogicalTask("t", read=(2,), write=(12,))]),
    ])
    template = ControllerTemplate.from_block(block, [0, 0])
    wts = generate_worker_templates(template, SIZES)
    batch = plan_migrations(wts, [(0, 1)], SIZES)
    assert batch.total_ops == 3
    assert batch.relocations == [(1, 1)]
    # the precondition moved with the data
    assert 1 not in wts.preconditions[0]
    assert 1 in wts.preconditions[1]
    # object 2 (the other task's input) stays put
    assert 2 in wts.preconditions[0]


def test_validation_checks_a_relocated_precondition_at_its_new_home():
    """After a relocating edit, full validation checks the destination's
    copy of the relocated input, not the source's: the incremental pass
    (whose cached outcome predates the edit), the brute-force scan and
    the cross-checked pass all report the destination's stale copy."""
    block = BlockSpec("b", [StageSpec("t", [
        LogicalTask("t", read=(10,), write=(2,))])])
    wts = generate_worker_templates(
        ControllerTemplate.from_block(block, [0]), SIZES)
    directory = ObjectDirectory()
    for oid in (2, 10):
        directory.register(LogicalObject(oid, f"o{oid}", 0, 8), 0)
    directory.record_copy(10, 1)
    for _ in range(2):  # a cached outcome and a by-object index, pre-edit
        assert full_validate(wts, directory) == []
    plan_migration(wts, 0, 1, SIZES)
    assert wts.preconditions == {0: (), 1: (10,)}
    directory.record_write(10, 0)  # the destination's copy is stale now
    assert brute_force_validate(wts, directory) == [(1, 10)]
    assert full_validate(wts, directory, cross_check=True) == [(1, 10)]
    directory.record_copy(10, 1)
    assert full_validate(wts, directory, cross_check=True) == []
    directory.record_write(10, 0)
    assert full_validate(wts, directory, cross_check=True) == [(1, 10)]


def test_rejected_move_stops_the_batch_and_keeps_what_was_planned():
    """The moves before a bad one are on the controller half already; the
    batch hands them back, with the error, for the caller to ship."""
    wts = make_batch_wts()
    batch = plan_migrations(wts, [(2, 1), (99, 1), (3, 2)], SIZES)
    assert batch.moves == [(2, 1)] and batch.total_ops == 5
    assert set(batch.edits) == {0, 1}
    assert isinstance(batch.rejected, MigrationError)
    assert wts.task_locations[2][0] == 1 and wts.task_locations[3][0] == 0


def test_conflict_check_is_the_planners_own_validation():
    """``migration_conflict`` says no exactly when ``plan_migration``
    raises, for every (task, destination) of a block with conflicts."""
    verdicts = set()
    for ct_index in range(3):
        for dst in range(3):
            reason = migration_conflict(
                make_wts(assignment=(0, 0, 1)), ct_index, dst)
            wts = make_wts(assignment=(0, 0, 1))
            src = wts.task_locations[ct_index][0]
            try:
                accepted = bool(plan_migration(wts, ct_index, dst, SIZES))
            except MigrationError as err:
                assert str(err) == reason
                accepted = False
            # moving a task to where it is: no plan, and not a candidate
            assert accepted == (reason is None), (ct_index, dst, reason)
            assert (src == dst) == (reason == "task already on destination")
            verdicts.add(reason is None)
    assert verdicts == {True, False}


def test_access_index_follows_the_edits():
    """The controller half's accessor index, built by the first move, is
    what a scan of the edited entry arrays finds after every later one."""
    wts = make_batch_wts()
    for moves in ([(2, 1)], [(3, 2), (2, 2)], [(1, 1)]):
        assert plan_migrations(wts, moves, SIZES).rejected is None
        for worker, entries in wts.entries.items():
            index, scan = wts.access(worker), AccessIndex(entries)
            for oid in SIZES:
                assert list(index.readers(oid)) == list(scan.readers(oid))
                assert list(index.writers(oid)) == list(scan.writers(oid))


class CountingMap(dict):
    """A precondition map that counts the oids of every tuple stored."""

    stored = 0

    def __setitem__(self, worker, oids):
        self.stored += len(oids)
        super().__setitem__(worker, oids)


def stored_by_a_batch(partitions_per_worker, moves):
    """Precondition oids stored while one batch moves ``moves`` tasks from
    worker 0 to worker 2 of a 4-worker LR half, after a warm batch of 8
    (Table 3's scaling measurement, counted instead of timed)."""
    template, sizes = lr_iteration_template(
        4, partitions_per_worker=partitions_per_worker)
    wts = generate_worker_templates(template, sizes)
    mine = [ct for ct, (worker, _i) in sorted(wts.task_locations.items())
            if worker == 0]
    assert plan_migrations(wts, [(ct, 2) for ct in mine[:8]],
                           sizes).rejected is None
    wts.preconditions = CountingMap(wts.preconditions)
    batch = plan_migrations(wts, [(ct, 2) for ct in mine[8:8 + moves]],
                            sizes)
    assert batch.rejected is None and len(batch.moves) == moves
    return wts.preconditions.stored


def test_a_planned_move_rebuilds_no_whole_precondition_tuple():
    """What a move adds to a batch's precondition bookkeeping does not
    grow with the half: 24 more moves store as much at 1 600 partitions
    per worker as at 100. Rebuilding the source's and destination's
    tuples on every move stored about twice the half per move."""
    per_move = {}
    for size in (100, 1600):
        few, many = (stored_by_a_batch(size, moves) for moves in (8, 32))
        per_move[size] = (many - few) / 24
    assert per_move[1600] <= 2 * per_move[100] + 1, per_move

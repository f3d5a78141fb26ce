"""Unit tests for controller templates (Figure 5a).

A controller template is a table — the block's task list and a parallel
worker array — and stores no dependencies: the task-level dependency
rules are checked where they are derived, on the ``before`` sets of the
worker templates generated from it (all tasks on one worker, so every
dependency is a local one and no copy is inserted).
"""

import pytest

from repro.core.controller_template import ControllerTemplate
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.worker_template import generate_worker_templates


def simple_block():
    """Two producers feeding a consumer, plus an in-place update."""
    return BlockSpec("blk", [
        StageSpec("produce", [
            LogicalTask("f", read=(), write=(1,)),
            LogicalTask("f", read=(), write=(2,)),
        ]),
        StageSpec("consume", [
            LogicalTask("g", read=(1, 2), write=(3,), param_slot="p"),
        ]),
        StageSpec("update", [
            LogicalTask("h", read=(3,), write=(3,)),
        ]),
    ], returns={"out": 3})


def one_worker_entries(block):
    """The entries generated for ``block`` with every task on worker 0."""
    template = ControllerTemplate.from_block(block, [0] * block.num_tasks)
    entries = generate_worker_templates(template, {}).entries[0]
    assert [e.ct_index for e in entries] == list(range(block.num_tasks))
    return entries


def test_from_block_structure():
    template = ControllerTemplate.from_block(simple_block(), [0, 1, 0, 0])
    assert template.num_tasks == 4
    assert template.block_id == "blk"
    assert template.workers == [0, 1, 0, 0]
    assert template.returns == {"out": 3}


def test_from_block_rejects_wrong_count():
    with pytest.raises(ValueError):
        ControllerTemplate.from_block(simple_block(), [0])


def test_read_after_write_dependencies():
    consumer = one_worker_entries(simple_block())[2]
    assert set(consumer.before) == {0, 1}


def test_write_after_read_and_write_dependencies():
    updater = one_worker_entries(simple_block())[3]
    # h writes object 3: it must follow g (the writer); h also reads 3
    assert updater.before == (2,)


def test_anti_dependency_on_readers():
    block = BlockSpec("war", [
        StageSpec("s1", [LogicalTask("f", read=(), write=(1,))]),
        StageSpec("s2", [LogicalTask("g", read=(1,), write=(2,)),
                         LogicalTask("g", read=(1,), write=(3,))]),
        StageSpec("s3", [LogicalTask("f", read=(), write=(1,))]),
    ])
    overwriter = one_worker_entries(block)[3]
    # the overwrite of object 1 must wait for both readers
    assert set(overwriter.before) == {0, 1, 2}


def test_param_slots_cached_not_values():
    template = ControllerTemplate.from_block(simple_block(), [0, 1, 0, 0])
    assert template.tasks[2].param_slot == "p"
    instance = template.instantiate(100, {"p": 42})
    assert instance.param_of(2) == 42
    assert instance.param_of(0) is None


def test_instantiate_task_ids_index_into_array():
    template = ControllerTemplate.from_block(simple_block(), [0, 1, 0, 0])
    instance = template.instantiate(1000, {})
    assert [instance.task_id(i) for i in range(4)] == [1000, 1001, 1002, 1003]


def test_instantiations_share_fixed_structure():
    template = ControllerTemplate.from_block(simple_block(), [0, 1, 0, 0])
    a = template.instantiate(10, {"p": 1})
    b = template.instantiate(20, {"p": 2})
    assert a.template is b.template
    assert a.task_id(2) != b.task_id(2)


def test_reassign_and_queries():
    assignment = [0, 1, 0, 0]
    template = ControllerTemplate.from_block(simple_block(), assignment)
    template.reassign(2, 1)
    assert template.workers == [0, 1, 1, 0]
    assert template.assignment() == [0, 1, 1, 0]
    assert template.assignment() is not template.workers
    assert assignment == [0, 1, 0, 0]  # the caller's list is not the table


def test_signature_matches_block():
    block = simple_block()
    template = ControllerTemplate.from_block(block, [0, 1, 0, 0])
    assert template.tasks == [task for stage in block.stages
                              for task in stage.tasks]


def test_structure_signature_ignores_ids_not_structure():
    a = simple_block()
    b = simple_block()
    assert a.structure_signature() == b.structure_signature()
    c = BlockSpec("blk", [StageSpec("produce", [
        LogicalTask("f", read=(), write=(9,))])])
    assert c.structure_signature() != a.structure_signature()

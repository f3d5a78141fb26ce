"""Unit tests for worker-template generation and instantiation (Fig. 5b)."""

import pytest

from repro.core.controller_template import ControllerTemplate
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.worker_template import (TemplateEntry, WorkerHalf,
                                        generate_worker_templates)
from repro.nimbus.commands import CommandKind
from repro.nimbus.crosscheck import copy_tag, instantiate_entries

SIZES = {oid: 64 for oid in range(1, 20)}


def gen(block, assignment, sizes=SIZES):
    template = ControllerTemplate.from_block(block, assignment)
    return generate_worker_templates(template, sizes)


def producer_consumer_block():
    return BlockSpec("pc", [
        StageSpec("produce", [LogicalTask("f", read=(), write=(1,))]),
        StageSpec("consume", [LogicalTask("g", read=(1,), write=(2,))]),
    ])


def test_local_dependency_no_copies():
    wts = gen(producer_consumer_block(), [0, 0])
    entries = wts.entries[0]
    assert [e.kind for e in entries] == [CommandKind.TASK, CommandKind.TASK]
    assert entries[1].before == (0,)
    assert wts.num_commands() == 2


def test_structural_copy_between_workers():
    wts = gen(producer_consumer_block(), [0, 1])
    kinds0 = [e.kind for e in wts.entries[0]]
    kinds1 = [e.kind for e in wts.entries[1]]
    assert kinds0 == [CommandKind.TASK, CommandKind.SEND]
    assert kinds1 == [CommandKind.RECV, CommandKind.TASK]
    send = wts.entries[0][1]
    recv = wts.entries[1][0]
    assert send.dst_worker == 1 and send.dst_index == recv.index
    assert recv.src_worker == 0
    # the consumer depends on the receive
    assert wts.entries[1][1].before == (0,)
    # copies carry the object size for the network model
    assert send.size_bytes == 64


def test_copy_reused_for_multiple_consumers_on_same_worker():
    block = BlockSpec("multi", [
        StageSpec("p", [LogicalTask("f", read=(), write=(1,))]),
        StageSpec("c", [LogicalTask("g", read=(1,), write=(2,)),
                        LogicalTask("g", read=(1,), write=(3,))]),
    ])
    wts = gen(block, [0, 1, 1])
    sends = [e for e in wts.entries[0] if e.kind == CommandKind.SEND]
    assert len(sends) == 1  # one copy feeds both consumers


def test_preconditions_from_pre_block_reads():
    block = BlockSpec("pre", [
        StageSpec("s", [LogicalTask("g", read=(1, 2), write=(3,))]),
    ])
    wts = gen(block, [0])
    assert wts.preconditions == {0: (1, 2)}


def test_objects_written_before_read_are_not_preconditions():
    wts = gen(producer_consumer_block(), [0, 0])
    assert wts.preconditions.get(0, ()) == ()


def test_postcondition_closure_restores_preconditions():
    """The paper's param example: read everywhere, written at the end."""
    block = BlockSpec("loop", [
        StageSpec("grad", [LogicalTask("g", read=(10, 1), write=(2,)),
                           LogicalTask("g", read=(10, 3), write=(4,))]),
        StageSpec("update", [LogicalTask("u", read=(2, 4, 10), write=(10,))]),
    ])
    # gradient tasks on workers 0 and 1; update on worker 0
    wts = gen(block, [0, 1, 0])
    # object 10 is a precondition on both workers and is rewritten at the
    # end on worker 0 — the closure must ship it back to worker 1
    assert 10 in wts.preconditions[1]
    sends = [e for e in wts.entries[0]
             if e.kind == CommandKind.SEND and e.read == (10,)]
    assert sends, "closure copy of object 10 missing"
    assert wts.delta.final_holders[10] >= {0, 1}


def test_directory_delta_counts_writes():
    block = BlockSpec("wc", [
        StageSpec("a", [LogicalTask("f", read=(), write=(1,))]),
        StageSpec("b", [LogicalTask("f", read=(1,), write=(1,))]),
    ])
    wts = gen(block, [0, 0])
    assert wts.delta.write_counts[1] == 2
    assert wts.delta.final_holders[1] == frozenset({0})


def test_report_flag_on_final_writer_of_returned_object():
    block = BlockSpec("ret", [
        StageSpec("a", [LogicalTask("f", read=(), write=(5,))]),
        StageSpec("b", [LogicalTask("f", read=(5,), write=(5,))]),
    ], returns={"x": 5})
    wts = gen(block, [0, 1])
    assert wts.report_entries == {1: [wts.task_locations[1][1]]}
    worker1_entries = wts.entries[1]
    reporters = [e for e in worker1_entries if e.report]
    assert len(reporters) == 1
    assert reporters[0].kind == CommandKind.TASK


def test_anti_dependency_local_readers_before_recv():
    """A RECV overwriting an object must wait for local readers of the old
    version (write-after-read)."""
    block = BlockSpec("war", [
        StageSpec("read_old", [LogicalTask("g", read=(1,), write=(2,))]),
        StageSpec("rewrite", [LogicalTask("f", read=(), write=(1,))]),
        StageSpec("read_new", [LogicalTask("g", read=(1,), write=(3,))]),
    ])
    # reader0 on worker 0; writer on worker 1; reader2 back on worker 0
    wts = gen(block, [0, 1, 0])
    recvs = [e for e in wts.entries[0] if e.kind == CommandKind.RECV]
    assert len(recvs) == 1
    # the recv overwrites object 1, so it must follow the stage-1 reader
    assert 0 in recvs[0].before


def test_task_locations_map():
    wts = gen(producer_consumer_block(), [0, 1])
    assert wts.task_locations[0] == (0, 0)
    assert wts.task_locations[1] == (1, 1)


def test_workers_and_counts():
    wts = gen(producer_consumer_block(), [0, 1])
    assert sorted(wts.workers()) == [0, 1]
    assert wts.entry_count(0) == 2
    assert wts.num_commands() == 4


class TestInstantiation:
    def make_half(self, assignment=(0, 1)):
        wts = gen(producer_consumer_block(), list(assignment))
        halves = {
            w: WorkerHalf("pc", 0, entries, [])
            for w, entries in wts.entries.items()
        }
        return wts, halves

    def test_cids_rebased_from_base(self):
        _wts, halves = self.make_half()
        commands = instantiate_entries(halves[0].entries, 0, instance_id=7,
                                       cid_base=100, params={})
        assert [c.cid for c in commands] == [100, 101]
        assert commands[1].before == (100,)  # the send follows the producer
        commands2 = instantiate_entries(halves[1].entries, 1, instance_id=7,
                                        cid_base=200, params={})
        assert commands2[1].before == (200,)  # task after its recv

    def test_copy_tags_match_across_workers(self):
        _wts, halves = self.make_half()
        send = instantiate_entries(halves[0].entries, 0, 7, 100, {})[1]
        recv = instantiate_entries(halves[1].entries, 1, 7, 200, {})[0]
        assert send.tag == recv.tag == copy_tag(7, 1, 0)

    def test_different_instances_different_tags(self):
        _wts, halves = self.make_half()
        first = instantiate_entries(halves[0].entries, 0, 7, 100, {})[1]
        second = instantiate_entries(halves[0].entries, 0, 8, 300, {})[1]
        assert first.tag != second.tag

    def test_params_resolved_through_slots(self):
        block = BlockSpec("p", [StageSpec("s", [
            LogicalTask("f", read=(), write=(1,), param_slot="alpha")])])
        wts = gen(block, [0])
        half = WorkerHalf("p", 0, wts.entries[0], [])
        cmd = instantiate_entries(half.entries, 0, 1, 10, {"alpha": 3.5})[0]
        assert cmd.params == 3.5

    def test_unknown_kind_rejected(self):
        class SaveEntry(TemplateEntry):  # a kind no template holds
            __slots__ = ()
            kind = CommandKind.SAVE

        entry = SaveEntry()
        entry.index, entry.before = 0, ()
        with pytest.raises(ValueError):
            instantiate_entries([entry], 0, 1, 0, {})

"""The central scheduler on a hand-built directory: worker assignment,
copy insertion, command-id order, return reporting and the directory's
planned state."""

import pytest

from repro.nimbus import NimbusCluster
from repro.nimbus.commands import CommandKind
from repro.nimbus.data import LogicalObject

from .helpers import combine_registry

pytestmark = pytest.mark.guard


@pytest.fixture
def controller():
    cluster = NimbusCluster(3, lambda job: iter(()),
                            registry=combine_registry())
    return cluster.controller


def define(controller, oid, home):
    ctx = controller.jobs[0]
    ctx.directory.register(LogicalObject(oid, f"v{oid}", 0, 64),
                           ctx.placement.place(home))


def schedule(controller, worker, read=(), write=(), returns_rev=None):
    """Schedule one task on ``worker`` in a fresh run; return the run and
    the emitted ``(command, report)`` pairs in order."""
    run = controller._new_run(controller.jobs[0], "b", 1, "central")
    emitted = []
    controller.central.schedule_task(
        run, "f", tuple(read), tuple(write), worker, None,
        returns_rev or {}, lambda cmd, report: emitted.append((cmd, report)))
    return run, emitted


def test_assign_worker_anchor_rules(controller):
    assign = controller.central.assign_worker
    ctx = controller.jobs[0]
    define(controller, 1, 2)
    define(controller, 5, 1)
    # write anchor wins
    assert assign(ctx, read=(5,), write=(1,)) == 2
    # read anchor as fallback
    assert assign(ctx, read=(5,), write=()) == 1
    # no objects at all: deterministic fallback
    assert assign(ctx, read=(), write=()) == 0


def test_stale_read_copies_from_the_lowest_latest_holder(controller):
    define(controller, 1, home=2)
    directory = controller.jobs[0].directory
    directory.record_copy(1, 0)  # latest now on 2 and 0, in that order
    assert directory.holders_of_latest(1) == [2, 0]
    run, emitted = schedule(controller, worker=1, read=(1,))
    kinds = [cmd.kind for cmd, _report in emitted]
    assert kinds == [CommandKind.SEND, CommandKind.RECV, CommandKind.TASK]
    send, recv, task = (cmd for cmd, _report in emitted)
    assert (send.worker, send.dst_worker) == (0, 1)
    assert (recv.worker, recv.src_worker) == (1, 0)
    assert task.worker == 1
    assert run.outstanding == 3


def test_fresh_read_inserts_no_copy(controller):
    define(controller, 1, home=2)
    run, emitted = schedule(controller, worker=2, read=(1,))
    assert [cmd.kind for cmd, _report in emitted] == [CommandKind.TASK]
    assert run.outstanding == 1


def test_cids_are_allocated_send_recv_task(controller):
    define(controller, 1, home=0)
    define(controller, 2, home=2)
    base = controller._next_cid
    _run, emitted = schedule(controller, worker=1, read=(1, 2))
    cids = [cmd.cid for cmd, _report in emitted]
    assert cids == list(range(base, base + 5))
    assert [cmd.kind for cmd, _report in emitted] == [
        CommandKind.SEND, CommandKind.RECV,
        CommandKind.SEND, CommandKind.RECV, CommandKind.TASK]
    assert controller._next_cid == base + 5


def test_only_writes_of_block_returns_report(controller):
    define(controller, 3, home=1)
    define(controller, 4, home=1)
    run, emitted = schedule(controller, worker=1, write=(3,),
                            returns_rev={3: "out"})
    (task, report), = emitted
    assert report is True
    assert run.return_cids == {task.cid: "out"}
    run, emitted = schedule(controller, worker=1, write=(4,),
                            returns_rev={3: "out"})
    assert [report for _cmd, report in emitted] == [False]
    assert run.return_cids == {}
    # copies never report, even when the task they feed does
    run, emitted = schedule(controller, worker=2, read=(4,), write=(3,),
                            returns_rev={3: "out"})
    assert [report for _cmd, report in emitted] == [False, False, True]


def test_directory_records_the_copy_and_the_write(controller):
    define(controller, 1, home=0)
    define(controller, 2, home=1)
    directory = controller.jobs[0].directory
    schedule(controller, worker=1, read=(1,), write=(2,))
    # the copy delivered version 0 of object 1 to worker 1
    assert directory.is_fresh(1, 1)
    assert sorted(directory.holders_of_latest(1)) == [0, 1]
    # the write produced version 1 of object 2, held only by its writer
    assert directory.latest_version(2) == 1
    assert directory.holders_of_latest(2) == [1]

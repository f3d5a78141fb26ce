"""The Nimbus control plane command set (§3.4).

The control plane has four major command kinds: *data* commands (create /
destroy objects), *copy* commands (modeled as an asynchronous SEND half on
the source worker and a RECV half on the destination), *file* commands
(load / save objects from durable storage), and *task* commands (execute an
application function).

Every command has five fields — a unique identifier, a read set, a write
set, a *before set* of same-worker command ids that must complete first, and
a parameter blob. Task commands add a sixth field, the application function.

Copy matching: a SEND pushes its payload as soon as its before set is
satisfied; the payload is tagged so the destination worker can match it to
the corresponding RECV even if the data arrives before the RECV has been
enqueued (the push model of §3.4).

The central scheduler sends kind-sized commands (:class:`CentralTask`,
:class:`CentralSend`, :class:`CentralRecv`): each carries only its own
kind's fields, and the rest are class-level defaults. §3.4's before set is
among them, a class-level ``()``: the scheduler never sets one, because
the worker's conflict tracker derives the same order from the read and
write sets. The general :class:`Command` serves tests and the oracle.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Hashable, Iterable, Optional, Tuple

from .data import ObjectId, WorkerId

CommandId = int


class CommandKind(IntEnum):
    TASK = 0
    SEND = 1
    RECV = 2
    CREATE = 3
    DESTROY = 4
    LOAD = 5
    SAVE = 6


class Command:
    """A concrete, runnable command dispatched to (or instantiated on) a worker.

    ``before`` contains ids of commands *on the same worker*; remote
    dependencies are always encoded through copy commands (§3.4).
    """

    __slots__ = (
        "cid", "kind", "function", "read", "write", "before", "params",
        "worker", "dst_worker", "tag", "size_bytes",
        # worker-local scheduling state, stamped by Worker._enqueue:
        # outstanding-dependency count, (block_seq, report) metadata (a
        # pair shared by the command's batch) and the successors — one
        # bare, a list from the second on
        "_rem", "_wmeta", "_succ",
        # always None here: the worker tells these commands from a
        # compiled frame's (repro.core.compiled.FrameCommand, which owns
        # an arena and a resolved TaskFunction) by ``_carena``
        "_carena", "_cfn",
    )

    def __init__(
        self,
        cid: CommandId,
        kind: CommandKind,
        worker: WorkerId,
        read: Tuple[ObjectId, ...] = (),
        write: Tuple[ObjectId, ...] = (),
        before: Iterable[CommandId] = (),
        params: Any = None,
        function: Optional[str] = None,
        dst_worker: Optional[WorkerId] = None,
        tag: Optional[Hashable] = None,
        size_bytes: int = 0,
    ):
        self.cid, self.kind, self.worker = cid, kind, worker
        self.read, self.write = tuple(read), tuple(write)
        self.before = tuple(before)
        self.params, self.function = params, function
        self.dst_worker = dst_worker  # SEND only
        self.tag = tag  # SEND/RECV matching tag
        self.size_bytes = size_bytes  # payload size for copies
        self._carena = self._cfn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fn = f" fn={self.function}" if self.function else ""
        return (f"<Cmd {self.cid} {self.kind.name} w{self.worker}{fn} "
                f"r={self.read} w={self.write} before={self.before}>")


class CentralCommand:
    """A centrally scheduled command: the fields of every kind, the
    worker's scheduling state (as on :class:`Command`), and class-level
    defaults for what a subclass's kind does not carry."""

    __slots__ = ("cid", "worker", "_rem", "_wmeta", "_succ")
    before = read = write = ()
    params = function = dst_worker = tag = _carena = _cfn = None
    size_bytes = 0


class CentralTask(CentralCommand):
    __slots__ = ("function", "read", "write", "params")
    kind = CommandKind.TASK

    def __init__(self, cid, worker, function, read, write, params):
        self.cid, self.worker, self.function = cid, worker, function
        self.read, self.write, self.params = read, write, params


class CentralSend(CentralCommand):
    __slots__ = ("read", "dst_worker", "tag", "size_bytes")
    kind = CommandKind.SEND

    def __init__(self, cid, worker, oid, dst_worker, tag, size_bytes):
        self.cid, self.worker, self.read = cid, worker, (oid,)
        self.dst_worker, self.tag = dst_worker, tag
        self.size_bytes = size_bytes


class CentralRecv(CentralCommand):
    """The payload carries its own size, so a RECV keeps none."""

    __slots__ = ("write", "tag")
    kind = CommandKind.RECV

    def __init__(self, cid, worker, oid, tag):
        self.cid, self.worker, self.write, self.tag = cid, worker, (oid,), tag


def make_task(cid: CommandId, worker: WorkerId, function: str,
              read: Tuple[ObjectId, ...], write: Tuple[ObjectId, ...],
              before: Iterable[CommandId] = (), params: Any = None) -> Command:
    """Construct a task command."""
    return Command(cid, CommandKind.TASK, worker, read=read, write=write,
                   before=before, params=params, function=function)


def make_copy_pair(
    send_cid: CommandId, recv_cid: CommandId, oid: ObjectId, src: WorkerId,
    dst: WorkerId, send_before: Iterable[CommandId] = (),
    recv_before: Iterable[CommandId] = (), size_bytes: int = 0,
) -> Tuple[Command, Command]:
    """Construct a matched (SEND, RECV) copy pair moving ``oid`` src → dst.

    The shared tag is the receive command id, which is unique system-wide.
    """
    tag = ("cid", recv_cid)
    send = Command(send_cid, CommandKind.SEND, src, read=(oid,),
                   before=send_before, dst_worker=dst, tag=tag,
                   size_bytes=size_bytes)
    recv = Command(recv_cid, CommandKind.RECV, dst, write=(oid,),
                   before=recv_before, tag=tag, size_bytes=size_bytes)
    return send, recv

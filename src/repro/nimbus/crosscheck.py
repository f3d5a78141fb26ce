"""In-situ oracle for compiled template instantiation.

The worker runs every template and patch instance on a compiled frame
(``Worker._run_compiled_plan``); this module is the reference semantics
that path is held to. With ``REPRO_CROSS_CHECK=1`` every instantiation is
re-derived the slow way and compared:

* the command fields against :func:`instantiate_entries` — one fresh
  command per entry, filled field by field (Figure 5b) — and the plan
  against a fresh compilation of the entry array (holds every plan an
  edit derived to :func:`compile_plan`);
* the conflict tracker, whose compiled updates are deferred, against
  :class:`TrackerShadow`, an eager one, at every walk and fold;
* the cross-batch dependency edges against the plain conflict-tracker
  walk over ``plan.ext_checks`` (read through the tracker's pending-only
  view, which never folds) — edge for edge and in registration
  order, whether the frame got them from a cached seam or the fallback
  walk. A seam may drop an edge only when
  the same command also waits for a later command of the same frame that
  transitively depends on the dropped edge's source (that edge can never
  be the one that releases it);
* the order of ``_on_ready`` calls made while instantiating against
  :func:`sweep_oracle`, a direct model of enqueueing the batch in two
  passes (register every command, then resolve them one by one);
* the worker's pending index, which finds a frame's commands by their
  cid range, against :class:`PendingShadow`'s ``{cid: command}`` map of
  frame positions, registered one by one and dropped at each completion.

None of this runs, or costs anything, without the switch.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from ..core.compiled import CommandArena, CompiledPlan, compile_plan
from ..core.worker_template import TemplateEntry
from .commands import Command, CommandKind
from .tracker import PendingIndex


def copy_tag(instance_id: Hashable, dst_worker: int, dst_index: int) -> Tuple:
    """Matching tag for a templated SEND/RECV pair.

    Globally unique because instance ids are; computable independently by
    sender and receiver from cached structure plus the instantiation
    message — no controller lookups at runtime (requirement 2 of §3.1).
    """
    return (instance_id, dst_worker, dst_index)


def instantiate_entries(
    entries: List[TemplateEntry],
    worker_id: int,
    instance_id: Hashable,
    cid_base: int,
    params: Dict[str, Any],
) -> List[Command]:
    """Fill a worker half's entries into concrete commands (Figure 5b).

    ``cid = cid_base + index``; before sets are rebased the same way.
    """
    commands: List[Command] = []
    for entry in entries:
        cid = cid_base + entry.index
        before = [cid_base + j for j in entry.before]
        if entry.kind == CommandKind.TASK:
            cmd = Command(
                cid, CommandKind.TASK, worker_id,
                read=entry.read, write=entry.write, before=before,
                params=params.get(entry.param_slot)
                if entry.param_slot else None,
                function=entry.function,
            )
        elif entry.kind == CommandKind.SEND:
            cmd = Command(
                cid, CommandKind.SEND, worker_id,
                read=entry.read, before=before,
                dst_worker=entry.dst_worker,
                tag=copy_tag(instance_id, entry.dst_worker, entry.dst_index),
                size_bytes=entry.size_bytes,
            )
        elif entry.kind == CommandKind.RECV:
            cmd = Command(
                cid, CommandKind.RECV, worker_id,
                write=entry.write, before=before,
                tag=copy_tag(instance_id, worker_id, entry.index),
                size_bytes=entry.size_bytes,
            )
        else:
            raise ValueError(f"unexpected template entry kind {entry.kind}")
        commands.append(cmd)
    return commands


def sweep_oracle(plan: CompiledPlan, waits: List[int]) -> List[int]:
    """Positions in the order a two-pass enqueue of the batch calls
    ``on_ready`` while instantiating, given each position's count of
    unresolved external waits (cross-batch conflicts, a RECV's missing
    payload).

    Two passes, because cached before sets may point *forward* within the
    batch: an edit such as a migrated read-modify-write task makes the
    result RECV (which keeps the task's old, low index) wait for the
    input SEND appended at a higher index (Fig. 6). Inside a batch the
    before sets are the complete order, so the conflict tracker only
    contributes the external waits."""
    rem = [b + w for b, w in zip(plan.init_before, waits)]
    order: List[int] = []

    def fire(pos: int, turn: int) -> None:
        order.append(pos)
        rem[pos] = -1
        if plan.kinds[pos] != CommandKind.TASK:  # completes synchronously
            for t in plan.succ[pos]:
                rem[t] -= 1
                if rem[t] == 0 and t < turn:
                    fire(t, turn)

    for turn in range(plan.m):
        if rem[turn] == 0:
            fire(turn, turn)
    return order


def _successors(cmd: Command) -> List[Command]:
    """The cross-batch successor list of pending ``cmd``."""
    frame = cmd._carena
    if frame is not None:
        return frame.xsucc and frame.xsucc[cmd._cpos] or []
    succs = cmd._succ
    return [] if succs is None else succs if succs.__class__ is list else [
        succs]


class PendingShadow(PendingIndex):
    """The pending index a cross-checked worker runs, held to a plain
    ``{cid: command}`` map of frame positions: a frame's positions enter
    it with the frame and leave it one by one as they complete (through a
    wrapper around the worker's ``_complete``), and every frame lookup
    must find what the map holds."""

    def __init__(self, worker):
        super().__init__()
        self.positions: Dict[int, Command] = {}
        complete = type(worker)._complete

        def checked_complete(cmd, duration: float) -> None:
            if cmd._carena is not None:
                del self.positions[cmd.cid]
            complete(worker, cmd, duration)
        worker._complete = checked_complete

    def add_frame(self, frame: CommandArena) -> None:
        super().add_frame(frame)
        self.positions.update(enumerate(frame.cmds, frame.cid_base))

    def drop_frame(self, frame: CommandArena) -> None:
        super().drop_frame(frame)
        left = [cid for cid in range(frame.cid_base,
                                     frame.cid_base + len(frame.cmds))
                if cid in self.positions]
        if left:
            raise AssertionError(f"frame at {frame.cid_base} left the index "
                                 f"with {left} pending")

    def frame_get(self, cid: int):
        got, want = super().frame_get(cid), self.positions.get(cid)
        if got is not want:
            raise AssertionError(f"pending index finds {got!r} at cid {cid}"
                                 f", the per-command map {want!r}")
        return got

    def clear(self) -> None:
        super().clear()
        self.positions.clear()


class TrackerShadow:
    """The eager conflict tracker a :class:`~repro.nimbus.tracker.
    ConflictTracker` is held to: every compiled net update and central
    command lands the moment it happens. At every walk and fold the two
    must agree on the pending-only view of each object, and a walk the
    tracker skips must be one that would have found nothing."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.last_writer: Dict[int, int] = {}
        self.readers: Dict[int, List[int]] = {}

    def view(self, oid: int) -> Tuple:
        pending = self.tracker.pending
        readers = self.readers.get(oid)
        if readers:  # exact: a completed reader is never a dependency
            readers[:] = [r for r in readers if r in pending]
        writer = self.last_writer.get(oid)
        return writer if writer in pending else None, sorted(readers or ())

    def compare(self, oids=None) -> None:
        """Both views agree on ``oids`` (default: every object this shadow
        has seen, which includes all the deferred tracker holds)."""
        if oids is None:
            oids = self.last_writer.keys() | self.readers.keys()
        for oid in oids:
            got, want = self.tracker.view(oid), self.view(oid)
            if got != want:
                raise AssertionError(
                    f"object {oid}: the deferred tracker reads {got}, the "
                    f"eager one {want} (a fold missing?)")

    def admit(self, plan: CompiledPlan, seam, walk: bool) -> None:
        self.compare({oid for _pos, roids, woids in plan.ext_checks
                      for oid in roids + woids})
        if walk:
            return
        for roids, woids in zip(seam.roids, seam.woids):
            for oid in roids + woids:
                writer, readers = self.view(oid)
                if writer is not None or (oid in woids and readers):
                    raise AssertionError(
                        f"skipped walk: object {oid} has pending "
                        f"{writer}/{readers}")

    def record(self, plan: CompiledPlan, base: int) -> None:
        for oid, p in zip(*plan.net):
            self.last_writer[oid] = base + p
            self.readers[oid] = []
        for pairs in (plan.net_readers, plan.readers_append):
            for oid, p in zip(*pairs):
                self.readers.setdefault(oid, []).append(base + p)

    def resolve(self, cid: int, read, write) -> None:
        for oid in read:
            self.readers.setdefault(oid, []).append(cid)
        for oid in write:
            self.last_writer[oid] = cid
            self.readers[oid] = []

    def clear(self) -> None:
        self.last_writer.clear()
        self.readers.clear()


class FrameCheck:
    """Reference for one instantiation; build it after the frame's tags
    and cid base are written and *before* it registers or links anything."""

    def __init__(self, worker, frame: CommandArena):
        self.worker, self.frame = worker, frame
        plan, pending = frame.plan, worker._pending
        view = worker.tracker.view
        self.edges: Dict[int, List[int]] = {}  # pending cid -> positions
        waits = [0] * plan.m
        for pos, roids, woids in plan.ext_checks:
            deps = set()
            for oid in roids + woids:
                writer, readers = view(oid)
                deps.add(writer)
                if oid in woids:
                    deps.update(readers)
            deps.discard(None)
            for dep in deps:
                self.edges.setdefault(dep, []).append(pos)
                waits[pos] += 1
        for pos, _index in plan.recvs:
            if frame.cmds[pos].tag not in worker._data_buffer:
                waits[pos] += 1
        self.order = sweep_oracle(plan, waits)
        self.marks = {cid: len(_successors(cmd))
                      for cid, cmd in pending.items()}
        self.fired: List[int] = []
        ready = type(worker)._on_ready

        def on_ready(cmd: Command) -> None:
            if cmd._carena is frame:
                self.fired.append(cmd._cpos)
            ready(worker, cmd)
        # shadows the method, so completions nested in the firing pass
        # are recorded too
        worker._on_ready = on_ready

    def verify(self, entries, instance_id, cid_base, params) -> None:
        worker, frame, edges = self.worker, self.frame, self.edges
        worker.__dict__.pop("_on_ready", None)
        plan = frame.plan
        held_by: Dict[int, List[Command]] = {}  # position -> its new preds
        for cid, mark in self.marks.items():
            pred = worker._pending[cid]
            added = [c._cpos for c in _successors(pred)[mark:]]
            if added != sorted(set(added).intersection(edges.get(cid, ()))):
                raise AssertionError(
                    f"frame edges from {cid} are {added}; the tracker walk "
                    f"finds {edges.get(cid)}")
            for pos in added:
                held_by.setdefault(pos, []).append(pred)
        for cid, positions in edges.items():
            pred = worker._pending[cid]
            for pos in positions:
                if pred not in held_by.get(pos, ()) and not any(
                        c._carena is pred._carena and c._carena is not None
                        and c._carena.plan.ancestors()[c._cpos]
                        >> pred._cpos & 1
                        for c in held_by.get(pos, ())):
                    raise AssertionError(
                        f"frame lost the edge {cid} -> position {pos}")
        if self.fired != self.order:
            raise AssertionError(
                f"frame ready order {self.fired} != interpreted order "
                f"{self.order}")
        fresh = compile_plan(entries, plan.reports)
        if fresh.signature() != plan.signature():
            raise AssertionError(
                "compiled plan is stale: compiling the entry array afresh "
                "gives a different plan (an edit derived it wrongly?)")
        ref = instantiate_entries(
            entries, worker.worker_id, instance_id, cid_base, params)
        if len(ref) != plan.m:
            raise AssertionError(
                f"compiled plan has {plan.m} commands; interpreted "
                f"instantiation produced {len(ref)}")
        for i, want in enumerate(ref):
            got, entry = frame.cmds[i], plan.live[i]
            # the frame command's own fields, and what the worker reads
            # off the plan's entry instead: the function, a SEND's
            # destination and size
            fields = [(f, getattr(got, f)) for f in (
                "cid", "kind", "read", "write", "params", "tag")]
            fields.append(("function", entry.function))
            if want.kind == CommandKind.SEND:
                fields += [("dst_worker", entry.dst_worker),
                           ("size_bytes", entry.size_bytes)]
            for field, g in fields:
                w = getattr(want, field)
                if g != w:
                    raise AssertionError(
                        f"compiled command {i} (cid {got.cid}) differs from "
                        f"interpreted: {field}={g!r} != {w!r}")

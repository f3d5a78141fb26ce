"""Compiled execution plans for worker-template halves.

The paper's thesis is that repeated control-plane decisions should be made
once and replayed cheaply. Filling a cached half in entry by entry would
still pay full object churn per instantiation: one fresh :class:`Command`
per entry, dict registration, and per-edge dependency resolution. This
module extends the caching one level down, from *decisions* to the
*dispatch data structures*:

* :func:`compile_plan` turns a worker half's entry array into a
  :class:`CompiledPlan` held as flat per-plan columns, indexed by batch
  position: kinds and report flags as ``bytes``, initial dependency and
  hold counts as ``array`` columns, successors as tuples of positions
  (identical rows are one tuple; a position's own before edges are read
  off its entry when a seam or an edit needs them), and the *miss* rows —
  the positions with a runtime question at instantiation — as a
  :class:`Seam` of five parallel columns. The batch's *net* effect on
  the worker's object-conflict tracker is three *pair tables* — two
  parallel arrays, ``(oids, positions)``, in object order: per written
  object its final writer (``net``) and trailing readers
  (``net_readers``), and the readers of the objects it only reads
  (``readers_append``);
* :class:`CommandArena` is the pooled *frame* one instance runs on: one
  slim :class:`FrameCommand` per position, carrying only what the worker
  reads per instance (a SEND reads its destination and size off the
  plan's entry), plus the flat per-instance state — the dependency counts
  ``rem`` (a list: it is read and written per task), the command-id
  base, the instance record — held once per frame instead of on every
  command. Arenas are pooled per plan because the driver pipelines
  instances, so several instances of the same block can be in flight on
  a worker at once;
* :func:`derive_plan` carries a plan across an edit of its half: the
  columns are copied (C-speed) and only what the edit ops touch is
  redone, so an edit costs what it changes and not a recompilation
  (PAPER.md, Edits);
* :func:`build_seam` caches the *cross*-instance edges of a (predecessor
  plan, plan) pair: every conflict check whose tracker state is fully
  determined by the predecessor's net update becomes a tuple of
  predecessor positions, so replay is indexing instead of oid-keyed dict
  walks.

This is the only way a worker runs a template or patch instance. It is
semantics-preserving by construction: a frame waits on the same commands
(minus edges another edge implies), fires ready positions in the same
order, and triggers the same synchronous completions as filling the
entries in one by one and enqueueing them in two passes. That reference
lives in ``repro.nimbus.crosscheck``; under ``REPRO_CROSS_CHECK=1`` every
instantiation is re-derived through it — fields, cross-instance edges,
ready order, and a fresh compilation of the entry array (which is what
holds every derived plan to :func:`compile_plan`) — and any difference
raises.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..nimbus.commands import CommandKind


#: a read-only object's reader list is pruned of completed readers once
#: it has grown by its own (pruned) length, and never more often than this
READERS_PRUNE_MIN = 8


def _zeros(n: int) -> array:
    return array("i", [0]) * n


def _pairs(oids: List[int], rows: Dict[int, List[int]]):
    """The positions ``rows`` holds for ``oids`` (ascending) as a pair
    table: two parallel arrays, ``(oids, positions)``, one pair per
    position."""
    return (array("q", [oid for oid in oids for _ in rows[oid]]),
            array("i", [p for oid in oids for p in rows[oid]]))


def positions_of(pairs: Tuple[array, array], oid: int) -> array:
    """The positions a pair table holds for ``oid``."""
    oids, poss = pairs
    return poss[bisect_left(oids, oid):bisect_right(oids, oid)]


def _replaced(pairs: Tuple[array, array], changes: Dict[int, Any]):
    """A copy of a pair table with the positions of the objects
    ``changes`` names replaced (``()`` for none): slices, C-speed."""
    oids, poss = pairs[0][:], pairs[1][:]
    for oid, row in changes.items():
        lo, hi = bisect_left(oids, oid), bisect_right(oids, oid)
        if hi - lo != len(row):
            oids[lo:hi] = array("q", [oid]) * len(row)
        if row or hi > lo:
            poss[lo:hi] = array("i", row)
    return oids, poss


class FrameCommand:
    """One position of a frame: only what the worker reads per instance.
    The entry's other fields stay on the plan's entry (``function`` below;
    a SEND reads its destination and size there), and the command id is
    the frame's ``cid_base`` plus ``_cpos`` (``cid`` below; only traced
    and cross-checked runs ask a frame command for it). A TASK position
    is a :class:`FrameTask`, any other a :class:`FrameCopy`: each keeps
    six fields, and a field the other kind has is None on its class."""

    __slots__ = ("read", "write", "_cpos", "_carena")

    @staticmethod
    def build(arena: "CommandArena", pos: int, e, registry):
        if e.kind == CommandKind.TASK:
            cmd = FrameTask()
            cmd.params = cmd._cfn = None
            if registry is not None:
                try:
                    cmd._cfn = registry.get(e.function)
                except KeyError:
                    pass
        else:
            cmd = FrameCopy()
            cmd.kind, cmd.tag = e.kind, None
        cmd.read, cmd.write = e.read, e.write
        cmd._cpos, cmd._carena = pos, arena
        return cmd

    @property
    def function(self) -> Optional[str]:
        return self._carena.plan.live[self._cpos].function

    @property
    def cid(self) -> int:
        return self._carena.cid_base + self._cpos


class FrameTask(FrameCommand):
    __slots__ = ("params", "_cfn")
    kind, tag = CommandKind.TASK, None


class FrameCopy(FrameCommand):
    __slots__ = ("kind", "tag")
    params = _cfn = None


class CommandArena:
    """The frame one compiled instance runs on (pooled per plan).

    ``rem[pos]`` is the outstanding-dependency count of the command at
    ``pos`` (-1 once it completed, which is how a later instance asks
    "is this predecessor still pending?"), ``cid_base + pos`` its command
    id, ``xsucc[pos]`` its cross-instance successors (commands of later
    frames, or centrally dispatched ones) in registration order — the
    frame-local replacement for the worker's cid-keyed dependents map.
    ``xsucc`` is None until some position gains such a successor; a
    position gets its list then and keeps it, emptied, for the frame's
    next instances.
    ``outstanding`` counts commands not yet completed; the arena returns
    to its plan's pool at zero.

    Ownership is a tree — worker → half → plan → pool → frame → commands
    — and ``cmd._carena`` / ``frame.plan`` are the only pointers up it.
    ``frame.plan`` is the plan of the instance the frame runs or last ran
    (:meth:`CompiledPlan.acquire` sets it): an idle frame that
    :func:`derive_plan` moved to the derived plan's pool still names the
    plan whose net update it applied, which is what a seam lookup on the
    tail wants to know. A frame that leaves the tree (its plan retired,
    its instance abandoned by a halt) is dismantled, so reference counting
    frees it: the event loop runs with the cycle collector off (DESIGN.md
    §13).
    """

    __slots__ = ("plan", "cmds", "rem", "cid_base", "xsucc", "record",
                 "outstanding")

    def __init__(self, plan: "CompiledPlan", cmds: List[FrameCommand]):
        self.plan = plan
        self.cmds = cmds
        self.rem: Optional[List[int]] = None
        self.cid_base = 0
        self.xsucc: Optional[List[Optional[list]]] = None
        self.record = None
        self.outstanding = 0

    def release(self) -> None:
        self.record = None
        self.outstanding = 0
        pool = self.plan.pool
        if pool is None:
            self.dismantle()  # the plan was retired while this one ran
        else:
            pool.append(self)

    def dismantle(self) -> None:
        """Cut the commands' back-pointers: this frame never runs again,
        so nothing of it is outstanding."""
        self.outstanding = 0
        for cmd in self.cmds:
            cmd._carena = None


class Seam:
    """Instantiation rows of a plan after one predecessor (build_seam),
    as five parallel columns: ``pos``; ``preds``, positions of the
    predecessor frame that are dependencies iff still pending;
    ``roids``/``woids``, the objects left to the tracker walk; ``recv``,
    whether the position is a RECV. A seam shares ``pos`` and ``recv``
    with its plan's miss rows."""

    __slots__ = ("pos", "preds", "roids", "woids", "recv", "covered",
                 "fallback")

    def __init__(self, pos: array, preds: Tuple, roids: Tuple, woids: Tuple,
                 recv: bytes, covered: int, fallback: int):
        self.pos, self.preds, self.recv = pos, preds, recv
        self.roids, self.woids = roids, woids
        self.covered = covered  # ext-check oids answered by ``preds``
        self.fallback = fallback  # ext-check oids left to the tracker

    def rows(self) -> Tuple:
        return tuple(zip(self.pos, self.preds, self.roids, self.woids,
                         self.recv))


class CompiledPlan:
    """Flat per-position columns of one worker half's entry array.

    All columns are indexed by *batch position* (entries in entry order),
    which is also the entry index command ids are based on: edits replace
    or append, never leave a hole.
    """

    __slots__ = (
        "live", "reports", "m", "kinds", "init_before",
        "succ", "sends", "recvs", "param_slots",
        "report_flags", "report_positions", "net", "net_readers",
        "readers_append",
        "init_hold", "held", "miss", "anc", "pool",
    )

    def __init__(self) -> None:
        #: idle frames; None once the plan is retired
        self.pool: Optional[List[CommandArena]] = []
        self.anc: Optional[List[int]] = None

    @property
    def ext_checks(self) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
        """``(pos, roids, woids)`` for every access that faces pre-batch
        tracker state (the miss rows minus bare roots and RECVs)."""
        miss = self.miss
        return [(pos, roids, woids)
                for pos, roids, woids in zip(miss.pos, miss.roids, miss.woids)
                if roids or woids]

    def ancestors(self) -> List[int]:
        """Per position, the bitmask of the positions it transitively
        depends on inside the batch (built on first use: seams only)."""
        if self.anc is None:
            counts = self.init_before.tolist()
            order = [p for p, n in enumerate(counts) if not n]
            for p in order:  # topological: before sets may point forward
                for t in self.succ[p]:
                    counts[t] -= 1
                    if not counts[t]:
                        order.append(t)
            self.anc = anc = [0] * self.m
            for p in order:  # each p is complete before it passes on
                bit = anc[p] | 1 << p
                for t in self.succ[p]:
                    anc[t] |= bit
        return self.anc

    # ------------------------------------------------------------------
    # Arena pooling
    # ------------------------------------------------------------------
    def acquire(self, registry=None) -> CommandArena:
        pool = self.pool
        if pool:
            arena = pool.pop()
            arena.plan = self
        else:
            arena = CommandArena(self, [])
            arena.cmds = [FrameCommand.build(arena, pos, e, registry)
                          for pos, e in enumerate(self.live)]
        arena.outstanding = self.m
        return arena

    def retire(self) -> None:
        """This plan will never be instantiated again (its half was
        edited or released): take the pooled frames apart now — after an
        edit there are none, the derived plan has them; frames still in
        flight follow as they drain (:meth:`CommandArena.release`).
        """
        pool, self.pool = self.pool, None
        for arena in pool:
            arena.dismantle()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Small summary dict (trace labels, debugging) — no entry data.

        ``seam_covered``/``seam_fallback`` split the ext-check oids of a
        steady replay (this plan following itself) into those its seam
        answers and those left to the tracker walk.
        """
        seam = build_seam(self, self)
        return {
            "commands": self.m,
            "sends": len(self.sends),
            "recvs": len(self.recvs),
            "reports": len(self.report_positions),
            "param_slots": len(self.param_slots),
            "ext_checks": len(self.ext_checks),
            "rows": len(self.miss.pos),
            "seam_covered": seam.covered,
            "seam_fallback": seam.fallback,
        }

    # ------------------------------------------------------------------
    # Cross-check support
    # ------------------------------------------------------------------
    def signature(self) -> Tuple:
        """Everything derived from the entry array, as plain values —
        equal signatures mean the plan matches the (possibly re-edited)
        entries it claims to represent."""
        return (
            self.m, tuple(self.kinds),
            tuple(self.init_before), tuple(self.succ),
            tuple(self.sends), tuple(self.recvs),
            tuple(self.param_slots), tuple(self.report_flags),
            tuple(self.report_positions), self.miss.rows(),
            tuple(self.init_hold), tuple(self.held),
            # per object, in object order: a derived plan keeps its
            # tables sorted like a fresh compilation's
            tuple(zip(*self.net)), tuple(zip(*self.net_readers)),
            tuple(zip(*self.readers_append)),
        )


def compile_plan(entries: List[Any], reports) -> CompiledPlan:
    """Compile a worker half's entry array into a :class:`CompiledPlan`.

    The compilation simulates a command-by-command resolution sweep
    symbolically: the before-set edges between positions, which
    read/write accesses face *pre-batch* state (and therefore need the
    runtime conflict tracker consulted), and what net update the batch
    applies to the tracker (intra-batch churn collapses to the final
    writer plus the trailing readers of each object).
    """
    plan = CompiledPlan()
    live = list(entries)
    m = len(live)
    plan.live = live
    plan.reports = frozenset(reports)
    plan.m = m
    kinds = [e.kind for e in live]
    plan.kinds = bytes(kinds)

    # --- before-set edges (intra-batch dependency graph) --------------
    before_pos: List[List[int]] = []  # kept as counts and successors
    for pos, e in enumerate(live):
        if e.index != pos:
            raise ValueError(f"entry {e.index} sits at position {pos}")
        before_pos.append(_deps(e, m))
    plan.init_before = array("i", map(len, before_pos))
    # successors as int positions, appended in resolution (position)
    # order — the order a per-command sweep would build its dependents in;
    # identical rows are one tuple
    succ: List[List[int]] = [[] for _ in live]
    forward = set()  # positions an *earlier* position waits for (edits)
    for pos, deps in enumerate(before_pos):
        for p in deps:
            succ[p].append(pos)
            if p > pos:
                forward.add(p)
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    plan.succ = [shared.setdefault(row, row) for row in map(tuple, succ)]

    # --- per-kind instantiation data ----------------------------------
    plan.sends = [
        (pos, e.dst_worker, e.dst_index)
        for pos, e in enumerate(live) if e.kind == CommandKind.SEND
    ]
    plan.recvs = [
        (pos, e.index)
        for pos, e in enumerate(live) if e.kind == CommandKind.RECV
    ]
    plan.param_slots = [
        (pos, e.param_slot)
        for pos, e in enumerate(live)
        if e.kind == CommandKind.TASK and e.param_slot
    ]
    plan.report_flags = bytes([e.index in plan.reports for e in live])
    plan.report_positions = [
        pos for pos, flag in enumerate(plan.report_flags) if flag
    ]

    # --- external (cross-batch) conflict checks -----------------------
    # Only accesses that face pre-batch tracker state need runtime checks:
    # reads before the first in-batch write of their object, and the first
    # in-batch write of each object (later writes see in-batch state,
    # which the batch's own before sets already order completely). An
    # earlier position is an earlier turn unless it waits for this one
    # (``forward``; see _faces_pre_batch).
    #
    # Instantiation decides per position, in entry order: the miss rows
    # are the positions with a runtime question (such a check, a RECV's
    # payload, or a root that may be ready on the spot). ``held`` are the
    # non-roots that can still become ready while the instance is being
    # set up — every dependency completes synchronously, i.e. none is a
    # TASK. They start with one extra *hold* count, released when the
    # firing pass reaches their position, so a synchronous completion
    # earlier in the pass can never fire them ahead of their turn.
    rows = []
    held = []
    init_hold = list(map(len, before_pos))
    writers: Dict[int, List[int]] = {}
    readers: Dict[int, List[int]] = {}
    final_writer_pos: Dict[int, int] = {}
    task, recv = CommandKind.TASK, CommandKind.RECV
    for pos, e in enumerate(live):
        roids: List[int] = []
        woids: List[int] = []
        waited_for = pos in forward
        for oid in e.read:
            if oid not in roids and (oid not in writers or (
                    waited_for
                    and _faces_pre_batch(pos, writers[oid], plan.succ))):
                roids.append(oid)
        for oid in e.write:
            if oid not in woids and (oid not in writers or (
                    waited_for
                    and _faces_pre_batch(pos, writers[oid], plan.succ))):
                woids.append(oid)
        deps = before_pos[pos]
        if roids or woids or e.kind == recv or not deps:
            rows.append((pos, _oids(roids, e.read), _oids(woids, e.write),
                         e.kind == recv))
        if deps and not any(kinds[d] == task for d in deps):
            held.append(pos)
            init_hold[pos] += 1
        for oid in e.read:
            lst = readers.get(oid)
            if lst is None:
                readers[oid] = [pos]
            else:
                lst.append(pos)
        for oid in e.write:
            writers.setdefault(oid, []).append(pos)
            final_writer_pos[oid] = pos
            readers[oid] = []
    plan.held = array("i", held)
    plan.init_hold = array("i", init_hold)
    rpos, rroids, rwoids, rrecv = zip(*rows) if rows else ((),) * 4
    plan.miss = Seam(array("i", rpos), ((),) * len(rpos), rroids, rwoids,
                     bytes(rrecv), 0,
                     sum(map(len, rroids)) + sum(map(len, rwoids)))

    # --- net conflict-tracker update ----------------------------------
    # per written object its final writer and trailing readers, plus the
    # readers gained by objects the batch never writes; keyed by object
    # so that an edit redoes only the objects it touches
    written = sorted(final_writer_pos)
    plan.net = (array("q", written),
                array("i", [final_writer_pos[oid] for oid in written]))
    plan.net_readers = _pairs(written, readers)
    plan.readers_append = _pairs(sorted(
        oid for oid, lst in readers.items() if oid not in writers and lst),
        readers)
    return plan


def _deps(e, m: int) -> List[int]:
    """The before edges of entry ``e`` in a batch of ``m``: the positions
    it names, in order, once each, itself and those outside left out."""
    deps: List[int] = []
    seen = set()
    for p in e.before:
        if 0 <= p < m and p != e.index and p not in seen:
            seen.add(p)
            deps.append(p)
    return deps


def _oids(kept: List[int], accessed: Tuple[int, ...]) -> Tuple[int, ...]:
    """``kept`` — the objects of ``accessed`` (an entry's or a row's
    tuple) a row keeps, in order and without repeats — as a tuple:
    ``accessed`` itself when it kept them all."""
    return accessed if len(kept) == len(accessed) else tuple(kept)


def _faces_pre_batch(pos: int, writers, succ) -> bool:
    """Whether an access at ``pos`` sees what was there before the batch:
    none of the object's ``writers`` (ascending positions) comes first. An
    earlier *position* is not an earlier *turn* when the writer names
    ``pos`` in its before set, i.e. is one of ``succ[pos]`` — the guard a
    migration puts on the entry that overwrites an input the migrated task
    shares (Fig. 6's forward reference): that task reads the pre-batch
    version, and must wait for whoever is still producing it. (Direct
    waits only: that is the shape edits produce; generated templates have
    no forward references.)"""
    waiting = succ[pos]
    for q in writers:
        if q >= pos:
            break
        if q not in waiting:
            return False
    return True


def derive_plan(plan: CompiledPlan, entries: List[Any], access,
                touched: Iterable[int], reports,
                registry=None) -> CompiledPlan:
    """The plan of ``entries`` — ``plan``'s entry array after an edit that
    replaced or appended the entries at indices ``touched`` — without
    compiling it: equal in :meth:`~CompiledPlan.signature` to
    ``compile_plan(entries, reports)``, which the oracle checks at every
    instantiation under ``REPRO_CROSS_CHECK=1``.

    ``plan`` is left as it is, because frames of it may be in flight;
    only its *idle* frames move to the derived plan, with new commands at
    the touched positions. The columns are copied (rows are tuples and are
    shared) and then redone where the edit reaches:

    * a touched position: its kind and per-kind row, report flag, before
      edges and the successor rows of its old and new dependencies;
    * the *hold* of a touched position and of its successors (a TASK
      replaced by a RECV can turn a successor into a held one);
    * the miss rows of the touched positions, of the dependencies they
      gained or lost (:func:`_faces_pre_batch`) and of every accessor of
      an object whose writers changed, and the net tracker update of every
      object a touched entry reads or writes — both looked up in
      ``access``, the half's :class:`~repro.core.worker_template.AccessIndex`
      (already edited), instead of swept.

    Requires an array whose before sets name entries of the array they
    were written against, which is what migration planning produces;
    ``anc`` stays lazy.
    """
    task, send, recv = CommandKind.TASK, CommandKind.SEND, CommandKind.RECV
    old_live, n = plan.live, plan.m
    touched = sorted(touched)
    new = CompiledPlan()
    new.live = live = list(entries)
    new.m = m = len(live)
    new.reports = frozenset(reports)
    pad = m - n
    kinds = bytearray(plan.kinds) + bytes(pad)
    init_before = plan.init_before + _zeros(pad)
    new.succ = succ = plan.succ + [()] * pad
    report_flags = bytearray(plan.report_flags) + bytes(pad)
    new.report_positions = report_positions = plan.report_positions[:]
    new.sends = sends = plan.sends[:]
    new.recvs = recvs = plan.recvs[:]
    new.param_slots = param_slots = plan.param_slots[:]

    def drop(rows, pos):  # the row of ``pos`` in a position-ordered list
        del rows[bisect_left(rows, (pos,))]

    changed = set()  # objects whose readers or writers changed
    rewritten = set()  # ... whose writers changed
    redo = set(touched)  # positions whose miss row may have changed
    for t in touched:
        e = live[t]
        reads, writes = e.read, e.write
        if t < n:
            old = old_live[t]
            # the same accesses as before (a replace that only guards an
            # entry with one more dependency) change nothing per object
            reads = () if old.read == reads else old.read + reads
            writes = () if old.write == writes else old.write + writes
            if old.kind == send:
                drop(sends, t)
            elif old.kind == recv:
                drop(recvs, t)
            elif old.kind == task and old.param_slot:
                drop(param_slots, t)
        changed.update(reads)
        changed.update(writes)
        rewritten.update(writes)
        kinds[t] = e.kind
        if e.kind == send:
            insort(sends, (t, e.dst_worker, e.dst_index))
        elif e.kind == recv:
            insort(recvs, (t, e.index))
        elif e.kind == task and e.param_slot:
            insort(param_slots, (t, e.param_slot))
        if (t in reports) != report_flags[t]:
            report_flags[t] ^= 1
            if report_flags[t]:
                insort(report_positions, t)
            else:
                report_positions.remove(t)
        # before edges. Migration edits only *add* dependencies (the
        # result RECV waits for the input SENDs too, a guarded entry for
        # the migrated task): then the old ones stand and only the new
        # tail is linked, however long the before set is
        keep = plan.init_before[t] if t < n else 0
        if not (t < n and keep == len(old.before)
                and e.before[:keep] == old.before):
            was = _deps(old, n) if t < n else ()
            keep = 0
            redo.update(was)
            for d in was:
                succ[d] = tuple(q for q in succ[d] if q != t)
        fresh = []
        for j in e.before[keep:]:
            if 0 <= j < m and j != t and t not in succ[j]:
                row = list(succ[j])
                insort(row, t)
                succ[j] = tuple(row)
                fresh.append(j)
        init_before[t] = keep + len(fresh)
        redo.update(fresh)  # what t writes first, they may now see before
    new.kinds = bytes(kinds)
    new.report_flags = bytes(report_flags)
    new.init_before = init_before

    # --- holds: a non-root none of whose dependencies is a TASK ----------
    new.init_hold = init_hold = plan.init_hold + _zeros(pad)
    held = list(plan.held)
    recheck = set(touched)
    for t in touched:
        recheck.update(succ[t])
    for p in recheck:
        hold = bool(init_before[p]) and not any(
            kinds[d] == task for d in live[p].before if 0 <= d < m and d != p)
        if hold != (p < n and plan.init_hold[p] != plan.init_before[p]):
            if hold:
                insort(held, p)
            else:
                held.remove(p)
        init_hold[p] = init_before[p] + hold
    new.held = array("i", held)

    # --- miss rows: accesses that face pre-batch tracker state -----------
    readers_of, writers_of = access.readers, access.writers
    for oid in rewritten:
        redo.update(readers_of(oid))
        redo.update(writers_of(oid))
    miss = plan.miss
    rpos, rrecv = array("i", miss.pos), bytearray(miss.recv)
    rroids, rwoids = list(miss.roids), list(miss.woids)
    fallback = miss.fallback
    for p in redo:
        e = live[p]
        roids: List[int] = []
        for oid in e.read:
            if oid not in roids and _faces_pre_batch(
                    p, writers_of(oid), succ):
                roids.append(oid)
        woids: List[int] = []
        for oid in e.write:
            if oid not in woids and _faces_pre_batch(
                    p, writers_of(oid), succ):
                woids.append(oid)
        at = bisect_left(rpos, p)
        had = at < len(rpos) and rpos[at] == p
        if had:
            fallback -= len(rroids[at]) + len(rwoids[at])
        if roids or woids or e.kind == recv or not init_before[p]:
            row = (_oids(roids, e.read), _oids(woids, e.write),
                   e.kind == recv)
            fallback += len(roids) + len(woids)
            if had:
                rroids[at], rwoids[at], rrecv[at] = row
            else:
                for column, value in zip((rpos, rroids, rwoids, rrecv),
                                         (p,) + row):
                    column.insert(at, value)
        elif had:
            del rpos[at], rroids[at], rwoids[at], rrecv[at]
    new.miss = Seam(rpos, ((),) * len(rpos), tuple(rroids), tuple(rwoids),
                    bytes(rrecv), 0, fallback)

    # --- net conflict-tracker update of the changed objects --------------
    net, trailing, appended = {}, {}, {}
    for oid in changed:
        readers, writers = readers_of(oid), writers_of(oid)
        net[oid] = trailing[oid] = appended[oid] = ()
        if writers:
            net[oid] = writers[-1:]
            trailing[oid] = readers[bisect_right(readers, writers[-1]):]
        else:
            appended[oid] = readers
    new.net = _replaced(plan.net, net)
    new.net_readers = _replaced(plan.net_readers, trailing)
    new.readers_append = _replaced(plan.readers_append, appended)

    # --- idle frames: new commands where the entries changed -------------
    for frame in plan.pool:
        cmds = frame.cmds
        for t in touched:
            cmd = FrameCommand.build(frame, t, live[t], registry)
            if t < n:
                cmds[t] = cmd
            else:
                cmds.append(cmd)
                if frame.xsucc is not None:
                    frame.xsucc.append(None)
    new.pool, plan.pool = plan.pool, []
    return new


def build_seam(pred: CompiledPlan, plan: CompiledPlan) -> Seam:
    """Cache the conflict edges between an instance of ``pred`` and the
    instance of ``plan`` enqueued right after it.

    Valid only while ``pred``'s net update is the last thing that touched
    the worker's conflict tracker: then, for an object ``pred`` wrote,
    the tracker holds exactly ``pred``'s final writer and trailing
    readers, so a check on it can only find those positions. Objects
    ``pred`` did not write (read-only history, other blocks' data) keep
    the tracker walk; a position that *writes* one is left to the walk
    entirely, because its reader list may mix ``pred``'s commands with
    older ones and the per-command dependency set must stay
    duplicate-free. A candidate that another candidate transitively
    depends on is dropped: it completes first, so its edge can never be
    the one that releases the command. Identical ``preds`` rows are one
    tuple.
    """
    anc = pred.ancestors()
    last = dict(zip(*pred.net))  # oid -> its final writer in ``pred``
    trailing: Dict[int, List[int]] = {}
    for oid, p in zip(*pred.net_readers):
        trailing.setdefault(oid, []).append(p)
    miss = plan.miss
    preds_col, roids_col, woids_col = [], [], []
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    covered = fallback = 0
    for roids, woids in zip(miss.roids, miss.woids):
        preds = set()
        for oid in woids:
            if oid not in last:
                preds = None  # an uncovered write: the walk takes it all
                break
            preds.add(last[oid])
            preds.update(trailing.get(oid, ()))
        if preds is None:
            fallback += len(roids) + len(woids)
            preds = ()
        elif roids or woids:
            left = []
            for oid in roids:
                if oid in last:
                    preds.add(last[oid])
                else:
                    left.append(oid)
            implied = 0
            for q in preds:
                implied |= anc[q]
            covered += len(roids) + len(woids) - len(left)
            fallback += len(left)
            preds = tuple(sorted([q for q in preds if not implied >> q & 1]))
            preds = shared.setdefault(preds, preds)
            roids, woids = _oids(left, roids), ()
        else:
            preds = ()
        preds_col.append(preds)
        roids_col.append(roids)
        woids_col.append(woids)
    if not covered:
        return miss
    return Seam(miss.pos, tuple(preds_col), tuple(roids_col),
                tuple(woids_col), miss.recv, covered, fallback)

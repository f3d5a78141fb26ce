"""Compiled execution plans for worker-template halves.

The paper's thesis is that repeated control-plane decisions should be made
once and replayed cheaply. Filling a cached half in entry by entry would
still pay full object churn per instantiation: one fresh :class:`Command`
per entry, dict registration, and per-edge dependency resolution. This
module extends the caching one level down, from *decisions* to the
*dispatch data structures*:

* :func:`compile_plan` turns a worker half's entry array into a
  struct-of-arrays :class:`CompiledPlan` — flat arrays of initial
  dependency counts, successors as int positions, precomputed send/recv
  tag ingredients, parameter slots, the rows that need a runtime
  decision at instantiation, and the *net* effect of the batch on the
  worker's object-conflict tracker;
* :class:`CommandArena` is the pooled *frame* one instance runs on: an
  array of :class:`Command` objects matching the plan (static fields are
  written once when the arena is built; only tags and parameters are
  rewritten per instance) plus the flat per-instance state — dependency
  counts, the command-id base, the instance record — held once per frame
  instead of on every command. Arenas are pooled per plan because the driver
  pipelines instances, so several instances of the same block can be in
  flight on a worker at once;
* :func:`derive_plan` carries a plan across an edit of its half: the
  arrays are copied and only what the edit ops touch is redone, so an
  edit costs what it changes and not a recompilation (PAPER.md, Edits);
* :func:`build_seam` caches the *cross*-instance edges of a (predecessor
  plan, plan) pair: every conflict check whose tracker state is fully
  determined by the predecessor's net update becomes a list of
  predecessor positions, so replay is list indexing instead of oid-keyed
  dict walks.

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

from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..nimbus.commands import Command, CommandKind


#: a read-only object's reader list is pruned of completed readers once
#: it has grown by its own (pruned) length, and never more often than this
READERS_PRUNE_MIN = 8


class CommandArena:
    """The frame one compiled instance runs on (pooled per plan).

    ``rem[pos]`` is the outstanding-dependency count of the command at
    ``pos`` (-1 once it completed, which is how a later instance asks
    "is this predecessor still pending?"), ``cid_base + pos`` its command
    id, ``xsucc[pos]`` its cross-instance successors (commands of later
    frames, or centrally dispatched ones) in registration order — the
    frame-local replacement for the worker's cid-keyed dependents map.
    A position gets its list when it gains its first such successor and
    keeps it, emptied, for the frame's next instances; until then it is
    None.
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

    def __init__(self, plan: "CompiledPlan", cmds: List[Command]):
        self.plan = plan
        self.cmds = cmds
        self.rem: List[int] = []
        self.cid_base = 0
        self.xsucc: List[Optional[List[Command]]] = [None] * len(cmds)
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
    """Instantiation rows of a plan after one predecessor (build_seam).

    ``rows`` holds ``(pos, preds, roids, woids, is_recv)`` for every
    position with a runtime question at instantiation: ``preds`` are
    positions of the predecessor frame that are dependencies iff still
    pending; ``roids``/``woids`` are the objects left to the tracker walk.
    """

    __slots__ = ("rows", "covered", "fallback")

    def __init__(self, rows, covered: int, fallback: int):
        self.rows = rows
        self.covered = covered  # ext-check oids answered by ``preds``
        self.fallback = fallback  # ext-check oids left to the tracker


class CompiledPlan:
    """Struct-of-arrays execution plan for one worker half's entry array.

    All arrays are indexed by *batch position* (entries in entry order),
    which is also the entry index command ids are based on: edits replace
    or append, never leave a hole.
    """

    __slots__ = (
        "live", "reports", "m", "kinds", "init_before",
        "before_pos", "succ", "sends", "recvs", "param_slots",
        "report_flags", "report_positions", "net", "readers_append",
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
        return [(pos, roids, woids)
                for pos, _preds, roids, woids, _recv in self.miss.rows
                if roids or woids]

    def ancestors(self) -> List[int]:
        """Per position, the bitmask of the positions it transitively
        depends on inside the batch (built on first use: seams only)."""
        if self.anc is None:
            counts = self.init_before[:]
            order = [p for p, deps in enumerate(self.before_pos) if not deps]
            for p in order:  # topological: before sets may point forward
                for t in self.succ[p]:
                    counts[t] -= 1
                    if not counts[t]:
                        order.append(t)
            self.anc = anc = [0] * self.m
            for p in order:
                for d in self.before_pos[p]:
                    anc[p] |= anc[d] | 1 << d
        return self.anc

    # ------------------------------------------------------------------
    # Arena pooling
    # ------------------------------------------------------------------
    def acquire(self, worker_id: int, registry=None) -> CommandArena:
        pool = self.pool
        if pool:
            arena = pool.pop()
            arena.plan = self
        else:
            arena = self._build_arena(worker_id, registry)
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

    def _build_arena(self, worker_id: int, registry) -> CommandArena:
        arena = CommandArena(self, [None] * self.m)
        cmds = arena.cmds
        for pos, e in enumerate(self.live):
            cmds[pos] = _frame_command(arena, pos, e, worker_id, registry)
        return arena

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
            "rows": len(self.miss.rows),
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
            tuple(self.init_before), tuple(self.before_pos),
            tuple(self.succ), tuple(self.sends), tuple(self.recvs),
            tuple(self.param_slots), tuple(self.report_flags),
            tuple(self.report_positions), tuple(self.miss.rows),
            tuple(self.init_hold), tuple(self.held),
            # per object, and applied as independent updates: insertion
            # order is not semantics (a derived plan keeps its parent's)
            tuple(sorted(self.net.items())),
            tuple(sorted(self.readers_append.items())),
        )


def _frame_command(arena: CommandArena, pos: int, e, worker_id: int,
                   registry) -> Command:
    """The command at ``pos`` of ``arena``, static fields from entry ``e``."""
    cmd = Command(
        -1, e.kind, worker_id, read=e.read, write=e.write,
        function=e.function, dst_worker=e.dst_worker,
        src_worker=e.src_worker, size_bytes=e.size_bytes,
    )
    cmd._cpos = pos
    cmd._carena = arena
    if registry is not None and e.kind == CommandKind.TASK:
        try:
            cmd._cfn = registry.get(e.function)
        except KeyError:
            pass
    return cmd


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
    plan.kinds = [e.kind for e in live]

    # --- before-set edges (intra-batch dependency graph) --------------
    before_pos: List[Tuple[int, ...]] = []
    forward = set()  # positions an *earlier* position waits for (edits)
    for pos, e in enumerate(live):
        if e.index != pos:
            raise ValueError(f"entry {e.index} sits at position {pos}")
        deps: List[int] = []
        seen = set()
        for p in e.before:
            if 0 <= p < m and p != pos and p not in seen:
                seen.add(p)
                deps.append(p)
                if p > pos:
                    forward.add(p)
        before_pos.append(tuple(deps))
    plan.before_pos = before_pos
    plan.init_before = [len(d) for d in before_pos]
    # successors as int positions, appended in resolution (position)
    # order — the order a per-command sweep would build its dependents in
    succ: List[List[int]] = [[] for _ in live]
    for pos, deps in enumerate(before_pos):
        for p in deps:
            succ[p].append(pos)
    plan.succ = [tuple(targets) for targets in succ]

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
    plan.report_flags = [e.index in plan.reports for e in live]
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
    # Instantiation decides per position, in entry order: ``rows`` are the
    # positions with a runtime question (such a check, a RECV's payload,
    # or a root that may be ready on the spot). ``held`` are the non-roots
    # that can still become ready while the instance is being set up —
    # every dependency completes synchronously, i.e. none is a TASK. They
    # start with one extra *hold* count, released when the firing pass
    # reaches their position, so a synchronous completion earlier in the
    # pass can never fire them ahead of their turn.
    rows = []
    held = []
    plan.init_hold = list(plan.init_before)
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
            rows.append((pos, (), _oids(roids, e.read), _oids(woids, e.write),
                         e.kind == recv))
        if deps and not any(plan.kinds[d] == task for d in deps):
            held.append(pos)
            plan.init_hold[pos] += 1
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
    plan.held = tuple(held)
    plan.miss = Seam(rows, 0, sum(len(r[2]) + len(r[3]) for r in rows))

    # --- net conflict-tracker update ----------------------------------
    # ``oid -> (final writer, trailing readers)`` per written object, plus
    # the readers gained by objects the batch never writes; keyed by
    # object so that an edit redoes only the objects it touches
    plan.net = {
        oid: (pos, tuple(readers[oid]))
        for oid, pos in final_writer_pos.items()
    }
    plan.readers_append = {
        oid: tuple(lst) for oid, lst in readers.items()
        if oid not in writers and lst
    }
    return plan


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
                touched: Iterable[int], reports, worker_id: int,
                registry=None) -> CompiledPlan:
    """The plan of ``entries`` — ``plan``'s entry array after an edit that
    replaced or appended the entries at indices ``touched`` — without
    compiling it: equal in :meth:`~CompiledPlan.signature` to
    ``compile_plan(entries, reports)``, which the oracle checks at every
    instantiation under ``REPRO_CROSS_CHECK=1``.

    ``plan`` is left as it is, because frames of it may be in flight;
    only its *idle* frames move to the derived plan, with new commands at
    the touched positions. The arrays are copied (rows are tuples and are
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
    new.kinds = kinds = plan.kinds + [None] * pad
    new.before_pos = before_pos = plan.before_pos + [()] * pad
    new.init_before = init_before = plan.init_before + [0] * pad
    new.succ = succ = plan.succ + [()] * pad
    new.report_flags = report_flags = plan.report_flags + [False] * pad
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
            report_flags[t] = not report_flags[t]
            if report_flags[t]:
                insort(report_positions, t)
            else:
                report_positions.remove(t)
        # before edges. Migration edits only *add* dependencies (the
        # result RECV waits for the input SENDs too, a guarded entry for
        # the migrated task): then the old ones stand and only the new
        # tail is linked, however long the before set is
        was = before_pos[t]
        keep = len(was)
        if not (t < n and keep == len(old.before)
                and e.before[:keep] == old.before):
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
        before_pos[t] = was[:keep] + tuple(fresh)
        init_before[t] = keep + len(fresh)
        redo.update(fresh)  # what t writes first, they may now see before

    # --- holds: a non-root none of whose dependencies is a TASK ----------
    new.init_hold = init_hold = plan.init_hold + [0] * pad
    held = list(plan.held)
    recheck = set(touched)
    for t in touched:
        recheck.update(succ[t])
    for p in recheck:
        deps = before_pos[p]
        hold = bool(deps) and not any(kinds[d] == task for d in deps)
        if hold != (p < n and plan.init_hold[p] != plan.init_before[p]):
            if hold:
                insort(held, p)
            else:
                held.remove(p)
        init_hold[p] = init_before[p] + hold
    new.held = tuple(held)

    # --- miss rows: accesses that face pre-batch tracker state -----------
    readers_of, writers_of = access.readers, access.writers
    for oid in rewritten:
        redo.update(readers_of(oid))
        redo.update(writers_of(oid))
    rows = plan.miss.rows[:]
    fallback = plan.miss.fallback
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
        at = bisect_left(rows, (p,))
        had = at < len(rows) and rows[at][0] == p
        if had:
            fallback -= len(rows[at][2]) + len(rows[at][3])
        if roids or woids or e.kind == recv or not before_pos[p]:
            row = (p, (), _oids(roids, e.read), _oids(woids, e.write),
                   e.kind == recv)
            fallback += len(roids) + len(woids)
            if had:
                rows[at] = row
            else:
                rows.insert(at, row)
        elif had:
            del rows[at]
    new.miss = Seam(rows, 0, fallback)

    # --- net conflict-tracker update of the changed objects --------------
    new.net = net = plan.net.copy()
    new.readers_append = readers_append = plan.readers_append.copy()
    for oid in changed:
        readers, writers = readers_of(oid), writers_of(oid)
        net.pop(oid, None)
        readers_append.pop(oid, None)
        if writers:
            last = writers[-1]
            net[oid] = (last, tuple(readers[bisect_right(readers, last):]))
        elif readers:
            readers_append[oid] = tuple(readers)

    # --- idle frames: new commands where the entries changed -------------
    for frame in plan.pool:
        cmds = frame.cmds
        for t in touched:
            cmd = _frame_command(frame, t, live[t], worker_id, registry)
            if t < n:
                cmds[t] = cmd
            else:
                cmds.append(cmd)
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
    the one that releases the command.
    """
    net = pred.net
    anc = pred.ancestors()
    rows, covered, fallback = [], 0, 0
    for row in plan.miss.rows:
        pos, _preds, roids, woids, is_recv = row
        preds = set()
        for oid in woids:
            if oid not in net:
                preds = None  # an uncovered write: the walk takes it all
                break
            writer, readers = net[oid]
            preds.add(writer)
            preds.update(readers)
        if preds is None:
            fallback += len(roids) + len(woids)
        elif roids or woids:
            left = []
            for oid in roids:
                if oid in net:
                    preds.add(net[oid][0])
                else:
                    left.append(oid)
            implied = 0
            for q in preds:
                implied |= anc[q]
            covered += len(roids) + len(woids) - len(left)
            fallback += len(left)
            row = (pos, tuple(sorted([q for q in preds
                                      if not implied >> q & 1])),
                   _oids(left, roids), (), is_recv)
        rows.append(row)
    if not covered:
        return plan.miss
    return Seam(rows, covered, fallback)

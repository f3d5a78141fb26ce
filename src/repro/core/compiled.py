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
  counts, command ids, the instance record — held once per frame instead
  of on every command. Arenas are pooled per plan because the driver
  pipelines instances, so several instances of the same block can be in
  flight on a worker at once;
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
ready order, and a fresh compilation of the entry array (stale plan after
an edit) — and any difference raises.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..nimbus.commands import Command, CommandKind


#: a read-only object's reader list is pruned of completed readers once
#: it has grown by its own (pruned) length, and never more often than this
READERS_PRUNE_MIN = 8


class CommandArena:
    """The frame one compiled instance runs on (pooled per plan).

    ``rem[pos]`` is the outstanding-dependency count of the command at
    ``pos`` (-1 once it completed, which is how a later instance asks
    "is this predecessor still pending?"), ``cids[pos]`` its command id,
    ``xsucc[pos]`` its cross-instance successors (commands of later
    frames, or centrally dispatched ones) in registration order — the
    frame-local replacement for the worker's cid-keyed dependents map.
    ``outstanding`` counts commands not yet completed; the arena returns
    to its plan's pool at zero.

    Ownership is a tree — worker → half → plan → pool → frame → commands
    — and ``cmd._carena`` / ``frame.plan`` are the only pointers up it.
    A frame that leaves the tree (its plan retired, its instance
    abandoned by a halt) is dismantled, so reference counting frees it:
    the event loop runs with the cycle collector off (DESIGN.md §13).
    """

    __slots__ = ("plan", "cmds", "rem", "cids", "xsucc", "record",
                 "outstanding")

    def __init__(self, plan: "CompiledPlan", cmds: List[Command]):
        self.plan = plan
        self.cmds = cmds
        self.rem: List[int] = []
        self.cids: List[int] = []
        self.xsucc: List[List[Command]] = [[] for _ in cmds]
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
        """Cut the commands' back-pointers: this frame never runs again."""
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

    All arrays are indexed by *batch position* (live entries in entry
    order); ``index[pos]`` maps back to the original entry index, which is
    what command ids are based on (tombstoned indices stay reserved).
    """

    __slots__ = (
        "live", "reports", "m", "index", "kinds", "init_before",
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
        else:
            arena = self._build_arena(worker_id, registry)
        arena.outstanding = self.m
        return arena

    def retire(self) -> None:
        """This plan will never be instantiated again (its half was
        edited or released): take the pooled frames apart now; frames
        still in flight follow as they drain (:meth:`CommandArena.release`).
        """
        pool, self.pool = self.pool, None
        for arena in pool:
            arena.dismantle()

    def _build_arena(self, worker_id: int, registry) -> CommandArena:
        cmds: List[Command] = []
        for e in self.live:
            cmd = Command(
                -1, e.kind, worker_id, read=e.read, write=e.write,
                function=e.function, dst_worker=e.dst_worker,
                src_worker=e.src_worker, size_bytes=e.size_bytes,
            )
            cmds.append(cmd)
        arena = CommandArena(self, cmds)
        for pos, cmd in enumerate(cmds):
            cmd._cpos = pos
            cmd._carena = arena
            if registry is not None and cmd.kind == CommandKind.TASK:
                try:
                    cmd._cfn = registry.get(cmd.function)
                except KeyError:
                    pass
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
            self.m, tuple(self.index), tuple(self.kinds),
            tuple(self.init_before), tuple(self.before_pos),
            tuple(self.succ), tuple(self.sends), tuple(self.recvs),
            tuple(self.param_slots), tuple(self.report_flags),
            tuple(self.report_positions), tuple(self.miss.rows),
            tuple(self.init_hold), tuple(self.held), tuple(self.net),
            tuple(self.readers_append),
        )


def compile_plan(entries: List[Optional[Any]], reports) -> CompiledPlan:
    """Compile a worker half's entry array into a :class:`CompiledPlan`.

    The compilation simulates a command-by-command resolution sweep
    symbolically: which before-set edges survive tombstoning, which
    read/write accesses face *pre-batch* state (and therefore need the
    runtime conflict tracker consulted), and what net update the batch
    applies to the tracker (intra-batch churn collapses to the final
    writer plus the trailing readers of each object).
    """
    plan = CompiledPlan()
    live = [e for e in entries if e is not None]
    m = len(live)
    plan.live = live
    plan.reports = frozenset(reports)
    plan.m = m
    pos_of: Dict[int, int] = {}
    for pos, e in enumerate(live):
        pos_of[e.index] = pos
    plan.index = [e.index for e in live]
    plan.kinds = [e.kind for e in live]

    # --- before-set edges (intra-batch dependency graph) --------------
    before_pos: List[Tuple[int, ...]] = []
    for pos, e in enumerate(live):
        deps: List[int] = []
        seen = set()
        for j in e.before:
            p = pos_of.get(j)
            if p is not None and p != pos and p not in seen:
                seen.add(p)
                deps.append(p)
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
    # which the batch's own before sets already order completely).
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
    written: set = set()
    readers: Dict[int, List[int]] = {}
    final_writer_pos: Dict[int, int] = {}
    task, recv = CommandKind.TASK, CommandKind.RECV
    for pos, e in enumerate(live):
        roids: List[int] = []
        woids: List[int] = []
        for oid in e.read:
            if oid not in written and oid not in roids:
                roids.append(oid)
        for oid in e.write:
            if oid not in written and oid not in woids:
                woids.append(oid)
        deps = before_pos[pos]
        if roids or woids or e.kind == recv or not deps:
            rows.append((pos, (), tuple(roids), tuple(woids), e.kind == recv))
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
            written.add(oid)
            final_writer_pos[oid] = pos
            readers[oid] = []
    plan.held = tuple(held)
    plan.miss = Seam(rows, 0, sum(len(r[2]) + len(r[3]) for r in rows))

    # --- net conflict-tracker update ----------------------------------
    # one ``(oid, final writer, trailing readers)`` row per written
    # object, plus the readers gained by objects the batch never writes
    plan.net = [
        (oid, pos, tuple(readers[oid]))
        for oid, pos in final_writer_pos.items()
    ]
    plan.readers_append = [
        (oid, tuple(lst)) for oid, lst in readers.items()
        if oid not in written and lst
    ]
    return plan


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
    writer = {oid: pos for oid, pos, _poss in pred.net}
    readers = {oid: poss for oid, _pos, poss in pred.net}
    anc = pred.ancestors()
    rows, covered, fallback = [], 0, 0
    for row in plan.miss.rows:
        pos, _preds, roids, woids, is_recv = row
        preds = set()
        for oid in woids:
            if oid not in writer:
                preds = None  # an uncovered write: the walk takes it all
                break
            preds.add(writer[oid])
            preds.update(readers[oid])
        if preds is None:
            fallback += len(roids) + len(woids)
        elif roids or woids:
            left = []
            for oid in roids:
                if oid in writer:
                    preds.add(writer[oid])
                else:
                    left.append(oid)
            implied = 0
            for q in preds:
                implied |= anc[q]
            covered += len(roids) + len(woids) - len(left)
            fallback += len(left)
            row = (pos, tuple(sorted([q for q in preds
                                      if not implied >> q & 1])),
                   tuple(left), (), is_recv)
        rows.append(row)
    if not covered:
        return plan.miss
    return Seam(rows, covered, fallback)

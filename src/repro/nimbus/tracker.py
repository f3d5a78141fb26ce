"""The worker's object-conflict tracker (§3.1, requirement 1).

Per object, the last command that wrote it and the commands that read it
since: a new command waits for the pending ones among them. Centrally
dispatched commands resolve against the tracker one by one
(:meth:`ConflictTracker.resolve`) and leave it as they complete
(:meth:`ConflictTracker.forget`); a compiled template or patch instance
takes most of its cross-instance edges from a cached seam
(:func:`repro.core.compiled.build_seam`) and walks only the objects the
seam leaves (:meth:`ConflictTracker.walk`).

A compiled instance's *net* update is deferred (DESIGN.md §9). While
successive instances of one plan replay through a covering seam, each
appends ``(plan, cid_base, rem)`` to the chain instead of rewriting the maps:
the next instance reads none of it, because its seam answers every object
the plan writes and the objects it walks are ones the plan never writes.
:meth:`ConflictTracker.fold` writes the chain into the maps before
anything else reads them, and is the only code that writes a compiled
instance's update.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..core.compiled import (READERS_PRUNE_MIN, CommandArena, CompiledPlan,
                             Seam, positions_of)
from .commands import Command
from .multijob import OID_STRIDE


class PendingIndex:
    """The worker's pending commands by id, read like a ``{cid: command}``
    dict (DESIGN.md §9). A centrally dispatched command is a ``central``
    entry from its enqueue to its completion. A compiled instance's frame
    is registered once, from before its firing pass until its last
    command completes: position ``p`` runs command ``cid_base + p`` and is
    pending while ``rem[p] >= 0``, so a frame cid is found by a binary
    search over the live frames' bases, with no entry per command."""

    __slots__ = ("central", "_bases", "_frames")

    def __init__(self) -> None:
        self.central: Dict[int, Command] = {}
        #: live frames sorted by ``cid_base``, and those bases (an array:
        #: no int object per frame)
        self._bases = array("q")
        self._frames: List[CommandArena] = []

    def add_frame(self, frame: CommandArena) -> None:
        i = bisect_left(self._bases, frame.cid_base)
        self._bases.insert(i, frame.cid_base)
        self._frames.insert(i, frame)

    def drop_frame(self, frame: CommandArena) -> None:
        """``frame``'s last command completed (or its instance was
        abandoned)."""
        i = bisect_left(self._bases, frame.cid_base)
        del self._bases[i]
        del self._frames[i]

    def frame_get(self, cid: int):
        """The pending frame command with id ``cid``, else None."""
        bases = self._bases
        if bases:
            i = bisect_right(bases, cid) - 1
            if i >= 0:
                frame = self._frames[i]
                pos, rem = cid - bases[i], frame.rem
                if pos < len(rem) and rem[pos] >= 0:
                    return frame.cmds[pos]
        return None

    def get(self, cid):
        cmd = self.central.get(cid)
        if cmd is None and cid is not None:
            cmd = self.frame_get(cid)
        return cmd

    def __contains__(self, cid) -> bool:
        return self.get(cid) is not None

    def __getitem__(self, cid: int):
        cmd = self.get(cid)
        if cmd is None:
            raise KeyError(cid)
        return cmd

    def __len__(self) -> int:
        return len(self.central) + sum(f.outstanding for f in self._frames)

    def items(self) -> Iterator[Tuple[int, object]]:
        """Every pending command with its id: central ones, then each
        frame's pending positions in cid order."""
        yield from self.central.items()
        for frame in self._frames:
            base, cmds = frame.cid_base, frame.cmds
            for pos, n in enumerate(frame.rem):
                if n >= 0:
                    yield base + pos, cmds[pos]

    def clear(self) -> None:
        """Halt: every command is abandoned. A frame that will never drain
        is taken apart, so reference counting frees it (DESIGN.md §9)."""
        for frame in self._frames:
            frame.dismantle()
        self.central.clear()
        del self._bases[:]
        self._frames.clear()


class ConflictTracker:
    """Last writer and readers-since per object, with compiled instances'
    updates deferred to a chain of one plan until something reads them."""

    def __init__(self, pending: PendingIndex):
        self.pending = pending  # the worker's; cleared in place
        self._last_writer: Dict[int, int] = {}
        #: per object, its readers since the last write: a lone reader is
        #: kept bare, a list only from the second on, and no entry means
        #: none
        self._readers_since: Dict[int, Union[int, List[int]]] = {}
        #: per plan, instances left until the reader lists of the objects
        #: it only ever reads are pruned of completed readers
        self._prune_in: Dict[CompiledPlan, int] = {}
        #: deferred instances of one plan, oldest first: ``(plan,
        #: cid_base, rem)``. Not the frame: an idle frame is reacquired
        #: with a fresh ``rem``, and a drained instance's is all -1
        self._chain: List[Tuple[CompiledPlan, int, List[int]]] = []
        #: the frame whose update (folded or not) is the latest, else None;
        #: the next compiled instance may replay its seam against it
        self.tail: Optional[CommandArena] = None
        #: the seam whose last replay since the last fold walked its
        #: objects and found none of them pending
        self._idle: Optional[Seam] = None
        self._found = False
        self.folds = 0  # introspection
        #: REPRO_CROSS_CHECK: the eager tracker this one is held to
        self.shadow = None

    # -- compiled instances --
    def admit(self, plan: CompiledPlan, seam: Seam):
        """Start an instance of ``plan`` replaying ``seam`` (its seam after
        the tail's plan); returns :meth:`walk` for the rows' objects, or
        None when the walk may be skipped. It continues the chain when the
        seam covers and the tail ran ``plan``: a plan's seam after itself
        walks only reads of objects the plan never writes, which the chain
        cannot have changed; anything else folds first. A seam whose last
        replay since the last fold found its walked objects idle is not
        walked again: only a fold writes them, and a completed command
        never becomes pending again."""
        chain = self._chain
        if seam.covered and self.tail.plan is plan:
            assert not chain or chain[-1][2] is self.tail.rem, \
                "the chain must end at the tail"
            walk = self._idle is not seam
        else:
            if chain:
                self.fold()
            walk = True
        self._found = False
        if self.shadow is not None:
            self.shadow.admit(plan, seam, walk)
        return self.walk if walk else None

    def record(self, frame: CommandArena, seam: Seam) -> None:
        """The admitted instance has registered its rows: append its
        update to the chain and make its frame the tail."""
        chain = self._chain
        plan = frame.plan
        assert not chain or chain[0][0] is plan, "a chain holds one plan"
        # an instance whose frame drained adds nothing a fold would keep
        while chain and chain[0][2].count(-1) == plan.m:
            del chain[0]
        chain.append((plan, frame.cid_base, frame.rem))
        self.tail = frame
        self._idle = None if self._found else seam
        if self.shadow is not None:
            self.shadow.record(plan, frame.cid_base)

    def fold(self) -> None:
        """Write the chain into the maps: the readers its instances still
        have in flight, then the last instance's net update, which
        supersedes every earlier one object by object."""
        chain, self._chain = self._chain, []
        self.folds += 1
        self._idle = None
        plan, base, rem = chain[-1]
        readers_since = self._readers_since
        oids, poss = plan.readers_append
        if oids:
            for _plan, ibase, irem in chain:
                if irem.count(-1) == plan.m:
                    continue
                for oid, p in zip(oids, poss):
                    if irem[p] >= 0:
                        lst = readers_since.get(oid)
                        if lst is None:
                            readers_since[oid] = ibase + p
                        elif lst.__class__ is int:
                            readers_since[oid] = [lst, ibase + p]
                        else:
                            lst.append(ibase + p)
            left = self._prune_in.get(plan, READERS_PRUNE_MIN) - len(chain)
            if left <= 0:
                # objects this plan only ever reads are never reset by a
                # write: drop the completed readers once the lists may
                # have doubled
                for oid in dict.fromkeys(oids):
                    if oid in readers_since:
                        left = max(left, self._prune(oid))
                left = max(left, READERS_PRUNE_MIN)
            self._prune_in[plan] = left
        last_writer = self._last_writer
        roids, rposs = plan.net_readers  # in the same object order
        lo, end = 0, len(roids)
        for oid, p in zip(*plan.net):
            if rem[p] >= 0:
                last_writer[oid] = base + p
            else:
                # completed, and so is every earlier writer: each write
                # waited for the one before it
                last_writer.pop(oid, None)
            hi = lo
            while hi < end and roids[hi] == oid:
                hi += 1
            self._store(oid, [base + q for q in rposs[lo:hi] if rem[q] >= 0])
            lo = hi
        if self.shadow is not None:
            self.shadow.compare()

    # -- the walk and central commands --
    def walk(self, roids, woids) -> Optional[Set[Command]]:
        """The pending commands an access reading ``roids`` and writing
        ``woids`` waits for — each object's last writer and a written
        object's readers since — or None if there are none."""
        # no writer skips the probe; a central id is one dict probe, and
        # only a frame's id takes the range search
        central = self.pending.central.get
        frame_get = self.pending.frame_get
        last_writer = self._last_writer
        deps = None
        for oid in roids + woids:
            cid = last_writer.get(oid)
            if cid is None:
                continue
            dep = central(cid)
            if dep is None:
                dep = frame_get(cid)
            if dep is not None:
                if deps is None:
                    deps = {dep}
                else:
                    deps.add(dep)
        readers_since = self._readers_since
        for oid in woids:
            readers = readers_since.get(oid, ())
            if readers.__class__ is int:
                readers = (readers,)
            for reader in readers:
                dep = central(reader)
                if dep is None:
                    dep = frame_get(reader)
                if dep is not None:
                    if deps is None:
                        deps = {dep}
                    else:
                        deps.add(dep)
        if deps is not None:
            self._found = True
        return deps

    def resolve(self, cmd: Command) -> Set[Command]:
        """Walk, then record, one centrally dispatched command; returns the
        pending commands it waits for (possibly none)."""
        if self._chain:
            self.fold()
        self.tail = None  # no compiled instance's update is the latest now
        cid, read, write = cmd.cid, cmd.read, cmd.write
        if self.shadow is not None:
            self.shadow.compare(read + write)
        deps = self.walk(read, write) or set()
        readers_since = self._readers_since
        for oid in read:
            readers = readers_since.get(oid)
            if readers is None:
                readers_since[oid] = cid
            elif readers.__class__ is int:
                readers_since[oid] = [readers, cid]
            else:
                readers.append(cid)  # leaves at its completion (forget)
        last_writer = self._last_writer
        for oid in write:
            last_writer[oid] = cid
            readers_since.pop(oid, None)
        if self.shadow is not None:
            self.shadow.resolve(cid, read, write)
        return deps

    def forget(self, cmd: Command) -> None:
        """A centrally dispatched command completed: drop the entries that
        still name it (exact: a completed command is never a dependency)."""
        cid = cmd.cid
        last_writer = self._last_writer
        for oid in cmd.write:
            if last_writer.get(oid) == cid:
                del last_writer[oid]
        readers_since = self._readers_since
        for oid in cmd.read:
            readers = readers_since.get(oid)
            if readers == cid:
                del readers_since[oid]
            elif readers.__class__ is list and cid in readers:
                readers.remove(cid)
                if len(readers) < 2:
                    self._store(oid, readers)

    def _prune(self, oid: int) -> int:
        """Drop ``oid``'s completed readers (exact: a completed command
        can never become a dependency); returns how many are left."""
        readers = self._readers_since[oid]
        if readers.__class__ is int:
            readers = [readers]
        pending = self.pending
        return self._store(oid, [r for r in readers if r in pending])

    def _store(self, oid: int, readers: List[int]) -> int:
        """Make ``readers`` ``oid``'s readers since its last write: no
        entry for none, the bare id for one; returns how many."""
        n = len(readers)
        if n > 1:
            self._readers_since[oid] = readers
        elif n:
            self._readers_since[oid] = readers[0]
        else:
            self._readers_since.pop(oid, None)
        return n

    # -- plans, tenants, halts --
    def drop_plan(self, plan: CompiledPlan) -> None:
        """``plan`` will never run again: forget its prune countdown, and
        the tail if it is one of its frames — folding the chain first,
        which then holds that plan's instances. A chain of another plan
        stays deferred."""
        if self.tail is not None and self.tail.plan is plan:
            if self._chain:
                self.fold()
            self.tail = None
        self._prune_in.pop(plan, None)

    def scrub(self, jobs=(), oids=()) -> None:
        """Forget the entries of completed commands on the objects of the
        finished or released ``jobs`` (the worker scrubs a released job
        again once the rest have drained), or on ``oids`` (those of a
        freed patch: its completed copies; a deferred chain may read them
        and stays deferred, as a fold writes only pending commands)."""
        pending = self.pending
        writers, readers_since = self._last_writer, self._readers_since
        if jobs:
            if self._chain:
                self.fold()
            self.tail = None
            oids = [o for o in {**writers, **readers_since}
                    if o // OID_STRIDE in jobs]
        for oid in oids:
            if oid in writers and writers[oid] not in pending:
                del writers[oid]
            if oid in readers_since:
                self._prune(oid)

    def clear(self) -> None:
        """Halt: every command is abandoned."""
        self._last_writer.clear()
        self._readers_since.clear()
        self._chain = []
        self.tail = None
        self._idle = None
        if self.shadow is not None:
            self.shadow.clear()

    # -- observation (the oracle and tests): never folds --
    def view(self, oid: int) -> Tuple[Optional[int], List[int]]:
        """What a fold would leave for ``oid``, pending commands only: its
        last writer if pending (else None) and its pending readers, sorted."""
        writer = self._last_writer.get(oid)
        readers = self._readers_since.get(oid, [])
        if readers.__class__ is int:
            readers = [readers]
        for plan, base, _rem in self._chain:
            last = positions_of(plan.net, oid)
            if last:
                writer = base + last[0]
                readers = [base + q
                           for q in positions_of(plan.net_readers, oid)]
            else:
                readers = readers + [
                    base + q for q in positions_of(plan.readers_append, oid)]
        pending = self.pending
        readers = [r for r in readers if r in pending]
        readers.sort()
        return writer if writer in pending else None, readers

    def stats(self) -> Dict[str, int]:
        """Sizes: objects with a writer / with readers, readers held, the
        longest list, plans counting down to a prune, chained instances."""
        lists = [(r,) if r.__class__ is int else r
                 for r in self._readers_since.values()]
        return {"writers": len(self._last_writer),
                "reader_lists": len(lists),
                "readers": sum(map(len, lists)),
                "longest": max(map(len, lists), default=0),
                "plans": len(self._prune_in),
                "chain": len(self._chain)}

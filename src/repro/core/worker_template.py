"""Worker templates (§2.2, §4.1, Figure 5b).

A worker template describes the portion of a basic block that runs on one
worker: its task commands plus the data copies exchanged with other
workers. It has two halves:

* the **controller half** (:class:`WorkerTemplateSet`) represents the whole
  execution across all workers. It caches how tasks are distributed, each
  worker's **preconditions** (data objects that must hold their latest
  version locally when the template starts), and the **directory delta**
  the block applies to the controller's object-version map.
* the **worker half** (:class:`WorkerHalf`) is the per-worker command graph
  cached at the worker, instantiated by filling in a command-id base and a
  parameter block (Figure 5b), optionally after applying in-place edits.

Generation implements the paper's first validation optimization (§4.2):
copies are appended at the end of the template so that its *postconditions
imply its own preconditions* — tight inner loops then validate
automatically with no per-object checks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..nimbus.commands import CommandKind
from .controller_template import ControllerTemplate


class TemplateEntry:
    """Fixed structure of one command in a worker template.

    Immutable once generation (or an edit's planning) has placed it in an
    entry array: the controller half, every worker half installed from it
    and every plan compiled from either hold the *same* entry objects. An
    edit never changes an entry; it replaces it with a changed
    :meth:`clone`, and both halves apply the same replacement.

    One class per kind, each holding only its own fields
    (:class:`TaskEntry`, :class:`SendEntry`, :class:`RecvEntry`); the
    other kinds' fields read as the defaults on this class. ``read``,
    ``write`` and ``before`` are tuples.
    """

    __slots__ = ("index", "before")
    read = write = ()
    function = param_slot = ct_index = None
    dst_worker = dst_index = src_worker = None
    size_bytes = 0
    report = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TEntry {self.index} {self.kind.name} "
                f"fn={self.function} before={self.before}>")


class TaskEntry(TemplateEntry):
    """A task; ``ct_index`` is its controller-template task, ``report``
    whether its completion carries its written value."""

    __slots__ = ("read", "write", "function", "param_slot", "report",
                 "ct_index")
    kind = CommandKind.TASK

    def __init__(self, index: int, read: Tuple[int, ...] = (),
                 write: Tuple[int, ...] = (), before: Tuple[int, ...] = (),
                 function: Optional[str] = None,
                 param_slot: Optional[str] = None, report: bool = False,
                 ct_index: Optional[int] = None):
        self.index, self.read, self.write, self.before = (
            index, read, write, before)
        self.function, self.param_slot = function, param_slot
        self.report, self.ct_index = report, ct_index

    def clone(self) -> "TaskEntry":
        return TaskEntry(self.index, self.read, self.write, self.before,
                         self.function, self.param_slot, self.report,
                         self.ct_index)


class SendEntry(TemplateEntry):
    """The sending side of a copy: ``read`` goes to entry ``dst_index`` of
    worker ``dst_worker``."""

    __slots__ = ("read", "dst_worker", "dst_index", "size_bytes")
    kind = CommandKind.SEND

    def __init__(self, index: int, read: Tuple[int, ...],
                 before: Tuple[int, ...], dst_worker: int, dst_index: int,
                 size_bytes: int = 0):
        self.index, self.read, self.before = index, read, before
        self.dst_worker, self.dst_index = dst_worker, dst_index
        self.size_bytes = size_bytes

    def clone(self) -> "SendEntry":
        return SendEntry(self.index, self.read, self.before, self.dst_worker,
                         self.dst_index, self.size_bytes)


class RecvEntry(TemplateEntry):
    """The receiving side of a copy from ``src_worker``. It reports only
    when it took the slot of a reporting task (a migration's result copy
    back)."""

    __slots__ = ("write", "src_worker", "size_bytes", "report")
    kind = CommandKind.RECV

    def __init__(self, index: int, write: Tuple[int, ...],
                 before: Tuple[int, ...] = (), src_worker: Optional[int] = None,
                 size_bytes: int = 0, report: bool = False):
        self.index, self.write, self.before = index, write, before
        self.src_worker, self.size_bytes = src_worker, size_bytes
        self.report = report

    def clone(self) -> "RecvEntry":
        return RecvEntry(self.index, self.write, self.before,
                         self.src_worker, self.size_bytes, self.report)


class AccessIndex:
    """Per object, which entries of one half read it and which write it.

    :meth:`readers` / :meth:`writers` give entry indices in ascending
    order, one per occurrence in the entry's read / write tuple. Both
    halves build theirs on the first edit and then move it along with
    :meth:`add` / :meth:`discard`, so that planning a migration and
    deriving the edited plan cost what the edit touches, not a scan of
    the half; a half that is never edited never pays for one.

    Nearly every object has one reader or one writer, and there is an
    index per edited half on either side: a lone accessor is kept as the
    bare index, a list only from the second on (lr_migrate: 1.5 MB of
    indexes per side instead of 3.4).
    """

    __slots__ = ("_reads", "_writes")

    def __init__(self, entries: Iterable[TemplateEntry]):
        self._reads: Dict[int, Union[int, List[int]]] = {}
        self._writes: Dict[int, Union[int, List[int]]] = {}
        for entry in entries:
            self.add(entry)

    def readers(self, oid: int) -> Sequence[int]:
        have = self._reads.get(oid, ())
        return (have,) if isinstance(have, int) else have

    def writers(self, oid: int) -> Sequence[int]:
        have = self._writes.get(oid, ())
        return (have,) if isinstance(have, int) else have

    def add(self, entry: TemplateEntry) -> None:
        index = entry.index
        for oids, by_oid in ((entry.read, self._reads),
                             (entry.write, self._writes)):
            for oid in oids:
                have = by_oid.get(oid)
                if have is None:
                    by_oid[oid] = index
                elif isinstance(have, int):
                    by_oid[oid] = sorted((have, index))
                else:
                    insort(have, index)

    def discard(self, entry: TemplateEntry) -> None:
        index = entry.index
        for oids, by_oid in ((entry.read, self._reads),
                             (entry.write, self._writes)):
            for oid in oids:
                have = by_oid[oid]
                if isinstance(have, int):
                    del by_oid[oid]
                else:
                    del have[bisect_left(have, index)]
                    if len(have) == 1:
                        by_oid[oid] = have[0]


class DirectoryDelta:
    """Cached effect of one block instance on the object directory.

    ``write_counts[oid]`` is how many version bumps the block applies;
    ``final_holders[oid]`` is the set of workers holding the final version
    when the block (including its postcondition-closure copies) completes.
    Equal holder sets are one frozenset: a block writes thousands of
    objects, and nearly all of them end on the worker that wrote them.
    The delta owns both maps it is given.
    """

    def __init__(self, write_counts: Dict[int, int],
                 final_holders: Dict[int, FrozenSet[int]]):
        self.write_counts = write_counts
        self.final_holders = final_holders
        #: ``final_holders`` went to a directory, which may hold it
        #: unapplied (ObjectDirectory.apply_block_deltas): it must not
        #: change from then on
        self._shared = False

    def apply(self, directory) -> None:
        self._shared = True
        directory.apply_block_deltas(self.write_counts, self.final_holders)

    def widen(self, oid: int, worker: int) -> None:
        """``worker`` also holds the final version of ``oid`` (a migrated
        task's result); copies the holder map first if it was shared."""
        if self._shared:
            self.final_holders = dict(self.final_holders)
            self._shared = False
        self.final_holders[oid] = self.final_holders[oid] | {worker}


class WorkerTemplateSet:
    """Controller half of the worker templates for one (block, assignment).

    Holds per-worker entry lists, preconditions, the directory delta, and
    bookkeeping for which workers have the worker half installed. The
    precondition map is the one statement of the template's contract;
    what validation and edits need beyond it — the by-object precondition
    index, each task's location — is derived from it on first use.
    """

    def __init__(
        self,
        block_id: str,
        version: int,
        entries: Dict[int, List[TemplateEntry]],
        preconditions: Dict[int, Tuple[int, ...]],
        delta: DirectoryDelta,
        returns: Dict[str, int],
        report_entries: Dict[int, List[int]],
    ):
        self.block_id = block_id
        self.version = version
        self.entries = entries  # worker -> [TemplateEntry]
        #: worker -> sorted tuple of oids; a migration moves relocated
        #: inputs across (:meth:`move_preconditions`)
        self.preconditions = preconditions
        self.delta = delta
        self.returns = returns  # result name -> oid
        self.report_entries = report_entries  # worker -> [entry indices]
        self.installed_on: Set[int] = set()
        #: incremental-validation cache managed by repro.core.validation:
        #: (directory token, directory stamp, frozenset of violations)
        self.validation_cache: Optional[Tuple[int, int, FrozenSet]] = None
        #: oid -> workers that require it fresh locally, built by the first
        #: incremental validation (:meth:`precondition_index`)
        self._by_oid: Optional[Dict[int, Tuple[int, ...]]] = None
        #: controller-template entry index -> (worker, local index), built
        #: by the first edit or rebalancing pass (:attr:`task_locations`)
        self._task_locations: Optional[Dict[int, Tuple[int, int]]] = None
        #: worker -> AccessIndex of its entries, built by the first
        #: migration that touches the worker (:meth:`access`)
        self._access: Dict[int, AccessIndex] = {}

    @property
    def key(self) -> Tuple[str, int]:
        return (self.block_id, self.version)

    @property
    def task_locations(self) -> Dict[int, Tuple[int, int]]:
        """Where each controller-template task sits: ``(worker, local
        index)``. Whoever edits the entry arrays keeps it current
        (:func:`repro.core.edits.plan_migration`)."""
        locations = self._task_locations
        if locations is None:
            locations = self._task_locations = {
                entry.ct_index: (worker, entry.index)
                for worker, lst in self.entries.items()
                for entry in lst
                if entry.ct_index is not None
            }
        return locations

    def precondition_index(self) -> Dict[int, Tuple[int, ...]]:
        """Per precondition object, the workers that require it fresh, in
        ascending order; :meth:`move_preconditions` keeps it current."""
        index = self._by_oid
        if index is None:
            by_oid: Dict[int, List[int]] = {}
            for worker in sorted(self.preconditions):
                for oid in self.preconditions[worker]:
                    by_oid.setdefault(oid, []).append(worker)
            index = self._by_oid = {
                oid: tuple(workers) for oid, workers in by_oid.items()}
        return index

    def move_precondition_index(self, oids: Iterable[int], src: int,
                                dst: int) -> None:
        """One relocating edit, as planned: ``dst`` requires ``oids``
        fresh from now on and ``src`` no longer. The by-object index moves
        now, as the next move of a batch classifies against it; the
        per-worker tuples move once for the batch
        (:meth:`move_preconditions`). The cached validation outcome
        checked the old pairs, so it goes."""
        by_oid = self._by_oid
        if by_oid is not None:
            for oid in oids:
                by_oid[oid] = tuple(sorted({*by_oid[oid], dst} - {src}))
        self.validation_cache = None

    def move_preconditions(self,
                           moves: Iterable[Tuple[int, int, int]]) -> None:
        """Apply a batch's relocating edits, each ``(oid, src, dst)`` in
        order, to the per-worker tuples: each worker they touch is copied
        out and stored back once, whatever the number of moves."""
        preconditions = self.preconditions
        edited: Dict[int, List[int]] = {}
        for oid, src, dst in moves:
            for worker in (src, dst):
                if worker not in edited:
                    edited[worker] = list(preconditions.get(worker, ()))
            held, at = edited[src], bisect_left(edited[src], oid)
            if at < len(held) and held[at] == oid:
                del held[at]
            held, at = edited[dst], bisect_left(edited[dst], oid)
            if at == len(held) or held[at] != oid:
                held.insert(at, oid)
        for worker, oids in edited.items():
            preconditions[worker] = tuple(oids)

    def access(self, worker: int) -> AccessIndex:
        """The accessor index of ``worker``'s entries. Whoever edits the
        entry array keeps it current (:func:`repro.core.edits.apply_edits`
        takes it along)."""
        index = self._access.get(worker)
        if index is None:
            index = self._access[worker] = AccessIndex(
                self.entries.get(worker, ()))
        return index

    def workers(self) -> List[int]:
        return [w for w, lst in self.entries.items() if lst]

    def num_commands(self) -> int:
        return sum(len(lst) for lst in self.entries.values())

    def entry_count(self, worker: int) -> int:
        return len(self.entries.get(worker, ()))

    def stats(self) -> dict:
        """Summary for trace labels: sizes only, no entry contents."""
        per_kind: Dict[str, int] = {}
        for lst in self.entries.values():
            for entry in lst:
                kind = entry.kind.name
                per_kind[kind] = per_kind.get(kind, 0) + 1
        return {
            "workers": len([w for w, lst in self.entries.items() if lst]),
            "entries": self.num_commands(),
            "preconditions": sum(map(len, self.preconditions.values())),
            **{f"kind_{k}": v for k, v in sorted(per_kind.items())},
        }


def generate_worker_templates(
    template: ControllerTemplate,
    object_sizes: Dict[int, int],
    version: int = 0,
) -> WorkerTemplateSet:
    """Generate worker templates from a controller template.

    Walks the controller template in program order assuming every
    precondition holds, inserting only *structural* copies (producer and
    consumer on different workers). State-dependent copies are never baked
    in — they are the province of patches (§2.4). Finally the template is
    closed under its own preconditions (§4.2 optimization 1).

    Only objects the block writes need tracking beyond the precondition
    map: an object it only reads is never copied, overwritten or
    reported, so its precondition entry is all it gets.
    """
    tasks, workers = template.tasks, template.workers
    written = {oid for task in tasks for oid in task.write}
    per_worker: Dict[int, List[TemplateEntry]] = {}
    # written oid -> local index of its current version on its last
    # writer, or {worker: local index} once a copy made a second holder;
    # an oid enters at its first write in the block
    avail: Dict[int, Union[int, Dict[int, int]]] = {}
    final_writer: Dict[int, int] = {}
    write_counts: Dict[int, int] = {}
    # worker -> written oid -> local indices (a lone one bare) reading the
    # current local version (the pre-block one until the oid's first
    # write); no entry while there are none
    local_readers: Dict[int, Dict[int, Union[int, List[int]]]] = {}
    # worker -> pre-block oids it reads, repeats included until the end
    preconds: Dict[int, List[int]] = {}

    def wlist(w: int) -> List[TemplateEntry]:
        return per_worker.setdefault(w, [])

    def local(oid: int, w: int) -> Optional[int]:
        """The local index providing ``oid``'s current version on ``w``."""
        have = avail[oid]
        if have.__class__ is int:
            return have if final_writer[oid] == w else None
        return have.get(w)

    def add_reader(oid: int, w: int, index: int) -> None:
        readers = local_readers.setdefault(w, {})
        have = readers.get(oid)
        if have is None:
            readers[oid] = index
        elif have.__class__ is int:
            readers[oid] = [have, index]
        else:
            have.append(index)

    def readers_of(oid: int, w: int) -> Tuple[int, ...]:
        have = local_readers.get(w, {}).get(oid, ())
        return (have,) if have.__class__ is int else tuple(have)

    def add_copy(oid: int, src: int, dst: int) -> int:
        """Insert a SEND on src and a RECV on dst; returns the recv index."""
        src_list, dst_list = wlist(src), wlist(dst)
        recv_index = len(dst_list)
        size = object_sizes.get(oid, 0)
        send_index = len(src_list)
        src_list.append(SendEntry(send_index, (oid,), (local(oid, src),),
                                  dst, recv_index, size))
        add_reader(oid, src, send_index)
        dst_list.append(RecvEntry(recv_index, (oid,), readers_of(oid, dst),
                                  src, size))
        local_readers.get(dst, {}).pop(oid, None)
        have = avail[oid]
        if have.__class__ is int:
            avail[oid] = {final_writer[oid]: have, dst: recv_index}
        else:
            have[dst] = recv_index
        return recv_index

    for ct_index, task in enumerate(tasks):
        w = workers[ct_index]
        lst = wlist(w)
        before: Set[int] = set()
        for oid in task.read:
            if oid not in final_writer:
                # Read of pre-block state: precondition on this worker.
                preconds.setdefault(w, []).append(oid)
            else:
                index = local(oid, w)
                before.add(index if index is not None
                           else add_copy(oid, final_writer[oid], w))
        for oid in task.write:
            if oid in final_writer:
                index = local(oid, w)
                if index is not None:
                    before.add(index)
            before.update(readers_of(oid, w))
        my_index = len(lst)
        lst.append(TaskEntry(my_index, task.read, task.write,
                             tuple(sorted(before)), task.function,
                             task.param_slot, False, ct_index))
        for oid in task.read:
            if oid in written:
                add_reader(oid, w, my_index)
        for oid in task.write:
            final_writer[oid] = w
            write_counts[oid] = write_counts.get(oid, 0) + 1
            avail[oid] = my_index
            local_readers.get(w, {}).pop(oid, None)

    # Each worker's preconditions as one sorted tuple, repeats dropped.
    for w, oids in preconds.items():
        oids.sort()
        preconds[w] = tuple(
            oid for i, oid in enumerate(oids) if not i or oids[i - 1] != oid)

    # Postcondition closure (§4.2 opt. 1): every precondition object that
    # the block overwrote is copied back to the workers that require it, so
    # repeated instantiation of this template auto-validates.
    for w, oids in sorted(preconds.items()):
        for oid in oids:
            if oid in final_writer and local(oid, w) is None:
                add_copy(oid, final_writer[oid], w)

    # Report flags: the final writer entry of each returned object reports
    # its value to the controller with its completion.
    report_entries: Dict[int, List[int]] = {}
    for oid in template.returns.values():
        if oid in final_writer:
            w = final_writer[oid]
            idx = local(oid, w)
            per_worker[w][idx].report = True
            report_entries.setdefault(w, []).append(idx)

    interned: Dict[FrozenSet[int], FrozenSet[int]] = {}
    final_holders = {}
    for oid, have in avail.items():
        holders = frozenset((final_writer[oid],) if have.__class__ is int
                            else have)
        final_holders[oid] = interned.setdefault(holders, holders)
    delta = DirectoryDelta(write_counts, final_holders)
    return WorkerTemplateSet(
        template.block_id, version, per_worker, preconds, delta,
        template.returns, report_entries,
    )


class WorkerHalf:
    """The worker-resident half of a worker template (§4.1).

    The worker caches multiple halves keyed by (block_id, version) so the
    controller can move between several schedules by invoking different
    sets of templates (§2.3).
    """

    def __init__(self, block_id: str, version: int,
                 entries: List[TemplateEntry], reports: List[int]):
        self.block_id = block_id
        self.version = version
        self.entries: List[TemplateEntry] = list(entries)
        self.reports = set(reports)
        #: lazily compiled execution plan (repro.core.compiled); an edit
        #: derives the next one from it
        self._plan = None
        #: accessor index of ``entries``, built at the first edit of a
        #: compiled half and kept current from then on
        self._access: Optional[AccessIndex] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.block_id, self.version)

    # ------------------------------------------------------------------
    # Compiled execution plan (repro.core.compiled)
    # ------------------------------------------------------------------
    def compiled_plan(self):
        """The compiled plan for the current entry array, built on first
        use; :meth:`apply_edit_ops` keeps it in step with the entries."""
        plan = self._plan
        if plan is None:
            from .compiled import compile_plan
            self._plan = plan = compile_plan(self.entries, self.reports)
        return plan

    def apply_edit_ops(self, ops, registry=None):
        """Apply edit ops to this half and carry its compiled plan along.

        The plan of the edited array is derived from the current one
        (:func:`repro.core.compiled.derive_plan`), which also hands it the
        idle frames. The current plan is left untouched for the frames
        still running on it and returned: it is the caller's to retire.

        The op entries are the ones the controller half applied: entries
        are immutable, so the two halves share them.
        """
        from .compiled import derive_plan
        from .edits import apply_edits
        plan = self._plan
        if plan is not None and self._access is None:
            self._access = AccessIndex(self.entries)
        apply_edits(self.entries, ops, self._access)
        for op in ops:
            if op.entry.report:
                self.reports.add(op.index)
            else:
                self.reports.discard(op.index)
        if plan is not None:
            self._plan = derive_plan(
                plan, self.entries, self._access, {op.index for op in ops},
                self.reports, registry)
        return plan

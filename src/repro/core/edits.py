"""Edits: in-place modification of installed worker templates (§2.3, §4.3).

An edit adds or removes tasks in an existing worker template. Edits ride as
metadata on the next instantiation message and mutate the cached template
*persistently* on both halves, so the cost of a scheduling change scales
with the size of the change rather than the size of the template.

Task migration (Figure 6) is the canonical edit: the task's slot on the
source worker is replaced by the RECV of its result — keeping the same
index inside the command-identifier array, so no other entry's before set
changes — and the task plus its input RECVs and result SEND are appended to
the destination worker.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..nimbus.commands import CommandKind
from .worker_template import AccessIndex, TemplateEntry, WorkerTemplateSet


class MigrationError(ValueError):
    """Raised when a task cannot be migrated with a template edit."""


class EditOp:
    """One edit primitive applied to a worker half's entry array: replace
    the entry at an index, or append one. Removing a task is a REPLACE of
    its slot, so every index stays occupied and positions equal indices."""

    REPLACE = "replace"
    APPEND = "append"

    __slots__ = ("op", "index", "entry")

    def __init__(self, op: str, index: int,
                 entry: Optional[TemplateEntry] = None):
        self.op = op
        self.index = index
        self.entry = entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EditOp {self.op} @{self.index}>"


def apply_edits(entries: List[TemplateEntry], ops: List[EditOp],
                access: Optional[AccessIndex] = None) -> None:
    """Apply edit ops to an entry array, in order. Mutates ``entries``,
    and ``access`` — the array's accessor index, once it has one — with it.
    Both halves apply the same ops, so they hold the same op entries; the
    only write to one is stamping its index as it is placed."""
    for op in ops:
        new = op.entry
        if op.op == EditOp.REPLACE:
            old = entries[op.index]
            new.index = op.index
            entries[op.index] = new
        elif op.op == EditOp.APPEND:
            if new.index != len(entries):
                raise ValueError(
                    f"append index {new.index} != array length {len(entries)}"
                )
            old = None
            entries.append(new)
        else:
            raise ValueError(f"unknown edit op {op.op!r}")
        if access is not None:
            if old is not None:
                access.discard(old)
            access.add(new)


def _provider_of(access: AccessIndex, upto: int, oid: int) -> Optional[int]:
    """Local index of the entry providing the current version of ``oid``
    at position ``upto`` (None = precondition-fresh)."""
    writers = access.writers(oid)
    at = bisect_left(writers, upto)
    return writers[at - 1] if at else None


def _sole_reader(access: AccessIndex, reader_idx: int, oid: int) -> bool:
    """True when no entry other than ``reader_idx`` reads or writes ``oid``."""
    return (all(i == reader_idx for i in access.readers(oid))
            and all(i == reader_idx for i in access.writers(oid)))


def _classify(template_set: WorkerTemplateSet, ct_index: int, dst: int):
    """Validate the move of task ``ct_index`` to worker ``dst`` and sort the
    task's inputs; touches nothing but the accessor indexes it looks in.

    Returns ``(src, src_idx, task, shared, relocated, copied)``:

    * shared reads — preconditions on the destination too (e.g. the model
      coefficients every gradient task reads): no copy needed, the
      destination already holds the pre-block version;
    * relocated reads — pre-block objects this task is the *sole* reader
      of (its training-data partition): the object's home moves with the
      task, a one-time data transfer the caller performs, instead of
      re-shipping the input every instantiation;
    * copied reads — everything else ships per instantiation (Fig. 6 S1).

    Raises :class:`MigrationError` when the move cannot be an edit.
    """
    location = template_set.task_locations.get(ct_index)
    if location is None:
        raise MigrationError(f"no task with controller index {ct_index}")
    src, src_idx = location
    if src == dst:
        raise MigrationError("task already on destination")
    task = template_set.entries[src][src_idx]
    if task is None or task.kind != CommandKind.TASK:
        raise MigrationError(f"entry {src_idx} on worker {src} is not a task")
    if len(task.write) != 1:
        raise MigrationError(
            "edit-based migration supports single-write tasks; "
            f"task writes {task.write}"
        )
    src_access = template_set.access(src)
    required = template_set.precondition_index()
    shared, relocated, copied = [], [], []
    for oid in task.read:
        pre_block = _provider_of(src_access, src_idx, oid) is None
        if pre_block and dst in required.get(oid, ()):
            shared.append(oid)
        elif pre_block and _sole_reader(src_access, src_idx, oid):
            relocated.append(oid)
        else:
            copied.append(oid)
    dst_access = template_set.access(dst)
    clash = {oid for oid in copied + relocated + list(task.write)
             if dst_access.readers(oid) or dst_access.writers(oid)}
    if clash:
        raise MigrationError(
            f"destination worker {dst} already touches objects {sorted(clash)}")
    return src, src_idx, task, shared, relocated, copied


def migration_conflict(
    template_set: WorkerTemplateSet,
    ct_index: int,
    dst: int,
) -> Optional[str]:
    """Feasibility check for migrating ``ct_index`` to ``dst``: ``None``
    when :func:`plan_migration` would accept the move, else its reason.

    Callers batching speculative moves (the adaptive rebalancer, the
    autoscaler's spread) filter candidates with it before committing.
    """
    try:
        _classify(template_set, ct_index, dst)
    except MigrationError as err:
        return str(err)
    return None


def plan_migration(
    template_set: WorkerTemplateSet,
    ct_index: int,
    dst: int,
    object_sizes: Dict[int, int],
) -> Dict[int, List[EditOp]]:
    """Plan the edits migrating the task with controller-template index
    ``ct_index`` to worker ``dst`` (Figure 6); a batch of moves goes
    through :func:`plan_migrations`."""
    ops, relocations = _plan_move(template_set, ct_index, dst, object_sizes)
    template_set.move_preconditions(relocations)
    return ops


def _plan_move(
    template_set: WorkerTemplateSet,
    ct_index: int,
    dst: int,
    object_sizes: Dict[int, int],
) -> Tuple[Dict[int, List[EditOp]], List[Tuple[int, int, int]]]:
    """The edits of one move, and its ``(oid, src, dst)`` relocations.

    Mutates the controller half (``template_set``) immediately — after
    every check has passed, so a rejected move changes nothing — except
    its precondition tuples, which the caller moves
    (:meth:`WorkerTemplateSet.move_preconditions`), and
    returns the per-worker edit ops to attach to the next instantiation
    messages. The template's external contract — preconditions and
    directory delta — is preserved: inputs are shipped from their original
    location each instantiation and the result is shipped back, so
    validation state stays clean and downstream templates are unaffected.
    """
    location = template_set.task_locations.get(ct_index)
    if location is not None and location[0] == dst:
        return {}, []
    src, src_idx, task, shared_reads, relocated_reads, copy_reads = _classify(
        template_set, ct_index, dst)
    result_oid = task.write[0]
    src_entries = template_set.entries[src]
    dst_entries = template_set.entries.setdefault(dst, [])
    src_access, dst_access = template_set.access(src), template_set.access(dst)

    ops: Dict[int, List[EditOp]] = {src: [], dst: []}

    # Is the migrated task the *final* writer of its result on the source?
    # Only then does the copied-back result leave the destination holding
    # the block's final version (checked before the entry array mutates).
    task_writes_final = src_access.writers(result_oid)[-1] == src_idx

    # Input copies: S1 on src (appended), R1 on dst (appended).
    input_recv_indices: List[int] = []
    input_send_indices: List[int] = []
    next_dst = len(dst_entries)
    next_src = len(src_entries)
    for oid in copy_reads:
        provider = _provider_of(src_access, src_idx, oid)
        size = object_sizes.get(oid, 0)
        recv_index = next_dst
        send = TemplateEntry(
            index=next_src, kind=CommandKind.SEND, read=(oid,),
            before=(provider,) if provider is not None else (),
            dst_worker=dst, dst_index=recv_index, size_bytes=size,
        )
        ops[src].append(EditOp(EditOp.APPEND, next_src, send))
        input_send_indices.append(next_src)
        next_src += 1
        recv = TemplateEntry(
            index=recv_index, kind=CommandKind.RECV, write=(oid,),
            src_worker=src, size_bytes=size,
        )
        ops[dst].append(EditOp(EditOp.APPEND, recv_index, recv))
        input_recv_indices.append(recv_index)
        next_dst += 1

    # The task itself, on the destination. Relocated inputs are read
    # locally (they become preconditions of the destination).
    task_index = next_dst
    migrated = task.clone()
    migrated.index = task_index
    migrated.before = tuple(input_recv_indices)
    migrated.report = False
    ops[dst].append(EditOp(EditOp.APPEND, task_index, migrated))
    next_dst += 1

    # Anti-dependencies for the shared (uncopied) inputs: any destination
    # entry that overwrites such an object — e.g. the postcondition-closure
    # RECV of the model coefficients — must now wait until the migrated
    # task has read the pre-block version. The reference points *forward*
    # in the index array (two-pass batch resolution handles it).
    for shared_oid in shared_reads:
        for k in dst_access.writers(shared_oid):
            guarded = dst_entries[k].clone()
            guarded.before += (task_index,)
            ops[dst].append(EditOp(EditOp.REPLACE, k, guarded))

    # Result copy back: S2 on dst, R2 replacing the task's slot on src so
    # the task's dependents (which name this index in their before sets)
    # transparently depend on the received result instead.
    result_size = object_sizes.get(result_oid, 0)
    send_back = TemplateEntry(
        index=next_dst, kind=CommandKind.SEND, read=(result_oid,),
        before=(task_index,), dst_worker=src, dst_index=src_idx,
        size_bytes=result_size,
    )
    ops[dst].append(EditOp(EditOp.APPEND, next_dst, send_back))
    # the result RECV overwrites the task's slot; it must not land before
    # the input SENDs have read the old values (a read-modify-write task's
    # input and result are the same object). These before references point
    # *forward* in the index array — workers resolve instantiation batches
    # in two passes to support exactly this.
    recv_back = TemplateEntry(
        index=src_idx, kind=CommandKind.RECV, write=(result_oid,),
        before=tuple(task.before) + tuple(input_send_indices),
        src_worker=dst, size_bytes=result_size,
        report=task.report,
    )
    ops[src].append(EditOp(EditOp.REPLACE, src_idx, recv_back))

    # Mirror onto the controller half.
    apply_edits(src_entries, ops[src], src_access)
    apply_edits(dst_entries, ops[dst], dst_access)
    template_set.task_locations[ct_index] = (dst, task_index)

    # The result also resides on the destination after the block — but
    # only if no later entry overwrites it on the source (otherwise the
    # destination's copy is an intermediate version, not the final one).
    holders = template_set.delta.final_holders.get(result_oid)
    if holders is not None and src in holders and task_writes_final:
        template_set.delta.widen(result_oid, dst)

    # Precondition updates for relocated inputs: required at the
    # destination from now on, and no longer at the source (the task was
    # the sole reader there). The caller moves the per-worker tuples and
    # the data itself.
    if relocated_reads:
        template_set.move_precondition_index(relocated_reads, src, dst)
    return ops, [(oid, src, dst) for oid in relocated_reads]


def merge_edits(into: Dict[int, List[EditOp]],
                edits: Dict[int, List[EditOp]]) -> int:
    """Append per-worker ``edits`` to the per-worker op lists of ``into``
    (ops apply in order); returns how many ops that was."""
    for worker, ops in edits.items():
        into.setdefault(worker, []).extend(ops)
    return sum(map(len, edits.values()))


class MigrationBatch:
    """What :func:`plan_migrations` planned: the ``moves`` it accepted, in
    order, their merged per-worker ``edits``, ``total_ops`` (the number of
    edit operations, the unit Table 3 prices at 41 µs each) and the
    ``(oid, dst)`` input ``relocations`` the caller must perform (one-time
    data moves for sole-reader inputs).

    Planning stops at the first move that cannot be an edit; ``rejected``
    is its :class:`MigrationError`, else None. The moves before it are on
    the controller half already, so the caller ships ``edits`` *before* it
    raises ``rejected`` — otherwise the two halves diverge.
    """

    __slots__ = ("moves", "edits", "total_ops", "relocations", "rejected")

    def __init__(self) -> None:
        self.moves: List[Tuple[int, int]] = []
        self.edits: Dict[int, List[EditOp]] = {}
        self.total_ops = 0
        self.relocations: List[Tuple[int, int]] = []
        self.rejected: Optional[MigrationError] = None


def plan_migrations(
    template_set: WorkerTemplateSet,
    moves: List[Tuple[int, int]],
    object_sizes: Dict[int, int],
) -> MigrationBatch:
    """Plan a batch of (ct_index, dst) migrations, each against the halves
    as the moves before it left them; the precondition tuples move once
    for the batch."""
    batch = MigrationBatch()
    relocations: List[Tuple[int, int, int]] = []
    for ct_index, dst in moves:
        try:
            ops, moved = _plan_move(template_set, ct_index, dst, object_sizes)
        except MigrationError as err:
            batch.rejected = err
            break
        batch.moves.append((ct_index, dst))
        batch.total_ops += merge_edits(batch.edits, ops)
        relocations.extend(moved)
    template_set.move_preconditions(relocations)
    batch.relocations = [(oid, dst) for oid, _src, dst in relocations]
    return batch

"""Controller templates (§2.2, §4.1, Figure 5a).

A controller template caches the complete task-graph metadata of a basic
block across all workers: the list of tasks, their functions, read/write
sets, task-level dependencies, and the assignment of tasks to workers.

The structure is the paper's "optimized, table-based data structure":
entries live in a flat array; dependencies are arrays of *indices* into
that array (not pointers); instantiation fills a parallel array of fresh
task identifiers and a parameter block, touching O(1) state per task.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .spec import BlockSpec


class CTEntry:
    """One task's fixed structure inside a controller template."""

    __slots__ = ("index", "function", "read", "write", "before", "worker",
                 "param_slot", "stage")

    def __init__(self, index, function, read, write, before, worker,
                 param_slot, stage):
        self.index = index
        self.function = function
        self.read = tuple(read)
        self.write = tuple(write)
        self.before = tuple(before)  # indices of earlier entries
        self.worker = worker
        self.param_slot = param_slot
        self.stage = stage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CTEntry {self.index} {self.function} w{self.worker} "
                f"before={self.before}>")


class ControllerTemplate:
    """The cached, parameterizable task graph of one basic block.

    Built either directly from a :class:`BlockSpec` plus a task→worker
    assignment (:meth:`from_block`) or incrementally as the controller
    schedules a marked block (:class:`ControllerTemplateBuilder`).
    """

    def __init__(self, block_id: str, entries: List[CTEntry],
                 returns: Dict[str, int]):
        self.block_id = block_id
        self.entries = entries
        self.returns = dict(returns)
        #: bumped every time the assignment is edited (worker-template keys)
        self.assignment_version = 0

    @property
    def num_tasks(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_block(cls, block: BlockSpec,
                   assignment: List[int]) -> "ControllerTemplate":
        """Build from a block spec and a per-task worker assignment.

        Task-level before sets are derived from read/write conflicts in
        program order: a task depends on the most recent writer of each
        object it reads, and on the most recent writer plus all subsequent
        readers of each object it writes.
        """
        entries: List[CTEntry] = []
        last_writer: Dict[int, int] = {}
        readers_since: Dict[int, List[int]] = {}
        index = 0
        for stage in block.stages:
            for task in stage.tasks:
                before = set()
                for oid in task.read:
                    writer = last_writer.get(oid)
                    if writer is not None:
                        before.add(writer)
                for oid in task.write:
                    writer = last_writer.get(oid)
                    if writer is not None:
                        before.add(writer)
                    before.update(readers_since.get(oid, ()))
                entry = CTEntry(
                    index=index,
                    function=task.function,
                    read=task.read,
                    write=task.write,
                    before=tuple(sorted(before)),
                    worker=assignment[index],
                    param_slot=task.param_slot,
                    stage=stage.name,
                )
                entries.append(entry)
                for oid in task.read:
                    readers_since.setdefault(oid, []).append(index)
                for oid in task.write:
                    last_writer[oid] = index
                    readers_since[oid] = []
                index += 1
        return cls(block.block_id, entries, block.returns)

    # ------------------------------------------------------------------
    # Instantiation (Figure 5a)
    # ------------------------------------------------------------------
    def instantiate(self, task_id_base: int,
                    params: Dict[str, Any]) -> "ControllerTemplateInstance":
        """Fill in fresh task identifiers and the parameter block.

        Task identifiers are ``task_id_base + index`` — the index-array
        filling the paper describes, with the array contents implied by the
        base. Parameter values are resolved lazily through slot names, so
        this is O(1) per task.
        """
        return ControllerTemplateInstance(self, task_id_base, params)

    # ------------------------------------------------------------------
    # Assignment edits (used by migration / eviction planning)
    # ------------------------------------------------------------------
    def reassign(self, entry_index: int, worker: int) -> None:
        """Move one task's cached assignment to another worker."""
        self.entries[entry_index].worker = worker

    def assignment(self) -> List[int]:
        """Each entry's worker, in entry order."""
        return [e.worker for e in self.entries]

    def workers_used(self) -> List[int]:
        return sorted({e.worker for e in self.entries})

    def entries_on(self, worker: int) -> List[CTEntry]:
        return [e for e in self.entries if e.worker == worker]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ControllerTemplate {self.block_id}: {self.num_tasks} tasks>"


class ControllerTemplateInstance:
    """A controller template with parameters filled in (cheap view object)."""

    __slots__ = ("template", "task_id_base", "params")

    def __init__(self, template: ControllerTemplate, task_id_base: int,
                 params: Dict[str, Any]):
        self.template = template
        self.task_id_base = task_id_base
        self.params = params

    def task_id(self, index: int) -> int:
        return self.task_id_base + index

    def param_of(self, entry: CTEntry) -> Any:
        if entry.param_slot is None:
            return None
        return self.params.get(entry.param_slot)


class ControllerTemplateBuilder:
    """Accumulates a marked block's task stream into a controller template.

    The controller uses this while it simultaneously schedules the block
    normally (§4.1): between the driver's *start template* and *finish
    template* messages every scheduled task is appended here, and
    :meth:`finish` post-processes the temporary structure into the
    table-based :class:`ControllerTemplate`.
    """

    def __init__(self, block: BlockSpec):
        self.block = block
        self._assignment: List[int] = []

    def record(self, worker: int) -> None:
        """Record the assignment of the next task (in program order)."""
        self._assignment.append(worker)

    def finish(self) -> ControllerTemplate:
        if len(self._assignment) != self.block.num_tasks:
            raise ValueError(
                f"recorded {len(self._assignment)} assignments for a block "
                f"of {self.block.num_tasks} tasks"
            )
        return ControllerTemplate.from_block(self.block, self._assignment)

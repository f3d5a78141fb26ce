"""Controller templates (§2.2, §4.1, Figure 5a).

A controller template caches the complete task-graph metadata of a basic
block across all workers: the list of tasks, their functions, read/write
sets, and the assignment of tasks to workers.

The structure is the paper's "optimized, table-based data structure": the
block's tasks in a flat array, a parallel array of worker assignments and
a parameter block, everything addressed by index. The task array is the
block's own :class:`~repro.core.spec.LogicalTask` list, not a copy of its
fields. Task-level dependencies are not stored here: they are derived by
index in program order wherever commands are built from the table — by
worker-template generation (each entry's ``before`` set) and by the
central scheduler (each worker's conflict tracker).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .spec import BlockSpec, LogicalTask


class ControllerTemplate:
    """The cached, parameterizable task graph of one basic block.

    ``tasks[i]`` is the block's i-th task in program order and
    ``workers[i]`` the worker it is assigned to; migrations edit
    ``workers`` in place.
    """

    def __init__(self, block_id: str, tasks: List[LogicalTask],
                 workers: List[int], returns: Dict[str, int]):
        if len(tasks) != len(workers):
            raise ValueError(f"{len(workers)} assignments for a block of "
                             f"{len(tasks)} tasks")
        self.block_id = block_id
        self.tasks = tasks
        self.workers = workers
        self.returns = returns
        #: bumped every time the assignment is edited (worker-template keys)
        self.assignment_version = 0

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @classmethod
    def from_block(cls, block: BlockSpec, assignment: List[int],
                   tasks: Optional[List[LogicalTask]] = None,
                   ) -> "ControllerTemplate":
        """Build from a block spec and a per-task worker assignment (copied).
        ``tasks``, the block's tasks in program order, is shared when the
        caller already flattened the block."""
        if tasks is None:
            tasks = [task for stage in block.stages for task in stage.tasks]
        return cls(block.block_id, tasks, list(assignment), block.returns)

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
    def reassign(self, index: int, worker: int) -> None:
        """Move one task's cached assignment to another worker."""
        self.workers[index] = worker

    def assignment(self) -> List[int]:
        """A snapshot of each task's worker, in task order."""
        return list(self.workers)

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

    def param_of(self, index: int) -> Any:
        slot = self.template.tasks[index].param_slot
        return None if slot is None else self.params.get(slot)

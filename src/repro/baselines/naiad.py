"""Naiad-like baseline: static distributed data flow (§5.1, §5.3).

Naiad (and TensorFlow, whose control plane the paper calls "very similar")
compiles the job into a data flow graph installed on every worker once, at
job start; workers then generate and schedule tasks locally and exchange
data directly. Strong points and weaknesses both follow:

* per-epoch central work is ~zero — iterations run at full distributed
  speed, with a small per-task progress-tracking callback overhead at each
  worker (the paper's §5.3 note about "many callbacks for the small data
  partitions");
* *any* scheduling change — even migrating one task — requires stopping the
  job, recompiling the flow graph, and reinstalling it everywhere, a fixed
  ~230 ms for the 8,000-task logistic regression (Table 3).

The implementation reuses the worker-template machinery as the installed
data flow (the paper notes Naiad's graphs "can be thought of as an extreme
case of execution templates": one very large, long-running basic block) but
charges no validation/instantiation costs and performs no patching or
edits — the graph is static.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.validation import full_validate
from ..core.worker_template import generate_worker_templates
from ..nimbus.cluster import NimbusCluster
from ..nimbus.controller import Controller
from ..nimbus.costs import CostModel, PAPER_COSTS
from ..nimbus.runtime import FunctionRegistry
from ..nimbus import protocol as P
from ..core.controller_template import ControllerTemplate
from ..core.patching import build_patch


class NaiadController(Controller):
    """Controller variant modeling Naiad's static-dataflow control plane."""

    def _on_submit_block(self, ctx, msg: P.SubmitBlock) -> None:
        """First submission of a block: compile + install the data flow.

        Charged at the paper's measured rate (~28.75 µs/task, i.e. 230 ms
        for 8,000 tasks, Table 3). The initial data distribution is loaded
        into the flow at install time (no patching exists afterwards).
        """
        block = msg.block
        if block.block_id in self.templates:
            # a re-submission without templates enabled cannot happen: the
            # Naiad driver always instantiates after the first install
            raise RuntimeError("Naiad data flow already installed")
        self.charge(self.costs.naiad_install_per_task * block.num_tasks)
        assignment = [
            self.central.assign_worker(ctx, task.read, task.write)
            for _stage, task in block.all_tasks()
        ]
        template = ControllerTemplate.from_block(block, assignment)
        self.templates[block.block_id] = template
        self.phase[block.block_id] = self.PHASE_WT_INSTALLED
        self.current_version[block.block_id] = 0
        self.assignments[(block.block_id, 0)] = assignment
        wts = generate_worker_templates(template, self.object_sizes(), 0)
        self.worker_templates[wts.key] = wts
        self._install_worker_halves(ctx, wts)
        self.metrics.incr("naiad_installs")

        # initial data distribution: part of graph installation, not a
        # runtime patch (Naiad has none)
        self._distribute_data(wts)

        self._instantiate_worker_templates(ctx, wts, msg.params,
                                           msg.request_id)

    def _distribute_data(self, wts) -> None:
        """Move every object to where ``wts`` expects it. Part of graph
        installation — sent outside the reliable channels, with ids from
        the patch cache's own sequence — not a runtime patch."""
        violations = full_validate(wts, self.directory, self._cross_check)
        if not violations:
            return
        patch = build_patch(violations, self.directory, self.object_sizes(),
                            patch_id=self.patch_cache.allocate_id())
        instance_id = self._next_instance
        self._next_instance += 1
        for worker in patch.workers():
            cid_base = self._alloc_cids(patch.entry_count(worker))
            self.send(self.workers[worker], P.InstallPatch(
                patch.patch_id, patch.entries[worker], cid_base,
                instance_id))
        patch.apply_to_directory(self.directory)

    def _on_instantiate_block(self, ctx, msg: P.InstantiateBlock) -> None:
        """Epochs run with no central validation, patching, or edits."""
        version = self.current_version[msg.block_id]
        wts = self.worker_templates[(msg.block_id, version)]
        self._instantiate_worker_templates(ctx, wts, msg.params,
                                           msg.request_id)
        self.metrics.incr("tasks_scheduled", 0)  # already counted inside

    def reinstall(self, block_id: str) -> None:
        """Any scheduling change: stop, recompile, reinstall (Table 3)."""
        template = self.templates[block_id]
        self.charge(self.costs.naiad_install_per_task * template.num_tasks)
        template.assignment_version += 1
        version = template.assignment_version
        self.current_version[block_id] = version
        wts = generate_worker_templates(
            template, self.object_sizes(), version)
        self.worker_templates[wts.key] = wts
        self._install_worker_halves(self._job0, wts)
        self.assignments[(block_id, version)] = [
            e.worker for e in template.entries
        ]
        # data redistribution to the new placement, also at install time
        self._distribute_data(wts)
        self.metrics.incr("naiad_installs")

    def migrate_tasks(self, block_id: str, moves, job_id: int = 0) -> str:
        """Naiad cannot edit an installed graph: every change reinstalls."""
        template = self.templates[block_id]
        for ct_index, dst in moves:
            template.reassign(ct_index, dst)
        self.reinstall(block_id)
        return "reinstall"


class NaiadCluster(NimbusCluster):
    """A Naiad-like deployment built on the shared worker substrate."""

    controller_class = NaiadController

    def __init__(
        self,
        num_workers: int,
        program: Callable,
        registry: Optional[FunctionRegistry] = None,
        costs: Optional[CostModel] = None,
        **kwargs,
    ):
        super().__init__(
            num_workers,
            program,
            registry=registry,
            costs=costs or PAPER_COSTS,
            use_templates=True,  # the driver instantiates after install
            **kwargs,
        )
        for worker in self.workers.values():
            worker.callback_overhead = self.costs.naiad_callback_per_task

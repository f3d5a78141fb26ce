"""Naiad-like baseline: static distributed data flow (§5.1, §5.3).

Naiad (and TensorFlow, whose control plane the paper calls "very similar")
compiles the job into a data flow graph installed on every worker once, at
job start; workers then generate and schedule tasks locally and exchange
data directly. Strong points and weaknesses both follow:

* per-epoch central work is ~zero — iterations run at full distributed
  speed, with a small per-task progress-tracking callback overhead at each
  worker (§5.3: "many callbacks for the small data partitions");
* *any* scheduling change — migrating one task, or losing a worker —
  stops the job, recompiles the flow graph and reinstalls it everywhere,
  a fixed ~230 ms for the 8,000-task logistic regression (Table 3).

Naiad's graphs are "an extreme case of execution templates" (one very
large, long-running basic block), so the implementation is a variant of
the template cache, :class:`NaiadTemplates`, installed on the controller
:class:`NimbusCluster` builds: no validation/instantiation costs, no
patching and no edits.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.controller_template import ControllerTemplate
from ..core.validation import full_validate
from ..core.worker_template import generate_worker_templates
from ..nimbus.cluster import NimbusCluster
from ..nimbus.controller import Controller
from ..nimbus.templates import TemplateCache
from ..nimbus import protocol as P


class NaiadTemplates(TemplateCache):
    """Naiad's data flow as a template cache: one static install per
    block, epochs with no validation, patching or edits, and a reinstall
    on any change."""

    def install(self, ctx, block, params, request_id: int) -> None:
        """First submission of a block: compile + install the data flow,
        at the paper's measured rate (~28.75 µs/task, i.e. 230 ms for
        8,000 tasks, Table 3), then run its first epoch."""
        c = self.controller
        if block.block_id in ctx.templates:
            # the Naiad driver always instantiates after the first install
            raise RuntimeError("Naiad data flow already installed")
        tasks = [task for stage in block.stages for task in stage.tasks]
        assignment = [c.central.assign_worker(ctx, t.read, t.write) for t in tasks]
        template = ControllerTemplate.from_block(block, assignment, tasks)
        ctx.templates[block.block_id] = template
        wts = self._install(ctx, template, 0)
        self._send_instance(ctx, wts, params, request_id)

    def installed(self, ctx, block_id: str):
        """Installed from the first submission on: there is no staircase."""
        return ctx.worker_templates.get(
            (block_id, ctx.current_version.get(block_id)))

    def instantiate(self, ctx, msg: P.InstantiateBlock) -> None:
        """Epochs run with no central validation, patching, or edits."""
        self._send_instance(ctx, self.installed(ctx, msg.block_id),
                            msg.params, msg.request_id)

    def migrate(self, ctx, template, moves):
        """No edits: any scheduling change reinstalls the graph (Table 3)."""
        for ct_index, dst in moves:
            template.reassign(ct_index, dst)
        self._regenerate(ctx, template.block_id)
        return "reinstall", None

    def _regenerate(self, ctx, block_id: str) -> None:
        """A new assignment (a migration, or re-homing after a worker-set
        change) is a new graph, installed and shipped like the first."""
        template = ctx.templates[block_id]
        template.assignment_version += 1
        self._install(ctx, template, template.assignment_version)

    def _install(self, ctx, template, version: int):
        """Compile ``template`` at ``version`` and install it on every
        worker, data included (no patching exists afterwards)."""
        c = self.controller
        c.charge(c.costs.naiad_install_per_task * template.num_tasks)
        ctx.current_version[template.block_id] = version
        wts = generate_worker_templates(template, ctx.directory.sizes, version)
        ctx.worker_templates[wts.key] = wts
        ctx.assignments[wts.key] = template.assignment()
        self.install_halves(ctx, wts)
        ctx.metrics.incr("naiad_installs")
        # data distribution is part of graph installation, not a runtime
        # patch (Naiad has none): sent outside the reliable channels
        violations = full_validate(wts, ctx.directory, c._cross_check)
        if violations:
            self._new_patch(ctx, violations, c.send).retire()  # one-shot
        return wts


class NaiadController(Controller):
    """Naiad's entry points, straight into :class:`NaiadTemplates`: no
    per-message handling charge and no request dedup."""

    def _on_submit_block(self, ctx, msg: P.SubmitBlock) -> None:
        self.cache.install(ctx, ctx.translate_block(msg.block), msg.params,
                           msg.request_id)

    def _on_instantiate_block(self, ctx, msg: P.InstantiateBlock) -> None:
        self.cache.instantiate(ctx, msg)


class NaiadCluster(NimbusCluster):
    """A Naiad-like deployment built on the shared worker substrate."""

    controller_class = NaiadController

    def __init__(self, num_workers: int, program: Optional[Callable],
                 **kwargs):
        # the driver instantiates after install
        super().__init__(num_workers, program, use_templates=True, **kwargs)
        self.controller.cache = NaiadTemplates(self.controller)
        for worker in self.workers.values():
            worker.callback_overhead = self.costs.naiad_callback_per_task

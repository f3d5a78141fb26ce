"""Execution templates, the cache in front of the central scheduler (§4).

Per basic block, a job's templates move through the installation staircase
of Figure 9:

* central — no template: the central scheduler
  (:class:`~repro.nimbus.central.CentralScheduler`) plans the block's task
  stream task by task (134 µs/task) and sends each worker one batch of its
  commands. If the driver marked the block, the stream is simultaneously
  captured into a controller template (+25 µs/task).
* ``CT_READY`` — the controller template exists: instantiation requests are
  parameter fills (0.2 µs/task); tasks are still dispatched centrally while
  the controller half of the worker templates is generated (+15 µs/task).
* ``WT_GENERATED`` — worker halves are shipped to the workers (9 µs/task at
  each worker) alongside one last central dispatch.
* ``WT_INSTALLED`` — the steady state: validate (auto 1.7 µs/task, full
  7.3 µs/task), patch if needed, and send one instantiation message per
  worker — n+1 control messages for the whole iteration (§2.2).

:class:`TemplateCache` (``controller.cache``) owns that staircase for every
job, plus patching (§4.2), instance decisions, edits (§2.3) and what a
worker-set change does to templates. Its state is per job, in the
:class:`~repro.nimbus.multijob.JobContext`; ``ctx.phase`` is read and
written only here, and other modules ask :meth:`TemplateCache.installed`.
The Naiad baseline is a variant (:class:`repro.baselines.naiad.
NaiadTemplates`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.controller_template import ControllerTemplate
from ..core.edits import merge_edits, plan_migrations
from ..core.patching import Patch, build_patch
from ..core.validation import full_validate
from ..core.worker_template import WorkerTemplateSet, generate_worker_templates
from . import protocol as P

# staircase phases per block (``ctx.phase``), from its capture on
PHASE_CT_READY = 1
PHASE_WT_GENERATED = 2
PHASE_WT_INSTALLED = 3


class TemplateCache:
    """The template lifecycle for one controller (all of its jobs)."""

    def __init__(self, controller):
        self.controller = controller

    def installed(self, ctx, block_id: str) -> Optional[WorkerTemplateSet]:
        """The block's worker templates once the staircase is done, else
        None."""
        if ctx.phase.get(block_id) != PHASE_WT_INSTALLED:
            return None
        return ctx.worker_templates.get(
            (block_id, ctx.current_version[block_id]))

    def capture(self, ctx, block, tasks, assignment: List[int]) -> None:
        """Record the controller template of a centrally scheduled block
        (``tasks``: its task list): the first step of the staircase."""
        block_id = block.block_id
        ctx.templates[block_id] = ControllerTemplate.from_block(
            block, assignment, tasks)
        ctx.phase[block_id] = PHASE_CT_READY
        ctx.current_version[block_id] = 0
        ctx.assignments[(block_id, 0)] = list(assignment)
        ctx.metrics.incr("controller_templates_installed")

    # ------------------------------------------------------------------
    # Instantiation: the staircase, then validate, patch and ship
    # ------------------------------------------------------------------
    def instantiate(self, ctx, msg: P.InstantiateBlock) -> None:
        c = self.controller
        block_id = msg.block_id
        template = ctx.templates.get(block_id)
        if template is None:
            raise KeyError(
                f"job {ctx.job_id}: no controller template installed for "
                f"block {block_id!r} (installed blocks: "
                f"{sorted(ctx.templates)})"
            )
        phase = ctx.phase[block_id]
        n = template.num_tasks
        # parameter fill of the controller template (Table 2, row 1)
        c.charge(c.costs.instantiate_controller_template_per_task * n)
        ctx.metrics.incr("template_instantiations")

        version = ctx.current_version[block_id]
        if phase != PHASE_WT_INSTALLED:
            # the install staircase (Fig. 9): generate the controller half
            # of the worker templates (iteration 11), then ship the worker
            # halves (iteration 12), each while dispatching the iteration
            # centrally from the controller template's cached assignment
            if phase == PHASE_CT_READY:
                self._generate(ctx, block_id, version)
            else:
                self.install_halves(
                    ctx, ctx.worker_templates[(block_id, version)])
                ctx.phase[block_id] = PHASE_WT_INSTALLED
            c.central.dispatch(
                ctx, template, template.tasks, template.workers,
                msg.params, c.costs.central_schedule_per_task,
                msg.request_id)
            return

        # steady state (iteration 13+): validate, patch, instantiate
        wts = ctx.worker_templates[(block_id, version)]
        self.install_halves(ctx, wts)  # no-op for already-installed workers
        c0 = c._charged
        if ctx.validation_state.auto_validates(wts.key):
            c.charge(c.costs.instantiate_worker_template_auto_per_task * n)
            ctx.metrics.incr("auto_validations")
            if c._trace is not None:
                self._span("validate.auto", c0, block_id=block_id)
        else:
            c.charge(c.costs.instantiate_worker_template_validate_per_task * n)
            ctx.metrics.incr("full_validations")
            violations = full_validate(wts, ctx.directory, c._cross_check)
            if c._trace is not None:
                self._span("validate.full", c0, block_id=block_id,
                           violations=len(violations))
            if violations:
                self._patch(ctx, wts, violations)
        self._send_instance(ctx, wts, msg.params, msg.request_id)

    def _span(self, name: str, c0: float, **labels) -> None:
        """Trace the controller time charged since ``c0`` (traced only)."""
        c = self.controller
        c._trace.span(c.name, "template", name, c._handler_start + c0,
                      c._charged - c0, **labels)

    def _generate(self, ctx, block_id: str, version: int) -> None:
        """Generate the controller half of ``block_id``'s worker templates
        for its current assignment; the halves ship at the next
        instantiation (Fig. 9, iteration 11)."""
        c = self.controller
        template = ctx.templates[block_id]
        c0 = c._charged
        c.charge(c.costs.install_worker_template_controller_per_task
                 * template.num_tasks)
        wts = generate_worker_templates(template, ctx.directory.sizes, version)
        if c._trace is not None:
            self._span("template.generate", c0, block_id=block_id,
                       **wts.stats())
        ctx.worker_templates[wts.key] = wts
        ctx.phase[block_id] = PHASE_WT_GENERATED

    def install_halves(self, ctx, wts: WorkerTemplateSet) -> None:
        """Ship ``wts``'s worker halves to every live worker that lacks
        one (a joined worker gets its half on first use)."""
        c = self.controller
        for worker in wts.workers():
            if worker in wts.installed_on or worker not in c.live_workers:
                continue
            entries = wts.entries[worker]
            reports = [e.index for e in entries if e.report]
            c.send_reliable(c.workers[worker], P.InstallWorkerTemplate(
                wts.block_id, wts.version, entries, reports,
                job_id=ctx.job_id,
            ))
            wts.installed_on.add(worker)
            if c._trace is not None:
                c._trace.instant(c.name, "template", "template.ship",
                                 block_id=wts.block_id,
                                 version=wts.version, worker=worker,
                                 entries=len(entries))
            # a fresh install ships the controller half verbatim, which
            # already contains any planned edits — drop them so they are
            # not applied a second time at instantiation
            pending = ctx.pending_edits.get(wts.key)
            if pending:
                pending.pop(worker, None)

    def decide(self, ctx, wts: WorkerTemplateSet, mode: str,
               request_id: int, ship):
        """Decide one instance of an installed template: a new run, its
        instance id, one command-id base per worker (in worker order), the
        return map, and the template's effect on the directory and the
        validation state. ``ship(run, worker, cid_base)`` is the caller's
        transport — a message per worker, or a row of a window grant — so
        every scheduling mode draws the same id streams."""
        c = self.controller
        num_tasks = ctx.templates[wts.block_id].num_tasks
        run = c._new_run(ctx, wts.block_id, num_tasks, mode, request_id)
        run.instance_id = c._alloc_instance_id()
        for worker in wts.workers():
            ship(run, worker, c._alloc_cids(len(wts.entries[worker])))
            run.expected_workers.add(worker)
        run.outstanding = len(run.expected_workers)
        for name, oid in wts.returns.items():
            # values arrive keyed by oid (InstanceComplete, summary rows)
            run.return_cids[oid] = name
        wts.delta.apply(ctx.directory)
        ctx.validation_state.note_instantiation(wts.key)
        ctx.prev_block_key = wts.key
        ctx.metrics.incr("tasks_scheduled", num_tasks)
        if c._trace is not None:
            c._trace_decided(run)
        return run

    def _send_instance(self, ctx, wts: WorkerTemplateSet,
                       params: Dict[str, Any], request_id: int = 0) -> None:
        """The fast path: one message per worker (§2.2: n+1 total)."""
        c = self.controller
        edits_by_worker = ctx.pending_edits.pop(wts.key, {})

        def ship(run, worker: int, cid_base: int) -> None:
            msg = P.InstantiateWorkerTemplate(
                wts.block_id, wts.version, run.instance_id, cid_base,
                params, run.seq, edits=edits_by_worker.get(worker),
                job_id=ctx.job_id,
            )
            msg.size_bytes = (P.TASK_ID_BYTES * len(wts.entries[worker])
                              + P.PARAM_BLOCK_BYTES)
            c.send_reliable(c.workers[worker], msg)

        self.decide(ctx, wts, "template", request_id, ship)

    # ------------------------------------------------------------------
    # Patching (§4.2)
    # ------------------------------------------------------------------
    def _new_patch(self, ctx, violations: List[Tuple[int, int]],
                   send) -> Patch:
        """Compute the copies that bring each ``(worker, oid)`` in
        ``violations`` up to the object's latest version, ``send`` every
        involved worker its half as one fresh patch instance, and record
        the copies in the directory."""
        c = self.controller
        # patch ids are controller-global: a worker's patch cache is keyed
        # by bare patch id, so ids from different jobs must never collide
        patch = build_patch(violations, ctx.directory, ctx.directory.sizes,
                            c._alloc_patch_id(), c._alloc_instance_id())
        for worker in patch.workers():
            cid_base = c._alloc_cids(patch.entry_count(worker))
            patch.holders.append(c.workers[worker])
            send(patch.holders[-1], P.InstallPatch(
                patch.patch_id, patch.entries[worker], cid_base,
                patch.last_instance))
        patch.apply_to_directory(ctx.directory)
        return patch

    def _patch(self, ctx, wts: WorkerTemplateSet,
               violations: List[Tuple[int, int]]) -> None:
        c = self.controller
        c0 = c._charged
        patch = ctx.patch_cache.lookup(
            ctx.prev_block_key, wts.key, violations, ctx.directory)
        if patch is not None:
            span = "patch.cache_hit"
            c.charge(c.costs.patch_cache_invoke)
            instance_id = patch.last_instance = c._alloc_instance_id()
            for worker in patch.workers():
                cid_base = c._alloc_cids(patch.entry_count(worker))
                c.send_reliable(c.workers[worker], P.InstantiatePatch(
                    patch.patch_id, cid_base, instance_id))
            patch.apply_to_directory(ctx.directory)
            ctx.metrics.incr("patch_cache_hits")
        else:
            span = "patch.compute"
            # one copy per violation, charged before the halves depart
            c.charge(c.costs.patch_compute_per_copy * len(violations))
            patch = self._new_patch(ctx, violations, c.send_reliable)
            ctx.patch_cache.store(ctx.prev_block_key, wts.key, patch)
            ctx.metrics.incr("patches_computed")
        if c._trace is not None:
            self._span(span, c0, patch_id=patch.patch_id,
                       num_copies=patch.num_copies())
        ctx.metrics.incr("patch_copies", patch.num_copies())

    # ------------------------------------------------------------------
    # Edits (§2.3, Fig. 10)
    # ------------------------------------------------------------------
    def edit_limit(self, template: ControllerTemplate) -> int:
        """The most moves of ``template`` that are edits, not a reinstall."""
        return int(self.controller.edit_threshold * template.num_tasks)

    def migrate(self, ctx, template: ControllerTemplate,
                moves: List[Tuple[int, int]]) -> Tuple[str, Any]:
        """Move tasks (by controller-template entry index) to new workers:
        small changes become edits ("edits"), large ones regenerate the
        worker templates ("reinstall"), and before those exist updating
        the assignment is the whole migration ("reassign"). Returns the
        mechanism and the MigrationError of the first move that could not
        be an edit (the moves before it are applied), or None."""
        c = self.controller
        block_id = template.block_id
        version = ctx.current_version.get(block_id, 0)
        wts = ctx.worker_templates.get((block_id, version))
        generated = (wts is not None
                     and ctx.phase.get(block_id, 0) >= PHASE_WT_GENERATED)
        if generated and len(moves) <= self.edit_limit(template):
            batch = plan_migrations(wts, moves, ctx.directory.sizes)
            c.charge(c.costs.edit_per_task * batch.total_ops)
            merge_edits(ctx.pending_edits.setdefault(wts.key, {}), batch.edits)
            for ct_index, dst in batch.moves:
                template.reassign(ct_index, dst)
            # one-time data moves for relocated sole-reader inputs: the
            # objects' homes follow the tasks; stale replicas remain behind
            self.relocate(ctx, batch.relocations)
            ctx.metrics.incr("edits_applied", batch.total_ops)
            return "edits", batch.rejected
        for ct_index, dst in moves:
            template.reassign(ct_index, dst)
        if generated:
            self._regenerate(ctx, block_id)
            return "reinstall", None
        if (block_id, version) in ctx.assignments:
            ctx.assignments[(block_id, version)] = template.assignment()
        ctx.metrics.incr("migrations_reassigned")
        return "reassign", None

    def relocate(self, ctx, homes: List[Tuple[int, int]]) -> None:
        """Move each ``(oid, home)``'s object to its new home, first
        shipping one relocation patch with a copy to every new home that
        does not hold the object's latest version."""
        c = self.controller
        stale = [(dst, oid) for oid, dst in homes
                 if not ctx.directory.is_fresh(oid, dst)]
        if stale:  # one-shot: its install is its last instance
            self._new_patch(ctx, stale, c.send_reliable).retire()
            ctx.metrics.incr("relocation_copies", len(stale))
        for oid, dst in homes:
            ctx.directory.rehome(oid, dst)

    def _drop_pending_edits(self, ctx, block_id: str) -> None:
        """Forget queued-but-unshipped worker-half edits for ``block_id``:
        a regeneration, eviction or restore superseded the assignment they
        were planned against. ``plan_migration`` applies edits to the
        *controller* half at once, so a cached :class:`WorkerTemplateSet`
        with dropped pending ops can never match the pre-edit halves the
        workers hold: drop that cached version too, and let :meth:`revert`
        regenerate if a snapshot still points at it."""
        for key in [k for k in ctx.pending_edits if k[0] == block_id]:
            del ctx.pending_edits[key]
            wts = ctx.worker_templates.get(key)
            if wts is not None and wts.installed_on:
                del ctx.worker_templates[key]
                ctx.divergent_wts.add(key)

    def _regenerate(self, ctx, block_id: str) -> None:
        self._drop_pending_edits(ctx, block_id)
        template = ctx.templates[block_id]
        template.assignment_version += 1
        version = template.assignment_version
        ctx.current_version[block_id] = version
        self._generate(ctx, block_id, version)
        ctx.assignments[(block_id, version)] = template.assignment()
        ctx.validation_state.invalidate()
        ctx.metrics.incr("worker_template_regenerations")

    # ------------------------------------------------------------------
    # Worker-set changes (Fig. 9, §4.4)
    # ------------------------------------------------------------------
    def rehome(self, ctx, regenerate_all: bool) -> None:
        """Reassign the template entries on workers no longer live to the
        (already re-homed) home of their anchor object, then regenerate
        the worker templates of every block that moved — or of every block
        with ``regenerate_all``. A block with queued edits regenerates even
        if none of its entries moved: the queued ops (or the edited halves
        they target) may address departed peers, and regeneration retires
        them (:meth:`_drop_pending_edits`)."""
        c = self.controller
        for block_id, template in ctx.templates.items():
            moved = False
            workers = template.workers
            for i, task in enumerate(template.tasks):
                if workers[i] not in c.live_workers:
                    workers[i] = c.central.assign_worker(
                        ctx, task.read, task.write)
                    moved = True
            if (regenerate_all or moved
                    or any(key[0] == block_id for key in ctx.pending_edits)):
                self._regenerate(ctx, block_id)

    def revert(self, ctx, version_snapshot: Dict[str, int]) -> None:
        """Put each block back on its snapshotted version's assignment and
        cached templates; the next instantiation validates them (Fig. 9)."""
        for block_id, version in version_snapshot.items():
            # queued edits were planned against assignments this restore is
            # undoing — shipping them later would corrupt installed halves
            self._drop_pending_edits(ctx, block_id)
            ctx.templates[block_id].workers[:] = ctx.assignments[
                (block_id, version)]
            ctx.current_version[block_id] = version
            if (block_id, version) in ctx.worker_templates:
                ctx.phase[block_id] = PHASE_WT_INSTALLED
            elif (block_id, version) in ctx.divergent_wts:
                # the cached set for this version was invalidated while it
                # had un-shipped edits; re-install instead of resurrecting
                # worker halves that no longer match the controller half
                self._regenerate(ctx, block_id)
            else:
                # worker templates were never generated for this version
                # (the block was still pre-WT at snapshot time); rejoin the
                # staircase so the next instantiation generates them fresh
                ctx.phase[block_id] = PHASE_CT_READY

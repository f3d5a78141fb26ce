"""The central scheduler (§3.2): per-task dispatch, the path templates cache.

Every block a job runs before its templates are installed, and every block
of a configuration without templates, is scheduled here one task at a time
(Table 1: 134 µs/task). A task runs at the home of its first written (or
read) object; each read of an object whose latest version is not resident
there gets a send/recv copy from the lowest-id holder of that version; the
directory records copies and writes as the plan is built. A block run's
commands leave as one ``DispatchCommandBatch`` per worker; completions
fold back here. The controller owns this scheduler (``controller.central``)
and the id counters, run table and run close it shares with the template
path; the Spark baseline is :class:`repro.baselines.spark.SparkScheduler`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..core.spec import BlockSpec
from .commands import Command, make_copy_pair, make_task
from . import protocol as P


def unknown_object(ctx, oid: int) -> KeyError:
    """The error for a task touching an object its job does not have."""
    return KeyError(f"job {ctx.job_id}: cannot place a task touching unknown "
                    f"object id {ctx.local_oid(oid)} (global id {oid}); "
                    f"the job never defined it, or undefined it")


class CentralScheduler:
    """Per-task scheduling for one controller (all of its jobs)."""

    def __init__(self, controller):
        self.controller = controller

    def assign_worker(self, ctx, read: Tuple[int, ...],
                      write: Tuple[int, ...]) -> int:
        """Anchor a task at the home of its first written (or read) object."""
        anchor = write[0] if write else (read[0] if read else None)
        if anchor is None:
            return min(self.controller.live_workers)
        try:
            return ctx.directory.home(anchor)
        except KeyError:
            raise unknown_object(ctx, anchor) from None

    def schedule_task(self, run, function: str, read: Tuple[int, ...],
                      write: Tuple[int, ...], worker: int, params: Any,
                      returns_rev: Dict[int, str],
                      emit: Callable[[Command, bool], None]) -> None:
        """Dependency analysis + copy insertion for one task on ``worker``.

        Every command is counted outstanding on ``run`` and handed to
        ``emit`` in order — a copy's send and recv, then the task, with
        cids allocated in that order. A task is reported back only if it
        writes one of the block's returns (``returns_rev``: oid -> name).
        """
        c = self.controller
        directory = run.ctx.directory
        records = directory.records()
        for oid in read:
            try:
                rec = records[oid]
            except KeyError:
                raise unknown_object(run.ctx, oid) from None
            held = rec.holders
            if (held != worker if held.__class__ is int
                    else held.get(worker, -1) != rec.latest):
                src = min(directory.holders_of_latest(oid))
                send_cid = c._alloc_cids(1)
                recv_cid = c._alloc_cids(1)
                send, recv = make_copy_pair(
                    send_cid, recv_cid, oid, src, worker,
                    size_bytes=rec.size_bytes,
                )
                run.outstanding += 2
                emit(send, False)
                emit(recv, False)
                directory.record_copy(oid, worker)
        cid = c._alloc_cids(1)
        task = make_task(cid, worker, function, read, write, params=params)
        report = False
        for oid in write:
            directory.record_write(oid, worker)
            name = returns_rev.get(oid)
            if name is not None:
                run.return_cids[cid] = name
                report = True
        run.outstanding += 1
        emit(task, report)

    def dispatch(self, ctx, source, tasks, workers: List[int],
                 params: Dict[str, Any], cost: float, request_id: int):
        """Schedule one run of ``source`` — a :class:`BlockSpec`, or the
        controller template captured from one: ``tasks`` in program
        order, each on its entry of ``workers``, ``cost`` charged per
        task."""
        c = self.controller
        run = c._new_run(ctx, source.block_id, source.num_tasks, "central",
                         request_id)
        returns_rev = {oid: name for name, oid in source.returns.items()}
        # one command list per worker, in first-dispatch order
        batches: Dict[int, List[Command]] = {}

        def emit(cmd: Command, _report: bool) -> None:
            lst = batches.get(cmd.worker)
            if lst is None:
                lst = batches[cmd.worker] = []
            lst.append(cmd)

        # nothing in the loop observes _charged, so the constant per-task
        # cost folds into a local: charge(cost)'s float additions, one store
        schedule = self.schedule_task
        charged = c._charged
        for task, worker in zip(tasks, workers):
            charged += cost
            task_params = params.get(task.param_slot) if task.param_slot else None
            schedule(run, task.function, task.read, task.write, worker,
                     task_params, returns_rev, emit)
        c._charged = charged
        # each worker's list keeps its dispatch order: worker-side conflict
        # tracking resolves the same dependencies as one message per command
        reports = frozenset(run.return_cids)
        for worker, commands in batches.items():
            c.send_reliable(c.workers[worker],
                            P.DispatchCommandBatch(commands, run.seq, reports))
        ctx.metrics.incr("tasks_scheduled", source.num_tasks)
        # Central execution leaves template validation state unknown.
        ctx.validation_state.invalidate()
        ctx.prev_block_key = ("central", source.block_id)
        if c._trace is not None:
            c._trace_decided(run)
        return run

    def run_block(self, ctx, block: BlockSpec, params: Dict[str, Any],
                  capture: bool, request_id: int = 0):
        """Schedule a driver-submitted block, capturing it into a
        controller template on the way if the driver marked it."""
        c = self.controller
        if capture and block.block_id in ctx.templates:
            capture = False  # already installed (e.g. resubmitted after recovery)
        cost = (c.costs.central_schedule_per_task
                + c.costs.central_receive_per_task)
        if capture:
            cost += c.costs.install_controller_template_per_task
        tasks = [task for stage in block.stages for task in stage.tasks]
        assignment = [self.assign_worker(ctx, task.read, task.write)
                      for task in tasks]
        run = self.dispatch(ctx, block, tasks, assignment, params, cost,
                            request_id)
        if capture:
            c.cache.capture(ctx, block, tasks, assignment)
        return run

    def on_command_complete_batch(self, msg: P.CommandCompleteBatch) -> None:
        """Fold a worker's command completions into their runs."""
        c = self.controller
        # charged per item: coalescing saves messages, not modeled work
        flat = msg.flat
        c.charge(c.costs.controller_completion_per_task * (len(flat) // 4))
        worker_id = msg.worker_id
        # flat walk; the run lookup is hoisted per block_seq group
        runs = c.runs
        run = run_seq = None
        it = iter(flat)
        for cid, block_seq, duration, value in zip(it, it, it, it):
            if block_seq != run_seq:
                run_seq = block_seq
                run = runs.get(block_seq)
            if run is None:
                continue  # dropped by recovery (or a released job)
            run.outstanding -= 1
            cbw = run.compute_by_worker
            cbw[worker_id] = cbw.get(worker_id, 0.0) + duration
            if cid in run.return_cids:
                run.results[run.return_cids[cid]] = value
            if run.outstanding == 0:
                c._finish_block(run)
                run = runs.get(block_seq)  # gone now; later items drop

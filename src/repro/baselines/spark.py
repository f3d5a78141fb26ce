"""Spark-like baseline: a purely centralized per-task scheduler (§5.1).

Spark's driver/controller dispatches every task individually and processes
every completion; the paper measures its per-task scheduling cost at 166 µs
(Table 1), which caps throughput near 6,000 tasks/second (Fig. 8). The
baseline reuses the Nimbus cluster verbatim — its controller, workers and
network — and differs only in the control plane's central path: templates
are disabled, the controller's central scheduler is the BSP variant
:class:`SparkScheduler`, and scheduling charges Spark's per-task cost.
Task bodies follow the paper's "Spark-opt" methodology: spin waits as long
as the C++ tasks, so the comparison isolates the control plane.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Optional, Tuple

from ..nimbus.central import CentralScheduler
from ..nimbus.cluster import NimbusCluster
from ..nimbus.costs import CostModel, PAPER_COSTS
from ..nimbus.runtime import FunctionRegistry
from ..nimbus import protocol as P


def make_spark_costs(base: Optional[CostModel] = None) -> CostModel:
    """Cost profile of the Spark control plane (Table 1).

    The driver and scheduler are one process, so there is no separate
    driver→controller task-stream parse; the whole 166 µs is scheduling.
    """
    base = base or PAPER_COSTS
    return replace(
        base,
        central_schedule_per_task=166e-6,
        central_receive_per_task=0.0,
    )


class SparkScheduler(CentralScheduler):
    """Spark's BSP scheduler: one stage in flight at a time.

    Spark dispatches a stage's tasks, waits for all of them to complete at
    the driver, then launches the next stage; independent blocks queue
    behind the active one. Every command is its own dispatch message, so
    completion processing interleaves with dispatch (as Spark's driver
    threads do) and each stage ends at a barrier.
    """

    def __init__(self, controller):
        super().__init__(controller)
        #: (run, stages not yet dispatched, returns_rev) per submitted
        #: block, in submission order; the head has a stage in flight
        self._blocks: Deque[Tuple] = deque()

    def run_block(self, ctx, block, params, capture, request_id=0):
        run = self.controller._new_run(ctx, block.block_id, block.num_tasks,
                                       "central", request_id)
        # one outstanding count beyond its commands holds the run open
        # across its stage barriers, until its last stage is dispatched
        run.outstanding = 1
        stages = deque(
            [(task, params.get(task.param_slot) if task.param_slot else None)
             for task in stage.tasks]
            for stage in block.stages)
        returns_rev = {oid: name for name, oid in block.returns.items()}
        self._blocks.append((run, stages, returns_rev))
        if len(self._blocks) == 1:
            self._dispatch_stage()
        return run

    def _dispatch_stage(self) -> None:
        """Dispatch the head block's next stage, one message per command."""
        c = self.controller
        run, stages, returns_rev = self._blocks[0]
        tasks = stages.popleft()
        if not stages:
            run.outstanding -= 1  # last stage: its completions close the run

        def emit(cmd, report: bool) -> None:
            c.send_reliable(c.workers[cmd.worker], P.DispatchCommandBatch(
                [cmd], run.seq, (cmd.cid,) if report else ()))

        for task, params in tasks:
            worker = self.assign_worker(run.ctx, task.read, task.write)
            c.charge(c.costs.central_schedule_per_task)
            self.schedule_task(run, task.function, task.read, task.write,
                               worker, params, returns_rev, emit)
        run.ctx.metrics.incr("tasks_scheduled", len(tasks))

    def on_command_complete_batch(self, msg: P.CommandCompleteBatch) -> None:
        super().on_command_complete_batch(msg)
        # the stage barrier: one stage is in flight cluster-wide, so the
        # item that drains it is the last of its batch, and dispatching
        # after the fold is dispatching at that item
        if not self._blocks:
            return
        run, stages, _returns_rev = self._blocks[0]
        if run.outstanding == 0:  # its last stage drained: the fold closed it
            self._blocks.popleft()
            if self._blocks:
                self._dispatch_stage()
        elif run.outstanding == 1 and stages:
            self._dispatch_stage()


class SparkCluster(NimbusCluster):
    """A Spark-like deployment: centralized BSP scheduling, no templates."""

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
            costs=costs or make_spark_costs(),
            use_templates=False,
            **kwargs,
        )
        self.controller.central = SparkScheduler(self.controller)

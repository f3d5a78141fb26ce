"""Spark-like baseline: a purely centralized per-task scheduler (§5.1).

Spark's driver/controller dispatches every task individually and processes
every completion; the paper measures its per-task scheduling cost at 166 µs
(Table 1), which caps throughput near 6,000 tasks/second (Fig. 8). The
baseline reuses the Nimbus workers and network verbatim — only the control
plane differs: templates are disabled and the central path charges Spark's
per-task cost. Task bodies follow the paper's "Spark-opt" methodology:
spin waits as long as the C++ tasks, so the comparison isolates the control
plane.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..nimbus.cluster import NimbusCluster
from ..nimbus.controller import Controller
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


class SparkController(Controller):
    """Spark's BSP scheduler: one stage in flight at a time.

    Spark dispatches a stage's tasks, waits for all of them to complete at
    the driver, then launches the next stage; independent jobs queue behind
    the active one. This keeps completion processing interleaved with
    dispatch (as Spark's driver threads do) and reproduces the per-stage
    barriers of its execution model.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # queue of (run, [(stage_name, [(task, params)])], returns_rev)
        self._stage_queue: Deque[Tuple] = deque()
        self._active: Optional[Tuple] = None
        self._stage_outstanding = 0

    def _on_submit_block(self, ctx, msg: P.SubmitBlock) -> None:
        self.charge(self.costs.message_handling)
        run = self._new_run(ctx, msg.block.block_id, msg.block.num_tasks,
                            "central", request_id=msg.request_id)
        run.open = True
        returns_rev = {oid: name for name, oid in msg.block.returns.items()}
        stages = [
            (stage.name,
             [(task, msg.params.get(task.param_slot) if task.param_slot
               else None) for task in stage.tasks])
            for stage in msg.block.stages
        ]
        self._stage_queue.append((run, deque(stages), returns_rev))
        self._pump()

    def _pump(self) -> None:
        """Dispatch the next stage if none is in flight."""
        if self._active is not None and self._stage_outstanding > 0:
            return
        while self._stage_queue or self._active:
            if self._active is None:
                self._active = self._stage_queue.popleft()
            run, stages, returns_rev = self._active
            if not stages:
                self._active = None
                continue
            _name, tasks = stages.popleft()
            if not stages:
                run.open = False  # last stage: completion may close the run
            for task, params in tasks:
                worker = self._assign_worker(run.ctx, task.read, task.write)
                self.charge(self.costs.central_schedule_per_task)
                self._schedule_task_centrally(
                    run, task.function, task.read, task.write, worker,
                    params, returns_rev)
            self.metrics.incr("tasks_scheduled", len(tasks))
            # prior stages fully drained at the barrier, so everything
            # outstanding belongs to the stage just dispatched
            self._stage_outstanding = run.outstanding
            return

    def _dispatch(self, run, cmd, report: bool = False) -> None:
        # no block-wide coalescing: one message per task
        run.outstanding += 1
        self.send_reliable(self.workers[cmd.worker],
                           P.DispatchCommandBatch([(cmd, report)], run.seq))

    def _on_command_complete_batch(self, msg: P.CommandCompleteBatch) -> None:
        super()._on_command_complete_batch(msg)
        if self._active is None:
            return
        # the stage barrier: one stage is in flight cluster-wide, so the
        # item that drains it is the last of its batch and pumping after
        # the fold is pumping at that item
        seq = self._active[0].seq
        self._stage_outstanding -= msg.flat[1::4].count(seq)
        if self._stage_outstanding <= 0:
            if not self._active[1]:  # all stages dispatched and done
                self._active = None
            self._pump()

    def _on_instantiate_block(self, ctx, msg: P.InstantiateBlock) -> None:
        raise RuntimeError("Spark has no templates to instantiate")


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
        spark = SparkController(
            self.sim, self.costs, self.metrics,
            slots_per_worker=self.controller.slots_per_worker,
        )
        self.network.attach(spark)
        spark.attach_workers(self.workers)
        spark.driver = self.driver
        self.driver.controller = spark
        for worker in self.workers.values():
            worker.controller = spark
        self.controller = spark

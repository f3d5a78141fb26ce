"""The training-regression application of Figure 3.

The paper's running example: a nested loop where the inner *optimization*
block runs gradient steps on the training data until the gradient norm is
small, and the outer *estimation* block measures the error on held-out
estimation data and updates the model parameter (here: the step size).

The inner-loop block reads the parameter written by the outer block, so
entering the inner loop fails validation and is patched (the ``param``
broadcast of §2.4); because the same transition recurs on every outer
iteration, the patch cache hits from the second outer iteration on — this
app is the canonical exerciser of patching and the patch cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.spec import BlockSpec, LogicalTask, StageSpec
from ..nimbus.runtime import FunctionRegistry
from .datasets import Variables, block_home, make_regression_data
from .reductions import ReductionTree


@dataclass
class RegressionSpec:
    """Parameters of the Figure 3 training-regression job."""

    num_workers: int
    partitions_per_worker: int = 4
    dim: int = 10
    rows_per_partition: int = 100
    gradient_task_s: float = 2e-3
    estimate_task_s: float = 1e-3
    reduce_task_s: float = 0.3e-3
    initial_step: float = 0.5
    threshold_g: float = 0.05
    threshold_e: float = 0.05
    max_inner: int = 50
    max_outer: int = 20
    seed: int = 0

    @property
    def num_partitions(self) -> int:
        return self.num_workers * self.partitions_per_worker


class RegressionApp:
    """Builds the two basic blocks of Figure 3 with real numerics."""

    def __init__(self, spec: RegressionSpec):
        self.spec = spec
        self.variables = Variables()
        home = block_home(spec.partitions_per_worker)
        self.tdata = self.variables.partitioned(
            "tdata", spec.num_partitions, 1 << 20, home)
        self.edata = self.variables.partitioned(
            "edata", spec.num_partitions, 1 << 20, home)
        self.grad = self.variables.partitioned(
            "grad", spec.num_partitions, 8 * spec.dim, home)
        self.err_part = self.variables.partitioned(
            "err_part", spec.num_partitions, 8, home)
        self.gtree = ReductionTree(
            self.variables, "gsum", self.grad, home, spec.num_workers,
            8 * spec.dim)
        self.etree = ReductionTree(
            self.variables, "esum", self.err_part, home, spec.num_workers, 8)
        self.coeff = self.variables.scalar("coeff", 8 * spec.dim, home=0)
        self.param = self.variables.scalar("param", 8, home=0)
        self.registry = self._build_registry()
        self.init_block = self._build_init_block()
        self.optimize_block = self._build_optimize_block()
        self.estimate_block = self._build_estimate_block()

    # ------------------------------------------------------------------
    def _build_registry(self) -> FunctionRegistry:
        import numpy as np

        spec = self.spec
        registry = FunctionRegistry()
        tparts, truth = make_regression_data(
            spec.num_partitions, spec.rows_per_partition, spec.dim,
            spec.seed, noise=0.0)
        eparts, _ = make_regression_data(
            spec.num_partitions, spec.rows_per_partition, spec.dim,
            spec.seed + 1, noise=0.0, truth=truth)
        tbase, ebase = self.tdata[0], self.edata[0]

        def load_t(ctx):
            ctx.write(ctx.write_set[0], tparts[ctx.write_set[0] - tbase])

        def load_e(ctx):
            ctx.write(ctx.write_set[0], eparts[ctx.write_set[0] - ebase])

        def init_coeff(ctx):
            ctx.write(ctx.write_set[0], np.zeros(spec.dim))

        def init_param(ctx):
            ctx.write(ctx.write_set[0], spec.initial_step)

        def gradient(ctx):
            (x, y) = ctx.read(ctx.read_set[0])
            coeff = ctx.read(ctx.read_set[1])
            _param = ctx.read(ctx.read_set[2])
            preds = 1.0 / (1.0 + np.exp(-(x @ coeff)))
            ctx.write(ctx.write_set[0], x.T @ (preds - y) / len(y))

        def sum_vec(ctx):
            total = None
            for value in ctx.reads():
                total = value.copy() if total is None else total + value
            ctx.write(ctx.write_set[0], total)

        def update_coeff(ctx):
            *partials, coeff, param = ctx.reads()
            grad = None
            for value in partials:
                grad = value.copy() if grad is None else grad + value
            ctx.write(ctx.write_set[1], coeff - param * grad)
            ctx.write(ctx.write_set[0], float(np.linalg.norm(grad)))

        def estimate(ctx):
            (x, y) = ctx.read(ctx.read_set[0])
            coeff = ctx.read(ctx.read_set[1])
            preds = 1.0 / (1.0 + np.exp(-(x @ coeff)))
            ctx.write(ctx.write_set[0],
                      float(np.mean((preds > 0.5) != (y > 0.5))))

        def sum_scalar(ctx):
            ctx.write(ctx.write_set[0], float(sum(ctx.reads())))

        def update_model(ctx):
            *partials, param = ctx.reads()
            error = sum(partials) / self.spec.num_partitions
            # decay the step size as the error shrinks (the "update_model"
            # of Figure 3a)
            ctx.write(ctx.write_set[1], max(0.05, param * 0.9))
            ctx.write(ctx.write_set[0], error)

        registry.register("reg.load_t", fn=load_t, duration=1e-3)
        registry.register("reg.load_e", fn=load_e, duration=1e-3)
        registry.register("reg.init_coeff", fn=init_coeff, duration=1e-4)
        registry.register("reg.init_param", fn=init_param, duration=1e-4)
        registry.register("reg.gradient", fn=gradient,
                          duration=spec.gradient_task_s)
        registry.register("reg.sum", fn=sum_vec, duration=spec.reduce_task_s)
        registry.register("reg.group_sum", fn=sum_vec,
                          duration=spec.reduce_task_s)
        registry.register("reg.update_coeff", fn=update_coeff,
                          duration=spec.reduce_task_s)
        registry.register("reg.estimate", fn=estimate,
                          duration=spec.estimate_task_s)
        registry.register("reg.err_sum", fn=sum_scalar,
                          duration=spec.reduce_task_s)
        registry.register("reg.err_group", fn=sum_scalar,
                          duration=spec.reduce_task_s)
        registry.register("reg.update_model", fn=update_model,
                          duration=spec.reduce_task_s)
        return registry

    # ------------------------------------------------------------------
    def _build_init_block(self) -> BlockSpec:
        return BlockSpec("reg.init", [
            StageSpec("load_t", [
                LogicalTask("reg.load_t", read=(), write=(oid,))
                for oid in self.tdata
            ]),
            StageSpec("load_e", [
                LogicalTask("reg.load_e", read=(), write=(oid,))
                for oid in self.edata
            ]),
            StageSpec("init", [
                LogicalTask("reg.init_coeff", read=(), write=(self.coeff,)),
                LogicalTask("reg.init_param", read=(), write=(self.param,)),
            ]),
        ])

    def _build_optimize_block(self) -> BlockSpec:
        """The inner-loop basic block: gradient step on the training data."""
        spec = self.spec
        gradient_tasks = [
            LogicalTask("reg.gradient",
                        read=(self.tdata[p], self.coeff, self.param),
                        write=(self.grad[p],))
            for p in range(spec.num_partitions)
        ]
        stages = [StageSpec("gradient", gradient_tasks)]
        stages += self.gtree.stages(
            "reg.sum", "reg.group_sum", "reg.update_coeff",
            extra_root_reads=(self.coeff, self.param),
            extra_root_writes=(self.coeff,),
        )
        return BlockSpec("reg.optimize", stages,
                         returns={"gradient": self.gtree.result_oid})

    def _build_estimate_block(self) -> BlockSpec:
        """The outer-loop basic block: estimation error + model update."""
        spec = self.spec
        estimate_tasks = [
            LogicalTask("reg.estimate",
                        read=(self.edata[p], self.coeff),
                        write=(self.err_part[p],))
            for p in range(spec.num_partitions)
        ]
        stages = [StageSpec("estimate", estimate_tasks)]
        stages += self.etree.stages(
            "reg.err_sum", "reg.err_group", "reg.update_model",
            extra_root_reads=(self.param,),
            extra_root_writes=(self.param,),
        )
        return BlockSpec("reg.estimate", stages,
                         returns={"error": self.etree.result_oid})

    # ------------------------------------------------------------------
    def program(self):
        """The nested driver loop of Figure 3a."""
        spec = self.spec

        def _program(job):
            yield job.define(self.variables.definitions)
            yield job.run(self.init_block)
            error = float("inf")
            outer = 0
            while error > spec.threshold_e and outer < spec.max_outer:
                gradient = float("inf")
                inner = 0
                while gradient > spec.threshold_g and inner < spec.max_inner:
                    res = yield job.run(self.optimize_block)
                    gradient = res["gradient"]
                    inner += 1
                res = yield job.run(self.estimate_block)
                error = res["error"]
                outer += 1

        return _program

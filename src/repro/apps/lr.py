"""Logistic regression (the paper's primary benchmark, §5.1–§5.4).

Strong-scaling setup matching the paper: a fixed dataset (default 100 GB)
split into 80 partitions per worker, one gradient task per partition, and
an application-level two-level reduction tree folding partial gradients
into a coefficient update. More workers ⇒ more, shorter tasks — task
throughput grows superlinearly with parallelism (Fig. 8).

Two modes:

* ``real_compute=True`` — partitions hold real numpy data; tasks compute a
  genuine logistic-regression gradient and the model converges (used by
  examples and integration tests at laptop scale).
* ``real_compute=False`` — the paper's "-opt" methodology: task bodies are
  virtual-time spin waits whose durations come from the calibrated rate of
  the C++ tasks, so 100 GB runs are simulated faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.spec import BlockSpec, LogicalTask, StageSpec
from ..nimbus.multijob import OID_STRIDE
from ..nimbus.runtime import FunctionRegistry
from .datasets import Variables, block_home, make_regression_data
from .reductions import ReductionTree

#: calibrated C++ gradient throughput, bytes/second/core (§5.1: Nimbus
#: tasks are memory-bound C++; calibrated to the paper's 20-worker and
#: 100-worker iteration times)
CPP_RATE = 3.05e9
#: Spark MLlib throughput: 8x slower than C++ (4x JVM + 2x immutable copies)
MLLIB_RATE = CPP_RATE / 8.0


@dataclass
class LRSpec:
    """Parameters of one logistic-regression run."""

    num_workers: int
    data_bytes: float = 100e9
    partitions_per_worker: int = 80
    dim: int = 1000
    iterations: int = 30
    compute_rate: float = CPP_RATE
    local_reduce_s: float = 0.3e-3
    group_reduce_s: float = 1.0e-3
    root_update_s: float = 2.0e-3
    step_size: float = 0.5
    real_compute: bool = False
    rows_per_partition: int = 64  # only for real_compute
    seed: int = 0

    @property
    def num_partitions(self) -> int:
        return self.num_workers * self.partitions_per_worker

    @property
    def partition_bytes(self) -> float:
        return self.data_bytes / self.num_partitions

    @property
    def gradient_task_s(self) -> float:
        return self.partition_bytes / self.compute_rate

    @property
    def coeff_bytes(self) -> int:
        return 8 * self.dim


class LRApp:
    """Builds the registry, objects, and blocks for a logistic regression job."""

    def __init__(self, spec: LRSpec):
        self.spec = spec
        self.variables = Variables()
        home = block_home(spec.partitions_per_worker)
        self.tdata = self.variables.partitioned(
            "tdata", spec.num_partitions, int(spec.partition_bytes), home)
        self.grad = self.variables.partitioned(
            "grad", spec.num_partitions, spec.coeff_bytes, home)
        self.tree = ReductionTree(
            self.variables, "gsum", self.grad, home, spec.num_workers,
            spec.coeff_bytes)
        self.coeff = self.variables.scalar(
            "coeff", spec.coeff_bytes, home=self.tree.root_worker)
        self.registry = self._build_registry()
        self.init_block = self._build_init_block()
        self.iteration_block = self._build_iteration_block()

    # ------------------------------------------------------------------
    # Task functions
    # ------------------------------------------------------------------
    def _build_registry(self) -> FunctionRegistry:
        spec = self.spec
        registry = FunctionRegistry()
        if spec.real_compute:
            registry.register("lr.load",
                              fn=_load_partition(spec, self.tdata[0]),
                              duration=1e-3)
            registry.register("lr.init_coeff", fn=_init_coeff(spec),
                              duration=1e-4)
            registry.register("lr.gradient", fn=_gradient,
                              duration=spec.gradient_task_s)
            registry.register("lr.sum", fn=_sum_partials,
                              duration=spec.local_reduce_s)
            registry.register("lr.group_sum", fn=_sum_partials,
                              duration=spec.group_reduce_s)
            registry.register("lr.update", fn=_update_coeff(spec),
                              duration=spec.root_update_s)
        else:
            registry.register("lr.load", duration=1e-3)
            registry.register("lr.init_coeff", duration=1e-4)
            registry.register("lr.gradient", duration=spec.gradient_task_s)
            registry.register("lr.sum", duration=spec.local_reduce_s)
            registry.register("lr.group_sum", duration=spec.group_reduce_s)
            registry.register("lr.update", duration=spec.root_update_s)
        return registry

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    def _build_init_block(self) -> BlockSpec:
        load_tasks = [
            LogicalTask("lr.load", read=(), write=(oid,))
            for oid in self.tdata
        ]
        init_task = LogicalTask("lr.init_coeff", read=(), write=(self.coeff,))
        return BlockSpec("lr.init", [
            StageSpec("load", load_tasks),
            StageSpec("init_coeff", [init_task]),
        ])

    def _build_iteration_block(self) -> BlockSpec:
        spec = self.spec
        gradient_tasks = [
            LogicalTask("lr.gradient",
                        read=(self.tdata[p], self.coeff),
                        write=(self.grad[p],))
            for p in range(spec.num_partitions)
        ]
        stages = [StageSpec("gradient", gradient_tasks)]
        stages += self.tree.stages(
            "lr.sum", "lr.group_sum", "lr.update",
            extra_root_reads=(self.coeff,),
            extra_root_writes=(self.coeff,),
            root_param_slot="step",
        )
        return BlockSpec("lr.iteration", stages,
                         returns={"grad_norm": self.tree.result_oid})

    # ------------------------------------------------------------------
    # Driver programs
    # ------------------------------------------------------------------
    def program(self, blocking: bool = False,
                iterations: Optional[int] = None):
        """Fixed-iteration program (the Fig. 7/8 measurement loop).

        Non-blocking mode posts all iterations and drains — the driver is
        out of the loop and ordering comes from the dataflow, as in the
        paper's measurement runs.
        """
        spec = self.spec
        iters = iterations if iterations is not None else spec.iterations

        def _program(job):
            yield job.define(self.variables.definitions)
            yield job.run(self.init_block)
            params = {"step": spec.step_size}
            if blocking:
                for _ in range(iters):
                    yield job.run(self.iteration_block, params)
            else:
                for _ in range(iters):
                    job.post(self.iteration_block, params)
                yield job.drain()

        return _program

    def convergence_program(self, tolerance: float,
                            max_iterations: int = 200):
        """Data-dependent program: iterate until the gradient norm falls
        below ``tolerance`` (requires ``real_compute=True``)."""

        def _program(job):
            yield job.define(self.variables.definitions)
            yield job.run(self.init_block)
            params = {"step": self.spec.step_size}
            for _ in range(max_iterations):
                res = yield job.run(self.iteration_block, params)
                if res["grad_norm"] is not None and res["grad_norm"] < tolerance:
                    break

        return _program


# ---------------------------------------------------------------------------
# Real task implementations (closures over the spec)
# ---------------------------------------------------------------------------
def _load_partition(spec: LRSpec, tdata_base_oid: int):
    partitions, _truth = make_regression_data(
        spec.num_partitions, spec.rows_per_partition, spec.dim, spec.seed)

    def load(ctx):
        # tdata object ids are consecutive; recover the partition index
        # from the written oid so loading is placement-independent. Under
        # multi-tenant serving the runtime oid is the job-local id plus a
        # per-job stride multiple, which the modulo removes.
        partition = (ctx.write_set[0] - tdata_base_oid) % OID_STRIDE
        ctx.write(ctx.write_set[0], partitions[partition])

    return load


def _init_coeff(spec: LRSpec):
    import numpy as np

    def init(ctx):
        ctx.write(ctx.write_set[0], np.zeros(spec.dim))

    return init


def _gradient(ctx):
    import numpy as np

    (x, y) = ctx.read(ctx.read_set[0])
    coeff = ctx.read(ctx.read_set[1])
    logits = x @ coeff
    preds = 1.0 / (1.0 + np.exp(-logits))
    grad = x.T @ (preds - y) / len(y)
    ctx.write(ctx.write_set[0], grad)


def _sum_partials(ctx):
    total = None
    for value in ctx.reads():
        total = value.copy() if total is None else total + value
    ctx.write(ctx.write_set[0], total)


def _update_coeff(spec: LRSpec):
    import numpy as np

    def update(ctx):
        *partials, coeff = ctx.reads()
        grad = None
        for value in partials:
            grad = value.copy() if grad is None else grad + value
        step = ctx.params if ctx.params is not None else spec.step_size
        new_coeff = coeff - step * grad
        ctx.write(ctx.write_set[1], new_coeff)
        ctx.write(ctx.write_set[0], float(np.linalg.norm(grad)))

    return update

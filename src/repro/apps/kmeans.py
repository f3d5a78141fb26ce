"""K-means clustering (the paper's second ML benchmark, §5.1, Fig. 7b).

Same strong-scaling structure as logistic regression: one assignment task
per partition plus a two-level reduction tree folding per-partition cluster
statistics into new centroids. Per-byte compute is heavier and the
reduction partials (k × d sums and counts) are larger, so completion time
shrinks slower than the parallelism grows — "reductions do not
parallelize" (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.spec import BlockSpec, LogicalTask, StageSpec
from ..nimbus.multijob import OID_STRIDE
from ..nimbus.runtime import FunctionRegistry
from .datasets import Variables, block_home, make_cluster_data
from .reductions import ReductionTree

#: calibrated C++ k-means assignment throughput, bytes/second/core
#: (calibrated to the paper's 20-worker and 100-worker iteration times)
KMEANS_CPP_RATE = 2.08e9


@dataclass
class KMeansSpec:
    """Parameters of one k-means run."""

    num_workers: int
    data_bytes: float = 100e9
    partitions_per_worker: int = 80
    dim: int = 100
    num_clusters: int = 100
    iterations: int = 30
    compute_rate: float = KMEANS_CPP_RATE
    local_reduce_s: float = 1.0e-3
    group_reduce_s: float = 5.0e-3
    root_update_s: float = 10.0e-3
    real_compute: bool = False
    rows_per_partition: int = 128  # only for real_compute
    seed: int = 0

    @property
    def num_partitions(self) -> int:
        return self.num_workers * self.partitions_per_worker

    @property
    def partition_bytes(self) -> float:
        return self.data_bytes / self.num_partitions

    @property
    def assign_task_s(self) -> float:
        return self.partition_bytes / self.compute_rate

    @property
    def stats_bytes(self) -> int:
        # per-cluster coordinate sums plus counts
        return 8 * self.num_clusters * (self.dim + 1)


class KMeansApp:
    """Builds the registry, objects, and blocks for a k-means job."""

    def __init__(self, spec: KMeansSpec):
        self.spec = spec
        self.variables = Variables()
        home = block_home(spec.partitions_per_worker)
        self.kdata = self.variables.partitioned(
            "kdata", spec.num_partitions, int(spec.partition_bytes), home)
        self.stats = self.variables.partitioned(
            "stats", spec.num_partitions, spec.stats_bytes, home)
        self.tree = ReductionTree(
            self.variables, "ksum", self.stats, home, spec.num_workers,
            spec.stats_bytes)
        self.centroids = self.variables.scalar(
            "centroids", spec.stats_bytes, home=self.tree.root_worker)
        self.registry = self._build_registry()
        self.init_block = self._build_init_block()
        self.iteration_block = self._build_iteration_block()

    def _build_registry(self) -> FunctionRegistry:
        spec = self.spec
        registry = FunctionRegistry()
        fns = {
            "km.load": _load_partition(spec, self.kdata[0])
            if spec.real_compute else None,
            "km.init_centroids": _init_centroids(spec)
            if spec.real_compute else None,
            "km.assign": _assign if spec.real_compute else None,
            "km.sum": _sum_stats if spec.real_compute else None,
            "km.group_sum": _sum_stats if spec.real_compute else None,
            "km.update": _update_centroids(spec)
            if spec.real_compute else None,
        }
        registry.register("km.load", fn=fns["km.load"], duration=1e-3)
        registry.register("km.init_centroids", fn=fns["km.init_centroids"],
                          duration=1e-4)
        registry.register("km.assign", fn=fns["km.assign"],
                          duration=spec.assign_task_s)
        registry.register("km.sum", fn=fns["km.sum"],
                          duration=spec.local_reduce_s)
        registry.register("km.group_sum", fn=fns["km.group_sum"],
                          duration=spec.group_reduce_s)
        registry.register("km.update", fn=fns["km.update"],
                          duration=spec.root_update_s)
        return registry

    def _build_init_block(self) -> BlockSpec:
        load_tasks = [
            LogicalTask("km.load", read=(), write=(oid,))
            for oid in self.kdata
        ]
        init_task = LogicalTask("km.init_centroids", read=(),
                                write=(self.centroids,))
        return BlockSpec("km.init", [
            StageSpec("load", load_tasks),
            StageSpec("init_centroids", [init_task]),
        ])

    def _build_iteration_block(self) -> BlockSpec:
        spec = self.spec
        assign_tasks = [
            LogicalTask("km.assign",
                        read=(self.kdata[p], self.centroids),
                        write=(self.stats[p],))
            for p in range(spec.num_partitions)
        ]
        stages = [StageSpec("assign", assign_tasks)]
        stages += self.tree.stages(
            "km.sum", "km.group_sum", "km.update",
            extra_root_writes=(self.centroids,),
        )
        return BlockSpec("km.iteration", stages,
                         returns={"inertia": self.tree.result_oid})

    def program(self, blocking: bool = False,
                iterations: Optional[int] = None):
        """Fixed-iteration measurement program (Fig. 7b)."""
        iters = iterations if iterations is not None else self.spec.iterations

        def _program(job):
            yield job.define(self.variables.definitions)
            yield job.run(self.init_block)
            if blocking:
                for _ in range(iters):
                    yield job.run(self.iteration_block)
            else:
                for _ in range(iters):
                    job.post(self.iteration_block)
                yield job.drain()

        return _program

    def convergence_program(self, tolerance: float,
                            max_iterations: int = 100):
        """Iterate until the inertia improvement falls below ``tolerance``."""

        def _program(job):
            yield job.define(self.variables.definitions)
            yield job.run(self.init_block)
            previous = None
            for _ in range(max_iterations):
                res = yield job.run(self.iteration_block)
                inertia = res["inertia"]
                if (previous is not None and inertia is not None
                        and abs(previous - inertia) < tolerance):
                    break
                previous = inertia

        return _program


# ---------------------------------------------------------------------------
# Real task implementations
# ---------------------------------------------------------------------------
def _load_partition(spec: KMeansSpec, kdata_base_oid: int):
    partitions, _centers = make_cluster_data(
        spec.num_partitions, spec.rows_per_partition, spec.dim,
        spec.num_clusters, spec.seed)

    def load(ctx):
        # the runtime oid may carry a per-job stride offset (multi-tenant
        # namespacing); the modulo recovers the job-local partition index
        partition = (ctx.write_set[0] - kdata_base_oid) % OID_STRIDE
        ctx.write(ctx.write_set[0], partitions[partition])

    return load


def _init_centroids(spec: KMeansSpec):
    import numpy as np

    def init(ctx):
        rng = np.random.default_rng(spec.seed + 1)
        centroids = rng.uniform(-1.0, 1.0, size=(spec.num_clusters, spec.dim))
        ctx.write(ctx.write_set[0], {"centroids": centroids})

    return init


def _assign(ctx):
    import numpy as np

    points = ctx.read(ctx.read_set[0])
    centroids = ctx.read(ctx.read_set[1])["centroids"]
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    k, d = centroids.shape
    sums = np.zeros((k, d))
    counts = np.zeros(k)
    np.add.at(sums, labels, points)
    np.add.at(counts, labels, 1.0)
    inertia = float(dists[np.arange(len(points)), labels].sum())
    ctx.write(ctx.write_set[0],
              {"sums": sums, "counts": counts, "inertia": inertia})


def _sum_stats(ctx):
    total = None
    for value in ctx.reads():
        if total is None:
            total = {"sums": value["sums"].copy(),
                     "counts": value["counts"].copy(),
                     "inertia": value["inertia"]}
        else:
            total["sums"] += value["sums"]
            total["counts"] += value["counts"]
            total["inertia"] += value["inertia"]
    ctx.write(ctx.write_set[0], total)


def _update_centroids(spec: KMeansSpec):
    import numpy as np

    def update(ctx):
        partials = ctx.reads()
        total = None
        for value in partials:
            if total is None:
                total = {"sums": value["sums"].copy(),
                         "counts": value["counts"].copy(),
                         "inertia": value["inertia"]}
            else:
                total["sums"] += value["sums"]
                total["counts"] += value["counts"]
                total["inertia"] += value["inertia"]
        counts = np.maximum(total["counts"], 1.0)
        centroids = total["sums"] / counts[:, None]
        ctx.write(ctx.write_set[1], {"centroids": centroids})
        ctx.write(ctx.write_set[0], total["inertia"])

    return update

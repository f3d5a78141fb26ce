"""One run spec, one run record.

A :class:`RunSpec` names an app (by its spec object), the control plane,
the cluster settings and the shape of the driver program; :func:`execute`
builds the app and the cluster, runs the program to the end and returns
a :class:`Run` with the readings the experiments take. The CLI's app
subcommands, the step scenarios, the figure files under ``benchmarks/``
and the examples all run this way. A spec builds exactly the program and
the cluster its caller used to build by hand. :mod:`repro.apps` and
:mod:`repro.nimbus` do not import this module.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, List, Optional, Tuple

from ..analysis import (iteration_breakdowns, iteration_ends,
                        mean_iteration_time, task_throughput)
from ..analysis.breakdown import mean_compute_time
from ..baselines import MPICluster, NaiadCluster, SparkCluster
from ..nimbus import NimbusCluster
from ..nimbus import protocol as P
from .kmeans import KMeansApp, KMeansSpec
from .lr import LRApp, LRSpec
from .regression import RegressionApp, RegressionSpec
from .rotation import RotationApp, RotationSpec
from .water import WaterApp, WaterSpec

SYSTEMS = {"nimbus": NimbusCluster, "spark": SparkCluster,
           "naiad": NaiadCluster, "mpi": MPICluster}

#: app spec type -> (app class, the block whose iterations are measured)
APPS = {LRSpec: (LRApp, "lr.iteration"),
        KMeansSpec: (KMeansApp, "km.iteration"),
        WaterSpec: (WaterApp, "water.cg"),
        RegressionSpec: (RegressionApp, "reg.optimize"),
        RotationSpec: (RotationApp, "rot.consume")}

#: the RunSpec fields passed to the cluster constructor
CLUSTER_FIELDS = (
    "seed", "mode", "shards", "use_templates", "costs", "chaos_plan",
    "patch_cache_cap", "rebalance", "rebalance_threshold", "autoscale",
    "autoscale_interval", "autoscale_cold_start", "autoscale_max_workers",
    "trace")


@dataclass(frozen=True)
class RunSpec:
    """One run. The cluster has the app spec's ``num_workers``; a cluster
    setting left at None is not passed, so the system's default holds."""

    app: Any  #: an ``LRSpec``, ``KMeansSpec``, ``WaterSpec``, ... instance
    system: str = "nimbus"  #: a key of :data:`SYSTEMS`
    seed: Optional[int] = None
    mode: Optional[str] = None
    shards: Optional[int] = None
    use_templates: Optional[bool] = None
    costs: Any = None
    chaos_plan: Any = None
    patch_cache_cap: Optional[int] = None
    rebalance: Optional[bool] = None
    rebalance_threshold: Optional[float] = None
    autoscale: Optional[bool] = None
    autoscale_interval: Optional[float] = None
    autoscale_cold_start: Optional[float] = None
    autoscale_max_workers: Optional[int] = None
    trace: Optional[bool] = None
    #: LR, k-means: wait for each iteration instead of posting them all
    blocking: bool = False
    #: leading iterations the readings skip (template installation)
    warmup: int = 0
    #: k-means: iterate until the inertia improves by less than this
    tolerance: Optional[float] = None
    #: blocking LR: the driver switches templates on before this iteration
    enable_templates_at: Optional[int] = None
    #: blocking LR: (iteration, action) pairs; each action goes to the
    #: controller as a ``ManagerDirective`` before its iteration is posted
    directives: Tuple[Tuple[int, Callable], ...] = ()
    #: called with the built cluster before it runs
    prepare: Optional[Callable] = None


@dataclass(eq=False)
class Run:
    """A finished run. The readings measure ``block`` and skip the spec's
    ``warmup`` iterations."""

    spec: RunSpec
    app: Any
    cluster: Any
    block: str
    frame_ends: List[float]  #: water: when each frame ended
    wall: float  #: host seconds the simulation took

    def count(self, name: str) -> float:
        return self.cluster.metrics.count(name)

    @cached_property
    def iteration_ends(self) -> List[float]:
        return iteration_ends(self.cluster.metrics, self.block)

    @property
    def iteration_time(self) -> float:
        return mean_iteration_time(self.cluster.metrics, self.block,
                                   skip=self.spec.warmup)

    @property
    def compute_time(self) -> float:
        return mean_compute_time(self.cluster.metrics, self.block,
                                 skip=self.spec.warmup)

    @property
    def throughput(self) -> float:
        return task_throughput(self.cluster.metrics, self.block,
                               skip=self.spec.warmup)

    @property
    def breakdowns(self):
        return iteration_breakdowns(self.cluster.metrics, self.block)

    @property
    def digest(self) -> str:
        """sha256 over job 0's results history: placement-independent."""
        h = hashlib.sha256()
        history = self.cluster.controller.jobs[0].results_history
        for block_id, results in history:
            h.update(repr((block_id, sorted(results.items()))).encode())
        return h.hexdigest()


def execute(spec: RunSpec) -> Run:
    """Build the run ``spec`` describes and run it to the end."""
    app_cls, block = APPS[type(spec.app)]
    app = app_cls(spec.app)
    frame_ends: List[float] = []
    scripted = spec.directives or spec.enable_templates_at is not None
    if scripted and not (isinstance(app, LRApp) and spec.blocking):
        raise ValueError("scripted events need a blocking LR program")
    if spec.tolerance is not None:
        program = app.convergence_program(spec.tolerance)
    elif isinstance(app, WaterApp):
        program = app.program(frame_log=frame_ends)
    elif isinstance(app, (RegressionApp, RotationApp)):
        program = app.program()
    elif scripted:  # the program first runs once the cluster below exists
        program = _scripted(spec, app, lambda: cluster.controller)
    else:
        program = app.program(blocking=spec.blocking)
    settings = {name: getattr(spec, name) for name in CLUSTER_FIELDS
                if getattr(spec, name) is not None}
    cluster = SYSTEMS[spec.system](spec.app.num_workers, program,
                                   registry=app.registry, **settings)
    if spec.prepare is not None:
        spec.prepare(cluster)
    start = time.perf_counter()
    cluster.run_until_finished(max_seconds=1e7)
    return Run(spec, app, cluster, block, frame_ends,
               time.perf_counter() - start)


def _scripted(spec: RunSpec, app: LRApp, controller: Callable):
    """LR's blocking loop with the spec's scripted events."""
    params = {"step": app.spec.step_size}

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(app.spec.iterations):
            if i == spec.enable_templates_at:
                job.enable_templates()
            for at, action in spec.directives:
                if at == i:
                    controller().deliver(P.ManagerDirective(action))
            yield job.run(app.iteration_block, params)

    return program

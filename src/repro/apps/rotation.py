"""Rotating producer/consumer loop: the patch-cache exerciser workload.

Fig. 9's dynamic experiments show patching in anger; this is the distilled
steady-state version. Two basic blocks alternate:

* **produce** — one task per partition writes ``data[p]`` on the
  partition's home worker;
* **consume** — one task per partition reads ``data[p]`` but writes its
  output on the *next* worker (``home + 1 mod N``), so the consume
  template's preconditions expect every ``data[p]`` one worker ahead of
  where produce just wrote it.

Worker templates bake in only structural (intra-block) copies, so every
steady-state consume instantiation fails validation with the same
violation set and is repaired by a patch (§2.4). The produce→consume
transition recurs every round, which is exactly the narrow-control-flow
case the patch cache targets (§4.2): the patch is computed once and every
later round is a cache hit. The fig07/fig08 workloads never replay a
patch, so this loop is what gives ``patch_cache_hits`` real coverage.

The loop is inherently blocking: round k+1's produce overwrites the very
objects round k's consume reads, so the driver must wait for each block
(there is no dataflow edge ordering them). ``program()`` therefore ignores
the non-blocking mode the fig07/fig08 apps offer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.spec import BlockSpec, LogicalTask, StageSpec
from ..nimbus.runtime import FunctionRegistry
from .datasets import Variables, block_home


@dataclass
class RotationSpec:
    """Parameters of the rotating two-block loop."""

    num_workers: int
    partitions_per_worker: int = 4
    data_bytes: int = 1 << 20
    produce_task_s: float = 1e-3
    consume_task_s: float = 1e-3
    iterations: int = 14
    seed: int = 0

    @property
    def num_partitions(self) -> int:
        return self.num_workers * self.partitions_per_worker


class RotationApp:
    """Builds the produce/consume block pair over rotated placements."""

    def __init__(self, spec: RotationSpec):
        self.spec = spec
        self.variables = Variables()
        home = block_home(spec.partitions_per_worker)

        def next_home(p: int) -> int:
            return (home(p) + 1) % spec.num_workers

        self.data = self.variables.partitioned(
            "data", spec.num_partitions, spec.data_bytes, home)
        # outputs live one worker ahead, dragging the consume tasks (and
        # their data preconditions) with them
        self.out = self.variables.partitioned(
            "out", spec.num_partitions, 8, next_home)
        self.registry = self._build_registry()
        self.produce_block = self._build_produce_block()
        self.consume_block = self._build_consume_block()

    @property
    def iteration_block(self) -> BlockSpec:
        """The measured block (one entry per round, as in the LR and
        k-means apps)."""
        return self.consume_block

    def _build_registry(self) -> FunctionRegistry:
        registry = FunctionRegistry()
        registry.register("rot.produce", duration=self.spec.produce_task_s)
        registry.register("rot.consume", duration=self.spec.consume_task_s)
        return registry

    def _build_produce_block(self) -> BlockSpec:
        return BlockSpec("rot.produce", [StageSpec("produce", [
            LogicalTask("rot.produce", read=(), write=(oid,))
            for oid in self.data
        ])])

    def _build_consume_block(self) -> BlockSpec:
        spec = self.spec
        return BlockSpec("rot.consume", [StageSpec("consume", [
            LogicalTask("rot.consume",
                        read=(self.data[p],), write=(self.out[p],))
            for p in range(spec.num_partitions)
        ])])

    def program(self, blocking: bool = True, iterations=None):
        """The alternating driver loop (always blocking, see module doc)."""
        iters = iterations if iterations is not None else self.spec.iterations

        def _program(job):
            yield job.define(self.variables.definitions)
            for _ in range(iters):
                yield job.run(self.produce_block)
                yield job.run(self.consume_block)

        return _program

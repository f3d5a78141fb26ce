#!/usr/bin/env python3
"""The PhysBAM-proxy water simulation: a triply nested, data-dependent job.

One frame of the particle-levelset water simulation (scaled down): an
adaptive CFL-bounded substep loop, each substep running 21 computational
stages over 40+ variables, with a conjugate-gradient projection loop whose
iteration count depends on a residual returned through the control plane,
plus a particle-reseeding branch every few substeps.

Run:  python examples/water_simulation.py
"""

from collections import Counter

from repro.apps import WaterSpec
from repro.apps.runner import RunSpec, execute


def main() -> None:
    spec = WaterSpec(
        num_workers=8,
        partitions_per_worker=2,
        scale=0.02,            # scaled-down stage durations
        frame_duration=0.01,   # a short frame: ~5 substeps
        reseed_every=3,
    )
    run = execute(RunSpec(spec, use_templates=True))
    cluster = run.cluster
    print(f"Simulation variables: {run.app.num_variables} "
          f"(paper: 'over 40 different variables')")
    print(f"Computational stages per substep: 21")
    print(f"Expected substeps this frame: {spec.expected_substeps()}\n")

    blocks = Counter(iv.labels["block_id"]
                     for iv in cluster.metrics.intervals["block"])
    print("Blocks executed:")
    for block_id, count in sorted(blocks.items()):
        print(f"  {block_id:15s} x {count}")

    cg_per_substep = []
    current = 0
    for iv in cluster.metrics.intervals["block"]:
        if iv.labels["block_id"] == "water.cg":
            current += 1
        elif iv.labels["block_id"] == "water.post":
            cg_per_substep.append(current)
            current = 0
    print(f"\nCG iterations per substep (data-dependent): {cg_per_substep}")

    metrics = cluster.metrics
    print(f"\nFrame virtual time: {cluster.sim.now:.3f} s")
    print(f"Tasks executed: {metrics.count('tasks_executed'):.0f}")
    print("Control plane:")
    print(f"  auto-validations (inner-loop fast path): "
          f"{metrics.count('auto_validations'):.0f}")
    print(f"  full validations (block transitions):    "
          f"{metrics.count('full_validations'):.0f}")
    print(f"  patches computed: {metrics.count('patches_computed'):.0f}, "
          f"patch-cache hits: {metrics.count('patch_cache_hits'):.0f}")


if __name__ == "__main__":
    main()

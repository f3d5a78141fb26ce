#!/usr/bin/env python3
"""Dynamic scheduling with template edits (cf. Figures 9 and 10).

Runs logistic regression and, mid-job, (1) migrates 5 % of the tasks with
template *edits*, then (2) has the "cluster manager" evict half the
workers (templates regenerate), then (3) return them (cached templates are
revalidated and reused). Prints the per-iteration timeline.

Run:  python examples/dynamic_migration.py
"""

from repro.apps import LRSpec
from repro.apps.runner import RunSpec, execute


def main() -> None:
    num_workers = 16
    spec = LRSpec(num_workers=num_workers, data_bytes=10e9, iterations=24)
    state = {}

    def migrate(controller):
        moves = [(i, (i + 1) % num_workers)
                 for i in range(0, spec.num_partitions,
                                spec.num_partitions // 8)]
        mechanism = controller.migrate_tasks("lr.iteration", moves)
        print(f"  -> migrated {len(moves)} tasks via {mechanism}")

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement()
        state["versions"] = controller.membership.snapshot_versions()
        evicted = list(range(num_workers // 2, num_workers))
        controller.membership.evict_workers(evicted)
        print(f"  -> cluster manager revoked workers {evicted[0]}..{evicted[-1]}")

    def restore(controller):
        controller.membership.restore_workers(
            list(range(num_workers // 2, num_workers)),
            state["placement"], state["versions"])
        print("  -> cluster manager returned the workers; cached templates "
              "revalidate")

    run = execute(RunSpec(spec, use_templates=True, blocking=True, directives=(
        (8, migrate), (12, evict), (18, restore))))

    print("\nPer-iteration timeline (cf. Fig. 9):")
    for i, row in enumerate(run.breakdowns):
        note = {8: "  <- 12.5% migrated via edits",
                12: "  <- half the workers evicted",
                18: "  <- workers restored"}.get(i, "")
        print(f"  iter {i:2d}: total {row.total * 1000:8.1f} ms  "
              f"(compute {row.compute * 1000:7.1f} ms, "
              f"control {row.control * 1000:7.1f} ms, {row.mode}){note}")

    metrics = run.cluster.metrics
    print(f"\nEdits applied: {metrics.count('edits_applied'):.0f} "
          f"(41 us each in the paper's Table 3)")
    print(f"Worker-template regenerations: "
          f"{metrics.count('worker_template_regenerations'):.0f}")
    print(f"Patches: {metrics.count('patches_computed'):.0f} computed, "
          f"{metrics.count('patch_cache_hits'):.0f} cache hits")


if __name__ == "__main__":
    main()

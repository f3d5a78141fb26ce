#!/usr/bin/env python3
"""Checkpointing and failure recovery (§4.4).

Runs an iterative job with automatic checkpoints, kills a worker mid-run,
and shows the controller detecting the failure (missed heartbeats),
halting the survivors, reloading the checkpoint, and the driver replaying
to resume — finishing with exactly the values an undisturbed run produces.

Run:  python examples/fault_recovery.py
"""

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import FunctionRegistry, NimbusCluster

DATA = [1, 2, 3, 4]
TOTAL = 50


def build_registry() -> FunctionRegistry:
    registry = FunctionRegistry()

    def init(ctx):
        ctx.write(ctx.write_set[0], 1.0)

    def grow(ctx):
        ctx.write(ctx.write_set[0], 1.5 * ctx.read(ctx.read_set[0]) + 1.0)

    def total(ctx):
        ctx.write(ctx.write_set[0], sum(ctx.reads()))

    registry.register("init", fn=init, duration=1e-3)
    registry.register("grow", fn=grow, duration=20e-3)
    registry.register("total", fn=total, duration=2e-3)
    return registry


def make_program(box, fail_at_iteration):
    init_block = BlockSpec("init", [StageSpec("init", [
        LogicalTask("init", read=(), write=(oid,)) for oid in DATA
    ])])
    loop_block = BlockSpec("loop", [
        StageSpec("grow", [
            LogicalTask("grow", read=(oid,), write=(oid,)) for oid in DATA
        ]),
        StageSpec("total", [
            LogicalTask("total", read=tuple(DATA), write=(TOTAL,)),
        ]),
    ], returns={"sum": TOTAL})

    def program(job):
        objects = [(oid, "data", i, 8, None) for i, oid in enumerate(DATA)]
        objects.append((TOTAL, "total", 0, 8, None))
        yield job.define(objects)
        yield job.run(init_block)
        for i in range(12):
            if i == fail_at_iteration and box.get("kill"):
                victim = box["cluster"].workers[2]
                if not victim._dead:
                    print(f"  !! killing worker 2 at virtual time "
                          f"{job.now:.3f} s (iteration {i})")
                    victim.fail()
            result = yield job.run(loop_block)
            print(f"  iteration {i:2d}: sum = {result['sum']:10.2f} "
                  f"(t = {job.now:.3f} s)")

    return program


def run(kill: bool) -> float:
    box = {"kill": kill}
    cluster = NimbusCluster(
        num_workers=3,
        program=make_program(box, fail_at_iteration=7),
        registry=build_registry(),
        use_templates=True,
        checkpoint_every=3,
        heartbeat_timeout=0.4,
    )
    box["cluster"] = cluster
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    cluster.run_until_finished(max_seconds=1e4)
    metrics = cluster.metrics
    if kill:
        print(f"\n  checkpoints committed: "
              f"{metrics.count('checkpoints_committed'):.0f}")
        print(f"  recoveries completed:  "
              f"{metrics.count('recoveries_completed'):.0f}")
        print(f"  driver replays:        {metrics.count('driver_replays'):.0f}")
    holders = cluster.controller.jobs[0].directory.holders_of_latest(TOTAL)
    return cluster.workers[min(holders)].store.get(TOTAL)


def main() -> None:
    print("Run A: undisturbed")
    clean = run(kill=False)
    print("\nRun B: worker 2 dies mid-job")
    recovered = run(kill=True)
    print(f"\nFinal sums: undisturbed = {clean:.4f}, "
          f"recovered = {recovered:.4f}")
    assert abs(clean - recovered) < 1e-9, "recovery changed the results!"
    print("Recovery reproduced the undisturbed results exactly.")


if __name__ == "__main__":
    main()

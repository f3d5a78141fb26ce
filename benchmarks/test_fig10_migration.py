"""Figure 10 — task migration every 5 iterations: Nimbus edits vs Naiad
reinstalls.

Paper: logistic regression over 100 workers, migrating 5 % of the tasks
every 5 iterations. Nimbus applies edits (~35 ms per migration) with
negligible per-iteration overhead; Naiad must reinstall the whole data
flow (~230 ms) for any change, so Nimbus finishes 20 iterations almost
twice as fast.
"""

from repro.analysis import render_table
from repro.apps import LRSpec
from repro.apps.runner import RunSpec, execute

from conftest import emit, once

ITERATIONS = 20
MIGRATE_EVERY = 5
WARMUP = 4  # template installation iterations before measurement starts


def measured_span(run):
    """Span of the 20 measured iterations (after the warm-up window)."""
    return run.iteration_ends[-1] - run.iteration_ends[WARMUP - 1]


def run_baseline(system, num_workers):
    """20 iterations with no migrations (for the paper's Naiad methodology:
    'the curve here is simulated from the numbers in Table 3 and Fig 7a')."""
    return measured_span(execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=WARMUP + ITERATIONS),
        system=system, blocking=True)))


def run_with_migrations(system, num_workers, fraction=0.05):
    spec = LRSpec(num_workers=num_workers,
                  iterations=WARMUP + ITERATIONS)
    count = max(1, int(fraction * spec.num_partitions))
    state = {"round": 0}

    def migrate(controller):
        # rotate a different 5% slice each time so moves never collide
        offset = state["round"]
        state["round"] += 1
        stride = spec.num_partitions // count
        moves = []
        wts_key = ("lr.iteration", controller.current_version["lr.iteration"])
        wts = controller.worker_templates[wts_key]
        for i in range(count):
            task = (i * stride + offset) % spec.num_partitions
            src = wts.task_locations[task][0]
            moves.append((task, (src + num_workers // 2) % num_workers))
        controller.migrate_tasks("lr.iteration", moves)

    # 4 rounds, at measured iterations 0/5/10/15: templates are installed
    # in the warm-up window before the first
    run = execute(RunSpec(spec, system=system, blocking=True, directives=tuple(
        (WARMUP + i, migrate) for i in range(0, ITERATIONS, MIGRATE_EVERY))))
    return measured_span(run), run.cluster.metrics


def test_fig10_migration_overhead(benchmark, paper_scale):
    num_workers = 100 if paper_scale else 20

    rounds = ITERATIONS // MIGRATE_EVERY  # 4 migration events

    def compare():
        nimbus_time, nimbus_metrics = run_with_migrations(
            "nimbus", num_workers)
        naiad_measured, naiad_metrics = run_with_migrations(
            "naiad", num_workers)
        naiad_base = run_baseline("naiad", num_workers)
        return (nimbus_time, nimbus_metrics, naiad_measured, naiad_metrics,
                naiad_base)

    (nimbus_time, nimbus_metrics, naiad_measured, naiad_metrics,
     naiad_base) = once(benchmark, compare)

    # The paper's Naiad curve is *simulated* from Table 3 and Fig. 7a
    # ("current Naiad implementation does not support any data flow
    # flexibility once the job starts"). Reproduce the same arithmetic:
    # steady iterations + one full 230 ms installation per change.
    reinstall_s = 0.230
    naiad_paper_method = naiad_base + rounds * reinstall_s

    emit("")
    emit(render_table(
        f"Figure 10 — 20 LR iterations with 5% migration every 5 "
        f"({num_workers} workers)",
        ["system", "total time (s)", "mechanism", "events"],
        [
            ["Nimbus", round(nimbus_time, 3), "template edits",
             f"{nimbus_metrics.count('edits_applied'):.0f} edit ops"],
            ["Naiad (paper methodology)", round(naiad_paper_method, 3),
             "full dataflow reinstall",
             f"{rounds} reinstalls x 230 ms (Table 3)"],
            ["Naiad (this simulator, reinstalls overlap)",
             round(naiad_measured, 3), "full dataflow reinstall",
             f"{naiad_metrics.count('naiad_installs'):.0f} installs"],
        ]))
    ratio = naiad_paper_method / nimbus_time
    emit(f"Naiad/Nimbus completion ratio: {ratio:.2f}x "
         f"(paper: 'almost twice as fast', ~1.9x)")

    assert nimbus_metrics.count("edits_applied") > 0
    assert naiad_metrics.count("naiad_installs") >= 1 + rounds
    assert nimbus_time < naiad_measured
    if paper_scale:
        assert ratio > 1.4

"""Figure 9 — dynamic adaptation timeline.

Paper: logistic regression on 100 workers. Iterations 0–9 run with
templates manually disabled (~1.07 s each, all central scheduling). At
iteration 10 the driver enables templates: installation proceeds in
stages over iterations 10–12, and from iteration 13 the job runs at
60 ms/iteration. At iteration 20 the cluster manager revokes 50 workers
(worker templates regenerate; iteration time doubles since every worker
does twice the work). At iteration 30 the workers return: the controller
reverts to the cached 100-worker templates, explicitly validates them
once, and iteration time returns to 60 ms.
"""

from repro.analysis import render_table
from repro.apps import LRSpec
from repro.apps.runner import RunSpec, execute

from conftest import emit, once

ENABLE_AT = 10
EVICT_AT = 20
RESTORE_AT = 30
TOTAL_ITERS = 36


def run_timeline(num_workers):
    state = {}
    half = list(range(num_workers // 2, num_workers))

    def evict(controller):
        state["placement"] = controller.membership.snapshot_placement(0)
        state["versions"] = controller.membership.snapshot_versions(0)
        controller.membership.evict_workers(half)

    def restore(controller):
        controller.membership.restore_workers(
            0, half, state["placement"], state["versions"])

    return execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=TOTAL_ITERS),
        use_templates=False, blocking=True, enable_templates_at=ENABLE_AT,
        directives=((EVICT_AT, evict), (RESTORE_AT, restore)))).breakdowns


def test_fig09_dynamic_timeline(benchmark, paper_scale):
    num_workers = 100 if paper_scale else 16
    rows = once(benchmark, run_timeline, num_workers)
    assert len(rows) == TOTAL_ITERS

    notes = {
        ENABLE_AT: "driver enables templates (controller template installs)",
        ENABLE_AT + 1: "controller half of worker templates generated",
        ENABLE_AT + 2: "worker halves installed on workers",
        ENABLE_AT + 3: "fully templated",
        EVICT_AT: "cluster manager revokes half the workers",
        RESTORE_AT: "workers return; cached templates revalidated",
    }
    table_rows = []
    for i, row in enumerate(rows):
        table_rows.append([
            i, round(row.total, 4), round(row.compute, 4),
            round(row.control, 4), row.mode, notes.get(i, ""),
        ])
    emit("")
    emit(render_table(
        f"Figure 9 — per-iteration timeline, {num_workers} workers "
        f"(paper: 1.07 s central -> 60 ms templated -> 2x on eviction -> "
        f"60 ms after restore)",
        ["iter", "total (s)", "compute (s)", "control (s)", "mode", "event"],
        table_rows))

    central = rows[5].total
    steady = rows[ENABLE_AT + 5].total
    evicted = rows[EVICT_AT + 4].total
    restored = rows[RESTORE_AT + 3].total

    # templates collapse the iteration time by an order of magnitude
    assert steady < central / 5
    # installation iterations are no slower than ~central + install tax
    assert rows[ENABLE_AT].total < 1.6 * central
    # halving the cluster roughly doubles the templated iteration time
    assert 1.5 * steady < evicted < 3.0 * steady
    # restoring returns to the original steady state
    assert restored < 1.25 * steady
    # the restore iteration pays a one-time validation/patch cost
    assert rows[RESTORE_AT].total >= restored

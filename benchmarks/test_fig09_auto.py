"""Figure 9/10 — automated: the rebalancer closes the loop on its own.

The scripted Fig. 9 benchmark drives eviction/restore from a test
timeline. This one injects a 2x straggler through the chaos layer and
asserts the paper's promised reaction happens *autonomously*: the
adaptive rebalancer observes piggybacked per-task timings, detects the
skew, and drains the straggler's heavy tasks onto the survivors using
template edits — never a full reinstall — returning iteration time to
within 15% of the pre-fault baseline inside 10 iterations. A control run
with the rebalancer off shows the counterfactual: the job stays degraded
for the rest of the run.
"""

from repro.apps.scenarios import run_fig09_auto
from repro.analysis import render_table

from conftest import emit, once


def run_pair(num_workers, iterations):
    auto = run_fig09_auto(num_workers=num_workers, iterations=iterations)
    control = run_fig09_auto(num_workers=num_workers, iterations=iterations,
                             rebalance=False)
    return auto, control


def test_fig09_auto_straggler_recovery(benchmark, paper_scale):
    num_workers = 16 if paper_scale else 8
    iterations = 40 if paper_scale else 30
    auto, control = once(benchmark, run_pair, num_workers, iterations)

    rows = []
    for label, r in (("rebalancer on", auto), ("rebalancer off", control)):
        rows.append([
            label,
            f"{r['pre_fault_iteration_time'] * 1000:.2f}",
            f"{r['post_fault_peak'] * 1000:.2f}",
            f"{r['recovered_iteration_time'] * 1000:.2f}",
            f"{r['recovery_ratio']:.3f}",
            "never" if r["iterations_to_recover"] is None
            else str(r["iterations_to_recover"]),
            str(r["moves"]),
            ",".join(r["mechanisms"]) or "-",
        ])
    emit("")
    emit(render_table(
        f"Figure 9/10 automated — {num_workers} workers, 2x straggler "
        f"injected after iteration {auto['fault_iteration']}",
        ["run", "pre (ms)", "peak (ms)", "recovered (ms)", "ratio",
         "iters to recover", "moves", "mechanism"],
        rows))

    # the acceptance criterion: recovery within 15% of the pre-fault
    # baseline within 10 iterations, achieved with template edits only
    assert auto["converged"] is True
    assert auto["iterations_to_recover"] is not None
    assert auto["iterations_to_recover"] <= 10
    assert auto["recovery_ratio"] <= 1.15
    assert auto["mechanisms"] == ["edits"]
    # no reinstalls: the worker templates installed before the fault are
    # the ones still running after recovery, only edited in place
    assert auto["worker_template_regenerations"] == 0.0
    assert auto["edits_applied"] > 0

    # the counterfactual: without the rebalancer the job never recovers
    assert control["converged"] is False
    assert control["iterations_to_recover"] is None
    assert control["recovery_ratio"] > 1.15
    assert control["moves"] == 0

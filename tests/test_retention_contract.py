"""The retention contract: what a structure reaches, counted by type
(:func:`tests.helpers.reachable_histogram`), instead of guards that name
the fields a fix freed.

* **Steady state retains nothing per iteration.** LR at K and at 4K
  iterations, in each scheduling mode: the finished cluster reaches as
  many objects of every type, beside what it keeps per run by design —
  its metrics, each job's results history, the driver's iteration log —
  and the messages still in flight at the end. ``int`` and ``float`` are
  values, not structure (how many distinct ones exist depends on their
  magnitudes), so they are not compared.
* **A compiled plan is flat.** What a worker's plans, seams and pooled
  frames reach, up to the template entries they share with the halves,
  holds no ``Command`` and fewer tuples than it has positions: per
  position there are columns and one slim command per frame.
"""

import pytest

from repro.core.worker_template import TemplateEntry
from repro.sim.actor import Message
from repro.sim.metrics import Metrics

from .helpers import reachable_histogram, run_lr

pytestmark = pytest.mark.guard

MODES = ("centralized", "decentralized", "sharded")
VALUES = {"int", "float"}


def _steady_histogram(iterations, mode):
    cluster = run_lr(workers=4, iterations=iterations, mode=mode)
    histories = [ctx.results_history
                 for ctx in cluster.controller.jobs.values()]
    return reachable_histogram(cluster, stop=[
        Metrics, Message, cluster.driver.iteration_log, *histories])


@pytest.mark.parametrize("mode", MODES)
def test_steady_iterations_retain_nothing(mode):
    k = _steady_histogram(8, mode)
    four_k = _steady_histogram(32, mode)
    grown = {name: four_k[name] - k[name] for name in four_k
             if name not in VALUES and four_k[name] > k[name]}
    assert not grown, f"{mode}: 24 more iterations retain {grown}"


def _compiled_layer(worker):
    """A worker's plans, seams and pooled frames; their positions; and
    what the entries hold (shared with the halves, not the plans')."""
    plans = [half._plan for half in worker._templates.values()
             if half._plan is not None]
    plans += [live[0] for live in worker._patches.values()]
    frames = [frame for plan in plans for frame in plan.pool or ()]
    positions = sum(plan.m for plan in plans) + sum(
        len(frame.cmds) for frame in frames)
    entries = [x for plan in plans for e in plan.live
               for x in (e.read, e.write, e.before)]
    return (plans, list(worker._seams.values()), frames), positions, entries


@pytest.mark.parametrize("mode", MODES)
def test_a_compiled_plan_holds_no_tuple_or_command_per_position(mode):
    cluster = run_lr(workers=4, iterations=8, mode=mode,
                     partitions_per_worker=16)
    for wid, worker in cluster.workers.items():
        root, positions, shared = _compiled_layer(worker)
        assert positions
        counts = reachable_histogram(root, stop=[TemplateEntry, *shared])
        assert counts["Command"] == 0, (wid, counts["Command"])
        assert counts["tuple"] < positions, (
            f"worker {wid}: {counts['tuple']} tuples for {positions} "
            f"positions")

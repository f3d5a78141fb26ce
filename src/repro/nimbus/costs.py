"""Calibrated control-plane cost model.

Every control-plane operation in the simulation charges virtual CPU time
from this model. The defaults are the paper's own micro-benchmark numbers
(Tables 1–3 and §5.1), so the macro experiments (Figures 7–11) follow from
the *measured* per-operation costs plus the real message flow produced by
our template implementation — the same way the paper's macro numbers follow
from its micro numbers.

All values are seconds (per task / per command unless noted).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: task slots per worker: the paper's c3.2xlarge workers have 8 cores
SLOTS_PER_WORKER = 8


@dataclass
class CostModel:
    """Per-operation control-plane costs. Defaults reproduce the paper."""

    # -- central (non-template) scheduling, Table 1 -----------------------
    #: Controller cost to build, analyze and dispatch one task centrally.
    #: Together with ``central_receive_per_task`` this reproduces the
    #: 134 µs/task of Table 1; the receive part is the driver→controller
    #: task-stream parsing that template instantiation eliminates first
    #: (Fig. 9, iteration 11).
    central_schedule_per_task: float = 104e-6
    #: Controller cost to receive/parse one task description from the driver.
    central_receive_per_task: float = 30e-6
    #: Spark driver cost to schedule one task (Table 1, used by baselines).
    spark_schedule_per_task: float = 166e-6

    # -- template installation, Table 1 -----------------------------------
    #: Adding one task to a controller template at install time.
    install_controller_template_per_task: float = 25e-6
    #: Building the controller half of a worker template, per task.
    install_worker_template_controller_per_task: float = 15e-6
    #: Installing the worker half of a worker template, per task (at worker).
    install_worker_template_worker_per_task: float = 9e-6

    # -- template instantiation, Table 2 -----------------------------------
    #: Filling task ids/parameters into a controller template, per task.
    instantiate_controller_template_per_task: float = 0.2e-6
    #: Worker-template instantiation when auto-validation applies, per task.
    instantiate_worker_template_auto_per_task: float = 1.7e-6
    #: Worker-template instantiation with a full validation pass, per task.
    instantiate_worker_template_validate_per_task: float = 7.3e-6

    # -- edits and patches, Table 3 ----------------------------------------
    #: One edit (add or remove one task, including copy splicing).
    edit_per_task: float = 41e-6
    #: Computing one patch copy command on a patch-cache miss.
    patch_compute_per_copy: float = 20e-6
    #: Invoking a cached patch (single message, §4.2).
    patch_cache_invoke: float = 5e-6

    # -- baseline profiles --------------------------------------------------
    #: Naiad per-task cost of compiling+installing its dataflow graph.
    #: 230 ms / 8000 tasks (Table 3).
    naiad_install_per_task: float = 28.75e-6
    #: Naiad per-task progress-tracking callback overhead at each worker
    #: (the "many callbacks for the small data partitions" of §5.3). At
    #: 0.8 ms/callback the worker's control thread becomes the bottleneck
    #: exactly when partitions are small (100 workers: 80 callbacks of
    #: 0.8 ms vs 41 ms of compute), reproducing the paper's 60-vs-80 ms
    #: gap at 100 workers while staying hidden at 20-50 workers.
    naiad_callback_per_task: float = 800e-6
    #: Per-iteration epoch coordination rounds in Naiad's progress protocol.
    naiad_epoch_rounds: int = 2

    # -- worker-side handling ----------------------------------------------
    #: Worker control-thread cost to enqueue one centrally-dispatched command.
    worker_enqueue_per_command: float = 2e-6
    #: Worker control-thread cost per command when instantiating a template
    #: (index-array fill; cheaper than parsing individual commands).
    worker_instantiate_per_command: float = 0.5e-6
    #: Worker cost to process a task-completion bookkeeping step.
    worker_complete_per_command: float = 1e-6
    #: Worker cost to apply one edit to a cached template.
    worker_edit_per_task: float = 9e-6

    # -- decentralized self-scheduling (DESIGN.md §14) -----------------------
    #: Controller cost to extend a self-schedule grant by one task: id
    #: allocation and parameter-slot capture, without the per-instance
    #: validation pass (the window validates once). Matches the
    #: controller-template fill rate of Table 2.
    self_schedule_grant_per_task: float = 0.2e-6
    #: Worker control-thread cost to self-advance to the next template
    #: instance of a grant (the local scheduling decision that replaces a
    #: controller round-trip).
    worker_self_schedule_per_instance: float = 2e-6

    # -- controller-side misc ------------------------------------------------
    #: Controller cost to process one per-task completion ack (central mode).
    controller_completion_per_task: float = 2e-6
    #: Controller cost to process a per-block completion message.
    controller_block_completion: float = 20e-6
    #: Fixed cost of handling any driver/worker message.
    message_handling: float = 5e-6

    # -- durable storage ------------------------------------------------------
    #: Bytes/second for checkpoint save/load at each worker.
    storage_bandwidth: float = 200e6
    #: Fixed latency per file command.
    storage_latency: float = 2e-3

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with all per-task costs scaled by ``factor``.

        Used by ablation benches to explore sensitivity to control-plane
        speed (e.g. "what if the controller were 2x slower?").
        """
        fields = {
            name: getattr(self, name) * factor
            for name in (
                "central_schedule_per_task",
                "central_receive_per_task",
                "spark_schedule_per_task",
                "install_controller_template_per_task",
                "install_worker_template_controller_per_task",
                "install_worker_template_worker_per_task",
                "instantiate_controller_template_per_task",
                "instantiate_worker_template_auto_per_task",
                "instantiate_worker_template_validate_per_task",
                "edit_per_task",
            )
        }
        return replace(self, **fields)


#: The paper-calibrated default model.
PAPER_COSTS = CostModel()

"""Command-line interface: run the paper's experiments without writing code.

Examples::

    python -m repro lr --workers 50 --iterations 12
    python -m repro lr --workers 50 --system spark
    python -m repro kmeans --workers 20 --real
    python -m repro water --workers 16 --scale 0.1
    python -m repro regression --workers 4
    python -m repro --profile lr.prof lr --workers 100
    python -m repro sweep --workload lr --seeds 8 --parallel 4

The five app subcommands are rows of :data:`APPS`, run by one runner that
``repro trace`` and ``repro sweep`` share.

Timing the simulator itself is not done here: ``python3 bench/run.py`` is
the one performance instrument (``--trace 1`` attributes host time per
layer); ``--profile PATH`` above is the ad-hoc cProfile hook.
"""

from __future__ import annotations

import argparse
import cProfile
import math
import multiprocessing
import sys
from functools import partial
from typing import Callable, Optional, Tuple

from .analysis import critical_path, render_critical_path, render_table
from .apps import (KMeansSpec, LRSpec, RegressionSpec, RotationSpec,
                   WaterSpec, scenarios)
from .apps.runner import SYSTEMS, Run, RunSpec, execute
from .chaos import PROFILES, FaultPlan
from .obs import write_chrome_trace


def count_at_least(low: int) -> Callable[[str], int]:
    """The argparse type of a count flag: an integer of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return count


def float_above(low: float, inclusive: bool = False) -> Callable[[str], float]:
    """The argparse type of a float flag: a number above ``low`` (at
    least ``low`` if ``inclusive``)."""

    def number(text: str) -> float:
        value = float(text)
        if not (value >= low if inclusive else value > low):  # NaN too
            raise argparse.ArgumentTypeError(
                f"must be {'at least' if inclusive else 'above'} {low}, "
                f"got {value}")
        return value

    return number


def _add_mode(parser, mode_help: str,
              shards_help="controller shard count for --mode sharded"):
    parser.add_argument("--mode",
                        choices=("centralized", "decentralized", "sharded"),
                        default="centralized", help=mode_help)
    parser.add_argument("--shards", type=count_at_least(1), default=None,
                        metavar="N", help=shards_help)


def _scheduling(args) -> dict:
    """The cluster keyword arguments ``--mode`` and ``--shards`` ask for."""
    if args.shards is not None and args.mode != "sharded":
        raise SystemExit("--shards requires --mode sharded")
    return {"mode": args.mode, "shards": args.shards}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=count_at_least(1), default=20,
                        help="number of worker nodes")
    parser.add_argument("--system", choices=sorted(SYSTEMS), default="nimbus",
                        help="control plane to run under")
    parser.add_argument("--seed", type=int, default=0)
    _add_mode(parser,
              "scheduling mode: 'centralized' is the paper's per-instance "
              "control plane; 'decentralized' grants windows that workers "
              "self-schedule (DESIGN.md §14); 'sharded' relays those "
              "windows through controller shards so the coordinator leaves "
              "the steady-state path (§16); nimbus only",
              "controller shard count for --mode sharded "
              "(default: min(16, max(2, sqrt(workers))))")
    parser.add_argument("--chaos-profile", choices=sorted(PROFILES),
                        default=None, metavar="PROFILE",
                        help="inject network faults from a stock plan "
                             f"({', '.join(sorted(PROFILES))}); nimbus only")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the chaos fault schedule "
                             "(same seed => identical faults)")
    parser.add_argument("--patch-cache-cap", type=count_at_least(0),
                        default=256, metavar="N", help="LRU capacity of the "
                        "controller patch cache (default 256); nimbus only")
    parser.add_argument("--rebalance", action="store_true",
                        help="enable the adaptive rebalancer (workers "
                             "report per-task timings; the controller "
                             "migrates tasks off stragglers via template "
                             "edits); nimbus only")
    parser.add_argument("--rebalance-threshold", type=float, default=1.4,
                        metavar="X", help="straggler threshold: rebalance "
                        "when a worker's load estimate exceeds X times the "
                        "live-worker mean (default 1.4)")
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the elastic autoscaler (desired-state "
                             "reconciliation against the load EWMA; scales "
                             "up via provision+spread, down via the "
                             "DRAINING drain); nimbus only")
    parser.add_argument("--autoscale-interval", type=float_above(0),
                        default=None, metavar="S", help="reconciliation "
                        "tick period in virtual seconds (default 0.25)")
    parser.add_argument("--autoscale-cold-start",
                        type=float_above(0, inclusive=True), default=None,
                        metavar="S", help="provisioning delay before a new "
                        "worker joins the live set (default 1.0)")
    parser.add_argument("--autoscale-max-workers", type=count_at_least(1),
                        default=None, metavar="N", help="upper bound on the "
                        "live worker count (default 4x the initial size)")
    parser.add_argument("--trace", action="store_true",
                        help="record a command-lifecycle trace (also "
                             "enabled by REPRO_TRACE=1); nimbus only")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the Chrome/Perfetto trace JSON here "
                             "(default: trace_<command>.json)")


def _needs_nimbus(args, what: str, why: str) -> None:
    if args.system != "nimbus":
        raise SystemExit(f"{what} requires --system nimbus ({why})")


def _cluster_kwargs(args) -> dict:
    kwargs = {"seed": args.seed}
    if args.mode != "centralized":
        _needs_nimbus(args, f"--mode {args.mode}",
                      "the baselines have no self-scheduling path")
    scheduling = _scheduling(args)  # checks --shards on every system
    if args.system == "nimbus":
        kwargs.update(scheduling, patch_cache_cap=args.patch_cache_cap,
                      use_templates=not getattr(args, "no_templates", False))
    if args.chaos_profile:
        _needs_nimbus(args, "--chaos-profile", "the baselines do not model "
                      "the hardened control-plane protocol")
        kwargs["chaos_plan"] = FaultPlan.from_profile(
            args.chaos_profile, seed=args.chaos_seed)
    if args.rebalance:
        _needs_nimbus(args, "--rebalance",
                      "the baselines cannot edit installed templates")
        kwargs.update(rebalance=True,
                      rebalance_threshold=args.rebalance_threshold)
    if args.autoscale:
        _needs_nimbus(args, "--autoscale", "the baselines cannot re-home "
                      "installed templates onto provisioned workers")
        kwargs.update(autoscale=True,  # a None leaves the default
                      autoscale_interval=args.autoscale_interval,
                      autoscale_cold_start=args.autoscale_cold_start,
                      autoscale_max_workers=args.autoscale_max_workers)
    if args.trace:
        _needs_nimbus(args, "--trace", "the baselines carry no trace hooks")
        kwargs["trace"] = True
    return kwargs


def _finish_trace(run: Run, args) -> None:
    """Export the run's trace and print the critical-path report."""
    tracer = run.cluster.tracer
    if tracer is None:  # untraced
        return
    out = args.trace_out or f"trace_{args.command}.json"
    doc = write_chrome_trace(tracer, out)
    print(f"trace: {len(doc['traceEvents'])} events -> {out} "
          f"(load at https://ui.perfetto.dev)")
    print(render_critical_path(critical_path(tracer)))


def _summary(run: Run) -> None:
    metrics = run.cluster.metrics
    try:
        iteration = run.iteration_time
        throughput = run.throughput
        print(f"steady-state iteration time: {iteration * 1000:.2f} ms")
        if math.isnan(throughput):
            # degenerate run: every kept iteration finished at the same
            # virtual instant, so there is no rate to report
            print("task throughput:             n/a (zero-length span)")
        else:
            print(f"task throughput:             {throughput:,.0f} tasks/s")
    except ValueError:
        pass
    rows = [[name, f"{metrics.count(name):.0f}"] for name in (
        "tasks_executed", "tasks_scheduled",
        "controller_templates_installed", "template_instantiations",
        "auto_validations", "full_validations",
        "patches_computed", "patch_cache_hits", "edits_applied",
        "controller.messages_in", "controller.messages_out",
        "controller.steady_messages_in", "controller.steady_messages_out",
        "chaos.drops", "chaos.delays", "chaos.duplicates",
        "chaos.reorders", "protocol.retries", "protocol.dup_discards",
        "protocol.reorder_holds", "protocol.stale_discards",
        "net.partition_drops",
    ) if metrics.count(name)]
    tasks = metrics.count("tasks_executed")
    steady = (metrics.count("controller.steady_messages_in")
              + metrics.count("controller.steady_messages_out"))
    if steady and tasks:
        # the scheduling-mode crossover: what the coordinator still
        # handles per task once templates are installed
        rows.append(["controller.steady_messages_per_task",
                     f"{steady / tasks:.6f}"])
    print(render_table("control-plane counters", ["counter", "value"], rows))
    print(f"virtual time: {run.cluster.sim.now:.4f} s; "
          f"events: {run.cluster.sim.events_run:,}")


def _iterative(spec_cls, title: str, args):
    spec = spec_cls(num_workers=args.workers, iterations=args.iterations,
                    data_bytes=args.data_gb * 1e9, real_compute=args.real,
                    seed=args.seed)
    header = (f"{title}: {spec.num_partitions} partitions, "
              f"{args.iterations} iterations, system={args.system}")
    return spec, lambda run: header


def _water(args):
    spec = WaterSpec(num_workers=args.workers, scale=args.scale,
                     frame_duration=args.frame_duration, frames=args.frames)

    def header(run) -> str:
        boundaries = [0.0] + run.frame_ends
        return "\n".join(
            [f"water simulation: {run.app.num_variables} variables, "
             f"{spec.num_partitions} partitions, system={args.system}"]
            + [f"  frame {i}: {b - a:.3f} s"
               for i, (a, b) in enumerate(zip(boundaries, boundaries[1:]))])

    return spec, header


def _regression(args):
    def header(run) -> str:
        errors = [iv.labels["results"].get("error")
                  for iv in run.cluster.metrics.intervals["block"]
                  if iv.labels["block_id"] == "reg.estimate"]
        return (f"nested regression (Figure 3): {len(errors)} outer "
                f"iterations, final error {errors[-1]:.4f}"
                if errors else "no outer iterations")

    return RegressionSpec(num_workers=args.workers, seed=args.seed), header


def _rotation(args):
    _needs_nimbus(args, "rotation", "it measures the patch cache, a "
                  "Nimbus-only mechanism")
    spec = RotationSpec(num_workers=args.workers,
                        iterations=args.iterations, seed=args.seed)
    header = (f"patch rotation: {spec.num_partitions} partitions, "
              f"{args.iterations} rounds, "
              f"patch cache cap {args.patch_cache_cap}")
    return spec, lambda run: header


#: app subcommand -> build(args), which returns the app's spec and
#: header(run), the report's first line(s)
APPS = {
    "lr": partial(_iterative, LRSpec, "logistic regression"),
    "kmeans": partial(_iterative, KMeansSpec, "k-means"),
    "water": _water,
    "regression": _regression,
    "rotation": _rotation,
}


def _run(args) -> Tuple[Run, str]:
    """Run the app ``args.command`` names to the end; return the run and
    the report's header. An app with ``--iterations`` is measured over
    the later half of them."""
    spec, header = APPS[args.command](args)
    run = execute(RunSpec(
        spec, system=args.system, blocking=getattr(args, "blocking", False),
        warmup=getattr(args, "iterations", 0) // 2, **_cluster_kwargs(args)))
    return run, header(run)


def cmd_app(args, header: Optional[Callable] = None) -> None:
    """Run an app subcommand; report it under ``header(run)`` if given."""
    run, app_header = _run(args)
    print(app_header if header is None else header(run))
    _summary(run)
    _finish_trace(run, args)


def _app_args(command: str, workers: int, iterations: int, seed: int,
              *flags: str) -> argparse.Namespace:
    """``repro <command>`` at this size, every other option at that
    subcommand's default: how trace and sweep run an app."""
    return build_parser().parse_args(
        [command, "--workers", str(workers), "--iterations", str(iterations),
         "--seed", str(seed), *flags])


def _sweep_one(job: Tuple[str, int, int, int]) -> Tuple[int, float, float]:
    """Run one (workload, workers, iterations, seed) combo; module-level
    so it pickles for ``multiprocessing.Pool``."""
    run, _header = _run(_app_args(*job))
    return job[3], run.iteration_time, run.wall


def cmd_sweep(args) -> None:
    jobs = [(args.workload, args.workers, args.iterations, seed)
            for seed in range(args.seeds)]
    if args.parallel > 1:
        with multiprocessing.Pool(args.parallel) as pool:
            results = pool.map(_sweep_one, jobs)
    else:
        results = [_sweep_one(job) for job in jobs]
    rows = [[str(seed), f"{iteration * 1000:.2f}", f"{wall:.2f}"]
            for seed, iteration, wall in results]
    print(render_table(
        f"{args.workload} sweep: {args.workers} workers, "
        f"{args.seeds} seeds, parallel={args.parallel}",
        ["seed", "iteration (ms)", "wall (s)"], rows))
    iterations = [iteration for _seed, iteration, _wall in results]
    print(f"iteration time over seeds: min {min(iterations) * 1000:.2f} ms, "
          f"mean {sum(iterations) / len(iterations) * 1000:.2f} ms, "
          f"max {max(iterations) * 1000:.2f} ms")


#: aliases -> the app subcommand traced
_TRACE_WORKLOADS = {
    "fig07": "lr", "fig07_lr": "lr", "lr": "lr",
    "fig08": "kmeans", "fig08_kmeans": "kmeans", "kmeans": "kmeans",
    "rotation": "rotation", "patch_rotation": "rotation",
}


def cmd_trace(args) -> None:
    """Run one workload traced and emit the Perfetto JSON + critical path."""
    cmd_app(_app_args(_TRACE_WORKLOADS[args.workload], args.workers,
                      args.iterations, args.seed, "--trace", "--trace-out",
                      args.out or f"trace_{args.workload}.json"),
            lambda run: f"{args.workload}: {args.workers} workers, "
                        f"{args.iterations} iterations, "
                        f"virtual time {run.cluster.sim.now:.4f} s")


def _ms(seconds: Optional[float], missing: str = "-") -> str:
    return missing if seconds is None else f"{seconds * 1000:.2f}"


def _or(value, missing: str = "-") -> str:
    return missing if value is None else str(value)


def cmd_rebalance(args) -> None:
    result = scenarios.run_fig09_auto(
        num_workers=args.workers, iterations=args.iterations, seed=args.seed,
        scale=args.scale, fault_iteration=args.fault_iteration,
        rebalance=not args.off)
    print(f"automated fig09: {result['workers']} workers, "
          f"{result['iterations']} iterations, "
          f"{result['scale']}x straggler (worker {result['straggler']}) "
          f"injected after iteration {result['fault_iteration']}, "
          f"rebalancer {'OFF' if args.off else 'ON'}")
    rows = [
        ["pre-fault iteration (ms)", _ms(result["pre_fault_iteration_time"])],
        ["post-fault peak (ms)", _ms(result["post_fault_peak"])],
        ["recovered iteration (ms)", _ms(result["recovered_iteration_time"])],
        ["recovery ratio", f"{result['recovery_ratio']:.3f}"],
        ["iterations to recover",
         _or(result["iterations_to_recover"], "never")],
        ["decisions", str(result["decisions"])],
        ["moves", str(result["moves"])],
        ["mechanisms", ", ".join(result["mechanisms"]) or "-"],
        ["converged", str(result["converged"])],
    ]
    print(render_table("straggler recovery", ["metric", "value"], rows))


def cmd_autoscale(args) -> None:
    result = scenarios.run_scale_step(
        num_workers=args.workers, iterations=args.iterations, seed=args.seed,
        step=args.step, step_iteration=args.step_iteration,
        interval=args.interval, cold_start=args.cold_start,
        **_scheduling(args))
    print(f"scale step: {result['workers']} workers, "
          f"{result['iterations']} iterations ({result['mode']}), "
          f"{result['step']}x demand step after iteration "
          f"{result['step_iteration']} "
          f"(scale {'up' if result['step'] > 1.0 else 'down'})")
    rows = [
        ["reconciliation interval (ms)", _ms(result["interval"])],
        ["cold start (ms)", _ms(result["cold_start"])],
        ["pre-step iteration (ms)", _ms(result["pre_step_iteration_time"])],
        ["final iteration (ms)", _ms(result["final_iteration_time"])],
        ["time to stable (ms)", _ms(result["time_to_stable"], "no decisions")],
        ["ticks to stable", _or(result["ticks_to_stable"])],
        ["workers final", str(result["workers_final"])],
        ["workers added", str(result["workers_added"])],
        ["workers drained", str(result["workers_drained"])],
        ["spread moves", str(result["spread_moves"])],
        ["decisions", str(result["decisions"])],
        ["mechanisms", ", ".join(result["mechanisms"]) or "-"],
        ["zero loss", str(result.get("zero_loss", "-"))],
        ["converged", str(result["converged"])],
    ]
    print(render_table("demand-step reconciliation", ["metric", "value"],
                       rows))


def cmd_serve(args) -> None:
    result = scenarios.run_job_arrival(
        num_workers=args.workers, num_jobs=args.jobs, seed=args.seed,
        mean_interarrival=args.mean_interarrival, iterations=args.iterations,
        max_concurrent=args.max_concurrent, queue_cap=args.queue_cap,
        dispatch_inflight_cap=args.dispatch_cap, **_scheduling(args))
    print(f"job_arrival: {result['jobs']} jobs over {result['workers']} "
          f"workers (concurrency cap {result['max_concurrent']}, queue cap "
          f"{result['queue_cap']}, dispatch cap "
          f"{result['dispatch_inflight_cap']})")
    rows = [[str(job["job_id"]), job["workload"],
             f"{job['submit_time']:.4f}",
             "-" if job["start_time"] is None else f"{job['start_time']:.4f}",
             _ms(job["latency"])] for job in result["per_job"]]
    print(render_table("job arrivals", ["job", "workload", "submit (s)",
                                        "start (s)", "latency (ms)"], rows))
    print(render_table("serving metrics", ["metric", "value"], [
        ["jobs finished", str(result["jobs_finished"])],
        ["jobs rejected", str(result["jobs_rejected"])],
        ["tasks executed", f"{result['tasks_executed']:.0f}"],
        ["aggregate task throughput (tasks/s)",
         f"{result['aggregate_task_throughput']:,.0f}"],
        ["p95 job latency (ms)", _ms(result["p95_job_latency"])],
        ["mean job latency (ms)", _ms(result["mean_job_latency"])],
    ]))
    print(f"virtual time: {result['virtual_seconds']:.4f} s; "
          f"events: {result['events']:,} "
          f"({result['events_per_second']:,} events/s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Execution-templates reproduction: run "
        "the paper's workloads on a simulated cluster.")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="run the command under cProfile and write "
                             "stats to PATH (inspect with pstats/snakeviz)")
    sub = parser.add_subparsers(dest="command", required=True)

    lr = sub.add_parser("lr", help="logistic regression (Figs. 1/7a/8/9/10)")
    km = sub.add_parser("kmeans", help="k-means clustering (Fig. 7b)")
    for app in (lr, km):
        _add_common(app)
        app.add_argument("--iterations", type=count_at_least(1), default=12)
        app.add_argument("--data-gb", type=float_above(0, inclusive=True),
                         default=100.0)
        app.add_argument("--real", action="store_true",
                         help="run real numpy task bodies (small scale)")
        app.add_argument("--blocking", action="store_true",
                         help="driver waits for each iteration")
        app.add_argument("--no-templates", action="store_true", help="disable "
                         "execution templates (central scheduling)")

    water = sub.add_parser("water", help="water-simulation proxy (Fig. 11)")
    _add_common(water)
    water.add_argument("--scale", type=float_above(0, inclusive=True),
                       default=0.1, help="stage-duration scale factor")
    water.add_argument("--frames", type=count_at_least(1), default=1)
    water.add_argument("--frame-duration", type=float, default=0.004)
    water.add_argument("--no-templates", action="store_true")

    reg = sub.add_parser("regression",
                         help="the paper's Figure-3 nested training loop")
    _add_common(reg)
    reg.add_argument("--no-templates", action="store_true")

    rot = sub.add_parser(
        "rotation", help="rotating producer/consumer loop (patch-cache "
                         "exerciser; every round validates, patches once, "
                         "then hits the cache)")
    _add_common(rot)
    rot.add_argument("--iterations", type=count_at_least(1), default=14)
    for app in (lr, km, water, reg, rot):
        app.set_defaults(fn=cmd_app)

    sweep = sub.add_parser(
        "sweep", help="run one workload across seeds (optionally in "
                      "parallel worker processes)")
    sweep.add_argument("--workload", choices=("kmeans", "lr"), default="lr")
    sweep.add_argument("--workers", type=count_at_least(1), default=20)
    # the mean spans the later half and needs two completions in it
    sweep.add_argument("--iterations", type=count_at_least(3), default=12)
    sweep.add_argument("--seeds", type=count_at_least(1), default=4,
                       help="run seeds 0..N-1")
    sweep.add_argument("--parallel", type=count_at_least(1), default=1,
                       metavar="N", help="number of worker processes "
                       "(1 = in-process)")
    sweep.set_defaults(fn=cmd_sweep)

    trace = sub.add_parser(
        "trace", help="run a workload with tracing on and export a "
                      "Chrome/Perfetto trace plus critical-path report")
    trace.add_argument("workload", choices=sorted(_TRACE_WORKLOADS),
                       help="workload to trace (fig07=lr, fig08=kmeans, "
                            "rotation=patch exerciser)")
    trace.add_argument("--workers", type=count_at_least(1), default=8)
    trace.add_argument("--iterations", type=count_at_least(1), default=12)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="output JSON path "
                            "(default trace_<workload>.json)")
    trace.set_defaults(fn=cmd_trace)

    reb = sub.add_parser(
        "rebalance", help="automated fig09: inject a straggler mid-run and "
                          "let the adaptive rebalancer route around it")
    reb.add_argument("--workers", type=count_at_least(1), default=16)
    reb.add_argument("--iterations", type=count_at_least(1), default=40)
    reb.add_argument("--seed", type=int, default=0)
    reb.add_argument("--scale", type=float_above(0, inclusive=True),
                     default=2.0,
                     help="straggler slowdown factor (default 2.0)")
    reb.add_argument("--fault-iteration", type=int, default=12,
                     help="inject the slowdown after this iteration")
    reb.add_argument("--off", action="store_true",
                     help="control run: leave the rebalancer disabled")
    reb.set_defaults(fn=cmd_rebalance, parser=reb)

    autos = sub.add_parser(
        "autoscale", help="demand-step reconciliation: inject a scripted "
                          "demand step mid-run and let the elastic "
                          "autoscaler re-stabilize the cluster")
    autos.add_argument("--workers", type=count_at_least(1), default=16)
    autos.add_argument("--iterations", type=count_at_least(1), default=40)
    autos.add_argument("--seed", type=int, default=0)
    autos.add_argument("--step", type=float_above(0, inclusive=True),
                       default=2.0,
                       help="demand multiplier (>1 scales up, <1 drains; "
                            "default 2.0)")
    autos.add_argument("--step-iteration", type=int, default=12,
                       help="inject the demand step after this iteration")
    autos.add_argument("--interval", type=float_above(0), default=None,
                       metavar="S", help="reconciliation tick period "
                       "(default: the probe run's pre-step mean iteration "
                       "time)")
    autos.add_argument("--cold-start", type=float_above(0, inclusive=True),
                       default=None, metavar="S",
                       help="worker provisioning delay "
                            "(default: 4 intervals)")
    _add_mode(autos, "scheduling mode the stepped run uses")
    autos.set_defaults(fn=cmd_autoscale, parser=autos)

    serve = sub.add_parser(
        "serve", help="multi-tenant serving: seeded Poisson job arrivals "
                      "through admission control and fair-share dispatch")
    serve.add_argument("--workers", type=count_at_least(1), default=8)
    serve.add_argument("--jobs", type=count_at_least(1), default=6,
                       help="number of scheduled job arrivals")
    serve.add_argument("--seed", type=int, default=0)
    _add_mode(serve, "scheduling mode every admitted job runs under")
    serve.add_argument("--mean-interarrival", type=float_above(0),
                       default=0.05, metavar="S", help="mean Poisson "
                       "interarrival gap in virtual seconds (default 0.05)")
    serve.add_argument("--iterations", type=count_at_least(1), default=6,
                       help="iterations per job")
    serve.add_argument("--max-concurrent", type=count_at_least(1), default=3,
                       help="admission cap: jobs running at once")
    serve.add_argument("--queue-cap", type=int, default=8,
                       help="wait-queue length; overflow is rejected")
    serve.add_argument("--dispatch-cap", type=count_at_least(1), default=4,
                       metavar="N", help="controller dispatch cap: "
                       "concurrent block instances before fair-share "
                       "queueing kicks in")
    serve.set_defaults(fn=cmd_serve)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    profiler = cProfile.Profile() if args.profile else None
    if profiler is not None:
        profiler.enable()
    try:
        args.fn(args)
    except scenarios.NoRoom as err:  # only rebalance and autoscale raise it
        args.parser.error(str(err))
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

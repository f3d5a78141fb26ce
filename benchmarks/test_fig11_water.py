"""Figure 11 — PhysBAM water simulation: MPI vs Nimbus vs Nimbus without
templates.

Paper (1024³ cells, 64 workers, main outer-loop iteration time):

    hand-tuned MPI            31.7 s
    Nimbus (templates)        36.5 s   (+15%)
    Nimbus without templates 196.8 s   (+520%, controller-bound)

The proxy runs the same control structure at a reduced per-frame scale
(see WaterSpec / EXPERIMENTS.md: the MPI/Nimbus *ratios* are the paper's
claim and are scale-invariant, because control-plane cost per task is
fixed while compute shrinks proportionally). The shape to reproduce:
Nimbus within tens of percent of MPI; Nimbus-without-templates several
times slower, bottlenecked on the controller.
"""

from repro.analysis import render_table
from repro.apps import WaterSpec
from repro.apps.runner import RunSpec, execute

from conftest import emit, once


def make_spec(paper_scale, frames):
    if paper_scale:
        return WaterSpec(num_workers=64, partitions_per_worker=5,
                         scale=1.5, frame_duration=0.004, frames=frames)
    return WaterSpec(num_workers=8, partitions_per_worker=2,
                     scale=0.2, frame_duration=0.004, frames=frames)


def run_water(system, paper_scale, use_templates=None, frames=2):
    """Run ``frames`` frames and return the *steady-state* frame time (the
    last frame: templates are installed during the first one, matching the
    paper's measurement of the main outer loop in steady state)."""
    run = execute(RunSpec(make_spec(paper_scale, frames), system=system,
                          use_templates=use_templates))
    boundaries = [0.0] + run.frame_ends
    frame_times = [b - a for a, b in zip(boundaries, boundaries[1:])]
    return frame_times[-1], run.cluster


def test_fig11_water_simulation(benchmark, paper_scale):
    spec = make_spec(paper_scale, frames=2)

    def compare():
        mpi_time, _ = run_water("mpi", paper_scale)
        nimbus_time, nimbus = run_water("nimbus", paper_scale,
                                        use_templates=True)
        central_time, _ = run_water("nimbus", paper_scale,
                                    use_templates=False)
        return mpi_time, nimbus_time, central_time, nimbus

    mpi_time, nimbus_time, central_time, nimbus = once(benchmark, compare)

    overhead = 100 * (nimbus_time - mpi_time) / mpi_time
    slowdown = 100 * (central_time - mpi_time) / mpi_time
    emit("")
    emit(render_table(
        f"Figure 11 — water simulation frame time "
        f"({spec.num_workers} workers, {spec.num_partitions} partitions, "
        f"scale={spec.scale})",
        ["system", "frame time (s)", "vs MPI", "paper"],
        [
            ["MPI (static, no control plane)", round(mpi_time, 2),
             "1.00x", "31.7 s (1.00x)"],
            ["Nimbus (templates)", round(nimbus_time, 2),
             f"{nimbus_time / mpi_time:.2f}x", "36.5 s (1.15x)"],
            ["Nimbus w/o templates", round(central_time, 2),
             f"{central_time / mpi_time:.2f}x", "196.8 s (6.2x)"],
        ]))
    emit(f"Nimbus overhead over MPI: {overhead:.0f}% (paper: 15%); "
         f"without templates: +{slowdown:.0f}% (paper: +520%)")
    metrics = nimbus.metrics
    emit(f"Inner-loop fast path: {metrics.count('auto_validations'):.0f} "
         f"auto-validations vs {metrics.count('full_validations'):.0f} full; "
         f"patch cache: {metrics.count('patch_cache_hits'):.0f} hits / "
         f"{metrics.count('patches_computed'):.0f} computed")

    # shape: Nimbus close to MPI; central many times slower
    assert nimbus_time < 1.5 * mpi_time
    assert central_time > 3.0 * mpi_time
    assert central_time > 3.0 * nimbus_time
    # the CG inner loop rides the auto-validation fast path
    assert (metrics.count("auto_validations")
            > metrics.count("full_validations"))

"""Wall-clock performance harness for the control-plane reproduction.

Everything else in this repository measures *virtual* time — what the
simulated cluster would do. This package measures what the simulator
itself costs in real seconds, so control-plane optimizations can claim
wall-clock speedups with receipts (`BENCH_control_plane.json`) and CI can
catch regressions.
"""

from .harness import (  # noqa: F401
    BENCH_FILENAME,
    MODE_MODES,
    MODE_SCALES,
    SCALES,
    SCHEMA_VERSION,
    bench_instantiate_compiled,
    bench_instantiate_worker,
    bench_path,
    instantiate_allocations,
    instantiate_breakdown,
    mode_row,
    rebalance_section,
    results_digest,
    scheduling_modes_section,
    serve_section,
    strong_scaling_section,
    load_bench,
    run_harness,
    run_microbenchmarks,
    timed_workload,
    workload_allocations,
    write_bench,
)
from .rebalance_bench import build_fig09_auto, run_fig09_auto  # noqa: F401
from .serve_bench import build_job_arrival, run_job_arrival  # noqa: F401

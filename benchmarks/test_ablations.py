"""Ablations of the design decisions DESIGN.md calls out.

Not a paper table — these quantify the two §4.2 validation optimizations
and the sensitivity to control-plane speed:

1. **Postcondition closure** (templates self-validate): disabling it makes
   every steady-state instantiation pay a full validation (and patches for
   the coefficient broadcast) instead of the auto-validation fast path.
2. **Patch cache**: disabling it recomputes and reships the patch on every
   inner/outer loop boundary of the Figure-3 regression.
3. **Cost sensitivity**: iteration time under a 4x slower control plane —
   templates keep the job compute-bound; the central path degrades 4x.
"""

from repro.analysis import render_table
from repro.apps import LRSpec, RegressionSpec
from repro.apps.runner import RunSpec, execute
from repro.nimbus.costs import PAPER_COSTS

from conftest import emit, once


def no_auto_validation(cluster):
    cluster.controller.validation_state.auto_validates = lambda key: False


def no_patch_cache(cluster):
    cluster.controller.patch_cache.lookup = lambda *args, **kwargs: None


def run_lr(num_workers=50, iterations=14, costs=None, use_templates=None,
           prepare=None):
    run = execute(RunSpec(
        LRSpec(num_workers=num_workers, iterations=iterations), costs=costs,
        use_templates=use_templates, warmup=iterations // 2,
        prepare=prepare))
    return run.iteration_time, run.cluster.metrics


def test_ablation_auto_validation(benchmark, paper_scale):
    """§4.2 optimization 1: without auto-validation every instantiation
    pays the full per-object check (1.7 -> 7.5 µs/task in the paper)."""
    n = 50 if paper_scale else 10

    def compare():
        with_auto, m1 = run_lr(num_workers=n)
        without_auto, m2 = run_lr(num_workers=n, prepare=no_auto_validation)
        return with_auto, m1, without_auto, m2

    with_auto, m1, without_auto, m2 = once(benchmark, compare)
    emit("")
    emit(render_table(
        f"Ablation — auto-validation fast path (LR, {n} workers)",
        ["configuration", "iteration (s)", "auto", "full validations"],
        [
            ["auto-validation on", round(with_auto, 4),
             f"{m1.count('auto_validations'):.0f}",
             f"{m1.count('full_validations'):.0f}"],
            ["auto-validation off", round(without_auto, 4),
             f"{m2.count('auto_validations'):.0f}",
             f"{m2.count('full_validations'):.0f}"],
        ]))
    assert m1.count("auto_validations") > 0
    assert m2.count("auto_validations") == 0
    assert m2.count("full_validations") > m1.count("full_validations")
    assert without_auto >= with_auto * 0.98  # never faster


def test_ablation_patch_cache(benchmark, paper_scale):
    """§4.2 optimization 2: without the patch cache, every inner/outer
    loop boundary recomputes and reships its patch."""
    spec = RegressionSpec(num_workers=6, threshold_e=0.0, threshold_g=0.2,
                          max_outer=8)

    def run(prepare):
        return execute(RunSpec(spec, prepare=prepare)).cluster.metrics

    def compare():
        return run(None), run(no_patch_cache)

    with_cache, without_cache = once(benchmark, compare)
    emit("")
    emit(render_table(
        "Ablation — patch cache (Figure-3 nested regression, 8 outer loops)",
        ["configuration", "patches computed", "cache hits", "patch copies"],
        [
            ["patch cache on",
             f"{with_cache.count('patches_computed'):.0f}",
             f"{with_cache.count('patch_cache_hits'):.0f}",
             f"{with_cache.count('patch_copies'):.0f}"],
            ["patch cache off",
             f"{without_cache.count('patches_computed'):.0f}",
             f"{without_cache.count('patch_cache_hits'):.0f}",
             f"{without_cache.count('patch_copies'):.0f}"],
        ]))
    assert with_cache.count("patch_cache_hits") > 0
    assert without_cache.count("patch_cache_hits") == 0
    assert (without_cache.count("patches_computed")
            > with_cache.count("patches_computed"))


def test_ablation_control_plane_speed(benchmark, paper_scale):
    """Sensitivity: a 4x slower control plane barely moves templated
    iterations (they are compute-bound) but scales the central path ~4x."""
    n = 50 if paper_scale else 10
    slow = PAPER_COSTS.scaled(4.0)

    def compare():
        fast_t, _ = run_lr(num_workers=n)
        slow_t, _ = run_lr(num_workers=n, costs=slow)
        fast_central, _ = run_lr(num_workers=n, use_templates=False)
        slow_central, _ = run_lr(num_workers=n, costs=slow,
                                 use_templates=False)
        return fast_t, slow_t, fast_central, slow_central

    fast_t, slow_t, fast_central, slow_central = once(benchmark, compare)
    emit("")
    emit(render_table(
        f"Ablation — control-plane speed sensitivity (LR, {n} workers)",
        ["configuration", "1x costs (s)", "4x costs (s)", "degradation"],
        [
            ["templates", round(fast_t, 4), round(slow_t, 4),
             f"{slow_t / fast_t:.2f}x"],
            ["central", round(fast_central, 4), round(slow_central, 4),
             f"{slow_central / fast_central:.2f}x"],
        ]))
    # central scheduling degrades roughly with the cost factor
    assert slow_central / fast_central > 2.5
    # templates absorb most of it
    assert slow_t / fast_t < slow_central / fast_central

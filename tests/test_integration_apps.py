"""Integration tests for the bundled applications (real numerics), and
the virtual-time goldens of the paper's measurement loops."""

import numpy as np
import pytest

from repro.analysis import mean_iteration_time
from repro.apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    RegressionApp,
    RegressionSpec,
    RotationApp,
    RotationSpec,
    WaterApp,
    WaterSpec,
)
from repro.apps.water import ADVECT_STAGES, CG_STAGES, POST_STAGES
from repro.nimbus import NimbusCluster


def lr_spec(**kwargs):
    defaults = dict(num_workers=3, data_bytes=3e9, partitions_per_worker=2,
                    dim=12, iterations=10, real_compute=True,
                    rows_per_partition=120)
    defaults.update(kwargs)
    return LRSpec(**defaults)


class TestLogisticRegression:
    def run(self, use_templates=True, blocking=True, **kwargs):
        spec = lr_spec(**kwargs)
        app = LRApp(spec)
        cluster = NimbusCluster(spec.num_workers,
                                app.program(blocking=blocking),
                                registry=app.registry,
                                use_templates=use_templates)
        cluster.run_until_finished(max_seconds=1e5)
        return app, cluster

    def test_gradient_norm_decreases(self):
        app, cluster = self.run()
        norms = [iv.labels["results"]["grad_norm"]
                 for iv in cluster.metrics.intervals["block"]
                 if iv.labels["block_id"] == "lr.iteration"]
        assert norms[0] > norms[-1]
        assert norms[-1] < 1.0

    def test_templates_do_not_change_results(self):
        _app_a, with_templates = self.run(use_templates=True)
        app_b, without = self.run(use_templates=False)
        coeff_with = with_templates.workers[0].store.get(app_b.coeff)
        coeff_without = without.workers[0].store.get(app_b.coeff)
        assert np.allclose(coeff_with, coeff_without)

    def test_steady_state_auto_validates(self):
        _app, cluster = self.run(iterations=12)
        # iterations 5.. should ride the auto-validation fast path
        assert cluster.metrics.count("auto_validations") >= 7

    def test_first_templated_iteration_patches_coeff(self):
        """The §2.4 example: the model parameter lives only at its writer
        until the first templated instantiation patches it out."""
        _app, cluster = self.run(iterations=8)
        assert cluster.metrics.count("patches_computed") == 1
        assert cluster.metrics.count("patch_copies") >= 1

    def test_convergence_program_stops_on_tolerance(self):
        spec = lr_spec(iterations=50)
        app = LRApp(spec)
        cluster = NimbusCluster(spec.num_workers,
                                app.convergence_program(tolerance=0.5),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        norms = [iv.labels["results"]["grad_norm"]
                 for iv in cluster.metrics.intervals["block"]
                 if iv.labels["block_id"] == "lr.iteration"]
        assert norms[-1] < 0.5
        assert len(norms) < 50  # stopped early, not at the cap

    def test_spec_arithmetic(self):
        spec = LRSpec(num_workers=100)
        assert spec.num_partitions == 8000
        assert spec.partition_bytes == pytest.approx(12.5e6)
        assert spec.gradient_task_s == pytest.approx(12.5e6 / spec.compute_rate)


class TestKMeans:
    def run(self, **kwargs):
        defaults = dict(num_workers=2, data_bytes=2e9, partitions_per_worker=2,
                        dim=2, num_clusters=3, iterations=12,
                        real_compute=True, rows_per_partition=150)
        defaults.update(kwargs)
        spec = KMeansSpec(**defaults)
        app = KMeansApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(blocking=True),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        return app, cluster

    def test_inertia_monotonically_improves(self):
        _app, cluster = self.run()
        inertia = [iv.labels["results"]["inertia"]
                   for iv in cluster.metrics.intervals["block"]
                   if iv.labels["block_id"] == "km.iteration"]
        assert inertia[0] >= inertia[-1]
        # k-means inertia is non-increasing from iteration 2 onward
        for before, after in zip(inertia[1:], inertia[2:]):
            assert after <= before + 1e-9

    def test_recovers_cluster_centers(self):
        from repro.apps.datasets import make_cluster_data
        app, cluster = self.run()
        spec = app.spec
        _parts, centers = make_cluster_data(
            spec.num_partitions, spec.rows_per_partition, spec.dim,
            spec.num_clusters, spec.seed)
        learned = cluster.workers[0].store.get(app.centroids)["centroids"]
        # every true center has a learned centroid nearby
        for center in centers:
            distances = np.linalg.norm(learned - center, axis=1)
            assert distances.min() < 0.2


class TestRegression:
    def test_nested_loops_converge(self):
        spec = RegressionSpec(num_workers=3, threshold_e=0.03,
                              threshold_g=0.2)
        app = RegressionApp(spec)
        cluster = NimbusCluster(3, app.program(), registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        errors = [iv.labels["results"]["error"]
                  for iv in cluster.metrics.intervals["block"]
                  if iv.labels["block_id"] == "reg.estimate"]
        assert errors[-1] <= 0.03

    def test_patch_cache_hits_on_loop_boundary(self):
        """Re-entering the inner loop repeats the same patch: the cache
        must hit from the second outer iteration (§4.2 'very high hit
        rate')."""
        spec = RegressionSpec(num_workers=3, threshold_e=0.0,  # never met
                              threshold_g=0.2, max_outer=6)
        app = RegressionApp(spec)
        cluster = NimbusCluster(3, app.program(), registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        metrics = cluster.metrics
        assert metrics.count("patch_cache_hits") >= 3
        assert metrics.count("patches_computed") <= 4


class TestWater:
    def small_spec(self, **kwargs):
        defaults = dict(num_workers=4, partitions_per_worker=2, scale=0.002,
                        frame_duration=0.006, reseed_every=3)
        defaults.update(kwargs)
        return WaterSpec(**defaults)

    def test_has_21_stages_and_40_variables(self):
        spec = self.small_spec()
        app = WaterApp(spec)
        assert len(ADVECT_STAGES) + len(CG_STAGES) + len(POST_STAGES) == 21
        assert app.num_variables >= 40

    def test_triply_nested_loop_runs_expected_substeps(self):
        spec = self.small_spec()
        app = WaterApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e6)
        post_runs = [iv for iv in cluster.metrics.intervals["block"]
                     if iv.labels["block_id"] == "water.post"]
        assert len(post_runs) == spec.expected_substeps()

    def test_cg_iterations_match_residual_model(self):
        spec = self.small_spec()
        app = WaterApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e6)
        cg_runs = [iv for iv in cluster.metrics.intervals["block"]
                   if iv.labels["block_id"] == "water.cg"]
        expected = sum(spec.expected_cg_iterations(s)
                       for s in range(spec.expected_substeps()))
        assert len(cg_runs) == expected

    def test_inner_loop_auto_validates(self):
        """The CG inner loop is the §4.2 fast path: consecutive cg→cg
        instantiations must auto-validate."""
        spec = self.small_spec()
        app = WaterApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e6)
        metrics = cluster.metrics
        assert metrics.count("auto_validations") > metrics.count(
            "full_validations")

    def test_reseed_branch_taken_data_dependently(self):
        spec = self.small_spec(reseed_every=2)
        app = WaterApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e6)
        reseeds = [iv for iv in cluster.metrics.intervals["block"]
                   if iv.labels["block_id"] == "water.reseed"]
        assert len(reseeds) == spec.expected_substeps() // 2

    def test_ghost_reads_generate_neighbor_copies(self):
        spec = self.small_spec()
        app = WaterApp(spec)
        cluster = NimbusCluster(spec.num_workers, app.program(),
                                registry=app.registry)
        cluster.run_until_finished(max_seconds=1e6)
        # worker templates must contain cross-worker copies for the ghost
        # exchanges at partition boundaries
        wts = cluster.controller.jobs[0].worker_templates[("water.advect", 0)]
        from repro.nimbus.commands import CommandKind
        sends = sum(1 for entries in wts.entries.values()
                    for e in entries
                    if e is not None and e.kind == CommandKind.SEND)
        assert sends >= 2 * (spec.num_workers - 1)


# ---------------------------------------------------------------------------
# Virtual-time goldens of the paper's measurement loops
# ---------------------------------------------------------------------------
#: (app, spec, decision counters) — default specs, so these are what
#: ``repro lr|kmeans|rotation --workers N --iterations 14`` run
_PIPELINED = {"auto_validations": 10.0, "full_validations": 1.0,
              "template_instantiations": 13.0, "patches_computed": 1.0,
              "patch_cache_hits": 0.0}
_MEASUREMENT_LOOPS = {
    "fig07_lr": (LRApp, LRSpec, _PIPELINED),
    "fig08_kmeans": (KMeansApp, KMeansSpec, _PIPELINED),
    # the rotation loop always blocks (round k+1 overwrites what round k
    # reads): it validates every steady round, patches once, then hits
    # the patch cache — coverage fig07/fig08 never produce
    "patch_rotation": (RotationApp, RotationSpec,
                       {"auto_validations": 0.0, "full_validations": 22.0,
                        "template_instantiations": 26.0,
                        "patches_computed": 1.0, "patch_cache_hits": 10.0}),
}


#: (workload, workers, steady-state iteration time, tasks)
_GOLDENS = [
    ("fig07_lr", 10, 0.41346526557377467, 12211.0),
    ("fig07_lr", 20, 0.20854723278689025, 24365.0),
    ("fig08_kmeans", 10, 0.6174654584615371, 12211.0),
    ("fig08_kmeans", 20, 0.3169846892307699, 24365.0),
    ("patch_rotation", 10, 0.007280121600000076, 1120.0),
    ("patch_rotation", 20, 0.00828037759999963, 2240.0),
]


@pytest.mark.parametrize("workload, workers, iteration_time, tasks", _GOLDENS,
                         ids=[f"{row[0]}@{row[1]}" for row in _GOLDENS])
def test_measurement_loops_hold_their_virtual_goldens(
        workload, workers, iteration_time, tasks):
    """Steady-state iteration time (14 iterations, second half kept) and
    every control-plane decision counter, bit for bit: a host-time
    optimisation must not change what the simulation computes."""
    app_cls, spec_cls, decisions = _MEASUREMENT_LOOPS[workload]
    app = app_cls(spec_cls(num_workers=workers, iterations=14))
    cluster = NimbusCluster(workers, app.program(blocking=False),
                            registry=app.registry)
    cluster.run_until_finished(max_seconds=1e6)
    metrics = cluster.metrics
    assert mean_iteration_time(
        metrics, app.iteration_block.block_id, skip=7) == iteration_time
    assert metrics.count("tasks_executed") == tasks
    assert metrics.count("tasks_scheduled") == tasks
    assert {name: metrics.count(name) for name in decisions} == decisions

"""Structural unit tests for the application builders (no cluster runs)."""

import pytest

from repro.apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    ReductionTree,
    Variables,
    WaterSpec,
    block_home,
    make_cluster_data,
    make_regression_data,
)
from repro.apps.water import WaterApp
from repro.core.spec import LogicalTask


class TestVariables:
    def test_partitioned_allocation(self):
        variables = Variables()
        oids = variables.partitioned("x", 4, 100, lambda p: p % 2)
        assert len(oids) == 4
        assert len(set(oids)) == 4
        homes = [d[4] for d in variables.definitions]
        assert homes == [0, 1, 0, 1]
        assert [d[0] for d in variables.definitions] == oids

    def test_scalar(self):
        variables = Variables()
        oid = variables.scalar("s", 8, home=3)
        assert variables.definitions[0] == (oid, "s", 0, 8, 3)

    def test_distinct_variables_distinct_oids(self):
        variables = Variables()
        a = variables.partitioned("a", 3, 1)
        b = variables.partitioned("b", 3, 1)
        assert not (set(a) & set(b))

    def test_block_home(self):
        home = block_home(4)
        assert [home(p) for p in (0, 3, 4, 11)] == [0, 0, 1, 2]


class TestDatasets:
    def test_regression_data_separable(self):
        parts, truth = make_regression_data(2, 50, 5, seed=1, noise=0.0)
        assert len(parts) == 2
        x, y = parts[0]
        assert x.shape == (50, 5)
        assert set(y.tolist()) <= {0.0, 1.0}
        # labels consistent with the ground truth
        assert ((x @ truth > 0) == (y > 0.5)).all()

    def test_regression_data_with_shared_truth(self):
        _parts, truth = make_regression_data(1, 10, 4, seed=1)
        parts2, truth2 = make_regression_data(1, 10, 4, seed=2, truth=truth)
        assert (truth == truth2).all()

    def test_cluster_data_near_centers(self):
        import numpy as np
        parts, centers = make_cluster_data(2, 100, 3, 4, seed=0, spread=0.05)
        points = np.vstack(parts)
        dists = np.linalg.norm(
            points[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert dists.mean() < 0.2


class TestReductionTree:
    def make(self, num_workers=9, leaves_per_worker=2):
        variables = Variables()
        n_leaves = num_workers * leaves_per_worker
        leaves = variables.partitioned("leaf", n_leaves, 8,
                                       block_home(leaves_per_worker))
        tree = ReductionTree(variables, "sum", leaves,
                             block_home(leaves_per_worker), num_workers, 8)
        return tree, variables

    def test_group_structure(self):
        tree, _v = self.make(num_workers=9)
        assert tree.group_size == 3
        assert len(tree.groups) == 3
        assert tree.groups[0] == [0, 1, 2]

    def test_stages_cover_all_leaves(self):
        tree, _v = self.make()
        stages = tree.stages("local", "group", "root")
        local_stage = stages[0]
        covered = set()
        for task in local_stage.tasks:
            covered.update(task.read)
        assert covered == set(tree.leaf_oids)

    def test_root_reads_all_groups(self):
        tree, _v = self.make()
        stages = tree.stages("local", "group", "root",
                             extra_root_reads=(999,),
                             extra_root_writes=(998,),
                             root_param_slot="alpha")
        root = stages[2].tasks[0]
        assert set(tree.group_oids) <= set(root.read)
        assert 999 in root.read
        assert root.write == (tree.result_oid, 998)
        assert root.param_slot == "alpha"

    def test_single_worker_degenerate_tree(self):
        tree, _v = self.make(num_workers=1)
        stages = tree.stages("local", "group", "root")
        assert len(stages[0].tasks) == 1
        assert len(stages[1].tasks) == 1


class TestSpecs:
    def test_lr_spec_strong_scaling(self):
        small = LRSpec(num_workers=20)
        large = LRSpec(num_workers=100)
        # same data split finer: more tasks, each shorter
        assert large.num_partitions == 5 * small.num_partitions
        assert large.gradient_task_s == pytest.approx(
            small.gradient_task_s / 5)

    def test_kmeans_stats_bytes(self):
        spec = KMeansSpec(num_workers=2, num_clusters=10, dim=4)
        assert spec.stats_bytes == 8 * 10 * 5

    def test_lr_app_block_structure(self):
        app = LRApp(LRSpec(num_workers=2, data_bytes=1e9,
                           partitions_per_worker=3))
        block = app.iteration_block
        assert block.num_tasks == 6 + 2 + 2 + 1  # grads, local, group, root
        assert app.iteration_block.returns == {"grad_norm": app.tree.result_oid}
        # the same block object is reused across iterations: the template
        # contract requires a stable structure
        assert block.structure_signature() == app.iteration_block.structure_signature()

    def test_kmeans_app_block_structure(self):
        app = KMeansApp(KMeansSpec(num_workers=2, data_bytes=1e9,
                                   partitions_per_worker=2))
        assert app.iteration_block.num_tasks == 4 + 2 + 2 + 1


class TestWaterSpec:
    def test_cg_model_terminates(self):
        spec = WaterSpec(num_workers=2, partitions_per_worker=1)
        for substep in range(20):
            iters = spec.expected_cg_iterations(substep)
            assert 1 <= iters <= spec.max_cg_iterations
            assert spec.residual_after(substep, iters - 1) < spec.cg_tolerance

    def test_cg_iterations_vary_by_substep(self):
        spec = WaterSpec(num_workers=2, partitions_per_worker=1)
        counts = {spec.expected_cg_iterations(s) for s in range(10)}
        assert len(counts) > 1  # genuinely data-dependent

    def test_substep_count_depends_on_cfl(self):
        fast = WaterSpec(num_workers=2, partitions_per_worker=1,
                         frame_duration=0.05)
        slow = WaterSpec(num_workers=2, partitions_per_worker=1,
                         frame_duration=0.1)
        assert slow.expected_substeps() > fast.expected_substeps()

    def test_task_length_profile(self):
        """§5.5: majority of *time* in 60-70 ms tasks, shortest 100 µs."""
        from repro.apps.water import ADVECT_STAGES, CG_STAGES, POST_STAGES
        durations = [ms for _n, ms, *_rest in
                     ADVECT_STAGES + CG_STAGES + POST_STAGES]
        assert min(durations) == pytest.approx(0.1)  # 100 µs
        heavy_time = sum(d for d in durations if d >= 60)
        assert heavy_time > 0.5 * sum(durations)

    def test_double_buffering_invariant(self):
        """No stage ghost-reads a variable it also writes (the WAR hazard
        that mutable single-buffer stages would hit)."""
        from repro.apps.water import (ADVECT_STAGES, CG_STAGES, POST_STAGES,
                                      RESEED_STAGES)
        for table in (ADVECT_STAGES, CG_STAGES, POST_STAGES, RESEED_STAGES):
            for name, _ms, _reads, ghosts, write in table:
                assert write not in ghosts, name

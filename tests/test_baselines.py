"""Tests for the Spark-like, Naiad-like, and MPI-like baselines."""

import numpy as np
import pytest

from repro.apps import LRApp, LRSpec
from repro.baselines import (
    MPICluster,
    NaiadCluster,
    SparkCluster,
    make_mpi_costs,
    make_spark_costs,
)
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.analysis import mean_iteration_time, task_throughput

from .helpers import combine_registry, simple_define, worker_values
from .test_dynamic import ACC, DATA, OUT, blocks, reference


def small_lr(**kwargs):
    defaults = dict(num_workers=2, data_bytes=2e9, partitions_per_worker=2,
                    dim=8, iterations=6, real_compute=True,
                    rows_per_partition=100)
    defaults.update(kwargs)
    return LRApp(LRSpec(**defaults))


def timing_lr(num_workers, iterations=12):
    return LRApp(LRSpec(num_workers=num_workers, iterations=iterations))


class TestSpark:
    def test_produces_same_results_as_nimbus(self):
        app_a = small_lr()
        nimbus = NimbusCluster(2, app_a.program(blocking=True),
                               registry=app_a.registry)
        nimbus.run_until_finished(max_seconds=1e5)
        app_b = small_lr()
        spark = SparkCluster(2, app_b.program(blocking=True),
                             registry=app_b.registry)
        spark.run_until_finished(max_seconds=1e5)
        assert np.allclose(nimbus.workers[0].store.get(app_a.coeff),
                           spark.workers[0].store.get(app_b.coeff))

    def test_cost_profile(self):
        costs = make_spark_costs()
        assert costs.central_schedule_per_task == pytest.approx(166e-6)
        assert costs.central_receive_per_task == 0.0

    def test_throughput_saturates_near_6000(self):
        """Fig. 8: Spark's scheduler caps near 6,000 tasks/second."""
        app = timing_lr(50)
        cluster = SparkCluster(50, app.program(blocking=False),
                               registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        throughput = task_throughput(cluster.metrics, "lr.iteration", skip=4)
        assert 3000 < throughput < 6100

    def test_no_templates_ever(self):
        app = small_lr()
        cluster = SparkCluster(2, app.program(blocking=True),
                               registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        assert cluster.metrics.count("template_instantiations") == 0
        assert cluster.metrics.count("worker_templates_installed") == 0

    def test_stage_barriers_serialize_blocks(self):
        """BSP: iteration completions are spaced by at least one
        iteration's serial dispatch time — blocks never overlap."""
        app = timing_lr(4, iterations=6)
        cluster = SparkCluster(4, app.program(blocking=False),
                               registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        ends = sorted(iv.end for iv in cluster.metrics.intervals["block"]
                      if iv.labels["block_id"] == "lr.iteration")
        tasks_per_iter = app.spec.num_partitions
        min_spacing = 0.9 * tasks_per_iter * 166e-6
        for before, after in zip(ends, ends[1:]):
            assert after - before >= min_spacing


class TestNaiad:
    def test_produces_same_results_as_nimbus(self):
        app_a = small_lr()
        nimbus = NimbusCluster(2, app_a.program(blocking=True),
                               registry=app_a.registry)
        nimbus.run_until_finished(max_seconds=1e5)
        app_b = small_lr()
        naiad = NaiadCluster(2, app_b.program(blocking=True),
                             registry=app_b.registry)
        naiad.run_until_finished(max_seconds=1e5)
        assert np.allclose(nimbus.workers[0].store.get(app_a.coeff),
                           naiad.workers[0].store.get(app_b.coeff))

    def test_installs_once_and_runs_distributed(self):
        app = small_lr(iterations=8)
        cluster = NaiadCluster(2, app.program(blocking=True),
                               registry=app.registry)
        cluster.run_until_finished(max_seconds=1e5)
        # one install per distinct block (init + iteration)
        assert cluster.metrics.count("naiad_installs") == 2
        # no central per-task scheduling after install
        assert cluster.metrics.count("full_validations") == 0
        assert cluster.metrics.count("auto_validations") == 0

    def test_migration_reinstalls_whole_graph(self):
        app = small_lr(iterations=10)
        box = {}
        base_program = app.program(blocking=True)

        def program(job):
            gen = base_program(job)
            count = 0
            value = None
            while True:
                try:
                    directive = gen.send(value)
                except StopIteration:
                    return
                count += 1
                if count == 6:
                    box["cluster"].controller.deliver(P.ManagerDirective(
                        lambda c: c.migrate_tasks("lr.iteration", [(0, 1)])))
                value = yield directive

        cluster = NaiadCluster(2, program, registry=app.registry)
        box["cluster"] = cluster
        cluster.run_until_finished(max_seconds=1e5)
        # install(init) + install(iteration) + reinstall(migration)
        assert cluster.metrics.count("naiad_installs") == 3
        assert cluster.metrics.count("edits_applied") == 0
        # the exact timeline of install, migration and reinstall
        assert (cluster.sim.now, cluster.sim.events_run) == (
            2.3462147116655756, 358)

    def test_eviction_reinstalls_each_rehomed_graph(self):
        """The dynamic-scheduling program with worker 1 evicted before
        iteration 4: each block with tasks on worker 1 is recompiled and
        reinstalled through the one install path, and the run computes
        the reference value. (The re-homed graphs used to be generated but
        never shipped, and the next epoch failed on a worker that had
        never installed them.)"""
        seed_block, iter_block = blocks()
        objects = {oid: (f"o{oid}", 8) for oid in DATA + OUT + [ACC]}
        box = {}

        def program(job):
            yield job.define(simple_define(objects))
            yield job.run(seed_block, {"v": 3})
            for i in range(8):
                if i == 4:
                    box["cluster"].controller.deliver(P.ManagerDirective(
                        lambda c: c.membership.evict_workers([1])))
                yield job.run(iter_block)

        cluster = NaiadCluster(2, program, registry=combine_registry())
        box["cluster"] = cluster
        cluster.run_until_finished(max_seconds=1e5)
        assert worker_values(cluster, [ACC])[ACC] == reference(8)[ACC]
        templates = cluster.controller.templates
        assert {w for t in templates.values() for w in t.workers} \
            == {0}
        # one install per block, then one more per block (both had tasks
        # on worker 1)
        assert cluster.metrics.count("naiad_installs") == 2 + 2
        assert cluster.controller.current_version == {"seed": 1, "iter": 1}

    def test_serves_concurrent_jobs_like_a_solo_run(self):
        """Each of two served jobs installs its data flow in its own
        namespace and computes what job 0 computes alone."""
        app = small_lr()
        solo = NaiadCluster(2, app.program(blocking=True),
                            registry=app.registry)
        solo.run_until_finished(max_seconds=1e5)
        expected = solo.workers[0].store.get(app.coeff)
        cluster = NaiadCluster(2, program=None, registry=app.registry)
        records = [cluster.jobs.submit(app.program(blocking=True))
                   for _ in range(2)]
        cluster.run_until_jobs_finished(max_seconds=1e5)
        for record in records:
            assert record.state == "finished"
            assert record.metrics.count("naiad_installs") == 2
            ctx = cluster.controller.jobs[record.job_id]
            goid = ctx.goid(app.coeff)
            holder = min(ctx.directory.holders_of_latest(goid))
            assert np.array_equal(cluster.workers[holder].store.get(goid),
                                  expected)

    def test_workers_charge_callback_overhead(self):
        app = small_lr()
        cluster = NaiadCluster(2, app.program(blocking=True),
                               registry=app.registry)
        assert cluster.workers[0].callback_overhead == pytest.approx(
            cluster.costs.naiad_callback_per_task)


@pytest.mark.parametrize("cluster_cls", [SparkCluster, NaiadCluster])
def test_baselines_keep_the_cluster_controller_settings(cluster_cls):
    """A baseline runs the one controller its cluster built, with every
    setting passed to the cluster, and its shards talk to that controller."""
    app = timing_lr(4, iterations=6)
    cluster = cluster_cls(4, app.program(blocking=True),
                          registry=app.registry, checkpoint_every=1)
    cluster.run_until_finished(max_seconds=1e5)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert cluster.controller.membership.last_committed_checkpoint is not None
    assert cluster.driver.controller is cluster.controller
    assert all(shard.controller is cluster.controller
               for shard in cluster.shards.values())


class TestMPI:
    def test_zero_control_costs(self):
        costs = make_mpi_costs()
        assert costs.central_schedule_per_task == 0.0
        assert costs.instantiate_worker_template_auto_per_task == 0.0
        assert costs.edit_per_task == 0.0
        # storage still behaves like storage
        assert costs.storage_bandwidth > 0

    def test_produces_same_results_as_nimbus(self):
        app_a = small_lr()
        nimbus = NimbusCluster(2, app_a.program(blocking=True),
                               registry=app_a.registry)
        nimbus.run_until_finished(max_seconds=1e5)
        app_b = small_lr()
        mpi = MPICluster(2, app_b.program(blocking=True),
                         registry=app_b.registry)
        mpi.run_until_finished(max_seconds=1e5)
        assert np.allclose(nimbus.workers[0].store.get(app_a.coeff),
                           mpi.workers[0].store.get(app_b.coeff))

    def test_faster_than_nimbus_which_beats_spark(self):
        """Fig. 11 ordering: MPI ≤ Nimbus ≪ Nimbus-without-templates, and
        Spark (central per-task) is the slowest control plane."""
        times = {}
        for name, cls, kwargs in (
            ("mpi", MPICluster, {}),
            ("nimbus", NimbusCluster, {"use_templates": True}),
            ("central", NimbusCluster, {"use_templates": False}),
            ("spark", SparkCluster, {}),
        ):
            # 40 workers: enough parallelism that a central per-task
            # control plane is the bottleneck (Fig. 1's regime)
            app = timing_lr(40, iterations=10)
            cluster = cls(40, app.program(blocking=False),
                          registry=app.registry, **kwargs)
            cluster.run_until_finished(max_seconds=1e5)
            times[name] = mean_iteration_time(
                cluster.metrics, "lr.iteration", skip=5)
        assert times["mpi"] <= times["nimbus"] * 1.05
        assert times["nimbus"] < 0.7 * times["central"]
        assert times["nimbus"] < 0.7 * times["spark"]

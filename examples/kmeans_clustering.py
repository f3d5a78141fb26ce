#!/usr/bin/env python3
"""K-means clustering with real numerics on the simulated cluster.

Runs k-means with actual numpy task bodies (``real_compute=True``) until
the inertia improvement drops below a tolerance — a data-dependent loop
driven by values returned through the control plane — and verifies the
learned centroids against the generating centers.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.apps import KMeansSpec
from repro.apps.datasets import make_cluster_data
from repro.apps.runner import RunSpec, execute


def main() -> None:
    spec = KMeansSpec(
        num_workers=4,
        data_bytes=4e9,
        partitions_per_worker=2,
        dim=2,
        num_clusters=4,
        real_compute=True,
        rows_per_partition=250,
    )
    run = execute(RunSpec(spec, use_templates=True, tolerance=1e-3))
    cluster = run.cluster

    inertia = [iv.labels["results"]["inertia"]
               for iv in cluster.metrics.intervals["block"]
               if iv.labels["block_id"] == "km.iteration"]
    print("Inertia per iteration:")
    for i, value in enumerate(inertia, start=1):
        print(f"  iteration {i:2d}: {value:12.2f}")

    learned = cluster.workers[0].store.get(run.app.centroids)["centroids"]
    _parts, centers = make_cluster_data(
        spec.num_partitions, spec.rows_per_partition, spec.dim,
        spec.num_clusters, spec.seed)
    print("\nTrue center -> nearest learned centroid (distance):")
    for center in centers:
        distances = np.linalg.norm(learned - center, axis=1)
        nearest = learned[distances.argmin()]
        print(f"  {np.round(center, 3)} -> {np.round(nearest, 3)} "
              f"(d={distances.min():.4f})")

    metrics = cluster.metrics
    print(f"\nConverged in {len(inertia)} iterations, "
          f"virtual time {cluster.sim.now * 1000:.1f} ms")
    print(f"Template fast path: {metrics.count('auto_validations'):.0f} "
          f"auto-validations, {metrics.count('full_validations'):.0f} full")


if __name__ == "__main__":
    main()

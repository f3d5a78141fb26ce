"""Logical-object bookkeeping and synthetic dataset generators.

:class:`Variables` allocates object ids for an application's partitioned
variables and builds, on demand, the definition list the driver hands to
``job.define``. Synthetic data generators produce the real numpy payloads
used by the examples and integration tests (the benchmarks run in the
paper's "-opt" spin-wait mode and need no payloads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np


class Variables:
    """Allocates object ids for named, partitioned application variables:
    one ``(name, oids, size_bytes, home)`` entry per variable, the oids
    the list returned to the caller, expanded per object only when
    :attr:`definitions` is read (its tuples share those oid objects)."""

    def __init__(self) -> None:
        self._next_oid = 1
        self._variables: List[Tuple[str, List[int], int,
                                    Optional[Callable[[int], int]]]] = []

    def partitioned(
        self,
        name: str,
        partitions: int,
        size_bytes: int,
        home: Optional[Callable[[int], int]] = None,
    ) -> List[int]:
        """Declare a variable with one object per partition; returns oids.

        ``home(p)`` pins partition ``p`` to a worker (otherwise placement is
        the controller's round-robin default).
        """
        oids = list(range(self._next_oid, self._next_oid + partitions))
        self._next_oid += partitions
        self._variables.append((name, oids, size_bytes, home))
        return oids

    def scalar(self, name: str, size_bytes: int = 8,
               home: Optional[int] = None) -> int:
        """Declare a singleton variable; returns its oid."""
        return self.partitioned(name, 1, size_bytes,
                                (lambda _p: home) if home is not None else None)[0]

    @property
    def definitions(self) -> List[Tuple[int, str, int, int, Optional[int]]]:
        """``(oid, name, partition, size_bytes, home or None)`` per object,
        in declaration order: what ``job.define`` takes."""
        return [(oid, name, p, size, home(p) if home is not None else None)
                for name, oids, size, home in self._variables
                for p, oid in enumerate(oids)]


def block_home(partitions_per_worker: int) -> Callable[[int], int]:
    """Contiguous block placement: partition p lives on p // ppw."""

    def home(p: int) -> int:
        return p // partitions_per_worker

    return home


def make_regression_data(
    num_partitions: int,
    rows_per_partition: int,
    dim: int,
    seed: int = 0,
    noise: float = 0.1,
    truth: Optional[np.ndarray] = None,
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Synthetic logistic-regression data with a known ground truth.

    Returns per-partition ``(X, y)`` pairs and the true coefficient vector.
    Pass ``truth`` to draw fresh samples for an existing model (held-out
    estimation data).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    if truth is None:
        truth = rng.normal(size=dim)
        truth /= np.linalg.norm(truth)
    partitions = []
    for _ in range(num_partitions):
        x = rng.normal(size=(rows_per_partition, dim))
        logits = x @ truth + noise * rng.normal(size=rows_per_partition)
        y = (logits > 0).astype(np.float64)
        partitions.append((x, y))
    return partitions, truth


def make_cluster_data(
    num_partitions: int,
    rows_per_partition: int,
    dim: int,
    num_clusters: int,
    seed: int = 0,
    spread: float = 0.15,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Synthetic k-means data drawn around well-separated centers."""
    import numpy as np

    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(num_clusters, dim))
    partitions = []
    for _ in range(num_partitions):
        labels = rng.integers(num_clusters, size=rows_per_partition)
        points = centers[labels] + spread * rng.normal(
            size=(rows_per_partition, dim))
        partitions.append(points)
    return partitions, centers

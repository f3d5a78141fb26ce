"""Application workloads: the paper's evaluation benchmarks.

* :class:`LRApp` — logistic regression with a two-level reduction tree
  (Figures 1, 7a, 8, 9, 10 and the Table 1–3 micro-benchmarks).
* :class:`KMeansApp` — k-means clustering (Figure 7b).
* :class:`WaterApp` — the PhysBAM particle-levelset water-simulation proxy
  (Figure 11): triply nested data-dependent loops, 21 stages, 40+ variables.
* :class:`RegressionApp` — the nested training-regression of Figure 3,
  whose inner/outer loop boundary exercises patching and the patch cache.
* :class:`RotationApp` — rotating producer/consumer loop whose every
  round violates the consume template's preconditions identically: the
  deterministic patch-cache exerciser (``repro rotation``).
"""

from .datasets import (
    Variables,
    block_home,
    make_cluster_data,
    make_regression_data,
)
from .kmeans import KMEANS_CPP_RATE, KMeansApp, KMeansSpec
from .lr import CPP_RATE, MLLIB_RATE, LRApp, LRSpec
from .reductions import ReductionTree
from .regression import RegressionApp, RegressionSpec
from .rotation import RotationApp, RotationSpec
from .water import WaterApp, WaterSpec

__all__ = [
    "CPP_RATE",
    "KMEANS_CPP_RATE",
    "KMeansApp",
    "KMeansSpec",
    "LRApp",
    "LRSpec",
    "MLLIB_RATE",
    "ReductionTree",
    "RegressionApp",
    "RegressionSpec",
    "RotationApp",
    "RotationSpec",
    "Variables",
    "WaterApp",
    "WaterSpec",
    "block_home",
    "make_cluster_data",
    "make_regression_data",
]

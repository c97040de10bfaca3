"""The paper's primary contribution surface: 8 bipartite graph matching
algorithms over similarity-graph edge lists, a distributed Spark
execution path, effectiveness metrics, and the threshold-sweep
protocol."""
from .matchers import ALGORITHM_ORDER, ALGORITHMS
from .metrics import PRF, prf_from_arrays, prf_from_sets
from .sweep import THRESHOLDS, sweep_graph

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_ORDER",
    "PRF",
    "THRESHOLDS",
    "prf_from_arrays",
    "prf_from_sets",
    "sweep_graph",
]

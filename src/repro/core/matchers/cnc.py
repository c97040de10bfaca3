"""Connected Components (CNC) — Algorithm 2 of the paper.

Discards edges with weight < t, computes connected components of the
pruned bipartite graph, and keeps only the components that consist of
exactly two nodes (necessarily one per collection, since all edges
cross sides). Components are found with vectorised min-label
propagation + pointer jumping, so the kernel is O(m log d) numpy work
with no per-edge Python loop — matching the paper's observation that
CNC is the fastest algorithm (it quotes O(m) with DFS).
"""
from __future__ import annotations

import numpy as np

from .base import EMPTY_PAIRS, PreparedGraph, edges_above, pairs_array


def _components(ia: np.ndarray, ib: np.ndarray, n: int) -> np.ndarray:
    """Component label (min node slot) per node slot 0..n-1."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, ia, np.minimum(labels[ia], labels[ib]))
        np.minimum.at(new, ib, np.minimum(labels[ia], labels[ib]))
        new = np.minimum(new, new[new])  # pointer jumping
        if np.array_equal(new, labels):
            return labels
        labels = new


def cnc(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Match left/right nodes whose pruned component is a single edge."""
    # Alg. 2 discards edges *lower* than t
    a, b, _ = edges_above(v1, v2, w, t, graph, closed=True)
    if not len(a):
        return EMPTY_PAIRS
    # Disjoint global node space: left ids stay even, right ids odd.
    nodes, inv = np.unique(np.concatenate([a * 2, b * 2 + 1]), return_inverse=True)
    m = len(a)
    ia, ib = inv[:m], inv[m:]
    labels = _components(ia, ib, len(nodes))
    _, counts = np.unique(labels, return_counts=True)
    size_of = np.zeros(len(nodes), dtype=np.int64)
    size_of[np.unique(labels)] = counts
    isolated = size_of[labels[ia]] == 2
    out = {(int(x), int(y)) for x, y in zip(a[isolated], b[isolated])}
    return pairs_array(list(out))

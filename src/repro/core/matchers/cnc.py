"""Connected Components (CNC) — Algorithm 2 of the paper.

Discards edges with weight < t and keeps only the components of the
pruned bipartite graph that consist of exactly two nodes. Every edge
crosses sides, so such a component is an edge whose two ends have no
other edge: CNC keeps the distinct edges whose left and right degrees
are both 1. The degrees come from ``np.unique`` counts, so the kernel
is O(m log m) numpy work with no per-edge Python loop and no component
search — matching the paper's observation that CNC is the fastest
algorithm (it quotes O(m) with DFS).
"""
from __future__ import annotations

import numpy as np

from .base import EMPTY_PAIRS, PairKeys, PreparedGraph, edges_above


def _once(x: np.ndarray) -> np.ndarray:
    """For sorted ``x``: whether each entry's value occurs only there."""
    new = x[1:] != x[:-1]
    return np.concatenate(([True], new)) & np.concatenate((new, [True]))


def cnc(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Match left/right nodes whose pruned component is a single edge."""
    # Alg. 2 discards edges *lower* than t
    a, b, _ = edges_above(v1, v2, w, t, graph, closed=True)
    if not len(a):
        return EMPTY_PAIRS
    keys = PairKeys(b)
    # the distinct edges, sorted by (a, b); a repeated edge counts once
    a, b = keys.decode(np.unique(keys.encode(a, b)))
    alone = _once(a)
    by_b = np.argsort(b, kind="stable")
    alone[by_b] &= _once(b[by_b])
    return np.column_stack((a[alone], b[alone]))

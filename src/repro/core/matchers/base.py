"""Shared machinery for the reference bipartite matchers.

All eight matchers share one calling convention::

    pairs = matcher(v1, v2, w, t)

where ``v1``/``v2`` are int64 arrays of left/right node ids, ``w`` is a
float64 array of edge weights in [0, 1], ``t`` is the similarity
threshold, and the result is an ``(k, 2)`` int64 array of matched
``(left, right)`` pairs. Matchers are pure functions of their inputs:
ties are broken deterministically by (higher weight, lower left id,
lower right id), so repeated runs produce identical output.

These kernels are exact implementations of the paper's Algorithms 1-8
and run either on the driver (threshold sweeps) or inside Spark tasks
(``core.spark_match`` applies them to the whole edge list as one
``applyInPandas`` group).
"""
from __future__ import annotations

import numpy as np

#: Output of every matcher: (k, 2) int64 array of (left, right) pairs.
EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def as_edge_arrays(v1, v2, w):
    """Coerce edge columns to the canonical numpy dtypes."""
    return (
        np.asarray(v1, dtype=np.int64),
        np.asarray(v2, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


def desc_order(v1: np.ndarray, v2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Indices sorting edges by (weight desc, left id asc, right id asc).

    This is the deterministic tie-break used across all matchers; with
    it, greedy algorithms (UMC, BMC, EXC, KRC) are order-independent
    reproductions of the paper's priority-queue pop order.
    """
    return np.lexsort((v2, v1, -w))


def pairs_array(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Convert a python list of (left, right) tuples to the output array."""
    if not pairs:
        return EMPTY_PAIRS
    return np.asarray(sorted(pairs), dtype=np.int64)


class UnionFind:
    """Array-backed union-find over ``n`` contiguous node slots."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:  # path compression
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller root wins
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def compact_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary int64 ids to 0..k-1. Returns (compacted, uniques)."""
    uniques, inv = np.unique(ids, return_inverse=True)
    return inv.astype(np.int64), uniques

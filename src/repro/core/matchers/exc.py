"""Exact Clustering (EXC) — Algorithm 6 of the paper.

Two entities are matched only if they are *mutually* best: the
top-weighted adjacent edge of the left node is also the top-weighted
adjacent edge of the right node (edges <= t are pruned first). A
stricter, symmetric version of BMC; equivalent to the MutualFirstChoice
algorithm of Gemmell et al. The paper quotes O(n m); here a node's best
edge is the first entry of its ``PreparedGraph`` row, so after the
O(m log m) sort the test is O(n) array work. A mutual-best pair whose
edge weighs > t is mutual-best among the edges > t as well, so the
rows need no pruning.
"""
from __future__ import annotations

import numpy as np

from .base import PreparedGraph, pairs_of


def exc(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Match pairs that are each other's single best candidate."""
    g = PreparedGraph.above(v1, v2, w, t, graph)
    left, right = g.left, g.right
    first = left.indptr[:-1]
    best = left.nbr[first]  # each left row's best right row
    back = right.nbr[right.indptr[:-1]]  # each right row's best left row
    mutual = (back[best] == np.arange(len(best))) & (left.w[first] > t)  # Alg. 6 line 6
    return pairs_of(left.ids[mutual], right.ids[best[mutual]])

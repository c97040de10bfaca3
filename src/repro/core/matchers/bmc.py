"""Best Match Clustering (BMC) — Algorithm 5 of the paper.

For each entity of the basis collection (a configuration parameter:
``basis='left'`` or ``'right'``), in ascending node-id order, create a
partition with the most similar not-yet-clustered entity of the other
collection whose edge weight exceeds t. The scan walks the basis side's
``PreparedGraph`` rows and stops each row at its first free neighbour
or its first edge <= t: O(n + m) after the sort. The experiment harness
tries both bases and keeps the best (paper, Sec. 3).
"""
from __future__ import annotations

import numpy as np

from .base import PreparedGraph, pairs_of


def bmc(
    v1, v2, w, t: float, *, basis: str = "left", graph: PreparedGraph | None = None
) -> np.ndarray:
    """Greedy best-available match per basis-collection node."""
    if basis not in ("left", "right"):
        raise ValueError(f"basis must be 'left' or 'right', got {basis!r}")
    g = PreparedGraph.above(v1, v2, w, t, graph)
    rows = g.left if basis == "left" else g.right
    ids, others = rows.ends(rows.first_free(t))  # Alg. 5 line 5: sim > t
    return pairs_of(ids, others) if basis == "left" else pairs_of(others, ids)

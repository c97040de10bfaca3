"""Unique Mapping Clustering (UMC) — Algorithm 8 of the paper.

Prunes edges with weight <= t, sorts the rest in decreasing weight and
greedily forms a partition for the top-weighted pair whose endpoints
are both still unmatched (the unique-mapping constraint of CCER).
The edges above t are a prefix of the ``PreparedGraph`` order, so the
loop is O(m) after the O(m log m) sort, which ``core.sweep`` pays once
per graph. Equivalent to FAMER's CLIP clustering in the two-source case.
"""
from __future__ import annotations

import numpy as np

from .base import PreparedGraph, pairs_array


def umc(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Greedy max-weight 1-1 matching over edges with weight > t."""
    g = PreparedGraph.above(v1, v2, w, t, graph)
    n = g.n_above(t)  # Alg. 8 line 6: strictly greater
    matched_l: set[int] = set()
    matched_r: set[int] = set()
    out = []
    for x, y in zip(g.v1[:n].tolist(), g.v2[:n].tolist()):
        if x not in matched_l and y not in matched_r:
            out.append((x, y))
            matched_l.add(x)
            matched_r.add(y)
    return pairs_array(out)

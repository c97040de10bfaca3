"""Row Column Assignment Clustering (RCA) — Algorithm 3 of the paper.

Two greedy passes over the similarity graph (Kurtzberg's Row-Column
Scan for the assignment problem): pass 1 assigns, for each left node
in ascending id order, the most similar still-unassigned right node;
pass 2 does the symmetric scan from the right side. The pass with the
larger total assigned weight wins, and pairs below the similarity
threshold t are then discarded (Alg. 3 lines 29-36).

Per JedAI practice the scans consider the edges present in the graph
(weight > 0) rather than a conceptual complete bipartite graph; a node
with no unassigned neighbour simply stays single. The paper quotes
O(|V1| |V2|); each scan here walks one side's ``PreparedGraph`` rows
and stops a row at its first free neighbour, O(n + m) after the
O(m log m) sort.
"""
from __future__ import annotations

import numpy as np

from .base import PreparedGraph, pairs_of


def rca(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Best of the row scan and the column scan, thresholded at t."""
    g = PreparedGraph.above(v1, v2, w, 0.0, graph)  # the scans see all edges > 0
    scans = []
    for rows in (g.left, g.right):
        chosen = rows.first_free(0.0)
        ws = rows.lists[2]
        total = 0.0  # summed in scan order
        for k in chosen:
            total += ws[k]
        scans.append((total, rows, chosen))
    (d1, rows1, chosen1), (d2, rows2, chosen2) = scans
    rows, chosen = (rows1, chosen1) if d1 >= d2 else (rows2, chosen2)
    chosen = np.asarray(chosen, dtype=np.int64)
    chosen = chosen[rows.w[chosen] >= t]
    ids, others = rows.ends(chosen)
    return pairs_of(ids, others) if rows is rows1 else pairs_of(others, ids)

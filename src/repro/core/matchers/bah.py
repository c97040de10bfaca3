"""Best Assignment Heuristic (BAH) — Algorithm 4 of the paper.

Swap-based random search for the maximum-weight bipartite matching.
Each node of the smaller collection starts paired with a node of the
larger one; every step picks two random nodes of the larger collection
and swaps their partners if the total retained weight does not
decrease (Alg. 4 accepts D >= 0). Stops after ``max_moves`` steps
(paper: 10,000). The paper's 2-minute wall-clock limit is not
implemented: it would make the output depend on the machine's speed.
Stochastic, but fully deterministic here given ``seed``.

Pair contributions d(.,.) are initialised from edges with weight > t
and 0 elsewhere, so the final pairs with zero contribution (below the
threshold or absent) are dropped from the output.

The 10,000-step move loop runs over Python ints and floats: partners are
a list, each node's current contribution d(i, partner) is a list kept in
step with it, the two candidate weights of a swap are read through a
``memoryview`` of one flat float64 buffer (turning the whole buffer into
a list would cost O(|V1| |V2|) per call), and each step's two row
offsets are computed before the loop. Each step does the same float
arithmetic in the same order as the textbook loop over a numpy matrix,
so the output is bit-identical to it at a fraction of its per-step
cost. A step whose two nodes share a partner value (the same node,
dropped before the loop, or two nodes without partners) is skipped: its
swap would change nothing.
"""
from __future__ import annotations

import numpy as np

from .base import EMPTY_PAIRS, PreparedGraph, compact_ids, edges_above, pairs_array


def bah(
    v1,
    v2,
    w,
    t: float,
    *,
    max_moves: int = 10_000,
    seed: int = 42,
    graph: PreparedGraph | None = None,
) -> np.ndarray:
    """Random-search assignment over edges > t, seeded and bounded."""
    # contributions exist only for edges above threshold
    a, b, s = edges_above(v1, v2, w, t, graph)
    if not len(a):
        return EMPTY_PAIRS

    la, ua = compact_ids(a)
    lb, ub = compact_ids(b)
    n_left, n_right = len(ua), len(ub)
    # "big" is the larger collection (the one whose nodes get swapped).
    swap_sides = n_left < n_right
    if swap_sides:
        big, small, n_big, n_small = lb, la, n_right, n_left
    else:
        big, small, n_big, n_small = la, lb, n_left, n_right

    # Row i of the flat buffer holds d(i, .) and then a 0.0 column:
    # partner n_small means "no partner" and contributes nothing.
    stride = n_small + 1
    buf = np.zeros(n_big * stride, dtype=np.float64)
    buf[big * stride + small] = s  # duplicate edges impossible: (v1, v2) is a key
    d = memoryview(buf)

    # Initial assignment: big node i is paired with small node i.
    partner = list(range(n_small)) + [n_small] * (n_big - n_small)
    held = [d[i * stride + p] for i, p in enumerate(partner)]  # d(i, partner[i])

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_big, size=(max_moves, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]  # i == j: a swap changes nothing
    ii, jj = idx[:, 0].tolist(), idx[:, 1].tolist()
    rows_i, rows_j = (idx[:, 0] * stride).tolist(), (idx[:, 1] * stride).tolist()
    for i, j, ri, rj in zip(ii, jj, rows_i, rows_j):
        pi, pj = partner[i], partner[j]
        if pi == pj:  # neither has a partner: a swap changes nothing
            continue
        dij, dji = d[ri + pj], d[rj + pi]
        # new - old, with old = d(i, pi) + d(j, pj); Alg. 4 line 19
        # accepts neutral swaps
        if dij + dji - (held[i] + held[j]) >= 0:
            partner[i], partner[j] = pj, pi
            held[i], held[j] = dij, dji

    out = []
    for i, p in enumerate(partner):
        if held[i] > 0:
            if swap_sides:
                out.append((int(ua[p]), int(ub[i])))
            else:
                out.append((int(ua[i]), int(ub[p])))
    return pairs_array(out)

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
"""
from __future__ import annotations

import numpy as np

from .base import EMPTY_PAIRS, as_edge_arrays, compact_ids, pairs_array


def bah(
    v1,
    v2,
    w,
    t: float,
    *,
    max_moves: int = 10_000,
    seed: int = 42,
) -> np.ndarray:
    """Random-search assignment over edges > t, seeded and bounded."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # contributions exist only for edges above threshold
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]

    la, ua = compact_ids(a)
    lb, ub = compact_ids(b)
    n_left, n_right = len(ua), len(ub)
    # "big" is the larger collection (the one whose nodes get swapped).
    swap_sides = n_left < n_right
    if swap_sides:
        big, small, n_big, n_small = lb, la, n_right, n_left
    else:
        big, small, n_big, n_small = la, lb, n_left, n_right

    d = np.zeros((n_big, n_small), dtype=np.float64)
    d[big, small] = s  # duplicate edges impossible: (v1, v2) is a key

    # Initial assignment: big node i is paired with small node i.
    partner = np.full(n_big, -1, dtype=np.int64)
    partner[:n_small] = np.arange(n_small)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_big, size=(max_moves, 2))
    for step in range(max_moves):
        i, j = int(idx[step, 0]), int(idx[step, 1])
        if i == j:
            continue
        pi, pj = partner[i], partner[j]
        old = (d[i, pi] if pi >= 0 else 0.0) + (d[j, pj] if pj >= 0 else 0.0)
        new = (d[i, pj] if pj >= 0 else 0.0) + (d[j, pi] if pi >= 0 else 0.0)
        if new - old >= 0:  # Alg. 4 line 19 accepts neutral swaps
            partner[i], partner[j] = pj, pi

    out = []
    for i in range(n_big):
        p = partner[i]
        if p >= 0 and d[i, p] > 0:
            if swap_sides:
                out.append((int(ua[p]), int(ub[i])))
            else:
                out.append((int(ua[i]), int(ub[p])))
    return pairs_array(out)

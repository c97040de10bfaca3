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
a list and weights are read through a ``memoryview`` of one flat float64
buffer. Each step does the same float arithmetic in the same order as
the textbook loop over a numpy matrix, so the output is bit-identical to
it at a fraction of its per-step cost. A step whose two nodes share a
partner value (the same node, or two nodes without partners) is skipped:
its swap would change nothing.
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

    # Row i of the flat buffer holds d(i, .) and then a 0.0 column:
    # partner n_small means "no partner" and contributes nothing.
    stride = n_small + 1
    buf = np.zeros(n_big * stride, dtype=np.float64)
    buf[big * stride + small] = s  # duplicate edges impossible: (v1, v2) is a key
    d = memoryview(buf)

    # Initial assignment: big node i is paired with small node i.
    partner = list(range(n_small)) + [n_small] * (n_big - n_small)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_big, size=(max_moves, 2))
    for i, j in zip(idx[:, 0].tolist(), idx[:, 1].tolist()):
        pi, pj = partner[i], partner[j]
        if pi == pj:  # i == j, or neither has a partner: a swap changes nothing
            continue
        ri, rj = i * stride, j * stride
        old = d[ri + pi] + d[rj + pj]
        new = d[ri + pj] + d[rj + pi]
        if new - old >= 0:  # Alg. 4 line 19 accepts neutral swaps
            partner[i], partner[j] = pj, pi

    out = []
    for i, p in enumerate(partner):
        if d[i * stride + p] > 0:
            if swap_sides:
                out.append((int(ua[p]), int(ub[i])))
            else:
                out.append((int(ua[i]), int(ub[p])))
    return pairs_array(out)

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

The move loop computes, bit for bit, what the textbook loop over a
numpy matrix computes, with far fewer Python steps:

- **Python scalars.** Partners are a list, each node's current
  contribution d(i, partner) is a list kept in step with it, and row i
  of d is read through its own ``memoryview`` slice of one flat float64
  buffer (``rows[i][pj]``); turning the buffer into a list would cost
  O(|V1| |V2|) per call. A step does the same float arithmetic in the
  same order as the textbook loop. A step whose two nodes share a
  partner value (the same node, dropped from the draws, or two nodes
  without partners) is skipped: its swap would change nothing.
- **Blocks and the rejected-move skip.** The loop runs in blocks of
  ``_BLOCK`` moves. After a block that accepted no swap, the following
  moves are tested as numpy arrays, ``_WINDOW`` at a time, against the
  frozen partner and contribution state, with the same float64
  expression in the same order, and the loop resumes at the first move
  that passes (or stops when none is left). This is exact: the state
  changes only when a move is accepted, so every move before the first
  passing one is a no-op the loop would have run. Small graphs make
  their last swap early, and a graph with one node on the larger side
  has an empty move list.

Each call draws its own move list from ``seed`` and keeps nothing
between calls, so a timed call costs what a first call costs.
"""
from __future__ import annotations

import numpy as np

from .base import EMPTY_PAIRS, PreparedGraph, compact_ids, edges_above, pairs_array

#: Moves the Python loop runs before it checks whether any swap was accepted.
_BLOCK = 256
#: Moves tested per numpy pass while skipping rejected moves.
_WINDOW = 2_048


def _first_accepted(d, partner, held, ii, jj, start: int) -> int:
    """Index of the first move from ``start`` that the loop would
    accept in the current state, or ``len(ii)`` if there is none."""
    p, h = np.array(partner), np.array(held)
    for lo in range(start, len(ii), _WINDOW):
        i, j = ii[lo : lo + _WINDOW], jj[lo : lo + _WINDOW]
        pi, pj = p[i], p[j]
        gain = (d[i, pj] + d[j, pi]) - (h[i] + h[j])  # the loop's expression
        hit = np.flatnonzero((gain >= 0) & (pi != pj))
        if len(hit):
            return lo + int(hit[0])
    return len(ii)


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
    rows = [d[r : r + stride] for r in range(0, n_big * stride, stride)]

    # Initial assignment: big node i is paired with small node i.
    partner = list(range(n_small)) + [n_small] * (n_big - n_small)
    held = [row[p] for row, p in zip(rows, partner)]  # d(i, partner[i])

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_big, size=(max_moves, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]  # i == j: a swap changes nothing
    ii, jj = idx.T
    pos, n_moves = 0, len(ii)
    while pos < n_moves:
        end = pos + _BLOCK
        moved = False
        for i, j in zip(ii[pos:end].tolist(), jj[pos:end].tolist()):
            pi, pj = partner[i], partner[j]
            if pi == pj:  # neither has a partner: a swap changes nothing
                continue
            dij, dji = rows[i][pj], rows[j][pi]
            # new - old, with old = d(i, pi) + d(j, pj); Alg. 4 line 19
            # accepts neutral swaps
            if dij + dji - (held[i] + held[j]) >= 0:
                partner[i], partner[j] = pj, pi
                held[i], held[j] = dij, dji
                moved = True
        pos = end
        if not moved:
            pos = _first_accepted(
                buf.reshape(n_big, stride), partner, held, ii, jj, pos
            )

    out = []
    for i, p in enumerate(partner):
        if held[i] > 0:
            if swap_sides:
                out.append((int(ua[p]), int(ub[i])))
            else:
                out.append((int(ua[i]), int(ub[p])))
    return pairs_array(out)

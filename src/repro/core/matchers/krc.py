"""Kiraly's Clustering (KRC) — Algorithm 7 of the paper.

Adaptation of Kiraly's linear-time 3/2-approximation to maximum stable
marriage ("New Algorithm", Kiraly 2013). Left nodes ("men") propose
along their preference lists (adjacent edges with weight > t, in
decreasing weight); right nodes ("women") accept a proposal when free
or when the proposer's edge weight is strictly higher than their
current fiance's. A rejected or deposed man returns to the free list
until his list is exhausted. The paper itself omits Kiraly's
"uncertain man" refinement, and so do we. A man's preference list is
his ``PreparedGraph`` row up to its first edge <= t, so proposals cost
O(n + m) after the O(m log m) sort.

Alg. 7 lines 27-30 give an exhausted man a second pass over his list.
It is left out because it cannot change the output: a proposal wins
only with a strictly higher weight than the woman holds, and that
weight never falls, so every repeated proposal is rejected again.
``krc_oracle`` in ``tests/matcher_oracles.py`` keeps the pass.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .base import PreparedGraph, pairs_of


def krc(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Proposal-based stable-marriage approximation over edges > t."""
    g = PreparedGraph.above(v1, v2, w, t, graph)
    men = g.left
    start, nbr, ws = men.lists
    # men with a preference above t, in ascending id (rows are never empty)
    free = deque(m for m, lo in enumerate(start[:-1]) if ws[lo] > t)
    cursor = start[:-1]  # next preference to propose to
    fiance = [-1] * len(men.other_ids)  # woman -> man
    weight_of = [0.0] * len(fiance)  # woman -> current engagement weight

    while free:
        m = free.popleft()
        k = cursor[m]
        if k < start[m + 1] and ws[k] > t:
            woman, sim = nbr[k], ws[k]
            cursor[m] = k + 1
            current = fiance[woman]
            if current < 0:
                fiance[woman] = m
                weight_of[woman] = sim
            elif sim > weight_of[woman]:  # acceptsProposal
                fiance[woman] = m
                weight_of[woman] = sim
                free.append(current)  # the deposed man is free again
            else:
                free.append(m)  # rejected: try next preference

    fiance = np.asarray(fiance, dtype=np.int64)
    women = np.flatnonzero(fiance >= 0)
    return pairs_of(men.ids[fiance[women]], men.other_ids[women])

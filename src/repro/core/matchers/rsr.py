"""Ricochet Sequential Rippling Clustering (RSR) — Algorithm 1 of the paper.

CCER adaptation of Wijaya & Bressan's sequential rippling: nodes of
both collections are visited in descending average adjacent-edge
weight; each visited seed captures its best adjacent vertex (in
decreasing similarity) that is unassigned or closer to the seed than
to its current centre. Partitions reduced to singletons by a capture
are re-assigned to their nearest single-node partition. The paper
quotes O(n m); here every node's adjacency is its ``PreparedGraph`` row
up to its first edge <= t, and both scans stop at their first hit, so
a call costs O(n log n + m) after the O(m log m) sort.

CCER validity: edges always cross sides, so a centre and its captured
vertex come from different collections; the final output keeps only
partitions with exactly one node per side (the paper counts only
two-entity partitions as predicted matches).
"""
from __future__ import annotations

import numpy as np

from .base import PreparedGraph, pairs_of


def rsr(v1, v2, w, t: float, *, graph: PreparedGraph | None = None) -> np.ndarray:
    """Sequential rippling over edges with weight > t."""
    g = PreparedGraph.above(v1, v2, w, t, graph)
    nodes = g.nodes  # left rows, then right rows
    n_left, n = len(g.left.ids), len(nodes.ids)
    start, nbr, ws = nodes.lists
    gid = nodes.ids.tolist()  # disjoint ids: left 2 * v1, right 2 * v2 + 1
    # each row's edges > t (Alg. 1 line 11) are a prefix: count them
    above = np.concatenate(([0], np.cumsum(nodes.w > t)))
    end = (nodes.indptr[:-1] + np.diff(above[nodes.indptr])).tolist()

    # Per-node mean weight, summed in row order (weight desc, then
    # neighbour id asc), and Q: nodes in decreasing mean (ties: lower id).
    active = [v for v in range(n) if end[v] > start[v]]
    avg_w = [0.0] * n
    for v in active:
        avg_w[v] = sum(ws[start[v] : end[v]]) / (end[v] - start[v])
    queue = sorted(active, key=lambda v: (-avg_w[v], gid[v]))

    slot_of = dict(zip(gid, range(n)))
    sim_with_center = [0.0] * n
    center_of = list(range(n))
    partition = [set() for _ in range(n)]
    is_center = bytearray(n)

    for vi in queue:
        # A set of global ids: its iteration order decides which of two
        # singletons competing for one partner is moved first.
        to_reassign: set[int] = set()
        for k in range(start[vi], end[vi]):
            vj = nbr[k]
            if is_center[vj]:
                continue
            sim = ws[k]
            if sim > sim_with_center[vj]:
                prev = center_of[vj]
                partition[prev].discard(vj)
                partition[vi].add(vj)
                if prev != vj:
                    to_reassign.add(gid[prev])  # prev may now be a singleton
                sim_with_center[vj] = sim
                center_of[vj] = vi
                break  # first qualifying adjacent vertex only
        if partition[vi]:
            c = center_of[vi]
            if c != vi:  # vi was a member of another partition
                partition[c].discard(vi)
                to_reassign.add(gid[c])
            is_center[vi] = 1
            partition[vi].add(vi)
            center_of[vi] = vi
            sim_with_center[vi] = 1.0
        for vk in map(slot_of.__getitem__, to_reassign):
            members = partition[vk]
            if len(members) != 1 or vk not in members:
                continue  # only centers reduced to a singleton move
            for k in range(start[vk], end[vk]):
                vl = nbr[k]
                # the row is sorted desc: the first hit is the best
                if ws[k] > 0.0 and len(partition[vl]) < 2:
                    is_center[vk] = 0
                    partition[vk] = set()  # Alg. 1 line 38
                    partition[vl].add(vk)
                    center_of[vk] = vl
                    break

    left, right = [], []
    for members in partition:
        if len(members) == 2:
            x, y = sorted(members)
            if x < n_left <= y:  # one node per side
                left.append(x)
                right.append(y - n_left)
    return pairs_of(g.left.ids[left], g.right.ids[right])

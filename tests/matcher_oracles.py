"""Test oracles: the per-edge matchers that the node loops over a
``PreparedGraph`` replaced, kept verbatim (only renamed) so that the
rewritten ``rsr``, ``rca``, ``bmc``, ``krc``, ``umc`` and ``exc`` can be
checked against them pair for pair. Each re-filters its edges and
re-sorts them with ``desc_order`` on every call. ``cnc_oracle`` is the
component search (min-label propagation with pointer jumping) that
CNC's degree check replaced.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.matchers.base import EMPTY_PAIRS, as_edge_arrays, edges_above, pairs_array


def desc_order(v1: np.ndarray, v2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Indices sorting edges by (weight desc, left id asc, right id asc)."""
    return np.lexsort((v2, v1, -w))


def umc_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Greedy max-weight 1-1 matching over edges with weight > t."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # Alg. 8 line 6: strictly greater
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]
    order = desc_order(a, b, s)
    matched_l: set[int] = set()
    matched_r: set[int] = set()
    out = []
    for i in order:
        x, y = int(a[i]), int(b[i])
        if x not in matched_l and y not in matched_r:
            out.append((x, y))
            matched_l.add(x)
            matched_r.add(y)
    return pairs_array(out)


def _best_edge_per_group(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Edge index of the first (= best, in ``order``) edge per key."""
    sorted_keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order[first]


def exc_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Match pairs that are each other's single best candidate."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # Alg. 6 line 6: strictly greater
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]
    # Stable desc-weight order with the canonical tie-break, then a
    # stable sort by group key keeps the best edge first in each group.
    base = desc_order(a, b, s)
    by_left = base[np.argsort(a[base], kind="stable")]
    by_right = base[np.argsort(b[base], kind="stable")]
    best_l = _best_edge_per_group(a, by_left)
    best_r = _best_edge_per_group(b, by_right)
    mutual = np.intersect1d(best_l, best_r)
    out = [(int(a[i]), int(b[i])) for i in mutual]
    return pairs_array(out)


def bmc_oracle(v1, v2, w, t: float, *, basis: str = "left") -> np.ndarray:
    """Greedy best-available match per basis-collection node."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # Alg. 5 line 5: edges in desc sim > t
    if not keep.any():
        return EMPTY_PAIRS
    if basis == "right":
        a, b, s = v2[keep], v1[keep], w[keep]
    elif basis == "left":
        a, b, s = v1[keep], v2[keep], w[keep]
    else:
        raise ValueError(f"basis must be 'left' or 'right', got {basis!r}")
    # Edges grouped by basis node (asc), best-first within each group.
    base = desc_order(a, b, s)
    order = base[np.argsort(a[base], kind="stable")]
    matched_other: set[int] = set()
    out = []
    current = None
    done = False
    for i in order:
        x, y = int(a[i]), int(b[i])
        if x != current:
            current, done = x, False
        if done or y in matched_other:
            continue
        out.append((x, y) if basis == "left" else (y, x))
        matched_other.add(y)
        done = True
    return pairs_array(out)


def krc_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Proposal-based stable-marriage approximation over edges > t."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]
    # Preference lists: per man, (woman, weight) in decreasing weight.
    base = desc_order(a, b, s)
    order = base[np.argsort(a[base], kind="stable")]
    prefs: dict[int, list[tuple[int, float]]] = {}
    for i in order:
        prefs.setdefault(int(a[i]), []).append((int(b[i]), float(s[i])))

    free = deque(sorted(prefs))  # insertion order = ascending man id
    cursor = {m: 0 for m in prefs}  # next preference to propose to
    last_chance = {m: False for m in prefs}
    fiance: dict[int, int] = {}  # woman -> man
    weight_of: dict[int, float] = {}  # woman -> current engagement weight

    while free:
        m = free.popleft()
        plist = prefs[m]
        if cursor[m] < len(plist):
            woman, sim = plist[cursor[m]]
            cursor[m] += 1
            current = fiance.get(woman)
            if current is None:
                fiance[woman] = m
                weight_of[woman] = sim
            elif sim > weight_of[woman]:  # acceptsProposal
                fiance[woman] = m
                weight_of[woman] = sim
                free.append(current)  # the deposed man is free again
            else:
                free.append(m)  # rejected: try next preference
        elif not last_chance[m]:
            last_chance[m] = True
            cursor[m] = 0  # recoverInitialQueue
            free.append(m)

    out = [(m, woman) for woman, m in fiance.items()]
    return pairs_array(out)


def _greedy_pass(a: np.ndarray, b: np.ndarray, s: np.ndarray):
    """One row scan: per ``a`` node (asc id), best unassigned ``b`` node.

    Returns (pairs list of (a, b, sim), total weight).
    """
    base = desc_order(a, b, s)
    order = base[np.argsort(a[base], kind="stable")]
    assigned_b: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    total = 0.0
    current = None
    done = False
    for i in order:
        x, y = int(a[i]), int(b[i])
        if x != current:
            current, done = x, False
        if done or y in assigned_b:
            continue
        pairs.append((x, y, float(s[i])))
        assigned_b.add(y)
        total += float(s[i])
        done = True
    return pairs, total


def rca_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Best of the row scan and the column scan, thresholded at t."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > 0  # assignment passes see all positive-weight edges
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]
    pairs1, d1 = _greedy_pass(a, b, s)
    pairs2, d2 = _greedy_pass(b, a, s)
    if d1 >= d2:
        chosen = pairs1
    else:
        chosen = [(y, x, sim) for (x, y, sim) in pairs2]
    out = [(x, y) for (x, y, sim) in chosen if sim >= t]
    return pairs_array(out)


def rsr_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Sequential rippling over edges with weight > t."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # Alg. 1 line 11: sim > t
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]
    # Disjoint global node space (left even, right odd) so both sides
    # share the data structures below.
    ga, gb = a * 2, b * 2 + 1

    adj: dict[int, list[tuple[float, int]]] = {}
    for x, y, sim in zip(ga, gb, s):
        adj.setdefault(int(x), []).append((float(sim), int(y)))
        adj.setdefault(int(y), []).append((float(sim), int(x)))
    for lst in adj.values():
        # decreasing similarity; ties by lower neighbour id
        lst.sort(key=lambda e: (-e[0], e[1]))

    avg_w = {v: sum(sim for sim, _ in lst) / len(lst) for v, lst in adj.items()}
    # Q: nodes in decreasing average weight (ties: lower id first).
    queue = sorted(adj, key=lambda v: (-avg_w[v], v))

    sim_with_center = {v: 0.0 for v in adj}
    center_of = {v: v for v in adj}
    partition: dict[int, set[int]] = {v: set() for v in adj}
    centers: set[int] = set()

    for vi in queue:
        to_reassign: set[int] = set()
        for sim, vj in adj[vi]:
            if vj in centers:
                continue
            if sim > sim_with_center[vj]:
                prev = center_of[vj]
                partition[prev].discard(vj)
                partition[vi].add(vj)
                if prev != vj:
                    to_reassign.add(prev)  # prev may now be a singleton
                sim_with_center[vj] = sim
                center_of[vj] = vi
                break  # first qualifying adjacent vertex only
        if partition[vi]:
            if center_of[vi] != vi:  # vi was a member of another partition
                partition[center_of[vi]].discard(vi)
                to_reassign.add(center_of[vi])
            centers.add(vi)
            partition[vi].add(vi)
            center_of[vi] = vi
            sim_with_center[vi] = 1.0
        for vk in to_reassign:
            if partition[vk] != {vk}:
                continue  # only centers reduced to a singleton move
            best_sim, best = 0.0, None
            for sim, vl in adj[vk]:
                if sim > best_sim and len(partition[vl]) < 2:
                    best_sim, best = sim, vl
                    break  # adjacency is sorted desc: first hit is best
            if best is not None:
                centers.discard(vk)
                partition[vk] = set()  # Alg. 1 line 38
                partition[best].add(vk)
                center_of[vk] = best

    out = []
    for c, members in partition.items():
        if len(members) == 2:
            left = [v for v in members if v % 2 == 0]
            right = [v for v in members if v % 2 == 1]
            if len(left) == 1 and len(right) == 1:
                out.append((int(left[0] // 2), int(right[0] // 2)))
    return pairs_array(out)


def _components(ia: np.ndarray, ib: np.ndarray, n: int) -> np.ndarray:
    """Component label (min node slot) per node slot 0..n-1."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, ia, np.minimum(labels[ia], labels[ib]))
        np.minimum.at(new, ib, np.minimum(labels[ia], labels[ib]))
        new = np.minimum(new, new[new])  # pointer jumping
        if np.array_equal(new, labels):
            return labels
        labels = new


def cnc_oracle(v1, v2, w, t: float) -> np.ndarray:
    """Match left/right nodes whose pruned component is a single edge."""
    # Alg. 2 discards edges *lower* than t
    a, b, _ = edges_above(v1, v2, w, t, closed=True)
    if not len(a):
        return EMPTY_PAIRS
    # Disjoint global node space: left ids stay even, right ids odd.
    nodes, inv = np.unique(np.concatenate([a * 2, b * 2 + 1]), return_inverse=True)
    m = len(a)
    ia, ib = inv[:m], inv[m:]
    labels = _components(ia, ib, len(nodes))
    _, counts = np.unique(labels, return_counts=True)
    size_of = np.zeros(len(nodes), dtype=np.int64)
    size_of[np.unique(labels)] = counts
    isolated = size_of[labels[ia]] == 2
    out = {(int(x), int(y)) for x, y in zip(a[isolated], b[isolated])}
    return pairs_array(list(out))


#: Paper acronym -> frozen oracle.
ORACLES = {
    "CNC": cnc_oracle,
    "RSR": rsr_oracle,
    "RCA": rca_oracle,
    "BMC": bmc_oracle,
    "EXC": exc_oracle,
    "KRC": krc_oracle,
    "UMC": umc_oracle,
}

"""Shared machinery for the reference bipartite matchers.

All eight matchers share one calling convention::

    pairs = matcher(v1, v2, w, t, graph=None)

where ``v1``/``v2`` are int64 arrays of left/right node ids, ``w`` is a
float64 array of edge weights in [0, 1], ``t`` is the similarity
threshold, and the result is an ``(k, 2)`` int64 array of matched
``(left, right)`` pairs, sorted. Matchers are pure functions of their
inputs: ties are broken deterministically by (higher weight, lower left
id, lower right id), so repeated runs produce identical output.

A ``PreparedGraph`` sorts a graph's edges once: the global
``(w desc, v1, v2)`` order, in which the edges above any threshold are
a prefix, and, built on first use, one CSR adjacency per side whose
rows are sorted by weight desc, then neighbour id asc, so that a row's
edges above any threshold are a prefix of the row too. Called with
``graph=``, a matcher reads that object and not ``v1``/``v2``/``w``;
``core.sweep`` prepares each graph once for all algorithms and
thresholds. Called without it, a matcher prepares only the edges it
reads (those above ``t``; RCA's, above 0), and CNC and BAH, which need
no order, only filter them.

These kernels are exact implementations of the paper's Algorithms 1-8
and run either inside Spark tasks (the threshold sweep of
``experiments.runner``) or on the driver (``core.spark_match`` applies
them to a request's whole edge list, collected as one Arrow table).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

#: Output of every matcher: (k, 2) int64 array of (left, right) pairs.
EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def as_edge_arrays(v1, v2, w):
    """Coerce edge columns to the canonical numpy dtypes."""
    return (
        np.asarray(v1, dtype=np.int64),
        np.asarray(v2, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


def pairs_array(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Convert a python list of (left, right) tuples to the output array."""
    if not pairs:
        return EMPTY_PAIRS
    return np.asarray(sorted(pairs), dtype=np.int64)


class UnionFind:
    """Array-backed union-find over ``n`` contiguous node slots."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:  # path compression
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller root wins
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


class PairKeys:
    """One int64 key per ``(a, b)`` pair, ordered like the pairs.

    Valid for every ``b`` within the range of the ``b`` the keys are
    built from; ids may be negative.
    """

    def __init__(self, b: np.ndarray):
        self.lo = int(b.min(initial=0))
        self.span = int(b.max(initial=0)) - self.lo + 1

    def encode(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * self.span + (b - self.lo)

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.divmod(keys, self.span)
        return a, b + self.lo


def compact_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary int64 ids to 0..k-1. Returns (compacted, uniques)."""
    uniques, inv = np.unique(ids, return_inverse=True)
    return inv.astype(np.int64), uniques


def edges_above(v1, v2, w, t: float, graph=None, *, closed: bool = False):
    """The edges with weight > t (>= t if ``closed``) as (v1, v2, w).

    With ``graph`` they are a prefix of its order, found by bisection.
    """
    if graph is not None:
        n = graph.n_above(t, closed=closed)
        return graph.v1[:n], graph.v2[:n], graph.w[:n]
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w >= t if closed else w > t
    return v1[keep], v2[keep], w[keep]


def pairs_of(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left, right) id arrays as the sorted output array."""
    order = np.lexsort((right, left))
    return np.column_stack((left[order], right[order]))


class Rows:
    """One side's CSR adjacency over a ``PreparedGraph``.

    Row ``r`` is node ``ids[r]`` (ascending ids); its entries
    ``indptr[r]:indptr[r + 1]`` hold the row of each neighbour on the
    other side (``nbr``, into ``other_ids``) and the edge weight ``w``,
    sorted by weight desc, then neighbour id asc.
    """

    def __init__(self, ids, indptr, nbr, w, other_ids):
        self.ids, self.indptr, self.nbr, self.w = ids, indptr, nbr, w
        self.other_ids = other_ids

    @classmethod
    def of_side(cls, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> "Rows":
        """Rows of the ``a`` nodes, from edges in ``(w desc, v1, v2)`` order.

        A stable sort by ``a`` keeps that order within a row: weight
        desc, then ``b`` asc (for the right side, ``v1`` breaks ties).
        """
        order = np.argsort(a, kind="stable")
        ids, first = np.unique(a[order], return_index=True)
        other_ids, nbr = np.unique(b, return_inverse=True)
        return cls(ids, np.append(first, len(a)), nbr[order], w[order], other_ids)

    @cached_property
    def lists(self) -> tuple[list[int], list[int], list[float]]:
        """``indptr``, ``nbr`` and ``w`` as Python lists, for the node loops."""
        return self.indptr.tolist(), self.nbr.tolist(), self.w.tolist()

    def first_free(self, t: float) -> list[int]:
        """Row scan: per row in ascending id, the first entry above t whose
        neighbour no earlier row took (Alg. 3's scan and Alg. 5).

        Each row stops at its first entry with weight <= t or at its
        first free neighbour, and the scan stops once no neighbour is
        free. Returns the chosen entries, in row order.
        """
        start, nbr, ws = self.lists
        n_free = len(self.other_ids)
        taken = bytearray(n_free)
        chosen = []
        for lo, hi in zip(start, start[1:]):
            for k in range(lo, hi):
                if ws[k] <= t:
                    break
                if not taken[nbr[k]]:
                    taken[nbr[k]] = 1
                    chosen.append(k)
                    n_free -= 1
                    break
            if not n_free:
                break
        return chosen

    def ends(self, entries) -> tuple[np.ndarray, np.ndarray]:
        """(row node id, neighbour id) of each entry."""
        k = np.asarray(entries, dtype=np.int64)
        row = np.searchsorted(self.indptr, k, side="right") - 1
        return self.ids[row], self.other_ids[self.nbr[k]]


class PreparedGraph:
    """A graph's edges sorted once, shared by every matcher and threshold.

    ``v1``, ``v2``, ``w`` hold the edges in ``(w desc, v1 asc, v2 asc)``
    order, the tie-break every matcher uses; the edges above any t are a
    prefix of it. ``left`` and ``right`` are each side's ``Rows``, built
    on first use. Sorting costs one 3-key ``lexsort``, and each side one
    stable ``argsort``.
    """

    def __init__(self, v1, v2, w):
        v1, v2, w = as_edge_arrays(v1, v2, w)
        order = np.lexsort((v2, v1, -w))
        self.v1, self.v2, self.w = v1[order], v2[order], w[order]
        self._neg_w = -self.w  # ascending, for bisection

    @classmethod
    def above(cls, v1, v2, w, t: float, graph=None) -> "PreparedGraph":
        """``graph`` if given, else the edges with weight > t, prepared."""
        return graph if graph is not None else cls(*edges_above(v1, v2, w, t))

    def n_above(self, t: float, *, closed: bool = False) -> int:
        """How many edges weigh > t (>= t if ``closed``): a prefix length."""
        return int(np.searchsorted(self._neg_w, -t, side="right" if closed else "left"))

    @cached_property
    def left(self) -> Rows:
        return Rows.of_side(self.v1, self.v2, self.w)

    @cached_property
    def right(self) -> Rows:
        return Rows.of_side(self.v2, self.v1, self.w)

    @cached_property
    def nodes(self) -> Rows:
        """Both sides as one ``Rows``: the left rows, then the right rows.

        ``ids`` (and ``other_ids``) are the disjoint node ids 2 * v1 and
        2 * v2 + 1, and ``nbr`` indexes these same rows.
        """
        left, right = self.left, self.right
        ids = np.concatenate((left.ids * 2, right.ids * 2 + 1))
        return Rows(
            ids,
            np.concatenate((left.indptr, right.indptr[1:] + left.indptr[-1])),
            np.concatenate((left.nbr + len(left.ids), right.nbr)),
            np.concatenate((left.w, right.w)),
            ids,
        )

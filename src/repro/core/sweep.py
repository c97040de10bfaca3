"""Threshold-sweep protocol of the paper (Sec. 5, "Generation Process").

For every (similarity graph, algorithm) pair the similarity threshold
is varied from 0.05 to 1.0 with a step of 0.05; the *largest* threshold
achieving the highest F-Measure is selected as optimal and determines
the algorithm's reported performance on that input. BMC additionally
tries both node collections as basis and retains the better one
(paper, Sec. 3); BAH runs with the paper's 10,000 search steps, seeded.

Each graph is prepared once (``matchers.base.PreparedGraph``: its edges
sorted by weight desc, and per-side adjacency rows), and every matcher
call of the sweep reads that object through ``graph=``. UMC, EXC and
RCA then run once per graph, at the grid's smallest threshold: their
pairs at a larger t are those pairs whose edge weighs > t (UMC, EXC:
their choices among the edges > t never look at a lighter edge) or
>= t (RCA: Alg. 3's two scans ignore t, which only drops the chosen
pairs below it). The others run at every threshold, except that a
threshold reuses the previous one's P/R/F1 when no edge weight lies in
[previous t, t]: every algorithm then sees the same edges at both,
whether it keeps those > t or, like CNC, those >= t.

Run-time is measured as the time between receiving the weighted graph
and returning the partitions (paper, Sec. 5), averaged over
``timing_reps`` repeated executions at the optimal threshold.
"""
from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from .matchers import ALGORITHM_ORDER, ALGORITHMS
from .matchers.base import PairKeys, PreparedGraph, as_edge_arrays
from .metrics import prf_from_arrays

#: The paper's threshold grid: 0.05 .. 1.00, step 0.05.
THRESHOLDS = tuple(np.round(np.arange(1, 21) * 0.05, 2))


def _best_over_thresholds(
    run: Callable[[float], np.ndarray],
    truth: set[tuple[int, int]],
    thresholds: list[float],
    graph: PreparedGraph,
) -> tuple[float, object]:
    """Largest threshold achieving the max F1 (paper's selection rule).

    ``thresholds`` must be ascending: ties are resolved toward larger t.
    A threshold with none of ``graph``'s weights in [previous t, t] keeps
    the previous one's edges, both those > t and those >= t, and so its
    P/R/F1.
    """
    best_t, best, prf = None, None, None
    for prev, t in zip([None, *thresholds], thresholds):
        if prev is None or graph.n_above(prev, closed=True) > graph.n_above(t):
            prf = prf_from_arrays(run(t), truth)
        if best is None or prf.f1 >= best.f1:
            best_t, best = t, prf
    return best_t, best


#: Algorithms nested over thresholds -> whether their pairs at t are the
#: pairs at a smaller t weighing >= t (True) or > t (False).
_NESTED = {"RCA": True, "EXC": False, "UMC": False}


def _nested_over_thresholds(
    pairs: np.ndarray, graph: PreparedGraph, closed: bool
) -> Callable[[float], np.ndarray]:
    """A nested algorithm's pairs at any t >= the t of ``pairs``.

    The chosen edges keep ``graph``'s weight-desc order, so the pairs
    at t are a prefix of them.
    """
    keys = PairKeys(graph.v2)
    chosen = np.isin(
        keys.encode(graph.v1, graph.v2), keys.encode(pairs[:, 0], pairs[:, 1])
    )
    ab = np.column_stack((graph.v1[chosen], graph.v2[chosen]))
    neg_w = -graph.w[chosen]  # ascending
    side = "right" if closed else "left"
    return lambda t: ab[: np.searchsorted(neg_w, -t, side=side)]


def sweep_graph(
    v1: np.ndarray,
    v2: np.ndarray,
    w: np.ndarray,
    truth: set[tuple[int, int]],
    *,
    algorithms: Iterable[str] = ALGORITHM_ORDER,
    thresholds: Iterable[float] = THRESHOLDS,
    timing_reps: int = 3,
    bah_max_moves: int = 10_000,
    seed: int = 42,
) -> list[dict]:
    """Sweep one similarity graph; one result row per algorithm.

    Each row carries the optimal threshold, P/R/F1 at that threshold,
    the algorithm parameters used, and the mean matcher run-time (ms).
    """
    v1, v2, w = as_edge_arrays(v1, v2, w)
    thresholds = sorted(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("sweep_graph needs at least one threshold; the grid is empty")
    graph = PreparedGraph(v1, v2, w)

    def best_of(run):
        return _best_over_thresholds(run, truth, thresholds, graph)

    rows = []
    for algo in algorithms:
        matcher = ALGORITHMS[algo]
        if algo == "BMC":
            # try both bases, retain the best (paper Sec. 3)
            candidates = []
            for basis in ("left", "right"):
                t_star, prf = best_of(
                    lambda t, _b=basis: matcher(v1, v2, w, t, basis=_b, graph=graph)
                )
                candidates.append((prf.f1, basis, t_star, prf))
            _, basis, t_star, prf = max(candidates, key=lambda c: c[0])
            params = {"basis": basis}
        else:
            params = (
                {"max_moves": bah_max_moves, "seed": seed} if algo == "BAH" else {}
            )
            if algo in _NESTED:
                pairs = matcher(v1, v2, w, thresholds[0], graph=graph)
                run = _nested_over_thresholds(pairs, graph, _NESTED[algo])
            else:
                run = lambda t: matcher(v1, v2, w, t, graph=graph, **params)  # noqa: E731
            t_star, prf = best_of(run)
        # timed as a request: the public call prepares its own edges
        timed = lambda: matcher(v1, v2, w, t_star, **params)  # noqa: E731

        elapsed = []
        for _ in range(max(1, timing_reps)):
            t0 = time.perf_counter()
            timed()
            elapsed.append((time.perf_counter() - t0) * 1000.0)
        rows.append(
            {
                "algorithm": algo,
                "best_t": t_star,
                "precision": prf.precision,
                "recall": prf.recall,
                "f1": prf.f1,
                "n_predicted": prf.n_predicted,
                "n_correct": prf.n_correct,
                "runtime_ms": float(np.mean(elapsed)),
                "params": params,
            }
        )
    return rows

"""Threshold-sweep protocol of the paper (Sec. 5, "Generation Process").

For every (similarity graph, algorithm) pair the similarity threshold
is varied from 0.05 to 1.0 with a step of 0.05; the *largest* threshold
achieving the highest F-Measure is selected as optimal and determines
the algorithm's reported performance on that input. BMC additionally
tries both node collections as basis and retains the better one
(paper, Sec. 3); BAH runs with the paper's 10,000 search steps, seeded.

Run-time is measured as the time between receiving the weighted graph
and returning the partitions (paper, Sec. 5), averaged over
``timing_reps`` repeated executions at the optimal threshold.
"""
from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from .matchers import ALGORITHM_ORDER, ALGORITHMS
from .metrics import prf_from_arrays

#: The paper's threshold grid: 0.05 .. 1.00, step 0.05.
THRESHOLDS = tuple(np.round(np.arange(1, 21) * 0.05, 2))


def _best_over_thresholds(
    run: Callable[[float], np.ndarray],
    truth: set[tuple[int, int]],
    thresholds: Iterable[float],
) -> tuple[float, object]:
    """Largest threshold achieving the max F1 (paper's selection rule)."""
    best_t, best = None, None
    for t in thresholds:  # ascending; ties resolved toward larger t
        prf = prf_from_arrays(run(float(t)), truth)
        if best is None or prf.f1 >= best.f1:
            best_t, best = float(t), prf
    return best_t, best


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
    v1 = np.asarray(v1, dtype=np.int64)
    v2 = np.asarray(v2, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    thresholds = [float(t) for t in thresholds]
    rows = []
    for algo in algorithms:
        matcher = ALGORITHMS[algo]
        if algo == "BMC":
            # try both bases, retain the best (paper Sec. 3)
            candidates = []
            for basis in ("left", "right"):
                t_star, prf = _best_over_thresholds(
                    lambda t, _b=basis: matcher(v1, v2, w, t, basis=_b),
                    truth,
                    thresholds,
                )
                candidates.append((prf.f1, basis, t_star, prf))
            _, basis, t_star, prf = max(candidates, key=lambda c: c[0])
            params = {"basis": basis}
            timed = lambda: matcher(v1, v2, w, t_star, basis=basis)  # noqa: E731
        elif algo == "BAH":
            params = {"max_moves": bah_max_moves, "seed": seed}
            t_star, prf = _best_over_thresholds(
                lambda t: matcher(v1, v2, w, t, **params), truth, thresholds
            )
            timed = lambda: matcher(v1, v2, w, t_star, **params)  # noqa: E731
        else:
            params = {}
            t_star, prf = _best_over_thresholds(
                lambda t: matcher(v1, v2, w, t), truth, thresholds
            )
            timed = lambda: matcher(v1, v2, w, t_star)  # noqa: E731

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

"""Effectiveness measures of the paper (Sec. 5, "Evaluation Measures").

Precision  = |predicted 2-node partitions that are true matches| / |predicted|
Recall     = |true matches found| / |ground-truth matches|
F-Measure  = harmonic mean of the two.

Computed in-process from pair sets or a matcher's output array; the
sweep tasks and the tables use these.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 triple."""

    precision: float
    recall: float
    f1: float
    n_predicted: int
    n_true: int
    n_correct: int


def prf_from_sets(predicted: set[tuple[int, int]], truth: set[tuple[int, int]]) -> PRF:
    """Compute P/R/F1 from pair sets."""
    correct = len(predicted & truth)
    p = correct / len(predicted) if predicted else 0.0
    r = correct / len(truth) if truth else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
    return PRF(p, r, f1, len(predicted), len(truth), correct)


def prf_from_arrays(pairs: np.ndarray, truth: set[tuple[int, int]]) -> PRF:
    """P/R/F1 for a matcher's (k, 2) output array."""
    predicted = {(int(a), int(b)) for a, b in pairs}
    return prf_from_sets(predicted, truth)


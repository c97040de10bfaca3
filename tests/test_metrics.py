"""Effectiveness measures: pair sets and matcher output arrays."""
import numpy as np
import pytest

from repro.core.metrics import prf_from_arrays, prf_from_sets


class TestPRFSets:
    def test_perfect(self):
        p = {(1, 1), (2, 2)}
        r = prf_from_sets(p, p)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_half_precision(self):
        r = prf_from_sets({(1, 1), (2, 3)}, {(1, 1), (2, 2)})
        assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5

    def test_empty_prediction(self):
        r = prf_from_sets(set(), {(1, 1)})
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0

    def test_empty_truth(self):
        r = prf_from_sets({(1, 1)}, set())
        assert r.recall == 0.0 and r.f1 == 0.0

    def test_f1_harmonic_mean(self):
        r = prf_from_sets({(1, 1), (2, 3), (4, 5), (6, 7)}, {(1, 1), (9, 9)})
        # p = 1/4, r = 1/2 -> f1 = 2pr/(p+r) = 1/3
        assert r.f1 == pytest.approx(1 / 3)

    def test_counts(self):
        r = prf_from_sets({(1, 1), (2, 3)}, {(1, 1)})
        assert (r.n_predicted, r.n_true, r.n_correct) == (2, 1, 1)


class TestPRFArrays:
    def test_matches_set_version(self):
        pairs = np.array([[1, 1], [2, 3]])
        r = prf_from_arrays(pairs, {(1, 1), (2, 2)})
        assert r.precision == 0.5 and r.recall == 0.5


"""Threshold-sweep protocol: optimality rule, BMC basis selection,
BAH parameters, timing fields, RCA's one call per graph."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import ALGORITHM_ORDER, rca
from repro.core.metrics import prf_from_arrays
from repro.core.sweep import THRESHOLDS, sweep_graph


def simple_graph():
    # two true matches at high weight, noise edges at low weight
    v1 = np.array([1, 2, 1, 2, 3])
    v2 = np.array([1, 2, 2, 1, 1])
    w = np.array([0.9, 0.85, 0.3, 0.2, 0.25])
    truth = {(1, 1), (2, 2)}
    return v1, v2, w, truth


class TestThresholdGrid:
    def test_paper_grid(self):
        assert THRESHOLDS[0] == 0.05
        assert THRESHOLDS[-1] == 1.0
        assert len(THRESHOLDS) == 20
        assert np.allclose(np.diff(THRESHOLDS), 0.05)


class TestSweepGraph:
    def test_one_row_per_algorithm(self):
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(v1, v2, w, truth, timing_reps=1)
        assert [r["algorithm"] for r in rows] == ALGORITHM_ORDER

    def test_perfect_graph_perfect_f1(self):
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(v1, v2, w, truth, timing_reps=1)
        for r in rows:
            assert r["f1"] == 1.0, r["algorithm"]

    def test_largest_optimal_threshold_selected(self):
        """Paper: the *largest* threshold with max F1 wins."""
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(v1, v2, w, truth, algorithms=["UMC"], timing_reps=1)
        # UMC achieves F1=1 for every t < 0.85; largest such grid point
        # strictly below the lowest true-match weight 0.85 is 0.80
        assert rows[0]["best_t"] == pytest.approx(0.80)

    def test_runtime_positive(self):
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(v1, v2, w, truth, timing_reps=2)
        for r in rows:
            assert r["runtime_ms"] > 0

    def test_bmc_reports_chosen_basis(self):
        v1, v2, w, truth = simple_graph()
        (row,) = sweep_graph(v1, v2, w, truth, algorithms=["BMC"], timing_reps=1)
        assert row["params"]["basis"] in ("left", "right")

    def test_bmc_picks_better_basis(self):
        # with basis=left, A1 steals B1 (0.6 < A2's 0.9) and F1 drops;
        # basis=right recovers the truth
        v1 = np.array([1, 2, 1])
        v2 = np.array([1, 1, 2])
        w = np.array([0.6, 0.9, 0.5])
        truth = {(2, 1), (1, 2)}
        (row,) = sweep_graph(v1, v2, w, truth, algorithms=["BMC"], timing_reps=1)
        assert row["f1"] == 1.0
        assert row["params"]["basis"] == "right"

    def test_bah_params_recorded(self):
        v1, v2, w, truth = simple_graph()
        (row,) = sweep_graph(
            v1, v2, w, truth, algorithms=["BAH"], timing_reps=1,
            bah_max_moves=123, seed=9,
        )
        assert row["params"]["max_moves"] == 123
        assert row["params"]["seed"] == 9

    def test_counts_consistent(self):
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(v1, v2, w, truth, algorithms=["UMC"], timing_reps=1)
        r = rows[0]
        assert r["n_correct"] <= r["n_predicted"]
        assert r["precision"] == pytest.approx(r["n_correct"] / r["n_predicted"])

    def test_custom_threshold_grid(self):
        v1, v2, w, truth = simple_graph()
        rows = sweep_graph(
            v1, v2, w, truth, algorithms=["UMC"], thresholds=[0.5], timing_reps=1
        )
        assert rows[0]["best_t"] == 0.5

    def test_unsorted_grid_picks_largest_optimal_threshold(self):
        """The selection rule does not depend on the grid's order."""
        v1, v2, w, truth = simple_graph()
        for grid in ([0.8, 0.5], [0.5, 0.8]):
            (row,) = sweep_graph(
                v1, v2, w, truth, algorithms=["UMC"], thresholds=grid, timing_reps=1
            )
            assert row["best_t"] == 0.8, grid


@st.composite
def multi_component_graphs(draw):
    """Disjoint random blocks with weights drawn from the threshold grid,
    so that RCA's ``>= t`` boundary is hit, and a random ground truth."""
    v1, v2, w = [], [], []
    left = right = 0
    for _ in range(draw(st.integers(1, 5))):
        n_l, n_r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        cells = [(a, b) for a in range(n_l) for b in range(n_r)]
        for a, b in draw(st.lists(st.sampled_from(cells), min_size=1, unique=True)):
            v1.append(left + a)
            v2.append(right + b)
            w.append(draw(st.sampled_from(THRESHOLDS)))
        left, right = left + n_l, right + n_r
    truth = {
        (a, b) for a, b in zip(v1, v2) if draw(st.booleans())
    } or {(v1[0], v2[0])}
    grid = draw(
        st.lists(st.sampled_from(THRESHOLDS), min_size=1, max_size=20, unique=True)
    )
    return np.array(v1), np.array(v2), np.array(w, dtype=np.float64), truth, grid


@given(g=multi_component_graphs())
@settings(max_examples=80, deadline=None)
def test_rca_sweep_equals_brute_force(g):
    """One RCA call per graph gives the same row as calling RCA at every t."""
    v1, v2, w, truth, grid = g
    (row,) = sweep_graph(v1, v2, w, truth, algorithms=["RCA"], thresholds=grid, timing_reps=1)
    best_t, best = None, None
    for t in sorted(grid):
        prf = prf_from_arrays(rca(v1, v2, w, t), truth)
        if best is None or prf.f1 >= best.f1:
            best_t, best = t, prf
    assert row["best_t"] == best_t
    assert (row["precision"], row["recall"], row["f1"]) == (best.precision, best.recall, best.f1)
    assert (row["n_predicted"], row["n_correct"]) == (best.n_predicted, best.n_correct)

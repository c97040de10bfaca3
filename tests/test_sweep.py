"""Threshold-sweep protocol: optimality rule, BMC basis selection,
BAH parameters, timing fields, one UMC/EXC/RCA call per graph, the
reuse of unchanged thresholds, and matcher calls through the registry."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep as sweep_mod
from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.matchers.base import PreparedGraph
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


    def test_empty_grid_raises(self):
        v1, v2, w, truth = simple_graph()
        for algo in ALGORITHM_ORDER:
            with pytest.raises(ValueError, match="grid is empty"):
                sweep_graph(v1, v2, w, truth, algorithms=[algo], thresholds=[])


def brute_force(algo, v1, v2, w, truth, grid, **params):
    """(best t, P/R/F1) with the public matcher called afresh at every t."""
    best_t, best = None, None
    for t in sorted(grid):
        prf = prf_from_arrays(ALGORITHMS[algo](v1, v2, w, t, **params), truth)
        if best is None or prf.f1 >= best.f1:
            best_t, best = t, prf
    return best_t, best


def assert_row_is(row, best_t, best):
    assert row["best_t"] == best_t
    assert (row["precision"], row["recall"], row["f1"]) == (best.precision, best.recall, best.f1)
    assert (row["n_predicted"], row["n_correct"]) == (best.n_predicted, best.n_correct)


@st.composite
def multi_component_graphs(draw, unique_grid=True):
    """Disjoint random blocks with weights drawn from the threshold grid,
    so that the ``> t`` and ``>= t`` boundaries are hit, and a random
    ground truth; with ``unique_grid=False`` the grid may repeat values.
    Each side's ids start at a drawn, possibly negative, id."""
    v1, v2, w = [], [], []
    left, right = draw(st.integers(-8, 4)), draw(st.integers(-8, 4))
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
        st.lists(st.sampled_from(THRESHOLDS), min_size=1, max_size=20, unique=unique_grid)
    )
    return np.array(v1), np.array(v2), np.array(w, dtype=np.float64), truth, grid


@given(g=multi_component_graphs())
@settings(max_examples=80, deadline=None)
def test_rca_sweep_equals_brute_force(g):
    """One RCA, UMC or EXC call per graph gives the same row as calling the
    algorithm at every t."""
    v1, v2, w, truth, grid = g
    nested = ["RCA", "UMC", "EXC"]
    rows = sweep_graph(v1, v2, w, truth, algorithms=nested, thresholds=grid, timing_reps=1)
    for algo, row in zip(nested, rows):
        assert_row_is(row, *brute_force(algo, v1, v2, w, truth, grid))


@given(g=multi_component_graphs(unique_grid=False))
@settings(max_examples=60, deadline=None)
def test_reused_thresholds_equal_brute_force(g):
    """Weights on grid values and repeated grid values: a threshold reuses
    the previous result only when both keep the same edges, for the
    algorithms keeping edges > t and for CNC, which keeps those >= t."""
    v1, v2, w, truth, grid = g
    rows = sweep_graph(v1, v2, w, truth, thresholds=grid, timing_reps=1, bah_max_moves=300)
    for algo, row in zip(ALGORITHM_ORDER, rows):
        if algo == "BMC":
            candidates = [
                (*brute_force(algo, v1, v2, w, truth, grid, basis=b), b)
                for b in ("left", "right")
            ]
            best_t, best, basis = max(candidates, key=lambda c: c[1].f1)
            assert row["params"] == {"basis": basis}
        else:
            params = {"max_moves": 300, "seed": 42} if algo == "BAH" else {}
            best_t, best = brute_force(algo, v1, v2, w, truth, grid, **params)
        assert_row_is(row, best_t, best)


def test_every_matcher_call_goes_through_the_registry(monkeypatch):
    """The sweep calls each matcher through ``core.sweep.ALGORITHMS``: with
    the prepared graph once per changed threshold (once per graph for
    UMC, EXC and RCA), and then ``timing_reps`` times without it."""
    calls = {a: [] for a in ALGORITHM_ORDER}

    def counted(name, fn):
        def call(v1, v2, w, t, **params):
            calls[name].append(params.get("graph"))
            return fn(v1, v2, w, t, **params)

        return call

    monkeypatch.setattr(
        sweep_mod, "ALGORITHMS", {a: counted(a, fn) for a, fn in ALGORITHMS.items()}
    )
    v1, v2, w, truth = simple_graph()
    reps = 2
    rows = sweep_graph(v1, v2, w, truth, timing_reps=reps)
    grid = sorted(THRESHOLDS)
    changed = sum(
        1 for i, t in enumerate(grid) if i == 0 or any(grid[i - 1] <= x <= t for x in w)
    )
    assert changed == 8
    for algo in ALGORITHM_ORDER:
        per_t = 1 if algo in ("UMC", "EXC", "RCA") else changed * (2 if algo == "BMC" else 1)
        got = calls[algo]
        assert len(got) == per_t + reps, algo
        assert all(isinstance(g, PreparedGraph) for g in got[:per_t]), algo
        assert got[per_t:] == [None] * reps, algo
    # one prepared graph for every algorithm
    assert len({id(g) for got in calls.values() for g in got if g is not None}) == 1
    for row in rows:
        json.dumps(row["params"])  # run_sweep stores params as JSON
        assert not any(isinstance(v, PreparedGraph) for v in row["params"].values())

"""The rewritten matchers return exactly the pairs of the frozen per-edge
oracles in ``tests/matcher_oracles.py``: through the public call and
through ``graph=`` with the whole graph prepared, on random, all-tied,
few-level-tied, chain and many-component graphs, at grid thresholds and
at thresholds equal to an edge weight, for both BMC bases."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.matchers import ALGORITHMS
from repro.core.matchers.base import PreparedGraph
from repro.core.sweep import THRESHOLDS

from .matcher_oracles import ORACLES

#: (algorithm, params) for every rewritten matcher; BMC with both bases.
VARIANTS = [
    ("CNC", {}), ("RSR", {}), ("RCA", {}),
    ("BMC", {"basis": "left"}), ("BMC", {"basis": "right"}),
    ("KRC", {}), ("UMC", {}), ("EXC", {}),
]


def _weights(draw, kind: str, k: int) -> list[float]:
    if kind == "tied":
        return [draw(st.sampled_from(THRESHOLDS))] * k
    if kind == "levels":
        levels = draw(st.lists(st.sampled_from((0.0,) + THRESHOLDS), min_size=2, max_size=3))
        return draw(st.lists(st.sampled_from(levels), min_size=k, max_size=k))
    return draw(
        st.lists(
            st.one_of(st.sampled_from(THRESHOLDS), st.integers(0, 1000).map(lambda x: x / 1000)),
            min_size=k,
            max_size=k,
        )
    )


@st.composite
def graphs(draw):
    """(v1, v2, w, thresholds) of one of five shapes.

    Left and right ids are offset differently, so that RSR's tie-break
    on the disjoint ids (left 2 v1, right 2 v2 + 1) mixes the sides.
    """
    kind = draw(st.sampled_from(["random", "tied", "levels", "chain", "components"]))
    if kind == "chain":  # l0-r0-l1-r1-...: one long path
        n = draw(st.integers(1, 25))
        cells = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
        weight_kind = draw(st.sampled_from(["random", "tied", "levels"]))
    elif kind == "components":
        cells, left, right = [], 0, 0
        for _ in range(draw(st.integers(2, 8))):
            n_l, n_r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            block = [(left + a, right + b) for a in range(n_l) for b in range(n_r)]
            cells += draw(st.lists(st.sampled_from(block), min_size=1, unique=True))
            left, right = left + n_l, right + n_r
        weight_kind = "random"
    else:
        n_l, n_r = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        block = [(a, b) for a in range(n_l) for b in range(n_r)]
        cells = draw(st.lists(st.sampled_from(block), min_size=1, max_size=30, unique=True))
        weight_kind = kind
    w = _weights(draw, weight_kind, len(cells))
    off_l, off_r = draw(st.sampled_from([(0, 0), (9, 0), (0, 9), (100, 3)]))
    v1 = np.array([a + off_l for a, _ in cells], dtype=np.int64)
    v2 = np.array([b + off_r for _, b in cells], dtype=np.int64)
    ts = draw(
        st.lists(
            st.one_of(st.sampled_from((0.0,) + THRESHOLDS), st.sampled_from(w)),
            min_size=1,
            max_size=4,
        )
    )
    return v1, v2, np.array(w, dtype=np.float64), ts


def _case(v1, v2, w, t):
    return np.array(v1), np.array(v2), np.array(w), [t]


@given(g=graphs())
# KRC: a rejected man must not propose along an edge weighing exactly t
@example(g=_case([2, 5, 2, 3], [1, 4, 4, 1], [0.95, 0.25, 0.25, 1.0], 0.25))
# RSR: per-node means differ by one ulp if taken as cumsum differences
@example(g=_case([9, 3, 6], [3, 2, 2], [0.65, 0.55, 0.55], 0.3))
# RSR: two reassigned singletons whose order decides the output
@example(
    g=_case([9, 12, 3, 6, 12, 3], [1, 1, 1, 0, 0, 0], [0.4, 0.55, 0.55, 0.7, 0.4, 0.55], 0.0)
)
@settings(max_examples=250, deadline=None)
def test_matchers_equal_frozen_oracles(g):
    v1, v2, w, ts = g
    whole = PreparedGraph(v1, v2, w)
    for t in ts:
        for algo, params in VARIANTS:
            want = ORACLES[algo](v1, v2, w, t, **params)
            public = ALGORITHMS[algo](v1, v2, w, t, **params)
            prepared = ALGORITHMS[algo](v1, v2, w, t, graph=whole, **params)
            assert public.tolist() == want.tolist(), (algo, params, t)
            assert prepared.tolist() == want.tolist(), (algo, params, t, "graph=")


@pytest.mark.parametrize("algo", sorted({a for a, _ in VARIANTS}))
def test_empty_output_shape(algo):
    v1, v2, w = np.array([1]), np.array([2]), np.array([0.3])
    out = ALGORITHMS[algo](v1, v2, w, 0.9, graph=PreparedGraph(v1, v2, w))
    assert out.shape == (0, 2) and out.dtype == np.int64


@given(
    edges=st.lists(
        st.tuples(st.integers(-3, 4), st.integers(-3, 4), st.sampled_from((0.2, 0.5, 0.9))),
        min_size=1,
        max_size=20,
    ),
    t=st.sampled_from((0.0, 0.5, 0.9)),
)
@settings(max_examples=200, deadline=None)
def test_cnc_with_repeated_edges_and_negative_ids_equals_oracle(edges, t):
    """CNC counts a repeated (v1, v2) edge once, as the component search did."""
    v1, v2, w = (np.array(c) for c in zip(*edges))
    want = ORACLES["CNC"](v1, v2, w, t).tolist()
    assert ALGORITHMS["CNC"](v1, v2, w, t).tolist() == want
    assert ALGORITHMS["CNC"](v1, v2, w, t, graph=PreparedGraph(v1, v2, w)).tolist() == want

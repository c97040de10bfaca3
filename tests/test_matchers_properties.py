"""Hypothesis property tests: every matcher emits a valid 1-1 matching
over existing edges; algorithm-specific invariants (UMC = sequential
greedy, EXC subset of mutual-best, CNC isolated edges, RCA/BAH at
least threshold-weight pairs; BAH equal to its numpy-scalar loop)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS, cnc, exc, umc
from repro.core.matchers.base import EMPTY_PAIRS, as_edge_arrays, compact_ids, pairs_array


@st.composite
def bipartite_graphs(draw):
    """Random bipartite edge lists with distinct weights."""
    n_left = draw(st.integers(1, 12))
    n_right = draw(st.integers(1, 12))
    possible = [(a, b) for a in range(n_left) for b in range(n_right)]
    k = draw(st.integers(1, min(40, len(possible))))
    idx = draw(
        st.lists(
            st.integers(0, len(possible) - 1), min_size=k, max_size=k, unique=True
        )
    )
    edges = [possible[i] for i in idx]
    # distinct weights make greedy equivalences exact
    ws = draw(
        st.lists(
            st.integers(1, 10_000), min_size=k, max_size=k, unique=True
        )
    )
    v1 = np.array([a for a, _ in edges], dtype=np.int64)
    v2 = np.array([b for _, b in edges], dtype=np.int64)
    w = np.array(ws, dtype=np.float64) / 10_000.0
    t = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7]))
    return v1, v2, w, t


def greedy_reference(v1, v2, w, t):
    """Sequential greedy matching (UMC's definition) as a plain loop."""
    order = sorted(range(len(w)), key=lambda i: (-w[i], v1[i], v2[i]))
    ml, mr, out = set(), set(), set()
    for i in order:
        if w[i] <= t:
            continue
        if v1[i] not in ml and v2[i] not in mr:
            out.add((int(v1[i]), int(v2[i])))
            ml.add(v1[i])
            mr.add(v2[i])
    return out


@pytest.mark.parametrize("algo", ALGORITHM_ORDER)
@given(g=bipartite_graphs())
@settings(max_examples=30, deadline=None)
def test_valid_matching_over_graph_edges(algo, g):
    v1, v2, w, t = g
    out = ALGORITHMS[algo](v1, v2, w, t)
    got = {(int(a), int(b)) for a, b in out}
    edges = set(zip(v1.tolist(), v2.tolist()))
    assert got <= edges, "matched a non-existent pair"
    assert len({a for a, _ in got}) == len(got), "left node reused"
    assert len({b for _, b in got}) == len(got), "right node reused"


@given(g=bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_umc_equals_sequential_greedy(g):
    v1, v2, w, t = g
    got = {(int(a), int(b)) for a, b in umc(v1, v2, w, t)}
    assert got == greedy_reference(v1, v2, w, t)


@given(g=bipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_exc_pairs_are_mutual_best(g):
    v1, v2, w, t = g
    lut = {}
    best_l, best_r = {}, {}
    for a, b, s in zip(v1, v2, w):
        if s <= t:
            continue
        lut[(int(a), int(b))] = s
        if a not in best_l or s > lut[(a, best_l[a])]:
            best_l[int(a)] = int(b)
        if b not in best_r or s > lut[(best_r[b], b)]:
            best_r[int(b)] = int(a)
    got = {(int(a), int(b)) for a, b in exc(v1, v2, w, t)}
    for a, b in got:
        assert best_l[a] == b and best_r[b] == a


@given(g=bipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_cnc_pairs_are_isolated_edges(g):
    v1, v2, w, t = g
    kept = [(int(a), int(b)) for a, b, s in zip(v1, v2, w) if s >= t]
    got = {(int(a), int(b)) for a, b in cnc(v1, v2, w, t)}
    deg_l, deg_r = {}, {}
    for a, b in kept:
        deg_l[a] = deg_l.get(a, 0) + 1
        deg_r[b] = deg_r.get(b, 0) + 1
    for a, b in got:
        assert deg_l[a] == 1 and deg_r[b] == 1, "CNC matched a non-isolated edge"
    # conversely every isolated edge is matched
    for a, b in kept:
        if deg_l[a] == 1 and deg_r[b] == 1:
            assert (a, b) in got


@pytest.mark.parametrize("algo", ["RCA", "KRC", "BMC", "UMC", "EXC"])
@given(g=bipartite_graphs())
@settings(max_examples=25, deadline=None)
def test_matched_weights_meet_threshold(algo, g):
    v1, v2, w, t = g
    lut = {(int(a), int(b)): s for a, b, s in zip(v1, v2, w)}
    out = ALGORITHMS[algo](v1, v2, w, t)
    for a, b in out:
        # RCA keeps >= t (Alg. 3); the others are strict
        assert lut[(int(a), int(b))] >= t


@given(g=bipartite_graphs())
@settings(max_examples=25, deadline=None)
def test_umc_is_maximal(g):
    """Greedy matchings are maximal: no remaining edge has both
    endpoints unmatched."""
    v1, v2, w, t = g
    got = {(int(a), int(b)) for a, b in umc(v1, v2, w, t)}
    ml = {a for a, _ in got}
    mr = {b for _, b in got}
    for a, b, s in zip(v1, v2, w):
        if s > t:
            assert int(a) in ml or int(b) in mr


def bah_numpy_loop(v1, v2, w, t, *, max_moves=10_000, seed=42):
    """BAH's move loop over numpy scalars, kept verbatim as the oracle
    for the Python-scalar loop of ``matchers.bah``."""
    v1, v2, w = as_edge_arrays(v1, v2, w)
    keep = w > t  # contributions exist only for edges above threshold
    if not keep.any():
        return EMPTY_PAIRS
    a, b, s = v1[keep], v2[keep], w[keep]

    la, ua = compact_ids(a)
    lb, ub = compact_ids(b)
    n_left, n_right = len(ua), len(ub)
    # "big" is the larger collection (the one whose nodes get swapped).
    swap_sides = n_left < n_right
    if swap_sides:
        big, small, n_big, n_small = lb, la, n_right, n_left
    else:
        big, small, n_big, n_small = la, lb, n_left, n_right

    d = np.zeros((n_big, n_small), dtype=np.float64)
    d[big, small] = s  # duplicate edges impossible: (v1, v2) is a key

    # Initial assignment: big node i is paired with small node i.
    partner = np.full(n_big, -1, dtype=np.int64)
    partner[:n_small] = np.arange(n_small)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_big, size=(max_moves, 2))
    for step in range(max_moves):
        i, j = int(idx[step, 0]), int(idx[step, 1])
        if i == j:
            continue
        pi, pj = partner[i], partner[j]
        old = (d[i, pi] if pi >= 0 else 0.0) + (d[j, pj] if pj >= 0 else 0.0)
        new = (d[i, pj] if pj >= 0 else 0.0) + (d[j, pi] if pi >= 0 else 0.0)
        if new - old >= 0:  # Alg. 4 line 19 accepts neutral swaps
            partner[i], partner[j] = pj, pi

    out = []
    for i in range(n_big):
        p = partner[i]
        if p >= 0 and d[i, p] > 0:
            if swap_sides:
                out.append((int(ua[p]), int(ub[i])))
            else:
                out.append((int(ua[i]), int(ub[p])))
    return pairs_array(out)


@st.composite
def bah_inputs(draw):
    """Graphs with sparse, non-contiguous ids on either side being the
    larger one; all-equal, few-level tied or distinct weights; t from
    the grid or equal to an edge weight; any move budget and seed."""
    left = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    right = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    possible = [(a, b) for a in left for b in right]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=60, unique=True)
    )
    k = len(edges)
    kind = draw(st.sampled_from(["equal", "levels", "distinct"]))
    if kind == "equal":
        ws = [1.0] * k
    elif kind == "levels":
        ws = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=k, max_size=k))
    else:
        ws = [
            x / 10_000.0
            for x in draw(
                st.lists(st.integers(1, 10_000), min_size=k, max_size=k, unique=True)
            )
        ]
    t = draw(st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95]), st.sampled_from(ws)))
    v1 = np.array([a for a, _ in edges], dtype=np.int64)
    v2 = np.array([b for _, b in edges], dtype=np.int64)
    moves = draw(st.integers(0, 3_000))
    seed = draw(st.integers(0, 2**32 - 1))
    return v1, v2, np.array(ws, dtype=np.float64), t, moves, seed


@given(g=bah_inputs())
@settings(max_examples=150, deadline=None)
def test_bah_equals_numpy_scalar_loop(g):
    """The Python-scalar move loop is bit-identical to the numpy one."""
    v1, v2, w, t, moves, seed = g
    got = ALGORITHMS["BAH"](v1, v2, w, t, max_moves=moves, seed=seed)
    want = bah_numpy_loop(v1, v2, w, t, max_moves=moves, seed=seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)

"""The distributed matching transformation, and the ``*_native`` serve
variant names that call it, vs the reference matchers."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.matchers.base import UnionFind
from repro.core.spark_match import cnc_native, exc_native, match_edges, umc_native
from repro.core.sweep import THRESHOLDS
from repro.datasets.generator import generate_pandas
from repro.datasets.registry import SPECS
from repro.simgraph.build import _texts_schema_agnostic, minmax
from repro.simgraph.vectors import dense_vector_edges


def random_graph(seed: int, n_left=25, n_right=20, m=120):
    rng = np.random.default_rng(seed)
    pairs = {
        (int(a), int(b))
        for a, b in zip(rng.integers(0, n_left, m), rng.integers(0, n_right, m))
    }
    v1 = np.array([a for a, _ in sorted(pairs)], dtype=np.int64)
    v2 = np.array([b for _, b in sorted(pairs)], dtype=np.int64)
    # distinct weights -> deterministic, order-free equivalences
    w = rng.permutation(len(v1)).astype(np.float64) / len(v1) * 0.98 + 0.01
    return v1, v2, w


def chain_graph(n_left: int):
    """Left i linked to right i and right i-1, all weights 1.0: one
    component whose diameter grows with ``n_left``. ``minmax`` emits such
    weights when all of a graph's raw weights are equal."""
    left = np.arange(n_left, dtype=np.int64)
    v1 = np.concatenate([left, left[1:]])
    v2 = np.concatenate([left, left[1:] - 1])
    return v1, v2, np.ones(len(v1))


#: Two components on which RCA run per component differs from RCA on the
#: whole graph: the column scan wins the first, the row scan the second,
#: and the row scan wins overall.
TWO_COMPONENTS = (
    np.array([1, 1, 2, 20, 21, 20], dtype=np.int64),
    np.array([10, 11, 10, 30, 30, 31], dtype=np.int64),
    np.array([0.5, 0.4, 0.9, 0.5, 0.4, 0.95]),
)


@pytest.fixture(scope="module")
def d1_cosine_tf():
    """D1's schema-agnostic token-2-gram graph under cosine TF, min-max
    normalised, scored as ``build_dataset_graphs`` scores it: 21
    components, on which RCA run per component differs from RCA on the
    whole graph by one pair at t = 0.1, 0.3 and 0.5."""
    df1, df2, _ = generate_pandas(SPECS["D1"])
    wide = dense_vector_edges(
        _texts_schema_agnostic(df1), _texts_schema_agnostic(df2), "token", 2
    )
    g = minmax(wide[["v1", "v2", "cosine_tf"]].rename(columns={"cosine_tf": "w"}))
    return g["v1"].to_numpy(), g["v2"].to_numpy(), g["w"].to_numpy()


def to_df(spark, v1, v2, w):
    return spark.createDataFrame(pd.DataFrame({"v1": v1, "v2": v2, "w": w}))


def collect_pairs(df) -> set:
    pdf = df.toPandas()
    return set(zip(pdf["v1"].astype(int), pdf["v2"].astype(int)))


@pytest.mark.parametrize("algo", ALGORITHM_ORDER)
def test_distributed_equals_reference(spark, d1_cosine_tf, algo):
    kw = {"seed": 5} if algo == "BAH" else {}
    cases = [
        ("random", random_graph(seed=hash(algo) % 1000), 0.3),
        ("two components", TWO_COMPONENTS, 0.05),
        ("80-node chain", chain_graph(80), 0.1),
    ] + [("D1 sa_syn/vector-token2/cosine_tf", d1_cosine_tf, t) for t in (0.1, 0.3, 0.5)]
    for name, (v1, v2, w), t in cases:
        expected = {
            (int(a), int(b)) for a, b in ALGORITHMS[algo](v1, v2, w, t, **kw)
        }
        got = collect_pairs(match_edges(to_df(spark, v1, v2, w), algo, t, **kw))
        assert got == expected, f"{name}, t={t}"


def test_d1_fixture_separates_per_component_rca(d1_cosine_tf):
    """The D1 graph is in the cases above because RCA run on each of its
    components alone differs from RCA on the whole graph."""
    v1, v2, w = d1_cosine_tf
    right = int(v1.max()) + 1  # right node b is union-find slot right + b
    uf = UnionFind(right + int(v2.max()) + 1)
    for a, b in zip(v1, v2):
        uf.union(int(a), right + int(b))
    labels = np.array([uf.find(int(a)) for a in v1])

    def rca(on, t):
        pairs = ALGORITHMS["RCA"](v1[on], v2[on], w[on], t)
        return {(int(a), int(b)) for a, b in pairs}

    for t in (0.1, 0.3, 0.5):
        per_component = set().union(*(rca(labels == c, t) for c in np.unique(labels)))
        assert per_component != rca(labels >= 0, t), t


def test_match_edges_jobs_independent_of_graph_shape(spark):
    """A 10-node and an 80-node chain cost the same number of Spark jobs,
    through ``match_edges`` and through each ``*_native`` name: no
    per-round loop (such as label propagation) in the request path."""
    sc = spark.sparkContext
    calls = {
        "match_edges-UMC": lambda df: match_edges(df, "UMC", 0.1),
        "cnc_native": lambda df: cnc_native(df, 0.1),
        "exc_native": lambda df: exc_native(df, 0.1),
        "umc_native": lambda df: umc_native(df, 0.1),
    }
    jobs = {}
    for name, call in calls.items():
        counts = []
        for n in (10, 80):
            group = f"{name}-chain-{n}"
            sc.setJobGroup(group, group)
            try:
                call(to_df(spark, *chain_graph(n))).collect()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            counts.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        jobs[name] = tuple(counts)
    assert all(0 < short == long for short, long in jobs.values()), jobs


def test_unknown_algorithm_rejected(spark):
    v1, v2, w = random_graph(0)
    with pytest.raises(ValueError):
        match_edges(to_df(spark, v1, v2, w), "XXX", 0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cnc_native_equals_reference(spark, seed):
    v1, v2, w = random_graph(seed)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["CNC"](v1, v2, w, 0.5)}
    got = collect_pairs(cnc_native(to_df(spark, v1, v2, w), 0.5))
    assert got == expected


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_exc_native_equals_reference(spark, seed):
    v1, v2, w = random_graph(seed)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["EXC"](v1, v2, w, 0.3)}
    got = collect_pairs(exc_native(to_df(spark, v1, v2, w), 0.3))
    assert got == expected


@pytest.mark.parametrize(
    "graph",
    [
        random_graph(7, n_left=12, n_right=10, m=50),
        random_graph(8, n_left=12, n_right=10, m=50),
        chain_graph(80),
    ],
    ids=["7", "8", "chain80"],
)
def test_umc_native_equals_sequential_greedy(spark, graph):
    """``umc_native`` == greedy UMC, also on the all-ties chain."""
    v1, v2, w = graph
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["UMC"](v1, v2, w, 0.1)}
    got = collect_pairs(umc_native(to_df(spark, v1, v2, w), 0.1))
    assert got == expected


@st.composite
def chains_and_blocks(draw):
    """A union of disjoint chains and complete blocks, with all-equal
    weights (what ``minmax`` emits when all raw weights are equal), a few
    tied levels or distinct weights, and a threshold of the paper's grid."""
    v1, v2 = [], []
    n_left = n_right = 0
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            # left i links to right i and right i + step; the degree-1 end
            # at id 0 is left node 0 for step -1 and right node 0 for +1,
            # which differ because ties break by node id
            i = np.arange(draw(st.integers(1, 12)))
            j = i + draw(st.sampled_from([-1, 1]))
            inside = (j >= 0) & (j < len(i))
            a, b = np.concatenate([i, i[inside]]), np.concatenate([i, j[inside]])
        else:
            n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            a, b = np.repeat(np.arange(n_a), n_b), np.tile(np.arange(n_b), n_a)
        v1.append(a + n_left)
        v2.append(b + n_right)
        n_left, n_right = n_left + a.max() + 1, n_right + b.max() + 1
    v1, v2 = np.concatenate(v1).astype(np.int64), np.concatenate(v2).astype(np.int64)
    m = len(v1)
    w = draw(
        st.one_of(
            st.just([1.0] * m),
            st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=m, max_size=m),
            st.permutations([(k + 1) / m for k in range(m)]),
        )
    )
    return v1, v2, np.array(w), draw(st.sampled_from(THRESHOLDS))


@given(g=chains_and_blocks())
@settings(max_examples=12, deadline=None)
def test_match_edges_equals_reference_on_chains_and_blocks(spark, g):
    """All 8 algorithms (and so the ``*_native`` names, which call
    ``match_edges``) on drawn chains and complete blocks with ties."""
    v1, v2, w, t = g
    df = to_df(spark, v1, v2, w)
    for algo in ALGORITHM_ORDER:
        kw = {"seed": 5} if algo == "BAH" else {}
        expected = {(int(a), int(b)) for a, b in ALGORITHMS[algo](v1, v2, w, t, **kw)}
        got = collect_pairs(match_edges(df, algo, t, **kw))
        assert got == expected, f"{algo}, t={t}"


def test_match_edges_empty_result(spark):
    v1, v2, w = random_graph(9)
    got = match_edges(to_df(spark, v1, v2, w), "UMC", 0.999)
    assert got.count() == 0


def test_bmc_params_forwarded(spark):
    v1, v2, w = random_graph(10)
    left = collect_pairs(match_edges(to_df(spark, v1, v2, w), "BMC", 0.3, basis="left"))
    expected = {
        (int(a), int(b)) for a, b in ALGORITHMS["BMC"](v1, v2, w, 0.3, basis="left")
    }
    assert left == expected

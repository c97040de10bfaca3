"""The distributed matching transformation vs the reference matchers,
and the native dataflow implementations (CNC/EXC/UMC) vs both."""
import numpy as np
import pandas as pd
import pytest

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.spark_match import cnc_native, exc_native, match_edges, umc_native
from repro.datasets.generator import generate_pandas
from repro.datasets.registry import SPECS
from repro.simgraph.build import _texts_schema_agnostic, minmax
from repro.simgraph.vectors import spark_vector_edges


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
def d1_cosine_tf(spark):
    """D1's schema-agnostic token-2-gram graph under cosine TF, min-max
    normalised, scored as ``build_dataset_graphs`` scores it: 21
    components, on which RCA run per component differs from RCA on the
    whole graph by one pair."""
    df1, df2, _ = generate_pandas(SPECS["D1"])
    wide = spark_vector_edges(
        spark, _texts_schema_agnostic(df1), _texts_schema_agnostic(df2), "token", 2
    ).toPandas()
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


def test_match_edges_jobs_independent_of_graph_shape(spark):
    """A 10-node and an 80-node chain cost the same number of Spark jobs:
    no per-round loop (such as label propagation) in the request path."""
    sc = spark.sparkContext
    jobs = []
    for n in (10, 80):
        group = f"match-edges-chain-{n}"
        sc.setJobGroup(group, group)
        try:
            match_edges(to_df(spark, *chain_graph(n)), "UMC", 0.1).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    assert jobs[0] > 0
    assert jobs[0] == jobs[1]


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
    """Iterated locally-dominant matching == greedy UMC. On the chain
    every round takes one edge, so it needs 80 rounds."""
    v1, v2, w = graph
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["UMC"](v1, v2, w, 0.1)}
    got = collect_pairs(umc_native(to_df(spark, v1, v2, w), 0.1))
    assert got == expected


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

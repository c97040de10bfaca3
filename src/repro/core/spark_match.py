"""Bipartite graph matching as a DataFrame -> DataFrame transformation.

``match_edges(edges, algorithm, t)`` takes a similarity-graph edge list
(columns ``v1``, ``v2``, ``w``) and returns the matched pairs (columns
``v1``, ``v2``).

Execution strategy
------------------
``match_edges`` puts every edge in one group and runs the exact
reference matcher on it via ``applyInPandas``, for all 8 algorithms.
Splitting by connected component would be wrong for two of them: RCA
chooses its row scan or its column scan once for the whole graph (Alg. 3
lines 29-36), and BAH searches the whole graph at random (Alg. 4). One
group is also faster: it costs a fixed number of Spark jobs, whereas
label propagation needs one round per step of the graph's diameter.

Natively-dataflow implementations (no per-group Python kernels) are
also provided for CNC, EXC and UMC; ``tests/test_spark_match.py``
asserts they agree with the reference path.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .components import connected_components, encode_global
from .matchers import ALGORITHMS

_PAIR_SCHEMA = "v1 long, v2 long"


def match_edges(edges: DataFrame, algorithm: str, t: float, **params) -> DataFrame:
    """Run one of the paper's 8 algorithms over an edge-list DataFrame.

    Parameters
    ----------
    edges : DataFrame(v1 long, v2 long, w double)
    algorithm : paper acronym, one of ``ALGORITHMS``.
    t : similarity threshold in [0, 1].
    params : algorithm extras (e.g. ``basis`` for BMC, ``seed``/
        ``max_moves`` for BAH).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    matcher = ALGORITHMS[algorithm]

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pairs = matcher(
            pdf["v1"].to_numpy(), pdf["v2"].to_numpy(), pdf["w"].to_numpy(), t, **params
        )
        return pd.DataFrame({"v1": pairs[:, 0], "v2": pairs[:, 1]})

    one_group = edges.select("v1", "v2", "w", F.lit(0).alias("group"))
    return one_group.groupBy("group").applyInPandas(run, schema=_PAIR_SCHEMA)


def cnc_native(edges: DataFrame, t: float) -> DataFrame:
    """CNC without Python kernels: prune, components, keep 2-node ones."""
    pruned = edges.filter(F.col("w") >= t)
    enc = encode_global(pruned)
    labels = connected_components(enc)
    sizes = labels.groupBy("component").agg(F.count("*").alias("n"))
    two = labels.join(sizes.filter("n = 2"), on="component").select(
        "node", "component"
    )
    return (
        enc.join(two.withColumnRenamed("node", "src"), on="src")
        .select("v1", "v2")
        .distinct()
    )


def _rank_one(col_part: str, edges: DataFrame) -> DataFrame:
    """Edges that are the best (weight desc, ids asc) for ``col_part``."""
    other = "v2" if col_part == "v1" else "v1"
    win = Window.partitionBy(col_part).orderBy(
        F.col("w").desc(), F.col("v1").asc(), F.col("v2").asc()
    )
    return (
        edges.withColumn("_r", F.row_number().over(win))
        .filter("_r = 1")
        .drop("_r")
    )


def exc_native(edges: DataFrame, t: float) -> DataFrame:
    """EXC without Python kernels: mutual-best via two window ranks."""
    pruned = edges.filter(F.col("w") > t)
    best_l = _rank_one("v1", pruned)
    best_r = _rank_one("v2", pruned)
    return best_l.join(best_r, on=["v1", "v2", "w"]).select("v1", "v2")


def umc_native(edges: DataFrame, t: float) -> DataFrame:
    """UMC as iterated locally-dominant edge matching.

    An edge that is the top choice of both its endpoints (under the
    total order weight desc, v1 asc, v2 asc) is exactly the edge greedy
    UMC would pick next among the remaining ones, so repeatedly taking
    all locally-dominant edges and removing their endpoints reproduces
    the sequential greedy matching exactly.
    """
    remaining = edges.filter(F.col("w") > t).localCheckpoint()
    spark = edges.sparkSession
    matched = spark.createDataFrame([], schema="v1 long, v2 long")
    # each round takes at least the heaviest remaining edge, so this ends
    while not remaining.isEmpty():
        dominant = (
            _rank_one("v1", remaining)
            .join(_rank_one("v2", remaining), on=["v1", "v2", "w"])
            .select("v1", "v2")
            .localCheckpoint()
        )
        matched = matched.union(dominant).localCheckpoint()
        remaining = (
            remaining.join(dominant.select("v1"), on="v1", how="left_anti")
            .join(dominant.select("v2"), on="v2", how="left_anti")
            .select("v1", "v2", "w")
            .localCheckpoint()
        )
    return matched

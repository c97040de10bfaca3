"""Distributed connected components over a bipartite edge-list DataFrame.

Iterative minimum-label propagation expressed with the DataFrame API:
every node starts with its own id as label; each round every node takes
the minimum label among itself and its neighbours, until no label
changes. Lineage is cut every round with ``localCheckpoint`` so long
chains do not blow up the planner. ``spark_match.cnc_native`` is the only
caller: CNC is defined as keeping the components of size 2.

Node-id convention: the bipartite sides share
one global id space with left nodes encoded as ``2 * v1`` and right
nodes as ``2 * v2 + 1``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

LEFT, RIGHT = 0, 1


def encode_global(df: DataFrame, v1: str = "v1", v2: str = "v2") -> DataFrame:
    """Add ``src``/``dst`` global node ids (left even, right odd)."""
    return df.withColumn("src", F.col(v1) * 2).withColumn(
        "dst", F.col(v2) * 2 + 1
    )


def connected_components(edges: DataFrame) -> DataFrame:
    """Label each node of the graph with its component's minimum node id.

    Parameters
    ----------
    edges : DataFrame with columns ``src``, ``dst`` (global node ids).

    Returns
    -------
    DataFrame with columns ``node`` (global id) and ``component``.
    """
    und = edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    und = und.distinct().localCheckpoint()
    labels = (
        und.select(F.col("src").alias("node"))
        .distinct()
        .withColumn("component", F.col("node"))
        .localCheckpoint()
    )
    # labels only decrease, so this ends after at most diameter + 1 rounds
    while True:
        # For every node: min neighbour label.
        nbr_min = (
            und.join(labels.withColumnRenamed("node", "dst"), on="dst")
            .groupBy(F.col("src").alias("node"))
            .agg(F.min("component").alias("nbr_component"))
        )
        new_labels = (
            labels.join(nbr_min, on="node", how="left")
            .select(
                "node",
                F.least(
                    F.col("component"),
                    F.coalesce(F.col("nbr_component"), F.col("component")),
                ).alias("component"),
                (F.col("nbr_component") < F.col("component")).alias("changed"),
            )
        ).localCheckpoint()
        n_changed = new_labels.filter(F.col("changed")).limit(1).count()
        labels = new_labels.drop("changed")
        if n_changed == 0:
            break
    return labels

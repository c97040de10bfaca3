"""Connected components of a bipartite edge-list DataFrame.

The edges are collected to the driver in one Arrow table, as
``spark_match.match_edges`` collects a request's edges; the node ids are
compacted (``matchers.base.compact_ids``) and the two ends of every edge
joined with ``matchers.base.UnionFind``. A call runs one Spark job and
returns a local relation. Nothing in ``src/`` calls it: it is kept
because the ``perfbench`` traced ``serve`` wraps
``spark_match.connected_components`` by name.

Node-id convention: the bipartite sides share one global id space with
left nodes encoded as ``2 * v1`` and right nodes as ``2 * v2 + 1``.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from .matchers.base import UnionFind, compact_ids

_LABEL_SCHEMA = StructType([StructField(c, LongType()) for c in ("node", "component")])


def encode_global(df: DataFrame, v1: str = "v1", v2: str = "v2") -> DataFrame:
    """Add ``src``/``dst`` global node ids (left even, right odd)."""
    return df.withColumn("src", F.col(v1) * 2).withColumn(
        "dst", F.col(v2) * 2 + 1
    )


def connected_components(edges: DataFrame) -> DataFrame:
    """Label each node of the graph with its component's minimum node id.

    Eager: runs one Spark job, the Arrow collect of ``src``/``dst``.

    Parameters
    ----------
    edges : DataFrame with columns ``src``, ``dst`` (global node ids).

    Returns
    -------
    DataFrame with columns ``node`` (global id) and ``component``, a
    local relation.
    """
    table = edges.select("src", "dst").toArrow()
    ends = np.concatenate([table.column(c).to_numpy() for c in ("src", "dst")])
    compact, nodes = compact_ids(ends)
    uf = UnionFind(len(nodes))
    m = table.num_rows
    for a, b in zip(compact[:m].tolist(), compact[m:].tolist()):
        uf.union(a, b)
    # the smaller root always wins, so a root is its set's smallest index
    # and, as ``nodes`` is sorted, its component's minimum node id
    roots = [uf.find(k) for k in range(len(nodes))]
    return edges.sparkSession.createDataFrame(
        pa.table({"node": nodes, "component": nodes[roots]}), schema=_LABEL_SCHEMA
    )

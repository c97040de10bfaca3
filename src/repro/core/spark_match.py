"""Bipartite graph matching as a DataFrame -> DataFrame call.

``match_edges(edges, algorithm, t)`` takes a similarity-graph edge list
(columns ``v1``, ``v2``, ``w``) and returns the matched pairs (columns
``v1``, ``v2``). It collects the edges to the driver in one Arrow table
(``DataFrame.toArrow``), runs the exact reference matcher on all of them
in the calling process, and returns the pairs as a local relation. A
request is one Spark job and starts no Python worker: whatever produces
the edges, such as a filtered parquet scan, runs over all its partitions
in the JVM, and collecting the result runs no job. The whole graph is
matched at once: RCA picks its row or column scan once for the whole
graph (Alg. 3 lines 29-36), and BAH searches all of it (Alg. 4).

The columns are read by name. Only a frame whose columns are not exactly
``v1, v2, w`` gets a ``select`` in Spark first, so that no other column
is collected; planning it costs about 12 ms on a fresh local relation.

The call is eager: the collect runs when ``match_edges`` is called. The
edges count against ``spark.driver.maxResultSize`` (1 GiB by default):
about 40M edges of 24 bytes, against 1,008,000 in the repository's
largest graph.

``cnc_native``, ``exc_native`` and ``umc_native`` are plain calls to
``match_edges``. The names exist only because the ``perfbench`` ``serve``
workload sends them as request variants; they go when those variants do.
"""
from __future__ import annotations

import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

# unused here: perfbench's traced serve wraps ``spark_match.connected_components``
# by name, so the name must resolve until the benchmark stops doing so
from .components import connected_components  # noqa: F401
from .matchers import ALGORITHMS

_EDGE_COLUMNS = ["v1", "v2", "w"]
# a StructType, not a DDL string, which the JVM would parse on every call (~3 ms)
_PAIR_SCHEMA = StructType([StructField(c, LongType()) for c in ("v1", "v2")])


def match_edges(edges: DataFrame, algorithm: str, t: float, **params) -> DataFrame:
    """Run one of the paper's 8 algorithms over an edge-list DataFrame.

    Eager: runs one Spark job, the Arrow collect of ``edges``, before it
    returns. The result is a local relation; collecting it runs no job.

    Parameters
    ----------
    edges : DataFrame(v1 long, v2 long, w double), other columns ignored.
    algorithm : paper acronym, one of ``ALGORITHMS``.
    t : similarity threshold in [0, 1].
    params : algorithm extras (BMC ``basis``, BAH ``seed``/``max_moves``).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if edges.columns != _EDGE_COLUMNS:
        edges = edges.select(*_EDGE_COLUMNS)
    table = edges.toArrow()
    pairs = ALGORITHMS[algorithm](
        *(table.column(c).to_numpy() for c in _EDGE_COLUMNS), t, **params
    )
    return edges.sparkSession.createDataFrame(
        pa.table({"v1": pairs[:, 0], "v2": pairs[:, 1]}), schema=_PAIR_SCHEMA
    )


def cnc_native(edges: DataFrame, t: float) -> DataFrame:
    """CNC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "CNC", t)


def exc_native(edges: DataFrame, t: float) -> DataFrame:
    """EXC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "EXC", t)


def umc_native(edges: DataFrame, t: float) -> DataFrame:
    """UMC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "UMC", t)

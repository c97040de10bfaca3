"""Bipartite graph matching as a DataFrame -> DataFrame transformation.

``match_edges(edges, algorithm, t)`` takes a similarity-graph edge list
(columns ``v1``, ``v2``, ``w``) and returns the matched pairs (columns
``v1``, ``v2``).

Execution strategy
------------------
``match_edges`` coalesces the edges into one partition, with no shuffle,
and runs the exact reference matcher on all of them in one
``mapInPandas`` task, for all 8 algorithms: one stage of one task per
request. Splitting by connected component would be wrong for two of
them: RCA chooses its row scan or its column scan once for the whole
graph (Alg. 3 lines 29-36), and BAH searches the whole graph at random
(Alg. 4). One task is also faster: it costs a fixed number of Spark jobs,
whereas label propagation needs one round per step of the graph's
diameter. The single task also runs whatever produces the edges, such
as a parquet scan and a threshold filter, on one core. On a full-size
graph (1,008,000 edges, D9 ``sa_sem``) that was as fast as or faster than
scanning in parallel and shuffling into one group (DESIGN.md 1.1).

``cnc_native``, ``exc_native`` and ``umc_native`` are plain calls to
``match_edges``. The names exist only because the ``perfbench`` ``serve``
workload sends them as request variants; they go when those variants do.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame

# unused here: perfbench's traced serve wraps ``spark_match.connected_components``
# by name, so the name must resolve until the benchmark stops doing so
from .components import connected_components  # noqa: F401
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

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = list(batches)
        if not frames:  # an empty partition sends no batch
            return
        pdf = pd.concat(frames, ignore_index=True)
        pairs = matcher(
            pdf["v1"].to_numpy(), pdf["v2"].to_numpy(), pdf["w"].to_numpy(), t, **params
        )
        yield pd.DataFrame({"v1": pairs[:, 0], "v2": pairs[:, 1]})

    one_task = edges.select("v1", "v2", "w").coalesce(1)
    return one_task.mapInPandas(run, schema=_PAIR_SCHEMA)


def cnc_native(edges: DataFrame, t: float) -> DataFrame:
    """CNC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "CNC", t)


def exc_native(edges: DataFrame, t: float) -> DataFrame:
    """EXC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "EXC", t)


def umc_native(edges: DataFrame, t: float) -> DataFrame:
    """UMC by ``match_edges``; only a name for a ``perfbench`` serve variant."""
    return match_edges(edges, "UMC", t)

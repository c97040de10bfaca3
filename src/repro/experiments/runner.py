"""End-to-end experiment pipeline (paper Sec. 5 "Generation Process").

Stage 1 — ``build_all_graphs``: every similarity function applied to
every dataset analogue, written as parquet edge lists + manifest.

Stage 2 — ``run_sweep``: the threshold-sweep protocol executed as a
*distributed parameter sweep* whose unit of work is a graph. The graphs
are packed into one bin per core of the session with LPT (largest
``n_edges`` first, each into the lightest bin so far; Graham, SIAM J.
Appl. Math. 1969), and one Spark job runs one bin per task. A task
reads each of its graphs' edge lists and each dataset's ground truth
once, and sweeps every algorithm over t in {0.05..1.0} on the graph
(``core.sweep.sweep_graph``): the largest threshold with max F1, and
the matcher run-time at it.

Results are persisted to parquet so the table builders and jobs can
re-read them without recomputing.
"""
from __future__ import annotations

import json
import os

import pandas as pd
from pyspark.sql import SparkSession

from ..core.matchers import ALGORITHM_ORDER
from ..core.sweep import THRESHOLDS, sweep_graph
from ..datasets.registry import DATASET_ORDER, SPECS
from ..simgraph.build import FAMILIES, build_dataset_graphs

_RESULT_COLUMNS = [
    "graph_id", "algorithm", "best_t", "precision", "recall", "f1",
    "n_predicted", "n_correct", "runtime_ms", "params",
]
_MANIFEST_COLUMNS = [
    "graph_id", "dataset", "category", "family", "model", "measure",
    "n_edges", "gt_covered", "n_gt",
]


def build_all_graphs(
    spark: SparkSession,
    out_dir: str,
    datasets: list[str] = DATASET_ORDER,
    families: list[str] = FAMILIES,
) -> pd.DataFrame:
    """Stage 1: build every similarity graph; returns the manifest."""
    parts = []
    for name in datasets:
        parts.append(build_dataset_graphs(spark, SPECS[name], out_dir, families))
    manifest = pd.concat(parts, ignore_index=True)
    manifest.to_parquet(os.path.join(out_dir, "manifest.parquet"))
    return manifest


def _lpt_bins(graphs: list[tuple], sizes: list[int], n_bins: int) -> list[list]:
    """LPT: biggest first, each into the lightest bin so far.

    Ties go to the bin with fewer graphs, so no bin is left empty while
    another holds two graphs of zero size.
    """
    bins: list[list] = [[] for _ in range(n_bins)]
    loads = [0] * n_bins
    for size, graph in sorted(zip(sizes, graphs), key=lambda p: -p[0]):
        k = min(range(n_bins), key=lambda b: (loads[b], len(bins[b])))
        bins[k].append(graph)
        loads[k] += size
    return bins


def run_sweep(
    spark: SparkSession,
    manifest: pd.DataFrame,
    out_dir: str,
    *,
    algorithms: list[str] = ALGORITHM_ORDER,
    thresholds=THRESHOLDS,
    timing_reps: int = 3,
    bah_max_moves: int = 10_000,
) -> pd.DataFrame:
    """Stage 2: the distributed (graph x algorithm) parameter sweep."""
    graphs = [
        (g.graph_id, g.path, os.path.join(out_dir, f"{g.dataset}__gt.parquet"))
        for g in manifest.itertuples()
    ]
    sc = spark.sparkContext
    bins = _lpt_bins(
        graphs, manifest["n_edges"].tolist(), min(sc.defaultParallelism, len(graphs))
    )
    algos, grid = list(algorithms), [float(t) for t in thresholds]
    reps, moves = timing_reps, bah_max_moves

    def run_bin(graphs_in_bin):
        truths = {}
        for graph_id, path, gt_path in graphs_in_bin:
            if gt_path not in truths:
                gt = pd.read_parquet(gt_path)
                truths[gt_path] = set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))
            edges = pd.read_parquet(path)
            for r in sweep_graph(
                edges["v1"].to_numpy(),
                edges["v2"].to_numpy(),
                edges["w"].to_numpy(),
                truths[gt_path],
                algorithms=algos,
                thresholds=grid,
                timing_reps=reps,
                bah_max_moves=moves,
            ):
                yield {**r, "graph_id": graph_id, "params": json.dumps(r["params"])}

    # one slice per bin: exactly one bin per task, all in one job
    rows = sc.parallelize(bins, len(bins)).flatMap(run_bin).collect() if bins else []
    results = pd.DataFrame(rows, columns=_RESULT_COLUMNS).merge(
        manifest[_MANIFEST_COLUMNS], on="graph_id"
    )
    results.to_parquet(os.path.join(out_dir, "results.parquet"))
    return results


def load_results(out_dir: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Re-read a previous run's manifest and results."""
    return (
        pd.read_parquet(os.path.join(out_dir, "manifest.parquet")),
        pd.read_parquet(os.path.join(out_dir, "results.parquet")),
    )


def normalized_size(results: pd.DataFrame) -> pd.Series:
    """|E| / |V1 x V2| per row (threshold-correlation analyses)."""
    cross = {
        name: float(SPECS[name].n1 * SPECS[name].n2) for name in SPECS
    }
    return results["n_edges"] / results["dataset"].map(cross)

"""Similarity-graph factory: every (representation model, similarity
measure) combination of DESIGN.md applied to one dataset analogue.

The output mirrors the paper's generation process (Sec. 5): no
blocking — every pair with raw similarity > 0 becomes an edge — and
min-max normalisation of each graph's weights to [0, 1], computed on
the measure's numpy column. Each graph is written as a parquet edge list
(``v1``, ``v2``, ``w``; pyarrow ``write_table`` from the three arrays, no
pandas index metadata) plus a manifest row carrying the provenance
needed by the tables (dataset, weight-type family, model, measure, edge
count, ground-truth coverage). A call builds only the texts its families
read: the schema-agnostic ones for ``sa_*``, the attribute's for ``sb_*``.

Weight-type families (paper Figure 6):
  sb_syn — schema-based syntactic  (char- and token-level measures)
  sa_syn — schema-agnostic syntactic (n-gram vector and graph models)
  sb_sem — schema-based semantic   (pseudo-embeddings over one attribute)
  sa_sem — schema-agnostic semantic (pseudo-embeddings over all values)
"""
from __future__ import annotations

import os
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import SparkSession

from ..datasets.generator import DatasetSpec, generate_pandas
from .graph_model import GRAPH_MEASURES, GRAPH_MODELS, graph_edges
from .ngrams import entity_text, normalize
from .semantic import SEMANTIC_MEASURES, SEMANTIC_MODELS, semantic_edges
from .strings import SCHEMA_BASED_MEASURES, schema_based_edges
from .vectors import VECTOR_MEASURES, VECTOR_MODELS, dense_vector_edges

FAMILIES = ["sb_syn", "sa_syn", "sb_sem", "sa_sem"]


def _texts_schema_agnostic(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {"id": df["id"], "text": [entity_text(r) for r in df.to_dict("records")]}
    )


def _texts_attribute(df: pd.DataFrame, attr: str) -> pd.DataFrame:
    return pd.DataFrame({"id": df["id"], "text": [normalize(v) for v in df[attr]]})


def _normalised(v1: np.ndarray, v2: np.ndarray, w: np.ndarray) -> pd.DataFrame:
    """The edges with ``w > 0``, ``w`` min-max normalised to [0, 1]; all
    equal weights become 1.0 (float64), an empty graph keeps ``w``'s dtype."""
    keep = w > 0
    v1, v2, w = v1[keep], v2[keep], w[keep]
    if len(w):
        lo, hi = w.min(), w.max()
        w = np.ones(len(w)) if hi <= lo else (w - lo) / (hi - lo)
    return pd.DataFrame({"v1": v1, "v2": v2, "w": w})


def minmax(raw: pd.DataFrame) -> pd.DataFrame:
    """Keep edges with raw weight > 0, min-max normalise to [0, 1]."""
    return _normalised(*(raw[c].to_numpy() for c in ("v1", "v2", "w")))


def _emit(
    wide: pd.DataFrame, measures: list[str]
) -> Iterator[tuple[str, pd.DataFrame]]:
    """Split a wide (v1, v2, m1..mk) frame into per-measure edge lists."""
    v1, v2 = wide["v1"].to_numpy(), wide["v2"].to_numpy()
    for m in measures:
        yield m, _normalised(v1, v2, wide[m].to_numpy())


def _per_side1(spark: SparkSession, side1: pd.DataFrame, score) -> pd.DataFrame:
    """One Spark job: the frames ``score(rows)`` yields for each block of
    side-1 rows, concatenated in side-1 order.

    ``side1`` is cut into min(defaultParallelism, n1) contiguous blocks,
    one task each; side 2 travels in ``score``'s closure. The job runs
    on the RDD API with pickled frames rather than ``mapInPandas``: both
    give the same graphs, and a session's first Arrow job took about
    1.4 s longer than its first RDD job (4 cores).
    """
    n1 = len(side1)
    n = min(spark.sparkContext.defaultParallelism, n1)
    blocks = [side1.iloc[k * n1 // n : (k + 1) * n1 // n] for k in range(n)]
    frames = (
        spark.sparkContext.parallelize(blocks, n)
        .mapPartitions(lambda parts: (f for rows in parts for f in score(rows)))
        .collect()
    )
    return pd.concat(frames, ignore_index=True)


def _semantic(
    spark: SparkSession, texts1: pd.DataFrame, texts2: pd.DataFrame
) -> pd.DataFrame:
    """Every semantic model and measure for all pairs, in one job over
    side 1; the measure columns are named ``{model}_{measure}``."""

    def score(pdf: pd.DataFrame) -> Iterator[pd.DataFrame]:
        frames = [semantic_edges(pdf, texts2, model) for model in SEMANTIC_MODELS]
        yield pd.concat(
            [frames[0][["v1", "v2"]]]
            + [
                f[SEMANTIC_MEASURES].add_prefix(f"{model}_")
                for model, f in zip(SEMANTIC_MODELS, frames)
            ],
            axis=1,
        )

    return _per_side1(spark, texts1, score)


def build_dataset_graphs(
    spark: SparkSession,
    spec: DatasetSpec,
    out_dir: str,
    families: list[str] = FAMILIES,
) -> pd.DataFrame:
    """Build and persist every similarity graph for one dataset.

    Returns the manifest frame (one row per graph) and writes each
    graph to ``{out_dir}/{dataset}__{family}__{model}__{measure}.parquet``
    plus the ground truth to ``{out_dir}/{dataset}__gt.parquet``.
    """
    os.makedirs(out_dir, exist_ok=True)
    df1, df2, gt = generate_pandas(spec)
    gt.to_parquet(os.path.join(out_dir, f"{spec.name}__gt.parquet"))
    span = int(df2["id"].max()) + 1  # pair key v1 * span + v2 is unique
    gt_keys = np.unique(
        gt["v1"].to_numpy(np.int64) * span + gt["v2"].to_numpy(np.int64)
    )
    attr = spec.primary_attribute
    sa = sb = None  # (side 1, side 2) texts, only for the families that read them
    if {"sa_syn", "sa_sem"} & set(families):
        sa = _texts_schema_agnostic(df1), _texts_schema_agnostic(df2)
    if {"sb_syn", "sb_sem"} & set(families):
        sb = _texts_attribute(df1, attr), _texts_attribute(df2, attr)

    produced: list[tuple[str, str, str, pd.DataFrame]] = []

    if "sa_syn" in families:
        for kind, n in VECTOR_MODELS:
            wide = dense_vector_edges(*sa, kind, n)
            for measure, edges in _emit(wide, VECTOR_MEASURES):
                produced.append(("sa_syn", f"vector-{kind}{n}", measure, edges))
        for kind, n in GRAPH_MODELS:
            wide = graph_edges(*sa, kind, n)
            for measure, edges in _emit(wide, GRAPH_MEASURES):
                produced.append(("sa_syn", f"graph-{kind}{n}", measure, edges))

    if "sb_syn" in families:
        side1, side2 = sb
        wide = _per_side1(spark, side1, lambda pdf: [schema_based_edges(pdf, side2)])
        for measure, edges in _emit(wide, SCHEMA_BASED_MEASURES):
            produced.append(("sb_syn", attr, measure, edges))

    for family, texts in (("sb_sem", sb), ("sa_sem", sa)):
        if family not in families:
            continue
        wide = _semantic(spark, *texts)
        for model in SEMANTIC_MODELS:
            per_model = wide.rename(
                columns={f"{model}_{m}": m for m in SEMANTIC_MEASURES}
            )
            for measure, edges in _emit(per_model, SEMANTIC_MEASURES):
                produced.append((family, model, measure, edges))

    rows = []
    for family, model, measure, edges in produced:
        graph_id = f"{spec.name}__{family}__{model}__{measure}"
        path = os.path.join(out_dir, f"{graph_id}.parquet")
        v1, v2, w = (edges[c].to_numpy() for c in ("v1", "v2", "w"))
        pq.write_table(pa.table({"v1": v1, "v2": v2, "w": w}), path)
        keys = v1.astype(np.int64) * span + v2.astype(np.int64)
        covered = np.isin(keys, gt_keys).sum()
        rows.append(
            {
                "graph_id": graph_id,
                "dataset": spec.name,
                "category": spec.category,
                "family": family,
                "model": model,
                "measure": measure,
                "n_edges": len(w),
                "gt_covered": int(covered),
                "n_gt": int(len(gt_keys)),
                "path": path,
            }
        )
    return pd.DataFrame(rows)

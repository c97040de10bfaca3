"""Similarity-graph factory: every (representation model, similarity
measure) combination of DESIGN.md applied to one dataset analogue.

The output mirrors the paper's generation process (Sec. 5): no
blocking — every pair with raw similarity > 0 becomes an edge — and
min-max normalisation of each graph's weights to [0, 1]. Graphs are
written as parquet edge lists plus a manifest row per graph carrying
the provenance needed by the tables (dataset, weight-type family,
model, measure, edge count, ground-truth coverage).

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
from pyspark.sql import SparkSession

from ..datasets.generator import DatasetSpec, generate_pandas
from .graph_model import GRAPH_MEASURES, GRAPH_MODELS, graph_edges
from .ngrams import entity_text, normalize
from .semantic import SEMANTIC_MEASURES, SEMANTIC_MODELS, semantic_edges
from .strings import SCHEMA_BASED_MEASURES, schema_based_batch
from .vectors import VECTOR_MEASURES, VECTOR_MODELS, dense_vector_edges

FAMILIES = ["sb_syn", "sa_syn", "sb_sem", "sa_sem"]


def _texts_schema_agnostic(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {"id": df["id"], "text": [entity_text(r) for _, r in df.iterrows()]}
    )


def _texts_attribute(df: pd.DataFrame, attr: str) -> pd.DataFrame:
    return pd.DataFrame({"id": df["id"], "text": [normalize(v) for v in df[attr]]})


def minmax(raw: pd.DataFrame) -> pd.DataFrame:
    """Keep edges with raw weight > 0, min-max normalise to [0, 1]."""
    out = raw[raw["w"] > 0][["v1", "v2", "w"]].copy()
    if out.empty:
        return out
    lo, hi = out["w"].min(), out["w"].max()
    out["w"] = 1.0 if hi <= lo else (out["w"] - lo) / (hi - lo)
    return out.reset_index(drop=True)


def _emit(
    wide: pd.DataFrame, measures: list[str]
) -> Iterator[tuple[str, pd.DataFrame]]:
    """Split a wide (v1, v2, m1..mk) frame into per-measure edge lists."""
    for m in measures:
        yield m, minmax(wide[["v1", "v2", m]].rename(columns={m: "w"}))


#: Pairs per ``schema_based_batch`` call, which bounds its DP arrays.
_STRING_BATCH = 10_000


def _per_side1(
    spark: SparkSession, side1: pd.DataFrame, schema: str, score
) -> pd.DataFrame:
    """One Spark job: the frames ``score(rows)`` yields for each block of
    side-1 rows, collected.

    ``spark.createDataFrame`` slices ``side1`` into
    min(defaultParallelism, n1) partitions, so the job has that many
    tasks; side 2 travels in ``score``'s closure.
    """

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            yield from score(pdf)

    return spark.createDataFrame(side1).mapInPandas(kernel, schema=schema).toPandas()


def _schema_based_syntactic(
    spark: SparkSession, df1: pd.DataFrame, df2: pd.DataFrame, attr: str
) -> pd.DataFrame:
    """All 15 schema-based measures for all pairs, in one job over side 1."""
    ids2 = df2["id"].to_numpy(np.int64)
    vals2 = df2[attr].astype(object).to_numpy()
    schema = "v1 long, v2 long, " + ", ".join(
        f"{m} double" for m in SCHEMA_BASED_MEASURES
    )

    def score(pdf: pd.DataFrame) -> Iterator[pd.DataFrame]:
        ids1, vals1 = pdf["v1"].to_numpy(np.int64), pdf["val1"].to_numpy()
        n_pairs = len(pdf) * len(ids2)
        for lo in range(0, n_pairs, _STRING_BATCH):
            i, j = np.divmod(np.arange(lo, min(lo + _STRING_BATCH, n_pairs)), len(ids2))
            sims = schema_based_batch(list(vals1[i]), list(vals2[j]))
            sims.insert(0, "v2", ids2[j])
            sims.insert(0, "v1", ids1[i])
            yield sims

    side1 = pd.DataFrame({"v1": df1["id"], "val1": df1[attr].astype(object)})
    return _per_side1(spark, side1, schema, score)


def _semantic(
    spark: SparkSession, texts1: pd.DataFrame, texts2: pd.DataFrame
) -> pd.DataFrame:
    """Every semantic model and measure for all pairs, in one job over
    side 1; the measure columns are named ``{model}_{measure}``."""
    cols = [f"{model}_{m}" for model in SEMANTIC_MODELS for m in SEMANTIC_MEASURES]
    schema = "v1 long, v2 long, " + ", ".join(f"{c} double" for c in cols)

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

    return _per_side1(spark, texts1, schema, score)


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
    gt_pairs = set(zip(gt["v1"], gt["v2"]))
    sa1, sa2 = _texts_schema_agnostic(df1), _texts_schema_agnostic(df2)
    attr = spec.primary_attribute
    sb1, sb2 = _texts_attribute(df1, attr), _texts_attribute(df2, attr)

    produced: list[tuple[str, str, str, pd.DataFrame]] = []

    if "sa_syn" in families:
        for kind, n in VECTOR_MODELS:
            wide = dense_vector_edges(sa1, sa2, kind, n)
            for measure, edges in _emit(wide, VECTOR_MEASURES):
                produced.append(("sa_syn", f"vector-{kind}{n}", measure, edges))
        for kind, n in GRAPH_MODELS:
            wide = graph_edges(sa1, sa2, kind, n)
            for measure, edges in _emit(wide, GRAPH_MEASURES):
                produced.append(("sa_syn", f"graph-{kind}{n}", measure, edges))

    if "sb_syn" in families:
        wide = _schema_based_syntactic(spark, df1, df2, attr)
        for measure, edges in _emit(wide, SCHEMA_BASED_MEASURES):
            produced.append(("sb_syn", attr, measure, edges))

    for family, t1, t2 in (("sb_sem", sb1, sb2), ("sa_sem", sa1, sa2)):
        if family not in families:
            continue
        wide = _semantic(spark, t1, t2)
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
        edges.to_parquet(path)
        covered = sum(
            1 for p in zip(edges["v1"], edges["v2"]) if p in gt_pairs
        )
        rows.append(
            {
                "graph_id": graph_id,
                "dataset": spec.name,
                "category": spec.category,
                "family": family,
                "model": model,
                "measure": measure,
                "n_edges": int(len(edges)),
                "gt_covered": int(covered),
                "n_gt": int(len(gt_pairs)),
                "path": path,
            }
        )
    return pd.DataFrame(rows)

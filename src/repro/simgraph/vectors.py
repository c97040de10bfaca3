"""Schema-agnostic syntactic n-gram *vector* models (paper Sec. 4, App. B.2.1).

An entity is a bag of character/token n-grams with TF or TF-IDF
weights; pairs are scored with Cosine (TF and TF-IDF), set Jaccard and
ARCS similarity. IDF is computed over the union of both collections so
cross-collection weights are comparable.

:func:`dense_vector_edges` scores every model in float64 on the driver.
Only grams that occur on both sides contribute to a dot product, a
common-gram count or an ARCS sum, so its matrices span those shared grams
alone (D9's token-2 model: 1,110 of 26K grams). Per-entity totals, norms
and distinct-gram counts and per-gram document frequencies come from the
long-form counts over every gram. The tests check all four measures
against DuckDB SQL over the same postings.

The result has one row per entity pair with at least one common gram —
the paper's "all pairs with similarity higher than 0", since all four
measures are positive exactly on common support.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .ngrams import grams

#: representation models used in the reproduction (paper: n in {2,3,4}
#: char / {1,2,3} token; trimmed to keep the full sweep laptop-sized).
VECTOR_MODELS = [("char", 2), ("char", 3), ("token", 1), ("token", 2)]

VECTOR_MEASURES = ["cosine_tf", "cosine_tfidf", "jaccard", "arcs"]

_EDGE_COLS = ["v1", "v2", "cosine_tf", "cosine_tfidf", "jaccard", "arcs"]


def _gram_counts(texts: pd.DataFrame, kind: str, n: int) -> pd.DataFrame:
    """Long-form (id, gram, cnt) frame for one collection."""
    rows_id, rows_gram = [], []
    for eid, text in zip(texts["id"], texts["text"]):
        for g in grams(text, kind, n):
            rows_id.append(eid)
            rows_gram.append(g)
    long = pd.DataFrame({"id": rows_id, "gram": rows_gram})
    if long.empty:
        return pd.DataFrame({"id": [], "gram": [], "cnt": []})
    return long.groupby(["id", "gram"], as_index=False).size().rename(
        columns={"size": "cnt"}
    )


def _arcs_weight(df1: np.ndarray, df2: np.ndarray) -> np.ndarray:
    """ARCS per-gram weight log2 / log(DF1*DF2), guarded for DF1*DF2=1."""
    prod = np.maximum(df1 * df2, 2.0)
    return np.log(2.0) / np.log(prod)


def dense_vector_edges(
    texts1: pd.DataFrame, texts2: pd.DataFrame, kind: str, n: int
) -> pd.DataFrame:
    """All-pairs vector similarities via float64 matmul over shared grams."""
    g1 = _gram_counts(texts1, kind, n)
    g2 = _gram_counts(texts2, kind, n)
    if g1.empty or g2.empty:
        return pd.DataFrame(columns=_EDGE_COLS)
    df1, df2 = g1.groupby("gram").size(), g2.groupby("gram").size()
    shared = df1.index.intersection(df2.index)
    dfs = df1.add(df2, fill_value=0)
    n_docs = len(texts1) + len(texts2)

    def side(g: pd.DataFrame, texts: pd.DataFrame):
        """Shared-gram tf, tf-idf and presence matrices, then per entity
        the full-vocabulary tf norm, tf-idf norm and distinct-gram count."""
        rows, n_rows = pd.Index(texts["id"]).get_indexer(g["id"]), len(texts)
        cnt = g["cnt"].to_numpy(np.float64)
        tf = cnt / np.bincount(rows, cnt, n_rows)[rows]
        ti = tf * np.log(n_docs / (dfs.loc[g["gram"]].to_numpy() + 1.0))
        cols = shared.get_indexer(g["gram"])
        on = cols >= 0

        def mat(values: np.ndarray) -> np.ndarray:
            m = np.zeros((n_rows, len(shared)))
            m[rows[on], cols[on]] = values[on]
            return m

        def norm(values: np.ndarray) -> np.ndarray:
            return np.sqrt(np.bincount(rows, values * values, n_rows))

        return (
            mat(tf), mat(ti), mat(np.ones(len(g))),
            norm(tf), norm(ti), np.bincount(rows, minlength=n_rows),
        )

    tf1, ti1, b1, ntf1, nti1, d1 = side(g1, texts1)
    tf2, ti2, b2, ntf2, nti2, d2 = side(g2, texts2)

    def cos(a, b, na, nb) -> np.ndarray:
        return (a @ b.T) / np.maximum(np.outer(na, nb), 1e-12)

    common = b1 @ b2.T
    jac = common / np.maximum(d1[:, None] + d2[None, :] - common, 1.0)
    arcs_w = _arcs_weight(
        df1.loc[shared].to_numpy(np.float64), df2.loc[shared].to_numpy(np.float64)
    )
    arcs = (b1 * arcs_w) @ b2.T

    i, j = np.nonzero(common > 0)
    return pd.DataFrame(
        {
            "v1": texts1["id"].to_numpy(np.int64)[i],
            "v2": texts2["id"].to_numpy(np.int64)[j],
            "cosine_tf": cos(tf1, tf2, ntf1, ntf2)[i, j],
            "cosine_tfidf": cos(ti1, ti2, nti1, nti2)[i, j],
            "jaccard": jac[i, j],
            "arcs": arcs[i, j],
        }
    )

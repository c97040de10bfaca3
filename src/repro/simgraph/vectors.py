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

from .ngrams import gram_counts, grams

#: representation models used in the reproduction (paper: n in {2,3,4}
#: char / {1,2,3} token; trimmed to keep the full sweep laptop-sized).
VECTOR_MODELS = [("char", 2), ("char", 3), ("token", 1), ("token", 2)]

VECTOR_MEASURES = ["cosine_tf", "cosine_tfidf", "jaccard", "arcs"]

def _arcs_weight(df1: np.ndarray, df2: np.ndarray) -> np.ndarray:
    """ARCS per-gram weight log2 / log(DF1*DF2), guarded for DF1*DF2=1."""
    prod = np.maximum(df1 * df2, 2.0)
    return np.log(2.0) / np.log(prod)


def dense_vector_edges(
    texts1: pd.DataFrame, texts2: pd.DataFrame, kind: str, n: int
) -> pd.DataFrame:
    """All-pairs vector similarities via float64 matmul over shared grams."""
    c1, c2, shared = gram_counts(
        *([grams(t, kind, n) for t in texts["text"]] for texts in (texts1, texts2))
    )
    df1, df2 = (np.bincount(c.cols, minlength=len(shared)) * 1.0 for c in (c1, c2))
    dfs = df1 + df2
    n_docs = len(texts1) + len(texts2)

    def side(c):
        """Shared-gram tf, tf-idf and presence matrices, then per entity
        the full-vocabulary tf norm, tf-idf norm and distinct-gram count."""
        cnt = c.cnt * 1.0
        tf = cnt / np.bincount(c.rows, cnt, c.n_rows)[c.rows]
        ti = tf * np.log(n_docs / (dfs[c.cols] + 1.0))

        def norm(values: np.ndarray) -> np.ndarray:
            return np.sqrt(np.bincount(c.rows, values * values, c.n_rows))

        return (
            c.on_shared(tf, shared), c.on_shared(ti, shared),
            c.on_shared(np.ones(len(cnt)), shared),
            norm(tf), norm(ti), np.bincount(c.rows, minlength=c.n_rows),
        )

    tf1, ti1, b1, ntf1, nti1, d1 = side(c1)
    tf2, ti2, b2, ntf2, nti2, d2 = side(c2)

    def cos(a, b, na, nb) -> np.ndarray:
        return (a @ b.T) / np.maximum(np.outer(na, nb), 1e-12)

    common = b1 @ b2.T
    jac = common / np.maximum(d1[:, None] + d2[None, :] - common, 1.0)
    on = shared >= 0
    arcs_w = _arcs_weight(df1[on], df2[on])
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

"""Schema-agnostic syntactic n-gram *graph* models (paper Sec. 4, App. B.2.2).

An entity is an undirected graph whose nodes are its n-grams and whose
edges connect grams co-occurring within a window of size n, weighted by
co-occurrence frequency. Pairs of entities are scored with the four
graph similarities of Giannakopoulos et al.:

    CoS = |common edges| / min(|G1|, |G2|)
    VS  = sum_{e in common} min(w)/max(w) / max(|G1|, |G2|)
    NS  = sum_{e in common} min(w)/max(w) / min(|G1|, |G2|)
    OS  = (CoS + VS + NS) / 3

The per-edge min/max ratio is not expressible as a matrix product, so
:func:`graph_edges` runs an inverted-index join on the driver: edge keys
are factorised to integers, the two posting lists are merged on them
with pandas and the ratios summed per entity pair. ``max_df_frac``
optionally drops ubiquitous edge keys (stop-gram pairs) to bound the
join fan-out — a documented deviation (those keys contribute almost no
distinguishing signal but dominate the join size). Graph sizes are
counted before the cap.

Simplification vs JInsect: the entity graph is built over the entity's
full (schema-agnostic) text instead of merging per-value graphs with
the update operator; with our generators each entity is effectively a
single textual value, so the two coincide.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .ngrams import grams

#: graph models used in the reproduction (paper: n in {2,3,4} char,
#: {1,2,3} token; trimmed).
GRAPH_MODELS = [("char", 3), ("token", 1)]

GRAPH_MEASURES = ["containment", "value", "nvalue", "overall"]


def graph_edges_of_text(text: str, kind: str, n: int) -> dict[str, int]:
    """The entity graph: edge-key -> co-occurrence weight.

    Edge key is the unordered gram pair joined with '\\x1f'; grams
    co-occur when within ``n`` positions in the gram sequence.
    """
    seq = grams(text, kind, n)
    out: dict[str, int] = {}
    for i, a in enumerate(seq):
        for j in range(i + 1, min(i + n + 1, len(seq))):
            b = seq[j]
            key = a + "\x1f" + b if a <= b else b + "\x1f" + a
            out[key] = out.get(key, 0) + 1
    return out


def _postings(texts: pd.DataFrame, kind: str, n: int) -> pd.DataFrame:
    """(id, ekey, w) postings of one collection's entity graphs."""
    rows = [
        (eid, key, w)
        for eid, text in zip(texts["id"], texts["text"])
        for key, w in graph_edges_of_text(text, kind, n).items()
    ]
    return pd.DataFrame(rows, columns=["id", "ekey", "w"])


def _pair_sums(p1: pd.DataFrame, p2: pd.DataFrame) -> pd.DataFrame:
    """(v1, v2, n_common, ratio_sum) of every entity pair whose graphs
    share an edge key: the postings joined on the key, with each shared
    key's min/max weight ratio summed per pair."""
    joined = p1.merge(p2, on="ekey", suffixes=("1", "2"))
    joined["ratio"] = np.minimum(joined["w1"], joined["w2"]) / np.maximum(
        joined["w1"], joined["w2"]
    )
    return (
        joined.groupby(["id1", "id2"])
        .agg(n_common=("ratio", "size"), ratio_sum=("ratio", "sum"))
        .reset_index()
        .rename(columns={"id1": "v1", "id2": "v2"})
    )


def graph_edges(
    texts1: pd.DataFrame,
    texts2: pd.DataFrame,
    kind: str,
    n: int,
    max_df_frac: float | None = 0.2,
) -> pd.DataFrame:
    """All four graph similarities in one inverted-index join.

    Returns a frame (v1, v2, containment, value, nvalue, overall) with
    one row per entity pair sharing at least one graph edge.
    """
    p1, p2 = _postings(texts1, kind, n), _postings(texts2, kind, n)
    codes, keys = pd.factorize(pd.concat([p1["ekey"], p2["ekey"]], ignore_index=True))
    p1["ekey"], p2["ekey"] = codes[: len(p1)], codes[len(p1):]
    sizes1, sizes2 = p1.groupby("id").size(), p2.groupby("id").size()

    if max_df_frac is not None:
        cap1 = max(2, int(max_df_frac * texts1.shape[0]))
        cap2 = max(2, int(max_df_frac * texts2.shape[0]))
        df1 = np.bincount(p1["ekey"], minlength=len(keys))
        df2 = np.bincount(p2["ekey"], minlength=len(keys))
        frequent = (df1 > cap1) & (df2 > cap2)
        p1 = p1[~frequent[p1["ekey"]]]
        p2 = p2[~frequent[p2["ekey"]]]

    pairs = _pair_sums(p1, p2)
    g1 = sizes1.loc[pairs["v1"]].to_numpy(np.float64)
    g2 = sizes2.loc[pairs["v2"]].to_numpy(np.float64)
    lo, hi = np.minimum(g1, g2), np.maximum(g1, g2)
    ratio_sum = pairs["ratio_sum"].to_numpy()
    out = pd.DataFrame(
        {
            "v1": pairs["v1"].to_numpy(np.int64),
            "v2": pairs["v2"].to_numpy(np.int64),
            "containment": pairs["n_common"].to_numpy() / lo,
            "value": ratio_sum / hi,
            "nvalue": ratio_sum / lo,
        }
    )
    out["overall"] = (out["containment"] + out["value"] + out["nvalue"]) / 3.0
    return out

"""N-gram graph model: entity-graph construction, hand-computed
similarities, python reference vs the in-process join, DuckDB-oracle
check of its ratio sums."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.simgraph.graph_model import (
    GRAPH_MEASURES,
    _pair_sums,
    graph_edges,
    graph_edges_of_text,
)


class TestEntityGraph:
    def test_token_window_one(self):
        g = graph_edges_of_text("a b c", "token", 1)
        assert g == {"a\x1fb": 1, "b\x1fc": 1}

    def test_window_two_connects_within_two_positions(self):
        # nodes are token 2-grams; window n=2 links grams <= 2 apart
        g = graph_edges_of_text("a b c d", "token", 2)
        assert g == {
            "a b\x1fb c": 1, "a b\x1fc d": 1, "b c\x1fc d": 1,
        }

    def test_cooccurrence_counts_accumulate(self):
        g = graph_edges_of_text("a b a b", "token", 1)
        assert g["a\x1fb"] == 3  # ab, ba (same undirected key), ab

    def test_undirected_key_sorted(self):
        g = graph_edges_of_text("b a", "token", 1)
        assert list(g) == ["a\x1fb"]

    def test_char_grams(self):
        g = graph_edges_of_text("abcd", "char", 3)
        # grams: abc, bcd -> one edge within window 3
        assert g == {"abc\x1fbcd": 1}

    def test_empty(self):
        assert graph_edges_of_text("", "token", 1) == {}


def ref_similarities(g1: dict, g2: dict) -> dict:
    common = set(g1) & set(g2)
    if not common:
        return None
    ratio = sum(min(g1[e], g2[e]) / max(g1[e], g2[e]) for e in common)
    cos = len(common) / min(len(g1), len(g2))
    vs = ratio / max(len(g1), len(g2))
    ns = ratio / min(len(g1), len(g2))
    return {
        "containment": cos, "value": vs, "nvalue": ns,
        "overall": (cos + vs + ns) / 3,
    }


T1 = pd.DataFrame(
    {"id": [0, 1], "text": ["red fast car goes", "blue slow boat sails away"]}
)
T2 = pd.DataFrame(
    {"id": [0, 1], "text": ["red fast car goes", "red fast cab goes far"]}
)


class TestSparkGraphSimilarities:
    """``graph_edges`` (named for the Spark join scorer it replaced)."""

    def test_identical_text_scores_one(self):
        e = graph_edges(T1, T2, "token", 1, max_df_frac=None).set_index(["v1", "v2"])
        for m in GRAPH_MEASURES:
            assert e.loc[(0, 0), m] == pytest.approx(1.0), m

    def test_matches_python_reference(self):
        got = (
            graph_edges(T1, T2, "char", 3, max_df_frac=None)
            .set_index(["v1", "v2"])
            .sort_index()
        )
        graphs1 = {i: graph_edges_of_text(t, "char", 3) for i, t in zip(T1["id"], T1["text"])}
        graphs2 = {j: graph_edges_of_text(t, "char", 3) for j, t in zip(T2["id"], T2["text"])}
        expected_keys = set()
        for i, g1 in graphs1.items():
            for j, g2 in graphs2.items():
                ref = ref_similarities(g1, g2)
                if ref is None:
                    continue
                expected_keys.add((i, j))
                for m in GRAPH_MEASURES:
                    assert got.loc[(i, j), m] == pytest.approx(ref[m]), (i, j, m)
        assert set(got.index) == expected_keys

    def test_df_cap_drops_ubiquitous_keys(self):
        # every entity shares 'x y'; with a tight cap that key vanishes
        t1 = pd.DataFrame({"id": range(6), "text": ["x y"] * 6})
        t2 = pd.DataFrame({"id": range(6), "text": ["x y"] * 6})
        uncapped = graph_edges(t1, t2, "token", 1, max_df_frac=None)
        capped = graph_edges(t1, t2, "token", 1, max_df_frac=0.5)
        assert len(uncapped) == 36
        assert len(capped) == 0

    def test_graph_sizes_count_capped_keys(self):
        # 'x y' is in every graph and capped away, but still counts in |G|
        texts = pd.DataFrame({"id": range(6), "text": [f"x y {c}" for c in "abcdef"]})
        e = graph_edges(texts, texts, "token", 1, max_df_frac=0.5)
        assert sorted(zip(e["v1"], e["v2"])) == [(i, i) for i in range(6)]
        assert (e["containment"] == 0.5).all()

    def test_join_aggregation_against_duckdb(self):
        """The join's ratio sums and common-key counts validated by the
        DuckDB oracle over the same postings."""
        rows = []
        for side, texts in (("1", T1), ("2", T2)):
            for eid, text in zip(texts["id"], texts["text"]):
                for k, w in graph_edges_of_text(text, "token", 1).items():
                    rows.append({"side": side, "id": eid, "ekey": k, "w": w})
        posts = pd.DataFrame(rows)
        p1, p2 = (
            posts[posts["side"] == side][["id", "ekey", "w"]] for side in ("1", "2")
        )
        assert_equivalent(
            _pair_sums(p1, p2),
            "SELECT p1.id AS v1, p2.id AS v2, count(*) AS n_common, "
            "sum(least(p1.w, p2.w) * 1.0 / greatest(p1.w, p2.w)) AS ratio_sum "
            "FROM p1 JOIN p2 USING (ekey) GROUP BY p1.id, p2.id",
            p1=p1,
            p2=p2,
        )

"""Vector-model similarities: hand-computed values, and every measure of
the float64 dense kernel checked against DuckDB SQL over the postings."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.simgraph.ngrams import grams
from repro.simgraph.vectors import VECTOR_MEASURES, VECTOR_MODELS, dense_vector_edges

T1 = pd.DataFrame({"id": [0, 1, 2], "text": ["red fast car", "blue boat", "red car"]})
T2 = pd.DataFrame({"id": [0, 1], "text": ["red fast car", "green bike"]})


def canon(pdf: pd.DataFrame) -> pd.DataFrame:
    return (
        pdf.sort_values(["v1", "v2"]).reset_index(drop=True).round(9)
    )


class TestDenseBasics:
    def test_identical_text_perfect_scores(self):
        e = dense_vector_edges(T1, T2, "token", 1).set_index(["v1", "v2"])
        assert e.loc[(0, 0), "cosine_tf"] == pytest.approx(1.0)
        assert e.loc[(0, 0), "jaccard"] == pytest.approx(1.0)

    def test_jaccard_hand_computed(self):
        # {red, car} / {red, fast, car} for pair (2, 0)
        e = dense_vector_edges(T1, T2, "token", 1).set_index(["v1", "v2"])
        assert e.loc[(2, 0), "jaccard"] == pytest.approx(2 / 3)

    def test_disjoint_pairs_absent(self):
        e = dense_vector_edges(T1, T2, "token", 1)
        assert (1, 0) not in set(zip(e["v1"], e["v2"]))

    def test_cosine_tf_hand_computed(self):
        # pair (2,0): tf2 = (1/2, 1/2) over {red, car}; tf0 = 1/3 each
        # dot = 2 * (1/2 * 1/3); norms: sqrt(1/2), sqrt(3)/3
        e = dense_vector_edges(T1, T2, "token", 1).set_index(["v1", "v2"])
        expected = (2 * (0.5 * (1 / 3))) / (np.sqrt(0.5) * np.sqrt(3 * (1 / 3) ** 2))
        assert e.loc[(2, 0), "cosine_tf"] == pytest.approx(expected, rel=1e-5)

    def test_empty_collection(self):
        empty = pd.DataFrame({"id": [], "text": []})
        e = dense_vector_edges(empty, T2, "token", 1)
        assert len(e) == 0

    def test_arcs_positive_on_common_support(self):
        e = dense_vector_edges(T1, T2, "char", 3)
        assert (e["arcs"] > 0).all()


def postings(kind: str, n: int) -> pd.DataFrame:
    """(side, id, gram, cnt) of T1 (side 1) and T2 (side 2)."""
    rows = [
        {"side": side, "id": eid, "gram": g}
        for side, texts in ((1, T1), (2, T2))
        for eid, text in zip(texts["id"], texts["text"])
        for g in grams(text, kind, n)
    ]
    return pd.DataFrame(rows).groupby(["side", "id", "gram"], as_index=False).size()


#: All four measures from the postings, the way the paper defines them.
DUCKDB_VECTOR_EDGES = """
WITH df AS (SELECT gram, count(*) FILTER (WHERE side = 1) AS df1,
                   count(*) FILTER (WHERE side = 2) AS df2
            FROM posts GROUP BY gram),
     w AS (SELECT side, id, gram, df1, df2,
                  size * 1.0 / sum(size) OVER (PARTITION BY side, id) AS tf,
                  ln($n_docs * 1.0 / (df1 + df2 + 1)) AS idf
           FROM posts JOIN df USING (gram)),
     norms AS (SELECT side, id, sqrt(sum(tf * tf)) AS ntf,
                      sqrt(sum(tf * idf * tf * idf)) AS nti, count(*) AS d
               FROM w GROUP BY side, id),
     pairs AS (SELECT a.id AS v1, b.id AS v2,
                      sum(a.tf * b.tf) AS dot_tf,
                      sum(a.tf * a.idf * b.tf * b.idf) AS dot_ti,
                      count(*) AS nc,
                      sum(ln(2) / ln(greatest(a.df1 * a.df2, 2))) AS arcs
               FROM w a JOIN w b ON a.gram = b.gram AND a.side = 1 AND b.side = 2
               GROUP BY a.id, b.id)
SELECT v1, v2, dot_tf / (n1.ntf * n2.ntf) AS cosine_tf,
       dot_ti / (n1.nti * n2.nti) AS cosine_tfidf,
       nc * 1.0 / (n1.d + n2.d - nc) AS jaccard, arcs
FROM pairs JOIN norms n1 ON n1.side = 1 AND n1.id = v1
           JOIN norms n2 ON n2.side = 2 AND n2.id = v2
"""


@pytest.mark.parametrize("kind,n", VECTOR_MODELS)
def test_spark_equals_dense(kind, n):
    """The dense kernel equals DuckDB SQL over the postings on every
    measure (named for the Spark join scorer this check once compared)."""
    con = duckdb.connect()
    try:
        con.register("posts", postings(kind, n))
        expected = con.execute(
            DUCKDB_VECTOR_EDGES, {"n_docs": len(T1) + len(T2)}
        ).fetchdf()
    finally:
        con.close()
    pd.testing.assert_frame_equal(
        canon(dense_vector_edges(T1, T2, kind, n))[["v1", "v2", *VECTOR_MEASURES]],
        canon(expected)[["v1", "v2", *VECTOR_MEASURES]],
        check_dtype=False,
        atol=1e-9,
    )


def test_inverted_index_join_against_duckdb():
    """The dense kernel's support and common-gram counts equal the
    inverted-index join of the postings, counted by DuckDB. The kernel's
    count is read back from its jaccard nc / (d1 + d2 - nc)."""
    posts = postings("token", 1)
    d = posts.groupby(["side", "id"]).size()
    got = dense_vector_edges(T1, T2, "token", 1)
    jac = got["jaccard"].to_numpy()
    dsum = d.loc[1].loc[got["v1"]].to_numpy() + d.loc[2].loc[got["v2"]].to_numpy()
    got = pd.DataFrame(
        {"v1": got["v1"], "v2": got["v2"], "n_common": np.rint(jac * dsum / (1 + jac))}
    )
    assert_equivalent(
        got,
        "SELECT a.id AS v1, b.id AS v2, count(*) AS n_common "
        "FROM posts a JOIN posts b ON a.gram = b.gram AND a.side = 1 AND b.side = 2 "
        "GROUP BY a.id, b.id",
        posts=posts,
    )


def test_spark_path_n_common_matches_duckdb_full_measure():
    """End-to-end jaccard of the dense kernel vs DuckDB-computed jaccard."""
    got = dense_vector_edges(T1, T2, "token", 1)
    rows = []
    for side, texts in (("1", T1), ("2", T2)):
        for eid, text in zip(texts["id"], texts["text"]):
            for g in set(grams(text, "token", 1)):
                rows.append({"side": side, "id": eid, "gram": g})
    posts = pd.DataFrame(rows)

    con = duckdb.connect()
    con.register("posts", posts)
    expected = con.execute(
        """
        WITH p1 AS (SELECT id AS v1, gram FROM posts WHERE side='1'),
             p2 AS (SELECT id AS v2, gram FROM posts WHERE side='2'),
             d1 AS (SELECT v1, count(*) AS d1 FROM p1 GROUP BY v1),
             d2 AS (SELECT v2, count(*) AS d2 FROM p2 GROUP BY v2),
             c AS (SELECT v1, v2, count(*) AS nc FROM p1 JOIN p2 USING (gram)
                   GROUP BY v1, v2)
        SELECT v1, v2, nc * 1.0 / (d1 + d2 - nc) AS jaccard
        FROM c JOIN d1 USING (v1) JOIN d2 USING (v2)
        """
    ).fetchdf()
    con.close()
    merged = got.merge(expected, on=["v1", "v2"], suffixes=("", "_duck"))
    assert len(merged) == len(got) == len(expected)
    assert np.allclose(merged["jaccard"], merged["jaccard_duck"])

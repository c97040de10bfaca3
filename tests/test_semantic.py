"""Semantic pseudo-embedding substitute: the properties the paper
relies on (dense scores, weak signal, order sensitivity for the
contextual model) plus basic correctness."""
import numpy as np
import pandas as pd
import pytest

from repro.simgraph.semantic import (
    SEMANTIC_MEASURES,
    SEMANTIC_MODELS,
    embed_text,
    semantic_edges,
    token_vector,
)


@pytest.mark.parametrize("model", SEMANTIC_MODELS)
class TestEmbeddings:
    def test_deterministic(self, model):
        a = embed_text("some product title", model)
        b = embed_text("some product title", model)
        assert np.allclose(a, b)

    def test_unit_norm(self, model):
        v = embed_text("hello world", model)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)

    def test_empty_text_zero_vector(self, model):
        assert not embed_text("", model).any()

    def test_shared_subwords_increase_similarity(self, model):
        base = embed_text("capacitor", model)
        close = embed_text("capacitors", model)
        far = embed_text("zyxwvu", model)
        assert float(base @ close) > float(base @ far)

    def test_token_vector_unit(self, model):
        assert np.linalg.norm(token_vector("word", model)) == pytest.approx(
            1.0, abs=1e-5
        )


class TestOrderSensitivity:
    def test_fasttext_is_order_insensitive(self):
        a = embed_text("red fast car", "fasttext")
        b = embed_text("car fast red", "fasttext")
        assert np.allclose(a, b, atol=1e-6)

    def test_albert_is_order_sensitive(self):
        a = embed_text("red fast car", "albert")
        b = embed_text("car fast red", "albert")
        assert not np.allclose(a, b, atol=1e-3)


class TestSemanticEdges:
    def _frames(self):
        t1 = pd.DataFrame({"id": [0, 1], "text": ["alpha beta", "gamma delta"]})
        t2 = pd.DataFrame({"id": [0, 1, 2], "text": ["alpha beta", "", "beta alpha"]})
        return t1, t2

    @pytest.mark.parametrize("model", SEMANTIC_MODELS)
    def test_full_cartesian_support(self, model):
        t1, t2 = self._frames()
        e = semantic_edges(t1, t2, model)
        assert len(e) == len(t1) * len(t2)
        assert set(e.columns) == {"v1", "v2", *SEMANTIC_MEASURES}

    def test_identical_text_is_top(self):
        t1, t2 = self._frames()
        e = semantic_edges(t1, t2, "fasttext").set_index(["v1", "v2"])
        assert e.loc[(0, 0), "cosine"] == pytest.approx(1.0, abs=1e-5)
        assert e.loc[(0, 0), "euclid_sim"] == pytest.approx(1.0, abs=1e-4)
        assert e.loc[(0, 0), "wms"] == pytest.approx(1.0, abs=1e-4)

    def test_empty_text_gets_zero_wms(self):
        t1, t2 = self._frames()
        e = semantic_edges(t1, t2, "fasttext").set_index(["v1", "v2"])
        assert e.loc[(0, 1), "wms"] == 0.0

    def test_wms_matches_bruteforce(self):
        """Chunked einsum rWMD == naive per-pair computation."""
        from repro.simgraph.semantic import token_matrix

        t1 = pd.DataFrame({"id": [0, 1], "text": ["red fast car", "one two"]})
        t2 = pd.DataFrame({"id": [0], "text": ["fast red cart"]})
        e = semantic_edges(t1, t2, "fasttext").set_index(["v1", "v2"])
        for i, text1 in zip(t1["id"], t1["text"]):
            m1 = token_matrix(text1, "fasttext")
            m2 = token_matrix("fast red cart", "fasttext")
            sim = m1 @ m2.T
            align = 0.5 * (sim.max(axis=1).mean() + sim.max(axis=0).mean())
            expected = 1.0 / (2.0 - np.clip(align, 0, 1))
            assert e.loc[(i, 0), "wms"] == pytest.approx(expected, abs=1e-5)

    def test_duplicate_scores_above_random_pairs(self):
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(list("abcdefgh"), 5)) for _ in range(20)]
        t1 = pd.DataFrame({"id": range(20), "text": texts})
        t2 = pd.DataFrame({"id": range(20), "text": texts})  # exact dups
        e = semantic_edges(t1, t2, "fasttext")
        dup = e[e.v1 == e.v2]["cosine"].mean()
        rest = e[e.v1 != e.v2]["cosine"].mean()
        assert dup > rest + 0.3


class TestEuclidPrecision:
    """``euclid_sim`` is the float64 norm of each difference, so it does
    not depend on how side 1 is split and is exactly 1 on identical text."""

    def _frames(self):
        from repro.datasets.generator import generate_pandas
        from repro.datasets.registry import SPECS
        from repro.simgraph.build import _texts_attribute

        df1, df2, _ = generate_pandas(SPECS["D1"])
        t1 = _texts_attribute(df1.head(30), "name")
        t2 = _texts_attribute(df2.head(40), "name")
        # the first 10 side-1 names also appear verbatim on side 2
        t2 = pd.concat(
            [t2, t1.head(10).assign(id=t1["id"].head(10) + 1000)], ignore_index=True
        )
        return t1, t2

    @pytest.mark.parametrize("model", SEMANTIC_MODELS)
    def test_identical_texts_score_exactly_one(self, model):
        t1, t2 = self._frames()
        e = semantic_edges(t1, t2, model).set_index(["v1", "v2"])
        for i in t1["id"].head(10):
            assert e.loc[(i, i + 1000), "euclid_sim"] == 1.0, i

    @pytest.mark.parametrize("model", SEMANTIC_MODELS)
    def test_row_blocks_equal_one_call(self, model):
        t1, t2 = self._frames()
        whole = semantic_edges(t1, t2, model)
        blocks = pd.concat(
            [
                semantic_edges(t1.iloc[lo : lo + 7], t2, model)
                for lo in range(0, len(t1), 7)
            ],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(
            whole, blocks, check_exact=False, rtol=0, atol=1e-12
        )

"""Unit tests for n-gram extraction and text normalisation."""
import numpy as np
import pandas as pd
import pytest

from repro.simgraph.ngrams import (
    char_ngrams,
    entity_text,
    gram_counts,
    grams,
    normalize,
    token_ngrams,
    tokens,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Joe Biden") == "joe biden"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b\n c ") == "a b c"

    def test_none_is_empty(self):
        assert normalize(None) == ""

    def test_nan_is_empty(self):
        assert normalize(float("nan")) == ""

    def test_numbers_stringified(self):
        assert normalize(42) == "42"


class TestCharNgrams:
    def test_paper_example(self):
        # "Joe Biden" -> 7 character 3-grams (paper Sec. 4)
        got = char_ngrams("Joe Biden", 3)
        assert got == ["joe", "oe ", "e b", " bi", "bid", "ide", "den"]
        assert len(got) == 7

    def test_short_string_yields_itself(self):
        assert char_ngrams("ab", 3) == ["ab"]

    def test_empty(self):
        assert char_ngrams("", 3) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count(self, n):
        s = "abcdefgh"
        assert len(char_ngrams(s, n)) == len(s) - n + 1


class TestTokenNgrams:
    def test_unigrams_are_tokens(self):
        assert token_ngrams("red Fast car", 1) == ["red", "fast", "car"]

    def test_bigrams(self):
        assert token_ngrams("a b c", 2) == ["a b", "b c"]

    def test_fewer_tokens_than_n(self):
        assert token_ngrams("solo", 2) == ["solo"]

    def test_tokens_empty(self):
        assert tokens("") == [] and tokens(None) == []


class TestGramsDispatch:
    def test_char(self):
        assert grams("abc", "char", 2) == ["ab", "bc"]

    def test_token(self):
        assert grams("a b", "token", 1) == ["a", "b"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            grams("x", "byte", 2)


class TestEntityText:
    def test_concatenates_values_skipping_id_and_none(self):
        row = pd.Series({"id": 7, "name": "Joe", "phone": None, "city": "NYC"})
        assert entity_text(row) == "joe nyc"

    def test_dict_input(self):
        assert entity_text({"id": 1, "a": "X", "b": "y"}) == "x y"


def test_gram_counts_sorted_long_form_and_shared_columns():
    """Entries sorted by bag, then by gram over one sorted vocabulary
    ({a, b, c, d}); shared maps the grams of both sides (a, c) to 0, 1."""
    s1, s2, shared = gram_counts([["c", "a", "c"], [], ["d"]], [["a", "b"], ["c"]])
    assert [s1.rows.tolist(), s1.cols.tolist(), s1.cnt.tolist()] == [
        [0, 0, 2], [0, 2, 3], [1, 2, 1]
    ]
    assert [s2.rows.tolist(), s2.cols.tolist(), s2.cnt.tolist()] == [
        [0, 0, 1], [0, 1, 2], [1, 1, 1]
    ]
    assert shared.tolist() == [0, -1, 1, -1]
    np.testing.assert_array_equal(s1.on_shared(s1.cnt, shared), [[1, 2], [0, 0], [0, 0]])

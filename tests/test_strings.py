"""Schema-based measure kernels vs independent pure-python references."""
from itertools import product

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simgraph.ngrams import normalize, tokens
from repro.simgraph.strings import (
    _MAX_LEN,
    SCHEMA_BASED_MEASURES,
    TOKEN_MEASURES,
    jaro,
    schema_based_batch,
    schema_based_edges,
)

from .string_oracles import jaro as scalar_jaro
from .string_oracles import monge_elkan, qgrams_sim, token_measures

WORDS = st.text(alphabet="abcdef ", min_size=0, max_size=18)


# ---------------------------------------------------------------- references
def ref_levenshtein(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
    return dp[len(b)]


def ref_osa(a: str, b: str) -> int:
    rows = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = a[i - 1] != b[j - 1]
            rows[i][j] = min(
                rows[i - 1][j] + 1, rows[i][j - 1] + 1, rows[i - 1][j - 1] + cost
            )
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                rows[i][j] = min(rows[i][j], rows[i - 2][j - 2] + 1)
    return rows[len(a)][len(b)]


def ref_lcs_seq(a: str, b: str) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = (
                dp[i - 1][j - 1] + 1
                if a[i - 1] == b[j - 1]
                else max(dp[i - 1][j], dp[i][j - 1])
            )
    return dp[len(a)][len(b)]


def ref_lcs_str(a: str, b: str) -> int:
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            best = max(best, k)
    return best


def ref_nw(a: str, b: str) -> int:
    """match 0, mismatch -1, gap -2; maximisation."""
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        dp[i][0] = -2 * i
    for j in range(1, len(b) + 1):
        dp[0][j] = -2 * j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = max(
                dp[i - 1][j] - 2,
                dp[i][j - 1] - 2,
                dp[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else -1),
            )
    return dp[len(a)][len(b)]


PAIRS = [
    ("kitten", "sitting"),
    ("abcdef", "abcdef"),
    ("ca", "abc"),
    ("", "abc"),
    ("martha", "marhta"),
    ("dixon", "dicksonx"),
    ("red fast car", "fast red car"),
    ("aa bb", "aa bb cc"),
]


@pytest.mark.parametrize("a,b", PAIRS)
class TestEditFamilyAgainstReferences:
    def _row(self, a, b):
        return schema_based_batch([a], [b]).iloc[0]

    def test_levenshtein(self, a, b):
        ml = max(len(a.lower().strip()), len(b.lower().strip()), 1)
        expected = 1 - ref_levenshtein(a.lower(), b.lower()) / ml
        assert self._row(a, b)["levenshtein"] == pytest.approx(max(expected, 0), abs=1e-6)

    def test_damerau(self, a, b):
        ml = max(len(a), len(b), 1)
        expected = 1 - ref_osa(a.lower(), b.lower()) / ml
        assert self._row(a, b)["damerau"] == pytest.approx(max(expected, 0), abs=1e-6)

    def test_lcs_seq(self, a, b):
        ml = max(len(a), len(b), 1)
        expected = ref_lcs_seq(a.lower(), b.lower()) / ml
        assert self._row(a, b)["lcs_seq"] == pytest.approx(expected, abs=1e-6)

    def test_lcs_str(self, a, b):
        ml = max(len(a), len(b), 1)
        expected = ref_lcs_str(a.lower(), b.lower()) / ml
        assert self._row(a, b)["lcs_str"] == pytest.approx(expected, abs=1e-6)

    def test_needleman_wunsch(self, a, b):
        ml = max(len(a), len(b), 1)
        expected = min(max(1 + ref_nw(a.lower(), b.lower()) / (2 * ml), 0.0), 1.0)
        if not a or not b:
            expected = 0.0 if (not a and not b) else expected
        assert self._row(a, b)["needleman_wunsch"] == pytest.approx(
            expected, abs=1e-6
        )


class TestJaro:
    def test_known_values(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944444, abs=1e-4)
        assert jaro("dixon", "dicksonx") == pytest.approx(0.766667, abs=1e-4)
        assert jaro("same", "same") == 1.0
        assert jaro("", "x") == 0.0

    def test_symmetry(self):
        assert jaro("crate", "trace") == pytest.approx(jaro("trace", "crate"))


@given(a=WORDS, b=WORDS)
@settings(max_examples=60, deadline=None)
def test_batch_matches_reference_on_random_pairs(a, b):
    row = schema_based_batch([a], [b]).iloc[0]
    an, bn = " ".join(a.split()).lower(), " ".join(b.split()).lower()
    ml = max(len(an), len(bn), 1)
    if an or bn:
        assert row["levenshtein"] == pytest.approx(
            max(1 - ref_levenshtein(an, bn) / ml, 0), abs=1e-6
        )
        assert row["lcs_str"] == pytest.approx(ref_lcs_str(an, bn) / ml, abs=1e-6)
    else:
        assert row["levenshtein"] == 0.0


@given(a=WORDS, b=WORDS)
@settings(max_examples=40, deadline=None)
def test_all_measures_bounded(a, b):
    row = schema_based_batch([a], [b])
    for m in SCHEMA_BASED_MEASURES:
        v = float(row[m].iloc[0])
        assert 0.0 <= v <= 1.0 + 1e-9, m


def test_batch_handles_none_values():
    out = schema_based_batch([None, "abc"], ["abc", None])
    assert (out.iloc[0] == 0).all() and (out.iloc[1] == 0).all()


def test_identical_strings_score_one():
    row = schema_based_batch(["exact same value"], ["exact same value"]).iloc[0]
    for m in SCHEMA_BASED_MEASURES:
        assert row[m] == pytest.approx(1.0), m


def test_long_strings_truncated_consistently():
    long = "x" * 100
    row = schema_based_batch([long], [long]).iloc[0]
    assert row["levenshtein"] == 1.0


# Values with repeated tokens and trigrams, one character, empty and None.
VALUES = st.one_of(
    st.sampled_from(
        ["cheap cheap", "aaaaaaa", "a", "", "  ", None, "red car cheap cheap", "b a b a"]
    ),
    st.text(alphabet="ab c", max_size=12),
)


@given(pairs=st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=6))
@example(pairs=[("cheap cheap", "cheap"), ("aaaaaaa", "aaaa"), ("a", None), ("", "a")])
@example(pairs=[("b a", "a"), ("a", "a"), ("b a", "a"), ("a", "b a")])
@settings(max_examples=60, deadline=None)
def test_count_measures_and_monge_elkan_equal_oracles(pairs):
    """q-grams and the eight token measures equal the per-pair Counter
    oracles, and a pair list that is no cross product (any order,
    repeated values) equals scoring each pair alone."""
    left, right = [a for a, _ in pairs], [b for _, b in pairs]
    out = schema_based_batch(left, right)
    for k, (a, b) in enumerate(pairs):
        a, b = normalize(a), normalize(b)
        expected = {"qgrams": qgrams_sim(a, b), **token_measures(a, b)}
        for m in ["qgrams", *TOKEN_MEASURES]:
            assert out.loc[k, m] == pytest.approx(expected[m], rel=0, abs=1e-12), m
        alone = schema_based_batch([pairs[k][0]], [pairs[k][1]])
        np.testing.assert_allclose(
            out.loc[[k], SCHEMA_BASED_MEASURES].to_numpy(), alone.to_numpy(),
            rtol=0, atol=1e-12,
        )


def test_edges_rows_are_the_flattened_cross_product():
    t1 = pd.DataFrame({"id": [7, 3], "text": ["red car", ""]})
    t2 = pd.DataFrame({"id": [10, 2, 5], "text": ["car", "red car", "aaaa"]})
    wide = schema_based_edges(t1, t2)
    assert list(wide.columns) == ["v1", "v2", *SCHEMA_BASED_MEASURES]
    assert wide["v1"].tolist() == [7, 7, 7, 3, 3, 3]
    assert wide["v2"].tolist() == [10, 2, 5, 10, 2, 5]
    for k, (a, b) in enumerate((a, b) for a in t1["text"] for b in t2["text"]):
        np.testing.assert_array_equal(
            wide.loc[k, SCHEMA_BASED_MEASURES].to_numpy(np.float64),
            schema_based_batch([a], [b]).iloc[0].to_numpy(np.float64),
        )


# Values of 0-40 characters: many short tokens, or one or two tokens of up
# to 34 characters, so that lengths cross _MAX_LEN.
BATCH_VALUES = st.one_of(
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=10),
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=34), max_size=2),
).map(lambda toks: normalize(" ".join(toks)[:40]))
SIDE = st.one_of(
    st.lists(BATCH_VALUES, min_size=1, max_size=6),
    st.lists(st.just(""), min_size=1, max_size=3),  # every value empty
)
LONG, MANY = "abcdabcdabcdabcdabcdabcdabcdabcdab", "a b c d a b c d a"


def _expected(a: str, b: str) -> dict[str, float]:
    """The scalar references on the characters the kernel reads; 0 for
    two empty values."""
    a, b = a[:_MAX_LEN], b[:_MAX_LEN]
    ml = max(len(a), len(b), 1)
    sims = {
        "levenshtein": 1 - ref_levenshtein(a, b) / ml,
        "damerau": 1 - ref_osa(a, b) / ml,
        "needleman_wunsch": min(max(1 + ref_nw(a, b) / (2 * ml), 0.0), 1.0),
        "lcs_seq": ref_lcs_seq(a, b) / ml,
        "lcs_str": ref_lcs_str(a, b) / ml,
    }
    return sims if a or b else dict.fromkeys(sims, 0.0)


@given(side1=SIDE, side2=SIDE)
@example(side1=[LONG, MANY, "ab", ""], side2=["", "", ""])
@example(side1=["", ""], side2=[LONG[:29], LONG[:30], LONG[:31], LONG + " " + MANY[:5]])
@example(side1=[MANY, LONG + " a"], side2=[MANY[::-1], "dcba" * 10])
@example(side1=["", LONG, "b", ""], side2=["dcba" * 10, "", MANY, ""])
@settings(max_examples=60, deadline=None)
def test_batched_edit_jaro_and_monge_elkan_equal_scalar_references(side1, side2):
    """Over batches that mix value lengths across _MAX_LEN, the five DP
    columns equal the scalar DPs above, and Jaro and Monge-Elkan equal
    the frozen scalar oracles bit for bit."""
    wide = schema_based_edges(
        *(pd.DataFrame({"id": np.arange(len(s)), "text": s}) for s in (side1, side2))
    )
    for k, (a, b) in enumerate(product(side1, side2)):
        row = wide.iloc[k]
        for m, want in _expected(a, b).items():
            assert row[m] == pytest.approx(want, rel=0, abs=1e-6), (m, a, b)
        assert row["jaro"] == scalar_jaro(a[:_MAX_LEN], b[:_MAX_LEN]), (a, b)
        assert row["tok_monge_elkan"] == monge_elkan(tokens(a), tokens(b)), (a, b)

"""Schema-based syntactic similarity measures (paper App. B.1).

Character-level: Levenshtein, Damerau-Levenshtein (OSA), Jaro,
Needleman-Wunsch (match 0 / mismatch -1 / gap -2, as in Simmetrics),
q-grams distance (Block distance over char trigram profiles), Longest
Common Subsequence and Longest Common Substring — all normalised to
[0, 1] similarities.

Token-level: Cosine, Dice, Jaccard, Generalized Jaccard, Overlap
coefficient, Block distance, Euclidean distance (as 1/(1+d)) and
Monge-Elkan. Monge-Elkan's secondary word similarity is Jaro (the
paper uses optimised Smith-Waterman; Jaro is the standard cheap
substitute — documented in DESIGN.md).

The DP measures are numpy-vectorised over a *batch* of string pairs
(the batch axis is the vector lane; the DP grid is looped), which is
what makes the paper's no-blocking all-pairs computation tractable.
``simgraph.build`` scores all pairs in one Spark job over side 1: each
task pairs its slice of side-1 values with every side-2 value and calls
:func:`schema_based_batch` on at most 10,000 pairs at a time. Jaro,
q-grams and the token measures are still per-pair Python loops.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from .ngrams import char_ngrams, normalize, tokens

CHAR_MEASURES = [
    "levenshtein",
    "damerau",
    "jaro",
    "needleman_wunsch",
    "qgrams",
    "lcs_seq",
    "lcs_str",
]
TOKEN_MEASURES = [
    "tok_cosine",
    "tok_dice",
    "tok_jaccard",
    "tok_genjaccard",
    "tok_overlap",
    "tok_block",
    "tok_euclid",
    "tok_monge_elkan",
]
SCHEMA_BASED_MEASURES = CHAR_MEASURES + TOKEN_MEASURES


def _encode(strings: list[str], max_len: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width int codes (batch, max_len) + true lengths."""
    n = len(strings)
    out = np.full((n, max_len), pad, dtype=np.int32)
    lens = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(strings):
        s = s[:max_len]
        lens[i] = len(s)
        if s:
            out[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)[
                : len(s)
            ].astype(np.int32)
    return out, lens


def _edit_family(
    a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray
) -> dict[str, np.ndarray]:
    """Batched DP for Levenshtein, Damerau(OSA), NW, LCS-seq, LCS-str."""
    n, l1 = a.shape
    l2 = b.shape[1]
    eq = a[:, :, None] == b[:, None, :]  # (n, l1, l2)

    big = np.float32(1e9)
    # Levenshtein / Damerau rows
    lev_prev = np.tile(np.arange(l2 + 1, dtype=np.float32), (n, 1))
    dam_prev = lev_prev.copy()
    dam_prev2 = None
    nw_prev = np.tile(np.arange(0, -2 * (l2 + 1), -2, dtype=np.float32), (n, 1))
    seq_prev = np.zeros((n, l2 + 1), dtype=np.float32)
    str_prev = np.zeros((n, l2), dtype=np.float32)

    lev_out = np.where(lb == 0, la, 0).astype(np.float32)
    dam_out = lev_out.copy()
    nw_out = (-2.0 * np.where(lb == 0, la, 0)).astype(np.float32)
    seq_out = np.zeros(n, dtype=np.float32)
    str_best = np.zeros(n, dtype=np.float32)
    # row 0 boundary extraction for pairs with la == 0
    zero_a = la == 0
    lev_out = np.where(zero_a, lb, lev_out).astype(np.float32)
    dam_out = np.where(zero_a, lb, dam_out).astype(np.float32)
    nw_out = np.where(zero_a, -2.0 * lb, nw_out).astype(np.float32)

    for i in range(1, l1 + 1):
        eq_i = eq[:, i - 1, :]  # (n, l2)
        lev_cur = np.empty_like(lev_prev)
        dam_cur = np.empty_like(dam_prev)
        nw_cur = np.empty_like(nw_prev)
        seq_cur = np.empty_like(seq_prev)
        lev_cur[:, 0] = i
        dam_cur[:, 0] = i
        nw_cur[:, 0] = -2.0 * i
        seq_cur[:, 0] = 0.0
        for j in range(1, l2 + 1):
            e = eq_i[:, j - 1]
            sub = np.where(e, 0.0, 1.0).astype(np.float32)
            lev_cur[:, j] = np.minimum(
                np.minimum(lev_prev[:, j] + 1.0, lev_cur[:, j - 1] + 1.0),
                lev_prev[:, j - 1] + sub,
            )
            d = np.minimum(
                np.minimum(dam_prev[:, j] + 1.0, dam_cur[:, j - 1] + 1.0),
                dam_prev[:, j - 1] + sub,
            )
            if i > 1 and j > 1 and dam_prev2 is not None:
                trans = (
                    (a[:, i - 1] == b[:, j - 2])
                    & (a[:, i - 2] == b[:, j - 1])
                )
                d = np.where(trans, np.minimum(d, dam_prev2[:, j - 2] + 1.0), d)
            dam_cur[:, j] = d
            nw_cur[:, j] = np.maximum(
                np.maximum(nw_prev[:, j] - 2.0, nw_cur[:, j - 1] - 2.0),
                nw_prev[:, j - 1] + np.where(e, 0.0, -1.0).astype(np.float32),
            )
            seq_cur[:, j] = np.where(
                e,
                seq_prev[:, j - 1] + 1.0,
                np.maximum(seq_prev[:, j], seq_cur[:, j - 1]),
            )
        # LCS-substring: fully vectorised over j
        str_cur = np.zeros((n, l2), dtype=np.float32)
        str_cur[:, 0] = np.where(eq_i[:, 0], 1.0, 0.0)
        str_cur[:, 1:] = np.where(eq_i[:, 1:], str_prev[:, :-1] + 1.0, 0.0)
        # mask positions beyond the true length of b
        valid_b = np.arange(l2)[None, :] < lb[:, None]
        str_best = np.maximum(
            str_best, np.where(valid_b, str_cur, 0.0).max(axis=1)
        )
        str_prev = str_cur

        at_end = la == i
        cols = np.minimum(lb, l2)
        take = lambda m: m[np.arange(n), cols]  # noqa: E731
        lev_out = np.where(at_end, take(lev_cur), lev_out)
        dam_out = np.where(at_end, take(dam_cur), dam_out)
        nw_out = np.where(at_end, take(nw_cur), nw_out)
        seq_out = np.where(at_end, take(seq_cur), seq_out)
        dam_prev2 = dam_prev
        lev_prev, dam_prev, nw_prev, seq_prev = lev_cur, dam_cur, nw_cur, seq_cur

    ml = np.maximum(np.maximum(la, lb), 1).astype(np.float32)
    sims = {
        "levenshtein": 1.0 - lev_out / ml,
        "damerau": 1.0 - dam_out / ml,
        "needleman_wunsch": np.clip(1.0 + nw_out / (2.0 * ml), 0.0, 1.0),
        "lcs_seq": seq_out / ml,
        "lcs_str": str_best / ml,
    }
    both_empty = (la == 0) & (lb == 0)
    for k in sims:
        sims[k] = np.where(both_empty, 0.0, np.clip(sims[k], 0.0, 1.0))
    return sims


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity of two strings."""
    if not s1 or not s2:
        return 0.0
    if s1 == s2:
        return 1.0
    window = max(len(s1), len(s2)) // 2 - 1
    window = max(window, 0)
    match1 = [False] * len(s1)
    match2 = [False] * len(s2)
    m = 0
    for i, c in enumerate(s1):
        lo, hi = max(0, i - window), min(len(s2), i + window + 1)
        for j in range(lo, hi):
            if not match2[j] and s2[j] == c:
                match1[i] = match2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    k = t = 0
    for i, c in enumerate(s1):
        if match1[i]:
            while not match2[k]:
                k += 1
            if c != s2[k]:
                t += 1
            k += 1
    t //= 2
    return (m / len(s1) + m / len(s2) + (m - t) / m) / 3.0


def _qgrams_sim(s1: str, s2: str, q: int = 3) -> float:
    """Block distance over char q-gram profiles, as a similarity."""
    c1 = Counter(char_ngrams(s1, q))
    c2 = Counter(char_ngrams(s2, q))
    n1, n2 = sum(c1.values()), sum(c2.values())
    if n1 + n2 == 0:
        return 0.0
    l1 = sum(abs(c1[g] - c2[g]) for g in set(c1) | set(c2))
    return 1.0 - l1 / (n1 + n2)


def _token_measures(s1: str, s2: str) -> dict[str, float]:
    """All eight token-level schema-based measures for one pair."""
    t1, t2 = tokens(s1), tokens(s2)
    out = dict.fromkeys(TOKEN_MEASURES, 0.0)
    if not t1 or not t2:
        return out
    c1, c2 = Counter(t1), Counter(t2)
    set1, set2 = set(c1), set(c2)
    inter = set1 & set2
    dot = sum(c1[g] * c2[g] for g in inter)
    norm1 = sum(v * v for v in c1.values()) ** 0.5
    norm2 = sum(v * v for v in c2.values()) ** 0.5
    out["tok_cosine"] = dot / (norm1 * norm2) if dot else 0.0
    out["tok_dice"] = 2 * len(inter) / (len(set1) + len(set2))
    out["tok_jaccard"] = len(inter) / len(set1 | set2)
    smin = sum(min(c1[g], c2[g]) for g in inter)
    smax = sum(c1.values()) + sum(c2.values()) - smin
    out["tok_genjaccard"] = smin / smax if smax else 0.0
    out["tok_overlap"] = len(inter) / min(len(set1), len(set2))
    l1 = sum(abs(c1[g] - c2[g]) for g in set1 | set2)
    out["tok_block"] = 1.0 - l1 / (sum(c1.values()) + sum(c2.values()))
    eu = sum((c1[g] - c2[g]) ** 2 for g in set1 | set2) ** 0.5
    out["tok_euclid"] = 1.0 / (1.0 + eu)
    me = sum(max(jaro(w1, w2) for w2 in t2) for w1 in t1) / len(t1)
    out["tok_monge_elkan"] = me
    return out


def schema_based_batch(
    values1: list[str], values2: list[str], max_len: int = 30
) -> pd.DataFrame:
    """All 15 schema-based measures for a batch of value pairs.

    Inputs are raw attribute values (may be None); output has one row
    per input pair with one column per measure in
    ``SCHEMA_BASED_MEASURES``.
    """
    s1 = [normalize(v) for v in values1]
    s2 = [normalize(v) for v in values2]
    a, la = _encode(s1, max_len, pad=-1)
    b, lb = _encode(s2, max_len, pad=-2)
    sims = _edit_family(a, la, b, lb)
    sims["jaro"] = np.array(
        [jaro(x[:max_len], y[:max_len]) for x, y in zip(s1, s2)], dtype=np.float64
    )
    sims["qgrams"] = np.array(
        [_qgrams_sim(x, y) for x, y in zip(s1, s2)], dtype=np.float64
    )
    tok = [_token_measures(x, y) for x, y in zip(s1, s2)]
    for m in TOKEN_MEASURES:
        sims[m] = np.array([r[m] for r in tok], dtype=np.float64)
    return pd.DataFrame({m: np.asarray(sims[m], dtype=np.float64) for m in SCHEMA_BASED_MEASURES})

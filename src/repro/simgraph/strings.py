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

:func:`schema_based_edges` scores every pair of two ``(id, text)``
frames. q-grams and the token measures but Monge-Elkan come from count
matrices over the grams both sides share (``ngrams.gram_counts``). The
DP measures are numpy-vectorised over ``_STRING_BATCH`` flattened pairs
at a time (the batch axis is the vector lane; the DP grid is looped);
Jaro and Monge-Elkan are per-pair Python loops.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .ngrams import char_ngrams, gram_counts, normalize, tokens

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


#: Characters of a value that the edit DP and Jaro read.
_MAX_LEN = 30
#: Pairs per ``_edit_family`` call, which bounds its DP arrays.
_STRING_BATCH = 10_000


def _encode(strings: list[str], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width int codes (batch, _MAX_LEN) + true lengths."""
    n = len(strings)
    out = np.full((n, _MAX_LEN), pad, dtype=np.int32)
    lens = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(strings):
        s = s[:_MAX_LEN]
        lens[i] = len(s)
        if s:
            out[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
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

    # row 0 boundary for pairs with la == 0; the others are set at row la
    lev_out = lb.astype(np.float32)
    dam_out = lev_out.copy()
    nw_out = (-2.0 * lb).astype(np.float32)
    seq_out = np.zeros(n, dtype=np.float32)
    str_best = np.zeros(n, dtype=np.float32)

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
            if i > 1 and j > 1:
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
        take = lambda m: m[np.arange(n), lb]  # noqa: E731
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


def _count_measures(bags1: list[list[str]], bags2: list[list[str]]) -> dict:
    """The seven token measures that depend only on gram counts, for
    every pair of bags, side-1 major; 0 for pairs with an empty bag.
    Over char trigrams, ``tok_block`` is the q-grams measure.

    The pair statistics come from count matrices over the grams both
    sides share. Each is an integer, so the float64 matmuls are exact.
    """
    g1, g2, shared = gram_counts(bags1, bags2)
    c1, c2 = g1.on_shared(g1.cnt, shared), g2.on_shared(g2.cnt, shared)
    dot = c1 @ c2.T
    # Σ_g min(c1, c2) = Σ_k #{g : c1 >= k and c2 >= k}; k = 1 counts the
    # shared grams (with none, dot is the zero matrix)
    top = int(min(c1.max(initial=0), c2.max(initial=0)))
    at_least = [(c1 >= k) * 1.0 @ (c2 >= k).T for k in range(1, top + 1)] or [dot]
    smin, inter = sum(at_least), at_least[0]
    # per bag: size, sum of squared counts, distinct grams
    (n1, sq1, d1), (n2, sq2, d2) = (
        [np.bincount(g.rows, g.cnt**p, g.n_rows)[axis] for p in (1, 2, 0)]
        for g, axis in ((g1, np.s_[:, None]), (g2, np.s_[None, :]))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = {
            "tok_cosine": np.where(dot > 0, dot / (np.sqrt(sq1) * np.sqrt(sq2)), 0.0),
            "tok_dice": 2.0 * inter / (d1 + d2),
            "tok_jaccard": inter / (d1 + d2 - inter),
            "tok_genjaccard": smin / (n1 + n2 - smin),
            "tok_overlap": inter / np.minimum(d1, d2),
            "tok_block": 1.0 - (n1 + n2 - 2.0 * smin) / (n1 + n2),
            "tok_euclid": 1.0 / (1.0 + np.sqrt(sq1 + sq2 - 2.0 * dot)),
        }
    return {m: np.where((n1 > 0) & (n2 > 0), v, 0.0).ravel() for m, v in sims.items()}


def _monge_elkan(t1: list[str], t2: list[str]) -> float:
    """Mean over the tokens of ``t1`` of their best Jaro match in ``t2``."""
    if not t1 or not t2:
        return 0.0
    return sum(max(jaro(w1, w2) for w2 in t2) for w1 in t1) / len(t1)


def schema_based_edges(texts1: pd.DataFrame, texts2: pd.DataFrame) -> pd.DataFrame:
    """All 15 schema-based measures for every pair of two ``(id, text)``
    frames of normalised values.

    One row per pair, side-1 major (row ``i * len(texts2) + j``): ``v1``,
    ``v2`` and one column per measure in ``SCHEMA_BASED_MEASURES``.
    """
    s1, s2 = list(texts1["text"]), list(texts2["text"])
    n1, n2 = len(s1), len(s2)
    tok1, tok2 = [tokens(t) for t in s1], [tokens(t) for t in s2]
    trigrams = ([char_ngrams(t, 3) for t in s] for s in (s1, s2))
    sims = _count_measures(tok1, tok2)
    sims["qgrams"] = _count_measures(*trigrams)["tok_block"]
    sims.update((m, np.empty(n1 * n2)) for m in set(SCHEMA_BASED_MEASURES) - set(sims))

    (a, la), (b, lb) = _encode(s1, pad=-1), _encode(s2, pad=-2)
    cut1, cut2 = [t[:_MAX_LEN] for t in s1], [t[:_MAX_LEN] for t in s2]
    for lo in range(0, n1 * n2, _STRING_BATCH):
        i, j = np.divmod(np.arange(lo, min(lo + _STRING_BATCH, n1 * n2)), n2)
        part = _edit_family(a[i], la[i], b[j], lb[j])
        pairs = list(zip(i.tolist(), j.tolist()))
        part["jaro"] = [jaro(cut1[x], cut2[y]) for x, y in pairs]
        part["tok_monge_elkan"] = [_monge_elkan(tok1[x], tok2[y]) for x, y in pairs]
        for m, v in part.items():
            sims[m][lo : lo + len(pairs)] = v
    return pd.DataFrame(
        {
            "v1": np.repeat(texts1["id"].to_numpy(np.int64), n2),
            "v2": np.tile(texts2["id"].to_numpy(np.int64), n1),
            **{m: sims[m] for m in SCHEMA_BASED_MEASURES},
        }
    )


def schema_based_batch(values1: list, values2: list) -> pd.DataFrame:
    """All 15 schema-based measures for a list of value pairs.

    Inputs are raw attribute values (may be None); output has one row
    per pair ``(values1[k], values2[k])``, one column per measure. It
    scores the cross product of each side's distinct normalised values,
    so it suits cross products and short lists.
    """
    (c1, u1), (c2, u2) = (
        pd.factorize(np.array([normalize(v) for v in vals], dtype=object))
        for vals in (values1, values2)
    )
    wide = schema_based_edges(
        *(pd.DataFrame({"id": np.arange(len(u)), "text": u}) for u in (u1, u2))
    )
    return wide.iloc[c1 * len(u2) + c2][SCHEMA_BASED_MEASURES].reset_index(drop=True)

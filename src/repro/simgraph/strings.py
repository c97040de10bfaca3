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
five edit DPs and Jaro run over ``_STRING_BATCH`` flattened pairs at a
time, on a grid as wide as the batch's longest value: both take one step
per character position of the side-1 values, each step a few numpy ops
over all pairs of the batch; within a DP step the running min or max
along the side-2 positions is one in-place ufunc call per position.
Monge-Elkan reads one Jaro table over the distinct tokens of both sides.
No Python loop runs per pair or per cell.
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
#: Pairs per kernel call, which bounds the DP and Jaro arrays.
_STRING_BATCH = 10_000


def _padded(flat: np.ndarray, lens: np.ndarray, pad: int) -> np.ndarray:
    """``flat`` cut into consecutive pieces of ``lens``, laid out
    (position, piece), as long as the longest piece, padded with ``pad``."""
    out = np.full((len(lens), lens.max(initial=0)), pad, dtype=flat.dtype)
    out[np.arange(out.shape[1]) < lens[:, None]] = flat
    return out.T.copy()


def _encode(strings: list[str], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Code points laid out (position, string), padded with ``pad``, and
    the lengths."""
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    codes = np.frombuffer("".join(strings).encode("utf-32-le"), dtype=np.int32)
    return _padded(codes, lens, pad), lens


def _cross_batches(n1: int, n2: int):
    """``(lo, i, j)``: the side-1-major pairs ``lo, lo + 1, ...`` of an
    ``n1 x n2`` cross product as index arrays, ``_STRING_BATCH`` at a time."""
    for lo in range(0, n1 * n2, _STRING_BATCH):
        yield lo, *np.divmod(np.arange(lo, min(lo + _STRING_BATCH, n1 * n2)), n2)


def _edit_family(
    a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray
) -> dict[str, np.ndarray]:
    """Levenshtein, Damerau (OSA), NW, LCS-seq and LCS-str of every pair
    ``(a[:, k], b[:, k])`` of encoded strings.

    The DP runs one row per position of ``a``, each row laid out as
    (position in b, pair). With x[j] the best of a cell's candidates
    from the row above, its left neighbour makes the row a running min
    or max: Levenshtein and OSA cur[j] = j + min_{k<=j}(x[k] - k), NW
    cur[j] = -2j + max_{k<=j}(x[k] + 2k), LCS-seq a plain running max.
    The running min or max is taken in place, one position of b after
    the other, each step one ufunc call over all pairs. Every cell is a
    small integer in float32, so all of this is exact.
    """
    n = len(la)
    a, b = a[: la.max(initial=0)], b[: lb.max(initial=0)]
    j = np.arange(len(b) + 1, dtype=np.float32)[:, None]

    def along_b(first, x, running, slope):  # the row from its column 0 and x[1:]
        x = np.concatenate((np.full((1, n), first, np.float32), x)) - slope * j
        for k in range(1, len(x)):  # one call per position, over all pairs
            running(x[k - 1], x[k], out=x[k])
        x += slope * j
        return x

    lev = dam = np.repeat(j, n, axis=1)
    nw, seq = -2 * lev, np.zeros_like(lev)
    run = np.zeros_like(lev)  # LCS-str: the common run ending at each cell
    best = np.zeros(n, dtype=np.float32)
    names = ("levenshtein", "damerau", "needleman_wunsch", "lcs_seq")
    out = {m: np.empty(n, dtype=np.float32) for m in names}
    for i in range(len(a) + 1):
        if i:
            eq = b == a[i - 1]
            sub = (~eq).astype(np.float32)
            lev = along_b(i, np.minimum(lev[1:] + 1, lev[:-1] + sub), np.minimum, 1)
            x = np.minimum(dam[1:] + 1, dam[:-1] + sub)
            if i > 1:  # OSA: a[i-2:i] and b[j-2:j] transposed
                swap = (b[:-1] == a[i - 1]) & (b[1:] == a[i - 2])
                x[1:] = np.where(swap, np.minimum(x[1:], dam2[:-2] + 1), x[1:])
            dam2, dam = dam, along_b(i, x, np.minimum, 1)
            nw = along_b(-2 * i, np.maximum(nw[1:] - 2, nw[:-1] - sub), np.maximum, -2)
            seq = along_b(0, np.where(eq, seq[:-1] + 1, seq[1:]), np.maximum, 0)
            run[1:] = (run[:-1] + 1) * eq
            best = np.maximum(best, run.max(axis=0))
        at = np.flatnonzero(la == i)  # pairs whose a ends here read column lb
        for m, row in zip(names, (lev, dam, nw, seq)):
            out[m][at] = row[lb[at], at]

    ml = np.maximum(np.maximum(la, lb), 1).astype(np.float32)
    sims = {
        "levenshtein": 1.0 - out["levenshtein"] / ml,
        "damerau": 1.0 - out["damerau"] / ml,
        "needleman_wunsch": np.clip(1.0 + out["needleman_wunsch"] / (2.0 * ml), 0.0, 1.0),
        "lcs_seq": out["lcs_seq"] / ml,
        "lcs_str": best / ml,
    }
    both_empty = (la == 0) & (lb == 0)
    for k in sims:
        sims[k] = np.where(both_empty, 0.0, np.clip(sims[k], 0.0, 1.0))
    return sims


def _jaro(a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Jaro similarity of every pair ``(a[:, k], b[:, k])`` of encoded
    strings; 0 if either is empty.

    One step per position i of ``a`` matches it, in every pair at once,
    to the first free equal character of ``b`` within the window. The
    matched characters of each side, in order, are the matched positions
    moved to the front by a stable argsort.
    """
    n = len(la)
    a, b = a[: la.max(initial=0)], b[: lb.max(initial=0)]
    if not len(a) or not len(b):
        return np.zeros(n)
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    pos = np.arange(len(b))[:, None]
    free, matched, pair = np.ones(b.shape, bool), np.zeros(a.shape, bool), np.arange(n)
    for i in range(len(a)):
        cand = (b == a[i]) & free & (np.abs(pos - i) <= window)
        first = cand.argmax(axis=0)
        matched[i] = cand[first, pair]
        free[first[matched[i]], pair[matched[i]]] = False
    m = matched.sum(axis=0)
    k = min(len(a), len(b))
    c1, c2 = (
        np.take_along_axis(s, np.argsort(unmatched, axis=0, kind="stable")[:k], axis=0)
        for s, unmatched in ((a, ~matched), (b, free))
    )
    t = ((c1 != c2) & (np.arange(k)[:, None] < m)).sum(axis=0) // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m > 0, (m / la + m / lb + (m - t) / m) / 3.0, 0.0)


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity of two strings."""
    return float(_jaro(*_encode([s1], pad=-1), *_encode([s2], pad=-2))[0])


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


def _token_rows(toks: list[list[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct tokens, each value's token indices laid out (position,
    value) and padded with ``len(distinct)``, and each value's count."""
    counts = np.array([len(t) for t in toks], dtype=np.int64)
    codes, distinct = pd.factorize(np.array([w for t in toks for w in t], dtype=object))
    return list(distinct), _padded(codes, counts, len(distinct)), counts


def _monge_elkan(tok1: list[list[str]], tok2: list[list[str]]) -> np.ndarray:
    """Monge-Elkan of every pair of token lists, shape (len(tok1),
    len(tok2)): the mean over a side-1 value's tokens of their best Jaro
    match among the side-2 value's tokens; 0 if either has no token.

    Jaro runs once per pair of distinct tokens, at full length, into a
    table with a zero row and column for the padding, which changes
    neither a max of Jaro values nor a sum. The side-1 rows are added
    one at a time, in token order, as Python's ``sum`` adds them.
    """
    (u1, rows1, n1), (u2, rows2, _) = _token_rows(tok1), _token_rows(tok2)
    (a, la), (b, lb) = _encode(u1, pad=-1), _encode(u2, pad=-2)
    table = np.zeros((len(u1) + 1, len(u2) + 1))
    for _, i, j in _cross_batches(len(u1), len(u2)):
        table[i, j] = _jaro(a[:, i], la[i], b[:, j], lb[j])
    best = np.zeros((len(u1) + 1, len(tok2)))  # per distinct side-1 token
    for cols in rows2:
        np.maximum(best, table[:, cols], out=best)
    total = np.zeros((len(tok1), len(tok2)))
    for tok in rows1:
        total += best[tok]
    return total / np.maximum(n1, 1)[:, None]


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
    sims["tok_monge_elkan"] = _monge_elkan(tok1, tok2).ravel()
    sims.update((m, np.empty(n1 * n2)) for m in set(SCHEMA_BASED_MEASURES) - set(sims))

    (a, la), (b, lb) = (
        _encode([t[:_MAX_LEN] for t in s], pad) for s, pad in ((s1, -1), (s2, -2))
    )
    for lo, i, j in _cross_batches(n1, n2):
        batch = a[:, i], la[i], b[:, j], lb[j]
        part = {**_edit_family(*batch), "jaro": _jaro(*batch)}
        for m, v in part.items():
            sims[m][lo : lo + len(i)] = v
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

"""N-gram extraction shared by all syntactic representation models.

Character n-grams keep (collapsed) spaces, as in the paper's example
("Joe Biden" -> 'Joe', 'oe ', 'e B', ...); token n-grams operate on
whitespace tokens. Everything is lowercased. :func:`gram_counts` counts
the grams of two collections of bags over one sorted vocabulary; the
vector models and the schema-based count measures both score from it.
"""
from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

import numpy as np
import pandas as pd

_WS = re.compile(r"\s+")


def normalize(text: str | None) -> str:
    """Lowercase and collapse whitespace; None -> empty string."""
    if text is None or (isinstance(text, float) and pd.isna(text)):
        return ""
    return _WS.sub(" ", str(text).strip().lower())


def char_ngrams(text: str, n: int) -> list[str]:
    """Overlapping character n-grams (a string shorter than n yields
    the string itself, so short values are still representable)."""
    s = normalize(text)
    if not s:
        return []
    if len(s) < n:
        return [s]
    return [s[i : i + n] for i in range(len(s) - n + 1)]


def tokens(text: str) -> list[str]:
    """Whitespace tokens of the normalized text."""
    s = normalize(text)
    return s.split(" ") if s else []


def token_ngrams(text: str, n: int) -> list[str]:
    """Token n-grams joined with a space (n=1 -> the tokens)."""
    toks = tokens(text)
    if not toks:
        return []
    if len(toks) < n:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def grams(text: str, kind: str, n: int) -> list[str]:
    """Dispatch: ``kind`` in {'char', 'token'}."""
    if kind == "char":
        return char_ngrams(text, n)
    if kind == "token":
        return token_ngrams(text, n)
    raise ValueError(f"unknown n-gram kind {kind!r}")


class GramCounts(NamedTuple):
    """One collection's gram counts in long form: one entry per distinct
    gram of each bag, sorted by bag and then by gram, so that per-bag
    sums such as ``np.bincount(rows, values)`` add in gram order."""

    rows: np.ndarray  # bag position
    cols: np.ndarray  # gram position in the sorted vocabulary
    cnt: np.ndarray  # occurrences of the gram in the bag
    n_rows: int

    def on_shared(self, values: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """Dense (n_rows, #shared) matrix of per-entry ``values``;
        ``shared`` maps each vocabulary gram to its column, or -1."""
        m = np.zeros((self.n_rows, shared.max(initial=-1) + 1))
        on = shared[self.cols] >= 0
        m[self.rows[on], shared[self.cols[on]]] = values[on]
        return m


def gram_counts(
    bags1: list[list[str]], bags2: list[list[str]]
) -> tuple[GramCounts, GramCounts, np.ndarray]:
    """Counts of both collections over their joint sorted vocabulary,
    and for each vocabulary gram its column among the grams that occur
    on both sides (in gram order), or -1."""
    flat = np.array(list(chain(*bags1, *bags2)), dtype=object)
    codes, vocab = pd.factorize(flat, sort=True)
    n_vocab, split, sides = max(len(vocab), 1), sum(map(len, bags1)), []
    for bags, c in ((bags1, codes[:split]), (bags2, codes[split:])):
        rows = np.repeat(np.arange(len(bags)), [len(b) for b in bags])
        keys, cnt = np.unique(rows * n_vocab + c, return_counts=True)
        sides.append(GramCounts(keys // n_vocab, keys % n_vocab, cnt, len(bags)))
    on = np.logical_and(*(np.bincount(s.cols, minlength=len(vocab)) > 0 for s in sides))
    return sides[0], sides[1], np.where(on, np.cumsum(on) - 1, -1)


def entity_text(row: pd.Series | dict, exclude: tuple[str, ...] = ("id",)) -> str:
    """Schema-agnostic representation: all attribute values, joined."""
    vals = []
    items = row.items() if hasattr(row, "items") else row
    for k, v in items:
        if k in exclude or v is None or (isinstance(v, float) and pd.isna(v)):
            continue
        vals.append(str(v))
    return normalize(" ".join(vals))

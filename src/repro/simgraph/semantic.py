"""Semantic representation models (paper Sec. 4) — offline substitute.

The paper uses pre-trained fastText (300-d) and ALBERT (768-d). No
pretrained models are available offline, so we build deterministic
hashed-n-gram embeddings that exercise the same code path and
reproduce the property the paper attributes to semantic weights:
nearly every pair receives a non-zero score (Table 3 reports ~100%
graph density for semantic inputs) with a comparatively weak signal.

* ``pseudo-fastText``: a token's vector is the sum of seeded random
  vectors of its character 3-5-grams (fastText's actual mechanism,
  minus corpus training); an entity/value embedding is the mean of its
  token vectors.
* ``pseudo-ALBERT``: token vectors additionally mixed with a sinusoidal
  positional modulation, so token order affects the embedding
  (a stand-in for contextual encoding).

Similarities: Cosine, Euclidean similarity 1/(1+d) and relaxed Word
Mover's similarity 1/(1+rWMD), where rWMD is the standard linear-time
relaxation of WMD (greedy best-alignment in both directions, averaged).
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from .ngrams import char_ngrams, tokens

SEMANTIC_MODELS = ["fasttext", "albert"]
SEMANTIC_MEASURES = ["cosine", "euclid_sim", "wms"]

_DIM = {"fasttext": 64, "albert": 96}
_MAX_TOKENS = 10  # per-entity token cap for the rWMD alignment


class _GramSpace:
    """Deterministic gram -> unit vector map (cached)."""

    def __init__(self, dim: int, salt: str):
        self.dim = dim
        self.salt = salt
        self._cache: dict[str, np.ndarray] = {}

    def vec(self, gram: str) -> np.ndarray:
        v = self._cache.get(gram)
        if v is None:
            seed = zlib.crc32((self.salt + gram).encode("utf-8")) & 0x7FFFFFFF
            v = np.random.default_rng(seed).standard_normal(self.dim).astype(np.float32)
            v /= np.linalg.norm(v) + 1e-12
            self._cache[gram] = v
        return v


_SPACES: dict[str, _GramSpace] = {}


def _space(model: str) -> _GramSpace:
    if model not in _SPACES:
        _SPACES[model] = _GramSpace(_DIM[model], salt=model)
    return _SPACES[model]


def token_vector(token: str, model: str) -> np.ndarray:
    """Embedding of one token: sum of its char 3-5-gram vectors."""
    space = _space(model)
    grams: list[str] = [token]
    for n in (3, 4, 5):
        grams.extend(char_ngrams(token, n))
    v = np.zeros(space.dim, dtype=np.float32)
    for g in grams:
        v += space.vec(g)
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def embed_text(text: str, model: str) -> np.ndarray:
    """Entity/value embedding: (positionally modulated) mean of tokens."""
    space = _space(model)
    toks = tokens(text)
    if not toks:
        return np.zeros(space.dim, dtype=np.float32)
    vs = []
    for pos, tok in enumerate(toks):
        v = token_vector(tok, model)
        if model == "albert":  # order-sensitive positional modulation
            phase = np.arange(space.dim, dtype=np.float32)
            v = v * (1.0 + 0.3 * np.sin(phase / space.dim * np.pi * (pos + 1)))
        vs.append(v)
    m = np.mean(vs, axis=0)
    norm = np.linalg.norm(m)
    return m / norm if norm > 0 else m


def token_matrix(text: str, model: str) -> np.ndarray:
    """(<=_MAX_TOKENS, dim) unit token embeddings, for rWMD."""
    toks = tokens(text)[:_MAX_TOKENS]
    if not toks:
        return np.zeros((0, _DIM[model]), dtype=np.float32)
    return np.stack([token_vector(t, model) for t in toks])


def _padded_tokens(texts, model: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-entity token matrices, zero-padded to ``_MAX_TOKENS``."""
    dim = _DIM[model]
    mats = [token_matrix(t, model) for t in texts]
    m = np.zeros((len(mats), _MAX_TOKENS, dim), dtype=np.float32)
    cnt = np.zeros(len(mats), dtype=np.float32)
    for i, mat in enumerate(mats):
        if mat.shape[0]:
            m[i, : mat.shape[0]] = mat
            cnt[i] = mat.shape[0]
    return m, cnt


def _relaxed_wms(texts1, texts2, model: str, chunk: int = 64) -> np.ndarray:
    """Relaxed Word Mover's similarity matrix, chunked einsum.

    rWMD = 1 - mean-of-best-alignments (both directions averaged);
    WMS = 1 / (1 + rWMD). Pairs where either side has no tokens get 0.
    """
    m1, c1 = _padded_tokens(texts1, model)
    m2, c2 = _padded_tokens(texts2, model)
    n1, n2 = m1.shape[0], m2.shape[0]
    valid1 = np.arange(_MAX_TOKENS)[None, :] < c1[:, None]
    valid2 = np.arange(_MAX_TOKENS)[None, :] < c2[:, None]
    out = np.zeros((n1, n2), dtype=np.float32)
    neg = np.float32(-1e9)
    for lo in range(0, n1, chunk):
        hi = min(lo + chunk, n1)
        s = np.einsum("itd,jsd->ijts", m1[lo:hi], m2)  # (c, n2, T, T)
        # align side-1 tokens to their best side-2 token
        best12 = np.where(valid2[None, :, None, :], s, neg).max(axis=3)
        a12 = (best12 * valid1[lo:hi, None, :]).sum(axis=2) / np.maximum(
            c1[lo:hi, None], 1.0
        )
        best21 = np.where(valid1[lo:hi, None, :, None], s, neg).max(axis=2)
        a21 = (best21 * valid2[None, :, :]).sum(axis=2) / np.maximum(c2[None, :], 1.0)
        align = np.clip(0.5 * (a12 + a21), 0.0, 1.0)
        out[lo:hi] = 1.0 / (2.0 - align)  # = 1 / (1 + (1 - align))
    empty = (c1[:, None] == 0) | (c2[None, :] == 0)
    return np.where(empty, 0.0, out)


def _euclidean(a: np.ndarray, b: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Pairwise Euclidean distances as the norm of each difference, a
    chunk of side-1 rows at a time.

    Each distance depends only on its own two vectors, so scoring side 1
    in any blocks gives the same values, and identical vectors are at
    distance exactly 0. The expansion sqrt(|a|^2 + |b|^2 - 2a.b) has
    neither property; in float32 it put identical texts at 3.5e-4.
    """
    out = np.empty((len(a), len(b)))
    for lo in range(0, len(a), chunk):
        diff = a[lo : lo + chunk, None] - b[None]
        out[lo : lo + chunk] = np.linalg.norm(diff, axis=2)
    return out


def semantic_edges(
    texts1: pd.DataFrame, texts2: pd.DataFrame, model: str
) -> pd.DataFrame:
    """All-pairs semantic similarities for one model.

    Returns a frame (v1, v2, cosine, euclid_sim, wms) over *all* pairs
    (semantic scores are dense, per the paper).
    """
    e1 = np.stack([embed_text(t, model) for t in texts1["text"]]).astype(np.float64)
    e2 = np.stack([embed_text(t, model) for t in texts2["text"]]).astype(np.float64)
    ids1 = texts1["id"].to_numpy(np.int64)
    ids2 = texts2["id"].to_numpy(np.int64)

    cos = e1 @ e2.T
    euc = 1.0 / (1.0 + _euclidean(e1, e2))

    wms = _relaxed_wms(texts1["text"], texts2["text"], model)

    # Semantic scores are dense: euclid_sim and wms are positive for
    # every pair, so the support is the full Cartesian product (the
    # build step filters each measure's own graph to weights > 0).
    i, j = np.nonzero(np.ones_like(cos, dtype=bool))
    return pd.DataFrame(
        {
            "v1": ids1[i],
            "v2": ids2[j],
            "cosine": cos[i, j],
            "euclid_sim": euc[i, j],
            "wms": wms[i, j].astype(np.float64),
        }
    )

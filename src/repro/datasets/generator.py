"""Synthetic Clean-Clean ER dataset generator.

Each dataset analogue is produced from a :class:`DatasetSpec` that pins
the structural fingerprint of one of the paper's 10 real datasets
(Table 2): collection sizes, number of ground-truth duplicates (hence
the BLC/OSD/SCR category of Sec. 6-QE4), domain-shaped attributes and
noise profile. Generation is fully deterministic in the spec's seed.

Mechanism: ``n1 + n2 - n_dups`` distinct "real-world" base entities are
created; the first ``n_dups`` bases appear in *both* collections, each
side seeing an independently corrupted view (typos, token drops/swaps,
abbreviations, missing values, misplaced values). The two collections
are clean by construction: each base contributes at most one record per
side, so clusters have at most two records — the CCER setting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .vocab import pick, vocab


@dataclass(frozen=True)
class DatasetSpec:
    """Structural fingerprint of one CCER dataset analogue."""

    name: str  # D1..D10
    label: str  # e.g. "Rest1-Rest2"
    domain: str  # restaurant | product | bib | movie
    n1: int
    n2: int
    n_dups: int
    category: str  # BLC | OSD | SCR (paper Sec. 6, QE4)
    noise: float = 0.04  # per-character corruption rate
    token_noise: float = 0.08  # per-token drop/abbreviate/swap rate
    missing: float = 0.05  # per-attribute missing-value rate
    misplace: float = 0.0  # bibliographic misplaced-value rate
    attributes: tuple = ()  # schema-based attributes (paper Sec. 5)
    seed: int = 0

    @property
    def primary_attribute(self) -> str:
        return self.attributes[0]


# ---------------------------------------------------------------- base entities


def _base_entity(domain: str, rng: np.random.Generator) -> dict:
    v = vocab()
    if domain == "restaurant":
        return {
            "name": f"{pick(rng, v.adjectives).capitalize()} {pick(rng, v.nouns)}",
            "phone": "".join(str(d) for d in rng.integers(0, 10, 10)),
            "address": f"{rng.integers(1, 999)} {pick(rng, v.nouns)} st {pick(rng, v.cities)}",
            "cuisine": pick(rng, v.cuisines),
        }
    if domain == "product":
        brand = pick(rng, v.brands)
        model = f"{pick(rng, 'ABCDEFX')}{rng.integers(100, 9999)}"
        return {
            "title": f"{brand} {model} {v.phrase(rng, int(rng.integers(2, 5)))}",
            "brand": brand,
            "modelno": model,
            "price": f"{rng.integers(5, 900)}.{rng.integers(0, 99):02d}",
            "description": v.phrase(rng, int(rng.integers(5, 12))),
        }
    if domain == "bib":
        authors = ", ".join(v.person(rng) for _ in range(int(rng.integers(1, 4))))
        return {
            "title": v.phrase(rng, int(rng.integers(4, 9))),
            "authors": authors,
            "venue": pick(rng, v.venues),
            "year": str(rng.integers(1985, 2021)),
        }
    if domain == "movie":
        return {
            "title": v.phrase(rng, int(rng.integers(1, 5))),
            "name": v.person(rng),
            "year": str(rng.integers(1950, 2021)),
            "actors": ", ".join(v.person(rng) for _ in range(int(rng.integers(1, 4)))),
            "language": pick(rng, v.languages),
        }
    raise ValueError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------- noise model


def _typo(s: str, rng: np.random.Generator, rate: float) -> str:
    out = []
    chars = list(s)
    i = 0
    while i < len(chars):
        c = chars[i]
        if c != " " and rng.random() < rate:
            op = rng.integers(0, 4)
            if op == 0:  # delete
                pass
            elif op == 1:  # substitute
                out.append(chr(ord("a") + int(rng.integers(0, 26))))
            elif op == 2 and i + 1 < len(chars):  # transpose
                out.append(chars[i + 1])
                out.append(c)
                i += 1
            else:  # insert
                out.append(c)
                out.append(chr(ord("a") + int(rng.integers(0, 26))))
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _token_noise(s: str, rng: np.random.Generator, rate: float) -> str:
    toks = s.split()
    out = []
    for tok in toks:
        r = rng.random()
        if r < rate and len(toks) > 1:
            op = rng.integers(0, 3)
            if op == 0:  # drop
                continue
            if op == 1 and len(tok) > 2:  # abbreviate
                out.append(tok[0] + ".")
                continue
            out.append(tok.upper() if tok.islower() else tok.lower())
        else:
            out.append(tok)
    if len(out) > 2 and rng.random() < rate:  # swap two adjacent tokens
        j = int(rng.integers(0, len(out) - 1))
        out[j], out[j + 1] = out[j + 1], out[j]
    return " ".join(out) if out else toks[0]


def _noisy_view(base: dict, spec: DatasetSpec, rng: np.random.Generator) -> dict:
    rec = {}
    keys = list(base)
    for attr, value in base.items():
        if rng.random() < spec.missing:
            rec[attr] = None
            continue
        s = _token_noise(value, rng, spec.token_noise)
        s = _typo(s, rng, spec.noise)
        rec[attr] = s
    # misplaced values: bibliographic noise of D4/D9 — a chunk of one
    # attribute leaks into another (e.g. authors appended to the title)
    if spec.misplace > 0 and rng.random() < spec.misplace and len(keys) >= 2:
        a, b = rng.choice(len(keys), size=2, replace=False)
        src, dst = keys[int(a)], keys[int(b)]
        if rec.get(src) and rec.get(dst):
            rec[dst] = f"{rec[dst]} {rec[src]}"
            if rng.random() < 0.5:
                rec[src] = None
    return rec


# ---------------------------------------------------------------- assembly


def generate_pandas(spec: DatasetSpec) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Build (collection1, collection2, ground_truth) pandas frames.

    Records carry an integer ``id`` unique within their collection;
    ground truth is a frame of (v1, v2) id pairs. Duplicate bases get
    ids 0..n_dups-1 on *both* sides (ids are then shuffled) so tests
    can rely only on the returned ground-truth pairs.
    """
    if spec.n_dups > min(spec.n1, spec.n2):
        raise ValueError("n_dups cannot exceed the smaller collection")
    rng = np.random.default_rng(spec.seed)
    n_base = spec.n1 + spec.n2 - spec.n_dups
    bases = [_base_entity(spec.domain, rng) for _ in range(n_base)]

    # collection 1 = bases[0 : n1]; collection 2 = bases[0 : n_dups] +
    # bases[n1 : n_base]. The first n_dups bases are the duplicates.
    rows1 = [_noisy_view(bases[i], spec, rng) for i in range(spec.n1)]
    idx2 = list(range(spec.n_dups)) + list(range(spec.n1, n_base))
    rows2 = [_noisy_view(bases[i], spec, rng) for i in idx2]

    perm1 = rng.permutation(spec.n1)
    perm2 = rng.permutation(spec.n2)
    df1 = pd.DataFrame(rows1).iloc[perm1].reset_index(drop=True)
    df1.insert(0, "id", np.arange(spec.n1, dtype=np.int64))
    df2 = pd.DataFrame(rows2).iloc[perm2].reset_index(drop=True)
    df2.insert(0, "id", np.arange(spec.n2, dtype=np.int64))

    pos1 = np.empty(spec.n1, dtype=np.int64)
    pos1[perm1] = np.arange(spec.n1)
    pos2 = np.empty(spec.n2, dtype=np.int64)
    pos2[perm2] = np.arange(spec.n2)
    gt = pd.DataFrame(
        {
            "v1": pos1[: spec.n_dups],
            "v2": pos2[: spec.n_dups],
        }
    ).astype(np.int64)
    return df1, df2, gt


def profile_stats(df: pd.DataFrame) -> dict:
    """Table-2 style statistics: |V|, |NVP|, |A|, mean profile size."""
    attrs = [c for c in df.columns if c != "id"]
    nvp = int(df[attrs].notna().sum().sum())
    return {
        "n_entities": len(df),
        "n_nvp": nvp,
        "n_attributes": len(attrs),
        "avg_profile": nvp / len(df) if len(df) else 0.0,
    }

"""Per-pair reference implementations of the schema-based count
measures, Jaro and Monge-Elkan (paper App. B.1), kept as test oracles.

``simgraph.strings.schema_based_edges`` computes q-grams and the token
measures from shared-gram count matrices, Jaro in batches of pairs and
Monge-Elkan from a Jaro table over distinct tokens; these loops compute
them for one pair at a time, straight from the definitions.
"""
from __future__ import annotations

from collections import Counter

from repro.simgraph.ngrams import char_ngrams, tokens
from repro.simgraph.strings import TOKEN_MEASURES


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


def monge_elkan(t1: list[str], t2: list[str]) -> float:
    """Mean over the tokens of ``t1`` of their best Jaro match in ``t2``."""
    if not t1 or not t2:
        return 0.0
    return sum(max(jaro(w1, w2) for w2 in t2) for w1 in t1) / len(t1)


def qgrams_sim(s1: str, s2: str, q: int = 3) -> float:
    """Block distance over char q-gram profiles, as a similarity."""
    c1 = Counter(char_ngrams(s1, q))
    c2 = Counter(char_ngrams(s2, q))
    n1, n2 = sum(c1.values()), sum(c2.values())
    if n1 + n2 == 0:
        return 0.0
    l1 = sum(abs(c1[g] - c2[g]) for g in set(c1) | set(c2))
    return 1.0 - l1 / (n1 + n2)


def token_measures(s1: str, s2: str) -> dict[str, float]:
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
    out["tok_monge_elkan"] = monge_elkan(t1, t2)
    return out

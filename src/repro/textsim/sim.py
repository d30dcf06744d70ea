"""Similarity kernels (all return floats in [0, 1]).

Conventions (match Magellan's behaviour closely enough for ZeroER):
- set similarities of two empty sets are 1.0 (identical), one empty is 0.0;
- string kernels operate on already-normalized strings;
- missing values are handled one level up (a missing side yields NaN for the
  whole feature, later imputed at the feature minimum) — kernels never see
  ``None``.
"""
from __future__ import annotations

import math

import numpy as np


def exact(a: str, b: str) -> float:
    """1.0 iff the normalized strings are equal."""
    return 1.0 if a == b else 0.0


def jaccard(a: frozenset, b: frozenset) -> float:
    """|a∩b| / |a∪b|."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def cosine(a: frozenset, b: frozenset) -> float:
    """|a∩b| / sqrt(|a|·|b|) — set (binary tf) cosine."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def dice(a: frozenset, b: frozenset) -> float:
    """2|a∩b| / (|a|+|b|)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def overlap_coeff(a: frozenset, b: frozenset) -> float:
    """|a∩b| / min(|a|,|b|)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


_LEV_CAP = 64  # similarity on longer strings is carried by token features


def levenshtein(a: str, b: str) -> int:
    """Edit distance, vectorized row DP; inputs truncated to 64 chars.

    The row recurrence's left-to-right insertion dependency is resolved with
    the prefix-minimum identity ``g[j] = min_{k≤j} f[k] + (j−k)`` computed as
    ``np.minimum.accumulate(f − j) + j`` — ~10× faster than the pure-Python
    DP, and this kernel dominates feature-generation time.
    """
    a, b = a[:_LEV_CAP], b[:_LEV_CAP]
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(len(b) + 1)
    prev = idx.copy()
    f = np.empty_like(prev)
    for i, ca in enumerate(a, 1):
        cost = bv != ord(ca)
        # f[j] = best of substitution/deletion (no insertion yet), f[0] fixed.
        f[0] = i
        f[1:] = np.minimum(prev[1:] + 1, prev[:-1] + cost)
        # Fold insertions in: cur[j] = min_{k≤j} f[k] + (j − k).
        prev = np.minimum.accumulate(f - idx) + idx
    return int(prev[-1])


def lev_sim(a: str, b: str) -> float:
    """1 − edit_distance / max(len) — normalized Levenshtein similarity."""
    if not a and not b:
        return 1.0
    m = max(len(a[:_LEV_CAP]), len(b[:_LEV_CAP]))
    return 1.0 - levenshtein(a, b) / m if m else 1.0


def jaro(a: str, b: str) -> float:
    """Jaro similarity."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo, hi = max(0, i - window), min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == ca:
                match_a[i] = match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # transpositions: matched chars in order
    bs = [b[j] for j in range(lb) if match_b[j]]
    transpositions = sum(
        1 for ca, cb in zip((a[i] for i in range(la) if match_a[i]), bs) if ca != cb
    )
    t = transpositions / 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler(a: str, b: str, p: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the common prefix (Winkler's correction)."""
    j = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return j + prefix * p * (1.0 - j)


def rel_sim(a: float, b: float) -> float:
    """Numeric relative similarity: 1 − |a−b| / max(|a|,|b|), clipped to [0,1]."""
    if a == b:
        return 1.0
    m = max(abs(a), abs(b))
    if m == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / m)

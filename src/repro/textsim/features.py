"""Magellan-style per-attribute feature generation over pair DataFrames.

``feature_plan`` chooses a bundle of similarity functions per attribute based
on its declared type (mirroring Magellan's type-driven feature factory); all
features of one attribute share a *group id*, which is exactly the grouping
ZeroER's block-diagonal covariance consumes (§3.1 of the paper).

``compute_features`` evaluates the plan distributed with ``mapInPandas``:
each Arrow batch tokenizes every distinct string once per attribute, then
evaluates the group's kernels row-wise. Missing values on either side yield
NaN (imputed at the feature minimum later by :mod:`repro.core.scaling`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.textsim import sim, tokenize

_KINDS_BY_TYPE: dict[str, list[str]] = {
    "short_str": ["exm", "lev_sim", "jwn", "jac_qgm3", "cos_qgm3", "dice_qgm3",
                  "ovl_qgm3", "jac_ws", "cos_ws"],
    "long_str": ["jac_ws", "cos_ws", "dice_ws", "ovl_ws", "jac_qgm3", "cos_qgm3"],
    "phone": ["exm_dig", "jac_qgm3_dig", "lev_dig"],
    "numeric": ["exm_num", "rel_sim"],
}


@dataclass(frozen=True)
class Feature:
    """One similarity feature: ``kind`` applied to attribute ``attr``.

    ``group`` is the 0-based attribute index — features with equal ``group``
    form one block of ZeroER's block-diagonal covariance.
    """

    name: str
    attr: str
    group: int
    kind: str


def feature_plan(attributes: list[str], attr_types: dict[str, str]) -> list[Feature]:
    """The full Magellan-style plan: one feature bundle per attribute."""
    plan: list[Feature] = []
    for g, attr in enumerate(attributes):
        for kind in _KINDS_BY_TYPE[attr_types[attr]]:
            plan.append(Feature(name=f"{attr}_{kind}", attr=attr, group=g, kind=kind))
    return plan


def feature_columns(plan: list[Feature]) -> list[str]:
    """Feature column names, in plan order."""
    return [f.name for f in plan]


def group_ids(plan: list[Feature]) -> np.ndarray:
    """Group id per feature, aligned with :func:`feature_columns`."""
    return np.asarray([f.group for f in plan], dtype=np.int64)


def pairs_with_attrs(
    pairs: DataFrame, left: DataFrame, right: DataFrame, attributes: list[str]
) -> DataFrame:
    """Join a (l_id, r_id) pair set with both sides' attributes.

    Output columns: ``l_id, r_id, l_<attr>…, r_<attr>…``. Pure DataFrame
    joins so Catalyst plans the (potentially large) pair materialization.
    """
    lsel = left.select(
        F.col("_id").alias("l_id"), *[F.col(a).alias(f"l_{a}") for a in attributes]
    )
    rsel = right.select(
        F.col("_id").alias("r_id"), *[F.col(a).alias(f"r_{a}") for a in attributes]
    )
    return pairs.select("l_id", "r_id").join(lsel, "l_id").join(rsel, "r_id")


def _is_missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def _prep_strings(col: pd.Series, need_qgrams: bool, need_words: bool):
    """Per-batch preparation: normalize + tokenize each *distinct* value once."""
    cache: dict = {}
    out = []
    for v in col:
        if _is_missing(v):
            out.append(None)
            continue
        got = cache.get(v)
        if got is None:
            s = tokenize.normalize(v)
            got = (
                s,
                tokenize.qgrams(s) if need_qgrams else None,
                tokenize.word_tokens(s) if need_words else None,
            )
            cache[v] = got
        out.append(got)
    return out


def _eval_string_kind(kind: str, lp, rp) -> float:
    ls, lq, lw = lp
    rs, rq, rw = rp
    if kind == "exm":
        return sim.exact(ls, rs)
    if kind == "lev_sim":
        return sim.lev_sim(ls, rs)
    if kind == "jwn":
        return sim.jaro_winkler(ls, rs)
    if kind == "jac_qgm3":
        return sim.jaccard(lq, rq)
    if kind == "cos_qgm3":
        return sim.cosine(lq, rq)
    if kind == "dice_qgm3":
        return sim.dice(lq, rq)
    if kind == "ovl_qgm3":
        return sim.overlap_coeff(lq, rq)
    if kind == "jac_ws":
        return sim.jaccard(lw, rw)
    if kind == "cos_ws":
        return sim.cosine(lw, rw)
    if kind == "dice_ws":
        return sim.dice(lw, rw)
    if kind == "ovl_ws":
        return sim.overlap_coeff(lw, rw)
    raise ValueError(f"unknown string kind {kind!r}")


def _eval_group(
    kinds: list[str], attr_type: str, lcol: pd.Series, rcol: pd.Series
) -> dict[str, list[float]]:
    """Evaluate every kind of one attribute group over a batch; returns
    kind → values (NaN where either side is missing)."""
    n = len(lcol)
    out: dict[str, list[float]] = {k: [math.nan] * n for k in kinds}
    if attr_type == "numeric":
        lv = pd.to_numeric(lcol, errors="coerce").to_numpy(dtype=float)
        rv = pd.to_numeric(rcol, errors="coerce").to_numpy(dtype=float)
        for i in range(n):
            if math.isnan(lv[i]) or math.isnan(rv[i]):
                continue
            for k in kinds:
                if k == "exm_num":
                    out[k][i] = 1.0 if lv[i] == rv[i] else 0.0
                elif k == "rel_sim":
                    out[k][i] = sim.rel_sim(lv[i], rv[i])
        return out
    if attr_type == "phone":
        cache: dict = {}

        def prep(v):
            if _is_missing(v):
                return None
            got = cache.get(v)
            if got is None:
                d = tokenize.digits(v)
                got = (d, tokenize.qgrams(d))
                cache[v] = got
            return got

        lps = [prep(v) for v in lcol]
        rps = [prep(v) for v in rcol]
        for i in range(n):
            lp, rp = lps[i], rps[i]
            if lp is None or rp is None:
                continue
            for k in kinds:
                if k == "exm_dig":
                    out[k][i] = sim.exact(lp[0], rp[0])
                elif k == "jac_qgm3_dig":
                    out[k][i] = sim.jaccard(lp[1], rp[1])
                elif k == "lev_dig":
                    out[k][i] = sim.lev_sim(lp[0], rp[0])
        return out
    # string types
    need_q = any("qgm" in k for k in kinds)
    need_w = any(k.endswith("_ws") for k in kinds)
    lps = _prep_strings(lcol, need_q, need_w)
    rps = _prep_strings(rcol, need_q, need_w)
    for i in range(n):
        lp, rp = lps[i], rps[i]
        if lp is None or rp is None:
            continue
        for k in kinds:
            out[k][i] = _eval_string_kind(k, lp, rp)
    return out


def compute_features(
    pairs_attrs: DataFrame,
    plan: list[Feature],
    attr_types: dict[str, str],
) -> DataFrame:
    """(l_id, r_id, l_*, r_*) → (l_id, r_id, <feature>…double) via mapInPandas."""
    by_attr: dict[str, list[Feature]] = {}
    for f in plan:
        by_attr.setdefault(f.attr, []).append(f)
    schema = "l_id long, r_id long, " + ", ".join(
        f"`{f.name}` double" for f in plan
    )

    def gen(batches):
        for pdf in batches:
            cols: dict[str, object] = {"l_id": pdf["l_id"], "r_id": pdf["r_id"]}
            for attr, feats in by_attr.items():
                kinds = [f.kind for f in feats]
                vals = _eval_group(kinds, attr_types[attr], pdf[f"l_{attr}"], pdf[f"r_{attr}"])
                for f in feats:
                    cols[f.name] = np.asarray(vals[f.kind], dtype=np.float64)
            yield pd.DataFrame(cols)

    return pairs_attrs.mapInPandas(gen, schema=schema)

"""Min imputation + min-max scaling of feature columns, as Catalyst exprs.

ZeroER min-max normalizes every feature into [0, 1] before EM (§3.3); missing
similarity values (a side had a NULL attribute) are imputed with the feature's
minimum over the candidate set first (see :meth:`Scaler.transform` for why
not the mean).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class Scaler:
    """Fitted per-feature statistics: min (also the imputed value) and max."""

    cols: list[str]
    min: dict[str, float]
    max: dict[str, float]

    def transform(self, df: DataFrame) -> DataFrame:
        """Impute NaN/NULL at the feature *minimum*, then scale to [0, 1].

        Min-imputation encodes "a missing attribute is no evidence of
        similarity": the missing mass merges with the dissimilar bulk instead
        of forming a mid-range mode of its own (mean imputation on a
        half-missing attribute creates a bimodal structure the mixture model
        prefers to split on, hijacking the M component — observed on DS).
        A constant feature (max == min) scales to 0.0 — the degenerate case
        ZeroER's adaptive regularization exists to handle.
        """
        exprs = []
        for c in self.cols:
            lo, hi = self.min[c], self.max[c]
            col = F.col(c)
            imputed = F.when(col.isNull() | F.isnan(col), F.lit(lo)).otherwise(col)
            span = hi - lo
            scaled = (imputed - F.lit(lo)) / F.lit(span) if span > 0 else F.lit(0.0)
            exprs.append(scaled.alias(c))
        keep = [F.col(c) for c in df.columns if c not in self.cols]
        return df.select(*keep, *exprs)


def fit_scaler(df: DataFrame, cols: list[str]) -> Scaler:
    """One aggregation pass computing NaN-aware min/max per feature."""
    aggs = []
    for c in cols:
        clean = F.when(F.isnan(F.col(c)), None).otherwise(F.col(c))
        aggs += [F.min(clean).alias(f"min_{c}"), F.max(clean).alias(f"max_{c}")]
    row = df.agg(*aggs).first()
    lo, hi = {}, {}
    for c in cols:
        # An all-missing feature has no statistics; pin it to constant 0.
        lo[c] = float(row[f"min_{c}"]) if row[f"min_{c}"] is not None else 0.0
        hi[c] = float(row[f"max_{c}"]) if row[f"max_{c}"] is not None else 0.0
    return Scaler(cols=list(cols), min=lo, max=hi)


def scale_features(df: DataFrame, cols: list[str]) -> DataFrame:
    """Convenience: fit + transform in one call."""
    return fit_scaler(df, cols).transform(df)

"""Per-op correctness checks: an independent DuckDB recount of tp/fp/fn, an F1
floor, and a digest of the prediction set that must not change between ops."""
from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pandas as pd

_RECOUNT_SQL = """
WITH p AS (SELECT DISTINCT l_id, r_id FROM pred),
     t AS (SELECT DISTINCT l_id, r_id FROM truth)
SELECT (SELECT count(*) FROM p JOIN t USING (l_id, r_id)) AS tp,
       (SELECT count(*) FROM p) AS n_pred,
       (SELECT count(*) FROM t) AS n_true
"""


def recount(pred: pd.DataFrame, truth: pd.DataFrame) -> tuple[int, int, int]:
    """(tp, fp, fn) of ``pred`` against ``truth``, counted in DuckDB."""
    con = duckdb.connect()
    try:
        con.register("pred", pred[["l_id", "r_id"]])
        con.register("truth", truth[["l_id", "r_id"]])
        tp, n_pred, n_true = con.execute(_RECOUNT_SQL).fetchone()
    finally:
        con.close()
    return int(tp), int(n_pred - tp), int(n_true - tp)


def digest(pred: pd.DataFrame) -> str:
    """sha256 prefix of the sorted, de-duplicated (l_id, r_id) set."""
    arr = pred[["l_id", "r_id"]].drop_duplicates().to_numpy(dtype="<i8")
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def problems(pred: pd.DataFrame, truth: pd.DataFrame, prf, f1_floor: float, ref_digest: str | None) -> tuple[str, list[str]]:
    """The op's prediction digest and every check it fails (empty if none)."""
    out = []
    counts = recount(pred, truth)
    if counts != (prf.tp, prf.fp, prf.fn):
        out.append(f"evaluate gave tp/fp/fn {(prf.tp, prf.fp, prf.fn)}, DuckDB recount {counts}")
    if not prf.f1 >= f1_floor:
        out.append(f"f1 {prf.f1:.4f} below the floor {f1_floor}")
    d = digest(pred)
    if ref_digest is not None and d != ref_digest:
        out.append(f"prediction digest {d} differs from the first op's {ref_digest}")
    return d, out

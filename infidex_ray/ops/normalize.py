"""Numeric normalization ops: NTILE bucketing, winsorization, z-scores.

Feature post-processing a training-data pipeline runs after scoring:
equal-frequency bucketing (perplexity bands, quality deciles), outlier
clamping before aggregation, and per-column standardization of numeric
features. All three are exact (bit-identical to their SQL oracles on
integer-valued inputs) and scale-honest:

- :func:`ntile_bucket` / :func:`winsorize` pay the ONE unavoidable global
  sort, then finish with O(blocks) driver scalars — the ``budget_select``
  / ``percentile_rank`` distributed-prefix pattern; no block ever sees
  another block's rows and nothing row-sized reaches the driver.
- :func:`zscore_cols` never sorts: per-block sufficient-statistic partials
  (n, Σx, Σx²) reduce to O(blocks × cols) driver scalars, then one
  stateless clamp/score map over the stream (the ``grouped_corr``
  pattern — exact when column values are integer-valued in float64 range).

No reference-engine analogue (pure beyond-reference training-data ops).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import round_half_up4_arr

__all__ = ["ntile_bucket", "winsorize", "zscore_cols"]


def ntile_bucket(ds, value_col: str, id_col: str = "doc_id", n: int = 10):
    """Equal-frequency bucketing: assign every row its SQL
    ``ntile(n) OVER (ORDER BY value, id)`` bucket — the op behind
    "perplexity deciles" / "quality bands" corpus splits.

    The (value, id) sort key is unique per row, so the global row number
    is just block-offset + local position (no tie-run resolution needed);
    each sorted block then buckets itself independently with the exact
    integer NTILE formula (first ``N % n`` buckets get ``ceil(N/n)`` rows).
    Returns ``(id_col, value_col, bucket)`` ordered by (value, id);
    buckets are exact integers, bit-identical to the SQL window.
    """
    import ray.data

    refs, ns, offsets = dataflow.sorted_blocks(
        ds, [value_col, id_col], columns=[id_col, value_col]
    )
    total = int(ns.sum())
    if total == 0:
        return dataflow.typed_empty(
            {id_col: pa.int64(), value_col: pa.float64(), "bucket": pa.int64()}
        )
    q, rem = divmod(total, n)
    thresh = rem * (q + 1)

    def finalize(t: pa.Table, offset: int) -> pa.Table:
        r = offset + np.arange(len(t), dtype=np.int64)  # 0-based global row
        if q == 0:  # N < n: one row per bucket
            bucket = r + 1
        else:
            bucket = np.where(r < thresh, r // (q + 1), rem + (r - thresh) // q) + 1
        return pa.table(
            {
                id_col: t[id_col],
                value_col: t[value_col],
                "bucket": pa.array(bucket.astype(np.int64)),
            }
        )

    return ray.data.from_arrow_refs(dataflow.on_blocks(finalize, refs, offsets))


def _quantile_at(refs, ns, offsets, value_col: str, p: float):
    """Exact linear-interpolated global quantile (numpy 'linear' ==
    DuckDB ``quantile_cont``) from the sorted blocks: fetch only the two
    straddling rows, never a block's full values."""
    import ray

    total = int(ns.sum())
    pos = p * (total - 1)
    lo_i, hi_i = int(math.floor(pos)), int(math.ceil(pos))
    frac = pos - math.floor(pos)

    def value_at(t: pa.Table, local: int) -> float:
        return float(t[value_col][local].as_py())

    blocks = [int(np.searchsorted(offsets, g, side="right") - 1) for g in (lo_i, hi_i)]
    v_lo, v_hi = ray.get(
        dataflow.on_blocks(
            value_at,
            [refs[b] for b in blocks],
            [g - int(offsets[b]) for g, b in zip((lo_i, hi_i), blocks)],
        )
    )
    return v_lo + (v_hi - v_lo) * frac


def winsorize(
    ds,
    value_col: str,
    id_col: str = "doc_id",
    lo: float = 0.05,
    hi: float = 0.95,
):
    """Clamp a column to its exact global [lo, hi] quantiles (linear
    interpolation == DuckDB ``quantile_cont``) — outlier capping before a
    mean/sum aggregate is skew-robust.

    One global sort computes BOTH thresholds (two single-row fetches from
    the sorted blocks); the original dataset then streams through a
    stateless clamp — ``least(greatest(v, t_lo), t_hi)``. Returns
    ``(id_col, value_col, winsorized)`` with ``winsorized`` rounded
    half-away-from-zero to 4 decimals (DuckDB ROUND parity): on
    non-integer inputs DuckDB's quantile_cont interpolation differs from
    numpy's ``_lerp`` by 1 ulp (observed: 475096.4305 vs …49999996), so
    the raw clamped value is not bit-stable across engines.
    """
    refs, ns, offsets = dataflow.sorted_blocks(
        ds, [value_col, id_col], columns=[id_col, value_col]
    )
    if len(refs) == 0:
        return dataflow.typed_empty(
            {id_col: pa.int64(), value_col: pa.float64(), "winsorized": pa.float64()}
        )
    t_lo = _quantile_at(refs, ns, offsets, value_col, lo)
    t_hi = _quantile_at(refs, ns, offsets, value_col, hi)

    def clamp(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.minimum(np.maximum(v, t_lo), t_hi)
        return pa.table(
            {
                id_col: batch[id_col],
                value_col: batch[value_col],
                "winsorized": pa.array(round_half_up4_arr(w), pa.float64()),
            }
        )

    return ds.select_columns(
        list(dict.fromkeys([id_col, value_col]))
    ).map_batches(clamp, batch_format="pyarrow")


def zscore_cols(ds, cols: list[str], id_col: str = "doc_id"):
    """Population z-score standardization of numeric columns:
    ``z = (x − Σx/n) / sqrt(Σx²/n − (Σx/n)²)`` — the fixed expression the
    SQL oracle also spells out, so both engines run the identical float64
    op sequence on identical sums.

    Per-block partials (n, Σx, Σx²) per column → O(blocks × cols) driver
    scalars → one stateless scoring map; no sort, no shuffle. Sums are
    exact (hence results bit-identical pre-rounding) when values are
    integer-valued within float64's 2^53 integer range; z is rounded
    half-away-from-zero to 4 decimals (DuckDB ROUND parity). Returns
    ``(id_col, *cols as <col>_z)``; a constant column yields NULL (NaN)
    like SQL division by zero stddev.
    """
    import ray

    want = list(dict.fromkeys([id_col] + list(cols)))

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"col": [], "n": [], "sx": [], "sxx": []}
        for c in cols:
            x = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            x = x[~np.isnan(x)]
            rows["col"].append(c)
            rows["n"].append(len(x))
            rows["sx"].append(float(x.sum()))
            rows["sxx"].append(float((x * x).sum()))
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "sx": pa.array(rows["sx"], pa.float64()),
                "sxx": pa.array(rows["sxx"], pa.float64()),
            }
        )

    parts = (
        ds.select_columns(want)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # O(blocks × cols) rows — tiny by construction
    )
    stats = {}
    for c in cols:
        g = parts[parts["col"] == c]
        n = float(g["n"].sum())
        sx = float(g["sx"].sum())
        sxx = float(g["sxx"].sum())
        stats[c] = (n, sx, sxx)
    stats_ref = ray.put(stats)

    def score(batch: pa.Table) -> pa.Table:
        st = ray.get(stats_ref)
        out = {id_col: batch[id_col]}
        for c in cols:
            n, sx, sxx = st[c]
            x = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            mean = sx / n
            denom = math.sqrt(sxx / n - (sx / n) * (sx / n))
            with np.errstate(invalid="ignore", divide="ignore"):
                z = (x - mean) / denom
            out[c + "_z"] = pa.array(round_half_up4_arr(z), pa.float64())
        return pa.table(out)

    return ds.select_columns(want).map_batches(score, batch_format="pyarrow")

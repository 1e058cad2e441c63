"""Generic grouped aggregation with combiner partials.

Ray Data's native ``groupby().aggregate()`` hash-partitions EVERY input row
to the aggregator actors. For the usual analytical shape (few output groups,
many rows) the scale-right plan is the classic combiner: each block first
collapses to ≤|groups| partial rows with Arrow's own hash group-by (zero
Python loops), and only those partials shuffle — by a coarse slice of the
key hash, never one Ray group per output key. The same pattern the index
build uses for df stats (build.py) and tumbling_window uses for events,
exposed as a reusable operator.

Supported aggregates: sum / count / min / max / mean (mean decomposes into
sum+count partials and divides at the end). Count semantics = SQL
``count(col)`` (non-null); use ``count(key)`` on a key column for
``count(*)`` over non-null keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import round_half_up4_arr


def _key_slice(t: pa.Table, keys: list, num_slices: int) -> np.ndarray:
    """Slice of each row's key tuple; no keys (a grand total) is slice 0."""
    if not keys:
        return np.zeros(t.num_rows, dtype=np.int32)
    return dataflow.slice_of(num_slices, *(t[k] for k in keys))


# how a partial kernel's outputs merge across blocks
_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_agg(ds, keys, aggs: dict, num_slices: int | None = None):
    """``aggs``: ``{out_col: (func, in_col)}`` with func ∈ sum / count /
    min / max / mean. Returns one row per distinct key combination with the
    key columns plus every requested aggregate.

    Float-sum caveat (same as any distributed sum): addition order differs
    from a single-threaded engine, so float64 sums/means carry ~ulp-scale
    nondeterminism; integer-valued columns are exact. min/max/count are
    always exact.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_slices is None:
        num_slices = dataflow.num_slices()

    # canonical partials, deduped per (col, kernel): two aggs over the same
    # column (e.g. sum + mean) share one partial column
    partials: dict[tuple, str] = {}  # (col, kernel) -> canonical name
    finals = []  # (out_col, kind, canonical partial names)
    for out, (fn, col) in aggs.items():
        if fn == "mean":
            needed = (("sum", col), ("count", col))
            finals.append((out, "mean", needed))
        elif fn in _MERGE:
            needed = ((fn, col),)
            finals.append((out, "direct", needed))
        else:
            raise ValueError(f"unsupported aggregate {fn!r}")
        for kfn, kcol in needed:
            partials.setdefault((kcol, kfn), f"__p_{kcol}_{kfn}")

    pairs = list(partials.items())  # [((col, kernel), pname)]
    in_cols = list(dict.fromkeys([c for (c, _f), _n in pairs]))

    def _rename(res: pa.Table, mapping: dict) -> pa.Table:
        return res.rename_columns([mapping.get(n, n) for n in res.column_names])

    def partial(batch: pa.Table) -> pa.Table:
        proj = batch.select(list(dict.fromkeys(keys + in_cols)))
        res = proj.group_by(keys).aggregate([(c, f) for (c, f), _n in pairs])
        res = _rename(res, {f"{c}_{f}": n for (c, f), n in pairs})
        sl = _key_slice(res, keys, num_slices)
        return res.append_column("slice", pa.array(sl))

    def final(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        merge_pairs = [(n, _MERGE[f]) for (_c, f), n in pairs]
        res = group.group_by(keys).aggregate(merge_pairs)
        res = _rename(res, {f"{n}_{m}": n for n, m in merge_pairs})
        cols = {k: res[k] for k in keys}
        for out, kind, needed in finals:
            if kind == "mean":
                s = res[partials[(needed[0][1], needed[0][0])]]
                c = res[partials[(needed[1][1], needed[1][0])]]
                sv = s.to_numpy(zero_copy_only=False).astype(np.float64)
                cv = c.to_numpy(zero_copy_only=False).astype(np.float64)
                # count==0 (all-null group) → NaN ≡ SQL avg(...)=NULL
                cols[out] = pa.array(
                    np.where(cv > 0, sv / np.maximum(cv, 1.0), np.nan)
                )
            else:
                cols[out] = res[partials[(needed[0][1], needed[0][0])]]
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def grouped_corr(
    ds, keys, x_col: str, y_col: str, num_slices: int | None = None
):
    """Per-group Pearson correlation via sufficient-statistic partials.

    Each block collapses to ≤|groups| rows of ``(n, Σx, Σy, Σx², Σy², Σxy)``
    over rows where BOTH columns are non-null (SQL ``corr`` semantics), so
    the exchange moves group-count partials, not data rows. The final
    closed form is evaluated with ONE fixed float64 expression::

        corr = (n·Σxy − Σx·Σy) / sqrt((n·Σx² − Σx²ᵗᵒᵗ) · (n·Σy² − Σy²ᵗᵒᵗ))

    so a SQL oracle spelling the same expression over ``sum()`` columns is
    bit-identical whenever the inputs are integer-valued (partial sums of
    integers < 2⁵³ are exact in float64 regardless of addition order);
    non-integer inputs carry the usual ulp-scale distributed-sum caveat.
    Groups with n = 0 or zero variance yield NaN (≡ SQL NULL).

    Returns one row per key combination: keys + ``n`` + ``corr``.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_slices is None:
        num_slices = dataflow.num_slices()
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch[x_col], pa.float64())
        y = pc.cast(batch[y_col], pa.float64())
        # pairwise masking, not row filtering: a group whose every row lacks
        # a valid (x, y) pair still APPEARS (n=0, corr NaN) — matching SQL
        # corr(), where the group survives with a NULL aggregate
        valid = pc.and_(pc.is_valid(x), pc.is_valid(y))
        null = pa.scalar(None, pa.float64())
        x = pc.if_else(valid, x, null)
        y = pc.if_else(valid, y, null)
        proj = pa.table(
            {
                **{k: batch[k] for k in keys},
                "__x": x,
                "__y": y,
                "__xx": pc.multiply(x, x),
                "__yy": pc.multiply(y, y),
                "__xy": pc.multiply(x, y),
            }
        )
        res = proj.group_by(keys).aggregate(
            [("__x", "count"), ("__x", "sum"), ("__y", "sum"),
             ("__xx", "sum"), ("__yy", "sum"), ("__xy", "sum")]
        )
        ren = {"__x_count": "n", "__x_sum": "sx", "__y_sum": "sy",
               "__xx_sum": "sxx", "__yy_sum": "syy", "__xy_sum": "sxy"}
        res = res.rename_columns([ren.get(c, c) for c in res.column_names])
        sl = _key_slice(res, keys, num_slices)
        return res.append_column("slice", pa.array(sl))

    def final(group: pa.Table) -> pa.Table:
        res = group.drop_columns(["slice"]).group_by(keys).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")]
        )
        ren = {f"{c}_sum": c for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
        res = res.rename_columns([ren.get(c, c) for c in res.column_names])
        n = res["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = res["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = res["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = res["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        syy = res["syy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = res["sxy"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
            corr = np.where(denom > 0, (n * sxy - sx * sy) / denom, np.nan)
        cols = {k: res[k] for k in keys}
        cols["n"] = res["n"].cast(pa.int64())
        cols["corr"] = pa.array(corr, pa.float64())
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def grouped_count_distinct(ds, keys, aggs: dict, num_slices: int | None = None):
    """SQL ``count(DISTINCT col)`` per group — the aggregate
    :func:`grouped_agg` can't do with scalar partials. ``aggs``:
    ``{out_col: in_col}``.

    Scale design (two coarse shuffles, both over bounded streams): each
    block first collapses to its DISTINCT (keys, col) pairs per aggregate
    (Arrow hash group-by, ≤ block distinct pairs leave), keyed by a slice
    of the (keys, value) hash so every copy of a pair lands in ONE slice;
    each slice re-distincts and emits per-key PARTIAL counts (disjoint
    across slices by construction — a pair lives in exactly one slice), and
    a final keys-slice groupby sums the partials. Null values are not
    counted (SQL semantics); null KEYS form their own group, exactly like
    grouped_agg.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_slices is None:
        num_slices = dataflow.num_slices()
    import pyarrow.compute as pc

    items = list(aggs.items())  # [(out_col, in_col)]

    def pairs(batch: pa.Table) -> pa.Table:
        parts = []
        # keys-presence rows (__agg = -1): a group whose every value is
        # null still EXISTS with count 0, matching SQL — sliced by the
        # keys hash alone so every copy lands in one slice
        if keys:
            pres = batch.select(keys).group_by(keys).aggregate([])
            slp = _key_slice(pres, keys, num_slices)
            parts.append(
                pa.table(
                    {
                        **{k: pres[k] for k in keys},
                        "__v": pa.array([""] * len(pres), pa.string()),
                        "__agg": pa.array(np.full(len(pres), -1, np.int8)),
                        "slice": pa.array(slp),
                    }
                )
            )
        for ai, (out, col) in enumerate(items):
            t = batch.select(list(dict.fromkeys(keys + [col])))
            t = t.filter(pc.is_valid(t[col]))
            dt = t.group_by(keys + [col]).aggregate([])
            sl = _key_slice(dt, keys + [col], num_slices)
            parts.append(
                pa.table(
                    {
                        **{k: dt[k] for k in keys},
                        "__v": dt[col].cast(pa.string()),
                        "__agg": pa.array(
                            np.full(len(dt), ai, dtype=np.int8)
                        ),
                        "slice": pa.array(sl),
                    }
                )
            )
        return pa.concat_tables(parts, promote_options="default")

    def slice_counts(group: pa.Table) -> pa.Table:
        # global distinct within the slice, then per-(agg, keys) counts
        dt = group.drop_columns(["slice"]).group_by(
            ["__agg"] + keys + ["__v"]
        ).aggregate([])
        cnt = dt.group_by(["__agg"] + keys).aggregate([("__v", "count")])
        ren = {"__v_count": "__n"}
        cnt = cnt.rename_columns([ren.get(c, c) for c in cnt.column_names])
        sl2 = _key_slice(cnt, keys, num_slices)
        return cnt.append_column("slice2", pa.array(sl2))

    def final(group: pa.Table) -> pa.Table:
        import pandas as pd

        agg = group.drop_columns(["slice2"]).group_by(["__agg"] + keys).aggregate(
            [("__n", "sum")]
        )
        ren = {"__n_sum": "__n"}
        agg = agg.rename_columns([ren.get(c, c) for c in agg.column_names])
        # pivot per-agg rows into one row per key combo, null-key-safe
        # (pandas merge won't match NaN keys, so key by normalized tuples)
        base = (
            agg.group_by(keys).aggregate([])
            if keys
            else pa.table({"__one": pa.array([1])})
        )
        cols = {k: base[k] for k in keys} if keys else {}
        adf = agg.to_pandas()

        def norm(v):
            return None if pd.isna(v) else v

        bkeys = (
            [tuple(norm(v) for v in row) for row in
             zip(*[base[k].to_pylist() for k in keys])]
            if keys
            else [()]
        )
        for ai, (out, _col) in enumerate(items):
            sub = adf[adf["__agg"] == ai]
            lut = {
                tuple(norm(r[k]) for k in keys): int(r["__n"])
                for _i, r in sub.iterrows()
            }
            cols[out] = pa.array(
                [lut.get(bk, 0) for bk in bkeys], pa.int64()
            )
        return pa.table(cols)

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_counts, batch_format="pyarrow")
        .groupby("slice2")
        .map_groups(final, batch_format="pyarrow")
    )


# how a finished aggregate re-aggregates to a coarser grouping: subtotals
# of sums are sums, of counts are sums, of mins are mins, of maxes maxes.
# mean does NOT re-aggregate from finished means -> those fall back to
# full-input rescans.
_REAGG = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _reagg_plan(aggs: dict):
    """(re-aggregable?, coarser-level aggs over the detail output)."""
    if any(fn not in _REAGG for fn, _ in aggs.values()):
        return False, None
    return True, {out: (_REAGG[fn], out) for out, (fn, _) in aggs.items()}


def grouped_rollup(ds, keys, aggs: dict, num_slices: int | None = None):
    """SQL ``GROUP BY ROLLUP(keys...)``: the full-detail :func:`grouped_agg`
    pass plus one pass per subtotal level, unioned with a ``level`` column
    (= number of rolled-up keys, SQL ``GROUPING_ID``) and NULL-filled
    rolled-up key columns.

    Scale plan: for sum/count/min/max the input is scanned ONCE — subtotal
    levels re-aggregate the materialized detail table (group-count-sized,
    tiny next to the input); only ``mean`` forces per-level rescans (a
    finished mean can't be re-aggregated). Float-sum caveat: re-aggregation
    changes addition order, the same ulp-scale caveat grouped_agg already
    carries; integer-valued columns are exact either way.
    """
    import ray.data

    keys = [keys] if isinstance(keys, str) else list(keys)

    # key column types from the schema (NULL subtotal columns must be typed)
    schema = ds.schema()
    ktype = {k: schema.base_schema.field(k).type for k in keys}

    reagg, sub_aggs = _reagg_plan(aggs)
    detail = grouped_agg(ds, keys, aggs, num_slices)
    if reagg and keys:
        detail = detail.materialize()

    levels = []
    for L in range(len(keys), -1, -1):
        if L == len(keys):
            part = detail
        elif reagg:
            part = grouped_agg(detail, keys[:L], sub_aggs, num_slices)
        else:
            part = grouped_agg(ds, keys[:L], aggs, num_slices)
        rolled = keys[L:]
        lvl = len(keys) - L

        def pad(t: pa.Table, rolled=tuple(rolled), lvl=lvl) -> pa.Table:
            cols = {}
            for k in keys:
                if k in t.column_names:
                    cols[k] = t[k]
                else:
                    cols[k] = pa.nulls(len(t), ktype[k])
            for c in t.column_names:
                if c not in keys:
                    cols[c] = t[c]
            cols["level"] = pa.array(np.full(len(t), lvl, dtype=np.int64))
            return pa.table(cols)

        levels.append(part.map_batches(pad, batch_format="pyarrow"))
    out = levels[0]
    for more in levels[1:]:
        out = out.union(more)
    return out


def pivot(ds, key_col: str, cat_col: str, val_col: str, categories, agg: str = "sum"):
    """Long → wide reshape with aggregation: one row per ``key_col``, one
    column ``{val_col}_{cat}`` per entry of ``categories`` holding
    ``agg(val_col)`` over that key's rows with ``cat_col == cat`` — exactly
    SQL ``agg(CASE WHEN cat = c THEN val END)`` including its NULL
    semantics (a (key, cat) cell with no rows is NULL, not 0, because the
    masked column is all-null there and Arrow's min_count=1 default makes
    the aggregate null).

    ``categories`` is explicit — a deterministic output schema with no
    discovery pass; run a distinct/heavy-hitters op first if unknown. Thin
    composition over :func:`grouped_agg`, so the shuffle carries at most
    one partial row per (key, block): combiner-style, scale-safe for the
    usual many-rows/few-keys shape. ``agg`` ∈ sum/count/min/max/mean.
    Rows whose ``cat_col`` is NULL or not in ``categories`` are ignored
    (no CASE branch matches)."""
    import pyarrow.compute as pc

    cats = list(categories)

    def mask(batch: pa.Table) -> pa.Table:
        cols = {key_col: batch[key_col]}
        cat = batch[cat_col]
        val = batch[val_col]
        for i, c in enumerate(cats):
            cols[f"__m_{i}"] = pc.if_else(pc.equal(cat, c), val, None)
        return pa.table(cols)

    aggs = {f"{val_col}_{c}": (agg, f"__m_{i}") for i, c in enumerate(cats)}
    return grouped_agg(
        ds.select_columns(
            list(dict.fromkeys([key_col, cat_col, val_col]))
        ).map_batches(mask, batch_format="pyarrow"),
        key_col,
        aggs,
    )


def unpivot(
    ds,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "name",
    value_name: str = "value",
    value_type=None,
):
    """Wide → long reshape: each input row emits one ``(id_cols…, name,
    value)`` row per entry of ``value_cols`` — SQL ``UNION ALL`` of one
    SELECT per measure column. Stateless vectorized ``map_batches`` (no
    shuffle); all measures are cast to ``value_type`` (default float64,
    the UNION-ALL common supertype rule)."""
    import pyarrow.compute as pc

    vt = value_type or pa.float64()

    def explode(batch: pa.Table) -> pa.Table:
        parts = []
        for vc in value_cols:
            cols = {c: batch[c] for c in id_cols}
            cols[var_name] = pa.array([vc] * batch.num_rows, pa.string())
            cols[value_name] = pc.cast(batch[vc], vt)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.select_columns(
        list(dict.fromkeys(id_cols + value_cols))
    ).map_batches(explode, batch_format="pyarrow")


def grouped_mode(ds, key_col: str, value_col: str, num_slices: int | None = None):
    """Most-frequent value per key (the MODE aggregate sum/min/max can't
    express), ties → smallest value — "dominant event type per user",
    "majority language per domain". NULL values are ignored (SQL
    ``count(value)`` semantics); NULL keys form their own group.

    Combiner shape: each block collapses to its distinct (key, value)
    partial counts with Arrow's hash group-by, partials shuffle by a
    coarse md5 KEY slice (a key's candidate values must co-locate for the
    argmax — never one Ray group per key), each slice re-sums and takes
    one lexsort argmax over ALL its keys. Shuffle volume = distinct
    (key, value) pairs per block, not rows."""
    import pyarrow.compute as pc

    if num_slices is None:
        num_slices = dataflow.num_slices()

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col]).filter(
            pc.is_valid(batch[value_col])
        )
        agg = t.group_by([key_col, value_col]).aggregate([(value_col, "count")])
        cnt = agg[f"{value_col}_count"].cast(pa.int64())
        keys = agg[key_col]
        sl = dataflow.slice_of(num_slices, keys)
        return pa.table(
            {
                key_col: keys,
                value_col: agg[value_col],
                "n": cnt,
                "slice": pa.array(sl),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        agg = group.group_by([key_col, value_col]).aggregate([("n", "sum")])
        if agg.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], group.schema.field(key_col).type),
                    "mode_value": pa.array(
                        [], group.schema.field(value_col).type
                    ),
                    "mode_count": pa.array([], pa.int64()),
                }
            )
        from .windows import _sorted_key_ranks

        # key ids only need equal-iff-equal (group runs), and raw dictionary
        # indices give that even for NULL keys (fill with a fresh id —
        # _sorted_key_ranks would alias NULL onto the last real key's rank);
        # value ranks DO need ascending order for the tie-break
        kenc = agg[key_col].combine_chunks().dictionary_encode()
        kr = (
            kenc.indices.fill_null(len(kenc.dictionary))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vr = _sorted_key_ranks(agg[value_col])
        n = agg["n_sum"].cast(pa.int64()).combine_chunks().to_numpy(
            zero_copy_only=False
        )
        order = np.lexsort((vr, -n, kr))
        kr_o = kr[order]
        first = np.empty(len(kr_o), dtype=bool)
        first[0] = True
        first[1:] = kr_o[1:] != kr_o[:-1]
        win = pa.array(order[first].astype(np.int64))
        return pa.table(
            {
                key_col: agg[key_col].combine_chunks().take(win),
                "mode_value": agg[value_col].combine_chunks().take(win),
                "mode_count": pa.array(n[order[first]], pa.int64()),
            }
        )

    return (
        ds.select_columns(list(dict.fromkeys([key_col, value_col])))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def grouped_ols(
    ds,
    keys,
    x_col: str,
    y_col: str,
    x_scale: int = 1,
    y_scale: int = 1,
    num_slices: int | None = None,
):
    """Per-group simple linear regression (OLS slope + intercept + n) via
    EXACT integer sufficient statistics — the distributed equivalent of SQL
    ``regr_slope`` / ``regr_intercept`` but bit-reproducible: ``x``/``y``
    are snapped to integers (``round(v * scale)``, half-away-from-zero), the
    five sufficient sums (n, Σx, Σy, Σx², Σxy) accumulate as int64 through
    :func:`grouped_agg`'s combiner partials (order-free), and the final
    slope/intercept expression runs once per group in float64 in a fixed
    operation order — so a DuckDB oracle writing the SAME expression over
    SQL integer sums matches bitwise before the final ROUND.

    Output: key columns + (n, slope, intercept), slope/intercept rounded
    half-away-from-zero to 6 decimals, NULL when the group's x-variance is
    zero. Rows where either column is NULL are excluded (SQL regr_*
    semantics). Caller owns the int64 budget: |Σ x²·scale²| and
    |Σ x·y·scale²| must stay under 2^63.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def enrich(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.and_(
            pc.is_valid(t[x_col]), pc.is_valid(t[y_col])
        )
        t = t.filter(ok)
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        y = t[y_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(x) & np.isfinite(y)
        if not finite.all():  # valid NaN/inf would poison the int64 cast
            t = t.filter(pa.array(finite))
            x, y = x[finite], y[finite]
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x).astype(np.int64)
        yi = np.copysign(np.floor(np.abs(y * y_scale) + 0.5), y).astype(np.int64)
        cols = {k: t[k] for k in keys}
        cols["xi"] = pa.array(xi)
        cols["yi"] = pa.array(yi)
        cols["xx"] = pa.array(xi * xi)
        cols["xy"] = pa.array(xi * yi)
        return pa.table(cols)

    sums = grouped_agg(
        ds.map_batches(enrich, batch_format="pyarrow"),
        keys,
        {
            "n": ("count", "xi"),
            "sx": ("sum", "xi"),
            "sy": ("sum", "yi"),
            "sxx": ("sum", "xx"),
            "sxy": ("sum", "xy"),
        },
        num_slices=num_slices,
    )
    unscale = float(x_scale) / float(y_scale)

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = t["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = t["sxy"].to_numpy(zero_copy_only=False).astype(np.float64)
        denom = n * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            slope_s = (n * sxy - sx * sy) / denom
            slope = slope_s * unscale
            intercept = ((sy - slope_s * sx) / n) / float(y_scale)
        slope = np.copysign(np.floor(np.abs(slope) * 1e6 + 0.5) / 1e6, slope)
        intercept = np.copysign(
            np.floor(np.abs(intercept) * 1e6 + 0.5) / 1e6, intercept
        )
        valid = denom != 0.0
        cols = {k: t[k] for k in keys}
        cols["n"] = t["n"]
        cols["slope"] = pa.array(
            [float(s) if v else None for s, v in zip(slope, valid)], pa.float64()
        )
        cols["intercept"] = pa.array(
            [float(i) if v else None for i, v in zip(intercept, valid)],
            pa.float64(),
        )
        return pa.table(cols)

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_cube(ds, keys, aggs: dict, num_slices: int | None = None):
    """SQL ``GROUP BY CUBE(keys...)``: one :func:`grouped_agg` pass per key
    SUBSET (2^k unions), each tagged with the SQL ``GROUPING_ID`` bitmask
    (bit i set = keys[i] rolled up, first key = most significant bit) and
    NULL-filled rolled-up key columns — the rollup-as-union plan extended
    to the full lattice.

    Scale plan mirrors :func:`grouped_rollup`: for sum/count/min/max the
    input is scanned ONCE and all 2^k−1 coarser subsets re-aggregate the
    materialized full-detail table; ``mean`` falls back to per-subset
    rescans."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    k = len(keys)
    schema = ds.schema()
    ktype = {c: schema.base_schema.field(c).type for c in keys}

    reagg, sub_aggs = _reagg_plan(aggs)
    detail = grouped_agg(ds, keys, aggs, num_slices)
    if reagg and keys:
        detail = detail.materialize()

    levels = []
    for mask in range(2**k):
        kept = [keys[i] for i in range(k) if not (mask >> (k - 1 - i)) & 1]
        if mask == 0:
            part = detail
        elif reagg:
            part = grouped_agg(detail, kept, sub_aggs, num_slices)
        else:
            part = grouped_agg(ds, kept, aggs, num_slices)

        def pad(t: pa.Table, kept=tuple(kept), mask=mask) -> pa.Table:
            cols = {}
            for c in keys:
                cols[c] = t[c] if c in kept else pa.nulls(len(t), ktype[c])
            for c in t.column_names:
                if c not in keys:
                    cols[c] = t[c]
            cols["grouping_id"] = pa.array(np.full(len(t), mask, dtype=np.int64))
            return pa.table(cols)

        levels.append(part.map_batches(pad, batch_format="pyarrow"))
    out = levels[0]
    for more in levels[1:]:
        out = out.union(more)
    return out


def grouped_variance(
    ds,
    keys,
    x_col: str,
    x_scale: int = 1,
    num_slices: int | None = None,
):
    """Per-group variance / standard deviation via EXACT integer sufficient
    statistics — the distributed, bit-reproducible equivalent of SQL
    ``var_pop`` / ``var_samp`` / ``stddev``: ``x`` is snapped to integers
    (``round(v * x_scale)``, half-away-from-zero), the three sufficient
    sums (n, Σx, Σx²) accumulate as int64 through :func:`grouped_agg`'s
    combiner partials (order-free), and each group's finish runs ONE fixed
    float64 expression::

        var_pop  = ((sxx - (sx * sx) / n) / n) / scale²
        var_samp = ((sxx - (sx * sx) / n) / (n - 1)) / scale²   (n ≥ 2)
        stddev_* = sqrt(greatest(var_*, 0))

    so a DuckDB oracle spelling the same expression over integer ``sum()``
    columns matches bitwise before the final ROUND(…, 6). NULL rows are
    excluded (SQL aggregate semantics); groups whose every row is NULL
    still appear with n = 0 and NULL stats; ``var_samp``/``stddev_samp``
    are NULL for n < 2. Caller owns the int64 budget: Σx²·scale² < 2⁶³
    and |Σx|·scale < 2^26.5 (so (sx·sx) stays exact in float64).

    Output: keys + (n, mean, var_pop, var_samp, stddev_pop, stddev_samp),
    floats rounded half-away-from-zero to 6 decimals.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def enrich(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {k: t[k] for k in keys}
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x)
        valid = np.isfinite(xi)  # NaN AND +/-inf drop (int64 cast is UB)
        xi_i = np.where(valid, xi, 0).astype(np.int64)
        cols["xi"] = pa.array(xi_i, pa.int64(), mask=~valid)
        cols["xx"] = pa.array(xi_i * xi_i, pa.int64(), mask=~valid)
        return pa.table(cols)

    sums = grouped_agg(
        ds.map_batches(enrich, batch_format="pyarrow"),
        keys,
        {"n": ("count", "xi"), "sx": ("sum", "xi"), "sxx": ("sum", "xx")},
        num_slices=num_slices,
    )
    s2 = float(x_scale) * float(x_scale)

    def _r6(arr):
        return np.copysign(np.floor(np.abs(arr) * 1e6 + 0.5) / 1e6, arr)

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        # all-null groups come back with NULL sums — treat as 0-count
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (sx / n) / float(x_scale)
            ss = sxx - (sx * sx) / n
            var_pop = (ss / n) / s2
            var_samp = (ss / (n - 1.0)) / s2
            sd_pop = np.sqrt(np.maximum(var_pop, 0.0))
            sd_samp = np.sqrt(np.maximum(var_samp, 0.0))
        ok = n > 0
        ok2 = n > 1
        cols = {k: t[k] for k in keys}
        cols["n"] = t["n"].cast(pa.int64())

        def col(vals, mask):
            return pa.array(
                [float(v) if m else None for v, m in zip(_r6(vals), mask)],
                pa.float64(),
            )

        cols["mean"] = col(mean, ok)
        cols["var_pop"] = col(var_pop, ok)
        cols["var_samp"] = col(var_samp, ok2)
        cols["stddev_pop"] = col(sd_pop, ok)
        cols["stddev_samp"] = col(sd_samp, ok2)
        return pa.table(cols)

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_hhi(ds, group_col: str, cat_col: str, num_slices: int | None = None):
    """Per-group Herfindahl–Hirschman concentration index over a category
    column — the standard "is this language dominated by one source / one
    domain?" diversity diagnostic: ``HHI = Σᵢ (cᵢ/n)² = (Σ cᵢ²) / n²``
    where cᵢ are the category counts within the group (1/n_cats = perfectly
    even, 1 = single category).

    Exactness: both Σ cᵢ² and n are int64 (order-free), the finish is ONE
    float division of exact integers — bitwise equal to the SQL mirror, no
    rounding games needed (still rounded to 6 for display parity). Plan:
    two :func:`grouped_agg` passes — (group, cat) counts, then per-group
    sums of c and c² — both combiner-partial shuffles.

    Returns ``(group, n, n_cats, hhi)``.
    """
    def drop_null_cats(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([group_col, cat_col])
        # NULL categories count 0 under Arrow count(col) but count(*) in
        # SQL — exclude them on both engines (mirror: WHERE cat IS NOT NULL)
        return t.filter(pc.is_valid(t[cat_col]))

    counts = grouped_agg(
        ds.map_batches(drop_null_cats, batch_format="pyarrow"),
        [group_col, cat_col],
        {"c": ("count", cat_col)},
        num_slices=num_slices,
    )

    def enrich(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: t[group_col],
                "c": pa.array(c, pa.int64()),
                "cc": pa.array(c * c, pa.int64()),
            }
        )

    sums = grouped_agg(
        counts.map_batches(enrich, batch_format="pyarrow"),
        [group_col],
        {
            "n": ("sum", "c"),
            "sq": ("sum", "cc"),
            "n_cats": ("count", "c"),
        },
        num_slices=num_slices,
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sq = t["sq"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            hhi = sq / (n * n)
        hhi = np.copysign(np.floor(np.abs(hhi) * 1e6 + 0.5) / 1e6, hhi)
        return pa.table(
            {
                group_col: t[group_col],
                "n": t["n"].cast(pa.int64()),
                "n_cats": t["n_cats"].cast(pa.int64()),
                "hhi": pa.array(
                    [float(v) if nn > 0 else None for v, nn in zip(hhi, n)],
                    pa.float64(),
                ),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_string_agg(
    ds,
    key_col: str,
    val_col: str,
    sep: str = ",",
    max_values: int | None = 1000,
    num_slices: int | None = None,
):
    """Per-group sorted-DISTINCT string concatenation — SQL
    ``string_agg(DISTINCT v, sep ORDER BY v)``: the label-list / alias-list
    builder (all sources of a language, all mirrors of a URL). Sorted +
    distinct makes the result order-free and engine-portable.

    Plan: each block collapses to its distinct (key, value) pairs (Arrow
    group-by), one coarse key-slice shuffle co-locates a key's pairs, and
    each slice re-distincts + joins with one lexsort — never one Ray group
    per key. ``max_values`` caps the per-key list (ascending order keeps
    the cap deterministic; None = unbounded, caller owns the memory).

    Returns ``(key, n_values, values)``.
    """
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def partial(batch: pa.Table) -> pa.Table:
        proj = pa.table({key_col: batch[key_col], val_col: batch[val_col]})
        return proj.group_by([key_col, val_col]).aggregate([])

    def final(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        empty = pa.table(
            {
                key_col: group[key_col].slice(0, 0),
                "n_values": pa.array([], pa.int64()),
                "values": pa.array([], pa.string()),
            }
        )
        if group.num_rows == 0:
            return empty
        dist = group.group_by([key_col, val_col]).aggregate([])
        from .windows import _sorted_key_ranks

        kr = _sorted_key_ranks(dist[key_col])
        vals = dist[val_col].combine_chunks().cast(pa.string())
        vnull = pa.compute.is_null(vals).to_numpy(zero_copy_only=False)
        # fill nulls for SORTABILITY only (lexsort compares every key);
        # the vnull mask drops them after the sort
        varr = np.asarray(vals.fill_null("").to_pylist(), dtype=object)
        o = np.lexsort((varr, vnull, kr))  # nulls last per key, dropped below
        kr, varr, vnull = kr[o], varr[o], vnull[o]
        keep = ~vnull  # SQL string_agg skips NULL values
        out_k, out_n, out_v = [], [], []
        new = np.empty(len(kr), dtype=bool)
        new[0] = True
        new[1:] = kr[1:] != kr[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(kr)]
        key_arr = dist[key_col].combine_chunks().take(
            pa.array(o[starts], pa.int64())
        )
        for i, (st, en) in enumerate(zip(starts.tolist(), ends.tolist())):
            vs = [v for v, k in zip(varr[st:en], keep[st:en]) if k]
            if max_values is not None:
                vs = vs[:max_values]
            out_n.append(len(vs))
            out_v.append(sep.join(vs) if vs else None)
        return pa.table(
            {
                key_col: key_arr,
                "n_values": pa.array(out_n, pa.int64()),
                "values": pa.array(out_v, pa.string()),
            }
        )

    return (
        ds.select_columns([key_col, val_col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice(key_col, num_slices),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def spearman_corr(ds, keys, x_col: str, y_col: str, num_slices: int | None = None):
    """Per-group Spearman rank correlation — the scale-free monotonic
    association eval (score calibration drift, feature redundancy): Pearson
    over SQL ``rank()``-style min-ranks (ties share the smallest position;
    the standard average-tie variant differs only in the tie constant, and
    min-ranks keep every statistic in exact int64).

    Plan: one md5 key-slice shuffle co-locates whole groups; each slice
    ranks ALL its groups with two lexsorts (tie runs = boundary masks) and
    collapses to exact integer sufficient statistics; the finish is the
    fixed-order corr expression mirrored in SQL ⇒ bitwise before
    ROUND(…, 6). Rows with a NULL in either column are excluded (SQL corr
    semantics). Caller owns the int64 budget: n³ < 2⁶³ per group
    (n < 2.09M rows; rank products reach n·n²).

    Returns ``(keys…, n, spearman)``; NULL when rank variance is zero.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    from .windows import _sorted_key_ranks

    def _min_ranks(kr: np.ndarray, v: np.ndarray) -> np.ndarray:
        """SQL rank() of v within each kr group (1-based, ties → min)."""
        o = np.lexsort((v, kr))
        ks, vs = kr[o], v[o]
        n = len(ks)
        gstart = np.empty(n, dtype=bool)
        gstart[0] = True
        gstart[1:] = ks[1:] != ks[:-1]
        run_new = gstart.copy()
        run_new[1:] |= vs[1:] != vs[:-1]
        gs_idx = np.flatnonzero(gstart)
        gseg = np.cumsum(gstart) - 1
        run_first = np.flatnonzero(run_new)
        rseg = np.cumsum(run_new) - 1
        pos = np.arange(n, dtype=np.int64)
        rank_sorted = run_first[rseg] - gs_idx[gseg] + 1
        out = np.empty(n, dtype=np.int64)
        out[o] = rank_sorted
        return out

    def add_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.and_(pc.is_valid(batch[x_col]), pc.is_valid(batch[y_col]))
        t = batch.filter(ok)
        proj = {k: t[k] for k in keys}
        proj["__x"] = t[x_col].cast(pa.float64())
        proj["__y"] = t[y_col].cast(pa.float64())
        # composite slice key (string-joined) so one md5 slice helper works
        if len(keys) == 1:
            kc = t[keys[0]].cast(pa.string())
        else:
            import pyarrow.compute as pc2

            kc = pc2.binary_join_element_wise(
                *[t[k].cast(pa.string()) for k in keys], "\x1f"
            )
        proj["__k"] = kc
        return pa.table(proj)

    def corr_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        empty = pa.table(
            {
                **{k: group[k].slice(0, 0) for k in keys},
                "n": pa.array([], pa.int64()),
                "spearman": pa.array([], pa.float64()),
            }
        )
        if group.num_rows == 0:
            return empty
        kr = _sorted_key_ranks(group["__k"])
        x = group["__x"].to_numpy(zero_copy_only=False)
        y = group["__y"].to_numpy(zero_copy_only=False)
        rx = _min_ranks(kr, x)
        ry = _min_ranks(kr, y)
        o = np.argsort(kr, kind="stable")
        ks = kr[o]
        new = np.empty(len(ks), dtype=bool)
        new[0] = True
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        rx_s, ry_s = rx[o], ry[o]
        n_g = np.diff(np.r_[starts, len(ks)]).astype(np.float64)
        sx = np.add.reduceat(rx_s, starts).astype(np.float64)
        sy = np.add.reduceat(ry_s, starts).astype(np.float64)
        sxx = np.add.reduceat(rx_s * rx_s, starts).astype(np.float64)
        syy = np.add.reduceat(ry_s * ry_s, starts).astype(np.float64)
        sxy = np.add.reduceat(rx_s * ry_s, starts).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.sqrt((n_g * sxx - sx * sx) * (n_g * syy - sy * sy))
            corr = (n_g * sxy - sx * sy) / denom
        corr = np.copysign(np.floor(np.abs(corr) * 1e6 + 0.5) / 1e6, corr)
        valid = denom > 0
        rep = pa.array(o[starts], pa.int64())
        cols = {k: group[k].combine_chunks().take(rep) for k in keys}
        cols["n"] = pa.array(n_g.astype(np.int64), pa.int64())
        cols["spearman"] = pa.array(
            [float(c) if v else None for c, v in zip(corr, valid)], pa.float64()
        )
        return pa.table(cols)

    return (
        ds.map_batches(add_key, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice("__k", dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(corr_slice, batch_format="pyarrow")
    )


def grouped_skewness(
    ds,
    keys,
    x_col: str,
    x_scale: int = 1,
    num_slices: int | None = None,
):
    """Per-group skewness + excess kurtosis via EXACT integer sufficient
    statistics — the higher-moment sibling of :func:`grouped_variance`
    (distributed third/fourth central moments the way a single-node engine
    would compute ``skewness()`` from raw moments, but bit-reproducible on
    any cluster): ``x`` snaps to integers (``round(v * x_scale)``,
    half-away-from-zero), the five sufficient sums (n, Σx, Σx², Σx³, Σx⁴)
    accumulate as int64 through :func:`grouped_agg`'s combiner partials
    (order-free), and the finish is ONE fixed float64 expression per
    statistic::

        mean = sx/n;  q2 = sxx/n;  q3 = sxxx/n;  q4 = sxxxx/n
        m2 = q2 - mean*mean
        m3 = q3 - 3.0*mean*q2 + 2.0*((mean*mean)*mean)
        m4 = q4 - 4.0*mean*q3 + 6.0*((mean*mean)*q2)
             - 3.0*(((mean*mean)*mean)*mean)
        skew_pop = m3 / (m2 * sqrt(m2))          (NULL when m2 <= 0)
        kurt_excess = m4 / (m2 * m2) - 3.0       (NULL when m2 <= 0)

    so a DuckDB oracle spelling the SAME parenthesization over integer
    ``sum()`` columns matches bitwise before the final ROUND(…, 6). The
    ``/x_scale`` rescales cancel in both ratios (skewness and kurtosis are
    scale-invariant), so the snapped-integer moments ARE the statistics.
    NULL rows are excluded; all-null groups appear with n = 0 and NULL
    stats. Caller owns the int64 budget: Σ|x·scale|⁴ < 2⁶³.

    Output: keys + (n, skew_pop, kurt_excess), floats rounded
    half-away-from-zero to 6 decimals.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def enrich(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x)
        valid = np.isfinite(xi)  # NaN AND +/-inf drop (int64 cast is UB)
        xi_i = np.where(valid, xi, 0).astype(np.int64)
        cols["x1"] = pa.array(xi_i, pa.int64(), mask=~valid)
        cols["x2"] = pa.array(xi_i * xi_i, pa.int64(), mask=~valid)
        cols["x3"] = pa.array(xi_i * xi_i * xi_i, pa.int64(), mask=~valid)
        cols["x4"] = pa.array(
            (xi_i * xi_i) * (xi_i * xi_i), pa.int64(), mask=~valid
        )
        return pa.table(cols)

    sums = grouped_agg(
        ds.map_batches(enrich, batch_format="pyarrow"),
        keys,
        {
            "n": ("count", "x1"),
            "sx": ("sum", "x1"),
            "sxx": ("sum", "x2"),
            "sxxx": ("sum", "x3"),
            "sxxxx": ("sum", "x4"),
        },
        num_slices=num_slices,
    )

    def _r6(arr):
        return np.copysign(np.floor(np.abs(arr) * 1e6 + 0.5) / 1e6, arr)

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxxx = t["sxxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxxxx = t["sxxxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = sx / n
            q2 = sxx / n
            q3 = sxxx / n
            q4 = sxxxx / n
            m2 = q2 - mean * mean
            m3 = q3 - 3.0 * mean * q2 + 2.0 * ((mean * mean) * mean)
            m4 = (
                q4
                - 4.0 * mean * q3
                + 6.0 * ((mean * mean) * q2)
                - 3.0 * (((mean * mean) * mean) * mean)
            )
            skew = m3 / (m2 * np.sqrt(m2))
            kurt = m4 / (m2 * m2) - 3.0
        ok = (n > 0) & (m2 > 0)
        cols = {k: t[k] for k in keys}
        cols["n"] = t["n"].cast(pa.int64())
        for name, vals in (("skew_pop", skew), ("kurt_excess", kurt)):
            cols[name] = pa.array(
                [float(v) if m else None for v, m in zip(_r6(vals), ok)],
                pa.float64(),
            )
        return pa.table(cols)

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_trimmed_mean(
    ds,
    keys,
    x_col: str,
    trim_ppm: int = 100_000,
    x_scale: int = 1,
    num_slices: int | None = None,
):
    """Per-group trimmed mean (drop the lowest and highest ``trim_ppm``
    parts-per-million of rows by value, then average the rest) — the
    robust-location aggregate for skewed web-scale metrics where a few
    spam outliers poison a plain mean.

    Exactness contract: the trim count is pure integer arithmetic
    ``t = n * trim_ppm // 1_000_000`` (mirror with SQL integer division —
    never ``floor(n * 0.1)`` through a float), values snap to integers
    (``round(v * x_scale)``, half-away-from-zero) so the kept-rows sum is
    an exact int64, and the mean is ONE float division
    ``sum / n_used / x_scale`` mirrored in SQL ⇒ bitwise (no rounding
    needed). Which PHYSICAL rows are dropped under ties is
    engine-dependent, but the kept VALUE MULTISET is rank-determined, so
    the sum is identical. NULLs are excluded; groups with no rows left
    after trimming report n_used = 0 and a NULL mean.

    Scale shape: one md5 key-slice shuffle of (key, snapped value) pairs;
    each slice sorts all its groups in one lexsort and trims by run
    arithmetic. Like :func:`ops.textstats.group_quantiles`, exactness
    requires a group's values to fit in one worker — sample or bin first
    when they don't.
    """
    from .windows import _sorted_key_ranks

    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) != 1:
        raise ValueError("grouped_trimmed_mean takes exactly one key column")
    key_col = keys[0]

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([key_col, x_col])
        t = t.filter(pc.is_valid(t[x_col]))
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(x)
        if not finite.all():  # NaN/inf are VALID floats — drop like NULLs
            t = t.filter(pa.array(finite))
            x = x[finite]
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x).astype(
            np.int64
        )
        return pa.table({key_col: t[key_col], "x": pa.array(xi)})

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "n_used": pa.array([], pa.int64()),
                    "trimmed_mean": pa.array([], pa.float64()),
                }
            )
        x = t["x"].to_numpy(zero_copy_only=False)
        r = _sorted_key_ranks(t[key_col])
        order = np.lexsort((x, r))
        rs, xs = r[order], x[order]
        n = len(order)
        new_k = np.empty(n, dtype=bool)
        new_k[0] = True
        new_k[1:] = rs[1:] != rs[:-1]
        g_starts = np.flatnonzero(new_k)
        g_ends = np.append(g_starts[1:], n)
        out_keys, n_useds, means = [], [], []
        key_rows = t[key_col].take(pa.array(order[g_starts], pa.int64()))
        for s, e in zip(g_starts, g_ends):
            gn = e - s
            tcut = gn * trim_ppm // 1_000_000
            lo, hi = s + tcut, e - tcut
            n_used = max(hi - lo, 0)
            n_useds.append(int(n_used))
            if n_used > 0:
                total = int(xs[lo:hi].sum())
                means.append(
                    float(total) / float(n_used) / float(x_scale)
                )
            else:
                means.append(None)
        return pa.table(
            {
                key_col: key_rows,
                "n_used": pa.array(n_useds, pa.int64()),
                "trimmed_mean": pa.array(means, pa.float64()),
            }
        )

    return (
        ds.map_batches(snap, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice(key_col, num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def grouped_rate_bounds(
    ds,
    keys,
    flag_col: str,
    z: float = 1.96,
    num_slices: int | None = None,
):
    """Per-group binomial rate with Wilson score interval — the
    statistically honest "conversion rate" / "defect rate" aggregate for
    groups of wildly different sizes (a 2/2 group must not outrank a
    480/500 group; the Wilson bound is the standard fix, and its LOWER
    bound is the classic ranking score).

    Exactness: n and k are exact int64 through :func:`grouped_agg`'s
    combiner partials; the finish is ONE fixed float64 expression per
    bound (IEEE ``sqrt`` is correctly rounded — unlike ``ln``/``log2`` it
    IS bitwise across engines)::

        p      = k/n;   zz = z*z
        denom  = 1.0 + zz/n
        center = (p + zz/(2.0*n)) / denom
        half   = (z * sqrt((p*(1.0-p))/n + zz/(4.0*(n*n)))) / denom

    mirrored operation-for-operation in SQL (CAST the z literal to DOUBLE
    in the oracle — a bare ``1.96`` is a DECIMAL and ``1.96*1.96`` would
    be exact where Python's float product is not). Groups with n = 0 are
    excluded upstream (NULL flags drop; a group appears iff it has a
    non-null flag row).

    Output: keys + ``(n, k, rate, wilson_lo, wilson_hi)``.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def enrich(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.is_valid(t[flag_col]))
        cols = {c: t[c] for c in keys}
        cols["f"] = t[flag_col].cast(pa.int64())
        return pa.table(cols)

    sums = grouped_agg(
        ds.map_batches(enrich, batch_format="pyarrow"),
        keys,
        {"n": ("count", "f"), "k": ("sum", "f")},
        num_slices=num_slices,
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = k / n
            zz = z * z
            denom = 1.0 + zz / n
            center = (p + zz / (2.0 * n)) / denom
            half = (z * np.sqrt((p * (1.0 - p)) / n + zz / (4.0 * (n * n)))) / denom
            lo = center - half
            hi = center + half
        cols = {c: t[c] for c in keys}
        cols["n"] = t["n"].cast(pa.int64())
        cols["k"] = t["k"].cast(pa.int64())
        ok = n > 0
        for name, vals in (("rate", p), ("wilson_lo", lo), ("wilson_hi", hi)):
            cols[name] = pa.array(
                [float(v) if m else None for v, m in zip(vals, ok)],
                pa.float64(),
            )
        return pa.table(cols)

    return sums.map_batches(finish, batch_format="pyarrow")


def _snap_int(ds, key_col: str, x_col: str, x_scale: int):
    """(key, x int64) Dataset: round(v·x_scale) half-away-from-zero, NULL
    and non-finite rows dropped. NULL group keys are dropped too — they
    would reach the object-dtype argsort in `_rank_search` as None and
    raise TypeError (mirror: WHERE key IS NOT NULL in the oracles).
    Materialized once — the rank-search passes re-read it from the object
    store."""

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([key_col, x_col])
        t = t.filter(
            pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[x_col]))
        )
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(x)
        if not finite.all():  # NaN/inf are VALID floats — drop like NULLs
            t = t.filter(pa.array(finite))
            x = x[finite]
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x).astype(
            np.int64
        )
        return pa.table({key_col: t[key_col], "x": pa.array(xi)})

    return ds.map_batches(snap, batch_format="pyarrow").materialize()


def _rank_search(snapped, key_col: str, searches: dict, max_buckets: int):
    """Resolve every (group, sid) → k-th-smallest search by iterative
    bucket-counting passes over the materialized (key, x) stream. State
    per search: [lo, hi, k_rem]; terminates when lo == hi (the value).
    Each pass emits ≤ |active searches| × ``max_buckets`` count partials
    and shrinks every active interval ×``max_buckets``."""
    import ray

    while True:
        active = {
            sk: tuple(st) for sk, st in searches.items() if st[0] < st[1]
        }
        if not active:
            return searches
        by_group: dict = {}
        for (g, sid), st in active.items():
            by_group.setdefault(g, []).append((sid, st))
        act_ref = ray.put(by_group)

        def bucket_counts(batch: pa.Table) -> pa.Table:
            acts = ray.get(act_ref)
            gv = batch[key_col].to_pylist()
            xv = batch["x"].to_numpy(zero_copy_only=False)
            out_g, out_s, out_b, out_c = [], [], [], []
            # group the batch's rows by key once, probe each active search
            order = np.argsort(np.asarray(gv, dtype=object), kind="stable")
            gs = np.asarray(gv, dtype=object)[order]
            xs = xv[order]
            starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
            ends = np.append(starts[1:], len(gs))
            for s, e in zip(starts, ends):
                g = gs[s]
                seg = xs[s:e]
                for sid, st in acts.get(g, ()):
                    lo, hi, _k = st
                    width = hi - lo + 1  # Python int: full-range safe
                    nb = min(max_buckets, width)
                    bw = (width + nb - 1) // nb  # ceil bucket width
                    sel = seg[(seg >= lo) & (seg <= hi)]
                    if len(sel) == 0:
                        continue
                    # uint64 two's-complement diff: exact for ANY int64
                    # span (sel - lo as int64 would overflow past 2^63)
                    d = sel.view(np.uint64) - np.uint64(lo & 0xFFFFFFFFFFFFFFFF)
                    b = (d // np.uint64(bw)).astype(np.int64)
                    ub, cb = np.unique(b, return_counts=True)
                    out_g.extend([g] * len(ub))
                    out_s.extend([sid] * len(ub))
                    out_b.extend(ub.tolist())
                    out_c.extend(cb.tolist())
            return pa.table(
                {
                    key_col: pa.array(out_g),
                    "sid": pa.array(out_s, pa.int32()),
                    "bucket": pa.array(out_b, pa.int64()),
                    "c": pa.array(out_c, pa.int64()),
                }
            )

        parts = (
            snapped.map_batches(bucket_counts, batch_format="pyarrow")
            .to_pandas()  # ≤ |searches| × buckets partial rows
        )
        agg = (
            parts.groupby([key_col, "sid", "bucket"], as_index=False)["c"].sum()
            if len(parts)
            else parts
        )
        for (g, sid), st in list(searches.items()):
            lo, hi, k = st
            if lo >= hi:
                continue
            width = hi - lo + 1
            nb = min(max_buckets, width)
            bw = (width + nb - 1) // nb  # same ceil width the workers used
            sub = agg[(agg[key_col] == g) & (agg["sid"] == sid)].sort_values(
                "bucket"
            )
            cum = 0
            for _j, r in sub.iterrows():
                b, c = int(r["bucket"]), int(r["c"])
                if cum + c >= k:
                    # bucket b's EXACT value range under d // bw bucketing
                    # — in-interval ranks stay consistent across passes
                    new_lo = lo + b * bw
                    new_hi = min(lo + (b + 1) * bw - 1, hi)
                    searches[(g, sid)] = [new_lo, new_hi, k - cum]
                    break
                cum += c


def median_streaming(
    ds,
    keys,
    x_col: str,
    x_scale: int = 1,
    max_buckets: int = 65536,
):
    """Per-group EXACT median computed by iterative bucket-counting passes
    — the 100-TB answer to ``grouped_mad``'s caveat ("exactness requires a
    group's values to fit in one worker"): NO sort, NO group
    materialization, and nothing row-sized ever leaves a block. Each pass
    streams the corpus once emitting per-(group, bucket) count partials
    (≤ groups × ``max_buckets`` rows), the driver narrows every group's
    order-statistic search to the bucket containing its target rank, and
    the value range shrinks ×``max_buckets`` per pass — ⌈log₆₅₅₃₆(range)⌉
    ≤ 4 passes for any int64 range, each a plain combiner scan.

    Values snap to integers (``round(v·x_scale)``, half-away-from-zero).
    Both middle order statistics are searched (they can land in different
    buckets), and the finish mirrors ``quantile_cont(0.5)``'s
    interpolation ``a + (b − a)·0.5`` over exact ints, rescaled and
    rounded half-away 4dp (the ``group_quantiles`` convention). NULLs
    drop; all-null groups are absent (no rank to find).

    Output: one row per group — ``(key, n, median)``.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) != 1:
        raise ValueError("median_streaming takes exactly one key column")
    key_col = keys[0]
    snapped = _snap_int(ds, key_col, x_col, x_scale)
    stats = grouped_agg(
        snapped,
        keys,
        {"n": ("count", "x"), "mn": ("min", "x"), "mx": ("max", "x")},
    ).to_pandas()  # one row per group
    if len(stats) == 0:
        return pa.table(
            {
                key_col: pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "median": pa.array([], pa.float64()),
            }
        )

    # two independent order-statistic searches per group (the two middle
    # ranks; equal when n is odd): state = (lo, hi, k_rem 1-based)
    searches: dict = {}
    for _i, row in stats.iterrows():
        g = row[key_col]
        n = int(row["n"])
        if n == 0:
            continue
        searches[(g, 0)] = [int(row["mn"]), int(row["mx"]), (n + 1) // 2]
        searches[(g, 1)] = [int(row["mn"]), int(row["mx"]), n // 2 + 1]
    _rank_search(snapped, key_col, searches, max_buckets)

    rows = {key_col: [], "n": [], "median": []}
    from .dedup import round_half_up4

    for _i, row in stats.iterrows():
        g = row[key_col]
        n = int(row["n"])
        if n == 0:
            continue
        a = float(searches[(g, 0)][0])
        b = float(searches[(g, 1)][0])
        med = (a + (b - a) * 0.5) / float(x_scale)
        rows[key_col].append(g)
        rows["n"].append(n)
        rows["median"].append(round_half_up4(med))
    return pa.table(
        {
            key_col: pa.array(rows[key_col]),
            "n": pa.array(rows["n"], pa.int64()),
            "median": pa.array(rows["median"], pa.float64()),
        }
    )


def quantiles_streaming(
    ds,
    keys,
    x_col: str,
    qs: tuple = (0.25, 0.5, 0.75, 0.9),
    x_scale: int = 1,
    max_buckets: int = 65536,
):
    """Per-group EXACT ``quantile_cont`` at every ``q`` — the scale path
    next to ``ops.textstats.group_quantiles`` (which sorts each group in
    one worker): the same iterative bucket-counting machinery as
    :func:`median_streaming` resolves BOTH straddling order statistics of
    every quantile in the SAME ≤4 corpus scans (all groups × quantiles
    searched concurrently; a pass's partial rows are ≤ |searches| ×
    ``max_buckets``). Interpolation ``a + (b − a)·frac`` with
    ``frac = (n−1)·q − ⌊(n−1)·q⌋`` over exact ints, rescaled, rounded
    half-away 4dp. Output matches group_quantiles' column naming:
    ``(key, n, q25, q50, …)``.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) != 1:
        raise ValueError("quantiles_streaming takes exactly one key column")
    key_col = keys[0]
    snapped = _snap_int(ds, key_col, x_col, x_scale)
    stats = grouped_agg(
        snapped,
        keys,
        {"n": ("count", "x"), "mn": ("min", "x"), "mx": ("max", "x")},
    ).to_pandas()
    qnames = [f"q{int(round(q * 100)):02d}" for q in qs]
    if len(stats) == 0:
        cols = {key_col: pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        for qn in qnames:
            cols[qn] = pa.array([], pa.float64())
        return pa.table(cols)

    searches: dict = {}
    fracs: dict = {}
    for _i, row in stats.iterrows():
        g = row[key_col]
        n = int(row["n"])
        if n == 0:
            continue
        for qi, q in enumerate(qs):
            pos = (n - 1) * float(q)
            kf = int(np.floor(pos))
            fracs[(g, qi)] = pos - kf
            lo, hi = int(row["mn"]), int(row["mx"])
            # sid must be a scalar int (it rides an int32 partial column)
            searches[(g, qi * 2)] = [lo, hi, kf + 1]
            searches[(g, qi * 2 + 1)] = [lo, hi, min(kf + 2, n)]
    _rank_search(snapped, key_col, searches, max_buckets)

    from .dedup import round_half_up4

    rows: dict = {key_col: [], "n": []}
    for qn in qnames:
        rows[qn] = []
    for _i, row in stats.iterrows():
        g = row[key_col]
        n = int(row["n"])
        if n == 0:
            continue
        rows[key_col].append(g)
        rows["n"].append(n)
        for qi, qn in enumerate(qnames):
            a = float(searches[(g, qi * 2)][0])
            b = float(searches[(g, qi * 2 + 1)][0])
            v = (a + (b - a) * fracs[(g, qi)]) / float(x_scale)
            rows[qn].append(round_half_up4(v))
    cols = {key_col: pa.array(rows[key_col]), "n": pa.array(rows["n"], pa.int64())}
    for qn in qnames:
        cols[qn] = pa.array(rows[qn], pa.float64())
    return pa.table(cols)


def weighted_median_streaming(
    ds,
    keys,
    x_col: str,
    w_col: str,
    x_scale: int = 1,
    max_buckets: int = 65536,
):
    """Per-group LOWER weighted median — the smallest value whose
    cumulative weight reaches half the group's total (integer weights;
    e.g. "the median document length weighted by token count", where long
    docs should pull harder than short ones) — on the
    :func:`median_streaming` bucket-counting engine with WEIGHT-sums in
    place of row counts: same ≤⌈log₆₅₅₃₆(range)⌉ streaming passes, same
    nothing-row-sized-leaves-a-block guarantee.

    Semantics (mirrored by the window oracle): with W = Σw over the group
    (weights must be non-negative int64; rows with NULL/zero weight are
    dropped), the result is the first value v in ascending order with
    ``cumw(v) ≥ ceil(W/2)`` — the type-1 lower median, exact with no
    interpolation. Output: ``(key, total_w, weighted_median)``.
    """
    import pyarrow.compute as pc

    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) != 1:
        raise ValueError("weighted_median_streaming takes one key column")
    key_col = keys[0]

    def snap(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, x_col, w_col])
        # NULL keys dropped like _snap_int (object-argsort can't order None)
        t = t.filter(
            pc.and_(
                pc.is_valid(t[key_col]),
                pc.and_(pc.is_valid(t[x_col]), pc.is_valid(t[w_col])),
            )
        )
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        w = t[w_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(x) & (w > 0)  # NaN/inf drop like NULLs
        if not finite.all():
            t = t.filter(pa.array(finite))
            x, w = x[finite], w[finite]
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x).astype(
            np.int64
        )
        return pa.table(
            {key_col: t[key_col], "x": pa.array(xi), "w": pa.array(w)}
        )

    snapped = ds.map_batches(snap, batch_format="pyarrow").materialize()
    stats = grouped_agg(
        snapped,
        keys,
        {"tw": ("sum", "w"), "mn": ("min", "x"), "mx": ("max", "x")},
    ).to_pandas()
    if len(stats) == 0:
        return pa.table(
            {
                key_col: pa.array([], pa.string()),
                "total_w": pa.array([], pa.int64()),
                "weighted_median": pa.array([], pa.float64()),
            }
        )

    import ray

    # weighted rank search: state = [lo, hi, k_rem] over CUMULATIVE WEIGHT
    searches: dict = {}
    for _i, row in stats.iterrows():
        g = row[key_col]
        tw = int(row["tw"])
        if tw <= 0:
            continue
        searches[g] = [int(row["mn"]), int(row["mx"]), (tw + 1) // 2]

    while True:
        active = {g: tuple(st) for g, st in searches.items() if st[0] < st[1]}
        if not active:
            break
        act_ref = ray.put(active)

        def bucket_wsums(batch: pa.Table) -> pa.Table:
            acts = ray.get(act_ref)
            gv = batch[key_col].to_pylist()
            xv = batch["x"].to_numpy(zero_copy_only=False)
            wv = batch["w"].to_numpy(zero_copy_only=False)
            out_g, out_b, out_c = [], [], []
            order = np.argsort(np.asarray(gv, dtype=object), kind="stable")
            gs = np.asarray(gv, dtype=object)[order]
            xs, ws = xv[order], wv[order]
            starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
            ends = np.append(starts[1:], len(gs))
            for s, e in zip(starts, ends):
                g = gs[s]
                st = acts.get(g)
                if st is None:
                    continue
                lo, hi, _k = st
                width = hi - lo + 1
                nb = min(max_buckets, width)
                bw = (width + nb - 1) // nb
                seg, segw = xs[s:e], ws[s:e]
                m = (seg >= lo) & (seg <= hi)
                sel, selw = seg[m], segw[m]
                if len(sel) == 0:
                    continue
                d = sel.view(np.uint64) - np.uint64(lo & 0xFFFFFFFFFFFFFFFF)
                b = (d // np.uint64(bw)).astype(np.int64)
                ub, inv = np.unique(b, return_inverse=True)
                # int64-exact weight sums (bincount's float64 weights
                # path would round past 2^53)
                cb = np.zeros(len(ub), dtype=np.int64)
                np.add.at(cb, inv, selw)
                out_g.extend([g] * len(ub))
                out_b.extend(ub.tolist())
                out_c.extend(cb.tolist())
            return pa.table(
                {
                    key_col: pa.array(out_g),
                    "bucket": pa.array(out_b, pa.int64()),
                    "c": pa.array(out_c, pa.int64()),
                }
            )

        parts = snapped.map_batches(
            bucket_wsums, batch_format="pyarrow"
        ).to_pandas()
        agg = (
            parts.groupby([key_col, "bucket"], as_index=False)["c"].sum()
            if len(parts)
            else parts
        )
        for g, st in list(searches.items()):
            lo, hi, k = st
            if lo >= hi:
                continue
            width = hi - lo + 1
            nb = min(max_buckets, width)
            bw = (width + nb - 1) // nb
            sub = agg[agg[key_col] == g].sort_values("bucket")
            cum = 0
            for _j, r in sub.iterrows():
                b, c = int(r["bucket"]), int(r["c"])
                if cum + c >= k:
                    new_lo = lo + b * bw
                    new_hi = min(lo + (b + 1) * bw - 1, hi)
                    searches[g] = [new_lo, new_hi, k - cum]
                    break
                cum += c

    rows = {key_col: [], "total_w": [], "weighted_median": []}
    for _i, row in stats.iterrows():
        g = row[key_col]
        tw = int(row["tw"])
        if tw <= 0:
            continue
        rows[key_col].append(g)
        rows["total_w"].append(tw)
        rows["weighted_median"].append(
            float(searches[g][0]) / float(x_scale)
        )
    return pa.table(
        {
            key_col: pa.array(rows[key_col]),
            "total_w": pa.array(rows["total_w"], pa.int64()),
            "weighted_median": pa.array(
                rows["weighted_median"], pa.float64()
            ),
        }
    )


def grouped_topk_share(
    ds,
    group_col: str,
    item_col: str,
    k: int = 3,
    num_slices: int | None = None,
):
    """Per-group top-``k`` concentration share: the fraction of a group's
    rows carried by its ``k`` most frequent items — the Pareto/80-20
    report ("what share of each language's pages come from its top-3
    sources") that complements :func:`grouped_hhi`'s scalar concentration
    index with an interpretable mass number.

    Exactness: per-(group, item) counts collapse through
    :func:`grouped_agg`'s combiner partials (≤ groups × items rows cross),
    then ONE md5 group-slice pass ranks every group's items by
    (count DESC, item ASC) and sums its top-k — all int64; the share is
    one exact division ⇒ bitwise vs the row_number() oracle.

    Output: ``(group_col, n_items, total, topk_sum, topk_share)``.
    """
    from .windows import _sorted_key_ranks

    def drop_null_items(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([group_col, item_col])
        # NULL items would crash the object-dtype lexsort below and count
        # differently than SQL count(*) — exclude them on both engines
        return t.filter(pc.is_valid(t[item_col]))

    counts = grouped_agg(
        ds.map_batches(drop_null_items, batch_format="pyarrow"),
        [group_col, item_col],
        {"c": ("count", item_col)},
        num_slices=num_slices,
    )

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    group_col: t[group_col],
                    "n_items": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "topk_sum": pa.array([], pa.int64()),
                    "topk_share": pa.array([], pa.float64()),
                }
            )
        c = t["c"].to_numpy(zero_copy_only=False)
        g = _sorted_key_ranks(t[group_col])
        items = np.asarray(
            t[item_col].cast(pa.string()).to_pylist(), dtype=object
        )
        order = np.lexsort((items, -c, g))
        gs, cs = g[order], c[order]
        new = np.r_[True, gs[1:] != gs[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(gs), dtype=np.int64) - starts[seg]
        totals = np.add.reduceat(cs, starts)
        topk = np.add.reduceat(np.where(pos < k, cs, 0), starts)
        n_items = np.diff(np.append(starts, len(gs)))
        reps = t[group_col].take(pa.array(order[starts], pa.int64()))
        share = topk.astype(np.float64) / totals.astype(np.float64)
        return pa.table(
            {
                group_col: reps,
                "n_items": pa.array(n_items.astype(np.int64)),
                "total": pa.array(totals.astype(np.int64)),
                "topk_sum": pa.array(topk.astype(np.int64)),
                "topk_share": pa.array(share),
            }
        )

    return (
        counts.map_batches(
            dataflow.add_slice(group_col, num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def grouped_gini(
    ds,
    keys,
    x_col: str,
    x_scale: int = 1,
    num_slices: int | None = None,
):
    """Per-group Gini coefficient of a non-negative measure — the
    inequality number next to :func:`grouped_hhi` (concentration) and
    :func:`grouped_topk_share` (top-mass): 0 = evenly spread, → 1 = one
    item owns everything ("how unequal are page counts across this
    language's domains").

    Exactness: values snap to int64 (``round(v·x_scale)``); with the
    group's values ascending, ``G = (2·Σ i·x₍ᵢ₎ − (n+1)·Σx) / (n·Σx)``
    (1-based ranks; the classic closed form) — every sum is exact int64
    through one md5 key-slice pass (ties need no care: equal values
    contribute the same regardless of rank order within a tie run), and
    the finish is ONE mirrored float division ⇒ bitwise. Σ|x|·n must fit
    2⁶³ (caller's budget). Groups with Σx = 0 report NULL.

    Output: ``(key, n, sum_x, gini)``.
    """
    from .windows import _sorted_key_ranks

    keys = [keys] if isinstance(keys, str) else list(keys)
    if len(keys) != 1:
        raise ValueError("grouped_gini takes exactly one key column")
    key_col = keys[0]

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([key_col, x_col])
        t = t.filter(pc.is_valid(t[x_col]))
        x = t[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(x)
        if not finite.all():
            t = t.filter(pa.array(finite))
            x = x[finite]
        xi = np.copysign(np.floor(np.abs(x * x_scale) + 0.5), x).astype(
            np.int64
        )
        return pa.table({key_col: t[key_col], "x": pa.array(xi)})

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "n": pa.array([], pa.int64()),
                    "sum_x": pa.array([], pa.int64()),
                    "gini": pa.array([], pa.float64()),
                }
            )
        x = t["x"].to_numpy(zero_copy_only=False)
        g = _sorted_key_ranks(t[key_col])
        order = np.lexsort((x, g))
        gs, xs = g[order], x[order]
        new = np.r_[True, gs[1:] != gs[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank = np.arange(len(gs), dtype=np.int64) - starts[seg] + 1
        n = np.diff(np.append(starts, len(gs)))
        sx = np.add.reduceat(xs, starts)
        six = np.add.reduceat(rank * xs, starts)
        num = 2 * six - (n + 1) * sx
        den = n * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            gini = num.astype(np.float64) / den.astype(np.float64)
        reps = t[key_col].take(pa.array(order[starts], pa.int64()))
        return pa.table(
            {
                key_col: reps,
                "n": pa.array(n.astype(np.int64)),
                "sum_x": pa.array(sx.astype(np.int64)),
                "gini": pa.array(
                    [float(v) if d > 0 else None for v, d in zip(gini, den)],
                    pa.float64(),
                ),
            }
        )

    return (
        ds.map_batches(snap, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice(key_col, num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def benford_deviation(
    ds,
    group_col: str,
    value_col: str,
    num_slices: int | None = None,
):
    """Per-group Benford's-law audit: first-significant-digit histogram of
    ``|value|`` (finite, non-zero) and the χ² deviation from the Benford
    expectation ``p_d = log10(1 + 1/d)``. The classic fraud/quality
    screen for numeric columns. Output: ``(group_col, n_values, d1..d9,
    chi2)``, chi2 rounded to 4.

    Cross-engine exactness: the first digit is char 0 of the C-printf
    ``%.16e`` rendering (bitwise-identical between numpy/Python ``%`` and
    DuckDB ``printf`` — probed over random doubles; 17 significant digits
    can never round a mantissa up to 10.0 because the largest double
    mantissa is 9.99999999999999822…), the nine ``p_d`` constants are
    computed ONCE here and repr-inlined into the oracle, and the χ² sum
    is accumulated digit-by-digit in the same order on both sides.

    Scale: per-batch (group, digit) count partials → one bounded-key
    combiner groupby; the 9-column pivot + χ² finish touches only
    O(groups × 9) rows."""
    import math

    import ray

    probs = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]

    def partial(batch: pa.Table) -> pa.Table:
        v = (
            batch[value_col]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        valid = pa.compute.is_valid(batch[value_col].combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        # NULL group keys drop (oracle mirrors with WHERE g IS NOT NULL;
        # None is unsortable in the np.unique pivot)
        gvalid = pa.compute.is_valid(batch[group_col].combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        mask = valid & gvalid & np.isfinite(v) & (v != 0.0)
        idx = np.flatnonzero(mask)
        digits = np.asarray(
            [int(("%.16e" % abs(float(v[i])))[0]) for i in idx], dtype=np.int64
        )
        t = pa.table(
            {
                group_col: batch[group_col].combine_chunks().take(pa.array(idx)),
                "digit": pa.array(digits, pa.int64()),
            }
        )
        agg = t.group_by([group_col, "digit"]).aggregate([("digit", "count")])
        return pa.table(
            {
                group_col: agg[group_col],
                "digit": agg["digit"],
                "n": agg["digit_count"],
            }
        )

    counts = grouped_agg(
        ds.select_columns([group_col, value_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        [group_col, "digit"],
        {"n": ("sum", "n")},
        num_slices=num_slices,
    ).materialize()

    parts = [
        t.select([group_col, "digit", "n"])
        for t in ray.get(counts.to_arrow_refs())
        if t.num_rows
    ]
    if not parts:
        # typed empty: keep the group column's REAL type (an int group col
        # must not come back as string just because no rows survived)
        gtype = ds.schema().base_schema.field(group_col).type
        return dataflow.typed_empty(
            {
                group_col: gtype,
                "n_values": pa.int64(),
                **{f"d{d}": pa.int64() for d in range(1, 10)},
                "chi2": pa.float64(),
            }
        )
    tbl = pa.concat_tables(parts).combine_chunks()
    grp = np.asarray(tbl[group_col].to_pylist(), dtype=object)
    dig = tbl["digit"].to_numpy(zero_copy_only=False)
    n = tbl["n"].to_numpy(zero_copy_only=False)
    keys, gi = np.unique(grp, return_inverse=True)
    hist = np.zeros((len(keys), 10), dtype=np.int64)
    np.add.at(hist, (gi, dig), n)
    total = hist.sum(axis=1).astype(np.int64)
    chi2 = np.zeros(len(keys), dtype=np.float64)
    tot_f = total.astype(np.float64)
    for d in range(1, 10):
        e = tot_f * probs[d - 1]
        diff = hist[:, d] - e
        chi2 = chi2 + (diff * diff) / e
    chi2 = round_half_up4_arr(chi2)
    cols = {group_col: pa.array(list(keys)), "n_values": pa.array(total, pa.int64())}
    for d in range(1, 10):
        cols[f"d{d}"] = pa.array(hist[:, d], pa.int64())
    cols["chi2"] = pa.array(chi2, pa.float64())
    return ray.data.from_arrow(pa.table(cols))


def benford_probs_repr() -> list[str]:
    """The nine Benford expectations as exact repr literals — the oracle
    builder inlines THESE (never re-derives log10 in SQL; DuckDB log10 is
    not IEEE-identical to libm here)."""
    import math

    return [repr(math.log10(1.0 + 1.0 / d)) for d in range(1, 10)]

"""Custom join operators Ray Data lacks: as-of join and range (interval)
join.

The reference engine has no relational joins (SURVEY.md §2.6 — its joins are
candidate→doc lookups), but the graft brief names as-of and range joins as
first-class custom operators for event/metric corpora. Both are expressed
with the Dataset API only — no raw tasks, no driver-side state:

- :func:`asof_join` — each left row matches the latest right row with
  ``right_ts <= left_ts`` for the same key. Implemented as union of the two
  (schema-aligned) sides → ONE hash shuffle by key → ``map_groups`` doing a
  vectorized ``searchsorted`` of left timestamps into the sorted right
  timestamps. Partitioning assumption: one key's rows (both sides) fit in a
  worker's heap — the same contract as any ``map_groups``; salt or
  time-bucket split hot keys upstream if a single key is 10^8+ rows.

- :func:`range_join` — left rows matched to right intervals containing
  their value, via fixed-width bucketing: each interval is replicated to
  every bucket it covers, each left row goes to exactly one bucket, and the
  exact containment filter runs in-group. Shuffle volume is rows +
  sum(interval_width/bucket_width) — choose ``bucket_width`` near the median
  interval width. No all-pairs product anywhere.

Tie-break: equal ``right_ts`` values resolve to the largest ``right_tie``
column value, so results are deterministic and the DuckDB oracle can
reproduce them exactly (DuckDB's native ASOF JOIN leaves ties unspecified —
the oracle uses an explicit row_number window instead).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .windows import _ts_us as _ts_us_arr  # one timestamp-normalization helper


def asof_join(
    left,
    right,
    on: str,
    left_ts: str,
    right_ts: str,
    right_tie: str,
    left_cols: list[str],
    right_cols: list[str],
    right_on: str | None = None,
):
    """Inner as-of join: for every left row, the latest right row of the
    same ``on`` key with ``right_ts <= left_ts`` (ties on ``right_ts`` go to
    the largest ``right_tie``); left rows with no eligible right row drop.

    Output columns: ``left_cols`` + ``left_ts`` as ``ts_us`` (epoch-us
    int64) + ``right_cols`` + ``right_ts`` as ``right_ts_us``. Column sets
    must be disjoint.
    """
    right_on = right_on or on
    lcols = [c for c in left_cols if c != on]
    rcols = [c for c in right_cols if c != right_on]
    if right_tie not in rcols:
        rcols = rcols + [right_tie]

    # Capture plain pyarrow schemas, never the Dataset objects, in the UDF
    # closures (a captured Dataset would be serialized into every task).
    left_schema = left.schema().base_schema
    right_schema = right.schema().base_schema

    # Align both sides onto one schema (other side's columns null) so a
    # single union → groupby co-locates a key's rows in one shuffle.
    def tag_left(batch: pa.Table) -> pa.Table:
        n = len(batch)
        # the key keeps its original Arrow type (string domains join fine);
        # both sides' key columns must share one type for the union
        cols = {"__key": batch[on],
                "__ts": pa.array(_ts_us_arr(batch[left_ts]), type=pa.int64()),
                "__side": pa.array(np.zeros(n, dtype=np.int8))}
        for c in lcols:
            cols[c] = batch[c]
        for c in rcols:
            cols[c] = pa.nulls(n, right_schema.field(c).type)
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {"__key": batch[right_on],
                "__ts": pa.array(_ts_us_arr(batch[right_ts]), type=pa.int64()),
                "__side": pa.array(np.ones(n, dtype=np.int8))}
        for c in lcols:
            cols[c] = pa.nulls(n, left_schema.field(c).type)
        for c in rcols:
            cols[c] = batch[c]
        return pa.table(cols)

    tagged = left.select_columns(list(dict.fromkeys([on, left_ts] + lcols))).map_batches(
        tag_left, batch_format="pyarrow"
    ).union(
        right.select_columns(list(dict.fromkeys([right_on, right_ts] + rcols))).map_batches(
            tag_right, batch_format="pyarrow"
        )
    )

    def match(group: pa.Table) -> pa.Table:
        side = group["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        ts = group["__ts"].combine_chunks().to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == 0)
        r_idx = np.flatnonzero(side == 1)
        empty = {
            **{c: pa.array([], group[c].type) for c in lcols},
            "ts_us": pa.array([], pa.int64()),
            **{c: pa.array([], group[c].type) for c in rcols},
            "right_ts_us": pa.array([], pa.int64()),
            "__key": pa.array([], group["__key"].type),
        }
        if len(l_idx) == 0 or len(r_idx) == 0:
            return pa.table(empty)
        # take the right rows with pyarrow BEFORE to_numpy: the column has
        # nulls on left rows, and a null-containing int64 would coerce the
        # whole array to float64 (lossy past 2^53)
        tie = (
            group[right_tie]
            .combine_chunks()
            .take(pa.array(r_idx))
            .to_numpy(zero_copy_only=False)
        )
        r_ts = ts[r_idx]
        order = np.lexsort((tie, r_ts))  # ts asc, tie asc → last eligible wins
        r_idx, r_ts = r_idx[order], r_ts[order]
        pos = np.searchsorted(r_ts, ts[l_idx], side="right") - 1
        ok = pos >= 0
        l_keep, pos = l_idx[ok], pos[ok]
        if len(l_keep) == 0:
            return pa.table(empty)
        r_match = r_idx[pos]
        out = {}
        for c in lcols:
            out[c] = group[c].combine_chunks().take(pa.array(l_keep))
        out["ts_us"] = pa.array(ts[l_keep], type=pa.int64())
        for c in rcols:
            out[c] = group[c].combine_chunks().take(pa.array(r_match))
        out["right_ts_us"] = pa.array(ts[r_match], type=pa.int64())
        out["__key"] = group["__key"].combine_chunks().take(pa.array(l_keep))
        return pa.table(out)

    joined = tagged.groupby("__key").map_groups(match, batch_format="pyarrow")
    out_cols = lcols + ["ts_us"] + rcols + ["right_ts_us"]

    def finish(batch: pa.Table) -> pa.Table:
        cols = {on: batch["__key"]}
        for c in out_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    return joined.map_batches(finish, batch_format="pyarrow")


def range_join(
    left,
    right,
    value_col: str,
    lo_col: str,
    hi_col: str,
    bucket_width: float,
    left_cols: list[str],
    right_cols: list[str],
):
    """Interval join: every (left row, right interval) pair with
    ``lo <= value <= hi``, via fixed-width bucket co-partitioning.

    Right intervals are replicated to each covered bucket inside
    ``map_batches`` (flat numpy repeat); left rows route to their single
    bucket; one groupby co-locates them; the exact BETWEEN filter runs
    in-group, so no pair outside a shared bucket is ever materialized.
    """

    left_schema = left.schema().base_schema
    right_schema = right.schema().base_schema

    def tag_left(batch: pa.Table) -> pa.Table:
        v = batch[value_col].cast(pa.float64()).combine_chunks().to_numpy(zero_copy_only=False)
        cols = {"__bucket": pa.array(np.floor(v / bucket_width).astype(np.int64)),
                "__side": pa.array(np.zeros(len(batch), dtype=np.int8)),
                "__v": pa.array(v),
                "__lo": pa.nulls(len(batch), pa.float64()),
                "__hi": pa.nulls(len(batch), pa.float64())}
        for c in left_cols:
            cols[c] = batch[c]
        for c in right_cols:
            cols[c] = pa.nulls(len(batch), right_schema.field(c).type)
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        lo = batch[lo_col].cast(pa.float64()).combine_chunks().to_numpy(zero_copy_only=False)
        hi = batch[hi_col].cast(pa.float64()).combine_chunks().to_numpy(zero_copy_only=False)
        b0 = np.floor(lo / bucket_width).astype(np.int64)
        b1 = np.floor(hi / bucket_width).astype(np.int64)
        reps = np.maximum(b1 - b0 + 1, 0)
        idx = np.repeat(np.arange(len(batch)), reps)
        # bucket sequence b0[i]..b1[i] for each interval, flattened
        buckets = np.concatenate(
            [np.arange(a, b + 1) for a, b in zip(b0, b1)]
        ) if len(batch) else np.empty(0, dtype=np.int64)
        cols = {"__bucket": pa.array(buckets.astype(np.int64)),
                "__side": pa.array(np.ones(len(idx), dtype=np.int8)),
                "__v": pa.nulls(len(idx), pa.float64()),
                "__lo": pa.array(lo[idx]),
                "__hi": pa.array(hi[idx])}
        take = pa.array(idx)
        for c in left_cols:
            cols[c] = pa.nulls(len(idx), left_schema.field(c).type)
        for c in right_cols:
            cols[c] = batch[c].combine_chunks().take(take)
        return pa.table(cols)

    tagged = left.select_columns(list(dict.fromkeys([value_col] + left_cols))).map_batches(
        tag_left, batch_format="pyarrow"
    ).union(
        right.select_columns(list(dict.fromkeys([lo_col, hi_col] + right_cols))).map_batches(
            tag_right, batch_format="pyarrow"
        )
    )

    def match(group: pa.Table) -> pa.Table:
        side = group["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == 0)
        r_idx = np.flatnonzero(side == 1)
        out_schema = {
            **{c: group[c].type for c in left_cols},
            "value": pa.float64(),
            **{c: group[c].type for c in right_cols},
            "lo": pa.float64(),
            "hi": pa.float64(),
        }
        if len(l_idx) == 0 or len(r_idx) == 0:
            return pa.table({c: pa.array([], t) for c, t in out_schema.items()})
        v = group["__v"].combine_chunks().to_numpy(zero_copy_only=False)[l_idx]
        lo = group["__lo"].combine_chunks().to_numpy(zero_copy_only=False)[r_idx]
        hi = group["__hi"].combine_chunks().to_numpy(zero_copy_only=False)[r_idx]
        # in-bucket candidate pairs, chunked over the left side so a hot
        # bucket never materializes the full |l| x |r| index product —
        # working memory is bounded by CHUNK x |r| regardless of skew
        CHUNK = max(1, 1 << 22 >> max(len(r_idx).bit_length(), 1))
        li_parts, ri_parts = [], []
        r_pos = np.arange(len(r_idx))
        for s in range(0, len(l_idx), CHUNK):
            vc = v[s : s + CHUNK]
            keep = (vc[:, None] >= lo[None, :]) & (vc[:, None] <= hi[None, :])
            lc, rc = np.nonzero(keep)
            li_parts.append(lc + s)
            ri_parts.append(r_pos[rc])
        li = np.concatenate(li_parts) if li_parts else np.empty(0, dtype=np.int64)
        ri = np.concatenate(ri_parts) if ri_parts else np.empty(0, dtype=np.int64)
        lt = pa.array(l_idx[li])
        rt = pa.array(r_idx[ri])
        out = {}
        for c in left_cols:
            out[c] = group[c].combine_chunks().take(lt)
        out["value"] = pa.array(v[li])
        for c in right_cols:
            out[c] = group[c].combine_chunks().take(rt)
        out["lo"] = pa.array(lo[ri])
        out["hi"] = pa.array(hi[ri])
        return pa.table(out)

    return tagged.groupby("__bucket").map_groups(match, batch_format="pyarrow")


def broadcast_join(
    ds,
    small_ds,
    on,
    how: str = "inner",
    max_small_rows: int = 5_000_000,
):
    """Broadcast hash join — the join strategy Ray Data's native
    ``Dataset.join`` lacks: when one side fits in memory (a dimension
    table, a blocklist, a key set), ship it ONCE via ``ray.put`` and join
    every block of the big side locally with Arrow's hash-join kernel.
    No shuffle of the big side, no join aggregator actors, and none of the
    Ray 2.49 hash-join quirks (schema-less empty partitions, chained-join
    deadlock) apply.

    ``how`` ∈ inner / left outer / left semi / left anti (pyarrow join_type
    names; 'left'/'semi'/'anti' accepted as aliases). The small side is
    materialized and must stay under ``max_small_rows`` (raise → use
    ``ops.dataflow.join`` instead). Output
    column order: big-side columns, then non-key small-side columns."""
    import ray

    aliases = {
        "left": "left outer",
        "semi": "left semi",
        "anti": "left anti",
    }
    join_type = aliases.get(how, how)
    if join_type not in ("inner", "left outer", "left semi", "left anti"):
        raise ValueError(f"unsupported how={how!r}")
    keys = [on] if isinstance(on, str) else list(on)

    parts = [
        t
        for t in (
            ray.get(r) for r in small_ds.materialize().to_arrow_refs()
        )
        if t.num_rows > 0
    ]
    if not parts:
        raise ValueError("broadcast_join: empty small side")
    small_tbl = pa.concat_tables(
        [t.select(parts[0].column_names) for t in parts]
    ).combine_chunks()
    if small_tbl.num_rows > max_small_rows:
        raise ValueError(
            f"broadcast_join: small side has {small_tbl.num_rows} rows > "
            f"max_small_rows={max_small_rows}; use Dataset.join"
        )
    sref = ray.put(small_tbl)

    def join_batch(batch: pa.Table) -> pa.Table:
        small = ray.get(sref)
        return batch.join(small, keys=keys, join_type=join_type)

    return ds.map_batches(join_batch, batch_format="pyarrow")


def hash_join(
    left,
    right,
    on: str,
    left_cols: list[str],
    right_cols: list[str],
    how: str = "inner",
    right_on: str | None = None,
    num_slices: int | None = None,
):
    """General big-big distributed equi-join with FULL OUTER support — the
    shuffle join for two large sides (``broadcast_join`` needs a small side;
    Ray 2.49's native ``Dataset.join`` has the chained-join deadlock and
    schema-less-empty-partition bugs and no full-outer type).

    Both sides are aligned onto one tagged schema (other side's payload
    columns null), unioned, and shuffled ONCE by a coarse md5 SLICE of the
    join key — a key's rows from both sides land in the same slice, and each
    slice resolves ALL its keys with one local Arrow hash-join kernel
    (never one Ray group per key). SQL join semantics hold exactly: NULL
    keys never match (they survive as unmatched rows under outer types),
    and the output key column is the coalesced key for outer joins.

    ``how`` ∈ inner / left / right / full. Output columns: ``on`` (left
    name), then ``left_cols``, then ``right_cols`` (sets must be disjoint).
    Partitioning assumption: one slice's rows (both sides) fit in a worker's
    heap — raise ``num_slices`` for very large inputs; salt hot keys
    upstream if a single key alone exceeds a worker.
    """
    jt = {
        "inner": "inner",
        "left": "left outer",
        "right": "right outer",
        "full": "full outer",
    }.get(how)
    if jt is None:
        raise ValueError(f"unsupported how={how!r}")
    right_on = right_on or on
    lcols = [c for c in left_cols if c != on]
    rcols = [c for c in right_cols if c != right_on]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"overlapping payload columns: {sorted(overlap)}")

    left_schema = left.schema().base_schema
    right_schema = right.schema().base_schema
    key_type = left_schema.field(on).type
    l_fields = [(c, left_schema.field(c).type) for c in lcols]
    r_fields = [(c, right_schema.field(c).type) for c in rcols]
    out_cols = [on] + lcols + rcols

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {on: batch[on]}
        for c, _ in l_fields:
            cols[c] = batch[c]
        for c, t in r_fields:
            cols[c] = pa.nulls(n, t)
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = batch.num_rows
        cols = {on: pc.cast(batch[right_on], key_type)}
        for c, t in l_fields:
            cols[c] = pa.nulls(n, t)
        for c, _ in r_fields:
            cols[c] = batch[c]
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        return pa.table(cols)

    tagged = (
        left.select_columns([on] + lcols)
        .map_batches(tag_left, batch_format="pyarrow")
        .union(
            right.select_columns(
                list(dict.fromkeys([right_on] + rcols))
            ).map_batches(tag_right, batch_format="pyarrow")
        )
        .map_batches(
            dataflow.add_slice(on, num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
    )

    def join_group(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = group["__side"]
        lt = group.filter(pc.equal(side, 0)).select([on] + lcols)
        rt = group.filter(pc.equal(side, 1)).select([on] + rcols)
        out = lt.join(rt, keys=[on], join_type=jt)
        return out.select(out_cols)

    return tagged.groupby("slice").map_groups(join_group, batch_format="pyarrow")


def star_join(fact, dims, how: str = "inner"):
    """Star-schema sugar: chain :func:`broadcast_join` over a list of
    dimension tables — ``dims`` is ``[(dim_ds, fact_key, dim_key), ...]``
    applied left-to-right. Each dimension ships once via ``ray.put`` and
    its key is renamed onto the fact-side probe column, so the fact table
    streams through every stage unshuffled (the plan
    ``ops.relational.revenue_by_nation`` hand-writes, generalized)."""

    out = fact
    for dim_ds, fact_key, dim_key in dims:
        if dim_key != fact_key:
            def ren(t: pa.Table, fk=fact_key, dk=dim_key) -> pa.Table:
                return t.rename_columns(
                    [fk if c == dk else c for c in t.column_names]
                )

            dim_ds = dim_ds.map_batches(ren, batch_format="pyarrow")
        out = broadcast_join(out, dim_ds, on=fact_key, how=how)
    return out


def sorted_neighborhood_pairs(
    ds,
    key_col: str,
    id_col: str = "doc_id",
    window: int = 2,
):
    """Sorted-neighborhood candidate blocking (Hernández & Stolfo's
    merge/purge, SIGMOD 1995): sort the corpus by a blocking key and emit
    every pair within ``window`` positions — the classic record-linkage
    candidate generator when equality blocking is too coarse and all-pairs
    too big (neighbors under a well-chosen key catch most true matches at
    O(N·w) pairs).

    Scale shape: ONE global sort on the total order (key, id), then each
    sorted block pairs itself independently — the only cross-block
    coupling is the ``window`` rows straddling each boundary, so the
    driver collects just the last ``window`` rows of every block
    (O(blocks·w) rows) and ships each block its global predecessors; a
    task's emitted pairs are exactly those whose LATER row lives in its
    block, so no pair is emitted twice. Exact integer positions ⇒
    bitwise vs the ``row_number()`` self-join oracle.

    Output: ``(id_a, id_b, dist)`` with ``id_a`` the earlier row in sort
    order and ``1 ≤ dist ≤ window``.
    """
    proj = ds.select_columns(list(dict.fromkeys([key_col, id_col])))
    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int32()),
        }
    )

    def pairs(t: pa.Table, prev: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                prev[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            ]
        )
        p = len(prev)
        out_a, out_b, out_d = [], [], []
        for d in range(1, window + 1):
            # later row must be IN this block: j >= p
            j = np.arange(max(p, d), len(ids), dtype=np.int64)
            i = j - d
            ok = i >= 0
            out_a.append(ids[i[ok]])
            out_b.append(ids[j[ok]])
            out_d.append(np.full(int(ok.sum()), d, dtype=np.int32))
        if not out_a:
            return empty
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a)),
                "id_b": pa.array(np.concatenate(out_b)),
                "dist": pa.array(np.concatenate(out_d)),
            }
        )

    return neighborhood_fanout(proj, [key_col, id_col], window, pairs, empty)


def neighborhood_fanout(proj, order_cols, window: int, pairs_fn, empty):
    """Shared sorted-neighborhood kernel (:func:`sorted_neighborhood_pairs`
    and ``ops.fuzzy.jaro_winkler_pairs``): ONE global sort on
    ``order_cols``, then each sorted block emits pairs with only the
    ``window`` straddling rows shipped from its predecessors (the last
    ``window`` rows of blocks 0..k−1 — each tail holds up to ``window``
    rows, so the concat always covers the needed strip). ``pairs_fn``
    receives (block_table, prev_strip) and returns the pair rows; a
    task's emitted pairs are exactly those whose LATER row lives in its
    block, so no pair is emitted twice."""
    import ray
    import ray.data

    refs, _sizes, _offsets = dataflow.sorted_blocks(proj, order_cols)
    if not refs:
        return ray.data.from_arrow(empty)

    def tail(t: pa.Table) -> pa.Table:
        return t.slice(max(0, len(t) - window))

    tails = ray.get(dataflow.on_blocks(tail, refs))
    prevs = [tails[0].slice(0, 0)]
    for k in range(1, len(refs)):
        strip = pa.concat_tables(tails[:k])
        prevs.append(strip.slice(max(0, len(strip) - window)))
    return ray.data.from_arrow_refs(dataflow.on_blocks(pairs_fn, refs, prevs))

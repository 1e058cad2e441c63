"""Event-time windowing operators: gap-based sessionization and tumbling
windows.

The reference engine has no event-stream operators (it is a document index),
but a large-scale training-data pipeline needs them for clickstream /
telemetry corpora, and the graft brief lists "a streaming window" as a
first-class custom-operator target. Both operators here are expressed
Ray-Data-first:

- :func:`sessionize` — the classic gap-based session split. One shuffle
  (``groupby(user)``), then each user's events are sorted and split inside
  ``map_groups``; all arithmetic is vectorized numpy over epoch-microsecond
  int64s. At 100 TB the only all-to-all is the single hash partition by
  user; a bot user with 10^9 events is the skew risk — cap with
  ``max_events_per_user`` (sessions past the cap are dropped with a log, the
  standard crawl-pipeline mitigation) or pre-salt upstream.

- :func:`tumbling_window` — fixed-width window aggregate with the
  partial-aggregation (combiner) pattern: each batch collapses to at most
  (windows x types) partial rows inside ``map_batches`` (Arrow hash
  group-by, zero Python loops), so the global ``groupby`` shuffles partials,
  not events. At 100 TB the shuffle volume is bounded by
  |windows| x |event types|, independent of row count.

Timestamps are normalized to epoch microseconds (int64) at the edge so
results are engine-portable (the SQL oracles compare against DuckDB
``epoch_us``) and immune to timezone/precision drift.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import round_half_up4, round_half_up4_arr


def _ts_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """timestamp[us] (or any timestamp) -> int64 epoch microseconds."""
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us")).cast(pa.int64())
    elif not pa.types.is_int64(col.type):
        col = col.cast(pa.int64())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _sorted_key_ranks(col) -> np.ndarray:
    """Per-row int64 ranks equal iff keys are equal, ordered by the key's
    string form — makes ANY key type lexsortable inside a slice group."""
    enc = col.combine_chunks().dictionary_encode()
    order_d = np.argsort(
        np.asarray(enc.dictionary.cast(pa.string()).to_pylist(), dtype=object),
        kind="stable",
    )
    rank_of = np.empty(len(order_d), dtype=np.int64)
    rank_of[order_d] = np.arange(len(order_d))
    return rank_of[
        enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
    ]


def sessionize(
    events,
    gap_s: float = 1800.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
):
    """Split each user's event stream into sessions separated by > ``gap_s``
    of inactivity; emit one row per session.

    Output: (user_id, session_id, session_start_us, n_events, duration_us,
    sum_value) with session_id numbered 1.. per user in time order.
    ``sum_value`` is rounded half-away-from-zero to 4 decimals (DuckDB
    ``ROUND`` parity for the oracle).

    Scale design: one coarse md5-slice shuffle (a user's events land wholly
    in one slice — never one Ray group per user; Ray 2.49's aggregate pays
    per GROUP, the duplicate_spans lesson), then each slice splits ALL its
    users with one lexsort — session boundaries are (key-change OR gap)
    masks, per-user numbering is index arithmetic.
    """
    gap_us = int(round(gap_s * 1_000_000))
    cols = [user_col, ts_col, id_col, value_col]

    def split_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        if group.num_rows == 0:
            return pa.table(
                {
                    user_col: pa.array([], group.schema.field(user_col).type),
                    "session_id": pa.array([], pa.int64()),
                    "session_start_us": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "duration_us": pa.array([], pa.int64()),
                    "sum_value": pa.array([], pa.float64()),
                }
            )
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        val = group[value_col].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ts, kr))
        kr, ts, val = kr[order], ts[order], val[order]
        n = len(ts)
        # session boundary: user change OR inactivity gap
        keych = np.empty(n, dtype=bool)
        keych[0] = True
        keych[1:] = kr[1:] != kr[:-1]
        new = keych | np.r_[True, np.diff(ts) > gap_us]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n]
        sums = np.add.reduceat(val, starts)
        # per-user session numbering: ordinal within the user's run
        firsts = np.flatnonzero(keych[starts])  # session idx where user starts
        sess_user = np.cumsum(keych[starts]) - 1
        session_id = (
            np.arange(len(starts), dtype=np.int64) - firsts[sess_user] + 1
        )
        user = group[user_col].combine_chunks().take(pa.array(order[starts]))
        return pa.table(
            {
                user_col: user,
                "session_id": pa.array(session_id),
                "session_start_us": pa.array(ts[starts], type=pa.int64()),
                "n_events": pa.array(ends - starts, type=pa.int64()),
                "duration_us": pa.array(ts[ends - 1] - ts[starts], type=pa.int64()),
                "sum_value": pa.array(
                    [round_half_up4(float(s)) for s in sums], pa.float64()
                ),
            }
        )

    return (
        events.select_columns(cols)
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(split_slice, batch_format="pyarrow")
    )


def tumbling_window(
    events,
    width_s: float = 3600.0,
    ts_col: str = "ts",
    type_col: str = "event_type",
    value_col: str = "value",
):
    """Fixed-width (tumbling) event-time windows per event type.

    Output: (window_start_us, event_type, n_events, sum_value). Partial
    aggregation happens inside ``map_batches`` via Arrow's hash group-by, so
    the global shuffle carries at most |windows| x |types| rows per block —
    the combiner pattern the graft brief asks for ahead of every groupby.
    """
    width_us = int(round(width_s * 1_000_000))

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        win = (ts // width_us) * width_us
        t = pa.table(
            {
                "window_start_us": pa.array(win, type=pa.int64()),
                type_col: batch[type_col],
                "one": pa.array(np.ones(len(ts), dtype=np.int64)),
                "value": batch[value_col].cast(pa.float64()),
            }
        )
        g = t.group_by(["window_start_us", type_col]).aggregate(
            [("one", "sum"), ("value", "sum")]
        )
        # select by NAME, not position: pyarrow's group_by output column
        # order (keys-first vs aggregates-first) has changed across versions
        return pa.table(
            {
                "window_start_us": g["window_start_us"],
                type_col: g[type_col],
                "n_partial": g["one_sum"],
                "sum_partial": g["value_sum"],
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        events.select_columns([ts_col, type_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start_us", type_col])
        .aggregate(Sum("n_partial", alias_name="n_events"), Sum("sum_partial", alias_name="sum_value_raw"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start_us": batch["window_start_us"].cast(pa.int64()),
                type_col: batch[type_col],
                "n_events": batch["n_events"].cast(pa.int64()),
                "sum_value": pa.array(
                    [
                        round_half_up4(v)
                        for v in batch["sum_value_raw"].to_pylist()
                    ],
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_window(
    events,
    width_s: float = 3600.0,
    stride_s: float = 900.0,
    ts_col: str = "ts",
    type_col: str = "event_type",
    value_col: str = "value",
):
    """Hopping (sliding, stride-aligned) event-time windows per event type:
    every event lands in ``k = width/stride`` overlapping windows (width
    must be an integer multiple of stride).

    Output: (window_start_us, event_type, n_events, sum_value) — same shape
    as :func:`tumbling_window` (the k = 1 special case). The k-fold event
    replication happens INSIDE the per-batch partial, which still collapses
    to ≤ |windows| × |types| rows via Arrow hash group-by before the global
    shuffle — so the combiner bound is unchanged and the replication never
    crosses the wire. Early events produce negative-start windows when the
    stream begins after epoch-aligned 0; they are real windows, kept.
    """
    width_us = int(round(width_s * 1_000_000))
    stride_us = int(round(stride_s * 1_000_000))
    if width_us % stride_us != 0:
        raise ValueError("width_s must be an integer multiple of stride_s")
    k = width_us // stride_us

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        last = (ts // stride_us) * stride_us
        # (n, k) window starts: last, last-stride, ..., last-(k-1)*stride
        wins = last[:, None] - (np.arange(k, dtype=np.int64) * stride_us)[None, :]
        n = len(ts)
        t = pa.table(
            {
                "window_start_us": pa.array(wins.reshape(-1), type=pa.int64()),
                type_col: batch[type_col].take(
                    pa.array(np.repeat(np.arange(n), k))
                ),
                "one": pa.array(np.ones(n * k, dtype=np.int64)),
                "value": batch[value_col]
                .cast(pa.float64())
                .take(pa.array(np.repeat(np.arange(n), k))),
            }
        )
        g = t.group_by(["window_start_us", type_col]).aggregate(
            [("one", "sum"), ("value", "sum")]
        )
        return pa.table(
            {
                "window_start_us": g["window_start_us"],
                type_col: g[type_col],
                "n_partial": g["one_sum"],
                "sum_partial": g["value_sum"],
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        events.select_columns([ts_col, type_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start_us", type_col])
        .aggregate(
            Sum("n_partial", alias_name="n_events"),
            Sum("sum_partial", alias_name="sum_value_raw"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start_us": batch["window_start_us"].cast(pa.int64()),
                type_col: batch[type_col],
                "n_events": batch["n_events"].cast(pa.int64()),
                "sum_value": pa.array(
                    [round_half_up4(v) for v in batch["sum_value_raw"].to_pylist()],
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def event_order(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
):
    """Per-user event ordering signals: rank in time order and microseconds
    since the user's previous event (−1 for the first) — the feature-prep
    step ahead of sequence models / sessionization tuning. All-integer
    outputs, so the DuckDB window oracle (row_number + lag) matches exactly.

    One coarse md5-slice shuffle (never a per-user Ray group); each slice
    orders ALL its users with one lexsort (tie-break = event id, mirroring
    the oracle's ORDER BY ts, event_id) — rank and gap are run-boundary
    index arithmetic."""
    import numpy as np
    import pyarrow as pa

    def order_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        if group.num_rows == 0:
            return pa.table(
                {
                    user_col: pa.array([], group.schema.field(user_col).type),
                    id_col: pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "gap_us": pa.array([], pa.int64()),
                }
            )
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        o = np.lexsort((ev, ts, kr))
        kr, ts, ev = kr[o], ts[o], ev[o]
        n = len(ts)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = kr[1:] != kr[:-1]
        seg = np.cumsum(new) - 1
        run_start = np.flatnonzero(new)[seg]
        rank = np.arange(n, dtype=np.int64) - run_start + 1
        gap = np.empty(n, dtype=np.int64)
        gap[0] = -1
        gap[1:] = ts[1:] - ts[:-1]
        gap[new] = -1  # first event of each user
        user = group[user_col].combine_chunks().take(pa.array(o))
        return pa.table(
            {
                user_col: user,
                id_col: pa.array(ev),
                "ts_us": pa.array(ts, pa.int64()),
                "rank": pa.array(rank),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return (
        events.select_columns([user_col, ts_col, id_col])
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(order_slice, batch_format="pyarrow")
    )


def funnel(
    events,
    steps: list,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    n_slices: int = 256,
):
    """Ordered funnel analysis: per user, the deepest prefix of ``steps``
    completed with strictly increasing timestamps — step i+1 must occur
    strictly AFTER the user's earliest completion of step i (the standard
    product-analytics funnel; re-orderings don't count). Returns a Dataset
    of ``(user_col, steps_completed)`` covering every user in the table.

    Scale shape: ONE hash-slice shuffle of (user, type, ts) rows; within a
    slice the whole multi-user funnel runs vectorized — per-step masked
    ``minimum.reduceat`` over user segments, failure cascading through the
    +inf sentinel — instead of one Python ``map_groups`` call per user (the
    per-group dispatch cost is the known Ray 2.49 groupby tax)."""
    import pyarrow.compute as pc

    cols = [user_col, type_col, ts_col]

    add_slice = dataflow.add_slice(user_col, n_slices)

    def funnel_slice(group: pa.Table) -> pa.Table:
        uarr = group[user_col].combine_chunks()
        enc = uarr.dictionary_encode()
        uid = np.asarray(enc.indices.to_numpy(zero_copy_only=False), np.int64)
        ts = _ts_us(group[ts_col])
        et = group[type_col].combine_chunks()
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        et = et.take(pa.array(order, pa.int64()))
        n_users = len(enc.dictionary)
        counts = np.bincount(uid, minlength=n_users)
        starts = np.cumsum(counts) - counts
        prev = np.full(n_users, np.iinfo(np.int64).min, dtype=np.float64)
        done = np.zeros(n_users, dtype=np.int64)
        tsf = ts.astype(np.float64)
        for step in steps:
            mask = pc.equal(et, step).to_numpy(zero_copy_only=False)
            cand = np.where(
                mask & (tsf > np.repeat(prev, counts)), tsf, np.inf
            )
            step_min = np.minimum.reduceat(cand, starts)
            step_min[counts == 0] = np.inf  # reduceat quirk on empty segs
            done += np.isfinite(step_min)
            prev = step_min  # +inf cascades: later steps can't match
        return pa.table(
            {
                user_col: enc.dictionary,
                "steps_completed": pa.array(done, pa.int64()),
            }
        )

    return (
        events.select_columns(cols)
        .map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(funnel_slice, batch_format="pyarrow")
    )


def retention(
    events,
    period_s: float = 86400.0 * 7,
    user_col: str = "user_id",
    ts_col: str = "ts",
    n_slices: int = 256,
):
    """Cohort retention: bucket time into fixed periods, assign each user to
    the cohort of their FIRST active period, and count how many of each
    cohort are active again k periods later. Returns a Dataset of
    ``(cohort, period_offset, n_users)`` — the standard retention triangle.

    Scale shape: one md5-slice shuffle co-locates each user's rows
    (deterministic across worker processes); within a slice, first-period
    and offsets are computed vectorized over all users, emitting one
    partial row per (cohort, offset) per slice into a tiny final groupby —
    no user-keyed join and no per-user Python dispatch."""
    period_us = int(round(period_s * 1_000_000))
    cols = [user_col, ts_col]

    add_slice = dataflow.add_slice(user_col, n_slices)

    def retention_slice(group: pa.Table) -> pa.Table:
        enc = group[user_col].combine_chunks().dictionary_encode()
        uid = np.asarray(enc.indices.to_numpy(zero_copy_only=False), np.int64)
        p = _ts_us(group[ts_col]) // period_us
        # distinct (user, period)
        order = np.lexsort((p, uid))
        u2, p2 = uid[order], p[order]
        keep = np.ones(len(u2), dtype=bool)
        keep[1:] = (u2[1:] != u2[:-1]) | (p2[1:] != p2[:-1])
        u3, p3 = u2[keep], p2[keep]
        # first period per user == first row of each user run (p ascending)
        first_of_run = np.ones(len(u3), dtype=bool)
        first_of_run[1:] = u3[1:] != u3[:-1]
        run_id = np.cumsum(first_of_run) - 1
        cohort = p3[np.flatnonzero(first_of_run)][run_id]
        off = p3 - cohort
        # partial counts per (cohort, offset)
        key_order = np.lexsort((off, cohort))
        c2, o2 = cohort[key_order], off[key_order]
        new = np.ones(len(c2), dtype=bool)
        new[1:] = (c2[1:] != c2[:-1]) | (o2[1:] != o2[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [len(c2)])))
        return pa.table(
            {
                "cohort": pa.array(c2[starts], pa.int64()),
                "period_offset": pa.array(o2[starts], pa.int64()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    partials = (
        events.select_columns(cols)
        .map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(retention_slice, batch_format="pyarrow")
    )

    def rename(t: pa.Table) -> pa.Table:
        c = "sum(n)" if "sum(n)" in t.column_names else "n"
        return pa.table(
            {
                "cohort": t["cohort"],
                "period_offset": t["period_offset"],
                "n_users": t[c],
            }
        )

    return (
        partials.groupby(["cohort", "period_offset"])
        .sum("n")
        .map_batches(rename, batch_format="pyarrow")
    )


def keep_latest(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_slices: int | None = None,
    latest: bool = True,
):
    """Per-key latest-snapshot dedup: keep, for every ``key_col`` value, the
    single row with the greatest ``ts_col`` (ties broken by greatest
    ``id_col``) — the CDC/snapshot-compaction primitive ("current state per
    user/entity" over an append-only event log). ``latest=False`` inverts
    the order (first-wins: min ts, ties to the SMALLEST id) — the
    "first crawl of each URL wins" recrawl-dedup rule; see
    :func:`keep_earliest`.

    Scale design: every input block first reduces to its own per-key latest
    row (vectorized lexsort + run-boundary take, no Python row loop), so the
    shuffle carries at most one row per key per block. The reduced rows are
    then hash-partitioned by a coarse SLICE of the key (``num_slices``
    groups — NEVER a per-key groupby, which pays per group in Ray 2.49; see
    duplicate_spans) and each slice repeats the same vectorized reduction.
    ``ts_col`` is normalized to epoch-us int64 (``ts_us``) at the edge, like
    every windows op."""
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def _key_ranks(col) -> np.ndarray:
        """Total order on key values WITHIN one table: integers compare
        directly; any other type (string URLs — the first-crawl-wins case)
        goes through a sorted-dictionary rank. Rank is table-local, which is
        all the run-boundary reduction needs."""
        col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            return col.to_numpy(zero_copy_only=False).astype(np.int64)
        enc = col.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(np.asarray(enc.dictionary.to_pylist(), dtype=object))
        rank_of = np.empty(len(order), dtype=np.int64)
        rank_of[order] = np.arange(len(order))
        return rank_of[codes]

    def _latest(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl
        keys = _key_ranks(tbl[key_col])
        ts = _ts_us(tbl["ts_us"] if "ts_us" in tbl.column_names else tbl[ts_col])
        ids = tbl[id_col].cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts, keys))
        k = keys[order]
        if latest:
            pick = np.r_[k[1:] != k[:-1], True]   # last of each (ts,id)-asc run
        else:
            pick = np.r_[True, k[1:] != k[:-1]]   # first of each run
        return tbl.take(pa.array(order[pick]))

    def partial(batch: pa.Table) -> pa.Table:
        if "ts_us" not in batch.column_names:
            batch = batch.set_column(
                batch.column_names.index(ts_col),
                "ts_us",
                pa.array(_ts_us(batch[ts_col]), pa.int64()),
            )
        red = _latest(batch)
        return red.append_column(
            "slice", pa.array(dataflow.slice_of(num_slices, red[key_col]))
        )

    def final(group: pa.Table) -> pa.Table:
        return _latest(group).drop_columns(["slice"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def keep_earliest(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_slices: int | None = None,
):
    """First-wins per-key dedup: the row with the SMALLEST ``ts_col`` (ties
    to the smallest ``id_col``) per key — "keep the first crawl of each
    page" / earliest-observation semantics. Same two-phase slice design as
    :func:`keep_latest` (per-block partials stay valid under min exactly as
    under max)."""
    return keep_latest(
        ds, key_col, ts_col, id_col, num_slices=num_slices, latest=False
    )


def rolling_window(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    window: int = 5,
    id_cols: tuple = (),
    num_slices: int | None = None,
):
    """Per-key rolling ROWS window: for every row, the sum/count/mean of
    ``value_col`` over the last ``window`` rows of its key, ordered by
    (``ts_col``, ``id_cols``) — SQL ``sum(v) OVER (PARTITION BY key ORDER
    BY ts, ids ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``. The
    smoothing/feature op for per-entity time series (supplier volume,
    user-activity rates).

    Scale design: ONE coarse md5-slice shuffle of the projected columns
    (a key's rows land wholly in one slice; never a per-key Ray group),
    then each slice processes ALL its keys with one lexsort + one cumsum —
    run-boundary resets are index arithmetic, no per-key loop. Integer-
    valued ``value_col`` ⇒ cumsum differences are exact ⇒ bit-identical to
    the SQL window (floats carry the usual distributed-sum ulp caveat).

    Output: (key, ts_us, *id_cols, value, roll_sum, roll_n, roll_mean).
    """
    import numpy as np
    import pyarrow as pa

    proj = list(dict.fromkeys([key_col, ts_col, *id_cols, value_col]))
    _slicer = dataflow.add_slice(key_col, num_slices or dataflow.num_slices())

    def add_slice(batch: pa.Table) -> pa.Table:
        return _slicer(batch.select(proj))

    def roll_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        n = group.num_rows
        empty = pa.table(
            {
                key_col: pa.array([], group.schema.field(key_col).type),
                "ts_us": pa.array([], pa.int64()),
                **{c: pa.array([], group.schema.field(c).type) for c in id_cols},
                value_col: pa.array([], pa.float64()),
                "roll_sum": pa.array([], pa.float64()),
                "roll_n": pa.array([], pa.int64()),
                "roll_mean": pa.array([], pa.float64()),
            }
        )
        if n == 0:
            return empty
        kr = _sorted_key_ranks(group[key_col])
        ts = _ts_us(group[ts_col])
        tie = [
            group[c].combine_chunks().to_numpy(zero_copy_only=False)
            for c in id_cols
        ]
        o = np.lexsort((*reversed(tie), ts, kr))
        kr, ts = kr[o], ts[o]
        v = (
            group[value_col]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)[o]
        )
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = kr[1:] != kr[:-1]
        seg = np.cumsum(new) - 1
        run_start = np.flatnonzero(new)[seg]
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(idx - window + 1, run_start)
        cs = np.concatenate([[0.0], np.cumsum(v)])
        roll_sum = cs[idx + 1] - cs[lo]
        roll_n = idx + 1 - lo
        cols = {
            key_col: group[key_col].combine_chunks().take(pa.array(o)),
            "ts_us": pa.array(ts, pa.int64()),
        }
        for c, arr in zip(id_cols, tie):
            cols[c] = pa.array(arr[o])
        cols[value_col] = pa.array(v)
        cols["roll_sum"] = pa.array(roll_sum, pa.float64())
        cols["roll_n"] = pa.array(roll_n, pa.int64())
        cols["roll_mean"] = pa.array(roll_sum / roll_n, pa.float64())
        return pa.table(cols)

    return (
        ds.map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(roll_slice, batch_format="pyarrow")
    )


def lag_values(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
):
    """Per-key LAG over a measure column: each event's previous value (in
    (ts, id) order within the key) and the delta — the feature-prep step
    for rate-of-change signals. SQL ``lag(value)`` NULL semantics exactly:
    the first event of a key gets NULL prev/delta (not a sentinel); deltas
    subtract the identical float64 operands on both engines, so they are
    bitwise-reproducible.

    Same scale shape as :func:`event_order`: ONE coarse md5 slice of the
    key (never a per-key Ray group), one lexsort per slice, run-boundary
    masking for the NULLs."""
    import numpy as np
    import pyarrow as pa

    def order_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        if group.num_rows == 0:
            return pa.table(
                {
                    user_col: pa.array([], group.schema.field(user_col).type),
                    id_col: pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "value": pa.array([], pa.float64()),
                    "prev_value": pa.array([], pa.float64()),
                    "delta": pa.array([], pa.float64()),
                }
            )
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        val = (
            group[value_col]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        o = np.lexsort((ev, ts, kr))
        kr, ts, ev, val = kr[o], ts[o], ev[o], val[o]
        n = len(ts)
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = kr[1:] != kr[:-1]
        prev = np.empty(n, dtype=np.float64)
        prev[0] = np.nan
        prev[1:] = val[:-1]
        prev[first] = np.nan
        user = group[user_col].combine_chunks().take(pa.array(o))
        return pa.table(
            {
                user_col: user,
                id_col: pa.array(ev),
                "ts_us": pa.array(ts, pa.int64()),
                "value": pa.array(val, pa.float64()),
                "prev_value": pa.array(prev, pa.float64(), mask=first),
                "delta": pa.array(val - prev, pa.float64(), mask=first),
            }
        )

    return (
        events.select_columns([user_col, ts_col, id_col, value_col])
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(order_slice, batch_format="pyarrow")
    )


def activity_streaks(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
):
    """Per-user consecutive-active-day streaks (the gaps-and-islands
    classic): returns one row per user with ``(user_id, active_days,
    longest_streak, n_streaks)`` over the user's DISTINCT active days
    (``floor(epoch_us / day_us)``).

    Scale design mirrors :func:`sessionize`: per-batch distinct
    ``(user, day)`` partials shrink the shuffle to at most one row per
    user-day per block, one coarse md5 user-slice shuffle co-locates each
    user, and every slice resolves ALL its users with one lexsort —
    streak boundaries are ``(user change OR day gap > 1)`` masks, run
    lengths come from ``reduceat``. Integer outputs — exact vs the SQL
    gaps-and-islands oracle (``day - row_number()`` grouping).
    """
    num_slices = dataflow.num_slices()

    def partial(t: pa.Table) -> pa.Table:
        u = t[user_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = _ts_us(t[ts_col]) // day_us
        pairs = np.unique(np.stack([u, day], axis=1), axis=0)
        sl = dataflow.slice_of(num_slices, pairs[:, 0])
        return pa.table(
            {
                "u": pa.array(pairs[:, 0], pa.int64()),
                "day": pa.array(pairs[:, 1], pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def per_slice(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                user_col: pa.array([], pa.int64()),
                "active_days": pa.array([], pa.int64()),
                "longest_streak": pa.array([], pa.int64()),
                "n_streaks": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        u = g["u"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([u, day], axis=1), axis=0)  # sorted (u, day)
        u, day = pairs[:, 0], pairs[:, 1]
        n = len(u)
        user_change = np.empty(n, dtype=bool)
        user_change[0] = True
        user_change[1:] = u[1:] != u[:-1]
        run_start = user_change | np.r_[True, np.diff(day) != 1]
        starts = np.flatnonzero(run_start)
        run_len = np.diff(np.r_[starts, n])
        run_user_start = np.flatnonzero(user_change[starts])
        # per-user reduction over this user's runs
        u_starts = starts[run_user_start]
        active = np.add.reduceat(run_len, run_user_start)
        longest = np.maximum.reduceat(run_len, run_user_start)
        n_streaks = np.diff(np.r_[run_user_start, len(starts)])
        return pa.table(
            {
                user_col: pa.array(u[u_starts], pa.int64()),
                "active_days": pa.array(active, pa.int64()),
                "longest_streak": pa.array(longest, pa.int64()),
                "n_streaks": pa.array(n_streaks, pa.int64()),
            }
        )

    return (
        events.select_columns([user_col, ts_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(per_slice, batch_format="pyarrow")
    )


def event_transitions(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
):
    """First-order Markov transition counts over per-user event streams:
    for every consecutive event pair within a user (time order, event-id
    tie-break — the oracle's ``lead() OVER (ORDER BY ts, event_id)``),
    count the global ``(prev_type, next_type)`` frequency. The standard
    input to funnel discovery / next-action models.

    Plan: one coarse md5 user-slice shuffle (the :func:`event_order`
    machinery — never a per-user Ray group); each slice lexsorts ALL its
    users at once and reads consecutive-pair types with run-boundary
    masking, emitting per-slice PARTIAL counts; the final groupby touches
    only ``slices × |type|²`` partial rows, so the wide exchange is a few
    kilobytes regardless of corpus size. All-integer counts — exact.
    """
    import numpy as np
    import pyarrow as pa

    def pairs_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        empty = pa.table(
            {
                "prev_type": pa.array([], pa.string()),
                "next_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if group.num_rows < 2:
            return empty
        import pyarrow.compute as pc

        if group[type_col].null_count:
            # NULL-typed events would code to -1 and crash the bincount —
            # drop them (mirror: WHERE event_type IS NOT NULL)
            group = group.filter(pc.is_valid(group[type_col]))
            if group.num_rows < 2:
                return empty
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        o = np.lexsort((ev, ts, kr))
        kr = kr[o]
        ty = group[type_col].combine_chunks().dictionary_encode()
        codes = ty.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(
            np.int64
        )[o]
        same = kr[1:] == kr[:-1]
        if not same.any():
            return empty
        prev_c = codes[:-1][same]
        next_c = codes[1:][same]
        ncat = len(ty.dictionary)
        pair_code = prev_c * ncat + next_c
        counts = np.bincount(pair_code, minlength=ncat * ncat)
        nz = np.flatnonzero(counts)
        if len(nz) == 0:
            return empty
        cats = ty.dictionary
        return pa.table(
            {
                "prev_type": cats.take(pa.array(nz // ncat)),
                "next_type": cats.take(pa.array(nz % ncat)),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    partials = (
        events.select_columns([user_col, ts_col, id_col, type_col])
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(pairs_slice, batch_format="pyarrow")
    )
    merged = partials.groupby(["prev_type", "next_type"]).sum("n")

    def rename(t: pa.Table) -> pa.Table:
        c = "sum(n)" if "sum(n)" in t.column_names else "n"
        return pa.table(
            {
                "prev_type": t["prev_type"],
                "next_type": t["next_type"],
                "n": t[c].cast(pa.int64()),
            }
        )

    return merged.map_batches(rename, batch_format="pyarrow")


def coalesce_latest(
    events,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_cols: tuple = ("event_type", "value"),
):
    """Golden-record survivorship: one row per key whose every value column
    holds that column's most recent NON-NULL value (latest by ``(ts, id)``,
    independently per column — the classic CRM/master-data merge where each
    field keeps its own freshest observation). Keys whose column never has
    a value get NULL.

    Plan: each block collapses to ≤ |keys| partial rows carrying, per value
    column, the block-local winner plus ITS OWN ``(ts, id)`` stamp; one
    coarse md5 key-slice groupby re-runs the same argmax over partials
    (winner-of-winners — associative, so block boundaries are invisible).
    The exchange moves per-key partials, never event rows. Oracle = one
    ``row_number() OVER (ORDER BY ts DESC, id DESC) = 1`` subquery per
    column over the non-null rows."""
    import numpy as np
    import pyarrow as pa

    value_cols = list(value_cols)

    def _reduce(tbl: pa.Table, ts_of, id_of) -> pa.Table:
        """Per-key latest non-null per column; ts_of/id_of map a column name
        to its stamp columns (the raw pass uses the shared event stamp, the
        merge pass each column's own)."""
        kr = _sorted_key_ranks(tbl[key_col])
        n = len(kr)
        out_cols = {}
        # stable representative row per key (order of first appearance)
        base_order = np.lexsort((np.arange(n), kr))
        kb = kr[base_order]
        first = np.empty(len(kb), dtype=bool)
        first[0] = True
        first[1:] = kb[1:] != kb[:-1]
        rep_rows = base_order[first]
        rep_rank = kb[first]
        out_cols[key_col] = tbl[key_col].combine_chunks().take(
            pa.array(rep_rows, pa.int64())
        )
        for c in value_cols:
            ts = _ts_us(tbl[ts_of(c)])
            ev = tbl[id_of(c)].combine_chunks()
            evn = ev.fill_null(np.iinfo(np.int64).min).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            col = tbl[c].combine_chunks()
            valid = pa.compute.is_valid(col).to_numpy(zero_copy_only=False)
            # sort (key, valid, ts, id): the last row of each key run is the
            # best valid row whenever the run has any valid row
            o = np.lexsort((evn, ts, valid.astype(np.int8), kr))
            ko = kr[o]
            last = np.empty(len(ko), dtype=bool)
            if n:
                last[:-1] = ko[:-1] != ko[1:]
                last[-1] = True
            win = o[last]  # one per key, ordered by key rank
            win_rank = ko[last]
            # align winners to rep_rank order (both sorted by key rank)
            assert np.array_equal(win_rank, rep_rank)
            win_valid = valid[win]
            idx = pa.array(
                np.where(win_valid, win, -1),
                pa.int64(),
                mask=~win_valid,
            )
            out_cols[f"latest_{c}"] = col.take(idx)
            out_cols[f"__ts_{c}"] = pa.array(
                np.where(win_valid, _ts_us(tbl[ts_of(c)])[win], 0),
                pa.int64(),
                mask=~win_valid,
            )
            out_cols[f"__id_{c}"] = pa.array(
                np.where(win_valid, evn[win], 0), pa.int64(), mask=~win_valid
            )
        return pa.table(out_cols)

    def _empty_partial(batch: pa.Table) -> pa.Table:
        cols = {key_col: batch[key_col].slice(0, 0)}
        for c in value_cols:
            cols[f"latest_{c}"] = batch[c].slice(0, 0)
            cols[f"__ts_{c}"] = pa.array([], pa.int64())
            cols[f"__id_{c}"] = pa.array([], pa.int64())
        return pa.table(cols)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_partial(batch)
        return _reduce(batch, lambda c: ts_col, lambda c: id_col)

    def merge(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        if group.num_rows == 0:
            return pa.table(
                {
                    key_col: group[key_col].slice(0, 0),
                    **{
                        f"latest_{c}": group[f"latest_{c}"].slice(0, 0)
                        for c in value_cols
                    },
                }
            )
        ren = {f"latest_{c}": c for c in value_cols}
        group = group.rename_columns(
            [ren.get(c, c) for c in group.column_names]
        )
        out = _reduce(group, lambda c: f"__ts_{c}", lambda c: f"__id_{c}")
        keep = [key_col] + [f"latest_{c}" for c in value_cols]
        return out.select(keep)

    return (
        events.select_columns([key_col, ts_col, id_col] + value_cols)
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice(key_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(merge, batch_format="pyarrow")
    )


def apply_changes(
    stream,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    op_col: str = "op",
    delete_op: str = "D",
):
    """CDC upsert/delete compaction: reduce an ordered change stream
    (each row an upsert or delete stamped ``(ts, id)``) to the final table
    state — per key the LAST change wins, and a last-change delete removes
    the key entirely (the Debezium/Delta ``MERGE`` snapshot rule).

    Plan: :func:`keep_latest`'s per-block + key-slice reduction (one row
    per key ever crosses the wire), then a row-local filter drops keys
    whose surviving change is the delete. Oracle =
    ``row_number() OVER (PARTITION BY key ORDER BY ts DESC, id DESC) = 1
    AND op <> delete``."""
    import pyarrow.compute as pc

    latest = keep_latest(stream, key_col, ts_col, id_col)

    def alive(batch: pa.Table) -> pa.Table:
        keep = pc.or_kleene(
            pc.is_null(batch[op_col]),
            pc.not_equal(batch[op_col], pa.scalar(delete_op)),
        )
        return batch.filter(pc.fill_null(keep, True))

    return latest.map_batches(alive, batch_format="pyarrow")


def merge_intervals(
    spans,
    key_col: str = "user_id",
    start_col: str = "s",
    end_col: str = "e",
    id_col: str = "event_id",
):
    """Coalesce overlapping/touching ``[start, end]`` spans per key into
    maximal islands (the gaps-and-islands interval merge: ad sessions,
    crawl visit windows, duplicate-span consolidation). A new island starts
    when a span's start exceeds the running max end of every earlier span
    of the same key (order: start, end, id — the oracle's window frame).
    Touching spans (``start == prev_max``) merge.

    Output: ``(key, island, start, end, n_spans)`` with islands numbered
    1.. per key. All-integer arithmetic — exact. Plan: one md5 key-slice
    shuffle; each slice lexsorts all its keys at once and computes the
    per-key running max with a C-speed grouped cummax+shift (pandas
    groupby kernels — no Python per-key loop)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    def merge_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        empty = pa.table(
            {
                key_col: group[key_col].slice(0, 0),
                "island": pa.array([], pa.int64()),
                "start": pa.array([], pa.int64()),
                "end": pa.array([], pa.int64()),
                "n_spans": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        kr = _sorted_key_ranks(group[key_col])
        s = group[start_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        e = group[end_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        o = np.lexsort((ev, e, s, kr))
        kr, s, e = kr[o], s[o], e[o]
        cm = pd.Series(e).groupby(kr).cummax()
        prev_max = cm.groupby(kr).shift(1).to_numpy()  # NaN at key starts
        new = np.isnan(prev_max) | (s > np.nan_to_num(prev_max, nan=-(2**62)))
        island_seq = np.cumsum(new)  # global island ordinal
        isl_of_row = island_seq - 1
        starts = np.flatnonzero(new)
        ends_idx = np.r_[starts[1:], len(s)]
        # per-key island numbering
        keych = np.empty(len(kr), dtype=bool)
        keych[0] = True
        keych[1:] = kr[1:] != kr[:-1]
        key_first_island = np.cumsum(keych[starts]) - 1
        firsts = np.flatnonzero(keych[starts])
        island_no = (
            np.arange(len(starts), dtype=np.int64)
            - firsts[key_first_island]
            + 1
        )
        iend = np.maximum.reduceat(e, starts)
        key_rep = group[key_col].combine_chunks().take(
            pa.array(o[starts], pa.int64())
        )
        return pa.table(
            {
                key_col: key_rep,
                "island": pa.array(island_no, pa.int64()),
                "start": pa.array(s[starts], pa.int64()),
                "end": pa.array(iend, pa.int64()),
                "n_spans": pa.array(ends_idx - starts, pa.int64()),
            }
        )

    return (
        spans.select_columns([key_col, start_col, end_col, id_col])
        .map_batches(
            dataflow.add_slice(key_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(merge_slice, batch_format="pyarrow")
    )


def ewma(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    id_col: str,
    alpha: float = 0.5,
    num_slices: int | None = None,
):
    """Per-key exponentially-weighted moving average over time order —
    the streaming smoother behind trend scores / rate limiting / freshness
    decay: ``s_1 = x_1;  s_i = alpha*x_i + (1.0-alpha)*s_{i-1}`` with rows
    ordered by ``(ts, id)`` within each key.

    Scale shape: rows shuffle ONCE by a coarse md5 slice of the key; each
    slice processes ALL its keys together — one lexsort puts every key's
    rows contiguous in time order, then the recurrence runs vectorized
    ACROSS keys, one numpy step per time POSITION (max steps = the longest
    single key's history, not the row count; a key's step-j row always
    sits at index ``start_k + j``, so step j is one strided fused
    multiply-free update over all keys at once).

    Bitwise contract: the recurrence is the literal op sequence
    ``(alpha * x) + ((1.0 - alpha) * s_prev)`` — mirror it in a
    rank-stepping recursive CTE and both engines execute identical IEEE
    float64 ops in identical order (numpy doesn't fuse, DuckDB doesn't
    fuse). ``alpha`` should be a short decimal so both parsers bind the
    same double. NULL values are excluded before ranking (mirror with
    ``WHERE value IS NOT NULL``).

    Output: ``(key_col, id_col, i, ewma)`` with ``i`` the 1-based position
    within the key's (ts, id) order.
    """

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    id_col: t[id_col],
                    "i": pa.array([], pa.int64()),
                    "ewma": pa.array([], pa.float64()),
                }
            )
        x = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        r = _sorted_key_ranks(t[key_col])
        order = np.lexsort((ids, ts, r))
        rs = r[order]
        xs = x[order]
        n = len(order)
        new_k = np.empty(n, dtype=bool)
        new_k[0] = True
        new_k[1:] = rs[1:] != rs[:-1]
        g_starts = np.flatnonzero(new_k)
        g_idx = np.cumsum(new_k) - 1
        pos = np.arange(n, dtype=np.int64) - g_starts[g_idx]  # 0-based
        s = np.empty(n, dtype=np.float64)
        beta = 1.0 - alpha
        lens = np.append(g_starts[1:], n) - g_starts  # rows per key
        max_pos = int(lens.max()) - 1
        s[g_starts] = xs[g_starts]
        for j in range(1, max_pos + 1):
            # rows sorted by (key, time): a key's step-j row sits at
            # start + j — O(groups) per step, no full-array rescans
            rows = g_starts[lens > j] + j
            s[rows] = (alpha * xs[rows]) + (beta * s[rows - 1])
        out_key = t[key_col].take(pa.array(order, pa.int64()))
        return pa.table(
            {
                key_col: out_key,
                id_col: pa.array(ids[order]),
                "i": pa.array(pos + 1),
                "ewma": pa.array(s),
            }
        )

    add_slice = dataflow.add_slice(key_col, num_slices or dataflow.num_slices())

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select(
            list(dict.fromkeys([key_col, ts_col, value_col, id_col]))
        )
        return add_slice(t.filter(pc.is_valid(t[value_col])))

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def rolling_active_users(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    window_days: int = 7,
    num_slices: int | None = None,
):
    """Trailing-window distinct-user counts ("7-day active users" per day)
    — the engagement/coverage metric a crawl or event pipeline reports per
    snapshot day. A user active on day ``d`` counts toward every window
    ENDING on days ``d .. d+window_days-1``; output days are restricted to
    days that actually appear in the data.

    Scale shape: each batch first collapses to its distinct (user, day)
    pairs (day = epoch-us // 86400e6, exact int64), then ONE md5 user-slice
    shuffle makes each user's days co-located: per user the ×window_days
    expansion + re-distinct runs vectorized, and each slice emits only its
    partial per-day counts (≤ |days| rows). A final vocabulary-sized
    groupby sums day partials — nothing row-sized crosses twice. All
    counting is exact integers ⇒ bitwise vs the SQL oracle.

    Output: ``(day, active_users)`` with ``day`` the epoch-day int64 of the
    window END.
    """
    us_per_day = 86_400_000_000

    def pairs(batch: pa.Table) -> pa.Table:
        u = batch[user_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = ts // us_per_day
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {
                user_col: pa.array(uniq[:, 0]),
                "day": pa.array(uniq[:, 1]),
            }
        )

    def slice_counts(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int8()),
                }
            )
        u = t[user_col].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        # distinct (user, day) across the slice's blocks, then expand each
        # day to the window_days window-ends it covers and re-distinct
        pairs_ = np.unique(np.stack([u, d], axis=1), axis=0)
        reps = np.repeat(pairs_, window_days, axis=0)
        reps[:, 1] += np.tile(
            np.arange(window_days, dtype=np.int64), len(pairs_)
        )
        cov = np.unique(reps, axis=0)
        days, counts = np.unique(cov[:, 1], return_counts=True)
        observed = np.unique(pairs_[:, 1])
        return pa.table(
            {
                "day": pa.array(
                    np.concatenate([days, observed]).astype(np.int64)
                ),
                "n": pa.array(
                    np.concatenate(
                        [counts, np.zeros(len(observed))]
                    ).astype(np.int64)
                ),
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(len(days)), np.ones(len(observed))]
                    ).astype(np.int8)
                ),
            }
        )

    add_slice = dataflow.add_slice(user_col, num_slices or dataflow.num_slices())
    partials = (
        ds.select_columns([user_col, ts_col])
        .map_batches(pairs, batch_format="pyarrow")
        .map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_counts, batch_format="pyarrow")
    )

    def finish(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "active_users": pa.array([], pa.int64()),
                }
            )
        d = t["day"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False)
        days, inv = np.unique(d, return_inverse=True)
        sums = np.bincount(inv, weights=np.where(k == 0, n, 0)).astype(np.int64)
        seen = np.bincount(inv, weights=(k == 1).astype(np.int64)) > 0
        keep = seen & (sums > 0)
        return pa.table(
            {
                "day": pa.array(days[keep].astype(np.int64)),
                "active_users": pa.array(sums[keep]),
            }
        )

    return (
        partials.map_batches(
            dataflow.add_slice("day", num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(finish, batch_format="pyarrow")
    )


def time_weighted_avg(
    ds,
    key_col: str,
    ts_col: str,
    value_col: str,
    id_col: str,
    v_scale: int = 100,
    num_slices: int | None = None,
):
    """Per-key time-weighted average of a step signal — the
    billing/monitoring aggregate ("average concurrency", "mean gauge
    value") where a plain mean over samples is wrong because samples are
    unevenly spaced: each reading holds until the NEXT reading, so
    ``twa = Σ v_i · (t_{i+1} − t_i) / (t_last − t_first)``.

    Exactness: values snap to ints (``round(v · v_scale)``,
    half-away-from-zero), durations are exact int64 microseconds, the
    weighted sum accumulates in int64 (caller owns the budget:
    Σ |v·scale|·Δt < 2⁶³), and the finish is two mirrored float divisions
    ``(s / span) / v_scale`` ⇒ bitwise. Ties on ``ts`` are ordered by
    ``id_col`` (which reading "holds" during a zero-length segment is
    order-dependent only when the next gap is charged — the id order pins
    it on both engines). Keys with < 2 readings (or zero span) have no
    interval to average over → NULL. NULL values are excluded first.

    Scale shape: one md5 key-slice shuffle; per slice ONE lexsort puts
    every key's readings in time order, segment durations and per-key
    int64 sums are pure ``diff``/``reduceat`` arithmetic.

    Output: ``(key_col, n_readings, twa)``.
    """

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "n_readings": pa.array([], pa.int64()),
                    "twa": pa.array([], pa.float64()),
                }
            )
        v = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        vi = np.copysign(np.floor(np.abs(v * v_scale) + 0.5), v).astype(
            np.int64
        )
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        r = _sorted_key_ranks(t[key_col])
        order = np.lexsort((ids, ts, r))
        rs, tss, vs = r[order], ts[order], vi[order]
        n = len(order)
        new_k = np.empty(n, dtype=bool)
        new_k[0] = True
        new_k[1:] = rs[1:] != rs[:-1]
        g_starts = np.flatnonzero(new_k)
        g_ends = np.append(g_starts[1:], n)
        dt = np.zeros(n, dtype=np.int64)
        dt[:-1] = tss[1:] - tss[:-1]
        dt[g_ends - 1] = 0  # last reading of each key holds nothing
        contrib = vs * dt
        sums = np.add.reduceat(contrib, g_starts)  # int64: exact, order-free
        spans = tss[g_ends - 1] - tss[g_starts]
        counts = (g_ends - g_starts).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            twa = (sums.astype(np.float64) / spans.astype(np.float64)) / float(
                v_scale
            )
        ok = spans > 0
        keys_out = t[key_col].take(pa.array(order[g_starts], pa.int64()))
        return pa.table(
            {
                key_col: keys_out,
                "n_readings": pa.array(counts),
                "twa": pa.array(
                    [float(x) if m else None for x, m in zip(twa, ok)],
                    pa.float64(),
                ),
            }
        )

    add_slice = dataflow.add_slice(key_col, num_slices or dataflow.num_slices())

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select(
            list(dict.fromkeys([key_col, ts_col, value_col, id_col]))
        )
        t = t.filter(pc.is_valid(t[value_col]))
        v = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(v)
        if not finite.all():  # NaN/inf would poison the int64 cent snap
            t = t.filter(pa.array(finite))
        return add_slice(t)

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def resample_locf(
    events,
    step_us: int,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
):
    """Per-key LOCF (last-observation-carried-forward) resampling onto a
    fixed ``step_us`` grid — the standard time-series regularization step
    before feature windows: for every grid point ``g = k·step`` with
    ``min_ts(key) <= g <= max_ts(key)``, emit the value of the key's last
    event with ``ts <= g`` (ties on equal ts go to the largest event id,
    the repo's usual deterministic tie — SQL mirror: ``row_number() OVER
    (ORDER BY t DESC, event_id DESC)``).

    Scale shape: the :func:`event_order` machinery — ONE coarse md5 key
    slice (never a per-key Ray group), one lexsort per slice, vectorized
    per-key grid generation + one ``searchsorted`` per slice. Output rows
    = Σ per-key span/step (caller-bounded by the step); values pass
    through as float64 (exact).

    Returns ``(user_col, grid_us, value)``.
    """
    import numpy as np
    import pyarrow as pa

    step = int(step_us)
    if step <= 0:
        raise ValueError("step_us must be positive")

    def resample_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        empty = pa.table(
            {
                user_col: pa.array([], group.schema.field(user_col).type),
                "grid_us": pa.array([], pa.int64()),
                "value": pa.array([], pa.float64()),
            }
        )
        if group.num_rows == 0:
            return empty
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        val = (
            group[value_col]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        o = np.lexsort((ev, ts, kr))
        kr, ts, val = kr[o], ts[o], val[o]
        n = len(ts)
        starts = np.flatnonzero(np.r_[True, kr[1:] != kr[:-1]])
        ends = np.append(starts[1:], n)
        lo = ts[starts]
        hi = ts[ends - 1]
        # grid indices: ceil(lo/step) .. floor(hi/step), integer-exact
        # (epoch-us timestamps are non-negative)
        k0 = (lo + step - 1) // step
        k1 = hi // step
        counts = np.maximum(0, k1 - k0 + 1)
        if counts.sum() == 0:
            return empty
        keys_arr = group[user_col].combine_chunks().take(pa.array(o[starts]))
        grid_key = np.repeat(np.arange(len(starts)), counts)
        # k0[key] + offset within each key's run
        off = np.arange(len(grid_key)) - np.repeat(
            np.concatenate(([0], np.cumsum(counts[:-1]))), counts
        )
        grid = (k0[grid_key] + off) * step
        # last event with ts <= g, per key: searchsorted into the key's
        # sorted run ((ts, id) lexsorted → equal-ts runs end at the
        # largest id, matching the DESC,DESC tie rule)
        pos = np.empty(len(grid), dtype=np.int64)
        gp = 0
        for ki in range(len(starts)):
            c = int(counts[ki])
            if c == 0:
                continue
            s, e = starts[ki], ends[ki]
            pos[gp : gp + c] = s + np.searchsorted(
                ts[s:e], grid[gp : gp + c], side="right"
            ) - 1
            gp += c
        return pa.table(
            {
                user_col: keys_arr.take(pa.array(grid_key)),
                "grid_us": pa.array(grid, pa.int64()),
                "value": pa.array(val[pos], pa.float64()),
            }
        )

    return (
        events.select_columns([user_col, ts_col, id_col, value_col])
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(resample_slice, batch_format="pyarrow")
    )


def state_durations(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    state_col: str = "event_type",
):
    """Time-in-state per (key, state): each event's state lasts until the
    key's next event (SQL ``lead()`` in ``(ts, id)`` order); a key's last
    event contributes nothing (open interval — ``lead() IS NULL``).
    Output: ``(user_col, state_col, total_us, n_transitions)`` with exact
    int64 microsecond sums.

    Scale: ONE coarse md5 key-slice shuffle (a key's rows co-locate, no
    per-key Ray group); inside each slice one lexsort + run-boundary
    masking, then an in-slice Arrow group_by — only (key, state) rows
    leave the slice."""

    def per_slice(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        if group.num_rows == 0:
            return pa.table(
                {
                    user_col: pa.array([], group.schema.field(user_col).type),
                    state_col: pa.array([], group.schema.field(state_col).type),
                    "total_us": pa.array([], pa.int64()),
                    "n_transitions": pa.array([], pa.int64()),
                }
            )
        kr = _sorted_key_ranks(group[user_col])
        ts = _ts_us(group[ts_col])
        ev = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        o = np.lexsort((ev, ts, kr))
        kr, ts = kr[o], ts[o]
        n = len(ts)
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = kr[1:] != kr[:-1]
        nxt = np.empty(n, dtype=np.int64)
        nxt[:-1] = ts[1:]
        dur = np.where(last, 0, nxt - ts)
        keep = ~last
        idx = pa.array(o[keep])
        t = pa.table(
            {
                user_col: group[user_col].combine_chunks().take(idx),
                state_col: group[state_col].combine_chunks().take(idx),
                "dur": pa.array(dur[keep], pa.int64()),
            }
        )
        agg = t.group_by([user_col, state_col]).aggregate(
            [("dur", "sum"), ("dur", "count")]
        )
        return pa.table(
            {
                user_col: agg[user_col],
                state_col: agg[state_col],
                "total_us": agg["dur_sum"],
                "n_transitions": agg["dur_count"],
            }
        )

    return (
        events.select_columns([user_col, ts_col, id_col, state_col])
        .map_batches(
            dataflow.add_slice(user_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(per_slice, batch_format="pyarrow")
    )


def period_compare(
    events,
    period_us: int = 604_800_000_000,
    type_col: str = "event_type",
    ts_col: str = "ts",
):
    """Period-over-period event counts per type: for every (type, period)
    bucket, the count, the previous period's count and the exact ratio
    (NULL when there is no previous bucket). Timestamps must be
    non-negative epochs (``//`` floor-division mirror, same convention as
    :func:`resample_locf`). Output: ``(event_type, period, n, prev_n,
    ratio)``, ratio rounded to 4.

    Scale: per-batch (type, period) count partials → one bounded-key
    groupby; the shift join runs on the driver over the O(types ×
    periods) result table only."""
    import ray

    from .agg import grouped_agg

    def partial(batch: pa.Table) -> pa.Table:
        per = _ts_us(batch[ts_col]) // period_us
        t = pa.table(
            {
                type_col: batch[type_col],
                "period": pa.array(per, pa.int64()),
            }
        )
        agg = t.group_by([type_col, "period"]).aggregate([("period", "count")])
        return pa.table(
            {
                type_col: agg[type_col],
                "period": agg["period"],
                "n": agg["period_count"],
            }
        )

    counts = grouped_agg(
        events.select_columns([type_col, ts_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        [type_col, "period"],
        {"n": ("sum", "n")},
    ).materialize()

    parts = [
        t.select([type_col, "period", "n"])
        for t in ray.get(counts.to_arrow_refs())
        if t.num_rows
    ]
    if not parts:
        return dataflow.typed_empty(
            {
                type_col: pa.string(),
                "period": pa.int64(),
                "n": pa.int64(),
                "prev_n": pa.int64(),
                "ratio": pa.float64(),
            }
        )
    tbl = pa.concat_tables(parts).combine_chunks()
    types = np.asarray(tbl[type_col].to_pylist(), dtype=object)
    pers = tbl["period"].to_numpy(zero_copy_only=False)
    ns = tbl["n"].to_numpy(zero_copy_only=False)
    o = np.lexsort((pers, types))
    types, pers, ns = types[o], pers[o], ns[o]
    has_prev = np.zeros(len(ns), dtype=bool)
    has_prev[1:] = (types[1:] == types[:-1]) & (pers[1:] == pers[:-1] + 1)
    prev = np.zeros(len(ns), dtype=np.int64)
    prev[1:] = ns[:-1]
    ratio = np.where(has_prev, ns / np.maximum(np.where(has_prev, prev, 1), 1), np.nan)
    ratio = round_half_up4_arr(ratio)
    return ray.data.from_arrow(
        pa.table(
            {
                type_col: pa.array(list(types), pa.string()),
                "period": pa.array(pers, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "prev_n": pa.array(prev, pa.int64(), mask=~has_prev),
                "ratio": pa.array(ratio, pa.float64(), mask=~has_prev),
            }
        )
    )

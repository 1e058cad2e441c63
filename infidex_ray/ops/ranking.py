"""Reciprocal-rank fusion of two per-query ranked lists.

Hybrid retrieval (BM25 + dense kNN) merges candidate lists per query; RRF
(Cormack et al., SIGIR 2009) is the standard score-free fusion:
``rrf(d) = Σ_lists 1/(k0 + rank_list(d))`` with ``k0 ≈ 60``, then take the
top-k per query by the fused score.

Scale design: both lists union into one stream tagged by source, keyed by a
coarse md5 SLICE of the query id — every row of a query lands in one group,
so each group computes ranks, fused scores and the per-query top-k fully
vectorized (one lexsort; no per-query Ray group, no window shuffle). The
shuffle moves candidate rows once; output is queries × k.

Determinism: ranks break ties by (score desc, doc asc); the fused sum has
exactly two addends so IEEE addition is order-free; final top-k breaks rrf
ties by doc asc — bit-identical to a ``row_number()`` SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow

__all__ = [
    "rrf_fuse",
    "percentile_rank",
    "row_number_global",
    "grouped_percentile_rank",
]


def grouped_percentile_rank(
    ds,
    group_col: str,
    value_col: str,
    id_cols,
    num_slices: int | None = None,
):
    """Per-group ``cume_dist() OVER (PARTITION BY group ORDER BY value)`` —
    the within-stratum rank normalization behind "keep each language's top
    q% by quality" filters, where raw score scales differ per group so the
    GLOBAL :func:`percentile_rank` would starve low-scoring strata.

    Scale shape: rows shuffle ONCE by a coarse md5 slice of the group key
    (never one Ray group per key); each slice ranks all of its groups in
    one vectorized pass (one lexsort + run-boundary arithmetic — ties share
    the rank of their run's LAST row, the cume_dist rule). ``cume_dist`` is
    an exact integer ratio (≤-count / group size), so it is bit-identical
    to the SQL window function. NULL values are excluded (SQL's PARTITION
    … ORDER BY would rank them after everything; dropping them keeps the
    ratio semantics clean on both engines — mirror with ``WHERE value IS
    NOT NULL``). Output: ``id_cols + (group_col, value_col, cume_dist)``.
    """
    from .windows import _sorted_key_ranks

    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols)
    want = list(dict.fromkeys(id_cols + [group_col, value_col]))

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return t.append_column("cume_dist", pa.array([], pa.float64()))
        v = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        r = _sorted_key_ranks(t[group_col])
        order = np.lexsort((v, r))
        rs, vs = r[order], v[order]
        n = len(order)
        new_g = np.empty(n, dtype=bool)
        new_g[0] = True
        new_g[1:] = rs[1:] != rs[:-1]
        g_starts = np.flatnonzero(new_g)
        g_sizes = np.diff(np.append(g_starts, n))
        g_idx = np.cumsum(new_g) - 1
        new_run = new_g.copy()
        new_run[1:] |= vs[1:] != vs[:-1]
        run_starts = np.flatnonzero(new_run)
        run_ends = np.append(run_starts[1:], n) - 1
        run_idx = np.cumsum(new_run) - 1
        k = run_ends[run_idx] - g_starts[g_idx] + 1
        cume_sorted = k.astype(np.float64) / g_sizes[g_idx].astype(np.float64)
        cume = np.empty(n, dtype=np.float64)
        cume[order] = cume_sorted
        return t.append_column("cume_dist", pa.array(cume))

    add_slice = dataflow.add_slice(group_col, num_slices or dataflow.num_slices())

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return add_slice(batch.filter(pc.is_valid(batch[value_col])))

    return (
        ds.select_columns(want)
        .map_batches(prep, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def row_number_global(ds, order_cols):
    """Distributed ``row_number() OVER (ORDER BY order_cols)`` — the
    zipWithIndex primitive behind stable global IDs, resumable shard
    assignment, and every "first N in corpus order" cut.

    ``order_cols`` must form a TOTAL order (append a unique id as the last
    key) — otherwise tie order inside a block is Ray's sort order, not
    SQL's. Output = all original columns + 1-based ``row_number`` (int64),
    in sorted order. Cost = one sort + O(blocks) driver scalars (the
    ``percentile_rank`` prefix pattern — no second shuffle)."""
    import ray.data

    refs, _sizes, offsets = dataflow.sorted_blocks(ds, order_cols)
    if not refs:
        sch = getattr(ds.schema(), "base_schema", None)
        if sch is None:
            sch = pa.schema([(c, pa.int64()) for c in order_cols])
        return dataflow.typed_empty(sch.append(pa.field("row_number", pa.int64())))

    def finalize(t: pa.Table, offset: int) -> pa.Table:
        rn = np.arange(offset + 1, offset + len(t) + 1, dtype=np.int64)
        return t.append_column("row_number", pa.array(rn))

    return ray.data.from_arrow_refs(dataflow.on_blocks(finalize, refs, offsets))


def percentile_rank(ds, value_col: str, id_col: str = "doc_id"):
    """Global cumulative-distribution rank of every row: ``cume_dist`` =
    (# rows with value ≤ this row's value) / N — SQL ``cume_dist() OVER
    (ORDER BY value)``. The normalization behind "keep the top-q% by
    quality score" filters, where raw score scales are meaningless but
    ranks are comparable across corpora.

    Scale design (the ``budget_select`` distributed-prefix pattern): ONE
    global sort (the unavoidable all-to-all), then each sorted block
    reports only (n, first/last value, boundary run lengths) — O(blocks)
    driver scalars. The driver prefix-sums block offsets and resolves runs
    that SPAN block boundaries (the only cross-block coupling ties create),
    then every block finalizes itself independently with one vectorized
    ``searchsorted``. No block ever sees another block's rows.

    Returns ``(id_col, value_col, cume_dist)`` ordered by (value, id);
    ``cume_dist`` is an exact integer ratio, so it is bit-identical to the
    SQL window function."""
    import ray
    import ray.data

    refs, ns, offsets = dataflow.sorted_blocks(
        ds, [value_col, id_col], columns=[id_col, value_col]
    )
    if not refs:
        return dataflow.typed_empty(
            {id_col: pa.int64(), value_col: pa.float64(), "cume_dist": pa.float64()}
        )

    def block_meta(t: pa.Table) -> tuple:
        v = t[value_col].to_numpy(zero_copy_only=False)
        n_first = int(np.searchsorted(v, v[0], side="right"))
        n_last = len(v) - int(np.searchsorted(v, v[-1], side="left"))
        return (len(v), v[0], n_first, v[-1], n_last)

    metas = ray.get(dataflow.on_blocks(block_meta, refs))
    total = int(ns.sum())
    # tail extension per block: rows in FOLLOWING blocks continuing the
    # last value's run (range-partitioned sort ⇒ runs are consecutive)
    ext = np.zeros(len(metas), dtype=np.int64)
    for i, m in enumerate(metas):
        last_v = m[3]
        for j in range(i + 1, len(metas)):
            nj, fv, n_first, lv, _nl = metas[j]
            if not (fv == last_v):
                break
            single = n_first == nj  # whole block is one value
            ext[i] += nj if single else n_first
            if not single:
                break

    def finalize(t: pa.Table, offset: int, tail_ext: int) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False)
        # local index of the LAST row sharing each row's value (sorted)
        last_idx = np.searchsorted(v, v, side="right") - 1
        k = offset + last_idx + 1
        k = k + np.where(v == v[-1], tail_ext, 0)
        return pa.table(
            {
                id_col: t[id_col],
                value_col: t[value_col],
                "cume_dist": pa.array(k.astype(np.float64) / total),
            }
        )

    return ray.data.from_arrow_refs(dataflow.on_blocks(finalize, refs, offsets, ext))


def rrf_fuse(
    ds_a,
    ds_b,
    query_col: str = "query_id",
    doc_col: str = "doc_id",
    score_col: str = "score",
    k0: int = 60,
    k: int = 10,
    num_slices: int | None = None,
):
    """Fuse two ``(query_col, doc_col, score_col)`` ranked-candidate
    datasets into the per-query RRF top-k: ``(query_col, doc_col,
    rrf_score, rank)`` with ``rank`` 1-based within each query.

    Assumes finite scores and (query, doc) unique within each list — the
    shape retriever outputs have. (NaN scores would rank differently here
    (lexsort) than in SQL, and intra-list duplicates would make the fused
    sum 3+ addends, where IEEE addition order starts to matter.)"""
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def tag(src: int):
        def fn(batch: pa.Table) -> pa.Table:
            q = batch[query_col].to_numpy(zero_copy_only=False).astype(np.int64)
            sl = dataflow.slice_of(num_slices, q)
            return pa.table(
                {
                    "q": pa.array(q),
                    "d": batch[doc_col].cast(pa.int64()),
                    "s": batch[score_col].cast(pa.float64()),
                    "src": pa.array(np.full(len(q), src, dtype=np.int8)),
                    "slice": pa.array(sl),
                }
            )

        return fn

    def fuse(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                query_col: pa.array([], pa.int64()),
                doc_col: pa.array([], pa.int64()),
                "rrf_score": pa.array([], pa.float64()),
                "rank": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        q = group["q"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        src = group["src"].to_numpy(zero_copy_only=False)
        # ranks within (src, q): order by score desc, doc asc
        order = np.lexsort((d, -s, q, src))
        qs, ds_, ss = q[order], d[order], src[order]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        new[1:] = (ss[1:] != ss[:-1]) | (qs[1:] != qs[:-1])
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        rank = np.arange(len(order), dtype=np.int64) - starts[seg] + 1
        contrib = 1.0 / (k0 + rank)
        # sum contributions per (q, doc)
        o2 = np.lexsort((ds_, qs))
        q2, d2, c2 = qs[o2], ds_[o2], contrib[o2]
        new2 = np.empty(len(o2), dtype=bool)
        new2[0] = True
        new2[1:] = (q2[1:] != q2[:-1]) | (d2[1:] != d2[:-1])
        starts2 = np.flatnonzero(new2)
        rrf = np.add.reduceat(c2, starts2)
        qk, dk = q2[starts2], d2[starts2]
        # per-query top-k by rrf desc, doc asc
        o3 = np.lexsort((dk, -rrf, qk))
        q3, d3, r3 = qk[o3], dk[o3], rrf[o3]
        newq = np.empty(len(o3), dtype=bool)
        newq[0] = True
        newq[1:] = q3[1:] != q3[:-1]
        segq = np.cumsum(newq) - 1
        startsq = np.flatnonzero(newq)
        pos = np.arange(len(o3), dtype=np.int64) - startsq[segq] + 1
        keep = pos <= k
        return pa.table(
            {
                query_col: pa.array(q3[keep]),
                doc_col: pa.array(d3[keep]),
                "rrf_score": pa.array(r3[keep]),
                "rank": pa.array(pos[keep]),
            }
        )

    tagged = ds_a.map_batches(tag(0), batch_format="pyarrow").union(
        ds_b.map_batches(tag(1), batch_format="pyarrow")
    )
    return tagged.groupby("slice").map_groups(fuse, batch_format="pyarrow")

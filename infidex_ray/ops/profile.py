"""Column profiling — the data-quality report a pipeline runs before
training on a new corpus drop: per column, row count, null count, and exact
distinct count.

Scale shape, per column: nulls/rows collapse to ONE partial row per block
(map_batches combiner → single-key groupby), and the exact distinct count
shuffles per-block-unique values only (the value-skew answer: a constant
column contributes one row per block, not one per row). Each column is an
independent small pipeline; the result is a |columns|-row table — a driver-
sized aggregate like facet counts, not a per-row output.

No reference-engine analogue (pure beyond-reference training-data op).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["profile_columns", "group_checksum", "constraint_check"]


def _exact_distinct(one, col_name: str, num_slices: int | None = None) -> int:
    """Exact distinct (nulls excluded) of one column: per-batch unique
    partials → ONE coarse md5 value-slice groupby with a vectorized
    per-slice unique — never a per-value Ray group (Ray 2.49 pays per
    GROUP; a web-scale value domain hits the 29M-key groupby cliff)."""
    from .dedup import _default_num_slices, _slice_hash_strings

    if num_slices is None:
        num_slices = _default_num_slices()

    def uniq_partial(batch: pa.Table) -> pa.Table:
        v = batch[col_name].drop_null().combine_chunks()
        if pa.types.is_floating(v.type):
            # SQL count(DISTINCT) semantics: -0.0 == 0.0 and every NaN
            # payload is one NaN — Arrow unique (and the bit mix below)
            # keeps each apart
            x = v.to_numpy(zero_copy_only=False)
            x = np.where(np.isnan(x), np.nan, x)
            x[x == 0] = 0.0
            v = pa.array(x, v.type)
        v = v.unique()
        # vectorized slice assignment (balance only — distinctness stays
        # on the real values): byte hash for strings, multiply-mix for
        # fixed-width numerics, str() fallback for exotic types
        if pa.types.is_string(v.type) or pa.types.is_large_string(v.type):
            sl = _slice_hash_strings(v, num_slices)
        elif pa.types.is_integer(v.type) or pa.types.is_floating(v.type):
            from .dedup import _MIX1, _MIX2

            raw = v.to_numpy(zero_copy_only=False)
            bits = raw.astype(np.float64).view(np.uint64) if pa.types.is_floating(
                v.type
            ) else raw.astype(np.int64).view(np.uint64)
            with np.errstate(over="ignore"):
                sl = (((bits * _MIX1) ^ _MIX2) % np.uint64(num_slices)).astype(
                    np.int32
                )
        else:
            from .dedup import _md5_u64

            sl = np.asarray(
                [_md5_u64(str(x)) % num_slices for x in v.to_pylist()],
                dtype=np.int32,
            )
        return pa.table({"v": v, "slice": pa.array(sl)})

    def uniq_slice(g: pa.Table) -> pa.Table:
        n = len(g["v"].combine_chunks().unique())
        return pa.table({"nd": pa.array([n], pa.int64())})

    rows = (
        one.map_batches(uniq_partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(uniq_slice, batch_format="pyarrow")
        .take_all()
    )
    return sum(int(r["nd"]) for r in rows)


def profile_columns(ds, columns) -> pa.Table:
    """Exact ``(column, n_rows, n_nulls, n_distinct)`` per listed column,
    ordered by column name. ``n_distinct`` excludes nulls (SQL
    ``count(DISTINCT col)`` semantics)."""
    rows = []
    for col in sorted(columns):
        one = ds.select_columns([col])

        def counts(batch: pa.Table, _c=col) -> pa.Table:
            return pa.table(
                {
                    "k": pa.array([0], pa.int64()),
                    "n": pa.array([len(batch)], pa.int64()),
                    "n_null": pa.array([batch[_c].null_count], pa.int64()),
                }
            )

        agg = one.map_batches(counts, batch_format="pyarrow").groupby("k").sum(
            ["n", "n_null"]
        )
        row = agg.take_all()
        n = int(row[0]["sum(n)"]) if row else 0
        n_null = int(row[0]["sum(n_null)"]) if row else 0

        rows.append((col, n, n_null, _exact_distinct(one, col)))

    return pa.table(
        {
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_nulls": pa.array([r[2] for r in rows], pa.int64()),
            "n_distinct": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def group_checksum(
    ds,
    key_col: str,
    cols,
    num_slices: int | None = None,
):
    """Order-free per-group content checksum — the snapshot-integrity
    primitive for 100-TB replication/migration checks: two corpora agree
    per group iff their (n_rows, checksum) tables agree, regardless of row
    order, partitioning, or cluster shape.

    Each row hashes to ``md5_number_lower(concat(vals, '|'-joined, NULL →
    '∅')) % 2**62`` (the repo-wide cross-engine hash,
    ``ops.dedup._md5_u64``), and the group digest is the WRAPPING uint64
    SUM of the row hashes, reduced mod 2**62 at the end — addition is
    associative + commutative, so per-block partials merge exactly in any
    order, and unlike an XOR fold it is MULTIPLICITY-sensitive (x ⊕ x = 0
    would make {A, A, B} and {C, C, B} collide at equal n_rows — exactly
    the duplicated-row corpora this check exists for; 2**62 divides 2**64,
    so the final mod commutes with uint64 wraparound). Scale shape: one
    partial row per (block, key) from a vectorized reduceat pass, then a
    single coarse md5 key-slice shuffle merges partials (never one Ray
    group per key).

    DuckDB parity: ``CAST(sum(md5_number_lower(concat(...)) % 2**62) AS
    HUGEINT) % 2**62`` (sum(BIGINT) is HUGEINT — exact up to 2⁶⁵ rows) —
    string rendering is Python ``str()`` vs SQL ``CAST(... AS VARCHAR)``,
    identical for ints and strings (callers with float/timestamp columns
    must pre-render them).

    Output: (key, n_rows BIGINT, checksum BIGINT) one row per group.
    """
    import numpy as np

    from .dedup import _md5_u64
    from .windows import _add_key_slice, _sorted_key_ranks

    cols = list(cols)
    mod = 1 << 62

    def _sum_partials(t: pa.Table, n_col) -> pa.Table:
        """Collapse (key, h[, n]) rows to one (key, n, checksum) per key."""
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "n_rows": pa.array([], pa.int64()),
                    "h": pa.array([], pa.int64()),
                }
            )
        ranks = _sorted_key_ranks(t[key_col])
        order = np.argsort(ranks, kind="stable")
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.uint64)[order]
        n = (
            t[n_col].to_numpy(zero_copy_only=False).astype(np.int64)[order]
            if n_col
            else np.ones(len(order), dtype=np.int64)
        )
        rs = ranks[order]
        starts = np.flatnonzero(np.concatenate(([True], rs[1:] != rs[:-1])))
        # wrapping uint64 sums: order-free AND multiplicity-sensitive
        summed = np.add.reduceat(h, starts) if len(h) else h
        counts = np.add.reduceat(n, starts) if len(n) else n
        keys = t[key_col].take(pa.array(order[starts], pa.int64()))
        return pa.table(
            {
                key_col: keys,
                "n_rows": pa.array(counts, pa.int64()),
                "h": pa.array(summed.view(np.int64), pa.int64()),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    key_col: batch[key_col],
                    "n_rows": pa.array([], pa.int64()),
                    "h": pa.array([], pa.int64()),
                }
            )
        rendered = []
        for c in cols:
            vals = batch[c].to_pylist()
            rendered.append(["∅" if v is None else str(v) for v in vals])
        hs = np.asarray(
            [
                _md5_u64("|".join(parts)) % mod
                for parts in zip(*rendered)
            ],
            dtype=np.uint64,
        )
        t = pa.table({key_col: batch[key_col], "h": pa.array(hs.astype(np.int64))})
        return _sum_partials(t, None)

    def final(group: pa.Table) -> pa.Table:
        out = _sum_partials(group.drop_columns(["slice"]), "n_rows")
        # final mod 2^62: commutes with the uint64 wraparound partial sums
        ck = (out["h"].to_numpy(zero_copy_only=False).view(np.uint64) % mod)
        out = out.set_column(
            out.schema.get_field_index("h"),
            "h",
            pa.array(ck.astype(np.int64), pa.int64()),
        )
        return out.rename_columns([key_col, "n_rows", "checksum"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(_add_key_slice(key_col, num_slices), batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def constraint_check(ds, constraints, num_slices: int | None = None):
    """Declarative data-quality audit: evaluate a list of constraints over
    the dataset and report exact violation counts. Each constraint is a
    dict ``{"name", "kind", "col", ...params}`` with kinds:

    * ``not_null`` — NULL rows violate.
    * ``range`` — ``lo``/``hi`` (inclusive, either optional): non-NULL
      values outside violate (NULLs ignored — SQL three-valued logic).
    * ``regex`` — ``pattern`` (RE2): non-NULL values not FULLY matching
      violate (anchored like DuckDB ``regexp_full_match``).
    * ``in_set`` — ``values``: non-NULL values outside the set violate.
    * ``unique`` — ``count(col) − count(DISTINCT col)`` duplicate rows
      (NULLs exempt, SQL UNIQUE semantics).

    Output: ``(name, violations, n_rows)`` per constraint, ordered by
    name.

    Scale: row-local kinds fold per batch into O(1) partials; ``unique``
    streams per-batch distinct values through a coarse md5 value-slice
    (never a per-value Ray group) and counts distinct per slice."""
    import pyarrow.compute as pc
    import ray

    from .dedup import _default_num_slices

    if num_slices is None:
        num_slices = _default_num_slices()
    known = {"not_null", "range", "regex", "in_set", "unique"}
    for c in constraints:
        if c["kind"] not in known:
            raise ValueError(f"unknown constraint kind: {c['kind']!r}")

    rowlocal = [c for c in constraints if c["kind"] != "unique"]
    uniques = [c for c in constraints if c["kind"] == "unique"]

    out_rows: list[tuple[str, int, int]] = []

    if rowlocal:

        def partial(batch: pa.Table) -> pa.Table:
            names, viols, rows = [], [], []
            for c in rowlocal:
                col = batch[c["col"]].combine_chunks()
                if c["kind"] == "not_null":
                    bad = col.null_count
                elif c["kind"] == "range":
                    m = pa.array(np.zeros(len(col), dtype=bool))
                    if c.get("lo") is not None:
                        m = pc.or_(m, pc.less(col, c["lo"]))
                    if c.get("hi") is not None:
                        m = pc.or_(m, pc.greater(col, c["hi"]))
                    bad = pc.sum(m).as_py() or 0
                elif c["kind"] == "regex":
                    m = pc.invert(
                        pc.match_substring_regex(
                            col, f"^(?:{c['pattern']})$"
                        )
                    )
                    bad = pc.sum(m).as_py() or 0
                else:  # in_set
                    m = pc.invert(pc.is_in(col, value_set=pa.array(c["values"])))
                    m = pc.and_(m, pc.is_valid(col))
                    bad = pc.sum(m).as_py() or 0
                names.append(c["name"])
                viols.append(int(bad))
                rows.append(len(batch))
            return pa.table(
                {
                    "name": pa.array(names, pa.string()),
                    "violations": pa.array(viols, pa.int64()),
                    "n_rows": pa.array(rows, pa.int64()),
                }
            )

        agg = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("name")
            .sum(["violations", "n_rows"])
        )
        for r in agg.take_all():
            out_rows.append(
                (r["name"], int(r["sum(violations)"]), int(r["sum(n_rows)"]))
            )

    for c in uniques:
        col_name = c["col"]
        one = ds.select_columns([col_name])

        def tot(batch: pa.Table, _c=col_name) -> pa.Table:
            col = batch[_c]
            return pa.table(
                {
                    "k": pa.array([0], pa.int64()),
                    "n_rows": pa.array([len(batch)], pa.int64()),
                    "nn": pa.array([len(batch) - col.null_count], pa.int64()),
                }
            )

        trow = (
            one.map_batches(tot, batch_format="pyarrow")
            .groupby("k")
            .sum(["n_rows", "nn"])
            .take_all()
        )
        n_rows = int(trow[0]["sum(n_rows)"]) if trow else 0
        n_nonnull = int(trow[0]["sum(nn)"]) if trow else 0

        n_distinct = _exact_distinct(one, col_name, num_slices)
        out_rows.append((c["name"], n_nonnull - n_distinct, n_rows))

    out_rows.sort()
    return ray.data.from_arrow(
        pa.table(
            {
                "name": pa.array([r[0] for r in out_rows], pa.string()),
                "violations": pa.array([r[1] for r in out_rows], pa.int64()),
                "n_rows": pa.array([r[2] for r in out_rows], pa.int64()),
            }
        )
    )

"""Multi-table relational report compositions over the TPC-H-shaped tables.

These are the end-to-end showcases that the relational layer composes: the
big-big shuffle join (:func:`infidex_ray.ops.joins.hash_join`), the
broadcast dimension join (:func:`~infidex_ray.ops.joins.broadcast_join`),
and the combiner aggregation (:func:`infidex_ray.ops.agg.grouped_agg`)
chained the way a warehouse query plans them — fact table streams through
every stage, dimensions ship once via ``ray.put``, and only combiner
partials shuffle.

Money math is EXACT: extended price and discount are snapped to integer
cents / basis points per row, so revenue accumulates as int64
(order-free) and only the final display division touches float64 — the
DuckDB oracles mirror the same integer expression and match bitwise.

No reference-engine analogue (beyond-reference analytical compositions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .agg import grouped_agg
from .joins import broadcast_join, hash_join

__all__ = ["revenue_by_nation", "order_priority_counts", "top_customer_revenue"]


def _lineitem_revenue(lineitem, keep_cols: list[str]):
    """Per-row exact revenue in 1e-4 currency units:
    ``round(l_extendedprice·100) · (100 − round(l_discount·100))`` as int64."""

    def rev(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        disc = t["l_discount"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        finite = np.isfinite(price) & np.isfinite(disc)
        if not finite.all():  # valid NaN/inf would poison the int64 cents
            t = t.filter(pa.array(finite))
            price, disc = price[finite], disc[finite]
        cents = np.copysign(np.floor(np.abs(price * 100) + 0.5), price).astype(
            np.int64
        )
        bp = np.copysign(np.floor(np.abs(disc * 100) + 0.5), disc).astype(
            np.int64
        )
        cols = {c: t[c] for c in keep_cols}
        cols["rev_e4"] = pa.array(cents * (100 - bp))
        return pa.table(cols)

    return lineitem.select_columns(
        keep_cols + ["l_extendedprice", "l_discount"]
    ).map_batches(rev, batch_format="pyarrow")


def revenue_by_nation(lineitem, orders, customer, nation, num_slices=None):
    """Revenue per customer nation — lineitem ⨝ orders ⨝ customer ⨝ nation
    → group by nation (TPC-H Q5 flavor, no date predicate).

    Physical plan: fact-side revenue map → ONE big-big shuffle join
    (lineitem ⨝ orders on orderkey, the only exchange that moves fact
    rows) → two broadcast dimension joins (customer, nation ship once via
    ``ray.put``; swap customer to ``hash_join`` if it outgrows a worker's
    heap) → nation-keyed combiner aggregation. Returns
    ``(n_name, revenue, n_items)`` with revenue = Σ rev_e4 / 10⁴.
    """
    fact = _lineitem_revenue(lineitem, ["l_orderkey"])
    with_cust = hash_join(
        fact,
        orders.select_columns(["o_orderkey", "o_custkey"]),
        on="l_orderkey",
        left_cols=["rev_e4"],
        right_cols=["o_custkey"],
        how="inner",
        right_on="o_orderkey",
        num_slices=num_slices,
    )
    with_nkey = _bjoin_renamed(
        with_cust, customer.select_columns(["c_custkey", "c_nationkey"]),
        "o_custkey", "c_custkey",
    )
    with_nation = _bjoin_renamed(
        with_nkey, nation.select_columns(["n_nationkey", "n_name"]),
        "c_nationkey", "n_nationkey",
    )
    sums = grouped_agg(
        with_nation,
        "n_name",
        {"rev_e4": ("sum", "rev_e4"), "n_items": ("count", "rev_e4")},
        num_slices=num_slices,
    )

    def finish(t: pa.Table) -> pa.Table:
        rev = t["rev_e4"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n_name": t["n_name"],
                "revenue": pa.array(rev / 10000.0, pa.float64()),
                "n_items": t["n_items"],
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def _bjoin_renamed(big, small_ds, big_key: str, small_key: str):
    """broadcast_join with the small side's key renamed to the big side's
    probe column (pyarrow's hash-join keys must share a name)."""

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [big_key if c == small_key else c for c in t.column_names]
        )

    return broadcast_join(
        big, small_ds.map_batches(ren, batch_format="pyarrow"), on=big_key,
        how="inner",
    )


def order_priority_counts(lineitem, orders, flag: str = "R", num_slices=None):
    """Orders with ≥1 lineitem of the given return flag, counted by
    priority (TPC-H Q4 flavor: EXISTS semi-join + small group-by).

    Fact side: flag filter + per-batch unique orderkey partials (the only
    data that leaves the lineitem scan); orders stream through a broadcast
    LEFT SEMI join (duplicate keys on the broadcast side are harmless —
    semi joins never multiply rows), then a priority-keyed combiner count.
    For a flag matching most of a 100 TB corpus, pre-dedup the key set
    with ``ops.dedup.exact_dedup``-style slice partials or switch the semi
    join to ``hash_join``."""
    import pyarrow.compute as pc

    def keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t["l_returnflag"], flag)
        k = t.filter(m)["l_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({"o_orderkey": pa.array(np.unique(k), pa.int64())})

    key_ds = lineitem.select_columns(
        ["l_orderkey", "l_returnflag"]
    ).map_batches(keys, batch_format="pyarrow").materialize()
    if key_ds.count() == 0:
        # EXISTS over an empty key set: empty result, not a broadcast error
        return pa.table(
            {
                "o_orderpriority": pa.array([], pa.string()),
                "n_orders": pa.array([], pa.int64()),
            }
        )
    hit = broadcast_join(
        orders.select_columns(["o_orderkey", "o_orderpriority"]),
        key_ds,
        on="o_orderkey",
        how="semi",
    )
    return grouped_agg(
        hit,
        "o_orderpriority",
        {"n_orders": ("count", "o_orderkey")},
        num_slices=num_slices,
    )


def top_customer_revenue(lineitem, orders, customer, k: int = 10, num_slices=None):
    """Top-k customers by total revenue with their names (TPC-H Q3/Q18
    flavor): fact join → customer-keyed combiner sum → exact int64 top-k →
    name lookup against the streamed customer table.

    The top-k selection orders by the EXACT integer revenue (desc, custkey
    asc tiebreak), so ranking never depends on float formatting; only the
    k result rows are collected. Name attachment broadcasts the k-row
    result into a streaming filter over customer — the big table is never
    shuffled. Returns ``(c_custkey, c_name, revenue)`` sorted by revenue
    desc."""
    import ray
    import ray.data

    fact = _lineitem_revenue(lineitem, ["l_orderkey"])
    with_cust = hash_join(
        fact,
        orders.select_columns(["o_orderkey", "o_custkey"]),
        on="l_orderkey",
        left_cols=["rev_e4"],
        right_cols=["o_custkey"],
        how="inner",
        right_on="o_orderkey",
        num_slices=num_slices,
    )
    sums = grouped_agg(
        with_cust,
        "o_custkey",
        {"rev_e4": ("sum", "rev_e4")},
        num_slices=num_slices,
    )

    # per-block partial top-k, then one driver-side k-merge (k rows/block)
    def block_topk(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        rv = t["rev_e4"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -rv))[:k]
        return pa.table(
            {
                "o_custkey": pa.array(ck[order], pa.int64()),
                "rev_e4": pa.array(rv[order], pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            sums.map_batches(block_topk, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return dataflow.typed_empty(
            {
                "c_custkey": pa.int64(),
                "c_name": pa.string(),
                "revenue": pa.float64(),
            }
        )
    merged = pa.concat_tables(
        [t.select(["o_custkey", "rev_e4"]) for t in parts]
    ).combine_chunks()
    ck = merged["o_custkey"].to_numpy(zero_copy_only=False)
    rv = merged["rev_e4"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ck, -rv))[:k]
    top = pa.table(
        {
            "c_custkey": pa.array(ck[order], pa.int64()),
            "rev_e4": pa.array(rv[order], pa.int64()),
        }
    )
    named = broadcast_join(
        customer.select_columns(["c_custkey", "c_name"]),
        ray.data.from_arrow(top),
        on="c_custkey",
        how="inner",
    )

    def finish(t: pa.Table) -> pa.Table:
        rev = t["rev_e4"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "c_custkey": t["c_custkey"].cast(pa.int64()),
                "c_name": t["c_name"],
                "revenue": pa.array(rev / 10000.0, pa.float64()),
            }
        )

    return named.map_batches(finish, batch_format="pyarrow")

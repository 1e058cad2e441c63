"""Per-group Pareto frontier (2-D skyline) — "best tradeoff" row filtering.

A row survives iff no other row in its group dominates it: ``b`` dominates
``a`` when ``b.x >= a.x AND b.y >= a.y`` and at least one inequality is
strict (both axes maximized; negate a column upstream to minimize). Exact
duplicates on (x, y) are mutually non-dominating, so all of them survive —
the classic skyline-operator semantics (Börzsönyi et al., ICDE 2001).

Scale design — the skyline operator has a PERFECT combiner: the skyline of
a union equals the skyline of the union of partial skylines, so every block
first reduces to its own (usually tiny) local frontier inside
``map_batches``, and only those survivors take the single coarse md5
key-slice shuffle (never one Ray group per key — the repo's slicing policy)
into a final per-group pass. The per-table kernel is one ``lexsort`` +
run-boundary arithmetic: sort by (group, x DESC, y DESC); a row is kept iff
its ``y`` equals the max y of its (group, x) run AND strictly exceeds the
max y over runs with strictly greater x (prefix max over runs). NULL/NaN
coordinates are dropped on both engines (three-valued-logic dominance would
otherwise immortalize NULL rows in a ``NOT EXISTS`` oracle).

The SQL oracle avoids the O(n²) ``NOT EXISTS`` form with the same run
decomposition: per-(group, x) max-y CTE, window prefix max over x DESC, and
a join back — O(n log n) on both engines and row-for-row identical because
the kept rows are ORIGINAL input rows (no float arithmetic to diverge).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow


__all__ = ["pareto_frontier"]


def _skyline(table: pa.Table, group_col: str, x_col: str, y_col: str) -> pa.Table:
    """Filter ``table`` to its per-group 2-D skyline (maximize x and y)."""
    if table.num_rows == 0:
        return table
    x = table[x_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
    y = table[y_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
    valid = ~(np.isnan(x) | np.isnan(y))
    for col in (table[x_col], table[y_col]):
        if col.null_count:
            valid &= ~np.asarray(col.is_null().combine_chunks())
    if not valid.all():
        table = table.filter(pa.array(valid))
        x, y = x[valid], y[valid]
        if table.num_rows == 0:
            return table
    g = (
        table[group_col]
        .combine_chunks()
        .dictionary_encode()
        .indices.fill_null(-1)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    order = np.lexsort((-y, -x, g))
    gs, xs, ys = g[order], x[order], y[order]
    n = len(order)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = (gs[1:] != gs[:-1]) | (xs[1:] != xs[:-1])
    run_starts = np.flatnonzero(new_run)
    run_max = ys[run_starts]  # y sorted DESC within a run
    run_g = gs[run_starts]
    # prefix max of run_max over STRICTLY-greater-x runs, reset per group
    prev_gt = np.full(len(run_starts), -np.inf)
    g_starts = np.flatnonzero(
        np.concatenate(([True], run_g[1:] != run_g[:-1]))
    )
    g_ends = np.append(g_starts[1:], len(run_starts))
    for s, e in zip(g_starts, g_ends):
        if e - s > 1:
            prev_gt[s + 1 : e] = np.maximum.accumulate(run_max[s : e - 1])
    run_idx = np.cumsum(new_run) - 1
    keep_sorted = (ys >= run_max[run_idx]) & (ys > prev_gt[run_idx])
    keep = np.empty(n, dtype=bool)
    keep[order] = keep_sorted
    return table.filter(pa.array(keep))


def pareto_frontier(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    num_slices: int | None = None,
):
    """Rows of ``ds`` not dominated within their group on (x, y), both
    maximized. Output = the surviving ORIGINAL rows (all input columns).
    """

    def partial(batch: pa.Table) -> pa.Table:
        return _skyline(batch, group_col, x_col, y_col)

    def final(group: pa.Table) -> pa.Table:
        return _skyline(
            group.drop_columns(["slice"]), group_col, x_col, y_col
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(
            dataflow.add_slice(group_col, num_slices or dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )

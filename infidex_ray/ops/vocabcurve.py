"""Vocabulary growth curve (Heaps' law points): distinct-token count
among documents with ``doc_id ≤ bound`` for a ladder of bounds — the
corpus-analytics table behind "is this crawl still adding new language
or just more of the same" (a flattening curve = diminishing novelty).

Deterministic by construction: growth is measured along doc_id order
(not ingestion order), so the curve is a pure function of the corpus.
Tokens are lowered ASCII-whitespace tokens (RE2 parity).

Scale: one cheap max(doc_id) aggregate fixes the bound ladder, then the
corpus streams once — per batch, each distinct token's MINIMUM doc_id
partial; a coarse token-slice groupby takes global minima and collapses
each slice to a ``len(bounds)``-vector of counts (searchsorted over the
slice's sorted first-ids) — only O(slices × steps) numbers reach the
driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .asciiws import flat_tokens_arrow


def vocab_growth(
    ds,
    steps: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_slices: int | None = None,
):
    """Vocabulary size at ``steps`` evenly spaced doc_id bounds
    (``bound_i = max_id · i // steps``, i = 1..steps). Output: ``(step,
    max_doc_id, vocab_size)``."""
    import ray

    if steps < 1:
        raise ValueError("steps must be >= 1")
    if num_slices is None:
        num_slices = dataflow.num_slices()

    max_id = ds.max(id_col)
    if max_id is None:
        return dataflow.typed_empty(
            {
                "step": pa.int64(),
                "max_doc_id": pa.int64(),
                "vocab_size": pa.int64(),
            }
        )
    bounds = np.asarray(
        [max_id * i // steps for i in range(1, steps + 1)], dtype=np.int64
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, doc_of = flat_tokens_arrow(batch[text_col], lower_text=True)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        enc = flat.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        if len(idx) == 0:
            return pa.table(
                {
                    "tok": pa.array([], pa.large_string()),
                    "fd": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        first = np.full(len(enc.dictionary), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(first, idx, ids[doc_of])
        seen = np.flatnonzero(first != np.iinfo(np.int64).max)
        toks = enc.dictionary.take(pa.array(seen)).cast(pa.large_string())
        return pa.table(
            {
                "tok": toks,
                "fd": pa.array(first[seen], pa.int64()),
                "slice": pa.array(dataflow.slice_of(num_slices, toks)),
            }
        )

    def slice_counts(g: pa.Table) -> pa.Table:
        toks = np.asarray(g["tok"].to_pylist(), dtype=object)
        fds = g["fd"].to_numpy(zero_copy_only=False)
        if len(toks) == 0:
            return pa.table(
                {
                    "step": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        order = np.argsort(toks, kind="stable")
        ts, fs = toks[order], fds[order]
        starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
        gmin = np.minimum.reduceat(fs, starts)
        gmin.sort()
        counts = np.searchsorted(gmin, bounds, side="right")
        return pa.table(
            {
                "step": pa.array(np.arange(1, steps + 1), pa.int64()),
                "c": pa.array(counts, pa.int64()),
            }
        )

    agg = (
        ds.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_counts, batch_format="pyarrow")
        .groupby("step")
        .sum("c")
        .to_pandas()
    )
    by_step = dict(zip(agg["step"].astype(int), agg["sum(c)"].astype(int)))
    return ray.data.from_arrow(
        pa.table(
            {
                "step": pa.array(range(1, steps + 1), pa.int64()),
                "max_doc_id": pa.array(bounds, pa.int64()),
                "vocab_size": pa.array(
                    [by_step.get(i, 0) for i in range(1, steps + 1)],
                    pa.int64(),
                ),
            }
        )
    )

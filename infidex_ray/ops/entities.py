"""Entity co-occurrence graph from web text — IE-lite graph building.

The classic first step of knowledge-graph construction over a crawl:
treat capitalized words as entity mentions, connect entities mentioned in
the same document, and weight edges by the number of co-mentioning docs.
(A real NER model slots into the same shape — this op IS the plumbing:
extraction kernel → per-doc distinct → in-doc pair expansion → pair-count
shuffle; swap the extraction regex for model inference in an actor pool
and nothing downstream changes.)

Entity definition (mirrored exactly by the SQL oracle): a MAXIMAL
alphabetic run of the text (split on ``[^A-Za-z]+``) that full-matches
``[A-Z][a-z]+`` — i.e. one capital letter then lowercase. This avoids the
engine-specific semantics of overlapping partial regex extraction.

Scale shape: extraction + per-doc distinct + in-doc pair expansion are all
per-batch (each doc's pairs are emitted where the doc lives — no doc ever
crosses the wire); only (ent_a, ent_b) pair partials shuffle, grouped by a
coarse md5 slice of the pair (never one Ray group per ~unique pair —
the repo's slicing policy), each slice counting its pairs vectorized.
Docs mentioning k entities emit k·(k−1)/2 pairs — k is bounded by
``max_entities_per_doc`` (the lexicographically smallest kept, mirrored
in SQL) so a pathological page can't emit quadratic rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow

__all__ = ["entity_cooccurrence"]


def entity_cooccurrence(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_count: int = 2,
    max_entities_per_doc: int = 64,
    num_slices: int | None = None,
):
    """``(ent_a, ent_b, n_docs)`` — co-mention edges with
    ``ent_a < ent_b`` (lexicographic), ``n_docs`` = distinct documents
    mentioning both, filtered to ``n_docs >= min_count``. Per-doc entity
    sets are capped at the ``max_entities_per_doc`` lexicographically
    smallest entities (SQL mirror: ``row_number() OVER (PARTITION BY doc
    ORDER BY entity)``)."""
    import pyarrow.compute as pc

    if num_slices is None:
        num_slices = dataflow.num_slices()

    def pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "ent_a": pa.array([], pa.string()),
                "ent_b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        toks = pc.split_pattern_regex(col.cast(pa.string()), "[^A-Za-z]+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        is_ent = pc.match_substring_regex(flat, "^[A-Z][a-z]+$")
        mask = is_ent.to_numpy(zero_copy_only=False).astype(bool)
        ents = np.asarray(flat.to_pylist(), dtype=object)[mask]
        docs = doc_idx[mask]
        if len(ents) == 0:
            return empty
        # per-doc distinct + lexicographic cap, all in one lexsort
        o = np.lexsort((ents, docs))
        d, e = docs[o], ents[o]
        first = np.empty(len(d), dtype=bool)
        first[0] = True
        first[1:] = (d[1:] != d[:-1]) | (e[1:] != e[:-1])
        d, e = d[first], e[first]
        new_d = np.empty(len(d), dtype=bool)
        new_d[0] = True
        new_d[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new_d)
        seg = np.cumsum(new_d) - 1
        within = np.arange(len(d), dtype=np.int64) - starts[seg]
        keep = within < max_entities_per_doc
        d, e, within = d[keep], e[keep], within[keep]
        # in-doc pair expansion (a < b already by sort order)
        new_d = np.empty(len(d), dtype=bool)
        new_d[0] = True
        new_d[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new_d)
        ends = np.append(starts[1:], len(d))
        out_a, out_b = [], []
        for s, end in zip(starts.tolist(), ends.tolist()):
            k = end - s
            if k < 2:
                continue
            iu, ju = np.triu_indices(k, k=1)
            out_a.append(e[s + iu])
            out_b.append(e[s + ju])
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        # per-batch partial counts per pair
        key = np.char.add(np.char.add(a.astype(str), "\x00"), b.astype(str))
        uniq, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
        firsts = np.full(len(uniq), -1, dtype=np.int64)
        firsts[inv[::-1]] = np.arange(len(a) - 1, -1, -1, dtype=np.int64)
        return pa.table(
            {
                "ent_a": pa.array(a[firsts], pa.string()),
                "ent_b": pa.array(b[firsts], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    add_pair_slice = dataflow.add_slice(("ent_a", "ent_b"), num_slices)

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    "ent_a": pa.array([], pa.string()),
                    "ent_b": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        a = np.asarray(t["ent_a"].to_pylist(), dtype=object)
        b = np.asarray(t["ent_b"].to_pylist(), dtype=object)
        n = t["n"].to_numpy(zero_copy_only=False)
        key = np.char.add(
            np.char.add(a.astype(str), "\x00"), b.astype(str)
        )
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.bincount(inv, weights=n).astype(np.int64)
        firsts = np.full(len(uniq), -1, dtype=np.int64)
        firsts[inv[::-1]] = np.arange(len(a) - 1, -1, -1, dtype=np.int64)
        keep = sums >= min_count
        return pa.table(
            {
                "ent_a": pa.array(a[firsts][keep], pa.string()),
                "ent_b": pa.array(b[firsts][keep], pa.string()),
                "n_docs": pa.array(sums[keep]),
            }
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(pairs, batch_format="pyarrow")
        .map_batches(add_pair_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )

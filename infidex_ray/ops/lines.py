"""Line-level corpus deduplication (CCNet / RefinedWeb boilerplate removal).

Web pages share enormous amounts of line-level boilerplate — cookie
banners, nav menus, copyright footers — and the standard curation move
(CCNet §3.1, RefinedWeb "line-wise filtering") is: count every line's
frequency ACROSS the corpus, then strip lines that occur more than a
threshold number of times, keeping each document's remaining lines in
order.

Scale design (two passes, corpus never reassembled through a shuffle):

1. **Frequent-line mining** — per batch, one Arrow ``split_pattern`` +
   ``value_counts`` collapses the block to distinct ``(line, n)`` partials
   (the combiner pattern), each keyed by a coarse md5 SLICE of the line —
   never a per-line Ray group (a ~unique-key groupby pays per group; the
   slice pass is the same trick as minhash bucketing / duplicate_spans).
   Each slice sums its partials vectorized and emits ONLY lines with total
   count > ``max_freq`` — the boilerplate set, which is tiny relative to
   the corpus (guarded by ``max_frequent_lines``).
2. **Strip + rejoin** — the frequent set broadcasts once via ``ray.put``;
   each batch drops matching lines with ``pc.is_in`` and reassembles
   documents with offset arithmetic + ``binary_join`` — fully vectorized,
   zero Python per row, no shuffle of the corpus.

The op is engine-identical to a DuckDB oracle built from
``string_split(text, chr(10))`` + ``string_agg(... ORDER BY ord)``: lines
compare as exact UTF-8 strings (no hashing on the comparison path, so no
collision caveat).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import dataflow

__all__ = ["frequent_lines", "drop_frequent_lines"]

# "blank line" = only chars from this explicit set (space, tab, CR, VT, FF —
# '\n' cannot occur inside a split line). Python's bare str.strip() also eats
# unicode spaces that DuckDB's trim() does not, so SQL oracles and this
# module must share this exact set (ops/asciiws.py lesson).
BLANK_CHARS = " \t\r\x0b\x0c"


def _line_partials(
    batch: pa.Table,
    text_col: str,
    num_slices: int,
    distinct_docs: bool,
    skip_blank: bool,
) -> pa.Table:
    texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
    lists = pc.split_pattern(texts, "\n")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if distinct_docs:
        doc_of = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    if skip_blank:
        keep = pc.not_equal(
            pc.utf8_trim(flat, BLANK_CHARS), ""
        ).to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        if distinct_docs:
            doc_of = doc_of[keep]
    if distinct_docs:
        # one row per distinct (doc, line): a doc's rows are whole within a
        # batch (a row IS a doc), so per-batch distinct == globally distinct
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = max(int(len(enc.dictionary)), 1)
        uniq = np.unique(doc_of.astype(np.int64) * v + codes)
        ucodes, ns = np.unique(uniq % v, return_counts=True)
        lines = enc.dictionary.take(pa.array(ucodes)).cast(pa.large_string())
        ns = ns.astype(np.int64)
    else:
        vc = pc.value_counts(flat)
        lines = vc.field("values").cast(pa.large_string())
        ns = vc.field("counts").cast(pa.int64())
    sl = dataflow.slice_of(num_slices, lines)
    return pa.table({"line": lines, "n": ns, "slice": pa.array(sl)})


def frequent_lines(
    ds,
    text_col: str = "text",
    max_freq: int = 1,
    num_slices: int | None = None,
    distinct_docs: bool = False,
    min_count: int | None = None,
    skip_blank: bool = False,
):
    """Dataset of ``(line, n)`` for every corpus-frequent line.

    Two counting conventions, one engine:

    * default — ``n`` = total occurrence count (within-doc repeats
      included); frequent means ``n > max_freq``.
    * ``distinct_docs=True`` — ``n`` = number of DISTINCT documents
      containing the line (the CCNet boilerplate convention); pass
      ``min_count`` for an inclusive ``n >= min_count`` threshold.

    ``skip_blank=True`` exempts whitespace-only lines (:data:`BLANK_CHARS`,
    matching DuckDB ``trim(line, ...)``) from counting entirely."""
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def mine(group: pa.Table) -> pa.Table:
        agg = group.group_by(["line"]).aggregate([("n", "sum")])
        if min_count is not None:
            keep = pc.greater_equal(agg["n_sum"], min_count)
        else:
            keep = pc.greater(agg["n_sum"], max_freq)
        agg = agg.filter(keep)
        return pa.table(
            {"line": agg["line"], "n": agg["n_sum"].cast(pa.int64())}
        )

    return (
        ds.select_columns([text_col])
        .map_batches(
            lambda b: _line_partials(
                b, text_col, num_slices, distinct_docs, skip_blank
            ),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(mine, batch_format="pyarrow")
    )


def drop_frequent_lines(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_freq: int = 1,
    num_slices: int | None = None,
    max_frequent_lines: int = 10_000_000,
    distinct_docs: bool = False,
    min_count: int | None = None,
    skip_blank: bool = False,
):
    """Strip corpus-frequent lines from every document.

    Returns ``(id_col, text, n_removed)``: the document with every
    corpus-frequent line removed (order of the surviving lines preserved,
    re-joined with ``\\n``; a document whose every line is boilerplate
    becomes the empty string), plus the count of removed lines. "Frequent"
    defaults to total occurrences > ``max_freq``; the
    ``distinct_docs`` / ``min_count`` / ``skip_blank`` knobs select the
    CCNet distinct-document convention instead (see
    :func:`frequent_lines`) — ``textstats.remove_boilerplate_lines`` is
    that preset; the first-occurrence-wins exact variant lives at
    ``ops.dedup.dedup_lines``.

    ``max_frequent_lines`` bounds the broadcast set: if more distinct lines
    than this cross the threshold, the threshold is too low for the corpus
    and the op raises rather than silently shipping a corpus-sized
    broadcast (same honesty rule as facet_counts' match-all guard).
    """
    import ray

    freq_ds = frequent_lines(
        ds,
        text_col=text_col,
        max_freq=max_freq,
        num_slices=num_slices,
        distinct_docs=distinct_docs,
        min_count=min_count,
        skip_blank=skip_blank,
    ).materialize()
    n_freq = freq_ds.count()
    if n_freq > max_frequent_lines:
        raise ValueError(
            f"{n_freq} lines exceed max_freq={max_freq} (> max_frequent_lines="
            f"{max_frequent_lines}); raise max_freq or the cap"
        )
    if n_freq == 0:
        flat_lines = pa.array([], pa.large_string())
    else:
        # the frequent set is boilerplate-sized (guarded above) → driver-safe
        flat_lines = pa.array(
            [r["line"] for r in freq_ds.take_all()], pa.large_string()
        )
    freq_ref = ray.put(flat_lines)

    def strip(batch: pa.Table) -> pa.Table:
        frequent = ray.get(freq_ref)
        texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        lists = pc.split_pattern(texts, "\n")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        drop = pc.is_in(flat, value_set=frequent).to_numpy(zero_copy_only=False)
        keep = ~drop
        kept_per_doc = (
            np.bincount(doc_of[keep], minlength=len(lens)).astype(np.int64)
            if len(flat)
            else np.zeros(len(lens), dtype=np.int64)
        )
        offsets = np.concatenate([[0], np.cumsum(kept_per_doc)]).astype(np.int64)
        new_lists = pa.LargeListArray.from_arrays(
            offsets, flat.filter(pa.array(keep))
        )
        joined = pc.binary_join(new_lists, pa.scalar("\n", pa.large_string()))
        out_cols = {
            id_col: batch[id_col],
            "text": joined.cast(pa.string()),
            "n_removed": pa.array((lens - kept_per_doc).astype(np.int64)),
        }
        return pa.table(out_cols)

    return ds.select_columns([id_col, text_col]).map_batches(
        strip, batch_format="pyarrow"
    )


def dedup_lines_within(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Remove REPEATED lines within each document, keeping each line's
    FIRST occurrence in order — the row-local cousin of
    :func:`drop_frequent_lines` (templated pages repeat their own nav/CTA
    blocks; this strips the repeats without any corpus statistics).

    Scale design: entirely row-local — one stateless ``map_batches``, no
    shuffle, no broadcast; first-occurrence detection is one
    dictionary-encode + ``np.unique`` over packed (doc, line) codes and
    reassembly is the same offsets + ``binary_join`` as the sibling ops.
    Returns ``(id_col, text, n_removed)``."""

    def strip(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        lists = pc.split_pattern(texts, "\n")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        lens = (
            pc.list_value_length(lists)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        if len(flat):
            enc = flat.dictionary_encode()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            v = max(int(len(enc.dictionary)), 1)
            packed = doc_of.astype(np.int64) * v + codes
            _uniq, first_idx = np.unique(packed, return_index=True)
            keep = np.zeros(len(packed), dtype=bool)
            keep[first_idx] = True
            kept_per_doc = np.bincount(doc_of[keep], minlength=len(lens)).astype(
                np.int64
            )
        else:
            keep = np.zeros(0, dtype=bool)
            kept_per_doc = np.zeros(len(lens), dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(kept_per_doc)]).astype(np.int64)
        new_lists = pa.LargeListArray.from_arrays(
            offsets, flat.filter(pa.array(keep))
        )
        joined = pc.binary_join(new_lists, pa.scalar("\n", pa.large_string()))
        return pa.table(
            {
                id_col: batch[id_col],
                "text": joined.cast(pa.string()),
                "n_removed": pa.array((lens - kept_per_doc).astype(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        strip, batch_format="pyarrow"
    )

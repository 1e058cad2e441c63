"""Exact duplicate-span (substring) statistics across a corpus.

Per document: how many of its word n-gram POSITIONS are exact duplicates of
an n-gram that also appears in other documents — the bounded n-gram-window
form of suffix-array substring dedup (Lee et al. 2021, "Deduplicating
Training Data Makes Language Models Better", public paper). Unlike
document-level MinHash/SimHash dedup (``ops/dedup.py``), this catches
*partial* overlap: boilerplate headers, quoted passages, licence blocks
embedded in otherwise-unique pages. The reference engine has no analogue;
beyond-reference LLM-corpus op.

Scale shape (100 TB honest):

* one emission row per DISTINCT (doc, gram-hash) carrying the in-doc
  multiplicity — token-scale, the same order of magnitude as an index
  build's term stream, pre-deduplicated per doc inside ``map_batches``;
* duplicated-position counting is ONE coarse shuffle: emissions group by a
  hash SLICE of the gram (``num_slices`` groups, each a pure function of
  the gram), and each slice detects duplicated grams and emits per-doc
  partial dup sums vectorized — a fine-grained ``groupby("gram")`` pays
  Ray's per-group cost on ~one group per row (142 s vs ~7 s at 29M rows);
* one doc-keyed left join attaches totals (``ops.dataflow.join``,
  non-chained); no driver-side state at any point.

Tokenization is the oracle-parity ASCII-whitespace split
(``ops/asciiws.split_ascii_ws``); grams are compared by the uint64
polynomial hash of the word-hash window (bijective with the space-joined
gram string modulo negligible collisions — same contract as
``ops/decontam``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import dataflow
from .dataflow import _MIX1, _MIX2
from .dedup import _hash64, round_half_up4_arr

__all__ = ["duplicate_spans"]


def _gram_hashes_positional(wh: np.ndarray, n: int) -> np.ndarray:
    """Positional word-n-gram hashes (one per window start, duplicates kept
    — unlike ``dedup._shingle_hashes`` which de-duplicates). Caller
    guarantees ``len(wh) >= n``."""
    L = len(wh)
    with np.errstate(over="ignore"):
        powers = _MIX1 ** np.arange(n, dtype=np.uint64)
        acc = np.zeros(L - n + 1, dtype=np.uint64)
        for k in range(n):
            acc += wh[k : L - n + 1 + k] * powers[k]
        acc *= _MIX2
    return acc


_EMIT_SCHEMA = pa.schema(
    [("gram", pa.int64()), ("doc_id", pa.int64()), ("m", pa.int64())]
)


def duplicate_spans(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 20,
    min_docs: int = 2,
    num_partitions: int | None = None,
    num_slices: int | None = None,
):
    """Per-doc duplicated-span statistics: ``(doc_id, total_ngrams,
    dup_ngrams, dup_frac)`` where ``dup_ngrams`` counts word-n-gram positions
    whose gram occurs in ≥ ``min_docs`` distinct documents. Docs shorter
    than ``n`` words have ``total_ngrams = 0`` and ``dup_frac = 0.0``.

    Real pipelines use ``n`` around 50 tokens (the Lee et al. setting);
    the synthetic test corpus needs small ``n`` for overlap signal."""

    def emit(batch: pa.Table) -> pa.Table:
        # one Arrow RE2 split for the whole batch (ASCII-ws == the oracle's
        # \s), dictionary-encode so hashlib runs once per DISTINCT token,
        # then a single rolling-hash pass over the flat token stream with
        # doc-boundary windows masked out — the per-doc Python loop this
        # replaces was 22× slower at 480k pages (150 s → 7 s emit stage)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        toks = pc.split_pattern_regex(texts, pattern=r"[\t\n\x0b\x0c\r ]+")
        lens = (
            pc.list_value_length(toks)
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        nonempty = (
            pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
        )
        flat = flat.filter(pa.array(nonempty))
        doc_of = doc_of[nonempty]
        L = len(doc_of)
        if L < n:
            return _EMIT_SCHEMA.empty_table()
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uh = np.asarray(
            [_hash64(w) for w in enc.dictionary.to_pylist()], dtype=np.uint64
        )
        wh = uh[codes]
        acc = _gram_hashes_positional(wh, n)
        valid = doc_of[: L - n + 1] == doc_of[n - 1 :]
        gram = acc[valid]
        gdoc = doc_of[: L - n + 1][valid]
        if len(gram) == 0:
            return _EMIT_SCHEMA.empty_table()
        # per-(doc, gram) unique + multiplicity in one lexsort
        order = np.lexsort((gram, gdoc))
        g, d = gram[order], gdoc[order]
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
        starts = np.flatnonzero(new)
        mult = np.diff(np.append(starts, len(g)))
        return pa.table(
            {
                "gram": pa.array(g[starts].view(np.int64)),
                "doc_id": pa.array(ids[d[starts]]),
                "m": pa.array(mult.astype(np.int64)),
            },
            schema=_EMIT_SCHEMA,
        )

    def totals(batch: pa.Table) -> pa.Table:
        # token count == non-overlapping \S+ matches (ASCII semantics in
        # RE2): no split, no flatten — just one count kernel
        texts = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        wc = (
            pc.count_substring_regex(texts, r"\S+")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "total_ngrams": pa.array(np.maximum(wc - n + 1, 0)),
            }
        )

    emissions = ds.map_batches(emit, batch_format="pyarrow")
    tot_ds = ds.map_batches(totals, batch_format="pyarrow")

    # Duplicated-position counting via ONE coarse shuffle: grams group by a
    # hash SLICE (a pure function of the gram, so a gram's rows land wholly
    # in one group), and each slice detects its duplicated grams and emits
    # per-doc PARTIAL dup sums vectorized — the same 64-slice trick as
    # minhash's bucket grouping. A fine-grained groupby("gram").count() here
    # measured 142 s at 29M rows (Ray's aggregate pays per GROUP, and
    # almost every gram is unique); the slice pass plus a doc-scale sum is
    # ~20×, and it removes the gram-keyed join entirely.
    if num_slices is None:
        num_slices = dataflow.num_slices(mult=32, floor=64)

    def dup_partials(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "dup_m": pa.array([], pa.int64())}
        )
        g = group["gram"].to_numpy(zero_copy_only=False)
        if len(g) == 0:
            return empty
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        m = group["m"].to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g, d, m = g[order], d[order], m[order]
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        runs = np.diff(np.append(starts, len(g)))
        # rows are unique per (doc, gram) ⇒ run length == distinct-doc count
        dup_row = np.repeat(runs >= min_docs, runs)
        dd, mm = d[dup_row], m[dup_row]
        if len(dd) == 0:
            return empty
        order2 = np.argsort(dd, kind="stable")
        dd, mm = dd[order2], mm[order2]
        new2 = np.empty(len(dd), dtype=bool)
        new2[0] = True
        new2[1:] = dd[1:] != dd[:-1]
        starts2 = np.flatnonzero(new2)
        return pa.table(
            {
                "doc_id": pa.array(dd[starts2]),
                "dup_m": pa.array(np.add.reduceat(mm, starts2).astype(np.int64)),
            }
        )

    per_doc = (
        emissions.map_batches(
            dataflow.add_slice("gram", num_slices), batch_format="pyarrow"
        )
        .groupby("slice")
        .map_groups(dup_partials, batch_format="pyarrow")
        .groupby("doc_id")
        .sum("dup_m")
        .materialize()
    )
    def finish(batch: pa.Table) -> pa.Table:
        tot = batch["total_ngrams"].to_numpy(zero_copy_only=False)
        dup = batch["dup_ngrams"].to_numpy(zero_copy_only=False)
        dup = np.where(np.isnan(dup.astype(np.float64)), 0, dup).astype(np.int64)
        frac = np.where(tot > 0, dup / np.maximum(tot, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "total_ngrams": pa.array(tot.astype(np.int64)),
                "dup_ngrams": pa.array(dup),
                "dup_frac": pa.array(round_half_up4_arr(frac)),
            }
        )

    if per_doc.count() == 0:
        # no duplicated grams anywhere: every doc scores zero
        def zeros(batch: pa.Table) -> pa.Table:
            z = pa.array(np.zeros(len(batch), dtype=np.int64))
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "total_ngrams": batch["total_ngrams"],
                    "dup_ngrams": z,
                    "dup_frac": pa.array(np.zeros(len(batch), dtype=np.float64)),
                }
            )

        return tot_ds.map_batches(zeros, batch_format="pyarrow")

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "dup_ngrams"])

    joined = dataflow.join(
        tot_ds,
        per_doc.map_batches(rename, batch_format="pyarrow"),
        "left_outer",
        "doc_id",
        num_partitions,
        chained=False,
        stream="left",
    )
    return joined.map_batches(finish, batch_format="pyarrow")

"""PMI-scored bigram collocations over a text corpus — one engine, two
published estimators.

The classic phrase-mining signal (Church & Hanks 1990): score a bigram
``(a, b)`` by pointwise mutual information. Two marginal conventions are in
common use, and both are served by the same vectorized pipeline:

* ``marginals="unigrams"`` — ``ln(c_ab · N_tok / (c_a · c_b))`` with
  unigram counts and total token count (the Church-Hanks form; lowercased
  by default). Output ``(w1, w2, n_ab, n_a, n_b, pmi)``.
* ``marginals="pairs"`` — ``ln(c · N_pair / (c(x,·) · c(·,y)))`` with
  left/right marginals and total derived from the ONE bigram table (the
  Mikolov-style phrase-joining form; case kept by default). Output
  ``(w1, w2, c, pmi)`` — the shape ``textstats.collocations`` has always
  returned (it now delegates here).

Scale design: one ``map_batches`` pass emits COMBINED partial counts —
per-batch distinct unigrams via ``value_counts`` and distinct bigrams via a
dictionary-encode + packed-code ``np.unique`` (no Python loop over tokens)
— tagged by kind and keyed by a coarse SLICE of the key (never one Ray
group per n-gram; a ~unique-key groupby pays per group — the
duplicate_spans lesson). Slices sum vectorized; pair-mode marginals are two
more slice-grouped sums OVER THE BIGRAM TABLE (vocab-sized, not corpus-
sized). The bigram table is thresholded by ``min_count`` BEFORE the two
marginal joins (``ops.dataflow.join``). The final PMI ranking sorts the
thresholded table only.

Determinism: counts are exact integers; PMI is computed with one fixed
float64 expression then ``log``, rounded half-up to 4 decimals on BOTH
engines (``round_half_up4`` ≡ DuckDB ``ROUND``), and the output ordering
uses the ROUNDED value so ulp-level libm differences cannot reorder rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import dataflow
from .dedup import round_half_up4_arr

__all__ = ["collocations"]

_ASCII_WS = r"[\t\n\x0b\x0c\r ]+"


def _partial_counts(
    batch: pa.Table,
    text_col: str,
    num_slices: int,
    lowercase: bool,
    with_unigrams: bool,
) -> pa.Table:
    texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
    if lowercase:
        texts = pc.utf8_lower(texts)
    toks = pc.split_pattern_regex(texts, pattern=_ASCII_WS)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    doc_of = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(nonempty))
    doc_of = doc_of[nonempty]
    empty = pa.table(
        {
            "kind": pa.array([], pa.int8()),
            "w1": pa.array([], pa.large_string()),
            "w2": pa.array([], pa.large_string()),
            "n": pa.array([], pa.int64()),
            "slice": pa.array([], pa.int32()),
        }
    )
    if len(doc_of) == 0:
        return empty
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary

    # bigram partials: adjacent pairs within a document
    valid = doc_of[:-1] == doc_of[1:] if len(codes) > 1 else np.array([], bool)
    v = int(len(vocab))
    pair = codes[:-1][valid] * v + codes[1:][valid]
    pcodes, pcounts = np.unique(pair, return_counts=True)
    b1 = vocab.take(pa.array(pcodes // v))
    b2 = vocab.take(pa.array(pcodes % v))

    if with_unigrams:
        ucodes, ucounts = np.unique(codes, return_counts=True)
        uni_w = vocab.take(pa.array(ucodes))
        kind = np.concatenate(
            [np.zeros(len(ucodes), np.int8), np.ones(len(pcodes), np.int8)]
        )
        w1 = pa.concat_arrays(
            [uni_w.cast(pa.large_string()), b1.cast(pa.large_string())]
        )
        w2 = pa.concat_arrays(
            [
                pa.array([""] * len(ucodes), pa.large_string()),
                b2.cast(pa.large_string()),
            ]
        )
        n = np.concatenate([ucounts, pcounts]).astype(np.int64)
    else:
        kind = np.ones(len(pcodes), np.int8)
        w1 = b1.cast(pa.large_string())
        w2 = b2.cast(pa.large_string())
        n = pcounts.astype(np.int64)
    sl = dataflow.slice_of(num_slices, kind, w1, w2)
    return pa.table(
        {
            "kind": pa.array(kind),
            "w1": w1,
            "w2": w2,
            "n": pa.array(n),
            "slice": pa.array(sl),
        }
    )


def collocations(
    ds,
    text_col: str = "text",
    min_count: int = 5,
    top_n: int = 100,
    marginals: str = "unigrams",
    lowercase: bool | None = None,
    num_slices: int | None = None,
    num_partitions: int | None = None,
):
    """Top-``top_n`` bigram collocations by PMI among bigrams occurring at
    least ``min_count`` times, ordered by (rounded) PMI desc, then w1, w2.
    See the module docstring for the two ``marginals`` conventions and
    their output schemas."""
    if marginals not in ("unigrams", "pairs"):
        raise ValueError(f"marginals must be 'unigrams' or 'pairs', got {marginals!r}")
    if lowercase is None:
        lowercase = marginals == "unigrams"
    if num_slices is None:
        num_slices = dataflow.num_slices()
    with_unigrams = marginals == "unigrams"

    def sum_group(group: pa.Table) -> pa.Table:
        agg = (
            group.drop_columns(["slice"])
            .group_by(["kind", "w1", "w2"])
            .aggregate([("n", "sum")])
        )
        return agg.rename_columns(
            ["n" if c == "n_sum" else c for c in agg.column_names]
        )

    counts = (
        ds.select_columns([text_col])
        .map_batches(
            lambda b: _partial_counts(
                b, text_col, num_slices, lowercase, with_unigrams
            ),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(sum_group, batch_format="pyarrow")
        .materialize()
    )

    def pick_bi(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["kind"], 1))
        return pa.table(
            {
                "w1": t["w1"].cast(pa.large_string()),
                "w2": t["w2"].cast(pa.large_string()),
                "n": t["n"].cast(pa.int64()),
            }
        )

    bi_full = counts.map_batches(pick_bi, batch_format="pyarrow")

    if with_unigrams:

        def pick_uni(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["kind"], 0))
            return pa.table(
                {
                    "word": t["w1"].cast(pa.large_string()),
                    "c": t["n"].cast(pa.int64()),
                }
            )

        uni = counts.map_batches(pick_uni, batch_format="pyarrow")
        total = int(uni.sum("c") or 0)
        left = uni.map_batches(
            lambda b: b.rename_columns(["w1", "n_a"]), batch_format="pyarrow"
        )
        right = uni.map_batches(
            lambda b: b.rename_columns(["w2", "n_b"]), batch_format="pyarrow"
        )
    else:
        from .agg import grouped_agg

        bi_full = bi_full.materialize()
        total = int(bi_full.sum("n") or 0)
        # pair-table marginals via the reusable slice-grouped combiner
        left = grouped_agg(bi_full, "w1", {"n_a": ("sum", "n")}, num_slices)
        right = grouped_agg(bi_full, "w2", {"n_b": ("sum", "n")}, num_slices)

    count_col = "n_ab" if with_unigrams else "c"

    def threshold(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch["n"], min_count))
        return pa.table(
            {
                "w1": t["w1"],
                "w2": t["w2"],
                count_col: t["n"].cast(pa.int64()),
            }
        )

    bi = bi_full.map_batches(threshold, batch_format="pyarrow").materialize()
    if bi.count() == 0 or total == 0:
        cols = {"w1": pa.string(), "w2": pa.string(), count_col: pa.int64()}
        if with_unigrams:
            cols["n_a"] = pa.int64()
            cols["n_b"] = pa.int64()
        cols["pmi"] = pa.float64()
        return dataflow.typed_empty(cols)
    j1 = dataflow.join(bi, left, "inner", "w1", num_partitions)
    j2 = dataflow.join(j1, right, "inner", "w2", num_partitions)

    def score(batch: pa.Table) -> pa.Table:
        c_ab = batch[count_col].to_numpy(zero_copy_only=False).astype(np.float64)
        c_a = batch["n_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_b = batch["n_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = round_half_up4_arr(np.log((c_ab * float(total)) / (c_a * c_b)))
        cols = {
            "w1": batch["w1"].cast(pa.string()),
            "w2": batch["w2"].cast(pa.string()),
            count_col: batch[count_col].cast(pa.int64()),
        }
        if with_unigrams:
            cols["n_a"] = batch["n_a"].cast(pa.int64())
            cols["n_b"] = batch["n_b"].cast(pa.int64())
        cols["pmi"] = pa.array(pmi, pa.float64())
        return pa.table(cols)

    return (
        j2.map_batches(score, batch_format="pyarrow")
        .sort(["pmi", "w1", "w2"], descending=[True, False, False])
        .limit(top_n)
    )


def ngram_freq(
    ds,
    n: int = 3,
    min_count: int = 5,
    text_col: str = "text",
    lowercase: bool = True,
    num_slices: int | None = None,
):
    """Corpus word-``n``-gram frequency table (grams with ≥ ``min_count``
    occurrences) — the raw phrase/contamination/memorization statistic the
    bigram-only collocations engine can't produce for n ≥ 3. Tokens =
    ASCII-whitespace split (RE2 ``\\s+`` parity — see ops/asciiws).

    Same combiner shape as :func:`collocations`: each batch collapses to
    its DISTINCT gram partial counts (dictionary-encode + one packed-code
    ``np.unique``; gram STRINGS are built only for the per-batch distinct
    survivors via one element-wise join), partials shuffle by a coarse md5
    gram slice — never one Ray group per gram (the duplicate_spans
    lesson) — and each slice re-sums vectorized and applies ``min_count``.
    The shuffle carries the per-batch distinct-gram space; that is the
    op's semantics (exact counts). For a bounded-memory approximation use
    ``ops/sketches.cms_counts`` / ``heavy_hitters`` instead.

    Returns ``(gram, n)`` rows."""
    if n < 2:
        raise ValueError("n must be >= 2 (use token counts for unigrams)")
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        if lowercase:
            texts = pc.utf8_lower(texts)
        toks = pc.split_pattern_regex(texts, pattern=_ASCII_WS)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nonempty = pc.greater(pc.binary_length(flat), 0).to_numpy(
            zero_copy_only=False
        )
        flat = flat.filter(pa.array(nonempty))
        doc_of = doc_of[nonempty]
        empty = pa.table(
            {
                "gram": pa.array([], pa.large_string()),
                "n": pa.array([], pa.int64()),
                "slice": pa.array([], pa.int32()),
            }
        )
        F = len(doc_of)
        if F < n:
            return empty
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary
        v = max(int(len(vocab)), 1)
        valid = doc_of[: F - n + 1] == doc_of[n - 1 :]
        if not valid.any():
            return empty
        windows = np.flatnonzero(valid)
        if v ** n < (1 << 62):
            packed = np.zeros(len(windows), dtype=np.int64)
            for k in range(n):
                packed = packed * v + codes[windows + k]
            pcodes, pcounts = np.unique(packed, return_counts=True)
            parts = []
            rem = pcodes.copy()
            for k in range(n - 1, -1, -1):
                parts.append(rem % v)
                rem //= v
            cols = [
                vocab.take(pa.array(p)).cast(pa.large_string())
                for p in reversed(parts)
            ]
        else:  # wide-vocab fallback: row-wise unique on the code matrix
            mat = np.stack([codes[windows + k] for k in range(n)], axis=1)
            uniq, pcounts = np.unique(mat, axis=0, return_counts=True)
            cols = [
                vocab.take(pa.array(uniq[:, k])).cast(pa.large_string())
                for k in range(n)
            ]
        sep = pa.scalar(" ", pa.large_string())
        grams = pc.binary_join_element_wise(*cols, sep)
        sl = dataflow.slice_of(num_slices, grams)
        return pa.table(
            {
                "gram": grams,
                "n": pa.array(pcounts.astype(np.int64)),
                "slice": pa.array(sl),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["slice"])
        agg = group.group_by(["gram"]).aggregate([("n", "sum")])
        cnt = agg["n_sum"].cast(pa.int64())
        keep = pc.greater_equal(cnt, min_count)
        return pa.table(
            {"gram": agg["gram"], "n": cnt}
        ).filter(keep)

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )

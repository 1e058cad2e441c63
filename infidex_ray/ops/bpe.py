"""Distributed BPE (byte-pair-encoding) vocabulary training.

The tokenizer-building step of an LLM data pipeline: starting from the
corpus's distinct-word frequency table with words split into characters,
repeatedly merge the globally most frequent adjacent symbol pair. This is
Sennrich et al.'s original algorithm (ACL 2016) expressed Ray-Data-first:

* the corpus is read ONCE — everything after the word-count stage operates
  on the (much smaller) distinct-word vocabulary Dataset, so ``num_merges``
  iterations cost ``num_merges`` passes over the vocabulary, not the corpus;
* each iteration is one ``map_batches`` (pair emission, weighted by word
  frequency) + one coarse pair-hash slice groupby (never a Ray group per
  ~unique pair) + a ≤|slices|-row driver argmax + one ``map_batches``
  applying the merge — symbol state stays a Dataset column end-to-end.

Cross-engine exactness: a word's symbol sequence is stored SENTINEL-WRAPPED
(``\\x01a\\x01\\x01b\\x01…``) so that applying a merge is a plain string
``replace`` — and because adjacent matches share no characters in this
representation, left-to-right non-overlapping ``replace`` (Python and
DuckDB agree) IS the greedy BPE merge, consecutive-run semantics included
(``|a||a||a|`` → ``|aa||a|``). The DuckDB oracle unrolls the same
iterations with ``string_split``/``replace`` CTEs; ties break by
(count DESC, left ASC, right ASC) in binary string order on both engines.

No reference-engine analogue (pure beyond-reference training-data op).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow

__all__ = ["bpe_train", "bpe_encode_counts"]

SEP = "\x01"


def _wrap(symbols) -> str:
    return "".join(SEP + s + SEP for s in symbols)


def _word_counts(ds, text_col: str, num_slices: int):
    """Distinct-word frequency table (word, cnt): per-batch Arrow RE2 split
    + np.unique partials, one md5-free mixed-hash word-slice shuffle, one
    vectorized per-slice sum. Tokenization = lower + ``[ \\t\\n\\r]+`` split
    (the tfidf_keywords oracle convention)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        col = pc.utf8_lower(batch[text_col].combine_chunks())
        parts = pc.split_pattern_regex(col, pattern="[ \t\n\r]+")
        flat = pc.list_flatten(parts)
        words = [
            w
            for w in flat.to_pylist()
            if w and SEP not in w
        ]
        if not words:
            return pa.table(
                {
                    "w": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        uniq, counts = np.unique(np.asarray(words, dtype=object), return_counts=True)
        w = pa.array(list(uniq), pa.string())
        return pa.table(
            {
                "w": w,
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
                "slice": pa.array(dataflow.slice_of(num_slices, w)),
            }
        )

    def merge_slice(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["slice"])
        agg = t.group_by(["w"]).aggregate([("cnt", "sum")])
        return agg.rename_columns(["w", "cnt"])

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(merge_slice, batch_format="pyarrow")
    )


def bpe_train(
    ds,
    num_merges: int = 4,
    text_col: str = "text",
    num_slices: int | None = None,
):
    """Train ``num_merges`` BPE merges over the corpus; returns a
    ``pa.Table`` of the learned merge table —
    ``(rank, left, right, merged, pair_count)``, rank 1.. in merge order.

    Stops early if the vocabulary runs out of adjacent pairs (single-symbol
    words only); the fixed-iteration SQL oracle matches as long as
    ``num_merges`` is below that horizon (always, on natural corpora).
    """
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def init_seq(batch: pa.Table) -> pa.Table:
        seqs = [_wrap(list(w)) for w in batch["w"].to_pylist()]
        return pa.table(
            {
                "w": batch["w"],
                "cnt": batch["cnt"],
                "seq": pa.array(seqs, pa.string()),
            }
        )

    vocab = (
        _word_counts(ds, text_col, num_slices)
        .map_batches(init_seq, batch_format="pyarrow")
        .materialize()
    )

    def emit_pairs(batch: pa.Table) -> pa.Table:
        from collections import Counter

        acc: Counter = Counter()
        for seq, cnt in zip(batch["seq"].to_pylist(), batch["cnt"].to_pylist()):
            syms = seq.strip(SEP).split(SEP + SEP)
            for a, b in zip(syms, syms[1:]):
                acc[(a, b)] += cnt
        if not acc:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        aa, bb, cc = zip(*((a, b, c) for (a, b), c in acc.items()))
        a = pa.array(list(aa), pa.string())
        b = pa.array(list(bb), pa.string())
        return pa.table(
            {
                "a": a,
                "b": b,
                "c": pa.array(list(cc), pa.int64()),
                "slice": pa.array(dataflow.slice_of(num_slices, a, b)),
            }
        )

    def slice_best(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["slice"])
        agg = t.group_by(["a", "b"]).aggregate([("c", "sum")])
        if agg.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        rows = sorted(
            zip(
                agg["a"].to_pylist(),
                agg["b"].to_pylist(),
                agg["c_sum"].to_pylist(),
            ),
            key=lambda r: (-r[2], r[0], r[1]),
        )
        a, b, c = rows[0]
        return pa.table(
            {
                "a": pa.array([a], pa.string()),
                "b": pa.array([b], pa.string()),
                "c": pa.array([c], pa.int64()),
            }
        )

    merges = []
    for rank in range(1, num_merges + 1):
        best_rows = (
            vocab.map_batches(emit_pairs, batch_format="pyarrow")
            .groupby("slice")
            .map_groups(slice_best, batch_format="pyarrow")
            .take_all()
        )
        if not best_rows:
            break
        a, b, c = min(
            ((r["a"], r["b"], r["c"]) for r in best_rows),
            key=lambda r: (-r[2], r[0], r[1]),
        )
        merges.append((rank, a, b, a + b, c))
        pat = SEP + a + SEP + SEP + b + SEP
        rep = SEP + a + b + SEP

        def apply_merge(batch: pa.Table, pat=pat, rep=rep) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table(
                {
                    "w": batch["w"],
                    "cnt": batch["cnt"],
                    "seq": pc.replace_substring(
                        batch["seq"].combine_chunks(), pattern=pat, replacement=rep
                    ),
                }
            )

        vocab = vocab.map_batches(apply_merge, batch_format="pyarrow").materialize()

    if not merges:
        return pa.table(
            {
                "rank": pa.array([], pa.int64()),
                "left": pa.array([], pa.string()),
                "right": pa.array([], pa.string()),
                "merged": pa.array([], pa.string()),
                "pair_count": pa.array([], pa.int64()),
            }
        )
    rk, la, rb, mg, pc_ = zip(*merges)
    return pa.table(
        {
            "rank": pa.array(list(rk), pa.int64()),
            "left": pa.array(list(la), pa.string()),
            "right": pa.array(list(rb), pa.string()),
            "merged": pa.array(list(mg), pa.string()),
            "pair_count": pa.array(list(pc_), pa.int64()),
        }
    )


def bpe_encode_counts(
    ds,
    merges,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Apply a learned BPE merge table (rank-ordered ``(left, right)``
    pairs — :func:`bpe_train`'s output) and count each document's tokens:
    the budget/packing input of a tokenizer-aware pipeline. Returns
    ``(doc_id, n_words, n_tokens)`` for documents with ≥ 1 word.

    Stateless ``map_batches``: the merge table rides in the closure (it is
    ``num_merges`` rows), each batch tokenizes with the same lower +
    ASCII-ws split as training, encodes each DISTINCT word once (per-batch
    memo — web text repeats words heavily) with the same sentinel-replace
    greedy merges, and sums symbol counts per document. Zero shuffle."""
    import pyarrow.compute as pc

    merge_list = [
        (m["left"], m["right"]) if isinstance(m, dict) else (m[0], m[1])
        for m in merges
    ]
    pats = [
        (SEP + a + SEP + SEP + b + SEP, SEP + a + b + SEP) for a, b in merge_list
    ]

    def encode(batch: pa.Table) -> pa.Table:
        col = pc.utf8_lower(batch[text_col].combine_chunks())
        parts = pc.split_pattern_regex(col, pattern="[ \t\n\r]+")
        ln = pc.list_value_length(parts).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = pc.list_flatten(parts).to_pylist()
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), ln)
        memo: dict[str, int] = {}
        n_words = np.zeros(len(batch), dtype=np.int64)
        n_tokens = np.zeros(len(batch), dtype=np.int64)
        for d, w in zip(doc_of.tolist(), flat):
            if not w or SEP in w:
                continue
            t = memo.get(w)
            if t is None:
                seq = _wrap(list(w))
                for pat, rep in pats:
                    seq = seq.replace(pat, rep)
                t = memo[w] = seq.count(SEP) // 2
            n_words[d] += 1
            n_tokens[d] += t
        keep = n_words > 0
        ids = batch[id_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_words": pa.array(n_words[keep], pa.int64()),
                "n_tokens": pa.array(n_tokens[keep], pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        encode, batch_format="pyarrow"
    )

"""Feature-hashing vectorization — the "hashing trick" (Weinberger et al.,
*Feature Hashing for Large Scale Multitask Learning*, ICML 2009).

Turns a text column into fixed-dimension bag-of-words features WITHOUT a
vocabulary: bucket = hash(token) mod dim. That is exactly the property that
matters at 100 TB — a vocabulary-based vectorizer needs a global
(term → index) table (an all-to-all groupby + a broadcast that grows with
the corpus), while the hashing trick is one stateless ``map_batches`` with
zero shared state, so it streams and scales embarrassingly.

Two output layouts:

* :func:`hashed_bow` — LONG format ``(id, bucket, tf)``: joins/aggregates
  naturally, and is exactly recomputable in SQL (token hash =
  ``md5_number_lower`` = :func:`infidex_ray.ops.dedup._md5_u64`), so it is
  driver-contract-checkable bit for bit.
* :func:`hashed_bow_dense` — ``(id, vec: list<float>)`` with optional L2
  normalization: feeds the similarity suite (``knn_cosine`` /
  ``embedding_dup_pairs``) so a corpus without model embeddings still gets
  the full ANN/dedup toolchain.

Tokens are raw whitespace-delimited runs (``\\S+``) — no lowercasing or
normalization, so the SQL oracle needs no engine-specific Unicode casing
parity.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import _md5_u64

__all__ = ["hashed_bow", "hashed_bow_dense", "hashed_bow_batch"]

# re.ASCII: \S must be RE2's ASCII complement, matching the DuckDB oracle
# (see ops/asciiws.py).
_WS_RE = re.compile(r"\S+", re.ASCII)


def _doc_buckets(texts: list, dim: int, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Flatten all docs' token buckets: returns (doc_row_idx, bucket)."""
    rows: list[int] = []
    buckets: list[int] = []
    for i, t in enumerate(texts):
        toks = _WS_RE.findall(t or "")
        if not toks:
            continue
        rows.extend([i] * len(toks))
        for tok in toks:
            b = cache.get(tok)
            if b is None:
                b = cache[tok] = _md5_u64(tok) % dim
            buckets.append(b)
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(buckets, dtype=np.int64),
    )


def hashed_bow_batch(
    batch: pa.Table, dim: int = 256, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """(id, bucket, tf) rows for one batch — vectorized group-count via
    lexsort + run-length encoding over the flattened (doc, bucket) pairs."""
    texts = batch[text_col].to_pylist()
    ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
    cache: dict[str, int] = {}
    rows, buckets = _doc_buckets(texts, dim, cache)
    if len(rows) == 0:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
            }
        )
    order = np.lexsort((buckets, rows))
    rows, buckets = rows[order], buckets[order]
    # run-length count of identical (row, bucket) pairs
    change = np.empty(len(rows), dtype=bool)
    change[0] = True
    change[1:] = (rows[1:] != rows[:-1]) | (buckets[1:] != buckets[:-1])
    starts = np.flatnonzero(change)
    tf = np.diff(np.append(starts, len(rows)))
    return pa.table(
        {
            id_col: ids[rows[starts]],
            "bucket": buckets[starts],
            "tf": tf.astype(np.int64),
        }
    )


def hashed_bow(ds, dim: int = 256, id_col: str = "doc_id", text_col: str = "text"):
    """Long-format hashed bag-of-words over a Dataset. Stateless
    ``map_batches``; no shuffle, no global vocabulary."""
    return ds.map_batches(
        lambda b: hashed_bow_batch(b, dim=dim, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )


def hashed_bow_dense(
    ds,
    dim: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
    l2_normalize: bool = True,
):
    """Dense (id, vec list<float32>) hashed features — drop-in input for
    ``ops.similarity`` (brute/IVF/LSH knn) and ``embedding_dup_pairs`` on
    corpora that have no model embeddings. Keep ``dim`` modest (64-1024);
    the vector column is dim × 4 bytes per doc."""

    def to_dense(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        cache: dict[str, int] = {}
        rows, buckets = _doc_buckets(texts, dim, cache)
        mat = np.zeros((len(texts), dim), dtype=np.float32)
        if len(rows):
            np.add.at(mat, (rows, buckets), 1.0)
        if l2_normalize:
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            np.divide(mat, norms, out=mat, where=norms > 0)
        return pa.table(
            {
                id_col: batch[id_col],
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(mat.reshape(-1), pa.float32()), dim
                ),
            }
        )

    return ds.map_batches(to_dense, batch_format="pyarrow")


# --- TF-IDF keyword extraction ------------------------------------------------


def document_frequencies(ds, text_col: str = "text"):
    """(token, df) over lowercase whitespace tokens — df = number of docs
    containing the token. Per-batch partial: one Arrow ``group_by`` collapses
    the batch to distinct (doc, token) rows, then ``value_counts`` over the
    token column; the global ``groupby(token).sum`` shuffles vocabulary-sized
    partials only (one row per token per block, the word-count combiner)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        doc_of = doc_of[keep.to_numpy(zero_copy_only=False)]
        per_doc = (
            pa.table({"i": pa.array(doc_of), "token": flat})
            .group_by(["i", "token"])
            .aggregate([])
        )
        vc = pc.value_counts(per_doc["token"])
        return pa.table(
            {
                "token": vc.field("values").cast(pa.string()),
                "df": vc.field("counts").cast(pa.int64()),
            }
        )

    agg = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .sum("df")
    )

    def rename(t: pa.Table) -> pa.Table:
        c = "sum(df)" if "sum(df)" in t.column_names else "df"
        return pa.table({"token": t["token"], "df": t[c].cast(pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow")


def tfidf_keywords(
    ds,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_vocab: int | None = 1_000_000,
):
    """Top-k TF-IDF keywords per document: ``score = tf · ln(N/df)``, ties
    broken by token ascending. Returns ``(id, rank, token, score)`` with
    score rounded half-away-from-zero to 4 decimals (DuckDB ``ROUND``).

    ``max_vocab`` defaults to 1M tokens so the driver-side df collect is
    bounded on web-scale vocabularies; pass ``max_vocab=None`` to opt in to
    the unbounded exact vocabulary (driver memory = |vocab|).

    Two-pass broadcast shape: pass 1 trains the vocabulary-sized df table
    (see :func:`document_frequencies`) which is sorted, ``ray.put`` ONCE and
    probed per batch with ``searchsorted``; pass 2 recomputes per-doc tf with
    an in-batch Arrow ``group_by`` and selects top-k with one ``np.lexsort``
    — the corpus side never shuffles. The broadcast is |vocab|-bounded (the
    same small side the index's df lookup holds); on a crawl whose tail
    vocabulary outgrows worker heaps, pass ``max_vocab`` to keep only the
    top-V tokens by (df DESC, token ASC) — tokens outside the kept
    vocabulary are then simply not keyword candidates (a df-1 hapax is
    ironically the HIGHEST-idf token, so pruning changes results; it is the
    explicit memory/fidelity trade, not a silent cap)."""
    import pyarrow.compute as pc
    import ray

    from .dedup import round_half_up4_arr

    df_ds = document_frequencies(ds, text_col)
    if max_vocab is not None:
        df_ds = df_ds.sort(["df", "token"], descending=[True, False]).limit(
            max_vocab
        )
    dfp = df_ds.to_pandas()
    n_docs = float(ds.count())
    order = np.argsort(dfp["token"].to_numpy(), kind="stable")
    vocab = dfp["token"].to_numpy()[order]
    idf = np.log(n_docs / dfp["df"].to_numpy()[order].astype(np.float64))
    model_ref = ray.put((vocab, idf))

    def score(batch: pa.Table) -> pa.Table:
        vocab_a, idf_a = ray.get(model_ref)
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        doc_of = doc_of[keep.to_numpy(zero_copy_only=False)]
        tf_tbl = (
            pa.table({"i": pa.array(doc_of), "token": flat})
            .group_by(["i", "token"])
            .aggregate([("token", "count")])
        )
        i = tf_tbl["i"].to_numpy(zero_copy_only=False)
        tok = tf_tbl["token"].to_numpy(zero_copy_only=False)
        tf = tf_tbl["token_count"].to_numpy(zero_copy_only=False).astype(np.float64)
        if len(i) == 0:
            return pa.table(
                {
                    id_col: pa.array([], batch[id_col].type),
                    "rank": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            )
        ti = np.searchsorted(vocab_a, tok)
        if len(vocab_a):
            hit = vocab_a[np.minimum(ti, len(vocab_a) - 1)] == tok
        else:
            hit = np.zeros(len(tok), dtype=bool)
        # tokens outside the (possibly pruned) vocabulary are not candidates
        if not hit.all():
            i, tok, tf, ti = i[hit], tok[hit], tf[hit], ti[hit]
            if len(i) == 0:
                return pa.table(
                    {
                        id_col: pa.array([], batch[id_col].type),
                        "rank": pa.array([], pa.int64()),
                        "token": pa.array([], pa.string()),
                        "score": pa.array([], pa.float64()),
                    }
                )
        s = tf * idf_a[ti]
        # total order (doc, score desc, token asc) — token order via its
        # vocab index, which is lexicographic by construction
        ordr = np.lexsort((ti, -s, i))
        i_s, s_s = i[ordr], s[ordr]
        starts = np.concatenate([[True], i_s[1:] != i_s[:-1]])
        start_pos = np.flatnonzero(starts)
        grp = np.cumsum(starts) - 1
        rank = np.arange(len(i_s), dtype=np.int64) - start_pos[grp] + 1
        top = rank <= k
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(ids[i_s[top]]),
                "rank": pa.array(rank[top]),
                "token": pa.array(tok[ordr][top], pa.string()),
                "score": pa.array(round_half_up4_arr(s_s[top]), pa.float64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


# --- int8 scalar quantization -------------------------------------------------


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Vectorized round-half-away-from-zero to integers — DuckDB ``round()``
    semantics (numpy's ``np.round`` is banker's and diverges on exact .5)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_embeddings(
    ds,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    bits: int = 8,
):
    """Per-vector symmetric scalar quantization of an embedding column — the
    storage-compression step ahead of large-scale ANN (4× smaller than
    float32 at 8 bits; recall loss is bounded by the per-vector max-abs
    scale). Output is LONG format, one row per dimension:
    ``(vec_id, i, q, scale)`` with ``q = round(e / scale)`` half-away,
    ``scale = max|e| / (2^(bits-1) - 1)`` rounded to 6 (all-zero vectors get
    scale 0 and q 0) — long rather than ``list<int8>`` so the DuckDB oracle
    hashes it row-for-row (the ``hashed_bow`` convention).

    Stateless vectorized map_batches: one matrix op per batch, rows explode
    by repeat/tile — embarrassingly parallel, no shuffle."""
    from .similarity import _to_matrix

    qmax = float(2 ** (bits - 1) - 1)

    def quant(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _to_matrix(batch, vec_col)
        n, dim = m.shape
        scale = np.abs(m).max(axis=1) / qmax
        safe = np.where(scale == 0, 1.0, scale)
        q = _round_half_away(m / safe[:, None]).astype(np.int64)
        q[scale == 0] = 0
        scale6 = np.copysign(np.floor(np.abs(scale) * 1e6 + 0.5) / 1e6, scale)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, dim)),
                "i": pa.array(
                    np.tile(np.arange(1, dim + 1, dtype=np.int64), n)
                ),
                "q": pa.array(q.reshape(-1)),
                "scale": pa.array(np.repeat(scale6, dim)),
            }
        )

    return ds.map_batches(quant, batch_format="pyarrow")


# --- linear classifier scoring ------------------------------------------------


def default_linear_weights(dim: int, seed: int = 7) -> np.ndarray:
    """Deterministic synthetic weight vector in [-1, 1]: ``(md5("w{seed}:{b}")
    % 20001 - 10000) / 10000`` per bucket — the stand-in for a trained
    fastText/logistic quality model (no model files ship in this repo; a real
    deployment passes its trained vector as ``weights=``)."""
    return np.asarray(
        [(_md5_u64(f"w{seed}:{b}") % 20001 - 10000) / 10000.0 for b in range(dim)],
        dtype=np.float64,
    )


def linear_score(
    ds,
    dim: int = 64,
    seed: int = 7,
    id_col: str = "doc_id",
    text_col: str = "text",
    weights: np.ndarray | None = None,
):
    """fastText-style linear classifier scoring: hashed-unigram mean of a
    broadcast weight vector, through a sigmoid — the distributed "quality
    model" gate of CCNet/DCLM-style curation (score every page, keep a band).

    Emits ``(doc_id, n_tokens, logit, prob)`` for docs with ≥ 1 token; logit
    = mean over tokens of ``w[md5(tok) % dim]``, prob = ``1/(1+exp(-logit))``
    (both rounded half-away-4 to match DuckDB ROUND).

    Scale design: the weight vector is ``ray.put`` ONCE (a trained quality
    model is a few MB) and read per task; scoring is a stateless
    ``map_batches`` — bucket lookup + one ``bincount`` per batch, no shuffle,
    no per-batch re-ship of the model. Same feature hashing as
    :func:`hashed_bow` (md5 % dim, RE2-ASCII ``\\S+`` tokens), so the DuckDB
    oracle is hash-identical via ``md5_number_lower``."""
    import ray

    from .dedup import round_half_up4_arr

    w = default_linear_weights(dim, seed) if weights is None else np.asarray(weights, dtype=np.float64)
    if len(w) != dim:
        raise ValueError(f"weights length {len(w)} != dim {dim}")
    wref = ray.put(w)

    def score(batch: pa.Table) -> pa.Table:
        wv = ray.get(wref)
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        cache: dict[str, int] = {}
        rows, buckets = _doc_buckets(texts, dim, cache)
        n_tok = np.bincount(rows, minlength=len(texts)) if len(rows) else np.zeros(len(texts), dtype=np.int64)
        sw = (
            np.bincount(rows, weights=wv[buckets], minlength=len(texts))
            if len(rows)
            else np.zeros(len(texts), dtype=np.float64)
        )
        keep = n_tok > 0
        logit = sw[keep] / n_tok[keep]
        prob = 1.0 / (1.0 + np.exp(-logit))
        return pa.table(
            {
                id_col: pa.array(ids[keep]),
                "n_tokens": pa.array(n_tok[keep].astype(np.int64)),
                "logit": pa.array(round_half_up4_arr(logit)),
                "prob": pa.array(round_half_up4_arr(prob)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def token_label_chi2(
    ds,
    text_col: str = "text",
    label_col: str = "lang",
    target: str = "en",
    min_df: int = 2,
    num_slices: int | None = None,
):
    """Per-token χ² association with a binary label (fastText/feature-
    selection classic): for every lowercase whitespace token, the 2×2
    contingency of (document contains token) × (label == target), scored
    ``χ² = N·(AD−BC)² / ((A+B)(C+D)(A+C)(B+D))``.

    Scale shape = the word-df combiner (``token_df``): each block collapses
    to distinct (doc, token) rows with one Arrow group_by, contributes
    ≤|vocab| partial rows of (df, target-df), and only those shuffle — one
    coarse md5 token-slice groupby merges them. Label totals are one tiny
    combiner aggregate. All counts int64-exact; the χ² finish expression is
    operation-identical to the SQL oracle ⇒ bitwise before ROUND(…, 6).
    NULL labels count as non-target (SQL CASE WHEN parity); tokens in every
    document (zero other-column) yield NULL χ².

    Output: (token, a, df, chi2) for tokens with df ≥ ``min_df``, where
    ``a`` = target-labeled documents containing the token.
    """
    import pyarrow.compute as pc

    if num_slices is None:
        num_slices = dataflow.num_slices()

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        doc_of = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        doc_of = doc_of[keep.to_numpy(zero_copy_only=False)]
        is_t = (
            pc.equal(batch[label_col], target)
            .fill_null(False)
            .to_numpy(zero_copy_only=False)
        )
        per_doc = (
            pa.table({"i": pa.array(doc_of), "token": flat})
            .group_by(["i", "token"])
            .aggregate([])
        )
        tflag = is_t[per_doc["i"].to_numpy(zero_copy_only=False)].astype(np.int64)
        agg = (
            per_doc.append_column("t", pa.array(tflag))
            .group_by(["token"])
            .aggregate([("t", "sum"), ("t", "count")])
        )
        token = agg["token"].cast(pa.string())
        sl = dataflow.slice_of(num_slices, token)
        return pa.table(
            {
                "token": token,
                "a": agg["t_sum"].cast(pa.int64()),
                "df": agg["t_count"].cast(pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def labels_partial(batch: pa.Table) -> pa.Table:
        is_t = (
            pc.equal(batch[label_col], target)
            .fill_null(False)
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "nt": pa.array([int(is_t.sum())], pa.int64()),
                "no": pa.array([int((~is_t).sum())], pa.int64()),
            }
        )

    import ray

    totals = [
        t
        for t in ray.get(
            ds.select_columns([label_col])
            .map_batches(labels_partial, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    tt = pa.concat_tables([t.select(["nt", "no"]) for t in totals])
    nt = float(pc.sum(tt["nt"]).as_py() or 0)
    no = float(pc.sum(tt["no"]).as_py() or 0)

    def merge_slice(g: pa.Table) -> pa.Table:
        m = g.group_by(["token"]).aggregate([("a", "sum"), ("df", "sum")])
        a = m["a_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = m["df_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = df >= min_df
        a, df = a[keep], df[keep]
        token = m["token"].combine_chunks().filter(pa.array(keep))
        b = df - a
        c = nt - a
        d = no - b
        num = a * d - b * c
        den = ((a + b) * (c + d)) * ((a + c) * (b + d))
        with np.errstate(divide="ignore", invalid="ignore"):
            chi2 = (nt + no) * (num * num) / den
        chi2 = np.copysign(np.floor(np.abs(chi2) * 1e6 + 0.5) / 1e6, chi2)
        ok = den != 0.0
        return pa.table(
            {
                "token": token,
                "a": pa.array(a.astype(np.int64)),
                "df": pa.array(df.astype(np.int64)),
                "chi2": pa.array(
                    [float(x) if v else None for x, v in zip(chi2, ok)],
                    pa.float64(),
                ),
            }
        )

    return (
        ds.select_columns([text_col, label_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(merge_slice, batch_format="pyarrow")
    )

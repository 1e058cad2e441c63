"""Composed end-to-end pipelines — the recipes a training-data team actually
runs, chaining the `ops/` suite into one streaming Dataset program.

Everything stays lazy Ray Data end-to-end: each stage is a map_batches /
broadcast / bounded-shuffle operator from `ops/`, so the composition
inherits their 100-TB properties (the only all-to-alls are the dedup
band-key groupby, the pair joins, and the pack bucket groupby; every
filter/score step streams). Intermediate corpora that are consumed more
than once are checkpointed to partitioned parquet (the disk tier — at
100 TB the object store is the wrong persistence layer for a full corpus
snapshot, and the ``_SUCCESS``-marked partitions make a re-run resume
instead of recompute). Consume the result with ``write_parquet`` /
``sources.write_results`` — do not materialize it.
"""

from __future__ import annotations

import os

__all__ = ["curate_webtext", "hybrid_search", "build_frontier"]


def _checkpoint(docs, ckpt_dir: str, id_col: str, n_parts: int):
    """Spill a corpus snapshot to ``_SUCCESS``-marked partitioned parquet and
    re-read it (``sources.write_partitioned_resumable``): the snapshot is
    consumed by more than one downstream pass, and parquet-on-disk is the
    right tier for that at crawl scale — object-store `materialize()` pins
    the whole corpus in cluster memory. Partition key = ``id % n_parts``
    (deterministic, so a killed run resumes from committed partitions)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from .sources import write_partitioned_resumable

    def add_part(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if "__part" in batch.column_names:
            batch = batch.drop_columns(["__part"])
        return batch.append_column(
            "__part", pa.array((ids % n_parts).astype(np.int32))
        )

    write_partitioned_resumable(
        docs.map_batches(add_part, batch_format="pyarrow"), ckpt_dir, "__part"
    )
    import glob

    if not glob.glob(os.path.join(ckpt_dir, "**", "*.parquet"), recursive=True):
        # everything was filtered upstream: read_parquet errors on a dir
        # with no data files — signal the caller to short-circuit (joins
        # over limit(0) datasets trip a Ray 2.49 planner assertion)
        return None
    # file_extensions: the _SUCCESS markers otherwise make read_parquet
    # return an empty dataset (Ray 2.49 includes them in the file listing)
    out = ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"])
    return out.drop_columns(["__part"])


def curate_webtext(
    docs,
    bench=None,
    id_col: str = "doc_id",
    text_col: str = "text",
    langs: tuple = ("en",),
    min_quality: float = 0.3,
    minhash_threshold: float = 0.8,
    chunk_words: int = 64,
    pack_capacity: int = 256,
    decontam_n: int = 8,
    checkpoint_dir: str | None = None,
    checkpoint_partitions: int = 64,
    dsir_target=None,
    dsir_min_logweight: float = 0.0,
    dsir_buckets: int = 4096,
    quality_model=None,
    quality_model_dim: int = 64,
    quality_model_min_prob: float = 0.5,
    readability_band: tuple | None = None,
    token_budget: int | None = None,
    max_per_domain: int | None = None,
    domain_col: str = "url",
    paragraph_dedup: bool = False,
    image_dedup_hamming: int | None = None,
    media_col: str = "media",
):
    """The standard webtext curation recipe (CCNet/Gopher/RefinedWeb shape):

    1. language filter (stopword-profile heuristic, stateless)
    2. quality-score floor + Gopher document rules (stateless)
    3. exact dedup (hash groupby of (hash, id) rows; min-id survivor)
    4. MinHash near-dedup (band-key shuffle; exact-Jaccard-verified pairs →
       label-propagation clusters → anti-join)
    5. optional decontamination against a benchmark set (broadcast
       ``decontam_n``-gram hash set — 8 by default, the GPT-3/PaLM range;
       contaminated ids are dropped with a distributed left_anti join,
       never collected to the driver)
    6. optional DSIR importance filter (``dsir_target`` + threshold): the
       hashed-n-gram log-ratio model broadcasts as one 32 KB vector and the
       gate is row-local — keeps docs whose logweight ≥ ``dsir_min_logweight``
    7. optional token-budget cap (``token_budget``): one global sort by the
       quality-model prob (or a deterministic md5 priority) + a distributed
       prefix-sum cut, then a left_semi join — "spend the budget from the
       top" (DCLM shape). Opt-in gates fused into step 2: a trained linear
       quality model (``quality_model`` weights, broadcast once) and a
       Flesch reading-ease band (``readability_band``)
    8. chunk into ``chunk_words``-word training samples and greedily pack
       into ``pack_capacity``-token sequences (bucket, bin)

    Two more opt-in stages: ``max_per_domain`` caps docs per registered
    domain of ``domain_col`` right after the gate (deterministic md5
    priorities via ``quota_sample`` — bounds megasite skew BEFORE the
    dedup all-to-alls), and ``paragraph_dedup=True`` runs RefinedWeb-style
    corpus-wide paragraph span removal (``dedup_lines(sep='\\n\\n')``)
    after near-dedup and before decontamination (only ``id``/``text``
    survive that stage — it rewrites the text column).

    Returns the packed-chunk Dataset. Each stage is individually
    oracle-verified in the driver contract; the composition adds no new
    semantics, only plumbing. Filter stages are row-local, so they fuse:
    one map_batches computes the score and filters in place — no label
    join, no second pass over the text.

    The two corpus snapshots that are consumed twice (the gated corpus:
    pair mining + anti-join; the deduped corpus: decontam + chunking) are
    checkpointed to resumable partitioned parquet under ``checkpoint_dir``
    (default: a fresh directory under /tmp). Scale ``checkpoint_partitions``
    with the corpus (one write task and one ``_SUCCESS`` unit per
    partition).
    """
    import pyarrow as pa

    from .ops.chunking import chunk_text
    from .ops.decontam import decontaminate
    from .ops import dataflow
    from .ops.dedup import (
        dedup_corpus_ds,
        exact_dup_pairs,
        minhash_lsh_pairs,
    )
    from .ops.packing import pack_sequences
    from .ops.textstats import gopher_rules_batch, langid_batch, quality_batch

    if checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="curate_ckpt_")

    lang_set = set(langs)

    # optional trained-quality-model gate: weights broadcast ONCE, read per
    # task — the linear_score machinery fused into the row-local gate below
    wref = None
    if quality_model is not None:
        import numpy as np
        import ray

        wref = ray.put(np.asarray(quality_model, dtype=np.float64))

    def keep_good(batch: pa.Table) -> pa.Table:
        """Fused row-local gate: language ∈ langs, quality ≥ floor, Gopher
        rules pass, plus opt-in readability band and linear quality-model
        floor — all scores computed per batch, rows filtered in one place
        (no label joins, one pass over the text)."""
        import numpy as np

        if len(batch) == 0:
            return batch
        lang = langid_batch(batch, id_col, text_col)["pred_lang"].to_pylist()
        q = quality_batch(batch, id_col, text_col)["quality"].to_numpy(
            zero_copy_only=False
        )
        g = gopher_rules_batch(batch, id_col, text_col)["passes"].to_numpy(
            zero_copy_only=False
        )
        keep = (
            np.asarray([l in lang_set for l in lang], dtype=bool)
            & (q >= min_quality)
            & g.astype(bool)
        )
        if readability_band is not None:
            import pyarrow.compute as pc

            from .ops.textstats import (
                _READ_SENT_PAT,
                _READ_SYL_PAT,
                _READ_WORD_PAT,
            )

            texts = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
            w = pc.count_substring_regex(texts, _READ_WORD_PAT).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            s = np.maximum(
                pc.count_substring_regex(texts, _READ_SENT_PAT).to_numpy(
                    zero_copy_only=False
                ),
                1,
            ).astype(np.float64)
            y = pc.count_substring_regex(texts, _READ_SYL_PAT).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            ws = np.maximum(w, 1.0)
            ease = 206.835 - 1.015 * (w / s) - 84.6 * (y / ws)
            lo, hi = readability_band
            keep &= (w > 0) & (ease >= lo) & (ease <= hi)
        if wref is not None:
            import ray

            from .ops.vectorize import _doc_buckets

            wv = ray.get(wref)
            texts = batch[text_col].to_pylist()
            cache: dict = {}
            rows, buckets = _doc_buckets(texts, quality_model_dim, cache)
            n_tok = (
                np.bincount(rows, minlength=len(batch))
                if len(rows)
                else np.zeros(len(batch), dtype=np.int64)
            )
            sw = (
                np.bincount(rows, weights=wv[buckets], minlength=len(batch))
                if len(rows)
                else np.zeros(len(batch), dtype=np.float64)
            )
            logit = np.where(n_tok > 0, sw / np.maximum(n_tok, 1), -np.inf)
            prob = 1.0 / (1.0 + np.exp(-logit))
            keep &= prob >= quality_model_min_prob
        return batch.filter(pa.array(keep))

    def _empty_packed():
        """Typed empty result in the packed-output schema — returned when a
        gate empties the corpus (feeding joins a limit(0) dataset trips a
        Ray 2.49 planner assertion, so short-circuit instead)."""
        return dataflow.typed_empty(
            {
                id_col: pa.int64(),
                "chunk_id": pa.int64(),
                "n_tokens": pa.int64(),
                "chunk": pa.string(),
                "bucket": pa.int64(),
                "bin": pa.int64(),
            }
        )

    docs = _checkpoint(
        docs.map_batches(keep_good, batch_format="pyarrow"),
        os.path.join(checkpoint_dir, "gated"),
        id_col,
        checkpoint_partitions,
    )
    if docs is None:
        return _empty_packed()

    # --- optional per-domain quota ("≤ N pages per site") ---------------------
    # BEFORE the dedup all-to-alls so a megasite's pages never reach the
    # pair miners; survivors come back via a distributed left_semi join
    # (both sides corpus-scale — no driver collect)
    if max_per_domain is not None:
        from .ops.sampling import quota_sample
        from .ops.urls import url_parse_batch

        def dom(batch: pa.Table) -> pa.Table:
            t = url_parse_batch(
                batch.select([id_col, domain_col]), url_col=domain_col
            )
            return pa.table({id_col: t[id_col], "domain": t["domain"]})

        kept_ids = quota_sample(
            docs.map_batches(dom, batch_format="pyarrow"),
            "domain",
            id_col,
            n=max_per_domain,
        ).select_columns([id_col])
        docs = dataflow.join(
            docs, kept_ids, "left_semi", id_col, chained=False, stream="left"
        )

    # --- exact then near dedup (the two all-to-alls) ----------------------
    docs = dedup_corpus_ds(docs, exact_dup_pairs(docs, id_col, text_col), id_col)

    # --- optional perceptual image near-dedup ------------------------------
    # opt-in (``image_dedup_hamming``): pages whose image payloads dHash
    # within the Hamming bound collapse to one representative — runs after
    # exact text dedup (cheap winnow first) and before the text pair
    # miners so near-identical mirror pages with identical imagery never
    # reach the MinHash all-to-all
    if image_dedup_hamming is not None:
        from .ops.multimodal import image_dup_pairs

        ipairs = image_dup_pairs(
            docs,
            max_hamming=image_dedup_hamming,
            media_col=media_col,
            id_col=id_col,
        )
        docs = dedup_corpus_ds(docs, ipairs, id_col)
    pairs = minhash_lsh_pairs(
        docs, threshold=minhash_threshold, id_col=id_col, text_col=text_col
    )
    docs = _checkpoint(
        dedup_corpus_ds(docs, pairs, id_col),
        os.path.join(checkpoint_dir, "deduped"),
        id_col,
        checkpoint_partitions,
    )
    if docs is None:
        return _empty_packed()

    # --- optional paragraph span removal (RefinedWeb) -------------------------
    # after near-dedup (doc-level survivors fixed) and before decontam
    # (grams must reflect the final text); rewrites text → only id/text flow on
    if paragraph_dedup:
        from .ops.dedup import dedup_lines

        docs = dedup_lines(docs, id_col=id_col, text_col=text_col, sep="\n\n")

    # --- decontamination: distributed left_anti join on contaminated ids ----
    if bench is not None:
        rep = decontaminate(docs, bench, n=decontam_n, id_col=id_col, text_col=text_col)

        def contaminated_ids(batch: pa.Table) -> pa.Table:
            bad = batch.filter(batch["contaminated"])
            return pa.table({id_col: bad[id_col]})

        bad_ids = rep.map_batches(  # id-only, contamination-bounded
            contaminated_ids, batch_format="pyarrow"
        )
        docs = dataflow.join(
            docs, bad_ids, "left_anti", id_col, chained=False, stream="left"
        )

    # --- optional DSIR importance filter (Xie et al. 2023) -------------------
    # hashed-n-gram target-vs-corpus bucket LMs; the whole model is one
    # 32 KB log-ratio vector broadcast once, and the filter is row-local —
    # no join, no shuffle, the corpus streams straight into chunking
    if dsir_target is not None:
        import numpy as np
        import ray

        from .ops.dsir import _bucket_features, dsir_logratio

        lr_ref = ray.put(
            dsir_logratio(docs, dsir_target, text_col, dsir_buckets)
        )

        def dsir_gate(batch: pa.Table) -> pa.Table:
            if len(batch) == 0:
                return batch
            lr = ray.get(lr_ref)
            b, doc_of = _bucket_features(
                batch[text_col].to_pylist(), dsir_buckets
            )
            w = np.zeros(len(batch), dtype=np.float64)
            if len(b):
                order = np.argsort(doc_of, kind="stable")
                b, doc_of = b[order], doc_of[order]
                nfeat = np.bincount(doc_of, minlength=len(batch))
                ends = np.cumsum(nfeat)
                nz = np.flatnonzero(nfeat)
                w[nz] = np.add.reduceat(lr[b], (ends - nfeat)[nz])
            return batch.filter(pa.array(w >= dsir_min_logweight))

        docs = docs.map_batches(dsir_gate, batch_format="pyarrow")

    # --- optional token-budget cap (DCLM "spend the budget from the top") ----
    # score = quality-model prob when a model is given, else a deterministic
    # md5 priority (uniform random but rerun-stable); cost = ASCII-ws token
    # count (the same notion chunk_text bins by). One global sort of the
    # (id, score, cost) projection + a prefix-sum cut, then a left_semi join
    # brings the surviving text rows through.
    if token_budget is not None:
        import numpy as np
        import ray

        from .ops.dedup import _md5_u64
        from .ops.sampling import budget_select
        from .ops.vectorize import _WS_RE, _doc_buckets

        def score_and_cost(batch: pa.Table) -> pa.Table:
            texts = batch[text_col].to_pylist()
            ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
            cost = np.asarray(
                [len(_WS_RE.findall(t or "")) for t in texts], dtype=np.int64
            )
            if wref is not None:
                wv = ray.get(wref)
                cache: dict = {}
                rows, buckets = _doc_buckets(texts, quality_model_dim, cache)
                sw = (
                    np.bincount(rows, weights=wv[buckets], minlength=len(batch))
                    if len(rows)
                    else np.zeros(len(batch), dtype=np.float64)
                )
                score = np.where(cost > 0, sw / np.maximum(cost, 1), -np.inf)
            else:
                score = np.asarray(
                    [_md5_u64(f"bsel:{d}") % (1 << 32) for d in ids],
                    dtype=np.float64,
                )
            return pa.table(
                {
                    id_col: pa.array(ids),
                    "__bsel_score": pa.array(score),
                    "__bsel_cost": pa.array(cost),
                }
            )

        kept = (
            budget_select(
                docs.map_batches(score_and_cost, batch_format="pyarrow"),
                token_budget,
                score_col="__bsel_score",
                cost_col="__bsel_cost",
                id_col=id_col,
            )
            .select_columns([id_col])
            .materialize()  # id-only, budget-bounded — the small side
        )
        if kept.count() == 0:  # budget below the smallest doc
            return _empty_packed()
        docs = dataflow.join(
            docs, kept, "left_semi", id_col, chained=False, stream="left"
        )

    # --- chunk + pack --------------------------------------------------------
    chunks = chunk_text(
        docs, chunk_words=chunk_words, id_col=id_col, text_col=text_col
    )
    return pack_sequences(
        chunks,
        token_col="n_tokens",
        id_col=id_col,
        # (doc, chunk) order: default [id_col] alone leaves same-doc chunk
        # order to groupby block assembly — bin ids would be run-dependent
        order_cols=[id_col, "chunk_id"],
        capacity=pack_capacity,
    )


def hybrid_search(
    engine,
    emb_ds,
    query_text: str,
    query_vec,
    top_k: int = 10,
    k0: int = 60,
    fetch_k: int = 50,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Hybrid retrieval: lexical BM25+coverage candidates from the search
    engine fused with dense-embedding kNN candidates by reciprocal-rank
    fusion (``1/(k0+rank)`` summed per doc — Cormack et al., the same rule
    ``ops.ranking.rrf_fuse`` applies corpus-wide). Returns
    ``[(doc_key, rrf_score, lex_rank | None, sem_rank | None)]``.

    Scale design: the lexical leg runs the (distributed) engine's own
    top-``fetch_k``; the semantic leg is one ``ops.similarity.knn_cosine``
    pass (per-block partial top-k, block-pair streamed); the fusion itself
    touches only 2·fetch_k candidate rows, so it stays driver-side — the
    corpus-scale work is entirely inside the two retrievers."""
    import numpy as np

    from infidex_ray.ops.similarity import knn_cosine

    lex_hits = engine.search(query_text, top_k=fetch_k)
    lex_rank = {h.doc_key: r + 1 for r, h in enumerate(lex_hits)}
    sem = knn_cosine(
        emb_ds, np.atleast_2d(np.asarray(query_vec, dtype=np.float64)),
        k=fetch_k, id_col=id_col, vec_col=vec_col,
    )
    sem_rank = {
        int(i): int(r)
        for i, r in zip(sem[id_col].to_pylist(), sem["rank"].to_pylist())
    }
    fused = {}
    for d, r in lex_rank.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (k0 + r)
    for d, r in sem_rank.items():
        fused[d] = fused.get(d, 0.0) + 1.0 / (k0 + r)
    out = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [
        (d, s, lex_rank.get(d), sem_rank.get(d)) for d, s in out
    ]


def build_frontier(
    pages,
    robots_rules=None,
    max_per_domain: int | None = None,
    html_col: str = "html",
    id_col: str = "doc_id",
):
    """Crawl-frontier construction — the discovery half of the crawl
    lifecycle the curation ops consume: outlink extraction → URL
    canonicalization → URL-level dedup → robots gating → optional
    per-domain quota → politeness-interleaved global ordering.

    Every stage is an individually oracle-verified op; this composition
    adds plumbing only:

    1. :func:`ops.html.extract_links` explodes distinct (page, href) edges
       per batch (vectorized split, no shuffle).
    2. :func:`ops.urls.canonical_url` normalizes (scheme/host case,
       fragments, tracking params); URL-level dedup keeps the first
       discovery by a coarse md5 URL-slice groupby — never one Ray group
       per URL.
    3. :func:`ops.urls.url_parse_batch` splits out (domain, path);
       :func:`ops.robots.robots_allowed` gates paths when rules are given
       (rules broadcast once).
    4. Optional per-domain quota (deterministic md5 priorities via
       :func:`ops.sampling.quota_sample`-style capping happens downstream
       of dedup so quota counts are over DISTINCT URLs).
    5. :func:`ops.urls.politeness_order` assigns the round-robin global
       crawl position.

    Returns a Dataset ``(domain, url, rank, crawl_pos)`` ordered by
    construction.
    """
    import numpy as np
    import pyarrow as pa

    from .ops import dataflow
    from .ops.dedup import _md5_u64
    from .ops.html import extract_links
    from .ops.robots import robots_allowed
    from .ops.urls import canonical_url, politeness_order, url_parse_batch

    num_slices = dataflow.num_slices()
    links = extract_links(pages, html_col=html_col, id_col=id_col)
    canon = canonical_url(links, url_col="href", out_col="url")

    def url_slice(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"url": batch["url"], "slice": dataflow.slice_of(num_slices, batch["url"])}
        )

    def dedup_slice(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table({"url": pa.array([], pa.string())})
        u = np.asarray(t["url"].to_pylist(), dtype=object)
        return pa.table({"url": pa.array(np.unique(u), pa.string())})

    urls = (
        canon.map_batches(url_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(dedup_slice, batch_format="pyarrow")
    )

    def parse(batch: pa.Table) -> pa.Table:
        t = url_parse_batch(batch, url_col="url", keep_cols=["url"])
        return pa.table(
            {"url": t["url"], "domain": t["domain"], "path": t["path"]}
        )

    parsed = urls.map_batches(parse, batch_format="pyarrow")
    if robots_rules is not None:
        gated = robots_allowed(parsed, robots_rules, path_col="path")

        def keep_allowed(batch: pa.Table) -> pa.Table:
            t = batch.filter(batch["allowed"])
            return t.drop_columns(["allowed", "path"])

        parsed = gated.map_batches(keep_allowed, batch_format="pyarrow")
    else:
        parsed = parsed.map_batches(
            lambda b: b.drop_columns(["path"]), batch_format="pyarrow"
        )

    if max_per_domain is not None:
        from .ops.windows import _sorted_key_ranks

        def prio(batch: pa.Table) -> pa.Table:
            urls_ = batch["url"].to_pylist()
            pr = np.asarray(
                [_md5_u64("fq:" + (u or "")) % (1 << 62) for u in urls_],
                dtype=np.int64,
            )
            return batch.append_column("prio", pa.array(pr))

        def cap_slice(group: pa.Table) -> pa.Table:
            t = group.drop_columns(["slice"])
            if t.num_rows == 0:
                return pa.table(
                    {
                        "domain": pa.array([], pa.string()),
                        "url": pa.array([], pa.string()),
                    }
                )
            r = _sorted_key_ranks(t["domain"])
            pr = t["prio"].to_numpy(zero_copy_only=False)
            urls_np = np.asarray(t["url"].to_pylist(), dtype=object)
            order = np.lexsort((urls_np, pr, r))  # url breaks prio ties
            rs = r[order]
            new = np.r_[True, rs[1:] != rs[:-1]]
            starts = np.flatnonzero(new)
            seg = np.cumsum(new) - 1
            pos = np.arange(len(rs), dtype=np.int64) - starts[seg]
            keep = order[pos < max_per_domain]
            kept = t.take(pa.array(np.sort(keep), pa.int64()))
            return kept.select(["domain", "url"])

        parsed = (
            parsed.map_batches(prio, batch_format="pyarrow")
            .map_batches(
                dataflow.add_slice("domain", num_slices),
                batch_format="pyarrow",
            )
            .groupby("slice")
            .map_groups(cap_slice, batch_format="pyarrow")
        )

    return politeness_order(parsed, domain_col="domain", url_col="url")

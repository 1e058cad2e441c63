"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here initialises or shuts down Ray. ``queries()`` exposes one callable per
implemented pipeline/operator (SURVEY.md §2 + training-data ops); each takes
an ``sf_dir`` and returns a Dataset / pandas DataFrame / pyarrow Table.
``oracle_sql()`` gives the DuckDB-equivalent SQL for the SQL-expressible ones
(same column names; floats rounded to 4 decimals on both sides).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

from infidex_ray import sqlgen
from infidex_ray.ops.dedup import round_half_up4
from infidex_ray.config import EngineConfig
from infidex_ray.engine import Engine

# A fixed BM25 benchmark query drawn from the synthetic documents vocabulary.
BM25_QUERY = "hash join merge"

# Deterministic 64-dim query vector for similarity search (sf-independent).
KNN_QUERY_VEC = [round(math.sin(i * 0.7) * 0.5 + math.cos(i * 0.13), 6) for i in range(64)]


def _read(sf_dir: str, table: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"))


def _by(ds, *cols):
    """Deterministic row order for the driver's order-sensitive value hash:
    every Dataset-returning contract query sorts by its oracle's ORDER BY key
    (Ray's streaming executor otherwise concatenates blocks in completion
    order, which is nondeterministic — the round-1 token_stats hash fail)."""
    if isinstance(ds, pa.Table):
        return ds.sort_by([(c, "ascending") for c in cols])
    # materialize first: Ray 2.49's sort returns a schema-LESS dataset when
    # the input is empty, and even a schema-bearing empty Dataset loses its
    # columns in to_pandas() — so legitimately empty results (a pair miner
    # finding nothing on a given corpus) go back as a typed empty pa.Table
    m = ds.materialize()
    if m.count() == 0:
        sch = m.schema()
        base = getattr(sch, "base_schema", None) if sch is not None else None
        if base is not None:
            return base.empty_table()
        for ref in m.to_arrow_refs():
            import ray as _ray

            t = _ray.get(ref)
            if t is not None:
                return t.schema.empty_table()
        return m  # no schema recoverable; driver sees rows=0 either way
    return m.sort(list(cols))


_ENGINE_CACHE: dict[str, Engine] = {}


def _engine_for(sf_dir: str) -> Engine:
    """Build (once per sf_dir) the search index over the documents table."""
    eng = _ENGINE_CACHE.get(sf_dir)
    if eng is None:
        out = os.path.join(
            "/tmp/infidex_ray_idx", sf_dir.strip("/").replace("/", "_") + "_v3"
        )
        # stale-layout guard: rebuild if a previous run wrote segments
        # without the stored field columns this contract needs
        probe = os.path.join(out, "segments")
        if os.path.isdir(probe):
            segs = sorted(os.listdir(probe))
            if segs and not os.path.exists(
                os.path.join(probe, segs[0], "fields.parquet")
            ):
                import shutil

                shutil.rmtree(out, ignore_errors=True)
        eng = Engine.build(
            _read(sf_dir, "documents"),
            out,
            EngineConfig(target_docs_per_segment=2000),
            text_column="text",
            key_column="doc_id",
            store_columns=("lang", "source"),
        )
        _ENGINE_CACHE[sf_dir] = eng
    return eng


# --------------------------------------------------------------------------
# flagship pipeline


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents and run the
    full search pipeline for a panel of queries; returns the result table."""
    sf = "/root/testdata/sf0.001"
    eng = _engine_for(sf)
    rows = {"query": [], "rank": [], "doc_id": [], "score": []}
    for q in [BM25_QUERY, "fast table scan", "windw merge", "batch"]:
        for r, hit in enumerate(eng.search(q, top_k=10)):
            rows["query"].append(q)
            rows["rank"].append(r + 1)
            rows["doc_id"].append(hit.doc_key)
            rows["score"].append(round_half_up4(hit.score))
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int32()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# queries


def _q_normalize(sf_dir: str):
    from infidex_ray.analyzer import normalize

    def f(batch: pa.Table) -> pa.Table:
        texts = [normalize(t).lower() if t else "" for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "norm_text": pa.array(texts, pa.string())}
        )

    return _by(_read(sf_dir, "documents").map_batches(f, batch_format="pyarrow"), "doc_id")


def _q_term_df(sf_dir: str):
    eng = _engine_for(sf_dir)
    return pa.table(
        {
            "term": pa.array([str(t) for t in eng.df_lookup.terms], pa.string()),
            "df": pa.array(eng.df_lookup.dfs, pa.int64()),
        }
    )


def _q_word_df(sf_dir: str):
    eng = _engine_for(sf_dir)
    return pa.table(
        {
            "word": pa.array([str(t) for t in eng.word_df.terms], pa.string()),
            "df": pa.array(eng.word_df.dfs, pa.int64()),
        }
    )


def _q_doc_len(sf_dir: str):
    eng = _engine_for(sf_dir)
    ids, dl = [], []
    for seg in eng.segments:
        ids.extend(int(k) for k in seg.doc_keys)
        dl.extend(int(x) for x in seg.doc_len)
    order = np.argsort(ids)
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(ids)[order], pa.int64()),
            "doc_len": pa.array(np.asarray(dl)[order], pa.int64()),
        }
    )


def _q_bm25(sf_dir: str):
    eng = _engine_for(sf_dir)
    rows = eng.bm25_all_scores(BM25_QUERY)
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "score": pa.array([round_half_up4(r[1]) for r in rows], pa.float64()),
        }
    )


def _q_search_topk(sf_dir: str):
    """Full search pipeline top-10 for a query panel (rows-only check)."""
    eng = _engine_for(sf_dir)
    rows = {"query": [], "rank": [], "doc_id": [], "score": []}
    for q in [BM25_QUERY, "fast table scan", "windw merge", "valu", "slow batch"]:
        for r, hit in enumerate(eng.search(q, top_k=10)):
            rows["query"].append(q)
            rows["rank"].append(r + 1)
            rows["doc_id"].append(hit.doc_key)
            rows["score"].append(round_half_up4(hit.score))
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int32()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
        }
    )


def _q_search_topk_distributed(sf_dir: str):
    """Same panel as search_topk, served by the shard actor pool — must be
    rank-identical to the in-process engine (rows-only driver check; the
    equality itself is asserted in tests/test_executor.py)."""
    from infidex_ray.query.executor import DistributedEngine

    eng = _engine_for(sf_dir)  # ensure the index exists on disk
    deng = DistributedEngine.connect(eng.index_dir, num_shards=2, warm=False)
    rows = {"query": [], "rank": [], "doc_id": [], "score": []}
    try:
        for q in [BM25_QUERY, "fast table scan", "windw merge", "valu", "slow batch"]:
            for r, hit in enumerate(deng.search(q, top_k=10)):
                rows["query"].append(q)
                rows["rank"].append(r + 1)
                rows["doc_id"].append(hit.doc_key)
                rows["score"].append(round_half_up4(hit.score))
    finally:
        deng.shutdown()  # leaked 2-CPU pools deadlock small sessions (r4)
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int32()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
        }
    )


STAGE1_PANEL = [
    "hash join merge",
    "fast table scan",
    "windw merge",
    "compression ratio",
    "vector index",
]


def _stage1_panel_tokens():
    """(query_text, search tokens) pairs for STAGE1_PANEL — the exact
    normalize+tokenize the engine applies (Engine.search_ex), on the text
    stage 1 scores (``stage1_text``: long words only for a mixed query)."""
    from infidex_ray.analyzer import normalize_with, tokenize_for_search
    from infidex_ray.engine import stage1_text

    cfg = EngineConfig()
    out = []
    for q in STAGE1_PANEL:
        qn = normalize_with(cfg.normalizer, q.strip(), is_query=True).lower()
        qn = stage1_text(qn, cfg) or qn
        out.append(
            (
                q,
                tokenize_for_search(
                    qn,
                    cfg.index_sizes,
                    cfg.start_pad_size,
                    cfg.stop_pad_size,
                    cfg.delimiters,
                ),
            )
        )
    return out


def _stage1_rows(eng, search_fn) -> pa.Table:
    """Shared emitter for the stage-1 BM25 entries: ranks/doc ids from the
    REAL pruned float32 search path (coverage off), scores re-derived in
    float64 via the SQL-surface scorer (bm25_all_scores include_fuzzy) so
    the hash compares against DuckDB's float64 sums — a rank divergence
    between the float32 block-max WAND path and exact BM25 ordering would
    surface as a doc_id/score mismatch."""
    rows = {"query": [], "rank": [], "doc_id": [], "score": []}
    for q in sorted(STAGE1_PANEL):  # oracle row order: query asc, rank asc
        smap = dict(eng.bm25_all_scores(q, include_fuzzy=True))
        for r, hit in enumerate(search_fn(q)):
            rows["query"].append(q)
            rows["rank"].append(r + 1)
            rows["doc_id"].append(hit.doc_key)
            rows["score"].append(round_half_up4(smap[hit.doc_key]))
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
        }
    )


def _q_search_topk_bm25(sf_dir: str):
    """Stage-1-only search (enable_coverage=False): BM25+ over the tiered/
    disjunctive candidate selection with block-max pruning — the full
    ranking is SQL-expressible (sqlgen.stage1_topk_sql mirrors
    prepare_query_terms → build_plan → decide_level → phase_b), so unlike
    the coverage-cascade search_topk this entry is hash-checked."""
    eng = _engine_for(sf_dir)
    return _stage1_rows(
        eng, lambda q: eng.search(q, top_k=10, enable_coverage=False)
    )


def _q_search_topk_bm25_distributed(sf_dir: str):
    """search_topk_bm25 served by the shard actor pool — same oracle."""
    from infidex_ray.query.executor import DistributedEngine

    eng = _engine_for(sf_dir)  # ensure the index exists on disk
    deng = DistributedEngine.connect(eng.index_dir, num_shards=2, warm=False)
    try:
        return _stage1_rows(
            eng, lambda q: deng.search(q, top_k=10, enable_coverage=False)
        )
    finally:
        deng.shutdown()


def _q_batch_search(sf_dir: str):
    """Offline query-log scoring as a Dataset transform (ops/batchsearch.
    py::batch_search): a stateful actor pool where each actor mmap-loads
    the index once and scores whole query batches — the throughput shape
    for relevance sweeps / hard-negative mining. Same stage-1 oracle as
    search_topk_bm25 (coverage off, float64 SQL-surface scores)."""
    import ray.data

    from infidex_ray.ops.batchsearch import batch_search

    eng = _engine_for(sf_dir)  # ensure the index exists on disk
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(sorted(STAGE1_PANEL), pa.string())})
    )
    out = batch_search(
        qds,
        eng.index_dir,
        top_k=10,
        enable_coverage=False,
        score_mode="float64_sql",
        concurrency=(1, 2),
    )
    return _by(out, "query", "rank")


def _q_batch_search_sharded(sf_dir: str):
    """Shard-parallel batch scoring (ops/batchsearch.py::
    batch_search_sharded): each actor holds only an index SHARD; the
    exact global stage-1 protocol (fuzzy-df round → decide_level round →
    phase-B round merged per query like the serving executor) runs as
    three streaming Dataset rounds. Same stage-1 panel oracle as
    search_topk_bm25."""
    import ray.data

    from infidex_ray.ops.batchsearch import batch_search_sharded

    eng = _engine_for(sf_dir)  # ensure the index exists on disk
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(sorted(STAGE1_PANEL), pa.string())})
    )
    out = batch_search_sharded(
        qds,
        eng.index_dir,
        n_shards=2,
        top_k=10,
        score_mode="float64_sql",
        concurrency=(1, 2),
    )
    return _by(out, "query", "rank")


_PERCOLATE_QUERIES = [
    (0, "hash join"),
    (1, "fast table scan"),
    (2, "window merge sort"),
    (3, "vector"),
    (4, "compression ratio"),  # absent vocab: matches nothing
]


def _q_snippet_extract(sf_dir: str):
    """Hit-highlighting snippets (ops/snippets.py): best 8-token window
    per matching doc for the BM25 panel query — max distinct-term count,
    tie to the earliest start; oracle replays the window scan with a
    generate_series window table + string_agg reassembly."""
    from infidex_ray.ops.snippets import snippet_extract

    return _by(
        snippet_extract(_read(sf_dir, "documents"), BM25_QUERY, window=8),
        "doc_id",
    )


def _snippet_oracle(query: str, window: int = 8) -> str:
    from infidex_ray.ops.asciiws import split_ascii_ws

    terms = sorted({t.lower() for t in split_ascii_ws(query)})
    values = ", ".join(f"({sqlgen.sql_quote(t)})" for t in terms)
    return f"""
WITH u0 AS (
  SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) AS tok,
         generate_subscripts(regexp_extract_all(coalesce(text, ''), '\\S+'), 1) AS i
  FROM documents),
nt AS (SELECT doc_id, count(*) AS ntok FROM u0 GROUP BY 1),
qt(term) AS (VALUES {values}),
w AS (
  SELECT n.doc_id, s.s, least(n.ntok, {window}) AS wd
  FROM nt n JOIN (SELECT unnest(generate_series(1,
       (SELECT max(ntok) FROM nt))) AS s) s
    ON s.s <= n.ntok - least(n.ntok, {window}) + 1),
sc AS (
  SELECT w.doc_id, w.s, w.wd, count(DISTINCT qt.term) AS score
  FROM w JOIN u0 ON u0.doc_id = w.doc_id
    AND u0.i >= w.s AND u0.i < w.s + w.wd
  JOIN qt ON lower(u0.tok) = qt.term
  GROUP BY 1, 2, 3),
b1 AS (
  SELECT doc_id, s, wd, score FROM (
    SELECT *, row_number() OVER (PARTITION BY doc_id
      ORDER BY score DESC, s) AS rn FROM sc) WHERE rn = 1)
SELECT b1.doc_id, b1.s AS start_token, b1.score AS n_terms_matched,
  string_agg(u0.tok, ' ' ORDER BY u0.i) AS snippet
FROM b1 JOIN u0 ON u0.doc_id = b1.doc_id
  AND u0.i >= b1.s AND u0.i < b1.s + b1.wd
GROUP BY 1, 2, 3 ORDER BY b1.doc_id
"""


def _q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth curve (ops/vocabcurve.py): distinct
    lowered tokens among docs with doc_id ≤ max_id·i//10 — the crawl-
    novelty diagnostic; oracle recomputes first-doc minima per token."""
    from infidex_ray.ops.vocabcurve import vocab_growth

    return _by(vocab_growth(_read(sf_dir, "documents"), steps=10), "step")


_VOCAB_GROWTH_ORACLE = (
    "WITH mx AS (SELECT max(doc_id) AS m FROM documents), "
    "th AS (SELECT i, (SELECT m FROM mx) * i // 10 AS bound "
    "FROM (SELECT unnest(generate_series(1, 10)) AS i)), "
    "first AS (SELECT tok, min(doc_id) AS fd FROM ("
    "SELECT DISTINCT doc_id, lower(tok) AS tok FROM ("
    "SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), "
    "'\\S+')) AS tok FROM documents)) GROUP BY tok) "
    "SELECT th.i AS step, th.bound AS max_doc_id, "
    "count(f.tok)::BIGINT AS vocab_size "
    "FROM th LEFT JOIN first f ON f.fd <= th.bound "
    "GROUP BY 1, 2 ORDER BY step"
)


_SUGGEST_PREFIXES = ["ha", "qu", "ta", "ve", "zz"]


def _q_prefix_suggest(sf_dir: str):
    """Type-ahead completion table (ops/suggest.py::prefix_suggest): top-5
    corpus-vocab completions per prefix by (df desc, word); oracle =
    starts_with join over the distinct-token vocab with row_number."""
    from infidex_ray.ops.suggest import prefix_suggest

    return _by(
        prefix_suggest(_read(sf_dir, "documents"), _SUGGEST_PREFIXES, top_k=5),
        "prefix",
        "rank",
    )


def _suggest_oracle(top_k: int = 5) -> str:
    values = ", ".join(
        f"({sqlgen.sql_quote(p)})" for p in sorted(set(_SUGGEST_PREFIXES))
    )
    return (
        "WITH toks AS (SELECT DISTINCT doc_id, lower(tok) AS tok FROM ("
        "SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), "
        "'\\S+')) AS tok FROM documents)), "
        "v AS (SELECT tok, count(*)::BIGINT AS df FROM toks GROUP BY tok), "
        f"p(prefix) AS (VALUES {values}), "
        "cand AS (SELECT p.prefix, v.tok AS suggestion, v.df, "
        "row_number() OVER (PARTITION BY p.prefix "
        "ORDER BY v.df DESC, v.tok) AS rank "
        "FROM p JOIN v ON starts_with(v.tok, p.prefix)) "
        f"SELECT prefix, rank, suggestion, df FROM cand WHERE rank <= {top_k} "
        "ORDER BY prefix, rank"
    )


_SPELL_QUERIES = ["windw merge", "qick hash", "compresion tble", "vector"]


def _q_spell_suggest(sf_dir: str):
    """Did-you-mean corrections (ops/fuzzy.py::spell_suggest): best
    corpus-vocab word within byte-Levenshtein ≤ 2 for each OOV query
    token, ties to max df then lexicographic; df = docs containing the
    token."""
    from infidex_ray.ops.fuzzy import spell_suggest

    return _by(
        spell_suggest(_read(sf_dir, "documents"), _SPELL_QUERIES, max_dist=2),
        "token",
    )


def _spell_oracle(max_dist: int = 2) -> str:
    from infidex_ray.ops.asciiws import split_ascii_ws

    tokens = sorted(
        {t.lower() for q in _SPELL_QUERIES for t in split_ascii_ws(q)}
    )
    values = ", ".join(f"({sqlgen.sql_quote(t)})" for t in tokens)
    return (
        "WITH toks AS (SELECT DISTINCT doc_id, lower(tok) AS tok FROM ("
        "SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), "
        "'\\S+')) AS tok FROM documents)), "
        "v AS (SELECT tok, count(*)::BIGINT AS df FROM toks GROUP BY tok), "
        f"q(token) AS (VALUES {values}), "
        "oov AS (SELECT token FROM q WHERE token NOT IN (SELECT tok FROM v)), "
        "cand AS (SELECT o.token, v.tok AS suggestion, "
        "levenshtein(o.token, v.tok)::BIGINT AS distance, v.df "
        f"FROM oov o JOIN v ON abs(strlen(v.tok) - strlen(o.token)) <= {max_dist} "
        f"WHERE levenshtein(o.token, v.tok) <= {max_dist}) "
        "SELECT token, suggestion, distance, df FROM ("
        "SELECT *, row_number() OVER (PARTITION BY token "
        "ORDER BY distance, df DESC, suggestion) AS rn FROM cand) "
        "WHERE rn = 1 ORDER BY token"
    )


def _q_percolate(sf_dir: str):
    """Reverse search / saved-query alerting (ops/percolate.py): every
    doc matched against a stored query list, conjunctive term
    containment; oracle = distinct-token join with per-query term-count
    equality."""
    from infidex_ray.ops.percolate import percolate

    return _by(
        percolate(_read(sf_dir, "documents"), _PERCOLATE_QUERIES),
        "query_id",
        "doc_id",
    )


def _percolate_oracle() -> str:
    from infidex_ray.ops.asciiws import split_ascii_ws

    rows = []
    for qid, text in _PERCOLATE_QUERIES:
        for t in sorted({w.lower() for w in split_ascii_ws(text)}):
            rows.append(f"({qid}, {sqlgen.sql_quote(t)})")
    values = ", ".join(rows)
    return (
        f"WITH qt(query_id, term) AS (VALUES {values}), "
        "dt AS (SELECT DISTINCT doc_id, lower(tok) AS tok FROM ("
        "SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), "
        "'\\S+')) AS tok FROM documents)), "
        "m AS (SELECT qt.query_id, dt.doc_id, count(DISTINCT qt.term) AS n "
        "FROM qt JOIN dt ON dt.tok = qt.term GROUP BY 1, 2), "
        "need AS (SELECT query_id, count(*) AS nt FROM qt GROUP BY 1) "
        "SELECT m.query_id, m.doc_id FROM m JOIN need USING (query_id) "
        "WHERE m.n = need.nt ORDER BY query_id, doc_id"
    )


def _q_cluster_sizes(sf_dir: str):
    """Near-dup cluster-size histogram (ops/dedup.py::
    cluster_size_histogram): minhash pairs → distributed min-label
    components → per-size cluster counts (size 1 = unpaired docs).
    Oracle = transitive closure + size histogram over the exact
    word-shingle Jaccard truth set."""
    from infidex_ray.ops.dedup import cluster_size_histogram

    return _by(
        cluster_size_histogram(_read(sf_dir, "documents"), threshold=0.5),
        "cluster_size",
    )


def _q_exact_dedup(sf_dir: str):
    from infidex_ray.ops.dedup import exact_dedup

    return _by(exact_dedup(_read(sf_dir, "documents")), "keep_id")


def _q_ngram_jaccard(sf_dir: str):
    from infidex_ray.ops.dedup import ngram_jaccard_pairs

    return _by(ngram_jaccard_pairs(_read(sf_dir, "documents"), threshold=0.5), "id_a", "id_b")


def _q_minhash(sf_dir: str):
    """MinHash+LSH candidates with in-group EXACT word-3-gram Jaccard
    verification — the exact column (and the ~1-1e-15 LSH recall at this
    corpus's j ≥ 0.9 duplicate pairs) makes the output equal to the SQL
    ground truth (sqlgen.minhash_pairs_sql). est_jaccard is dropped here:
    signature agreement is not SQL-recomputable."""
    from infidex_ray.ops.dedup import minhash_lsh_pairs

    out = minhash_lsh_pairs(_read(sf_dir, "documents"), threshold=0.5)

    def project(t: pa.Table) -> pa.Table:
        return t.select(["id_a", "id_b", "jaccard"])

    return _by(out.map_batches(project, batch_format="pyarrow"), "id_a", "id_b")


def _q_simhash(sf_dir: str):
    from infidex_ray.ops.dedup import simhash_dup_pairs

    return _by(simhash_dup_pairs(_read(sf_dir, "documents")), "id_a", "id_b")


def _q_emb_dup(sf_dir: str):
    from infidex_ray.ops.dedup import embedding_dup_pairs

    return _by(embedding_dup_pairs(_read(sf_dir, "embeddings"), threshold=0.4), "id_a", "id_b")


def _q_emb_dup_lsh(sf_dir: str):
    """Approximate near-dup pairs via hyperplane-LSH buckets with in-bucket
    exact verification (the 100-TB path; rows-only — candidates are a
    verified subset of the exact all-pairs result, asserted in tests)."""
    from infidex_ray.ops.dedup import embedding_dup_pairs_lsh

    return _by(
        embedding_dup_pairs_lsh(_read(sf_dir, "embeddings"), threshold=0.4),
        "id_a", "id_b",
    )


def _q_dedup_corpus(sf_dir: str):
    """Full dedup pipeline, fully distributed: minhash pairs (exact-verified)
    → label-propagation connected components over the pairs Dataset →
    anti-join filter — no driver-side pair table or drop set anywhere.
    Oracle: recursive-CTE transitive closure over the same exact-Jaccard
    pair ground truth (sqlgen.dedup_corpus_minhash_sql)."""
    from infidex_ray.ops.dedup import dedup_corpus_ds, minhash_lsh_pairs

    ds = _read(sf_dir, "documents")
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    kept = dedup_corpus_ds(ds, pairs)

    def project(t: pa.Table) -> pa.Table:
        return t.select(["doc_id"])

    return _by(kept.map_batches(project, batch_format="pyarrow"), "doc_id")


def _q_knn(sf_dir: str):
    from infidex_ray.ops.similarity import knn_cosine

    return knn_cosine(_read(sf_dir, "embeddings"), np.asarray([KNN_QUERY_VEC]), k=10)


def _q_knn_graph(sf_dir: str):
    """Exact cosine top-5 neighbor graph over every embedding (self
    excluded) — block-pair streaming tasks, Dataset-assembled result
    (ops/similarity.py::knn_graph)."""
    from infidex_ray.ops.similarity import knn_graph

    return _by(knn_graph(_read(sf_dir, "embeddings"), k=5), "vec_id", "rank")


def _q_knn_graph_lsh(sf_dir: str):
    """Approximate kNN graph via hyperplane LSH buckets: in-bucket exact
    top-k, cross-table dedup, per-vec merge — the near-linear scale path for
    knn_graph (ops/similarity.py::knn_graph_lsh). Oracle replays the seeded
    hyperplanes and ranks over all distinct co-bucketed candidates."""
    from infidex_ray.ops.similarity import knn_graph_lsh

    return _by(
        knn_graph_lsh(_read(sf_dir, "embeddings"), k=5, n_bits=6, n_tables=3),
        "vec_id",
        "rank",
    )


def _q_ivf_knn(sf_dir: str):
    """IVF ANN probing every list → exact (checked against the same SQL
    oracle as brute-force knn)."""
    from infidex_ray.ops.similarity import ivf_build, ivf_knn

    emb = _read(sf_dir, "embeddings")
    centroids, assigned = ivf_build(emb, n_centroids=8, iters=3)
    return ivf_knn(assigned, centroids, np.asarray([KNN_QUERY_VEC]), k=10, nprobe=8)


def _q_ivf_knn_pruned(sf_dir: str):
    """IVF with the partitioned-storage pruned read (list_id hive layout;
    probe-all → exact, same oracle as brute-force knn)."""
    import shutil
    import tempfile

    from infidex_ray.ops.similarity import ivf_build, ivf_knn_pruned, ivf_write

    emb = _read(sf_dir, "embeddings")
    centroids, assigned = ivf_build(emb, n_centroids=8, iters=3)
    path = tempfile.mkdtemp(prefix="infidex_ivf_", dir="/tmp")
    try:
        ivf_write(assigned, path)
        return ivf_knn_pruned(
            path, centroids, np.asarray([KNN_QUERY_VEC]), k=10, nprobe=8
        )
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _q_lsh_knn(sf_dir: str):
    from infidex_ray.ops.similarity import lsh_knn

    return lsh_knn(_read(sf_dir, "embeddings"), np.asarray([KNN_QUERY_VEC]), k=10)


def _q_token_stats(sf_dir: str):
    from infidex_ray.ops.textstats import token_stats_batch

    return _by(_read(sf_dir, "documents").map_batches(token_stats_batch, batch_format="pyarrow"), "doc_id")


def _q_token_count(sf_dir: str):
    from infidex_ray.ops.textstats import token_count_batch

    return _by(
        _read(sf_dir, "documents").map_batches(token_count_batch, batch_format="pyarrow"),
        "doc_id",
    )


def _q_gopher(sf_dir: str):
    from infidex_ray.ops.textstats import gopher_rules_batch

    return _by(
        _read(sf_dir, "documents").map_batches(gopher_rules_batch, batch_format="pyarrow"),
        "doc_id",
    )


def _q_boilerplate(sf_dir: str):
    from infidex_ray.ops.textstats import remove_boilerplate_lines

    return _by(remove_boilerplate_lines(_read(sf_dir, "documents"), min_docs=5), "doc_id")


def _q_quality(sf_dir: str):
    from infidex_ray.ops.textstats import quality_batch

    return _by(_read(sf_dir, "documents").map_batches(quality_batch, batch_format="pyarrow"), "doc_id")


def _q_langid(sf_dir: str):
    from infidex_ray.ops.textstats import langid_batch

    return _by(_read(sf_dir, "documents").map_batches(langid_batch, batch_format="pyarrow"), "doc_id")


def _q_fingerprint(sf_dir: str):
    from infidex_ray.ops.textstats import fingerprint_batch

    return _by(_read(sf_dir, "documents").map_batches(fingerprint_batch, batch_format="pyarrow"), "doc_id")


def _q_embedding_dedup_corpus(sf_dir: str):
    """Composition: exact embedding near-dup pairs → distributed
    label-propagation clustering → anti-join keep-min-representative; the
    oracle replays it with a recursive transitive closure over the same
    cosine pair set."""
    from infidex_ray.ops.dedup import dedup_corpus_ds, embedding_dup_pairs

    import ray.data

    ds = _read(sf_dir, "embeddings")
    pairs = embedding_dup_pairs(ds, threshold=0.4)
    if isinstance(pairs, pa.Table):  # the exact path returns a Table
        pairs = ray.data.from_arrow(pairs)
    kept = dedup_corpus_ds(
        ds.select_columns(["vec_id"]), pairs, id_col="vec_id"
    )
    return _by(kept, "vec_id")


def _q_dedup_corpus_exact(sf_dir: str):
    """Exact-dedup pipeline with a SQL oracle: byte-identical-text groups →
    (rep, dup) pairs → union-find → corpus keeping min-id per group."""
    from infidex_ray.ops.dedup import dedup_corpus, exact_dup_pairs

    ds = _read(sf_dir, "documents")
    pairs_batches = list(
        exact_dup_pairs(ds).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    pairs = (
        pa.concat_tables(pairs_batches)
        if pairs_batches
        else pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    )
    kept = dedup_corpus(ds, pairs)

    def project(t: pa.Table) -> pa.Table:
        return t.select(["doc_id"])

    return _by(kept.map_batches(project, batch_format="pyarrow"), "doc_id")


def _q_html_extract(sf_dir: str):
    """HTML → text extraction over a deterministic synthetic html column
    (the corpus ships text-only; html is wrapped around it in-pipeline so a
    DuckDB regexp oracle can verify the extracted output byte-for-byte)."""
    from infidex_ray.ops.html import extract_text

    def synth(batch: pa.Table) -> pa.Table:
        html = [
            (
                "<html><head><title>t</title><script>var x=1;</script></head>"
                f"<body><h1>Doc {i}</h1><p>{t or ''}</p><!-- c --></body></html>"
            ).encode("utf-8")
            for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist())
        ]
        return pa.table({"doc_id": batch["doc_id"], "html": pa.array(html, pa.binary())})

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    out = extract_text(ds)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "extracted": t["text"]})

    return _by(out.map_batches(project, batch_format="pyarrow"), "doc_id")


def _q_image_features(sf_dir: str):
    """Multimodal plumbing entry (rows-only): binary media column → actor-pool
    feature extraction (deterministic fake codec — see ops/multimodal.py)."""
    from infidex_ray.ops.multimodal import image_features

    def synth(batch: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())})

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    # fake=True pins the deterministic codec-free path for the contract;
    # the op itself auto-upgrades to PIL when importable (fake=None)
    return _by(image_features(ds, fake=True), "doc_id")


def _q_infiscript_filter(sf_dir: str):
    """Infiscript → Arrow-pushdown filter over the documents table."""
    from infidex_ray.filters import filter_dataset

    ds = filter_dataset(
        _read(sf_dir, "documents"),
        "lang IN ('en', 'de') AND n_chars BETWEEN 200 AND 1500",
    )

    def project(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "lang", "n_chars"])

    return _by(ds.map_batches(project, batch_format="pyarrow"), "doc_id")


def _q_infiscript_rowfilter(sf_dir: str):
    """Infiscript row-evaluated path (CONTAINS has no Arrow pushdown)."""
    from infidex_ray.filters import filter_dataset

    ds = filter_dataset(_read(sf_dir, "documents"), "text CONTAINS 'merge'")

    def project(t: pa.Table) -> pa.Table:
        return t.select(["doc_id"])

    return _by(ds.map_batches(project, batch_format="pyarrow"), "doc_id")


def _q_facets(sf_dir: str):
    """Facet counts over a filtered match-all (empty-query-with-facets path)."""
    from infidex_ray.engine import Query

    eng = _engine_for(sf_dir)
    res = eng.query(
        Query("", max_results=1 << 30, enable_facets=True, filter="lang != 'en'")
    )
    rows = sorted(
        (v, int(n)) for v, n in (res.facets or {}).get("lang", [])
    )
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def _q_facets_offline(sf_dir: str):
    """Corpus-scale facet path: streaming Ray groupby with the Query-API
    facet semantics (filter → value counts → top-100/field) — the documented
    alternative to match-all serving-time facets (which Engine.query now
    caps). Output re-sorted by value for the order-sensitive driver hash."""
    from infidex_ray.ops.facets import facet_counts_offline

    tbl = facet_counts_offline(
        _read(sf_dir, "documents"), ["lang"], filter_expr="lang != 'en'"
    )["lang"]
    order = sorted(range(tbl.num_rows), key=lambda i: tbl["value"][i].as_py())
    return pa.table(
        {
            "lang": pa.array([tbl["value"][i].as_py() for i in order], pa.string()),
            "n_docs": pa.array([tbl["n_docs"][i].as_py() for i in order], pa.int64()),
        }
    )


def _q_lang_dist(sf_dir: str):
    ds = _read(sf_dir, "documents").groupby("lang").count()

    def rename(t: pa.Table) -> pa.Table:
        c = "count()" if "count()" in t.column_names else "count"
        return pa.table({"lang": t["lang"], "n_docs": t[c]})

    return _by(ds.map_batches(rename, batch_format="pyarrow"), "lang")


def _q_sessionize(sf_dir: str):
    """Gap-based sessionization of the events stream (30-min inactivity
    split); one groupby(user) shuffle + vectorized in-group split."""
    from infidex_ray.ops.windows import sessionize

    return _by(sessionize(_read(sf_dir, "events")), "user_id", "session_id")


def _q_window_agg(sf_dir: str):
    """Tumbling 1-hour windows per event type, partial-aggregated inside
    map_batches (Arrow hash group-by) before the small global groupby."""
    from infidex_ray.ops.windows import tumbling_window

    return _by(
        tumbling_window(_read(sf_dir, "events")), "window_start_us", "event_type"
    )


def _q_hopping_window(sf_dir: str):
    """Hopping 1-hour windows at 15-min stride (k=4 overlap): the k-fold
    replication stays inside the per-batch combiner, global shuffle still
    |windows|×|types|-bounded."""
    from infidex_ray.ops.windows import hopping_window

    return _by(
        hopping_window(_read(sf_dir, "events"), width_s=3600.0, stride_s=900.0),
        "window_start_us",
        "event_type",
    )


def _q_sample_hash(sf_dir: str):
    """Deterministic md5-bucket 10% sample of documents — pure row-local
    filter, reproducible across reruns/cluster sizes; oracle recomputes the
    exact per-row keep decision via md5_number_lower."""
    from infidex_ray.ops.sampling import sample_hash

    return _by(sample_hash(_read(sf_dir, "documents"), 0.1), "doc_id")


def _q_sample_split(sf_dir: str):
    """Disjoint 80/10/10 train/val/test corpus split from non-overlapping
    md5-bucket rate windows — three row-local filters + union, no shuffle;
    the oracle re-decides every row's window."""
    from infidex_ray.ops.sampling import sample_split

    ds = _read(sf_dir, "documents").select_columns(["doc_id"])
    parts = []
    for label, lo, hi in (
        ("train", 0.0, 0.8),
        ("val", 0.8, 0.9),
        ("test", 0.9, 1.0),
    ):
        def tag(b: pa.Table, label=label) -> pa.Table:
            return b.append_column(
                "split", pa.array([label] * len(b), pa.string())
            )

        parts.append(
            sample_split(ds, lo, hi).map_batches(tag, batch_format="pyarrow")
        )
    out = parts[0].union(parts[1]).union(parts[2])
    return _by(out, "doc_id")


def _q_json_extract(sf_dir: str):
    """Typed top-level JSON field extraction from the events props payload
    (stateless map_batches; DuckDB ->> parity for top-level keys)."""
    from infidex_ray.ops.jsonx import json_extract

    out = json_extract(
        _read(sf_dir, "events").select_columns(["event_id", "props"]),
        "props",
        [("k", "k", pa.int64())],
    )
    return _by(out, "event_id")


def _q_stratified_sample(sf_dir: str):
    """Language-rebalanced corpus: keep 20% of en, 60% of zh, everything
    else at 100% — per-stratum md5-bucket decision, row-local, no shuffle;
    the oracle re-decides every row."""
    from infidex_ray.ops.sampling import stratified_sample

    out = stratified_sample(
        _read(sf_dir, "documents").select_columns(["doc_id", "lang"]),
        rates={"en": 0.2, "zh": 0.6},
        strata_col="lang",
        default_rate=1.0,
    )
    return _by(out, "doc_id")


def _q_temperature_mix(sf_dir: str):
    """Temperature-rebalanced corpus (alpha=0.5, the mBERT/XLM-R sampler):
    stratum keep-rate sqrt(n_min/n_lang) — strata-sized count pass + the
    row-local md5 filter; sqrt/division are IEEE-correctly-rounded so the
    oracle recomputes the exact ppm threshold per stratum."""
    from infidex_ray.ops.sampling import temperature_mix

    out = temperature_mix(
        _read(sf_dir, "documents").select_columns(["doc_id", "lang"]),
        strata_col="lang",
        alpha=0.5,
    )
    return _by(out, "doc_id")


def _q_weighted_sample(sf_dir: str):
    """Weighted without-replacement top-50 via replicated min-hash draws
    (integer-exact: no ln/pow, so no cross-engine libm risk). Weight =
    doc_id % 5 (w=0 rows can never win); per-block partial top-k means only
    k rows per block reach the final sort."""
    from infidex_ray.ops.sampling import weighted_sample

    def add_w(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column("w", pa.array(ids % 5, pa.int64()))

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(add_w, batch_format="pyarrow")
    )
    return _by(weighted_sample(ds, "w", k=50), "rank")


def _q_hashed_bow(sf_dir: str):
    """Feature-hashing vectorizer (Weinberger et al. 2009) in long format:
    bucket = md5_number_lower(token) % 64 — no vocabulary, no shuffle; the
    oracle recomputes every bucket and term frequency exactly."""
    from infidex_ray.ops.vectorize import hashed_bow

    out = hashed_bow(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"]), dim=64
    )
    return _by(out, "doc_id", "bucket")


def _q_domain_stats(sf_dir: str):
    """Per-domain doc counts + total chars over planted crawl URLs (the
    url_parse fixture): per-batch combiner → |domains|-row groupby."""
    from infidex_ray.ops.urls import domain_stats, url_parse

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        urls = [
            ("http" if d % 5 == 0 else "https")
            + f"://WWW.Site{d % 37}.example.com/p/{d}"
            for d in ids
        ]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "url": pa.array(urls, pa.string()),
            }
        )

    parsed = url_parse(
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "n_chars"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(domain_stats(parsed, size_col="n_chars"), "domain")


def _q_bigram_lm(sf_dir: str):
    """Jelinek-Mercer interpolated bigram perplexity (lam=0.75, pruned
    256-token unigram + 512-pair bigram tables): two combiner-partial count
    passes + one broadcast model, corpus streams (ops/lm.py::bigram_logprob).
    Small prune sizes exercise the pruned-miss and OOV paths."""
    from infidex_ray.ops.lm import bigram_logprob

    return _by(
        bigram_logprob(
            _read(sf_dir, "documents"), vocab_size=256, bigram_size=512
        ),
        "doc_id",
    )


def _q_unigram_lm(sf_dir: str):
    """CCNet-style unigram-LM quality score (avg negative log-likelihood,
    pruned 256-token model, OOV floor 1/total): two-pass train (vocab-sized
    combiner groupby) + broadcast-model streaming score — no corpus-side
    shuffle. vocab_size=256 exercises the pruning + OOV path."""
    from infidex_ray.ops.lm import unigram_logprob

    return _by(
        unigram_logprob(_read(sf_dir, "documents"), vocab_size=256), "doc_id"
    )


def _links_ds(sf_dir: str):
    """Planted-outlink fixture: doc d carries d % 4 anchors targeting docs
    (d*7 + j*13) % 500 on the site{t % 37} domains, wrapped in real HTML —
    the op extracts them back out of the markup, the oracle generates the
    same URLs arithmetically (a mismatch anywhere in the extraction path
    breaks the hash)."""
    from infidex_ray.ops.html import extract_links

    def synth(batch: pa.Table) -> pa.Table:
        htmls = []
        for d in batch["doc_id"].to_pylist():
            anchors = "".join(
                f'<a href="https://site{((d * 7 + j * 13) % 500) % 37}'
                f'.example.com/p/{(d * 7 + j * 13) % 500}">l{j}</a>'
                for j in range(1, d % 4 + 1)
            )
            htmls.append(
                f"<html><body><p>doc {d}</p>{anchors}</body></html>".encode()
            )
        return pa.table(
            {"doc_id": batch["doc_id"], "html": pa.array(htmls, pa.binary())}
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
    )
    return extract_links(ds)


def _anchors_ds(sf_dir: str):
    """Planted-anchor fixture (same arithmetic targets as :func:`_links_ds`
    plus a visible anchor token ``t{(d+j)%7}``): the op re-extracts
    (doc_id, href, anchor) occurrences out of real markup; the oracle
    regenerates them arithmetically — any defect in the four-cut extraction
    chain (tag-boundary guard, quote handling, nested-markup rejection)
    breaks the hash."""
    from infidex_ray.ops.html import extract_anchors

    def synth(batch: pa.Table) -> pa.Table:
        htmls = []
        for d in batch["doc_id"].to_pylist():
            anchors = "".join(
                f'<a href="https://site{((d * 7 + j * 13) % 500) % 37}'
                f'.example.com/p/{(d * 7 + j * 13) % 500}">t{(d + j) % 7}</a>'
                for j in range(1, d % 4 + 1)
            )
            htmls.append(
                f"<html><body><p>doc {d}</p>{anchors}</body></html>".encode()
            )
        return pa.table(
            {"doc_id": batch["doc_id"], "html": pa.array(htmls, pa.binary())}
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
    )
    return extract_anchors(ds)


def _q_anchor_text(sf_dir: str):
    return _by(_anchors_ds(sf_dir), "doc_id", "href")


def _q_anchor_stats(sf_dir: str):
    """Per-target-domain anchor rollup (n_links / distinct anchors / modal
    anchor with lexicographic tie-break) — (domain,anchor) count partials,
    one domain shuffle, vectorized in-group reduce."""
    from infidex_ray.ops.html import anchor_stats

    return _by(anchor_stats(_anchors_ds(sf_dir)), "domain")


def _q_html_links(sf_dir: str):
    return _by(_links_ds(sf_dir), "doc_id", "href")


def _q_link_in_degrees(sf_dir: str):
    """In-degree per link target over the distinct edge list — value_counts
    partials then one target-keyed groupby (word-count combiner shape)."""
    from infidex_ray.ops.html import link_in_degrees

    return _by(link_in_degrees(_links_ds(sf_dir)), "href")


def _q_dsir_logweights(sf_dir: str):
    """DSIR importance resampling weights (Xie et al. 2023): hashed
    unigram+bigram bucket LMs for target (doc_id % 10 == 0 split) vs the
    raw table, per-doc log-ratio sum (ops/dsir.py). Two streaming count
    passes + one ray.put log-ratio broadcast — no vocabulary shuffle."""
    import pyarrow.compute as pc

    from infidex_ray.ops.dsir import dsir_logweights

    docs = _read(sf_dir, "documents")

    def is_target(b: pa.Table) -> pa.Table:
        r = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 10), 10))
        return b.filter(pc.equal(r, 0))

    target = docs.map_batches(is_target, batch_format="pyarrow")
    return _by(dsir_logweights(docs, target), "doc_id")


def _q_dedup_against_bloom(sf_dir: str):
    """Space-bounded incremental dedup: Bloom filter of the reference texts
    (doc_id % 7 == 0 split; n_bits/8 bytes total, any reference size),
    corpus streams through an all-k-positions-set test. Deterministic false
    positives — the oracle replays the identical filter
    (ops/dedup.py::dedup_against_bloom)."""
    import pyarrow.compute as pc

    from infidex_ray.ops.dedup import dedup_against_bloom

    def is_ref(b: pa.Table) -> pa.Table:
        r = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 7), 7))
        return b.filter(pc.equal(r, 0))

    docs = _read(sf_dir, "documents")
    ref = _read(sf_dir, "documents").map_batches(is_ref, batch_format="pyarrow")
    # deliberately small filter: the hash check then covers the FALSE
    # POSITIVE semantics (md5 double-hash parity), not just exact dedup
    out = dedup_against_bloom(docs, ref, n_bits=1024, k_hashes=3)
    return _by(
        out.map_batches(
            lambda t: t.select(["doc_id", "n_chars"]), batch_format="pyarrow"
        ),
        "doc_id",
    )


_CMS_KEYS = ["view", "click", "purchase", "signup", "error", "absent-key"]


def _q_cms_counts(sf_dir: str):
    """Count-min frequency estimates for the event types (plus one absent
    key) at a deliberately narrow width so hash collisions occur — the
    estimate replay, collisions included, is what the oracle checks
    (ops/sketches.py::cms_counts)."""
    from infidex_ray.ops.sketches import cms_counts

    return cms_counts(
        _read(sf_dir, "events"), "event_type", _CMS_KEYS, width=64, depth=3
    )


def _q_funnel(sf_dir: str):
    """Ordered view→click→purchase funnel over high-value events (value >
    100 keeps the stage distribution non-degenerate): per user the deepest
    step reached with strictly increasing timestamps. One hash-slice
    shuffle, whole-slice vectorized (ops/windows.py::funnel)."""
    import pyarrow.compute as pc

    from infidex_ray.ops.windows import funnel

    ev = _read(sf_dir, "events").map_batches(
        lambda t: t.filter(pc.greater(t["value"], 100)), batch_format="pyarrow"
    )
    return _by(funnel(ev, ["view", "click", "purchase"]), "user_id")


def _q_retention(sf_dir: str):
    """Daily cohort retention triangle over the events table: cohort =
    user's first active day, n_users active again k days later. One
    md5-slice shuffle + vectorized in-slice firsts/offsets + a tiny
    (cohort, offset) groupby (ops/windows.py::retention)."""
    from infidex_ray.ops.windows import retention

    return _by(
        retention(_read(sf_dir, "events"), period_s=86400.0),
        "cohort",
        "period_offset",
    )


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog cardinality of documents.text (2^12 registers): per-batch
    register partials → fixed-key groupby max → driver estimate. The sketch
    is a deterministic function of the md5 hashes, so the oracle replays the
    ESTIMATE bit-for-bit (ops/sketches.py)."""
    from infidex_ray.ops.sketches import approx_distinct

    return approx_distinct(_read(sf_dir, "documents"), "text")


def _q_approx_distinct_by(sf_dir: str):
    """Per-group HLL: distinct users per event type; partials move <= 2^p
    rows per (group, block), never the values (ops/sketches.py)."""
    from infidex_ray.ops.sketches import approx_distinct_by

    return _by(
        approx_distinct_by(_read(sf_dir, "events"), "event_type", "user_id"),
        "event_type",
    )


def _q_dedup_against(sf_dir: str):
    """Incremental-crawl exact dedup: drop docs whose text already exists in
    the reference shard (doc_id % 7 == 0 split of the same table). Broadcast
    path: reference collapses to distinct 128-bit digests (partials in-task),
    corpus streams through a searchsorted membership filter — no shuffle."""
    from infidex_ray.ops.dedup import dedup_against

    import pyarrow.compute as pc

    def is_ref(b: pa.Table) -> pa.Table:
        r = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 7), 7))
        return b.filter(pc.equal(r, 0))

    docs = _read(sf_dir, "documents")
    ref = _read(sf_dir, "documents").map_batches(is_ref, batch_format="pyarrow")
    out = dedup_against(docs, ref)
    return _by(
        out.map_batches(
            lambda t: t.select(["doc_id", "n_chars"]), batch_format="pyarrow"
        ),
        "doc_id",
    )


def _q_pagerank(sf_dir: str):
    """3-iteration PageRank over the planted doc→doc edge list (same
    arithmetic fixture as html_links but on integer ids): rank state stays a
    materialized Dataset, each iteration is join + groupby — driver sees
    only N. Oracle = the iteration unrolled as chained CTEs."""
    from infidex_ray.ops.graph import pagerank

    def synth(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for d in batch["doc_id"].to_pylist():
            for j in range(1, d % 4 + 1):
                src.append(d)
                dst.append((d * 7 + j * 13) % 500)
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    edges = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
    )
    return _by(pagerank(edges, num_iters=3), "node")


def _q_connected_components(sf_dir: str):
    """Connected components over the same synthetic edge fixture as
    pagerank (ops/graph.py::connected_components — size-gated: driver
    union-find small, label propagation at scale). Oracle = recursive
    transitive closure, component = least(node, min reachable)."""
    from infidex_ray.ops.graph import connected_components

    def synth(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for d in batch["doc_id"].to_pylist():
            for j in range(1, d % 4 + 1):
                src.append(d)
                dst.append((d * 7 + j * 13) % 500)
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    edges = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
    )
    return _by(connected_components(edges), "node")


def _q_tfidf_keywords(sf_dir: str):
    """Top-5 TF-IDF keywords per doc: vocab-sized df table broadcast once,
    per-doc tf + top-k selection in-batch — corpus side never shuffles."""
    from infidex_ray.ops.vectorize import tfidf_keywords

    return _by(tfidf_keywords(_read(sf_dir, "documents"), k=5), "doc_id", "rank")


def _q_mix_corpora(sf_dir: str):
    """Deterministic pretraining mixture: 30% 'web' + 10% 'books' draws of
    the documents table under independent per-source hash salts, tagged and
    unioned — pure map_batches + union, rerun-stable with zero coordination."""
    from infidex_ray.ops.sampling import mix_corpora

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"])
    out = mix_corpora([("web", docs, 0.3), ("books", docs, 0.1)])
    return _by(out, "mix_source", "doc_id")


def _q_ngram_containment(sf_dir: str):
    """Subset-duplication pairs (|A∩B|/min sizes ≥ 0.6): the quote/mirror
    detector Jaccard misses when the container is long; rare-shingle
    candidates + exact in-join verification, zero driver state."""
    from infidex_ray.ops.dedup import ngram_containment_pairs

    return _by(
        ngram_containment_pairs(_read(sf_dir, "documents"), threshold=0.6),
        "id_a",
        "id_b",
    )


def _q_profile_columns(sf_dir: str):
    """Pre-training data-quality profile: per column, exact row/null/distinct
    counts — combiner partials plus one per-block-unique distinct shuffle."""
    from infidex_ray.ops.profile import profile_columns

    return profile_columns(
        _read(sf_dir, "documents"), ["doc_id", "lang", "source", "n_chars"]
    )


def _q_frame_sample(sf_dir: str):
    """Video frame-sampling plumbing (actor pool, one row per sampled
    frame): media planted as the utf-8 text bytes; the deterministic
    arithmetic fake (n_frames = n_bytes % 97 + 1 at 30 fps) makes the
    explode SQL-checkable end-to-end."""
    from infidex_ray.ops.multimodal import frame_sample

    def plant(b: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in b["text"].to_pylist()]
        return pa.table(
            {"doc_id": b["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(frame_sample(ds, stride=30, fake=True), "doc_id", "frame_idx")


def _q_audio_features(sf_dir: str):
    """Audio framing plumbing (actor pool): media = utf-8 text bytes; the
    16 kHz 8-bit arithmetic fake (25 ms windows / 10 ms hop) keeps the
    stage SQL-checkable."""
    from infidex_ray.ops.multimodal import audio_features

    def plant(b: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in b["text"].to_pylist()]
        return pa.table(
            {"doc_id": b["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(audio_features(ds, fake=True), "doc_id")


def _q_canonical_url(sf_dir: str):
    """URL canonicalization ahead of URL-level dedup: planted tracked/cased/
    fragmented URL variants normalized by one RE2 map_batches chain that the
    oracle mirrors as a regexp_replace chain (both RE2, single pass each)."""
    from infidex_ray.ops.urls import canonical_url

    def plant(b: pa.Table) -> pa.Table:
        urls = []
        for d in b["doc_id"].to_pylist():
            u = f"HTTPS://WWW.Site{d % 37}.example.com/P/{d}"
            if d % 3 == 0:
                u += f"/?utm_source=s{d % 5}&a={d}"
            if d % 4 == 0:
                u += f"#frag{d}"
            urls.append(u)
        return pa.table({"doc_id": b["doc_id"], "url": pa.array(urls, pa.string())})

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(canonical_url(ds), "doc_id")


def _q_phrase_scan(sf_dir: str):
    """Blocklist phrase scan (safety/compliance filter): phrase tuple
    broadcast once via ray.put, one vectorized Arrow match_substring pass
    per phrase per batch — corpus streams, no shuffle."""
    from infidex_ray.ops.phrases import phrase_scan

    return _by(
        phrase_scan(
            _read(sf_dir, "documents"),
            ["fast table", "slow window", "spark a", "no-such-phrase-xyzzy"],
        ),
        "doc_id",
    )


def _q_value_histogram(sf_dir: str):
    """Fixed-width histogram of the events value stream: per-batch bincount
    partials (≤ n_bins rows per block) → n_bins-key groupby; bin rule is
    float64 floor((x−lo)/width), bit-identical to the SQL expression."""
    from infidex_ray.ops.histogram import numeric_histogram

    out = numeric_histogram(
        _read(sf_dir, "events").select_columns(["value"]),
        col="value", lo=0.0, hi=500.0, n_bins=16,
    )
    return _by(out, "bin")


def _q_heavy_hitters(sf_dir: str):
    """Top-100 corpus tokens via per-batch Arrow value_counts partials +
    vocabulary-sized groupby. Result re-sorted driver-side to the oracle's
    (n DESC, token) order for the order-sensitive hash."""
    from infidex_ray.ops.textstats import heavy_hitters

    tbl = pa.Table.from_pandas(
        heavy_hitters(_read(sf_dir, "documents"), k=100).to_pandas(),
        preserve_index=False,
    )
    return tbl.sort_by([("n", "descending"), ("token", "ascending")])


def _q_top_k_per_group(sf_dir: str):
    """Best-3 docs per language by length — the per-domain quality-selection
    pattern; per-block partial top-k bounds the shuffle to k rows per group
    per block."""
    from infidex_ray.ops.sampling import top_k_per_group

    return _by(
        top_k_per_group(
            _read(sf_dir, "documents"), "lang", "n_chars", "doc_id", k=3
        ),
        "lang",
        "rank",
    )


def _q_group_quantiles(sf_dir: str):
    """Per-language length quantiles (the thresholds a quality filter cuts
    against) — one (lang, n_chars) groupby shuffle, exact np.quantile
    in-group; 'linear' interpolation == DuckDB quantile_cont."""
    from infidex_ray.ops.textstats import group_quantiles

    return _by(group_quantiles(_read(sf_dir, "documents"), "lang", "n_chars"), "lang")


def _mod97_split(keep_bench: bool):
    """Vectorized doc_id % 97 split (Ray's filter(expr=) has no modulo):
    bench = multiples of 97, corpus = the rest. doc_id >= 0 so truncating
    integer divide is a true mod."""
    import pyarrow.compute as pc

    def f(b: pa.Table) -> pa.Table:
        r = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 97), 97))
        return b.filter(pc.equal(r, 0) if keep_bench else pc.not_equal(r, 0))

    return f


def _q_decontaminate(sf_dir: str):
    """Test-set decontamination: corpus docs (doc_id % 97 != 0) checked for
    word-3-gram overlap with the benchmark split (doc_id % 97 == 0) — hash
    set broadcast once via ray.put, corpus streams through a vectorized
    membership map_batches. Real pipelines use 8-13-grams; the synthetic
    corpus needs n=3 for overlap signal."""
    from infidex_ray.ops.decontam import decontaminate

    ds = _read(sf_dir, "documents")
    bench = ds.map_batches(_mod97_split(True), batch_format="pyarrow")
    corpus = ds.map_batches(_mod97_split(False), batch_format="pyarrow")
    return _by(decontaminate(corpus, bench, n=3), "doc_id")


def _q_duplicate_spans(sf_dir: str):
    """Exact duplicate-span (substring) stats: per doc, the count/fraction of
    word-5-gram positions whose gram also occurs in other documents — the
    bounded form of suffix-array substring dedup (Lee et al. 2021). Emission
    rows are per-(doc, gram-hash) with multiplicity; duplicated grams come
    from a gram-keyed groupby; everything joins back distributed
    (ops/spans.py)."""
    from infidex_ray.ops.spans import duplicate_spans

    return _by(duplicate_spans(_read(sf_dir, "documents"), n=5), "doc_id")


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table (k=4, 3
    iterations): per-iteration partial-sum map_batches (≤ k rows per block
    collected), ray.put centroid broadcast, streaming final labeling —
    the whole-corpus counterpart of ivf_build's sampled training
    (ops/clustering.py)."""
    from infidex_ray.ops.clustering import kmeans

    _, labeled = kmeans(_read(sf_dir, "embeddings"), k=4, iters=3)
    return _by(labeled, "vec_id")


def _q_embedding_outliers(sf_dir: str):
    """Per-cluster farthest-5 embedding outliers (curation probe for
    off-distribution vectors): kmeans labeling + per-block partial top-k —
    both stages stream; ranking uses the rounded dist2 on BOTH sides so
    the cut line cannot diverge on float ordering."""
    from infidex_ray.ops.clustering import embedding_outliers

    return _by(
        embedding_outliers(_read(sf_dir, "embeddings"), k=4, iters=3, top_n=5),
        "cluster",
        "rank",
    )


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup composition: k-means bucket the embedding space, mine
    near-dup pairs within clusters only, connected-components + anti-join
    keep-min-representative (ops/clustering.py::semantic_dedup). The oracle
    replays the same unrolled k-means assignment and restricts the pair
    closure to same-cluster edges."""
    from infidex_ray.ops.clustering import semantic_dedup

    return _by(
        semantic_dedup(_read(sf_dir, "embeddings"), k=4, iters=2, threshold=0.4),
        "vec_id",
    )


def _q_quantize_embeddings(sf_dir: str):
    """int8 symmetric scalar quantization of the embeddings table, long
    format (vec_id, i, q, scale) — one matrix op per batch, no shuffle
    (ops/vectorize.py::quantize_embeddings)."""
    from infidex_ray.ops.vectorize import quantize_embeddings

    return _by(quantize_embeddings(_read(sf_dir, "embeddings")), "vec_id", "i")


def _q_dedup_against_minhash(sf_dir: str):
    """Fuzzy cross-corpus decontamination: reference = every 10th doc (so
    each flags itself at Jaccard 1.0 and its planted near-dup partners at
    0.9x); only cross-corpus band-bucket pairs are mined, verified with the
    exact word-shingle Jaccard (ops/dedup.py::dedup_against_minhash)."""
    import pyarrow.compute as pc

    from infidex_ray.ops.dedup import dedup_against_minhash

    ds = _read(sf_dir, "documents")

    def ref_only(b: pa.Table) -> pa.Table:
        r = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 10), 10))
        return b.filter(pc.equal(r, 0))

    ref = ds.map_batches(ref_only, batch_format="pyarrow")
    return _by(dedup_against_minhash(ds, ref, threshold=0.5), "doc_id")


def _q_script_profile(sf_dir: str):
    """Script/char-class profile over text with deterministically planted
    Cyrillic / Han / digit suffixes (every 3rd doc) — Arrow RE2
    count_substring_regex end-to-end, so the DuckDB oracle (also RE2) is
    engine-identical."""
    from infidex_ray.ops.textstats import script_profile

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        texts = b["text"].to_pylist()
        out = []
        for i, t in zip(ids, texts):
            t = t or ""
            if i % 3 == 0:
                t = t + " Привет мир 42"
            elif i % 3 == 1:
                t = t + " 你好世界"
            out.append(t)
        return pa.table({"doc_id": b["doc_id"], "text": pa.array(out)})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(script_profile(ds), "doc_id")


def _q_split_sentences(sf_dir: str):
    """Sentence explosion over text with periods planted after every 7th
    word by an RE2 GlobalReplace — the SAME rewrite runs in Arrow
    (replace_substring_regex) and DuckDB (regexp_replace 'g'), so the
    augmented corpora are byte-identical before the split even runs."""
    import pyarrow.compute as pc

    from infidex_ray.ops.chunking import split_sentences

    def plant(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(b["text"], pa.string()), "")
        aug = pc.replace_substring_regex(
            texts, pattern=r"((\S+ ){6}\S+) ", replacement=r"\1. "
        )
        return pa.table({"doc_id": b["doc_id"], "text": aug})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(split_sentences(ds), "doc_id", "sent_idx")


def _q_pii_redact(sf_dir: str):
    """PII scrub over text with deterministically planted emails/IPs/phones
    (every 3rd doc) — Arrow RE2 kernels end-to-end, so the DuckDB oracle
    (also RE2) is engine-identical, not just pattern-identical."""
    from infidex_ray.ops.pii import pii_redact

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        texts = b["text"].to_pylist()
        out = [
            (t or "")
            + (
                f" contact user{d}@example.com or +1 555-000-{d % 10000}"
                f" at 10.0.{d % 256}.{d % 100}"
                if d % 3 == 0
                else ""
            )
            for d, t in zip(ids, texts)
        ]
        return pa.table({"doc_id": b["doc_id"], "text": pa.array(out, pa.string())})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(pii_redact(ds), "doc_id")


def _q_url_parse(sf_dir: str):
    """URL split + domain normalization over deterministically planted
    crawl-style URLs — Arrow RE2 extract_regex end-to-end (engine-identical
    to the DuckDB regexp_extract oracle)."""
    from infidex_ray.ops.urls import url_parse

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        urls = [
            ("http" if d % 5 == 0 else "https")
            + f"://WWW.Site{d % 37}.example.com/p/{d}"
            + (f"?q={d % 7}&utm=x" if d % 3 == 0 else "")
            for d in ids
        ]
        return pa.table({"doc_id": b["doc_id"], "url": pa.array(urls, pa.string())})

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(url_parse(ds), "doc_id")


def _q_pack_sequences(sf_dir: str):
    """Greedy sequence packing of the 32/24 chunk stream into ≤128-token
    bins, hash-bucketed 8 ways (bins never cross buckets — the documented
    partitioning unit); oracle replays the greedy recurrence with a
    recursive CTE advancing all buckets in lock-step."""
    from infidex_ray.ops.chunking import chunk_text
    from infidex_ray.ops.packing import pack_sequences

    chunks = chunk_text(
        _read(sf_dir, "documents"), chunk_words=32, stride=24
    ).select_columns(["doc_id", "chunk_id", "n_tokens"])
    out = pack_sequences(
        chunks,
        token_col="n_tokens",
        id_col="doc_id",
        order_cols=["doc_id", "chunk_id"],
        capacity=128,
        num_buckets=8,
    ).select_columns(["doc_id", "chunk_id", "bucket", "bin"])
    return _by(out, "doc_id", "chunk_id")


def _q_repetition_signals(sf_dir: str):
    """Gopher within-doc repetition rules: duplicate-line fractions + top
    word-2-gram character fraction — stateless map_batches, no shuffle."""
    from infidex_ray.ops.textstats import repetition_signals

    return _by(repetition_signals(_read(sf_dir, "documents")), "doc_id")


def _q_chunk_text(sf_dir: str):
    """Fixed-window training-sample chunking: 32-word windows every 24 words
    (8-word overlap) — stateless row-local expansion, no shuffle."""
    from infidex_ray.ops.chunking import chunk_text

    return _by(
        chunk_text(_read(sf_dir, "documents"), chunk_words=32, stride=24),
        "doc_id",
        "chunk_id",
    )


def _q_asof_join(sf_dir: str):
    """Each event matched to the user's latest order at or before the event
    time — the as-of join Ray Data lacks, via schema-aligned union + one
    hash shuffle + vectorized searchsorted in map_groups (deterministic
    tie-break on o_orderkey; the oracle reproduces it with a row_number
    window since DuckDB's native ASOF leaves ties unspecified)."""
    from infidex_ray.ops.joins import asof_join

    out = asof_join(
        _read(sf_dir, "events"),
        _read(sf_dir, "orders"),
        on="user_id",
        right_on="o_custkey",
        left_ts="ts",
        right_ts="o_orderdate",
        right_tie="o_orderkey",
        left_cols=["event_id"],
        right_cols=["o_orderkey", "o_totalprice"],
    )
    return _by(out, "event_id")


def _q_range_join(sf_dir: str):
    """Interval containment join (event value in derived part price
    windows) via fixed-width bucket co-partitioning — intervals replicate
    to covered buckets, rows route to one bucket, exact BETWEEN in-group."""
    from infidex_ray.ops.joins import range_join
    import pyarrow.compute as pc

    def mk(b: pa.Table) -> pa.Table:
        lo = pc.multiply(b["p_partkey"].cast(pa.float64()), 2.0)
        return pa.table(
            {"p_partkey": b["p_partkey"], "lo": lo, "hi": pc.add(lo, 3.0)}
        )

    ranges = (
        _read(sf_dir, "part")
        .filter(expr="p_partkey < 200")
        .map_batches(mk, batch_format="pyarrow")
    )
    out = range_join(
        _read(sf_dir, "events"),
        ranges,
        value_col="value",
        lo_col="lo",
        hi_col="hi",
        bucket_width=10.0,
        left_cols=["event_id"],
        right_cols=["p_partkey"],
    )
    return _by(out, "event_id", "p_partkey")


def _q_dedup_lines(sf_dir: str):
    """C4-style global line dedup (first occurrence wins): line-hash min
    groupby + loser shuffle + one doc-keyed rebuild join — corpus streams.
    A boilerplate footer is planted on every 3rd doc (identically in the
    SQL oracle) so the winner/loser/rebuild path is actually exercised —
    the synthetic corpus has no natural duplicate lines."""
    import pyarrow as pa

    from infidex_ray.ops.dedup import dedup_lines

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (t or "") + "\nShared footer boilerplate" if i % 3 == 0 else (t or "")
            for i, t in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(out, pa.large_string()),
            }
        )

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return _by(dedup_lines(ds), "doc_id")


def _q_char_entropy(sf_dir: str):
    """Per-doc Shannon character entropy (gibberish / binary-spill gate) —
    stateless map_batches; numpy and DuckDB ln agree bit-for-bit."""
    from infidex_ray.ops.textstats import char_entropy

    return _by(char_entropy(_read(sf_dir, "documents")), "doc_id")


def _q_collocations(sf_dir: str):
    """Corpus PMI collocations: bigram-count combiner partials → one (w1,w2)
    groupby → vocab-sized marginal joins → top-50 by rounded PMI."""
    from infidex_ray.ops.textstats import collocations

    return collocations(_read(sf_dir, "documents"), min_count=5, top_k=50)


def _q_event_order(sf_dir: str):
    """Per-user event rank + gap-to-previous (all-integer window op): one
    user-key shuffle, vectorized in-group lexsort."""
    from infidex_ray.ops.windows import event_order

    return _by(event_order(_read(sf_dir, "events")), "user_id", "rank")


def _q_readability(sf_dir: str):
    """Flesch reading-ease / FK grade over text with periods planted by the
    SAME RE2 GlobalReplace as split_sentences — word/sentence/vowel-group
    counts are Arrow RE2 count kernels, engine-identical to the oracle's
    regexp_extract_all lengths."""
    import pyarrow.compute as pc

    from infidex_ray.ops.textstats import readability

    def plant(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(b["text"], pa.string()), "")
        aug = pc.replace_substring_regex(
            texts, pattern=r"((\S+ ){6}\S+) ", replacement=r"\1. "
        )
        return pa.table({"doc_id": b["doc_id"], "text": aug})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(readability(ds), "doc_id")


def _q_keep_latest(sf_dir: str):
    """Per-user latest-event snapshot (CDC compaction): per-block partial
    latest + coarse key-slice groupby; ties broken by event_id."""
    from infidex_ray.ops.windows import keep_latest

    return _by(keep_latest(_read(sf_dir, "events")), "user_id")


def _q_corpus_overlap(sf_dir: str):
    """Inter-source word-3-gram shingle overlap matrix (train/test-overlap
    audit): per-batch distinct (source, shingle) reduction, hash-slice
    groupby, O(sources²) counter rows to the driver."""
    from infidex_ray.ops.dedup import corpus_overlap

    return corpus_overlap(_read(sf_dir, "documents"))


def _q_linear_score(sf_dir: str):
    """fastText-style linear quality-model scoring: ray.put-broadcast weight
    vector, hashed-unigram mean + sigmoid, stateless map_batches."""
    from infidex_ray.ops.vectorize import linear_score

    return _by(linear_score(_read(sf_dir, "documents"), dim=64, seed=7), "doc_id")


def _q_snapshot_diff(sf_dir: str):
    """Recrawl snapshot diff: old = docs sans doc_id%11==3, new = docs sans
    doc_id%7==0 with ' v2' appended when doc_id%5==0 — added/removed/changed
    detected from digest rows via a coarse key-slice groupby."""
    import pyarrow.compute as pc

    from infidex_ray.ops.dedup import snapshot_diff

    import numpy as np

    def mk_old(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % 11 != 3))
        return pa.table(
            {"doc_id": b["doc_id"], "text": pc.fill_null(pc.cast(b["text"], pa.string()), "")}
        )

    def mk_new(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % 7 != 0))
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        t = pc.fill_null(pc.cast(b["text"], pa.string()), "")
        bump = pa.array(ids % 5 == 0)
        t = pc.if_else(bump, pc.binary_join_element_wise(t, " v2", ""), t)
        return pa.table({"doc_id": b["doc_id"], "text": t})

    old = _read(sf_dir, "documents").map_batches(mk_old, batch_format="pyarrow")
    new = _read(sf_dir, "documents").map_batches(mk_new, batch_format="pyarrow")
    return _by(snapshot_diff(old, new), "doc_id")


def _q_margin_mine(sf_dir: str):
    """Artetxe–Schwenk ratio-margin mining between the even- and odd-label
    halves of the embeddings table: block-pair streamed forward/reverse
    top-k, reverse averages broadcast once."""
    import pyarrow.compute as pc

    from infidex_ray.ops.similarity import margin_mine

    emb = _read(sf_dir, "embeddings")

    def side(parity: int):
        def fn(b: pa.Table) -> pa.Table:
            import numpy as np

            lab = b["label"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(lab % 2 == parity)).select(
                ["vec_id", "embedding"]
            )

        return fn

    src = emb.map_batches(side(0), batch_format="pyarrow")
    tgt = emb.map_batches(side(1), batch_format="pyarrow")
    return _by(margin_mine(src, tgt, k=4), "src_id")


def _q_budget_select(sf_dir: str):
    """Token-budget selection: md5-derived integer score, n_chars cost,
    budget = floor(10% of total corpus chars) — one global sort + a
    distributed prefix-sum cut."""
    import numpy as np

    from infidex_ray.ops.dedup import _md5_u64
    from infidex_ray.ops.sampling import budget_select

    ds = _read(sf_dir, "documents")
    total = ds.sum("n_chars")
    budget = int(np.floor(0.1 * total))

    def add_score(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        sc = [_md5_u64(f"bsel:{d}") % 100000 for d in ids]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "score": pa.array(sc, pa.int64()),
                "n_chars": b["n_chars"],
            }
        )

    scored = ds.map_batches(add_score, batch_format="pyarrow")
    return _by(
        budget_select(scored, budget, score_col="score", cost_col="n_chars"),
        "doc_id",
    )


def _q_code_detect(sf_dir: str):
    """Code-likeness tagger over text with a code snippet planted on every
    4th doc (plain concatenation, identical on both sides) — one (?m) RE2
    line pattern, engine-identical Arrow/DuckDB counts."""
    from infidex_ray.ops.textstats import code_detect

    snippet = (
        "\nfor (i = 0; i < n; i++) {\n  total += i;\n}\nreturn total;\ndef f():"
    )

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        texts = b["text"].to_pylist()
        out = [
            (t or "") + (snippet if d % 4 == 0 else "")
            for d, t in zip(ids, texts)
        ]
        return pa.table({"doc_id": b["doc_id"], "text": pa.array(out)})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(code_detect(ds), "doc_id")


def _q_image_meta(sf_dir: str):
    """SQL-checkable slice of the multimodal image stage: same actor-pool
    fake-codec run as image_features, with the 16-float histogram dropped —
    every remaining column (md5 digest, md5-derived fake dims, byte length)
    is recomputable in DuckDB, graduating the plumbing from rows-only."""
    from infidex_ray.ops.multimodal import image_features

    def synth(batch: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    feats = image_features(ds, fake=True).drop_columns(["feature"])
    return _by(feats, "doc_id")


def _q_keep_earliest(sf_dir: str):
    """First-wins per-user event (earliest ts, ties to smallest event_id):
    the recrawl "first crawl wins" rule over the events stream."""
    from infidex_ray.ops.windows import keep_earliest

    return _by(keep_earliest(_read(sf_dir, "events")), "user_id")


def _q_knn_recall(sf_dir: str):
    """ANN quality evaluation: per-vector recall@5 of the LSH graph vs the
    exact graph (same params as the knn_graph/knn_graph_lsh entries)."""
    from infidex_ray.ops.similarity import knn_recall

    return _by(
        knn_recall(_read(sf_dir, "embeddings"), k=5, n_bits=6, n_tables=3),
        "vec_id",
    )


def _q_broadcast_join(sf_dir: str):
    """Broadcast hash join (orders ⨝ customer on custkey): dimension table
    ray.put once, per-block Arrow hash-join kernel — no big-side shuffle."""
    from infidex_ray.ops.joins import broadcast_join

    big = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def dim(b: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": b["c_custkey"], "c_name": b["c_name"]}
        )

    small = _read(sf_dir, "customer").map_batches(dim, batch_format="pyarrow")
    return _by(broadcast_join(big, small, on="o_custkey"), "o_orderkey")


def _q_grouped_agg(sf_dir: str):
    """TPC-H-Q1-shaped combiner aggregation over lineitem: per-block Arrow
    hash group-by partials, key-hash slice merge. Deterministic aggregates
    only (integral-valued sums, count, min/max, exact mean)."""
    from infidex_ray.ops.agg import grouped_agg

    return _by(
        grouped_agg(
            _read(sf_dir, "lineitem"),
            ["l_returnflag", "l_linestatus"],
            {
                "sum_qty": ("sum", "l_quantity"),
                "n_rows": ("count", "l_orderkey"),
                "min_price": ("min", "l_extendedprice"),
                "max_price": ("max", "l_extendedprice"),
                "avg_qty": ("mean", "l_quantity"),
            },
        ),
        "l_returnflag",
        "l_linestatus",
    )


def _q_drop_frequent_lines(sf_dir: str):
    """CCNet-style line-level boilerplate removal: newlines planted after
    every 3rd word by the SAME RE2 GlobalReplace on both engines, then
    lines occurring more than once corpus-wide are stripped and documents
    re-joined in order (ops/lines.py two-pass: slice-grouped frequent-line
    mining + broadcast strip, corpus never shuffled)."""
    import pyarrow.compute as pc

    from infidex_ray.ops.lines import drop_frequent_lines

    def plant(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(b["text"], pa.string()), "")
        aug = pc.replace_substring_regex(
            texts, pattern=r"((\S+ ){2}\S+) ", replacement="\\1\n"
        )
        return pa.table({"doc_id": b["doc_id"], "text": aug})

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(drop_frequent_lines(ds, max_freq=1), "doc_id")


def _q_rrf_fuse(sf_dir: str):
    """Reciprocal-rank fusion of two per-customer order rankings (price vs
    recency) — the hybrid-retrieval merge shape. Exactly two addends per
    (query, doc) so the fused double is order-free and bit-identical to the
    SQL row_number oracle."""
    from infidex_ray.ops.ranking import rrf_fuse

    orders = _read(sf_dir, "orders")

    def by_price(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": b["o_custkey"],
                "doc_id": b["o_orderkey"],
                "score": b["o_totalprice"].cast(pa.float64()),
            }
        )

    def by_recency(b: pa.Table) -> pa.Table:
        us = (
            b["o_orderdate"]
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        return pa.table(
            {
                "query_id": b["o_custkey"],
                "doc_id": b["o_orderkey"],
                "score": pa.array(us / 1000000.0),
            }
        )

    a = orders.map_batches(by_price, batch_format="pyarrow")
    b = orders.map_batches(by_recency, batch_format="pyarrow")
    return _by(rrf_fuse(a, b, k0=60, k=5), "query_id", "rank")


def _q_collocations_unigram(sf_dir: str):
    """Church-Hanks PMI with UNIGRAM marginals (lowercased) — the sibling
    estimator to the pair-marginal `collocations` entry, both served by the
    ops/collocations.py engine (combined unigram+bigram combiner partials,
    slice-grouped sums, chained marginal joins). Output keeps the op's own
    (rounded-PMI desc, w1, w2) ordering == the oracle ORDER BY."""
    from infidex_ray.ops.collocations import collocations

    return collocations(_read(sf_dir, "documents"), min_count=5, top_n=100)


def _q_rolling_window(sf_dir: str):
    """Per-supplier rolling 5-row quantity window over lineitem: one coarse
    md5-slice shuffle, per-slice lexsort + cumsum with run-boundary resets
    (no per-key group); integral quantities ⇒ bit-identical to the SQL
    ROWS window."""
    from infidex_ray.ops.windows import rolling_window

    return _by(
        rolling_window(
            _read(sf_dir, "lineitem"),
            "l_suppkey",
            "l_shipdate",
            "l_quantity",
            window=5,
            id_cols=("l_orderkey", "l_linenumber"),
        ),
        "l_suppkey",
        "ts_us",
        "l_orderkey",
        "l_linenumber",
    )


def _q_dedup_lines_within(sf_dir: str):
    """Within-document repeated-line removal (first occurrence kept):
    lines planted by replacing spaces with newlines via the same plain
    substring replace on both engines; entirely row-local — no shuffle."""
    import pyarrow.compute as pc

    from infidex_ray.ops.lines import dedup_lines_within

    def plant(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(b["text"], pa.string()), "")
        return pa.table(
            {"doc_id": b["doc_id"], "text": pc.replace_substring(texts, " ", "\n")}
        )

    ds = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    return _by(dedup_lines_within(ds), "doc_id")


def _q_fuzzy_pairs(sf_dir: str):
    """Corpus-level fuzzy key linkage (SymSpell deletion blocking): every
    unordered pair of distinct customer names within byte-level Levenshtein
    distance 1.  Keys subset by md5 bucket (cross-engine md5_number_lower
    parity) so the oracle's banded self-join stays cheap; the fixed-width
    'Customer#NNNNNNNNN' names give a dense distance-1 neighborhood."""
    import pyarrow.compute as pc

    from infidex_ray.ops.dedup import _md5_u64
    from infidex_ray.ops.fuzzy import fuzzy_pairs

    def subset(b: pa.Table) -> pa.Table:
        names = b["c_name"].to_pylist()
        keep = pa.array(
            [i for i, w in enumerate(names) if w is not None and _md5_u64(w) % 4 == 0],
            pa.int64(),
        )
        return pa.table({"w": b["c_name"].take(keep)})

    ds = _read(sf_dir, "customer").map_batches(subset, batch_format="pyarrow")
    return _by(fuzzy_pairs(ds, "w", max_dist=1), "word_a", "word_b")


def _q_fuzzy_key_clusters(sf_dir: str):
    """Record linkage: transitive fuzzy components over the md5%16 customer
    name subset (sparse enough for varied components: 22 canonicals at
    sf0.01, 153 at sf0.1), canonical = binary-min reachable key. Engine =
    deletion-blocked pairs → distributed min-label propagation → per-label
    min-word slice groupby; oracle = recursive-CTE transitive closure."""
    from infidex_ray.ops.dedup import _md5_u64
    from infidex_ray.ops.fuzzy import fuzzy_key_clusters

    def subset(b: pa.Table) -> pa.Table:
        names = b["c_name"].to_pylist()
        keep = pa.array(
            [
                i
                for i, w in enumerate(names)
                if w is not None and _md5_u64(w) % 16 == 0
            ],
            pa.int64(),
        )
        return pa.table({"w": b["c_name"].take(keep)})

    ds = _read(sf_dir, "customer").map_batches(subset, batch_format="pyarrow")
    return _by(fuzzy_key_clusters(ds, "w", max_dist=1), "word")


def _q_kmv_distinct(sf_dir: str):
    """Per-group approximate count-distinct (K-minimum-values, k=256) of
    parts per return flag — the bounded-shuffle stand-in for
    count(DISTINCT) at vocab scale. The estimate (k-1)·2^64/h_(k) uses one
    IEEE-exact multiply+divide over md5-parity hashes, so the oracle
    reproduces the approximation error bit-for-bit."""
    from infidex_ray.ops.sketches import kmv_distinct

    return _by(
        kmv_distinct(_read(sf_dir, "lineitem"), ["l_returnflag"], "l_partkey", k=256),
        "l_returnflag",
    )


def _q_bloom_membership(sf_dir: str):
    """Bloom-filter membership probe (m=512, k=3 over md5-parity bit
    positions): every customer name probed against a filter built from the
    custkey%10==0 subset. Deliberately small m so deterministic false
    positives appear — the oracle recomputes exactly those."""
    import pyarrow.compute as pc

    from infidex_ray.ops.sketches import bloom_against

    cust = _read(sf_dir, "customer")

    def subset(b: pa.Table) -> pa.Table:
        import numpy as np  # noqa: F811

        keep = (
            b["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64) % 10 == 0
        )
        return b.filter(pa.array(keep)).select(["c_name"])

    bench = cust.map_batches(subset, batch_format="pyarrow")
    return _by(
        bloom_against(
            cust.select_columns(["c_custkey", "c_name"]),
            bench,
            "c_name",
            m_bits=512,
            n_hashes=3,
            id_col="c_custkey",
        ),
        "c_custkey",
    )


def _q_contamination_report(sf_dir: str):
    """Per-benchmark-item leak audit (inverse view of `decontaminate`, same
    %97 split and word-3-gram convention): for each benchmark doc, distinct
    contaminating corpus docs + distinct (doc, gram) hit pairs. Broadcast
    CSR gram→owners index, streaming corpus, disjoint per-batch partials →
    one code-slice groupby; benchmark-sized driver result."""
    import pyarrow.compute as pc

    from infidex_ray.ops.decontam import contamination_report

    docs = _read(sf_dir, "documents")

    def split(rem_eq):
        def fn(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            keep = (ids % 97 == 0) if rem_eq else (ids % 97 != 0)
            return b.filter(pa.array(keep)).select(["doc_id", "text"])

        return fn

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    return contamination_report(corpus, bench, n=3)


def _q_priority_sample(sf_dir: str):
    """Weighted-without-replacement priority sample (Duffield-Lund-Thorup):
    top-200 orders by q = w/u with u from the md5 parity hash — one
    IEEE-exact divide, so the SQL ORDER BY q DESC LIMIT 200 selects the
    identical set with bit-identical q."""
    from infidex_ray.ops.sketches import priority_sample

    return _by(
        priority_sample(
            _read(sf_dir, "orders"), 200, "o_totalprice", "o_orderkey", salt="ps"
        ),
        "o_orderkey",
    )


def _q_grouped_distinct(sf_dir: str):
    """count(DISTINCT col) per group: per-block distinct (keys, value)
    pairs → value-hash slice re-distinct (disjoint partial counts by
    construction) → keys-slice sum. Null values uncounted, all-null groups
    kept at 0, null keys group — SQL semantics end-to-end."""
    from infidex_ray.ops.agg import grouped_count_distinct

    return _by(
        grouped_count_distinct(
            _read(sf_dir, "lineitem"),
            ["l_returnflag", "l_linestatus"],
            {"n_parts": "l_partkey", "n_supps": "l_suppkey"},
        ),
        "l_returnflag",
        "l_linestatus",
    )


def _q_grouped_rollup(sf_dir: str):
    """GROUP BY ROLLUP as a union of per-prefix-level combiner passes with
    a level (GROUPING_ID) column; rolled-up keys coalesce to '(all)' on
    both engines so the order-sensitive hash never compares NULL sort
    semantics."""
    import pyarrow.compute as pc

    from infidex_ray.ops.agg import grouped_rollup

    out = grouped_rollup(
        _read(sf_dir, "lineitem"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("sum", "l_quantity"), "n_rows": ("count", "l_orderkey")},
    )

    def coal(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in t.column_names}
        for k in ("l_returnflag", "l_linestatus"):
            cols[k] = pc.coalesce(t[k], pa.scalar("(all)", pa.string()))
        return pa.table(cols)

    return _by(
        out.map_batches(coal, batch_format="pyarrow"),
        "level",
        "l_returnflag",
        "l_linestatus",
    )


def _q_corpus_drift(sf_dir: str):
    """Pairwise KL drift between per-source hashed-feature distributions
    (DSIR buckets, add-1 smoothing) — corpus-mixture monitoring. Per-batch
    per-source dense bincount partials into the fixed bucket space, one
    bucket-keyed groupby, sources×buckets driver matrix."""
    from infidex_ray.ops.dsir import corpus_drift

    return _by(
        corpus_drift(_read(sf_dir, "documents"), n_buckets=512),
        "source_a",
        "source_b",
    )


def _q_percentile_rank(sf_dir: str):
    """Global cume_dist rank normalization ("keep the top-q% by score"):
    one global sort + O(blocks) driver scalars; boundary-spanning tie runs
    resolved from per-block metadata; exact integer ratio == the SQL
    window bit-for-bit."""
    from infidex_ray.ops.ranking import percentile_rank

    ds = _read(sf_dir, "orders").select_columns(["o_orderkey", "o_totalprice"])
    return _by(
        percentile_rank(ds, "o_totalprice", id_col="o_orderkey"),
        "o_totalprice",
        "o_orderkey",
    )


def _q_ntile_bucket(sf_dir: str):
    """Equal-frequency bucketing (perplexity/quality bands): ONE global
    sort on a unique (value, id) key, then each block buckets itself from
    block-offset scalars with the exact integer NTILE formula — bitwise
    identical to the SQL window."""
    from infidex_ray.ops.normalize import ntile_bucket

    ds = _read(sf_dir, "orders").select_columns(["o_orderkey", "o_totalprice"])
    return _by(
        ntile_bucket(ds, "o_totalprice", id_col="o_orderkey", n=7),
        "o_totalprice",
        "o_orderkey",
    )


def _q_winsorize(sf_dir: str):
    """Outlier clamping at exact global [5%, 95%] quantiles: one sort
    computes both thresholds via two single-row fetches (numpy 'linear'
    interpolation == quantile_cont), then the original stream clamps
    statelessly — least(greatest(v, lo), hi) on identical float64
    thresholds."""
    from infidex_ray.ops.normalize import winsorize

    ds = _read(sf_dir, "orders").select_columns(["o_orderkey", "o_totalprice"])
    return _by(
        winsorize(ds, "o_totalprice", id_col="o_orderkey", lo=0.05, hi=0.95),
        "o_orderkey",
    )


def _q_zscore_features(sf_dir: str):
    """Per-column population z-scores from sufficient-statistic partials
    (n, Σx, Σx²) — O(blocks × cols) driver scalars, no shuffle; the fixed
    (x − sx/n)/sqrt(sxx/n − (sx/n)²) expression is spelled identically in
    the oracle, exact on the integer-valued inputs; round4 both engines."""
    import pyarrow as _pa

    from infidex_ray.ops.normalize import zscore_cols

    def derive(b: _pa.Table) -> _pa.Table:
        import numpy as _np

        n = b["n_chars"].to_numpy(zero_copy_only=False)
        return _pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "chm": _pa.array((n % 97).astype(_np.int64)),
            }
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "n_chars"])
        .map_batches(derive, batch_format="pyarrow")
    )
    return _by(zscore_cols(ds, ["n_chars", "chm"], id_col="doc_id"), "doc_id")


def _q_vocab_coverage(sf_dir: str):
    """Per-doc OOV rate vs a min_count-pruned reference vocabulary (built
    from the English subset with the heavy-hitters combiner, broadcast once
    via ray.put, probed with vectorized searchsorted). oov_rate is an exact
    integer ratio — bitwise identical to the SQL."""
    from infidex_ray.ops.lm import vocab_coverage

    docs = _read(sf_dir, "documents")
    ref = docs.filter(lambda row: row["lang"] == "en")
    return _by(
        vocab_coverage(docs, ref_ds=ref, min_count=2, vocab_size=1_000_000),
        "doc_id",
    )


def _q_embedding_covariance(sf_dir: str):
    """Embedding second-moment hygiene (whitening/OPQ/PCA input): per-block
    XᵀX/Σx/n partials shuffled long-form (d²+d+1 rows per block), final
    d×d assembly driver-side. Fixed expression sxy/n − (sx_i/n)(sx_j/n),
    round4 both engines (distributed sums differ by ulps)."""
    from infidex_ray.ops.pca import embedding_covariance

    return _by(embedding_covariance(_read(sf_dir, "embeddings")), "i", "j")


def _q_deterministic_shuffle(sf_dir: str):
    """Reproducible global shuffle: rows ordered by md5('seed:id') — a pure
    function of (seed, ids), so the example order survives reruns, resumes
    and cluster-shape changes (random_shuffle cannot promise that). One
    range-partitioned Dataset.sort; key kept for downstream re-ordering."""
    from infidex_ray.ops.shuffle import deterministic_shuffle

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"])
    return _by(deterministic_shuffle(ds, seed=7), "shuffle_key", "doc_id")


def _q_grouped_corr(sf_dir: str):
    """Per-group Pearson correlation from sufficient-statistic partials;
    integer-valued inputs make the distributed sums exact, so the closed
    form is bit-identical to the same expression over SQL sum()s."""
    from infidex_ray.ops.agg import grouped_corr

    return _by(
        grouped_corr(
            _read(sf_dir, "lineitem"),
            ["l_returnflag", "l_linestatus"],
            "l_quantity",
            "l_linenumber",
        ),
        "l_returnflag",
        "l_linestatus",
    )


def _q_hash_join_full(sf_dir: str):
    """Big-big FULL OUTER shuffle join (orders ⟗ customer on custkey, both
    sides filtered so unmatched rows exist on BOTH sides): schema-aligned
    union → ONE md5-slice shuffle of the key → per-slice Arrow full-outer
    hash join. The result is collected to one Arrow table for ordering
    because Ray 2.49's distributed sort crashes on the NULL sort keys an
    outer join produces (numpy searchsorted vs None) — Arrow sort_by
    orders nulls at_end, matching DuckDB's ASC NULLS LAST."""
    import ray

    from infidex_ray.ops.joins import hash_join

    def fl(b: pa.Table) -> pa.Table:
        ok = b["o_orderkey"].to_numpy(zero_copy_only=False) % 3 == 0
        return b.filter(pa.array(ok))

    def fr(b: pa.Table) -> pa.Table:
        ok = b["c_custkey"].to_numpy(zero_copy_only=False) % 4 != 0
        return b.filter(pa.array(ok))

    left = (
        _read(sf_dir, "orders")
        .select_columns(["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(fl, batch_format="pyarrow")
    )
    right = (
        _read(sf_dir, "customer")
        .select_columns(["c_custkey", "c_name"])
        .map_batches(fr, batch_format="pyarrow")
    )
    out = hash_join(
        left,
        right,
        on="o_custkey",
        right_on="c_custkey",
        left_cols=["o_orderkey", "o_totalprice"],
        right_cols=["c_name"],
        how="full",
    )
    cols = ["o_custkey", "o_orderkey", "o_totalprice", "c_name"]
    parts = [
        t
        for t in (ray.get(r) for r in out.materialize().to_arrow_refs())
        if t is not None and t.num_rows > 0
    ]
    if not parts:
        return pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_orderkey", pa.int64()),
                ("o_totalprice", pa.float64()),
                ("c_name", pa.string()),
            ]
        ).empty_table()
    tbl = pa.concat_tables([t.select(cols) for t in parts])
    return tbl.sort_by(
        [("o_custkey", "ascending"), ("o_orderkey", "ascending")]
    )


def _q_pivot(sf_dir: str):
    """Long→wide pivot of lineitem: per-supplier quantity by return flag,
    SUM(CASE WHEN ...) semantics incl. NULL cells. Integral-valued
    l_quantity ⇒ float64 partial sums are order-free exact."""
    from infidex_ray.ops.agg import pivot

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_suppkey", "l_returnflag", "l_quantity"]
    )
    return _by(
        pivot(li, "l_suppkey", "l_returnflag", "l_quantity", ["A", "N", "R"]),
        "l_suppkey",
    )


def _q_unpivot(sf_dir: str):
    """Wide→long melt of three lineitem measures (UNION ALL semantics,
    float64 common type). Stateless map_batches — no shuffle."""
    from infidex_ray.ops.agg import unpivot

    up = unpivot(
        _read(sf_dir, "lineitem"),
        ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount"],
    )
    # (l_orderkey, l_linenumber) is NOT unique in the synthetic lineitem —
    # include value so tied rows are identical under the order-sensitive hash
    return _by(up, "l_orderkey", "l_linenumber", "name", "value")


def _q_quota_sample(sf_dir: str):
    """Per-group quota cap (≤3 events per user) by deterministic md5
    priority — reproducible crawl-style per-domain capping on the events
    table. Reuses top_k_per_group's partial/slice machinery."""
    from infidex_ray.ops.sampling import quota_sample

    ev = _read(sf_dir, "events").select_columns(["user_id", "event_id"])
    return _by(quota_sample(ev, "user_id", "event_id", n=3, seed=11), "user_id", "rank")


def _q_pq_knn(sf_dir: str):
    """Product-quantization ANN (2 subspaces × 8 codes, 2 Lloyd's
    iterations, ADC top-10 for the 3 lowest-id query vectors) — the
    memory-compressed ANN tier past IVF. Oracle = per-subspace namespaced
    unrolled-kmeans CTEs + LUT distance sum (sqlgen.pq_knn_sql)."""
    from infidex_ray.ops.similarity import pq_knn

    return pq_knn(
        _read(sf_dir, "embeddings"), n_queries=3, m=2, k_codes=8, iters=2, top_k=10
    )


def _q_dedup_paragraphs(sf_dir: str):
    """Paragraph-granularity corpus dedup (RefinedWeb-style span removal):
    the dedup_lines engine with sep='\\n\\n' — a shared promo paragraph is
    planted on every 4th doc (identically in SQL) so winner/loser/rebuild
    is exercised at paragraph granularity."""
    import pyarrow as pa

    from infidex_ray.ops.dedup import dedup_lines

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (t or "") + "\n\nSubscribe to our newsletter today"
            if i % 4 == 0
            else (t or "")
            for i, t in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(out, pa.large_string()),
            }
        )

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return _by(dedup_lines(ds, sep="\n\n"), "doc_id")


def _q_grouped_mode(sf_dir: str):
    """MODE aggregate (dominant event_type per user, ties → smallest
    value): per-block (key,value) count partials → key-slice argmax —
    the aggregate sum/min/max can't express."""
    from infidex_ray.ops.agg import grouped_mode

    return _by(
        grouped_mode(_read(sf_dir, "events"), "user_id", "event_type"),
        "user_id",
    )


def _q_lag_values(sf_dir: str):
    """Per-key LAG over the event value (prev value + delta, SQL NULL
    semantics for each key's first event): one md5 key-slice shuffle,
    lexsort + run-boundary masks in-slice. Deltas subtract identical
    float64 operands on both engines — bitwise equal."""
    from infidex_ray.ops.windows import lag_values

    return _by(
        lag_values(_read(sf_dir, "events")), "user_id", "ts_us", "event_id"
    )


def _q_ivf_pq_knn(sf_dir: str):
    """IVF-PQ ANN (coarse kmeans quantizer, nprobe=2 of nlist=4 lists,
    PQ-ADC within probed lists, by_residual=False). Unlike the ivf_knn
    entries, the coarse PRUNING itself is oracle-checked
    (sqlgen.ivf_pq_knn_sql) — the approximation is reproduced, not
    dodged."""
    from infidex_ray.ops.similarity import ivf_pq_knn

    return ivf_pq_knn(
        _read(sf_dir, "embeddings"),
        n_queries=3,
        nlist=4,
        nprobe=2,
        m=2,
        k_codes=8,
        iters=2,
        top_k=10,
    )


def _q_ngram_freq(sf_dir: str):
    """Corpus word-3-gram frequency table (count ≥ 5): per-batch distinct
    packed-code partials → md5 gram-slice sums — the generic-n sibling of
    the collocations bigram engine."""
    from infidex_ray.ops.collocations import ngram_freq

    return _by(ngram_freq(_read(sf_dir, "documents"), n=3, min_count=5), "gram")


def _q_html_density(sf_dir: str):
    """Markup-density quality signals (tag count, stripped-text length,
    text ratio) over the same deterministic synthetic html column the
    html_extract entry wraps — three Arrow RE2 kernels, byte-length
    semantics (strlen parity)."""
    from infidex_ray.ops.html import html_density

    def synth(batch: pa.Table) -> pa.Table:
        html = [
            (
                "<html><head><title>t</title><script>var x=1;</script></head>"
                f"<body><h1>Doc {i}</h1><p>{t or ''}</p><!-- c --></body></html>"
            ).encode("utf-8")
            for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist())
        ]
        return pa.table(
            {"doc_id": batch["doc_id"], "html": pa.array(html, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    return _by(html_density(ds), "doc_id")


def _q_knn_label_precision(sf_dir: str):
    """Labeled ANN quality eval (precision@10 of same-label neighbors per
    query, self excluded) — the kNN-classifier score over the embeddings
    table's label column."""
    from infidex_ray.ops.similarity import knn_label_precision

    return knn_label_precision(_read(sf_dir, "embeddings"), n_queries=5, k=10)


def _synth_edges(sf_dir: str):
    """The shared synthetic web-graph fixture (same arithmetic as pagerank /
    connected_components): doc_id → (doc_id·7 + j·13) mod 500 for j in
    1..(doc_id mod 4)."""

    def synth(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for d in batch["doc_id"].to_pylist():
            for j in range(1, d % 4 + 1):
                src.append(d)
                dst.append((d * 7 + j * 13) % 500)
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
    )


def _q_triangle_count(sf_dir: str):
    """Per-node triangle counts over the synthetic edge fixture
    (ops/graph.py::triangle_count — degree-ordered wedge enumeration, each
    triangle found exactly once at its min-(deg,id) vertex). Oracle = the
    canonical three-way self-join over the distinct a<b edge set."""
    from infidex_ray.ops.graph import triangle_count

    return _by(triangle_count(_synth_edges(sf_dir)), "node")


def _q_link_prediction(sf_dir: str):
    """Neighborhood-overlap link prediction (common neighbors / Jaccard /
    preferential attachment) over the shared synthetic web graph
    (ops/graph.py::link_prediction — wedge expansion + pair-slice count,
    existing edges anti-joined out, hub apexes capped)."""
    from infidex_ray.ops.graph import link_prediction

    return _by(
        link_prediction(_synth_edges(sf_dir), min_cn=2, max_center_degree=64),
        "u",
        "v",
    )


def _q_state_durations(sf_dir: str):
    """Time-in-state per (user, event_type): each event lasts until the
    user's next event (ops/windows.py::state_durations; SQL lead()
    mirror, exact int64 microsecond sums)."""
    from infidex_ray.ops.windows import state_durations

    return _by(state_durations(_read(sf_dir, "events")), "user_id", "event_type")


def _q_period_compare(sf_dir: str):
    """Week-over-week event counts per type with exact previous-period
    ratios (ops/windows.py::period_compare)."""
    from infidex_ray.ops.windows import period_compare

    return _by(period_compare(_read(sf_dir, "events")), "event_type", "period")


def _q_benford_deviation(sf_dir: str):
    """Per-event-type Benford first-digit audit (ops/agg.py::
    benford_deviation): printf('%.16e') first digit — bitwise identical
    across numpy and DuckDB — plus χ² vs repr-inlined log10 expectations."""
    from infidex_ray.ops.agg import benford_deviation

    return _by(
        benford_deviation(_read(sf_dir, "events"), "event_type", "value"),
        "event_type",
    )


_ORDER_CONSTRAINTS = [
    {"name": "custkey_not_null", "kind": "not_null", "col": "o_custkey"},
    {"name": "orderkey_unique", "kind": "unique", "col": "o_orderkey"},
    {
        "name": "price_range",
        "kind": "range",
        "col": "o_totalprice",
        "lo": 0.0,
        "hi": 250000.0,
    },
    {
        "name": "priority_regex",
        "kind": "regex",
        "col": "o_orderpriority",
        "pattern": "[1-5]-[A-Z]+",
    },
    {
        "name": "status_in_set",
        "kind": "in_set",
        "col": "o_orderstatus",
        "values": ["O", "F"],
    },
]


def _q_constraint_check(sf_dir: str):
    """Declarative data-quality audit over orders (ops/profile.py::
    constraint_check): not_null / unique / range / RE2 full-match regex /
    in_set violation counts, exact."""
    from infidex_ray.ops.profile import constraint_check

    return _by(
        constraint_check(_read(sf_dir, "orders"), _ORDER_CONSTRAINTS), "name"
    )


def _q_ngram_diversity(sf_dir: str):
    """Distinct/total word n-gram ratios for n = 1..3 over documents
    (ops/textstats.py::ngram_diversity — exact distinct via gram-slice
    combiner, RE2 \\S+ token parity)."""
    from infidex_ray.ops.textstats import ngram_diversity

    return _by(ngram_diversity(_read(sf_dir, "documents")), "n")


def _q_grouped_ols(sf_dir: str):
    """Per-returnflag OLS slope/intercept of extendedprice on quantity via
    exact integer sufficient statistics (ops/agg.py::grouped_ols) — the
    five int64 sums are order-free, the float64 finish expression is
    operation-identical to the oracle's, so the match is bitwise."""
    from infidex_ray.ops.agg import grouped_ols

    return _by(
        grouped_ols(
            _read(sf_dir, "lineitem"),
            "l_returnflag",
            "l_quantity",
            "l_extendedprice",
            x_scale=1,
            y_scale=100,
        ),
        "l_returnflag",
    )


def _q_activity_streaks(sf_dir: str):
    """Per-user consecutive-active-day streaks over events
    (ops/windows.py::activity_streaks — distinct-day partials + one md5
    user-slice shuffle). Oracle = the gaps-and-islands row_number idiom."""
    from infidex_ray.ops.windows import activity_streaks

    return _by(activity_streaks(_read(sf_dir, "events")), "user_id")


def _q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-flavor revenue per customer nation
    (ops/relational.py::revenue_by_nation): one big-big hash_join
    (lineitem ⨝ orders), two broadcast dimension joins, one combiner
    group-by. Revenue accumulates as exact int64 1e-4 units."""
    from infidex_ray.ops.relational import revenue_by_nation

    return _by(
        revenue_by_nation(
            _read(sf_dir, "lineitem"),
            _read(sf_dir, "orders"),
            _read(sf_dir, "customer"),
            _read(sf_dir, "nation"),
        ),
        "n_name",
    )


def _q_order_priority_counts(sf_dir: str):
    """TPC-H Q4-flavor EXISTS semi-join: orders with ≥1 returned lineitem,
    counted by priority (ops/relational.py::order_priority_counts —
    unique-key partials + broadcast LEFT SEMI join, fact side never
    shuffles)."""
    from infidex_ray.ops.relational import order_priority_counts

    return _by(
        order_priority_counts(_read(sf_dir, "lineitem"), _read(sf_dir, "orders")),
        "o_orderpriority",
    )


def _q_top_customer_revenue(sf_dir: str):
    """Top-10 customers by exact integer revenue with names
    (ops/relational.py::top_customer_revenue — per-block partial top-k on
    the combiner output, k-row driver merge, broadcast name lookup)."""
    from infidex_ray.ops.relational import top_customer_revenue

    return _by(
        top_customer_revenue(
            _read(sf_dir, "lineitem"),
            _read(sf_dir, "orders"),
            _read(sf_dir, "customer"),
            k=10,
        ),
        "c_custkey",
    )


def _q_token_label_chi2(sf_dir: str):
    """Per-token χ² association with the 'en' label
    (ops/vectorize.py::token_label_chi2 — distinct (doc, token) combiner
    partials + one md5 token-slice merge; fixed-order float64 χ²
    expression, bitwise vs the oracle before ROUND)."""
    from infidex_ray.ops.vectorize import token_label_chi2

    return _by(token_label_chi2(_read(sf_dir, "documents"), min_df=5), "token")


def _q_warc_extract(sf_dir: str):
    """WARC ingest round-trip (ops/warc.py): documents are serialized into
    REAL multi-record WARC/1.0 blobs (HTTP response blocks, Content-Length
    byte walking, multi-byte UTF-8 bodies) and parsed back — the oracle
    reconstructs the expected rows straight from the table, so any parser
    or length-arithmetic bug breaks the hash."""
    from infidex_ray.ops.warc import build_warc_record, warc_extract

    def make(batch: pa.Table) -> pa.Table:
        payloads = []
        cur = b""
        for i, (did, text, src) in enumerate(
            zip(
                batch["doc_id"].to_pylist(),
                batch["text"].to_pylist(),
                batch["source"].to_pylist(),
            )
        ):
            cur += build_warc_record(
                f"http://{src}.example/{did}",
                "2024-01-01T00:00:00Z",
                (text or "").encode("utf-8"),
            )
            if i % 2 == 1:  # two records per blob: exercises record walking
                payloads.append(cur)
                cur = b""
        if cur:
            payloads.append(cur)
        return pa.table({"payload": pa.array(payloads, pa.binary())})

    blobs = _read(sf_dir, "documents").map_batches(make, batch_format="pyarrow")
    out = warc_extract(blobs)

    def select(t: pa.Table) -> pa.Table:
        return t.select(
            ["uri", "status", "content_type", "n_body_bytes", "body_text"]
        )

    return _by(out.map_batches(select, batch_format="pyarrow"), "uri")


def _q_robots_gate(sf_dir: str):
    """robots.txt longest-match gating (ops/robots.py): synthetic per-doc
    crawl paths evaluated against a parsed rule set with an exact-length
    Allow/Disallow tie planted — rules broadcast once, one vectorized
    starts_with pass per rule, no shuffle. Oracle = row_number over
    (prefix length DESC, allow DESC) per URL."""
    from infidex_ray.ops.robots import parse_robots_txt, robots_allowed

    robots = (
        "User-agent: evilbot\nDisallow: /\n\n"
        "User-agent: *\n"
        "Disallow: /cat1\n"
        "Disallow: /cat3/\n"
        "Allow: /cat3/page3\n"
        "Disallow: /cat5/page\n"
        "Allow: /cat5/page5\n"
        "Allow: /cat2\n"
        "Disallow: /cat2\n"  # exact tie with the Allow above -> Allow wins
    )
    rules = parse_robots_txt(robots)

    def paths(t: pa.Table) -> pa.Table:
        dids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "path": pa.array(
                    [f"/cat{d % 7}/page{d}" for d in dids], pa.string()
                ),
            }
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(paths, batch_format="pyarrow")
    )
    return _by(robots_allowed(ds, rules), "doc_id")


def _q_grouped_cube(sf_dir: str):
    """GROUP BY CUBE over (lang, source) with count+sum aggregates
    (ops/agg.py::grouped_cube — one combiner pass per key subset, unioned
    with the SQL GROUPING_ID bitmask). Subtotal NULL keys coalesce to
    '(all)' on both engines (NULL-ordering parity, the rollup precedent)."""
    from infidex_ray.ops.agg import grouped_cube

    cube = grouped_cube(
        _read(sf_dir, "documents"),
        ["lang", "source"],
        {"n_docs": ("count", "doc_id"), "total_chars": ("sum", "n_chars")},
    )

    def coalesce(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "lang": pc.coalesce(t["lang"], pa.scalar("(all)")),
                "source": pc.coalesce(t["source"], pa.scalar("(all)")),
                "grouping_id": t["grouping_id"],
                "n_docs": t["n_docs"],
                "total_chars": t["total_chars"],
            }
        )

    return _by(
        cube.map_batches(coalesce, batch_format="pyarrow"),
        "grouping_id",
        "lang",
        "source",
    )


def _q_unicode_nfc(sf_dir: str):
    """NFC normalization parity (ops/textstats.py::unicode_normalize_text
    vs DuckDB nfc_normalize): decomposed combining marks are PLANTED via
    the same replace rewrite on both sides (script_profile precedent), so
    the normalization itself — recomposition, char counts — is what the
    hash checks."""
    import pyarrow.compute as pc

    from infidex_ray.ops.textstats import unicode_normalize_text

    comb = "a" + chr(769)  # 'a' + COMBINING ACUTE -> NFC 'á'

    def plant(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": pc.replace_substring(t["text"], pattern="a", replacement=comb),
            }
        )

    planted = _read(sf_dir, "documents").map_batches(plant, batch_format="pyarrow")
    out = unicode_normalize_text(planted)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "norm": t["norm"],
                "changed": t["changed"],
                "len_before": pc.utf8_length(t["text"]).cast(pa.int64()),
                "len_after": pc.utf8_length(t["norm"]).cast(pa.int64()),
            }
        )

    return _by(out.map_batches(finish, batch_format="pyarrow"), "doc_id")


def _q_grouped_mad(sf_dir: str):
    """Per-language robust length stats: exact median + MAD
    (ops/textstats.py::grouped_mad — numpy linear interpolation ==
    DuckDB median/quantile_cont, |x−med| subtracts identical float64
    operands ⇒ bitwise before ROUND)."""
    from infidex_ray.ops.textstats import grouped_mad

    return _by(grouped_mad(_read(sf_dir, "documents"), "lang", "n_chars"), "lang")


# shared planted-edge CTE for the graph oracles (same arithmetic as
# _synth_edges / the pagerank oracle)
_EDGES_CTE = (
    "e AS (SELECT doc_id AS src, (doc_id*7 + j*13) % 500 AS dst "
    "FROM (SELECT doc_id, unnest(generate_series(1, "
    "CAST(doc_id % 4 AS INT))) AS j FROM documents)), "
    "nodes AS (SELECT DISTINCT node FROM "
    "(SELECT src AS node FROM e UNION ALL SELECT dst FROM e))"
)


def _hits_half_sql(prev: str, out: str, key: str, other: str) -> str:
    """One unrolled HITS half-step: int sum across edges onto ``key``'s
    endpoint, then ``· 1e6 // max`` — mirrors ops/graph.py::_half_step."""
    return (
        f"{out}r AS (SELECT e.{key} AS node, CAST(sum(p.v) AS BIGINT) AS v "
        f"FROM e JOIN {prev} p ON p.node = e.{other} GROUP BY e.{key}), "
        f"{out}m AS (SELECT max(v) AS m FROM {out}r), "
        f"{out} AS (SELECT nodes.node, CASE WHEN (SELECT m FROM {out}m) IS NULL "
        f"OR (SELECT m FROM {out}m) = 0 THEN 0 ELSE (coalesce(r.v, 0) * 1000000) "
        f"// (SELECT m FROM {out}m) END AS v FROM nodes LEFT JOIN {out}r r USING (node))"
    )


def _zspread_sql(col: str) -> str:
    """16-bit Morton bit spread as BIGINT ops — mirrors
    ops/shuffle.py::zorder_key's mask-shift ladder (every intermediate
    < 2³², so BIGINT never overflows)."""
    s = f"(({col} | ({col} << 8)) & 16711935)"
    s = f"(({s} | ({s} << 4)) & 252645135)"
    s = f"(({s} | ({s} << 2)) & 858993459)"
    s = f"(({s} | ({s} << 1)) & 1431655765)"
    return s


def _q_hits_scores(sf_dir: str):
    """2-iteration HITS hubs/authorities over the planted edge list in
    INTEGER fixed-point (ops/graph.py::hits_scores): every half-step is an
    order-free int64 join+groupby-sum then ``·scale // max`` — no float in
    the loop, so the unrolled DuckDB oracle matches bit-for-bit."""
    from infidex_ray.ops.graph import hits_scores

    return _by(hits_scores(_synth_edges(sf_dir), num_iters=2), "node")


def _q_bfs_levels(sf_dir: str):
    """Multi-source BFS levels (ops/graph.py::bfs_levels): frontier ⨝ edges
    + left_anti against visited per round, all Dataset-resident; seeds =
    every 50th node. Oracle = recursive-CTE closure with min(level)."""
    from infidex_ray.ops.graph import bfs_levels, graph_nodes

    edges = _synth_edges(sf_dir)
    seeds = graph_nodes(edges).filter(lambda r: r["node"] % 50 == 0)
    return _by(bfs_levels(edges, seeds, max_depth=4), "node")


def _q_event_transitions(sf_dir: str):
    """First-order Markov transition counts over per-user event streams
    (ops/windows.py::event_transitions) — one md5 user-slice shuffle, runs
    read with lexsort masking, per-slice partial counts. Exact integers ==
    the lead() window oracle."""
    from infidex_ray.ops.windows import event_transitions

    return _by(
        event_transitions(_read(sf_dir, "events")), "prev_type", "next_type"
    )


def _q_grouped_variance(sf_dir: str):
    """Per-(returnflag, linestatus) variance/stddev of l_quantity via exact
    int64 sufficient stats (ops/agg.py::grouped_variance); the fixed float64
    finish expression is mirrored operation-for-operation in the oracle ⇒
    bitwise before ROUND(…, 6)."""
    from infidex_ray.ops.agg import grouped_variance

    return _by(
        grouped_variance(
            _read(sf_dir, "lineitem"), ["l_returnflag", "l_linestatus"], "l_quantity"
        ),
        "l_returnflag",
        "l_linestatus",
    )


def _q_zorder_key(sf_dir: str):
    """Morton (Z-order) layout keys over (l_partkey, l_suppkey)
    (ops/shuffle.py::zorder_key): 16-bit integer quantize + mask-shift bit
    spread, every intermediate < 2³² so the DuckDB BIGINT bit-op oracle is
    exact. The stage ahead of the clustered-layout sort/write."""
    from infidex_ray.ops.shuffle import zorder_key

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"]
    )
    # order by the full projection — (l_orderkey, l_linenumber) alone is
    # not unique and tie order would leak into the order-sensitive hash
    return _by(
        zorder_key(ds, ["l_partkey", "l_suppkey"]),
        "l_orderkey",
        "l_linenumber",
        "l_partkey",
        "l_suppkey",
    )


def _q_jaccard_prefix(sf_dir: str):
    """Exact Jaccard similarity self-join via AllPairs prefix filtering
    (ops/dedup.py::jaccard_prefix_pairs) — 100 % recall by construction, so
    the oracle is the full all-pairs word-shingle ground truth at the same
    threshold (the candidate scheme is invisible to the output)."""
    from infidex_ray.ops.dedup import jaccard_prefix_pairs

    return _by(
        jaccard_prefix_pairs(_read(sf_dir, "documents"), threshold=0.4),
        "id_a",
        "id_b",
    )


def _q_coalesce_latest(sf_dir: str):
    """Golden-record survivorship (ops/windows.py::coalesce_latest): per
    user, each column's latest NON-NULL value by (ts, event_id) —
    independently per column. Nulls are PLANTED with the same modular rule
    on both engines (event_id % 7 / % 5) so the survivorship logic is what
    the hash checks. Oracle = one row_number()-DESC subquery per column."""
    import pyarrow.compute as pc

    from infidex_ray.ops.windows import coalesce_latest

    def plant(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = pc.if_else(
            pa.array((eid % 7) != 0),
            t["event_type"].combine_chunks(),
            pa.scalar(None, pa.string()),
        )
        val = pc.if_else(
            pa.array((eid % 5) != 0),
            t["value"].combine_chunks(),
            pa.scalar(None, pa.float64()),
        )
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "event_type": et,
                "value": val,
            }
        )

    ev = _read(sf_dir, "events").map_batches(plant, batch_format="pyarrow")
    return _by(coalesce_latest(ev), "user_id")


def _q_k_core(sf_dir: str):
    """3-round k-core peeling (k = 3) over the planted web graph
    (ops/graph.py::k_core): degree via grouped_agg partials, two left_semi
    joins per round. Early convergence is output-invisible (a converged
    round is a no-op), so the fixed 3-round SQL unroll matches exactly."""
    from infidex_ray.ops.graph import k_core

    return _by(k_core(_synth_edges(sf_dir), k=3, max_rounds=3), "node")


def _q_ndcg_eval(sf_dir: str):
    """NDCG@10 of labeled retrieval (ops/similarity.py::ndcg_label_eval):
    binary gains, DCG/IDCG accumulated strictly left-to-right — mirrored by
    recursive CTEs stepping rank-by-rank (numpy and DuckDB log2 agree
    bitwise on the small-integer discount arguments)."""
    from infidex_ray.ops.similarity import ndcg_label_eval

    return ndcg_label_eval(_read(sf_dir, "embeddings"), n_queries=5, k=10)


def _q_grouped_hhi(sf_dir: str):
    """Per-language Herfindahl concentration of sources
    (ops/agg.py::grouped_hhi): Σc² and n are exact int64 through two
    grouped_agg combiner passes; the single float division of exact
    integers is bitwise across engines."""
    from infidex_ray.ops.agg import grouped_hhi

    return _by(grouped_hhi(_read(sf_dir, "documents"), "lang", "source"), "lang")


def _q_apply_changes(sf_dir: str):
    """CDC upsert/delete compaction (ops/windows.py::apply_changes): the
    events stream becomes a change stream (op = D on 'error', else U);
    per user the last (ts, id) change wins, delete removes the key —
    keep_latest's block+slice reduction plus a row-local filter."""
    import pyarrow.compute as pc

    from infidex_ray.ops.windows import apply_changes

    def add_op(t: pa.Table) -> pa.Table:
        op = pc.if_else(
            pc.equal(t["event_type"], pa.scalar("error")),
            pa.scalar("D"),
            pa.scalar("U"),
        )
        return t.append_column("op", op)

    stream = _read(sf_dir, "events").map_batches(add_op, batch_format="pyarrow")
    out = apply_changes(stream)
    return _by(
        out.map_batches(
            lambda t: t.select(
                ["user_id", "ts_us", "event_id", "event_type", "value", "op"]
            ),
            batch_format="pyarrow",
        ),
        "user_id",
    )


def _q_merge_intervals(sf_dir: str):
    """Gaps-and-islands interval merge (ops/windows.py::merge_intervals):
    spans [ts, ts + (event_id%1000) minutes] per user coalesce into maximal
    islands — md5 key-slice shuffle + C-speed grouped cummax/shift, exact
    int64 arithmetic. Oracle = the classic running-max window island SQL."""
    from infidex_ray.ops.windows import merge_intervals

    def mk_spans(t: pa.Table) -> pa.Table:
        s = t["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        e = s.to_numpy(zero_copy_only=False) + (eid % 1000) * 60_000_000
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "s": s,
                "e": pa.array(e, pa.int64()),
            }
        )

    spans = _read(sf_dir, "events").map_batches(mk_spans, batch_format="pyarrow")
    return _by(merge_intervals(spans), "user_id", "island")


def _q_grouped_string_agg(sf_dir: str):
    """Per-language sorted-distinct source list
    (ops/agg.py::grouped_string_agg == string_agg(DISTINCT … ORDER BY)):
    per-block distinct pairs, one key-slice shuffle, lexsort + join."""
    from infidex_ray.ops.agg import grouped_string_agg

    return _by(
        grouped_string_agg(_read(sf_dir, "documents"), "lang", "source"), "lang"
    )


def _q_sitemap_urls(sf_dir: str):
    """Sitemap <loc> extraction (ops/robots.py::sitemap_urls) over
    arithmetically planted sitemap XML — vectorized split_pattern explode,
    regexp_extract_all parity incl. the no-'<'-in-capture rule."""
    from infidex_ray.ops.robots import sitemap_urls

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        xml = [
            "".join(
                f"<url><loc>http://site{d % 37}.example.com/p{d}/{j}</loc></url>"
                for j in range(1, d % 5 + 1)
            )
            for d in ids
        ]
        return pa.table(
            {"doc_id": t["doc_id"], "xml": pa.array(xml, pa.string())}
        )

    sm = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(sitemap_urls(sm), "doc_id", "url")


def _q_bpe_train(sf_dir: str):
    """BPE tokenizer-vocabulary training (ops/bpe.py::bpe_train): 3 merges
    over the corpus word counts; sentinel-wrapped sequences make the merge
    a plain string replace on both engines (greedy left-to-right BPE
    semantics included), ties by (count DESC, left, right)."""
    from infidex_ray.ops.bpe import bpe_train

    return bpe_train(_read(sf_dir, "documents"), num_merges=3)


def _q_bpe_encode(sf_dir: str):
    """Tokenizer-aware corpus token counts: train 3 BPE merges, then apply
    them per doc (ops/bpe.py::bpe_encode_counts — merge table in the
    closure, per-batch word memo, zero shuffle). Oracle re-derives the same
    merges and replays the sentinel replaces per word."""
    from infidex_ray.ops.bpe import bpe_encode_counts, bpe_train

    docs = _read(sf_dir, "documents")
    merges = bpe_train(docs, num_merges=3).to_pylist()
    return _by(bpe_encode_counts(docs, merges), "doc_id")


def _q_spearman_corr(sf_dir: str):
    """Per-returnflag Spearman rank correlation of quantity vs price
    (ops/agg.py::spearman_corr): SQL rank()-style min-rank ties keep every
    statistic exact int64; fixed-order finish mirrored ⇒ bitwise."""
    from infidex_ray.ops.agg import spearman_corr

    return _by(
        spearman_corr(
            _read(sf_dir, "lineitem"),
            "l_returnflag",
            "l_quantity",
            "l_extendedprice",
        ),
        "l_returnflag",
    )


def _q_grouped_skewness(sf_dir: str):
    """Per-returnflag skewness + excess kurtosis of quantity
    (ops/agg.py::grouped_skewness): five exact int64 sufficient sums
    through combiner partials; the float64 finish expression is mirrored
    operation-for-operation in SQL ⇒ bitwise before ROUND(…, 6)."""
    from infidex_ray.ops.agg import grouped_skewness

    return _by(
        grouped_skewness(_read(sf_dir, "lineitem"), "l_returnflag", "l_quantity"),
        "l_returnflag",
    )


def _q_group_checksum(sf_dir: str):
    """Order-free per-lang content checksum over documents
    (ops/profile.py::group_checksum): per-row md5_number_lower of the
    '|'-joined rendered columns mod 2^62, XOR-folded per group — XOR
    partials merge exactly in any order, so the result is independent of
    row order / partitioning (the snapshot-integrity primitive)."""
    from infidex_ray.ops.profile import group_checksum

    return _by(
        group_checksum(
            _read(sf_dir, "documents"), "lang", ["doc_id", "source", "n_chars"]
        ),
        "lang",
    )


def _q_pareto_frontier(sf_dir: str):
    """Per-returnflag 2-D skyline of (quantity, price) maximized
    (ops/pareto.py::pareto_frontier): per-block partial skylines (perfect
    combiner) → one coarse key-slice shuffle; kept rows are ORIGINAL input
    rows, so no float arithmetic can diverge from the run-decomposition
    SQL oracle."""
    from infidex_ray.ops.pareto import pareto_frontier

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity", "l_extendedprice"]
    )
    # the 5-tuple is the unique key of the synthetic lineitem — ordering by
    # all of it keeps the order-sensitive hash blind to tie order
    return _by(
        pareto_frontier(ds, "l_returnflag", "l_quantity", "l_extendedprice"),
        "l_orderkey",
        "l_linenumber",
        "l_returnflag",
        "l_quantity",
        "l_extendedprice",
    )


def _q_row_number_global(sf_dir: str):
    """Distributed zipWithIndex (ops/ranking.py::row_number_global): one
    global sort on a TOTAL order, then O(blocks) driver scalars assign
    block offsets — exact int64 row numbers, bitwise == row_number()."""
    from infidex_ray.ops.ranking import row_number_global

    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_quantity"]
    )
    # (l_orderkey, l_linenumber) is NOT unique in the synthetic lineitem —
    # order by all three output columns so tied rows are IDENTICAL rows and
    # any tie order yields the same table under the order-sensitive hash.
    return _by(
        row_number_global(ds, ["l_orderkey", "l_linenumber", "l_quantity"]),
        "row_number",
    )


def _q_grouped_percentile_rank(sf_dir: str):
    """Per-returnflag cume_dist of quantity
    (ops/ranking.py::grouped_percentile_rank): one md5 key-slice shuffle,
    ranks vectorized per slice; exact ≤-count / group-size ratio ⇒ bitwise
    == the SQL window."""
    from infidex_ray.ops.ranking import grouped_percentile_rank

    return _by(
        grouped_percentile_rank(
            _read(sf_dir, "lineitem"),
            "l_returnflag",
            "l_quantity",
            ["l_orderkey", "l_linenumber"],
        ),
        # (l_orderkey, l_linenumber) is NOT unique in the synthetic
        # lineitem — order by the full tuple so the order-sensitive hash
        # can't see tie-order differences (cume_dist is a function of
        # (returnflag, quantity), so equal tuples carry equal ranks).
        "l_orderkey",
        "l_linenumber",
        "l_returnflag",
        "l_quantity",
    )


def _q_ewma(sf_dir: str):
    """Per-user EWMA of event values over time order
    (ops/windows.py::ewma): recurrence runs vectorized across keys one
    time-position per numpy step; literal op sequence mirrored by a
    rank-stepping recursive CTE ⇒ bitwise float64."""
    from infidex_ray.ops.windows import ewma

    return _by(
        ewma(_read(sf_dir, "events"), "user_id", "ts", "value", "event_id"),
        "user_id",
        "i",
    )


def _q_rolling_active_users(sf_dir: str):
    """Trailing 7-day distinct active users per observed day
    (ops/windows.py::rolling_active_users): distinct (user, day) partials
    → one user-slice shuffle → per-day count partials → day-slice merge;
    exact integer counts."""
    from infidex_ray.ops.windows import rolling_active_users

    return _by(
        rolling_active_users(_read(sf_dir, "events"), "user_id", "ts", 7),
        "day",
    )


def _q_grouped_trimmed_mean(sf_dir: str):
    """Per-returnflag 10%-trimmed mean of quantity
    (ops/agg.py::grouped_trimmed_mean): integer trim counts
    (n*ppm // 1e6), exact int64 kept-sum, one mirrored float division ⇒
    bitwise."""
    from infidex_ray.ops.agg import grouped_trimmed_mean

    return _by(
        grouped_trimmed_mean(
            _read(sf_dir, "lineitem"), "l_returnflag", "l_quantity"
        ),
        "l_returnflag",
    )


def _q_time_weighted_avg(sf_dir: str):
    """Per-user time-weighted average of the event value signal
    (ops/windows.py::time_weighted_avg): cent-snapped int64 weighted sums
    over exact microsecond durations, two mirrored divisions ⇒ bitwise vs
    the lead()-window oracle."""
    from infidex_ray.ops.windows import time_weighted_avg

    return _by(
        time_weighted_avg(
            _read(sf_dir, "events"), "user_id", "ts", "value", "event_id"
        ),
        "user_id",
    )


def _q_grouped_rate_bounds(sf_dir: str):
    """Per-user purchase-rate Wilson score interval
    (ops/agg.py::grouped_rate_bounds): exact int64 (n, k) through combiner
    partials; fixed-order float finish with IEEE-exact sqrt mirrored in
    layered CTEs ⇒ bitwise."""
    import pyarrow.compute as pc

    from infidex_ray.ops.agg import grouped_rate_bounds

    def addflag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "flag": pc.equal(b["event_type"], "purchase"),
            }
        )

    ev = (
        _read(sf_dir, "events")
        .select_columns(["user_id", "event_type"])
        .map_batches(addflag, batch_format="pyarrow")
    )
    return _by(grouped_rate_bounds(ev, "user_id", "flag"), "user_id")


def _q_jaccard_join(sf_dir: str):
    """Cross-corpus exact Jaccard similarity join (ops/dedup.py::
    jaccard_join): even doc_ids play the existing corpus, odd the new
    crawl; side rides the id's low bit through ONE AllPairs prefix-filter
    pipeline, intra-side candidates dropped pre-verify. Oracle = all-pairs
    cross-parity ground truth (lossless by the prefix-filter proof)."""
    import numpy as np

    from infidex_ray.ops.dedup import jaccard_join

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def side(parity: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % 2 == parity))

        return fn

    left = docs.map_batches(side(0), batch_format="pyarrow")
    right = docs.map_batches(side(1), batch_format="pyarrow")
    return _by(jaccard_join(left, right, threshold=0.4), "id_left", "id_right")


_ENTITY_NAMES = ["Alice", "Bob", "Carol", "Dave", "Eve", "Frank", "Grace"]

# shared CTE chain for the image-dHash oracles: planted triple blobs
# ('img:' || doc_id // 3) → md5-derived 8×9 pixel grid → 64-bit dHash →
# 4-block pigeonhole candidates → exact Hamming (ends with `hm`)
_IMAGE_DHASH_PAIR_CTES = (
    "b AS (SELECT doc_id, md5('img:' || "
    "CAST(doc_id // 3 AS VARCHAR)) AS hx FROM documents), "
    "px AS (SELECT doc_id, i, CAST(md5_number_lower(hx || ':' || "
    "CAST(i AS VARCHAR)) % 256 AS BIGINT) AS p FROM b CROSS JOIN "
    "(SELECT unnest(generate_series(0, 71)) AS i)), "
    "bits AS (SELECT a.doc_id, (a.i // 9) * 8 + (a.i % 9) AS bp, "
    "CASE WHEN nb.p > a.p THEN 1 ELSE 0 END AS bit FROM px a "
    "JOIN px nb ON nb.doc_id = a.doc_id AND nb.i = a.i + 1 "
    "WHERE a.i % 9 < 8), "
    "s AS (SELECT doc_id, sum(CASE WHEN bit = 1 THEN "
    "CAST(1 AS HUGEINT) << bp ELSE CAST(0 AS HUGEINT) END) AS u "
    "FROM bits GROUP BY doc_id), "
    "v AS (SELECT doc_id, CAST(CASE WHEN u >= "
    "CAST('9223372036854775808' AS HUGEINT) THEN u - "
    "CAST('18446744073709551616' AS HUGEINT) ELSE u END AS BIGINT) "
    "AS h FROM s), "
    "bl AS (SELECT doc_id, h, k, (h >> (16 * k)) & 65535 AS key "
    "FROM v CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k)), "
    "cand AS (SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b "
    "FROM bl a JOIN bl b ON a.k = b.k AND a.key = b.key "
    "AND a.doc_id < b.doc_id), "
    "hm AS (SELECT c.id_a, c.id_b, bit_count(xor(va.h, vb.h)) AS "
    "hamming FROM cand c JOIN v va ON va.doc_id = c.id_a "
    "JOIN v vb ON vb.doc_id = c.id_b)"
)


def _q_entity_cooccurrence(sf_dir: str):
    """Entity co-mention graph (ops/entities.py::entity_cooccurrence):
    capitalized-word mentions → per-doc distinct → in-doc pair expansion →
    one pair-slice count shuffle. The lowercase synthetic corpus PLANTS
    three deterministic entity mentions per doc via the same append
    expression on both engines (the sitemap_urls planting pattern)."""
    from infidex_ray.ops.entities import entity_cooccurrence

    names = _ENTITY_NAMES

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        txt = batch["text"].to_pylist()
        planted = [
            (t or "")
            + f" {names[d % 7]} {names[(d * 3 + 1) % 7]} {names[(d * 5 + 2) % 7]}"
            for t, d in zip(txt, ids)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(planted, pa.string()),
            }
        )

    docs = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(
        entity_cooccurrence(docs, min_count=2), "ent_a", "ent_b"
    )


def _q_image_dhash(sf_dir: str):
    """Perceptual image hashing plumbing (ops/multimodal.py::image_dhash,
    actor pool): fake=True pins the md5-derived 8×9 pixel grid so DuckDB
    recomputes every BIT of the 64-bit dHash (the image_meta convention —
    real decode paths are pytest-locked)."""
    from infidex_ray.ops.multimodal import image_dhash

    def synth(batch: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    return _by(image_dhash(ds, fake=True), "doc_id")


def _q_image_dup_pairs(sf_dir: str):
    """Image near-dup pairs (ops/multimodal.py::image_dup_pairs): dHash →
    the shared SimHash pigeonhole Hamming engine. Fixture plants exact
    triples (blob = 'img:' || doc_id // 3); the oracle recomputes hashes
    bit-for-bit and mirrors the provably-complete 4-block candidate join
    with bit_count(xor(...)) verification."""
    from infidex_ray.ops.multimodal import image_dup_pairs

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [f"img:{d // 3}".encode("utf-8") for d in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    return _by(image_dup_pairs(ds, max_hamming=3, fake=True), "id_a", "id_b")


def _q_audio_fingerprint(sf_dir: str):
    """Audio energy-contour fingerprints (ops/multimodal.py::
    audio_fingerprint, actor pool): fake=True pins md5-derived window
    energies so DuckDB recomputes every bit; the stdlib-wave real path is
    pytest-locked."""
    from infidex_ray.ops.multimodal import audio_fingerprint

    def synth(batch: pa.Table) -> pa.Table:
        blobs = [(t or "").encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    return _by(audio_fingerprint(ds, fake=True), "doc_id")


def _q_audio_dup_pairs(sf_dir: str):
    """Audio near-dup pairs: fingerprints through the shared pigeonhole
    Hamming engine; fixture plants exact triples (blob = 'aud:' ||
    doc_id // 3), oracle mirrors the provably-complete 4-block join."""
    from infidex_ray.ops.multimodal import audio_dup_pairs

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [f"aud:{d // 3}".encode("utf-8") for d in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    return _by(audio_dup_pairs(ds, max_hamming=3, fake=True), "id_a", "id_b")


def _q_image_dedup_corpus(sf_dir: str):
    """End-to-end image near-dedup (ops/multimodal.py::image_dedup_corpus):
    dHash pairs → label-prop components → anti-join keeps one
    representative per perceptual cluster; oracle = recursive transitive
    closure over the bit-recomputed pair graph."""
    from infidex_ray.ops.multimodal import image_dedup_corpus

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [f"img:{d // 3}".encode("utf-8") for d in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    ds = _read(sf_dir, "documents").map_batches(synth, batch_format="pyarrow")
    kept = image_dedup_corpus(ds, max_hamming=3, fake=True)
    return _by(kept.select_columns(["doc_id"]), "doc_id")


def _q_median_streaming(sf_dir: str):
    """Per-returnflag exact median WITHOUT sort or group materialization
    (ops/agg.py::median_streaming): iterative bucket-count passes narrow
    each group's two middle order statistics ×65536 per scan — the
    100-TB-honest path next to grouped_mad's in-group-sort baseline."""
    from infidex_ray.ops.agg import median_streaming

    return _by(
        median_streaming(_read(sf_dir, "lineitem"), "l_returnflag", "l_quantity"),
        "l_returnflag",
    )


def _q_shard_balance(sf_dir: str):
    """Ring-placement balance report (ops/shuffle.py::shard_balance):
    per-shard counts over the consistent-hash assignment + exact load
    factors; zero-key shards included."""
    from infidex_ray.ops.shuffle import shard_balance

    ds = _read(sf_dir, "documents").select_columns(["doc_id"])
    return shard_balance(ds, "doc_id", n_shards=8, replicas=16)


def _q_consistent_shard(sf_dir: str):
    """Consistent-hash ring placement (ops/shuffle.py::consistent_shard):
    md5 ring points, first-point-≥-key routing with wrap; exact ints ⇒
    the DuckDB oracle replays every assignment."""
    from infidex_ray.ops.shuffle import consistent_shard

    ds = _read(sf_dir, "documents").select_columns(["doc_id"])
    return _by(consistent_shard(ds, "doc_id", n_shards=8, replicas=16), "doc_id")


# --- multifield + synonyms serving parity (VERDICT r4 item 8) ---------------
# Planted fielded corpus: title (weight 3) / body (weight 1), synonyms
# car/automobile/auto. Integer weights keep Term.FirstCycleAdd's stepwise
# banker's rounding exact-integer, so the weighted tf is SQL-expressible
# (sqlgen.fielded_shared_ctes). Texts are lowercase single-space ASCII —
# normalize() is the identity, positions are stable.
_MF_TITLES = [
    "grand automobile fair",
    "blue lake resort",
    "stone river lodge",
    "green valley inn",
]
_MF_BODIES = [
    "family car museum with vintage engines",
    "auto repair and service center",
    "calm waters and quiet shores",
    "historic lodge near the stone bridge",
    "valley trails with green meadows",
]
_MF_SYNONYMS = (("car", "automobile", "auto"),)
_MF_WEIGHTS = (3.0, 1.0, 1.0)
MULTIFIELD_PANEL = [
    "automobile fair",
    "auto repair",
    "stone bridge",
    "q420 lake",
    "green valley",
]
_MF_ENGINE_CACHE: dict = {}


def _mf_concats():
    """(canonical concat, raw title length) per doc_id % 20 combo. The
    build canonicalizes AFTER '§' concatenation (a synonym glued across
    the boundary never matches) while boundaries keep the RAW title
    length — both quirks mirrored here (sqlgen.fielded_shared_ctes)."""
    from infidex_ray.synonyms import SynonymMap

    cfg = EngineConfig()
    smap = SynonymMap(_MF_SYNONYMS)
    delims = frozenset(cfg.delimiters)
    concats, l1s = [], []
    for k in range(len(_MF_TITLES) * len(_MF_BODIES)):
        title = _MF_TITLES[k % len(_MF_TITLES)]
        body = _MF_BODIES[k % len(_MF_BODIES)]
        concats.append(
            smap.canonicalize_text((title + "§" + body).lower(), delims)
        )
        l1s.append(len(title))
    return concats, l1s


def _mf_engine_for(sf_dir: str):
    eng = _MF_ENGINE_CACHE.get(sf_dir)
    if eng is None:
        from infidex_ray.engine import Engine

        def plant(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_pylist()
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "title": pa.array(
                        [_MF_TITLES[d % len(_MF_TITLES)] for d in ids]
                    ),
                    "body": pa.array(
                        [
                            _MF_BODIES[d % len(_MF_BODIES)] + f" q{d}"
                            for d in ids
                        ]
                    ),
                }
            )

        out = os.path.join(
            "/tmp/infidex_ray_idx",
            sf_dir.strip("/").replace("/", "_") + "_mf_v1",
        )
        cfg = EngineConfig(
            target_docs_per_segment=2000,
            field_weights=_MF_WEIGHTS,
            synonyms=_MF_SYNONYMS,
        )
        ds = (
            _read(sf_dir, "documents")
            .select_columns(["doc_id"])
            .map_batches(plant, batch_format="pyarrow")
        )
        eng = Engine.build(
            ds, out, cfg, key_column="doc_id",
            text_fields=(("title", 0), ("body", 1)),
        )
        _MF_ENGINE_CACHE[sf_dir] = eng
    return eng


def _mf_panel_tokens():
    """(query, tokens) with the engine's normalize → synonym-canonicalize →
    tokenize order (``Engine.prep_query``), on the text stage 1 scores
    (``stage1_text``: long words only for a mixed query)."""
    from infidex_ray.analyzer import normalize_with, tokenize_for_search
    from infidex_ray.engine import stage1_text
    from infidex_ray.synonyms import SynonymMap

    cfg = EngineConfig()
    smap = SynonymMap(_MF_SYNONYMS)
    delims = frozenset(cfg.delimiters)
    out = []
    for q in MULTIFIELD_PANEL:
        qn = normalize_with(cfg.normalizer, q.strip(), is_query=True).lower()
        qc = smap.canonicalize_text(qn, delims)
        qc = stage1_text(qc, cfg) or qc
        out.append(
            (
                q,
                tokenize_for_search(
                    qc,
                    cfg.index_sizes,
                    cfg.start_pad_size,
                    cfg.stop_pad_size,
                    cfg.delimiters,
                ),
            )
        )
    return out


def _mf_rows(eng, search_fn) -> pa.Table:
    """Entry emitter like _stage1_rows, but canonicalizing the query before
    the float64 score surface (bm25_all_scores doesn't apply synonyms)."""
    from infidex_ray.analyzer import normalize_with
    from infidex_ray.synonyms import SynonymMap

    cfg = eng.cfg
    smap = SynonymMap(_MF_SYNONYMS)
    delims = frozenset(cfg.delimiters)
    rows = {"query": [], "rank": [], "doc_id": [], "score": []}
    for q in sorted(MULTIFIELD_PANEL):
        qn = normalize_with(cfg.normalizer, q.strip(), is_query=True).lower()
        smap_q = smap.canonicalize_text(qn, delims)
        fmap = dict(eng.bm25_all_scores(smap_q, include_fuzzy=True))
        for r, hit in enumerate(search_fn(q)):
            rows["query"].append(q)
            rows["rank"].append(r + 1)
            rows["doc_id"].append(hit.doc_key)
            rows["score"].append(round_half_up4(fmap[hit.doc_key]))
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
        }
    )


def _q_multifield_search(sf_dir: str):
    """Multifield + synonyms BM25 serving (in-process): field-weighted tf,
    '§' concatenation quirks, synonym canonicalization at build AND query
    — all hash-checked against the fielded stage-1 oracle."""
    eng = _mf_engine_for(sf_dir)
    return _mf_rows(
        eng, lambda q: eng.search(q, top_k=10, enable_coverage=False)
    )


def _q_multifield_search_distributed(sf_dir: str):
    """The same fielded corpus served through the shard actor pool — the
    serving config most users run (VERDICT r4 item 8)."""
    from infidex_ray.query.executor import DistributedEngine

    eng = _mf_engine_for(sf_dir)
    deng = DistributedEngine.connect(eng.index_dir, num_shards=2, warm=False)
    try:
        return _mf_rows(
            eng, lambda q: deng.search(q, top_k=10, enable_coverage=False)
        )
    finally:
        deng.shutdown()


def _q_resample_locf(sf_dir: str):
    """Per-user LOCF resampling onto a 1-day grid (ops/windows.py::
    resample_locf): last event value carried forward to each grid point
    within the user's span; md5 key-slice shuffle, vectorized grid +
    searchsorted. Oracle: per-grid-point row_number over eligible events."""
    from infidex_ray.ops.windows import resample_locf

    return _by(
        resample_locf(_read(sf_dir, "events"), step_us=86_400_000_000),
        "user_id",
        "grid_us",
    )


def _scc_planted_edges(sf_dir: str):
    """Planted directed ring graph shared by the scc / bowtie entries:
    nodes = doc_id % 210 — 30 seven-node cycles plus cross edges that may
    merge them."""
    import numpy as np

    def plant(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        v = d % 210
        srcs, dsts = [], []
        m = v % 7 != 6
        srcs.append(v[m]); dsts.append((v[m] + 1) % 210)
        m = v % 7 == 6
        srcs.append(v[m]); dsts.append(v[m] - 6)
        m = v % 17 == 0
        srcs.append(v[m]); dsts.append((v[m] * 13 + 5) % 210)
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs), pa.int64()),
                "dst": pa.array(np.concatenate(dsts), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )


def _q_scc(sf_dir: str):
    """Strongly connected components (ops/graph.py::scc) over the planted
    ring graph. Oracle: recursive-CTE transitive closure, scc_id = min
    mutually-reachable node."""
    from infidex_ray.ops.graph import scc

    return _by(scc(_scc_planted_edges(sf_dir)), "node")


def _q_bowtie(sf_dir: str):
    """Broder bow-tie decomposition (ops/graph.py::bowtie): core = largest
    SCC, in/out via BFS from the core, tendril via weak attachment —
    composed from scc + bfs_levels + connected_components, all
    Dataset-resident. Oracle: the scc closure extended with forward/
    backward/undirected reachability."""
    from infidex_ray.ops.graph import bowtie

    return _by(bowtie(_scc_planted_edges(sf_dir)), "node")


def _q_jaro_winkler_pairs(sf_dir: str):
    """Sorted-neighborhood record linkage on customer names scored by
    Jaro-Winkler (bitwise-identical to DuckDB's native function — the
    threshold filter and rounded score hash-check exactly)."""
    from infidex_ray.ops.fuzzy import jaro_winkler_pairs

    return _by(
        jaro_winkler_pairs(
            _read(sf_dir, "customer"),
            "c_name",
            id_col="c_custkey",
            window=3,
            threshold=0.93,
        ),
        "id_a",
        "id_b",
    )


def _q_autocomplete_score(sf_dir: str):
    """LCS Jaro-like autocomplete scoring over every doc's candidate
    prefix (AutocompleteScoring.cs:26-70 parity; the batch form of
    query/metrics.jaro_like_score). Oracle runs the same Hyyrö automaton
    as a recursive CTE (sqlgen.autocomplete_sql)."""
    from infidex_ray.ops.autocomplete import autocomplete_score

    return _by(
        autocomplete_score(_read(sf_dir, "documents"), "merge sort"),
        "doc_id",
    )


def _q_packed_lcs(sf_dir: str):
    """Multi-word packed bit-parallel LCS scoring (PackedBitParallelLcs.
    cs:81-274 parity): one boundary-masked 64-bit automaton sweep scores
    all query words per doc. Oracle = the same automaton as a recursive
    CTE (sqlgen.packed_lcs_sql)."""
    from infidex_ray.ops.autocomplete import packed_lcs_score

    return _by(
        packed_lcs_score(
            _read(sf_dir, "documents"), ["merge", "sort", "quick"]
        ),
        "doc_id",
    )


def _q_char_jaccard(sf_dir: str):
    """Character-frequency and char-set Jaccard of every doc vs a fixed
    query (JaccardMetric.cs:66-134 parity; batch form of query/metrics.
    jaccard_of_all_chars / jaccard_of_char_set)."""
    from infidex_ray.ops.charmetrics import char_jaccard

    return _by(
        char_jaccard(_read(sf_dir, "documents"), "data quality merge"),
        "doc_id",
    )


def _q_typo_budget(sf_dir: str):
    """Binomial typo-model max edit distance per corpus token length
    (EditDistanceModel.cs:49-88 parity; batch form of query/metrics.
    max_edits_for_length). Oracle steps the same CDF recurrence in a
    recursive CTE — bitwise float mirror."""
    from infidex_ray.ops.charmetrics import typo_budget

    return _by(typo_budget(_read(sf_dir, "documents")), "length")


def _q_curate_webtext(sf_dir: str):
    """The FULL flagship curation pipeline end-to-end (pipelines.
    curate_webtext): fused langid/quality/Gopher gate → exact dedup →
    MinHash near-dedup → word-3-gram decontamination vs the mod-97 bench
    split → 32-word chunking → greedy 128-token packing. Every stage is
    individually oracle-checked; this entry hash-checks the COMPOSITION
    (sqlgen.curate_webtext_sql mirrors all six stages in one statement)."""
    from infidex_ray.pipelines import curate_webtext

    ds = _read(sf_dir, "documents")
    bench = ds.map_batches(_mod97_split(True), batch_format="pyarrow")
    corpus = ds.map_batches(_mod97_split(False), batch_format="pyarrow")
    out = curate_webtext(
        corpus,
        bench=bench,
        langs=("en",),
        min_quality=0.3,
        minhash_threshold=0.5,
        chunk_words=32,
        pack_capacity=128,
        decontam_n=3,
    )
    return _by(out, "doc_id", "chunk_id")


def _q_build_frontier(sf_dir: str):
    """Whole crawl-frontier pipeline (pipelines.build_frontier): planted
    outlinks → canonicalize → URL dedup → robots gate → per-domain md5
    quota → politeness order. The oracle regenerates the expected URL set
    arithmetically (the domain_stats planting convention — extraction +
    canonicalization equivalence is separately oracle-checked by
    html_links / canonical_url) and mirrors quota + politeness exactly."""
    from infidex_ray.ops.robots import parse_robots_txt
    from infidex_ray.pipelines import build_frontier

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        htmls = []
        for d in ids:
            links = "".join(
                f'<a href="HTTP://Site{d % 5}.example.com/p/{j}'
                f'?utm_source=x#frag">t</a>'
                for j in range(1, d % 3 + 2)
            )
            links += (
                f'<a href="http://site{d % 5}.example.com/private/{d}">x</a>'
            )
            htmls.append(f"<html>{links}</html>")
        return pa.table(
            {"doc_id": batch["doc_id"], "html": pa.array(htmls, pa.string())}
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )
    rules = parse_robots_txt("User-agent: *\nDisallow: /private/\n")
    return _by(
        build_frontier(ds, robots_rules=rules, max_per_domain=2), "crawl_pos"
    )


def _q_grouped_gini(sf_dir: str):
    """Per-language Gini coefficient of document lengths
    (ops/agg.py::grouped_gini): exact int64 rank-weighted sums through one
    key-slice pass (ties rank-invariant); one mirrored division ⇒
    bitwise."""
    from infidex_ray.ops.agg import grouped_gini

    return _by(
        grouped_gini(_read(sf_dir, "documents"), "lang", "n_chars"), "lang"
    )


def _q_grouped_topk_share(sf_dir: str):
    """Per-language top-3-source concentration share
    (ops/agg.py::grouped_topk_share): combiner counts → one group-slice
    ranking pass; exact int64 sums, one division ⇒ bitwise."""
    from infidex_ray.ops.agg import grouped_topk_share

    return _by(
        grouped_topk_share(_read(sf_dir, "documents"), "lang", "source", k=3),
        "lang",
    )


def _q_doc_novelty(sf_dir: str):
    """Per-doc novelty = fraction of word-shingles with corpus df = 1
    (ops/dedup.py::doc_novelty, jaccard_prefix stages reused): exact
    integer ratio; hash-vs-string shingle identity as in every Jaccard
    oracle."""
    from infidex_ray.ops.dedup import doc_novelty

    return _by(doc_novelty(_read(sf_dir, "documents")), "doc_id")


def _q_weighted_median(sf_dir: str):
    """Per-returnflag LOWER weighted median of quantity weighted by line
    number (ops/agg.py::weighted_median_streaming): cumulative-weight rank
    search on the bucket-count engine; exact ints == the window oracle."""
    from infidex_ray.ops.agg import weighted_median_streaming

    return _by(
        weighted_median_streaming(
            _read(sf_dir, "lineitem"), "l_returnflag", "l_quantity",
            "l_linenumber",
        ),
        "l_returnflag",
    )


def _q_quantiles_streaming(sf_dir: str):
    """Per-language exact quantiles WITHOUT per-group sorts
    (ops/agg.py::quantiles_streaming): all groups × quantiles × both
    straddling order statistics resolved in the same ≤4 bucket-count
    scans; group_quantiles' column/rounding contract."""
    from infidex_ray.ops.agg import quantiles_streaming

    return _by(
        quantiles_streaming(_read(sf_dir, "documents"), "lang", "n_chars"),
        "lang",
    )


def _q_retrieval_rank_eval(sf_dir: str):
    """MRR / precision@k / recall@k of labeled ANN retrieval
    (ops/similarity.py::retrieval_rank_eval, ndcg's physical plan): exact
    integer ratios ⇒ bitwise vs the window oracle."""
    from infidex_ray.ops.similarity import retrieval_rank_eval

    return retrieval_rank_eval(_read(sf_dir, "embeddings"), n_queries=5, k=10)


def _q_dedup_pair_eval(sf_dir: str):
    """Candidate-pair evaluation harness (ops/similarity.py::pair_eval):
    precision/recall/F1 of the image dHash Hamming matcher against the
    exact same-payload ground truth (planted triples); exact int64
    confusion counts through one pair-slice groupby, mirrored float
    metrics ⇒ bitwise."""
    import ray.data

    from infidex_ray.ops.multimodal import image_dup_pairs
    from infidex_ray.ops.similarity import pair_eval

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [f"img:{d // 3}".encode("utf-8") for d in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    def truth_pairs(batch: pa.Table) -> pa.Table:
        ids = np.sort(batch["doc_id"].to_numpy(zero_copy_only=False))
        groups: dict = {}
        for d in ids:
            groups.setdefault(int(d) // 3, []).append(int(d))
        a, b = [], []
        for members in groups.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a.append(members[i])
                    b.append(members[j])
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
            }
        )

    docs = _read(sf_dir, "documents")
    ds = docs.map_batches(synth, batch_format="pyarrow")
    pred = image_dup_pairs(ds, max_hamming=3, fake=True)
    # truth needs all of a triple together: single partition is fine for
    # the fixture (truth generation is test scaffolding, not the op)
    truth = docs.select_columns(["doc_id"]).repartition(1).map_batches(
        truth_pairs, batch_format="pyarrow"
    )
    return pair_eval(pred, truth)


def _q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood record-linkage blocking (ops/joins.py::
    sorted_neighborhood_pairs): merge/purge candidate pairs within window
    2 under the (n_chars, doc_id) blocking key; one sort + O(blocks·w)
    boundary rows to the driver; exact positions == row_number() join."""
    from infidex_ray.ops.joins import sorted_neighborhood_pairs

    ds = _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"])
    return _by(
        sorted_neighborhood_pairs(ds, "n_chars", "doc_id", window=2),
        "id_a",
        "id_b",
    )


def _q_politeness_order(sf_dir: str):
    """Politeness-interleaved crawl frontier ordering
    (ops/urls.py::politeness_order): within-domain ranks via one
    domain-slice pass, global position via row_number_global's
    sorted-block prefix machinery; exact ints == the nested row_number()
    oracle. Fixture plants the domain_stats URL scheme."""
    from infidex_ray.ops.urls import politeness_order

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "domain": pa.array(
                    [f"site{d % 37}.example.com" for d in ids], pa.string()
                ),
                "url": pa.array(
                    [
                        f"http://site{d % 37}.example.com/page/{d}"
                        for d in ids
                    ],
                    pa.string(),
                ),
            }
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
    )
    return _by(politeness_order(ds), "crawl_pos")


def _q_token_spectrum(sf_dir: str):
    """Corpus frequency spectrum + Good-Turing adjusted counts
    (ops/textstats.py::token_spectrum): token-slice count merge → per-slice
    count-of-counts partials → spectrum-sized driver merge; exact ints,
    one mirrored float expression for r*."""
    from infidex_ray.ops.textstats import token_spectrum

    return token_spectrum(_read(sf_dir, "documents"))


def _q_token_burstiness(sf_dir: str):
    """Per-token variance-to-mean burstiness (Church-Gale content-word
    signal; ops/textstats.py::token_burstiness): exact int64 (df, Σc, Σc²)
    per-batch run partials → token-slice merge; mirrored float finish."""
    from infidex_ray.ops.textstats import token_burstiness

    return _by(
        token_burstiness(_read(sf_dir, "documents"), min_df=2), "token"
    )


def _q_kmv_set_ops(sf_dir: str):
    """Pairwise distinct-user union/intersection estimates across event
    types via mergeable KMV sketch algebra (ops/sketches.py::kmv_set_ops,
    k=64): every estimate is a fixed float expression over integer hashes
    ⇒ DuckDB reproduces the approximation error bit-for-bit."""
    from infidex_ray.ops.sketches import kmv_set_ops

    return _by(
        kmv_set_ops(_read(sf_dir, "events"), "event_type", "user_id", k=64),
        "src_a",
        "src_b",
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "normalize_text": _q_normalize,
        "term_df": _q_term_df,
        "word_df": _q_word_df,
        "doc_lengths": _q_doc_len,
        "bm25_scores": _q_bm25,
        "search_topk": _q_search_topk,
        "search_topk_bm25": _q_search_topk_bm25,
        "batch_search": _q_batch_search,
        "batch_search_sharded": _q_batch_search_sharded,
        "cluster_sizes": _q_cluster_sizes,
        "percolate": _q_percolate,
        "snippet_extract": _q_snippet_extract,
        "spell_suggest": _q_spell_suggest,
        "prefix_suggest": _q_prefix_suggest,
        "vocab_growth": _q_vocab_growth,
        "search_topk_bm25_distributed": _q_search_topk_bm25_distributed,
        "exact_dedup": _q_exact_dedup,
        "ngram_jaccard_pairs": _q_ngram_jaccard,
        "minhash_lsh_pairs": _q_minhash,
        "simhash_pairs": _q_simhash,
        "embedding_dup_pairs": _q_emb_dup,
        "embedding_dup_pairs_lsh": _q_emb_dup_lsh,
        "dedup_corpus": _q_dedup_corpus,
        "dedup_corpus_exact": _q_dedup_corpus_exact,
        "embedding_dedup_corpus": _q_embedding_dedup_corpus,
        "html_extract": _q_html_extract,
        "image_features": _q_image_features,
        "knn_cosine": _q_knn,
        "knn_graph": _q_knn_graph,
        "knn_graph_lsh": _q_knn_graph_lsh,
        "ivf_knn": _q_ivf_knn,
        "ivf_knn_pruned": _q_ivf_knn_pruned,
        "lsh_knn": _q_lsh_knn,
        "token_stats": _q_token_stats,
        "token_count": _q_token_count,
        "gopher_rules": _q_gopher,
        "boilerplate_removal": _q_boilerplate,
        "quality_score": _q_quality,
        "langid": _q_langid,
        "doc_fingerprint": _q_fingerprint,
        "lang_distribution": _q_lang_dist,
        "infiscript_filter": _q_infiscript_filter,
        "infiscript_rowfilter": _q_infiscript_rowfilter,
        "facet_counts": _q_facets,
        "facet_counts_offline": _q_facets_offline,
        "search_topk_distributed": _q_search_topk_distributed,
        "sessionize": _q_sessionize,
        "window_agg": _q_window_agg,
        "char_entropy": _q_char_entropy,
        "collocations": _q_collocations,
        "event_order": _q_event_order,
        "dedup_lines": _q_dedup_lines,
        "sample_hash": _q_sample_hash,
        "heavy_hitters": _q_heavy_hitters,
        "asof_join": _q_asof_join,
        "range_join": _q_range_join,
        "top_k_per_group": _q_top_k_per_group,
        "group_quantiles": _q_group_quantiles,
        "decontaminate": _q_decontaminate,
        "chunk_text": _q_chunk_text,
        "repetition_signals": _q_repetition_signals,
        "pii_redact": _q_pii_redact,
        "sample_split": _q_sample_split,
        "json_extract": _q_json_extract,
        "pack_sequences": _q_pack_sequences,
        "url_parse": _q_url_parse,
        "stratified_sample": _q_stratified_sample,
        "temperature_mix": _q_temperature_mix,
        "weighted_sample": _q_weighted_sample,
        "hashed_bow": _q_hashed_bow,
        "domain_stats": _q_domain_stats,
        "value_histogram": _q_value_histogram,
        "unigram_lm": _q_unigram_lm,
        "bigram_lm": _q_bigram_lm,
        "dedup_against": _q_dedup_against,
        "dsir_logweights": _q_dsir_logweights,
        "approx_distinct": _q_approx_distinct,
        "approx_distinct_by": _q_approx_distinct_by,
        "dedup_against_bloom": _q_dedup_against_bloom,
        "funnel": _q_funnel,
        "cms_counts": _q_cms_counts,
        "retention": _q_retention,
        "html_links": _q_html_links,
        "anchor_text": _q_anchor_text,
        "anchor_stats": _q_anchor_stats,
        "link_in_degrees": _q_link_in_degrees,
        "tfidf_keywords": _q_tfidf_keywords,
        "pagerank": _q_pagerank,
        "connected_components": _q_connected_components,
        "mix_corpora": _q_mix_corpora,
        "ngram_containment_pairs": _q_ngram_containment,
        "phrase_scan": _q_phrase_scan,
        "profile_columns": _q_profile_columns,
        "hopping_window": _q_hopping_window,
        "frame_sample": _q_frame_sample,
        "audio_features": _q_audio_features,
        "canonical_url": _q_canonical_url,
        "duplicate_spans": _q_duplicate_spans,
        "kmeans_embeddings": _q_kmeans,
        "embedding_outliers": _q_embedding_outliers,
        "semantic_dedup": _q_semantic_dedup,
        "script_profile": _q_script_profile,
        "split_sentences": _q_split_sentences,
        "dedup_against_minhash": _q_dedup_against_minhash,
        "quantize_embeddings": _q_quantize_embeddings,
        "readability": _q_readability,
        "keep_latest": _q_keep_latest,
        "corpus_overlap": _q_corpus_overlap,
        "linear_score": _q_linear_score,
        "snapshot_diff": _q_snapshot_diff,
        "margin_mine": _q_margin_mine,
        "budget_select": _q_budget_select,
        "code_detect": _q_code_detect,
        "image_meta": _q_image_meta,
        "keep_earliest": _q_keep_earliest,
        "knn_recall": _q_knn_recall,
        "broadcast_join": _q_broadcast_join,
        "grouped_agg": _q_grouped_agg,
        "drop_frequent_lines": _q_drop_frequent_lines,
        "rrf_fuse": _q_rrf_fuse,
        "collocations_unigram": _q_collocations_unigram,
        "grouped_corr": _q_grouped_corr,
        "deterministic_shuffle": _q_deterministic_shuffle,
        "embedding_covariance": _q_embedding_covariance,
        "percentile_rank": _q_percentile_rank,
        "ntile_bucket": _q_ntile_bucket,
        "winsorize": _q_winsorize,
        "zscore_features": _q_zscore_features,
        "vocab_coverage": _q_vocab_coverage,
        "corpus_drift": _q_corpus_drift,
        "grouped_distinct": _q_grouped_distinct,
        "grouped_rollup": _q_grouped_rollup,
        "rolling_window": _q_rolling_window,
        "dedup_lines_within": _q_dedup_lines_within,
        "fuzzy_pairs": _q_fuzzy_pairs,
        "kmv_distinct": _q_kmv_distinct,
        "bloom_membership": _q_bloom_membership,
        "priority_sample": _q_priority_sample,
        "contamination_report": _q_contamination_report,
        "fuzzy_key_clusters": _q_fuzzy_key_clusters,
        "hash_join_full": _q_hash_join_full,
        "pivot_table": _q_pivot,
        "unpivot_long": _q_unpivot,
        "quota_sample": _q_quota_sample,
        "pq_knn": _q_pq_knn,
        "dedup_paragraphs": _q_dedup_paragraphs,
        "grouped_mode": _q_grouped_mode,
        "lag_values": _q_lag_values,
        "ivf_pq_knn": _q_ivf_pq_knn,
        "ngram_freq": _q_ngram_freq,
        "html_density": _q_html_density,
        "knn_label_precision": _q_knn_label_precision,
        "triangle_count": _q_triangle_count,
        "link_prediction": _q_link_prediction,
        "state_durations": _q_state_durations,
        "period_compare": _q_period_compare,
        "benford_deviation": _q_benford_deviation,
        "constraint_check": _q_constraint_check,
        "ngram_diversity": _q_ngram_diversity,
        "grouped_ols": _q_grouped_ols,
        "activity_streaks": _q_activity_streaks,
        "revenue_by_nation": _q_revenue_by_nation,
        "order_priority_counts": _q_order_priority_counts,
        "top_customer_revenue": _q_top_customer_revenue,
        "token_label_chi2": _q_token_label_chi2,
        "warc_extract": _q_warc_extract,
        "robots_gate": _q_robots_gate,
        "grouped_cube": _q_grouped_cube,
        "unicode_nfc": _q_unicode_nfc,
        "grouped_mad": _q_grouped_mad,
        "hits_scores": _q_hits_scores,
        "bfs_levels": _q_bfs_levels,
        "event_transitions": _q_event_transitions,
        "grouped_variance": _q_grouped_variance,
        "zorder_key": _q_zorder_key,
        "jaccard_prefix_pairs": _q_jaccard_prefix,
        "coalesce_latest": _q_coalesce_latest,
        "k_core": _q_k_core,
        "ndcg_eval": _q_ndcg_eval,
        "grouped_hhi": _q_grouped_hhi,
        "apply_changes": _q_apply_changes,
        "merge_intervals": _q_merge_intervals,
        "grouped_string_agg": _q_grouped_string_agg,
        "sitemap_urls": _q_sitemap_urls,
        "bpe_train": _q_bpe_train,
        "bpe_encode": _q_bpe_encode,
        "spearman_corr": _q_spearman_corr,
        "grouped_skewness": _q_grouped_skewness,
        "group_checksum": _q_group_checksum,
        "pareto_frontier": _q_pareto_frontier,
        "row_number_global": _q_row_number_global,
        "grouped_percentile_rank": _q_grouped_percentile_rank,
        "ewma": _q_ewma,
        "rolling_active_users": _q_rolling_active_users,
        "grouped_trimmed_mean": _q_grouped_trimmed_mean,
        "time_weighted_avg": _q_time_weighted_avg,
        "grouped_rate_bounds": _q_grouped_rate_bounds,
        "jaccard_join": _q_jaccard_join,
        "entity_cooccurrence": _q_entity_cooccurrence,
        "image_dhash": _q_image_dhash,
        "image_dup_pairs": _q_image_dup_pairs,
        "audio_fingerprint": _q_audio_fingerprint,
        "audio_dup_pairs": _q_audio_dup_pairs,
        "kmv_set_ops": _q_kmv_set_ops,
        "image_dedup_corpus": _q_image_dedup_corpus,
        "token_spectrum": _q_token_spectrum,
        "token_burstiness": _q_token_burstiness,
        "politeness_order": _q_politeness_order,
        "sorted_neighborhood": _q_sorted_neighborhood,
        "dedup_pair_eval": _q_dedup_pair_eval,
        "retrieval_rank_eval": _q_retrieval_rank_eval,
        "median_streaming": _q_median_streaming,
        "quantiles_streaming": _q_quantiles_streaming,
        "weighted_median": _q_weighted_median,
        "doc_novelty": _q_doc_novelty,
        "grouped_topk_share": _q_grouped_topk_share,
        "grouped_gini": _q_grouped_gini,
        "build_frontier": _q_build_frontier,
        "curate_webtext": _q_curate_webtext,
        "autocomplete_score": _q_autocomplete_score,
        "packed_lcs": _q_packed_lcs,
        "char_jaccard": _q_char_jaccard,
        "typo_budget": _q_typo_budget,
        "jaro_winkler_pairs": _q_jaro_winkler_pairs,
        "scc": _q_scc,
        "resample_locf": _q_resample_locf,
        "bowtie": _q_bowtie,
        "multifield_search": _q_multifield_search,
        "multifield_search_distributed": _q_multifield_search_distributed,
        "consistent_shard": _q_consistent_shard,
        "shard_balance": _q_shard_balance,
    }


# --------------------------------------------------------------------------
# oracle SQL


def _benford_oracle() -> str:
    """Per-type Benford audit: first digit via printf('%.16e') (bitwise ==
    numpy '%' formatting), χ² against ops.agg.benford_probs_repr()'s
    repr-inlined log10 expectations, summed digit-by-digit in the
    engine's order."""
    from infidex_ray.ops.agg import benford_probs_repr

    probs = benford_probs_repr()
    d_cols = ", ".join(
        f"sum(CASE WHEN digit = {d} THEN 1 ELSE 0 END)::BIGINT AS d{d}"
        for d in range(1, 10)
    )
    terms = " + ".join(
        f"((d{d} - n_values * CAST('{p}' AS DOUBLE)) "
        f"* (d{d} - n_values * CAST('{p}' AS DOUBLE))) "
        f"/ (n_values * CAST('{p}' AS DOUBLE))"
        for d, p in zip(range(1, 10), probs)
    )
    return (
        "WITH v AS (SELECT event_type AS g, abs(value) AS x FROM events "
        "WHERE event_type IS NOT NULL AND value IS NOT NULL "
        "AND isfinite(value) AND value <> 0), "
        "d AS (SELECT g, CAST(substr(printf('%.16e', x), 1, 1) AS BIGINT) "
        "AS digit FROM v), "
        f"h AS (SELECT g, count(*)::BIGINT AS n_values, {d_cols} "
        "FROM d GROUP BY g) "
        "SELECT g AS event_type, n_values, d1, d2, d3, d4, d5, d6, d7, d8, "
        f"d9, round({terms}, 4) AS chi2 FROM h ORDER BY event_type"
    )


def oracle_sql() -> dict[str, str]:
    from infidex_ray.analyzer import normalize, tokenize_for_search

    cfg = EngineConfig()
    bm25_tokens = tokenize_for_search(
        normalize(BM25_QUERY).lower(),
        cfg.index_sizes,
        cfg.start_pad_size,
        cfg.stop_pad_size,
        cfg.delimiters,
    )
    vec_lit = "[" + ", ".join(f"{v}::DOUBLE" for v in KNN_QUERY_VEC) + "]"
    dre = sqlgen.sql_quote(sqlgen.delim_regex_class())

    return {
        "normalize_text": sqlgen.normalize_sql(),
        "term_df": sqlgen.term_df_sql(),
        "word_df": sqlgen.word_df_sql(),
        "doc_lengths": sqlgen.doc_len_sql(),
        "bm25_scores": sqlgen.bm25_sql(bm25_tokens),
        "search_topk_bm25": sqlgen.stage1_topk_sql(
            _stage1_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
        ),
        "search_topk_bm25_distributed": sqlgen.stage1_topk_sql(
            _stage1_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
        ),
        "batch_search": sqlgen.stage1_topk_sql(
            _stage1_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
        ),
        "batch_search_sharded": sqlgen.stage1_topk_sql(
            _stage1_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
        ),
        "exact_dedup": (
            "SELECT min(doc_id) AS keep_id, count(*) AS n_dupes FROM documents "
            "GROUP BY text ORDER BY keep_id"
        ),
        "knn_cosine": f"""
            SELECT 0::INT AS query_idx,
                   row_number() OVER (ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id) AS rank,
                   vec_id,
                   round(list_cosine_similarity(embedding::DOUBLE[], {vec_lit}), 4) AS cosine
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id
            LIMIT 10
        """,
        "knn_graph": """
            SELECT vec_id, rank, nbr_id, cosine FROM (
              SELECT a.vec_id AS vec_id,
                     row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) DESC,
                                b.vec_id
                     ) AS rank,
                     b.vec_id AS nbr_id,
                     round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS cosine
              FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
            ) t WHERE rank <= 5
            ORDER BY vec_id, rank
        """,
        "knn_graph_lsh": sqlgen.knn_graph_lsh_sql(
            64, k=5, n_bits=6, n_tables=3
        ),
        # IVF probing all lists is exact → same oracle as brute-force knn
        "ivf_knn_pruned": f"""
            SELECT 0::INT AS query_idx,
                   row_number() OVER (ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id) AS rank,
                   vec_id,
                   round(list_cosine_similarity(embedding::DOUBLE[], {vec_lit}), 4) AS cosine
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id
            LIMIT 10
        """,
        "ivf_knn": f"""
            SELECT 0::INT AS query_idx,
                   row_number() OVER (ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id) AS rank,
                   vec_id,
                   round(list_cosine_similarity(embedding::DOUBLE[], {vec_lit}), 4) AS cosine
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding::DOUBLE[], {vec_lit}) DESC, vec_id
            LIMIT 10
        """,
        "embedding_dup_pairs": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
            ORDER BY id_a, id_b
        """,
        "dedup_corpus_exact": (
            "SELECT doc_id FROM documents WHERE doc_id IN "
            "(SELECT min(doc_id) FROM documents GROUP BY text) ORDER BY doc_id"
        ),
        "embedding_dedup_corpus": (
            "WITH RECURSIVE p AS ("
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding::DOUBLE[], "
            "b.embedding::DOUBLE[]) >= 0.4), "
            "edges AS (SELECT id_a AS src, id_b AS dst FROM p "
            "UNION SELECT id_b, id_a FROM p), "
            "reach(src, dst) AS (SELECT src, dst FROM edges UNION "
            "SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src), "
            "rep AS (SELECT src AS node, min(dst) AS mn FROM reach "
            "GROUP BY src) "
            "SELECT vec_id FROM embeddings WHERE vec_id NOT IN "
            "(SELECT node FROM rep WHERE mn < node) ORDER BY vec_id"
        ),
        "quality_score": sqlgen.quality_sql(),
        "html_extract": (
            "SELECT doc_id, trim(regexp_replace("
            "'Doc ' || doc_id || ' ' || coalesce(text, ''), '\\s+', ' ', 'g')) "
            "AS extracted FROM documents ORDER BY doc_id"
        ),
        "token_stats": f"""
            WITH n AS (SELECT doc_id, {sqlgen.norm_expr('text')} AS norm FROM documents),
            w AS (SELECT doc_id, unnest(string_split_regex(norm, {dre})) AS w FROM n),
            wf AS (SELECT doc_id, w FROM w WHERE length(w) >= 1)
            SELECT n.doc_id,
                   coalesce(s.n_tokens, 0) AS n_tokens,
                   length(n.norm) AS n_chars_norm,
                   coalesce(s.n_distinct_tokens, 0) AS n_distinct_tokens,
                   coalesce(s.total_token_len, 0)::BIGINT AS total_token_len
            FROM n LEFT JOIN (
              SELECT doc_id, count(*) AS n_tokens, count(DISTINCT w) AS n_distinct_tokens,
                     sum(length(w)) AS total_token_len
              FROM wf GROUP BY doc_id) s ON n.doc_id = s.doc_id
            ORDER BY n.doc_id
        """,
        "token_count": """
            SELECT doc_id,
                   coalesce(length(regexp_extract_all(trim(coalesce(text,'')), '\\S+')), 0) AS n_ws_tokens,
                   coalesce(length(regexp_extract_all(coalesce(text,''),
                     '''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+')), 0) AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "boilerplate_removal": """
            WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS ls FROM documents),
            idx AS (SELECT unnest(generate_series(1, (SELECT coalesce(max(len(ls)), 1) FROM d))) AS i),
            lines AS (SELECT d.doc_id, i.i, d.ls[i.i] AS line FROM d, idx i WHERE i.i <= len(d.ls)),
            freq AS (
              SELECT line FROM (
                SELECT line, count(DISTINCT doc_id) AS c FROM lines
                WHERE trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) != ''
                GROUP BY line) WHERE c >= 5),
            kept AS (
              SELECT doc_id, i, line FROM lines
              WHERE trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) = ''
                 OR line NOT IN (SELECT line FROM freq)),
            agg AS (
              SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS text
              FROM kept GROUP BY doc_id)
            SELECT d2.doc_id, coalesce(a.text, '') AS text
            FROM documents d2 LEFT JOIN agg a ON d2.doc_id = a.doc_id
            ORDER BY d2.doc_id
        """,
        "gopher_rules": """
            WITH g AS (
              SELECT doc_id,
                     coalesce(text, '') AS t,
                     regexp_extract_all(coalesce(text, ''), '\\S+') AS words,
                     string_split(coalesce(text, ''), chr(10)) AS lines
              FROM documents),
            m AS (
              SELECT doc_id,
                len(words) AS n_words,
                CASE WHEN len(words) = 0 THEN 0.0
                     ELSE length(regexp_replace(t, '\\s', '', 'g'))::DOUBLE / len(words) END AS mean_word_len,
                len(list_filter(lines, l -> l LIKE '-%' OR l LIKE '•%'))::DOUBLE / len(lines) AS frac_bullet_lines,
                len(list_filter(lines, l -> l LIKE '%...' OR l LIKE '%…'))::DOUBLE / len(lines) AS frac_ellipsis_lines,
                CASE WHEN len(words) = 0 THEN 0.0
                     ELSE ((length(t) - length(replace(t, '#', '')))
                         + (length(t) - length(replace(t, '...', ''))) / 3)::DOUBLE / len(words) END AS symbol_word_ratio,
                CASE WHEN len(words) = 0 THEN 0.0
                     ELSE len(list_filter(words, w -> regexp_matches(w, '[A-Za-z]')))::DOUBLE / len(words) END AS frac_alpha_words
              FROM g)
            SELECT doc_id, n_words,
                   round(mean_word_len, 4) AS mean_word_len,
                   round(frac_bullet_lines, 4) AS frac_bullet_lines,
                   round(frac_ellipsis_lines, 4) AS frac_ellipsis_lines,
                   round(symbol_word_ratio, 4) AS symbol_word_ratio,
                   round(frac_alpha_words, 4) AS frac_alpha_words,
                   (n_words >= 50 AND n_words <= 100000 AND mean_word_len >= 3
                    AND mean_word_len <= 10 AND frac_bullet_lines < 0.9
                    AND frac_ellipsis_lines < 0.3 AND symbol_word_ratio < 0.1
                    AND frac_alpha_words >= 0.8) AS passes
            FROM m ORDER BY doc_id
        """,
        "lang_distribution": (
            "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang ORDER BY lang"
        ),
        "infiscript_filter": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE lang IN ('en', 'de') AND n_chars BETWEEN 200 AND 1500 "
            "ORDER BY doc_id"
        ),
        "infiscript_rowfilter": (
            "SELECT doc_id FROM documents WHERE lower(text) LIKE '%merge%' "
            "ORDER BY doc_id"
        ),
        "facet_counts": (
            "SELECT lang, count(*) AS n_docs FROM documents WHERE lang != 'en' "
            "GROUP BY lang ORDER BY lang"
        ),
        "ngram_jaccard_pairs": sqlgen.ngram_jaccard_sql(),
        "ngram_containment_pairs": sqlgen.ngram_containment_sql(threshold=0.6),
        "minhash_lsh_pairs": sqlgen.minhash_pairs_sql(threshold=0.5),
        "simhash_pairs": sqlgen.simhash_pairs_sql(),
        "langid": sqlgen.langid_sql(),
        "doc_fingerprint": sqlgen.fingerprint_sql(),
        "dedup_corpus": sqlgen.dedup_corpus_minhash_sql(threshold=0.5),
        "cluster_sizes": sqlgen.cluster_sizes_sql(threshold=0.5),
        "percolate": _percolate_oracle(),
        "snippet_extract": _snippet_oracle(BM25_QUERY, window=8),
        "spell_suggest": _spell_oracle(max_dist=2),
        "prefix_suggest": _suggest_oracle(top_k=5),
        "vocab_growth": _VOCAB_GROWTH_ORACLE,
        "embedding_dup_pairs_lsh": sqlgen.embedding_lsh_pairs_sql(threshold=0.4),
        "facet_counts_offline": (
            "SELECT lang, count(*) AS n_docs FROM documents WHERE lang != 'en' "
            "GROUP BY lang ORDER BY lang"
        ),
        "lsh_knn": sqlgen.lsh_knn_sql(KNN_QUERY_VEC),
        "sessionize": """
            WITH o AS (
              SELECT user_id, event_id, value, epoch_us(ts) AS ts_us,
                     lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_us
              FROM events
            ), f AS (
              SELECT *, CASE WHEN prev_us IS NULL OR ts_us - prev_us > 1800000000
                             THEN 1 ELSE 0 END AS is_new FROM o
            ), s AS (
              SELECT *, sum(is_new) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                                          ROWS UNBOUNDED PRECEDING) AS session_id FROM f
            )
            SELECT user_id, session_id::BIGINT AS session_id,
                   min(ts_us) AS session_start_us, count(*) AS n_events,
                   (max(ts_us) - min(ts_us))::BIGINT AS duration_us,
                   round(sum(value), 4) AS sum_value
            FROM s GROUP BY user_id, session_id ORDER BY user_id, session_id
        """,
        "window_agg": (
            # time_bucket (not //): DuckDB integer division truncates toward
            # zero while the op floors, which diverges on pre-epoch
            # timestamps; time_bucket floors exactly like numpy //
            "SELECT epoch_us(time_bucket(INTERVAL 3600 SECOND, ts)) AS window_start_us, "
            "event_type, count(*) AS n_events, round(sum(value), 4) AS sum_value "
            "FROM events GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "canonical_url": (
            # regenerate the planted URL, then the SAME RE2 rewrite chain the
            # op runs (fragment strip -> lowercase scheme://host -> tracking
            # param strip w/ kept separator -> dangling ?/& -> trailing /)
            "WITH u AS (SELECT doc_id, "
            "'HTTPS://WWW.Site' || CAST(doc_id % 37 AS VARCHAR) "
            "|| '.example.com/P/' || CAST(doc_id AS VARCHAR) "
            "|| (CASE WHEN doc_id % 3 = 0 THEN '/?utm_source=s' "
            "|| CAST(doc_id % 5 AS VARCHAR) || '&a=' || CAST(doc_id AS VARCHAR) "
            "ELSE '' END) "
            "|| (CASE WHEN doc_id % 4 = 0 THEN '#frag' || CAST(doc_id AS VARCHAR) "
            "ELSE '' END) AS url FROM documents), "
            "s1 AS (SELECT doc_id, url, regexp_replace(url, '#.*$', '') AS nofrag FROM u), "
            "s2 AS (SELECT doc_id, url, "
            "lower(regexp_extract(nofrag, '^((?:[A-Za-z][A-Za-z0-9+.-]*://)?[^/?#]*)(.*)$', 1)) "
            "|| regexp_extract(nofrag, '^((?:[A-Za-z][A-Za-z0-9+.-]*://)?[^/?#]*)(.*)$', 2) AS lowered "
            "FROM s1), "
            "s3 AS (SELECT doc_id, url, regexp_replace(lowered, "
            "'([?&])(?:utm_[a-z]+|gclid|fbclid|ref|mc_cid|mc_eid)=[^&]*&?', '\\1', 'g') AS stripped FROM s2), "
            "s4 AS (SELECT doc_id, url, regexp_replace(stripped, '[?&]$', '') AS tidied FROM s3) "
            "SELECT doc_id, url, regexp_replace(tidied, '([^/])/$', '\\1') AS canonical_url "
            "FROM s4 ORDER BY doc_id"
        ),
        "audio_features": (
            "WITH m AS (SELECT doc_id, octet_length(encode(coalesce(text,''))) "
            "AS n_bytes FROM documents), "
            "d AS (SELECT doc_id, n_bytes, n_bytes * 1000 // 16000 AS duration_ms "
            "FROM m) "
            "SELECT doc_id, n_bytes::BIGINT AS n_bytes, "
            "duration_ms::BIGINT AS duration_ms, "
            "(CASE WHEN duration_ms >= 25 THEN (duration_ms - 25) // 10 + 1 "
            "ELSE 0 END)::BIGINT AS n_windows "
            "FROM d ORDER BY doc_id"
        ),
        "frame_sample": (
            # arithmetic fake decode: n_frames = octet_length % 97 + 1,
            # frames 0, 30, 60, ... ts at nominal 30 fps
            "WITH m AS (SELECT doc_id, octet_length(encode(coalesce(text,''))) "
            "AS n_bytes FROM documents), "
            "f AS (SELECT doc_id, n_bytes % 97 + 1 AS n_frames FROM m), "
            "s AS (SELECT doc_id, n_frames, unnest(generate_series(0, "
            "CAST((n_frames - 1) // 30 AS INT))) AS j FROM f) "
            "SELECT doc_id, (j * 30)::BIGINT AS frame_idx, "
            "(j * 30 * 1000 // 30)::BIGINT AS ts_ms, n_frames::BIGINT AS n_frames "
            "FROM s ORDER BY doc_id, frame_idx"
        ),
        "hopping_window": (
            # every event lands in k=4 stride-aligned windows; time_bucket
            # floors like numpy // (see window_agg note)
            "WITH e AS (SELECT epoch_us(time_bucket(INTERVAL 900 SECOND, ts)) "
            "AS lastw, event_type, value FROM events), "
            "r AS (SELECT lastw - j * 900000000 AS window_start_us, event_type, "
            "value FROM e, (SELECT unnest(generate_series(0, 3)) AS j) js) "
            "SELECT window_start_us, event_type, count(*)::BIGINT AS n_events, "
            "round(sum(value), 4) AS sum_value "
            "FROM r GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "sample_hash": (
            "SELECT * FROM documents "
            "WHERE md5_number_lower('s0:' || CAST(doc_id AS VARCHAR)) % 1000000 < 100000 "
            "ORDER BY doc_id"
        ),
        "profile_columns": (
            "SELECT 'doc_id' AS \"column\", count(*)::BIGINT AS n_rows, "
            "sum(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_nulls, "
            "count(DISTINCT doc_id)::BIGINT AS n_distinct FROM documents "
            "UNION ALL SELECT 'lang', count(*)::BIGINT, "
            "sum(CASE WHEN lang IS NULL THEN 1 ELSE 0 END)::BIGINT, "
            "count(DISTINCT lang)::BIGINT FROM documents "
            "UNION ALL SELECT 'n_chars', count(*)::BIGINT, "
            "sum(CASE WHEN n_chars IS NULL THEN 1 ELSE 0 END)::BIGINT, "
            "count(DISTINCT n_chars)::BIGINT FROM documents "
            "UNION ALL SELECT 'source', count(*)::BIGINT, "
            "sum(CASE WHEN source IS NULL THEN 1 ELSE 0 END)::BIGINT, "
            "count(DISTINCT source)::BIGINT FROM documents "
            "ORDER BY \"column\""
        ),
        "phrase_scan": (
            "SELECT doc_id, "
            "(CASE WHEN contains(coalesce(text,''), 'fast table') THEN 1 ELSE 0 END "
            "+ CASE WHEN contains(coalesce(text,''), 'slow window') THEN 1 ELSE 0 END "
            "+ CASE WHEN contains(coalesce(text,''), 'spark a') THEN 1 ELSE 0 END "
            "+ CASE WHEN contains(coalesce(text,''), 'no-such-phrase-xyzzy') THEN 1 ELSE 0 END"
            ")::BIGINT AS n_phrases_hit, "
            "(contains(coalesce(text,''), 'fast table') "
            "OR contains(coalesce(text,''), 'slow window') "
            "OR contains(coalesce(text,''), 'spark a') "
            "OR contains(coalesce(text,''), 'no-such-phrase-xyzzy')) AS flagged "
            "FROM documents ORDER BY doc_id"
        ),
        "mix_corpora": (
            "SELECT doc_id, n_chars, 'web' AS mix_source FROM documents "
            "WHERE md5_number_lower('mix:web:' || CAST(doc_id AS VARCHAR)) "
            "% 1000000 < 300000 "
            "UNION ALL "
            "SELECT doc_id, n_chars, 'books' AS mix_source FROM documents "
            "WHERE md5_number_lower('mix:books:' || CAST(doc_id AS VARCHAR)) "
            "% 1000000 < 100000 "
            "ORDER BY mix_source, doc_id"
        ),
        "sample_split": (
            "SELECT doc_id, CASE WHEN b < 800000 THEN 'train' "
            "WHEN b < 900000 THEN 'val' ELSE 'test' END AS split "
            "FROM (SELECT doc_id, md5_number_lower('s0:' || "
            "CAST(doc_id AS VARCHAR)) % 1000000 AS b FROM documents) "
            "ORDER BY doc_id"
        ),
        "json_extract": (
            "SELECT event_id, CAST(props->>'k' AS BIGINT) AS k "
            "FROM events ORDER BY event_id"
        ),
        "stratified_sample": (
            "SELECT doc_id, lang FROM documents "
            "WHERE md5_number_lower('s0:' || CAST(doc_id AS VARCHAR)) "
            "% 1000000 < (CASE lang WHEN 'en' THEN 200000 "
            "WHEN 'zh' THEN 600000 ELSE 1000000 END) "
            "ORDER BY doc_id"
        ),
        "temperature_mix": (
            # stratum ppm threshold = floor(sqrt(n_min/n_lang)*1e6); sqrt and
            # int->double division are IEEE-correctly-rounded, so both engines
            # compute the identical threshold — the keep decision is exact
            "WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang), "
            "m AS (SELECT min(n) AS n_min FROM c), "
            "r AS (SELECT lang, CAST(floor(sqrt(CAST(n_min AS DOUBLE) / n) "
            "* 1000000) AS BIGINT) AS ppm FROM c, m) "
            "SELECT d.doc_id, d.lang FROM documents d JOIN r USING (lang) "
            "WHERE md5_number_lower('temp:' || CAST(d.doc_id AS VARCHAR)) "
            "% 1000000 < ppm ORDER BY d.doc_id"
        ),
        "weighted_sample": (
            # replicated-min-hash weighted bottom-k: doc makes w = doc_id%5
            # draws md5('ws:id:j'), competes with the min; integer-exact
            "WITH w AS (SELECT doc_id, CAST(doc_id % 5 AS BIGINT) AS w "
            "FROM documents), "
            "r AS (SELECT doc_id, w, unnest(generate_series(0, "
            "CAST(w AS INT) - 1)) AS j FROM w WHERE w > 0), "
            "d AS (SELECT doc_id, min(w) AS w, "
            "min(md5_number_lower('ws:' || CAST(doc_id AS VARCHAR) || ':' || "
            "CAST(j AS VARCHAR))) AS draw FROM r GROUP BY doc_id), "
            "sel AS (SELECT doc_id, w, draw FROM d "
            "ORDER BY draw, doc_id LIMIT 50) "
            "SELECT row_number() OVER (ORDER BY draw, doc_id) AS rank, "
            "doc_id, w, CAST(draw % 1000000000000000 AS BIGINT) AS draw_mod "
            "FROM sel ORDER BY rank"
        ),
        "heavy_hitters": (
            "WITH t AS (SELECT unnest(regexp_split_to_array(lower(text), "
            "'[ \\t\\n\\r]+')) AS token FROM documents) "
            "SELECT token, count(*) AS n FROM t WHERE token <> '' "
            "GROUP BY token ORDER BY n DESC, token LIMIT 100"
        ),
        "hashed_bow": (
            "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
            "coalesce(text, ''), '\\S+')) AS tok FROM documents) "
            "SELECT doc_id, CAST(md5_number_lower(tok) % 64 AS BIGINT) AS bucket, "
            "count(*)::BIGINT AS tf FROM toks "
            "GROUP BY doc_id, bucket ORDER BY doc_id, bucket"
        ),
        "domain_stats": (
            # the fixture plants host WWW.Site{doc_id%37}.example.com; after
            # lowering + www-stripping the domain is site{k}.example.com
            "SELECT 'site' || CAST(doc_id % 37 AS VARCHAR) || '.example.com' "
            "AS domain, count(*)::BIGINT AS n_docs, "
            "sum(n_chars)::BIGINT AS total_n_chars "
            "FROM documents GROUP BY 1 ORDER BY domain"
        ),
        "value_histogram": (
            "SELECT CAST(floor((value - 0.0) / ((500.0 - 0.0) / 16)) AS BIGINT) AS bin, "
            "count(*)::BIGINT AS n, "
            "0.0 + CAST(floor((value - 0.0) / ((500.0 - 0.0) / 16)) AS BIGINT) "
            "* ((500.0 - 0.0) / 16) AS lo_edge, "
            "0.0 + (CAST(floor((value - 0.0) / ((500.0 - 0.0) / 16)) AS BIGINT) + 1) "
            "* ((500.0 - 0.0) / 16) AS hi_edge "
            "FROM events WHERE value IS NOT NULL AND value >= 0.0 AND value < 500.0 "
            "GROUP BY 1 ORDER BY bin"
        ),
        "connected_components": (
            "WITH RECURSIVE e AS (SELECT doc_id AS src, (doc_id*7 + j*13) % 500 AS dst "
            "FROM (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents)), "
            "edges AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e), "
            "reach(src, dst) AS (SELECT src, dst FROM edges UNION "
            "SELECT r.src, e2.dst FROM reach r JOIN edges e2 ON r.dst = e2.src), "
            "rep AS (SELECT src AS node, min(dst) AS mn FROM reach GROUP BY src) "
            "SELECT node, least(node, mn) AS component FROM rep ORDER BY node"
        ),
        "pagerank": (
            # 3 unrolled power iterations of r <- (1-d)/N + d*sum_in(r/od)
            "WITH e AS (SELECT doc_id AS src, (doc_id*7 + j*13) % 500 AS dst "
            "FROM (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents)), "
            "nodes AS (SELECT DISTINCT node FROM "
            "(SELECT src AS node FROM e UNION ALL SELECT dst FROM e)), "
            "nn AS (SELECT count(*)::DOUBLE AS n FROM nodes), "
            "od AS (SELECT src, count(*)::DOUBLE AS od FROM e GROUP BY src), "
            "r0 AS (SELECT node, 1.0/(SELECT n FROM nn) AS r FROM nodes), "
            "c1 AS (SELECT e.dst AS node, sum(r0.r/od.od) AS c FROM e "
            "JOIN od ON e.src=od.src JOIN r0 ON r0.node=e.src GROUP BY e.dst), "
            "r1 AS (SELECT nodes.node, (CAST(1 AS DOUBLE)-0.85)/(SELECT n FROM nn) "
            "+ 0.85*coalesce(c1.c, 0) AS r FROM nodes LEFT JOIN c1 USING(node)), "
            "c2 AS (SELECT e.dst AS node, sum(r1.r/od.od) AS c FROM e "
            "JOIN od ON e.src=od.src JOIN r1 ON r1.node=e.src GROUP BY e.dst), "
            "r2 AS (SELECT nodes.node, (CAST(1 AS DOUBLE)-0.85)/(SELECT n FROM nn) "
            "+ 0.85*coalesce(c2.c, 0) AS r FROM nodes LEFT JOIN c2 USING(node)), "
            "c3 AS (SELECT e.dst AS node, sum(r2.r/od.od) AS c FROM e "
            "JOIN od ON e.src=od.src JOIN r2 ON r2.node=e.src GROUP BY e.dst), "
            "r3 AS (SELECT nodes.node, (CAST(1 AS DOUBLE)-0.85)/(SELECT n FROM nn) "
            "+ 0.85*coalesce(c3.c, 0) AS r FROM nodes LEFT JOIN c3 USING(node)) "
            "SELECT node, round(r, 4) AS rank FROM r3 ORDER BY node"
        ),
        "tfidf_keywords": (
            "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
            "lower(text), '[ \\t\\n\\r]+')) AS tok FROM documents), "
            "toks2 AS (SELECT doc_id, tok FROM toks WHERE tok <> ''), "
            "tf AS (SELECT doc_id, tok, count(*)::DOUBLE AS tf "
            "FROM toks2 GROUP BY doc_id, tok), "
            "df AS (SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok), "
            "n AS (SELECT count(*)::DOUBLE AS nd FROM documents), "
            "scored AS (SELECT tf.doc_id, tf.tok, "
            "tf.tf * ln((SELECT nd FROM n) / df.df) AS s "
            "FROM tf JOIN df USING (tok)), "
            "ranked AS (SELECT doc_id, tok, s, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY s DESC, tok) AS r FROM scored) "
            "SELECT doc_id, r::BIGINT AS rank, tok AS token, round(s, 4) AS score "
            "FROM ranked WHERE r <= 5 ORDER BY doc_id, rank"
        ),
        "html_links": (
            # arithmetic regeneration of the planted anchors — any extraction
            # defect (missed anchor, quote handling, entity damage) mismatches
            "WITH j AS (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents), "
            "links AS (SELECT DISTINCT doc_id, 'https://site' || "
            "CAST(((doc_id * 7 + j * 13) % 500) % 37 AS VARCHAR) || "
            "'.example.com/p/' || CAST((doc_id * 7 + j * 13) % 500 AS VARCHAR) "
            "AS href FROM j) "
            "SELECT doc_id, href FROM links ORDER BY doc_id, href"
        ),
        "anchor_text": (
            # arithmetic regeneration of planted (href, anchor) occurrences;
            # links are distinct within a doc so (doc_id, href) orders fully
            "WITH j AS (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents) "
            "SELECT doc_id, 'https://site' || "
            "CAST(((doc_id * 7 + j * 13) % 500) % 37 AS VARCHAR) || "
            "'.example.com/p/' || CAST((doc_id * 7 + j * 13) % 500 AS VARCHAR) "
            "AS href, 't' || CAST((doc_id + j) % 7 AS VARCHAR) AS anchor "
            "FROM j ORDER BY doc_id, href"
        ),
        "anchor_stats": (
            "WITH j AS (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents), "
            "links AS (SELECT 'site' || "
            "CAST(((doc_id * 7 + j * 13) % 500) % 37 AS VARCHAR) || "
            "'.example.com' AS domain, "
            "'t' || CAST((doc_id + j) % 7 AS VARCHAR) AS anchor FROM j), "
            "per AS (SELECT domain, anchor, count(*) AS n FROM links "
            "GROUP BY domain, anchor), "
            "ranked AS (SELECT domain, anchor, n, row_number() OVER "
            "(PARTITION BY domain ORDER BY n DESC, anchor) AS r FROM per), "
            "agg AS (SELECT domain, sum(n)::BIGINT AS n_links, "
            "count(*)::BIGINT AS n_unique_anchors FROM per GROUP BY domain) "
            "SELECT a.domain, a.n_links, a.n_unique_anchors, "
            "r.anchor AS top_anchor FROM agg a JOIN ranked r "
            "ON a.domain = r.domain AND r.r = 1 ORDER BY a.domain"
        ),
        "link_in_degrees": (
            "WITH j AS (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents), "
            "links AS (SELECT DISTINCT doc_id, 'https://site' || "
            "CAST(((doc_id * 7 + j * 13) % 500) % 37 AS VARCHAR) || "
            "'.example.com/p/' || CAST((doc_id * 7 + j * 13) % 500 AS VARCHAR) "
            "AS href FROM j) "
            "SELECT href, count(*)::BIGINT AS in_degree FROM links "
            "GROUP BY href ORDER BY href"
        ),
        "dedup_against": (
            "SELECT doc_id, n_chars FROM documents "
            "WHERE coalesce(text, '') NOT IN "
            "(SELECT coalesce(text, '') FROM documents WHERE doc_id % 7 = 0) "
            "ORDER BY doc_id"
        ),
        "dsir_logweights": sqlgen.dsir_logweights_sql(4096, 10),
        "dedup_against_bloom": sqlgen.dedup_against_bloom_sql(1024, 3),
        "cms_counts": sqlgen.cms_counts_sql(_CMS_KEYS, 64, 3),
        "retention": (
            "WITH up AS (SELECT DISTINCT user_id, "
            "CAST(floor(epoch_us(ts) / 86400000000) AS BIGINT) AS p FROM events), "
            "f AS (SELECT user_id, min(p) AS c FROM up GROUP BY user_id) "
            "SELECT f.c AS cohort, up.p - f.c AS period_offset, "
            "count(*) AS n_users FROM up JOIN f USING (user_id) "
            "GROUP BY f.c, up.p - f.c ORDER BY cohort, period_offset"
        ),
        "funnel": sqlgen.funnel_sql(
            ["view", "click", "purchase"],
            table="(SELECT * FROM events WHERE value > 100)",
        ),
        "approx_distinct": sqlgen.hll_estimate_sql("coalesce(text, '')", "documents"),
        "approx_distinct_by": sqlgen.hll_estimate_sql(
            "CAST(user_id AS VARCHAR)",
            "events",
            key_expr="event_type",
            key_name="event_type",
        ),
        "bigram_lm": sqlgen.bigram_logprob_sql(256, 512, 0.75),
        "unigram_lm": (
            # pruned (top-256 by count desc, token asc) unigram LM over the
            # corpus itself; OOV floor = 1/total; nll = -avg ln p(token)
            "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
            "lower(text), '[ \\t\\n\\r]+')) AS tok FROM documents), "
            "toks2 AS (SELECT doc_id, tok FROM toks WHERE tok <> ''), "
            "counts AS (SELECT tok, count(*)::BIGINT AS n FROM toks2 GROUP BY tok), "
            "total AS (SELECT sum(n)::DOUBLE AS tot FROM counts), "
            "vocab AS (SELECT tok, n FROM (SELECT tok, n, row_number() OVER "
            "(ORDER BY n DESC, tok) AS r FROM counts) WHERE r <= 256), "
            "scored AS (SELECT t.doc_id, count(*)::BIGINT AS n_tokens, "
            "round(-avg(ln(coalesce(v.n, 1)::DOUBLE / (SELECT tot FROM total))), 4) AS nll "
            "FROM toks2 t LEFT JOIN vocab v ON t.tok = v.tok GROUP BY t.doc_id) "
            "SELECT d.doc_id, coalesce(s.n_tokens, 0)::BIGINT AS n_tokens, "
            "coalesce(s.nll, 0.0) AS nll "
            "FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id "
            "ORDER BY d.doc_id"
        ),
        "decontaminate": (
            # word-3-gram overlap between the corpus split and the benchmark
            # split; grams joined on the space-joined token string (bijective
            # with the uint64 polynomial hash modulo negligible collisions)
            "WITH ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w) - 2)) AS i FROM ws), "
            "grams AS (SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g "
            "FROM pos), "
            "bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0), "
            "agg AS (SELECT c.doc_id, count(DISTINCT c.g) AS n_grams, "
            "count(DISTINCT b.g) AS n_hits "
            "FROM grams c LEFT JOIN bench b ON c.g = b.g "
            "WHERE c.doc_id % 97 <> 0 GROUP BY c.doc_id) "
            "SELECT d.doc_id, coalesce(a.n_grams, 0) AS n_grams, "
            "coalesce(a.n_hits, 0) AS n_hits, "
            "coalesce(a.n_hits, 0) > 0 AS contaminated "
            "FROM documents d LEFT JOIN agg a USING (doc_id) "
            "WHERE d.doc_id % 97 <> 0 ORDER BY d.doc_id"
        ),
        "kmeans_embeddings": sqlgen.kmeans_sql(4, 3),
        "embedding_outliers": sqlgen.embedding_outliers_sql(4, 3, 5),
        "semantic_dedup": sqlgen.semantic_dedup_sql(4, 2, 0.4),
        "dedup_against_minhash": sqlgen.dedup_against_minhash_sql(
            "documents", 0.5, 10
        ),
        "quantize_embeddings": (
            # per-vector max-abs int8 quantization, long format; DuckDB
            # round() is half-away-from-zero == ops/vectorize._round_half_away
            "WITH dims AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) "
            "AS e, generate_subscripts(embedding, 1) AS i FROM embeddings), "
            "mx AS (SELECT vec_id, max(abs(e)) AS m FROM dims "
            "GROUP BY vec_id) "
            "SELECT d.vec_id, d.i::BIGINT AS i, "
            "CASE WHEN m.m = 0 THEN 0 "
            "ELSE CAST(round(d.e / (m.m / 127)) AS BIGINT) END AS q, "
            "round(m.m / 127, 6) AS scale "
            "FROM dims d JOIN mx m USING (vec_id) ORDER BY d.vec_id, d.i"
        ),
        "script_profile": (
            # same planted multi-script suffixes; RE2 classes in both engines
            "WITH aug AS (SELECT doc_id, CASE "
            "WHEN doc_id % 3 = 0 THEN coalesce(text,'') || ' Привет мир 42' "
            "WHEN doc_id % 3 = 1 THEN coalesce(text,'') || ' 你好世界' "
            "ELSE coalesce(text,'') END AS t FROM documents) "
            "SELECT doc_id, length(t) AS n_chars, "
            "len(regexp_extract_all(t, '[\\p{Latin}]'))::BIGINT AS n_latin, "
            "len(regexp_extract_all(t, '[\\p{Cyrillic}]'))::BIGINT AS n_cyrillic, "
            "len(regexp_extract_all(t, '[\\p{Han}]'))::BIGINT AS n_han, "
            "len(regexp_extract_all(t, '[0-9]'))::BIGINT AS n_digit, "
            "len(regexp_extract_all(t, '[^\\x00-\\x7F]'))::BIGINT AS n_nonascii, "
            "round(len(regexp_extract_all(t, '[\\p{Latin}]')) "
            "/ CAST(greatest(length(t), 1) AS DOUBLE), 4) AS latin_frac "
            "FROM aug ORDER BY doc_id"
        ),
        "split_sentences": (
            # periods planted by the SAME RE2 GlobalReplace, then the same
            # RE2 split; per-doc index after dropping empties
            "WITH aug AS (SELECT doc_id, regexp_replace(coalesce(text,''), "
            "'((\\S+ ){6}\\S+) ', '\\1. ', 'g') AS t FROM documents), "
            "sp AS (SELECT doc_id, string_split_regex(t, "
            "'[.!?]+[\\t\\n\\x0b\\x0c\\r ]+') AS arr FROM aug), "
            "parts AS (SELECT doc_id, unnest(arr) AS s, "
            "generate_subscripts(arr, 1) AS i FROM sp), "
            "f AS (SELECT doc_id, s, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) - 1 AS sent_idx "
            "FROM parts WHERE s <> '') "
            "SELECT doc_id, sent_idx, s AS sentence, "
            "length(s) AS n_chars FROM f ORDER BY doc_id, sent_idx"
        ),
        "duplicate_spans": (
            # word-5-gram positions duplicated across >= 2 distinct docs;
            # grams compared on the space-joined token string (bijective with
            # ops/spans.py's uint64 polynomial hash modulo negligible
            # collisions — same contract as decontaminate)
            "WITH ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(coalesce(text,''), '\\s+'), "
            "x -> x <> '') AS w FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w) - 4)) AS i FROM ws), "
            "grams AS (SELECT doc_id, array_to_string(w[i:i+4], ' ') AS g "
            "FROM pos), "
            "cnt AS (SELECT g FROM grams GROUP BY g "
            "HAVING count(DISTINCT doc_id) >= 2), "
            "per AS (SELECT gr.doc_id, count(*) AS dup_ngrams "
            "FROM grams gr JOIN cnt USING (g) GROUP BY gr.doc_id), "
            "tot AS (SELECT doc_id, greatest(len(w) - 4, 0) AS total_ngrams "
            "FROM ws) "
            "SELECT d.doc_id, t.total_ngrams, "
            "coalesce(p.dup_ngrams, 0) AS dup_ngrams, "
            "CASE WHEN t.total_ngrams > 0 THEN "
            "round(coalesce(p.dup_ngrams, 0) / CAST(t.total_ngrams AS DOUBLE), 4) "
            "ELSE 0.0 END AS dup_frac "
            "FROM documents d JOIN tot t USING (doc_id) "
            "LEFT JOIN per p USING (doc_id) ORDER BY d.doc_id"
        ),
        "chunk_text": (
            "WITH ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w), 24)) AS p FROM ws) "
            "SELECT doc_id, (p - 1) // 24 AS chunk_id, "
            "least(32, len(w) - p + 1) AS n_tokens, "
            "array_to_string(w[p:p+31], ' ') AS chunk "
            "FROM pos ORDER BY doc_id, chunk_id"
        ),
        "pii_redact": (
            # same planted PII, same RE2 patterns, same email->ip->phone
            # staging as ops.pii.PII_PATTERNS
            "WITH aug AS (SELECT doc_id, CASE WHEN doc_id % 3 = 0 THEN "
            "coalesce(text, '') || ' contact user' || doc_id || "
            "'@example.com or +1 555-000-' || (doc_id % 10000) || "
            "' at 10.0.' || (doc_id % 256) || '.' || (doc_id % 100) "
            "ELSE coalesce(text, '') END AS t0 FROM documents), "
            "s1 AS (SELECT doc_id, len(regexp_extract_all(t0, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_emails, "
            "regexp_replace(t0, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "'<EMAIL>', 'g') AS t1 FROM aug), "
            "s2 AS (SELECT doc_id, n_emails, len(regexp_extract_all(t1, "
            "'\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b')) "
            "AS n_ips, regexp_replace(t1, "
            "'\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b', "
            "'<IP>', 'g') AS t2 FROM s1), "
            "s3 AS (SELECT doc_id, n_emails, n_ips, "
            "len(regexp_extract_all(t2, '\\+?[0-9][0-9() \\-]{7,}[0-9]')) "
            "AS n_phones, regexp_replace(t2, "
            "'\\+?[0-9][0-9() \\-]{7,}[0-9]', '<PHONE>', 'g') AS t3 FROM s2) "
            "SELECT doc_id, t3 AS text, n_emails, n_ips, n_phones "
            "FROM s3 ORDER BY doc_id"
        ),
        "url_parse": (
            "WITH u AS (SELECT doc_id, "
            "(CASE WHEN doc_id % 5 = 0 THEN 'http' ELSE 'https' END) || "
            "'://WWW.Site' || (doc_id % 37) || '.example.com/p/' || doc_id || "
            "(CASE WHEN doc_id % 3 = 0 THEN '?q=' || (doc_id % 7) || '&utm=x' "
            "ELSE '' END) AS url FROM documents) "
            "SELECT doc_id, "
            "regexp_extract(url, '^(?:([A-Za-z][A-Za-z0-9+.-]*)://)?"
            "([^/?#]*)([^?#]*)(?:\\?([^#]*))?', 1) AS scheme, "
            "regexp_extract(url, '^(?:([A-Za-z][A-Za-z0-9+.-]*)://)?"
            "([^/?#]*)([^?#]*)(?:\\?([^#]*))?', 2) AS host, "
            "regexp_replace(lower(regexp_extract(url, "
            "'^(?:([A-Za-z][A-Za-z0-9+.-]*)://)?([^/?#]*)([^?#]*)"
            "(?:\\?([^#]*))?', 2)), '^www\\.', '') AS domain, "
            "regexp_extract(url, '^(?:([A-Za-z][A-Za-z0-9+.-]*)://)?"
            "([^/?#]*)([^?#]*)(?:\\?([^#]*))?', 3) AS path, "
            "regexp_extract(url, '^(?:([A-Za-z][A-Za-z0-9+.-]*)://)?"
            "([^/?#]*)([^?#]*)(?:\\?([^#]*))?', 4) AS url_query "
            "FROM u ORDER BY doc_id"
        ),
        "pack_sequences": (
            # same chunk stream as chunk_text; greedy first-fit recurrence
            # replayed per bucket via a lock-step recursive CTE
            "WITH RECURSIVE "
            "ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w), 24)) AS p FROM ws), "
            "c AS (SELECT doc_id, (p - 1) // 24 AS chunk_id, "
            "least(32, len(w) - p + 1) AS n_tokens FROM pos), "
            "r AS (SELECT doc_id, chunk_id, n_tokens, doc_id % 8 AS bucket, "
            "row_number() OVER (PARTITION BY doc_id % 8 "
            "ORDER BY doc_id, chunk_id) AS rn FROM c), "
            "pk AS (SELECT bucket, rn, doc_id, chunk_id, n_tokens, "
            "CAST(0 AS BIGINT) AS bin, n_tokens AS acc FROM r WHERE rn = 1 "
            "UNION ALL "
            "SELECT r.bucket, r.rn, r.doc_id, r.chunk_id, r.n_tokens, "
            "CASE WHEN pk.acc + r.n_tokens > 128 THEN pk.bin + 1 "
            "ELSE pk.bin END, "
            "CASE WHEN pk.acc + r.n_tokens > 128 THEN r.n_tokens "
            "ELSE pk.acc + r.n_tokens END "
            "FROM pk JOIN r ON r.bucket = pk.bucket AND r.rn = pk.rn + 1) "
            "SELECT doc_id, chunk_id, bucket, bin FROM pk "
            "ORDER BY doc_id, chunk_id"
        ),
        "repetition_signals": (
            # duplicate-line + top-2-gram repetition signals; all occurrences
            # counted, tie-break = (count desc, gram asc), chars = codepoints
            "WITH nl AS (SELECT doc_id, line, count(*) AS c, "
            "length(line) AS lc FROM (SELECT doc_id, "
            "unnest(string_split(text, chr(10))) AS line FROM documents) "
            "WHERE line <> '' GROUP BY doc_id, line), "
            "lstats AS (SELECT doc_id, sum(c) AS n_lines, "
            "count(*) AS n_distinct, "
            "sum(CASE WHEN c > 1 THEN c * lc ELSE 0 END) AS dup_chars, "
            "sum(c * lc) AS tot_chars FROM nl GROUP BY doc_id), "
            "ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w) - 1)) AS i FROM ws), "
            "gc AS (SELECT doc_id, array_to_string(w[i:i+1], ' ') AS g, "
            "count(*) AS c FROM pos GROUP BY doc_id, g), "
            "top1 AS (SELECT doc_id, g, c FROM (SELECT doc_id, g, c, "
            "row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, g) AS rn "
            "FROM gc) WHERE rn = 1) "
            "SELECT d.doc_id, coalesce(l.n_lines, 0) AS n_lines, "
            "round(coalesce((l.n_lines - l.n_distinct) * 1.0 / l.n_lines, 0), 4)"
            " AS frac_dup_lines, "
            "round(coalesce(CASE WHEN l.tot_chars > 0 THEN "
            "l.dup_chars * 1.0 / l.tot_chars END, 0), 4) AS frac_dup_line_chars, "
            "round(coalesce(t.c * length(t.g) * 1.0 / length(d.text), 0), 4) "
            "AS top_2gram_frac "
            "FROM documents d LEFT JOIN lstats l USING (doc_id) "
            "LEFT JOIN top1 t USING (doc_id) ORDER BY d.doc_id"
        ),
        "dedup_lines": (
            # first-occurrence-wins line dedup; winner = min packed pos
            # (doc_id·2²² + 0-based line_no), blanks always kept
            "WITH docs2 AS (SELECT doc_id, CASE WHEN doc_id % 3 = 0 THEN "
            "coalesce(text, '') || chr(10) || 'Shared footer boilerplate' "
            "ELSE coalesce(text, '') END AS text FROM documents), "
            "d AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM docs2), "
            "idx AS (SELECT unnest(generate_series(1, (SELECT coalesce(max(len(ls)), 1) FROM d))) AS i), "
            "lines AS (SELECT d.doc_id, i.i, d.ls[i.i] AS line FROM d, idx i WHERE i.i <= len(d.ls)), "
            "nb AS (SELECT doc_id, i, line, doc_id * 4194304 + (i - 1) AS pos FROM lines "
            "WHERE trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) <> ''), "
            "w AS (SELECT line, min(pos) AS keep_pos FROM nb GROUP BY line), "
            "kept AS (SELECT l.doc_id, l.i, l.line FROM lines l LEFT JOIN w ON w.line = l.line "
            "WHERE trim(l.line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) = '' "
            "OR l.doc_id * 4194304 + (l.i - 1) = w.keep_pos), "
            "agg AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS text "
            "FROM kept GROUP BY doc_id) "
            "SELECT d2.doc_id, coalesce(a.text, '') AS text "
            "FROM documents d2 LEFT JOIN agg a ON d2.doc_id = a.doc_id "
            "ORDER BY d2.doc_id"
        ),
        "char_entropy": (
            # Shannon entropy over codepoint counts; ln(n) − Σ k·ln(k)/n
            "WITH ch AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), '')) AS c "
            "FROM documents), "
            "cc AS (SELECT doc_id, c, count(*) AS k FROM ch WHERE c <> '' "
            "GROUP BY doc_id, c), "
            "ag AS (SELECT doc_id, sum(k) AS n, sum(k * ln(k)) AS s "
            "FROM cc GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(a.n, 0)::BIGINT AS n_chars_raw, "
            "round(coalesce(ln(a.n) - a.s / a.n, 0), 4) AS entropy "
            "FROM documents d LEFT JOIN ag a USING (doc_id) ORDER BY d.doc_id"
        ),
        "collocations": (
            # adjacent-bigram PMI from the ONE bigram table: marginals +
            # total N derived from it; integer products stay exact (<2^53)
            # so the single double division and ln match numpy bit-for-bit
            "WITH ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w) - 1)) AS i FROM ws), "
            "bg AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c "
            "FROM pos GROUP BY w1, w2), "
            "nn AS (SELECT sum(c) AS n FROM bg), "
            "lx AS (SELECT w1, sum(c) AS cx FROM bg GROUP BY w1), "
            "rx AS (SELECT w2, sum(c) AS cy FROM bg GROUP BY w2) "
            "SELECT b.w1, b.w2, b.c::BIGINT AS c, "
            "round(ln(b.c * (SELECT n FROM nn) * 1.0 / (l.cx * r.cy)), 4) AS pmi "
            "FROM bg b JOIN lx l USING (w1) JOIN rx r USING (w2) "
            "WHERE b.c >= 5 ORDER BY pmi DESC, w1, w2 LIMIT 50"
        ),
        "event_order": (
            "SELECT user_id, event_id, epoch_us(ts) AS ts_us, "
            "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS rank, "
            "coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id), -1) AS gap_us "
            "FROM events ORDER BY user_id, rank"
        ),
        "group_quantiles": (
            "SELECT lang, count(*) AS n, "
            "round(quantile_cont(n_chars, 0.25), 4) AS q25, "
            "round(quantile_cont(n_chars, 0.50), 4) AS q50, "
            "round(quantile_cont(n_chars, 0.75), 4) AS q75, "
            "round(quantile_cont(n_chars, 0.90), 4) AS q90 "
            "FROM documents GROUP BY lang ORDER BY lang"
        ),
        "top_k_per_group": (
            "WITH r AS (SELECT lang, n_chars, doc_id, "
            "row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rank "
            "FROM documents) "
            "SELECT lang, n_chars, doc_id, rank FROM r WHERE rank <= 3 "
            "ORDER BY lang, rank"
        ),
        "asof_join": """
            WITH j AS (
              SELECT e.user_id, e.event_id, epoch_us(e.ts) AS ts_us,
                     o.o_orderkey, o.o_totalprice,
                     epoch_us(o.o_orderdate) AS right_ts_us,
                     row_number() OVER (PARTITION BY e.event_id
                                        ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e JOIN orders o
                ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts
            )
            SELECT user_id, event_id, ts_us, o_orderkey, o_totalprice, right_ts_us
            FROM j WHERE rn = 1 ORDER BY event_id
        """,
        "range_join": (
            "SELECT e.event_id, e.value AS value, p.p_partkey, "
            "p.p_partkey * 2.0 AS lo, p.p_partkey * 2.0 + 3.0 AS hi "
            "FROM events e JOIN part p ON p.p_partkey < 200 "
            "AND e.value BETWEEN p.p_partkey * 2.0 AND p.p_partkey * 2.0 + 3.0 "
            "ORDER BY e.event_id, p.p_partkey"
        ),
        "readability": (
            # same planted periods as split_sentences; RE2 counts both sides;
            # all literals pinned ::DOUBLE (DuckDB decimal literals otherwise
            # change the arithmetic — the pagerank lesson)
            "WITH aug AS (SELECT doc_id, regexp_replace(coalesce(text,''), "
            "'((\\S+ ){6}\\S+) ', '\\1. ', 'g') AS t FROM documents), "
            "c AS (SELECT doc_id, "
            "len(regexp_extract_all(t, '\\S+'))::BIGINT AS w, "
            "len(regexp_extract_all(t, '[.!?]+'))::BIGINT AS s, "
            "len(regexp_extract_all(t, '[aeiouyAEIOUY]+'))::BIGINT AS y "
            "FROM aug) "
            "SELECT doc_id, w AS n_words, greatest(s, 1) AS n_sentences, "
            "y AS n_syllables, "
            "round(206.835::DOUBLE - 1.015::DOUBLE * (w / CAST(greatest(s, 1) AS DOUBLE)) "
            "- 84.6::DOUBLE * (y / CAST(w AS DOUBLE)), 4) AS flesch_ease, "
            "round(0.39::DOUBLE * (w / CAST(greatest(s, 1) AS DOUBLE)) "
            "+ 11.8::DOUBLE * (y / CAST(w AS DOUBLE)) - 15.59::DOUBLE, 4) AS fk_grade "
            "FROM c WHERE w > 0 ORDER BY doc_id"
        ),
        "keep_latest": (
            "SELECT event_id, epoch_us(ts) AS ts_us, user_id, event_type, "
            "value, props FROM events "
            "QUALIFY row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) = 1 ORDER BY user_id"
        ),
        "keep_earliest": (
            "SELECT event_id, epoch_us(ts) AS ts_us, user_id, event_type, "
            "value, props FROM events "
            "QUALIFY row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts ASC, event_id ASC) = 1 ORDER BY user_id"
        ),
        "corpus_overlap": (
            # distinct word-3-gram shingles per SOURCE (same shingle CTE as
            # the minhash oracle), full pair matrix incl. zero overlaps
            f"WITH {sqlgen.word_shingles_cte('documents')}, "
            "gsh AS (SELECT DISTINCT d.source AS g, w.s AS s "
            "FROM wsh w JOIN documents d ON d.doc_id = w.doc_id), "
            "sizes AS (SELECT g, count(*) AS sz FROM gsh GROUP BY g), "
            "inter AS (SELECT a.g AS ga, b.g AS gb, count(*) AS i "
            "FROM gsh a JOIN gsh b ON a.s = b.s AND a.g < b.g "
            "GROUP BY a.g, b.g), "
            "pairs AS (SELECT a.g AS ga, a.sz AS sza, b.g AS gb, b.sz AS szb "
            "FROM sizes a JOIN sizes b ON a.g < b.g) "
            "SELECT p.ga AS source_a, p.gb AS source_b, p.sza AS size_a, "
            "p.szb AS size_b, coalesce(i.i, 0) AS intersection, "
            "round(coalesce(i.i, 0)::DOUBLE / (p.sza + p.szb - coalesce(i.i, 0)), 4) AS jaccard, "
            "round(coalesce(i.i, 0)::DOUBLE / least(p.sza, p.szb), 4) AS containment "
            "FROM pairs p LEFT JOIN inter i ON i.ga = p.ga AND i.gb = p.gb "
            "ORDER BY source_a, source_b"
        ),
        "linear_score": (
            # same md5 % dim feature hashing as hashed_bow; synthetic weights
            # re-derived per bucket via md5_number_lower; literals pinned
            "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
            "coalesce(text, ''), '\\S+')) AS tok FROM documents), "
            "b AS (SELECT doc_id, CAST(md5_number_lower(tok) % 64 AS BIGINT) "
            "AS bucket FROM toks), "
            "w AS (SELECT doc_id, "
            "(CAST(md5_number_lower('w7:' || CAST(bucket AS VARCHAR)) % 20001 AS BIGINT) "
            "- 10000) / 10000.0::DOUBLE AS wt FROM b), "
            "s AS (SELECT doc_id, count(*)::BIGINT AS n_tokens, sum(wt) AS sw "
            "FROM w GROUP BY doc_id) "
            "SELECT doc_id, n_tokens, "
            "round(sw / CAST(n_tokens AS DOUBLE), 4) AS logit, "
            "round(1.0::DOUBLE / (1.0::DOUBLE + exp(-(sw / CAST(n_tokens AS DOUBLE)))), 4) AS prob "
            "FROM s ORDER BY doc_id"
        ),
        "snapshot_diff": (
            # text compared directly (≡ the op's blake2b-128 digests modulo
            # negligible collisions — same contract as dedup_against)
            "WITH o AS (SELECT doc_id, coalesce(text, '') AS t FROM documents "
            "WHERE doc_id % 11 <> 3), "
            "n AS (SELECT doc_id, CASE WHEN doc_id % 5 = 0 "
            "THEN coalesce(text, '') || ' v2' ELSE coalesce(text, '') END AS t "
            "FROM documents WHERE doc_id % 7 <> 0) "
            "SELECT coalesce(o.doc_id, n.doc_id) AS doc_id, "
            "CASE WHEN o.doc_id IS NULL THEN 'added' "
            "WHEN n.doc_id IS NULL THEN 'removed' ELSE 'changed' END AS status "
            "FROM o FULL OUTER JOIN n ON o.doc_id = n.doc_id "
            "WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.t <> n.t "
            "ORDER BY doc_id"
        ),
        "margin_mine": (
            # all-pairs ground truth with window-ranked top-k both ways;
            # margin from RAW cosines, rounded only at the edge
            "WITH a AS (SELECT vec_id, embedding FROM embeddings WHERE label % 2 = 0), "
            "b AS (SELECT vec_id, embedding FROM embeddings WHERE label % 2 = 1), "
            "p AS (SELECT a.vec_id AS sa, b.vec_id AS tb, "
            "list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS c "
            "FROM a CROSS JOIN b), "
            "f AS (SELECT sa, tb, c, row_number() OVER "
            "(PARTITION BY sa ORDER BY c DESC, tb) AS rn FROM p), "
            "fa AS (SELECT sa, avg(c) AS af FROM f WHERE rn <= 4 GROUP BY sa), "
            "r AS (SELECT tb, c, row_number() OVER "
            "(PARTITION BY tb ORDER BY c DESC, sa) AS rn FROM p), "
            "ra AS (SELECT tb, avg(c) AS ar FROM r WHERE rn <= 4 GROUP BY tb), "
            "best AS (SELECT sa, tb, c FROM f WHERE rn = 1) "
            "SELECT best.sa AS src_id, best.tb AS tgt_id, "
            "round(best.c, 4) AS cosine, "
            "round(best.c / ((fa.af + ra.ar) / 2.0::DOUBLE), 4) AS margin "
            "FROM best JOIN fa ON fa.sa = best.sa JOIN ra ON ra.tb = best.tb "
            "ORDER BY src_id"
        ),
        "budget_select": (
            # window-sum ground truth for the distributed prefix-sum cut;
            # integer costs make the cumulative exact on both sides
            "WITH s AS (SELECT doc_id, "
            "CAST(md5_number_lower('bsel:' || CAST(doc_id AS VARCHAR)) % 100000 AS BIGINT) AS score, "
            "n_chars FROM documents), "
            "c AS (SELECT doc_id, score, n_chars, "
            "CAST(sum(n_chars) OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS cum FROM s) "
            "SELECT doc_id, score, n_chars, cum FROM c "
            "WHERE cum <= (SELECT CAST(floor(0.1::DOUBLE * sum(n_chars)) AS BIGINT) "
            "FROM documents) ORDER BY doc_id"
        ),
        "code_detect": (
            # same planted snippet (chr(10) joins ≡ the Python \n literal);
            # the (?m) line pattern runs RE2 in BOTH engines
            "WITH aug AS (SELECT doc_id, coalesce(text,'') || CASE WHEN doc_id % 4 = 0 "
            "THEN chr(10) || 'for (i = 0; i < n; i++) {' || chr(10) || "
            "'  total += i;' || chr(10) || '}' || chr(10) || 'return total;' "
            "|| chr(10) || 'def f():' ELSE '' END AS t FROM documents) "
            "SELECT doc_id, "
            "CAST(len(string_split(t, chr(10))) AS BIGINT) AS n_lines, "
            "CAST(len(regexp_extract_all(t, "
            "'(?m)^(?:[ \\t]*(?:def |class |import |from |return |function |var |const |let |#include)[^\\n]*|[^\\n]*[{};][ \\t]*)$'"
            ")) AS BIGINT) AS n_code_lines, "
            "CAST(length(t) - length(replace(t, ';', '')) AS BIGINT) AS n_semicolons, "
            "CAST(len(regexp_extract_all(t, '[{}]')) AS BIGINT) AS n_braces, "
            "round(len(regexp_extract_all(t, "
            "'(?m)^(?:[ \\t]*(?:def |class |import |from |return |function |var |const |let |#include)[^\\n]*|[^\\n]*[{};][ \\t]*)$'"
            ")) / CAST(len(string_split(t, chr(10))) AS DOUBLE), 4) AS code_frac "
            "FROM aug ORDER BY doc_id"
        ),
        "broadcast_join": (
            "SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, "
            "c.c_name FROM orders o JOIN customer c "
            "ON c.c_custkey = o.o_custkey ORDER BY o.o_orderkey"
        ),
        "grouped_agg": (
            # integral-valued l_quantity → order-independent exact sums/means
            "SELECT l_returnflag, l_linestatus, "
            "sum(l_quantity) AS sum_qty, "
            "count(l_orderkey)::BIGINT AS n_rows, "
            "min(l_extendedprice) AS min_price, "
            "max(l_extendedprice) AS max_price, "
            "avg(l_quantity) AS avg_qty "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        ),
        "knn_recall": (
            # exact graph (all-pairs window top-k) LEFT JOIN the replayed
            # LSH graph (inlined hyperplanes) on the edge — recall per vec
            "SELECT e.vec_id, count(*)::BIGINT AS n_exact, "
            "count(a.nbr_id)::BIGINT AS n_hit, "
            "round(count(a.nbr_id) / CAST(count(*) AS DOUBLE), 4) AS recall "
            "FROM (SELECT vec_id, nbr_id FROM ("
            "  SELECT x.vec_id AS vec_id, y.vec_id AS nbr_id, "
            "         row_number() OVER (PARTITION BY x.vec_id ORDER BY "
            "           list_cosine_similarity(x.embedding::DOUBLE[], y.embedding::DOUBLE[]) DESC, y.vec_id) AS rank "
            "  FROM embeddings x JOIN embeddings y ON x.vec_id <> y.vec_id"
            ") t WHERE rank <= 5) e "
            f"LEFT JOIN ({sqlgen.knn_graph_lsh_sql(64, k=5, n_bits=6, n_tables=3)}) a "
            "ON a.vec_id = e.vec_id AND a.nbr_id = e.nbr_id "
            "GROUP BY e.vec_id ORDER BY e.vec_id"
        ),
        "image_meta": (
            # fake dims derive from md5 digest bytes [8:16] little-endian ==
            # md5_number_lower; digest16 = first 16 hex chars of md5; n_bytes
            # = UTF-8 byte length (strlen). The float histogram column is
            # excluded — image_features keeps the full rows-only entry.
            "WITH b AS (SELECT doc_id, coalesce(text, '') AS t FROM documents) "
            "SELECT doc_id, 'image/fake' AS media_type, "
            "strlen(t)::BIGINT AS n_bytes, "
            "substr(md5(t), 1, 16) AS digest16, "
            "CAST(64 + (md5_number_lower(t) % 256) % 192 AS INTEGER) AS width, "
            "CAST(64 + ((md5_number_lower(t) // 256) % 256) % 192 AS INTEGER) AS height "
            "FROM b ORDER BY doc_id"
        ),
        "drop_frequent_lines": (
            # same RE2 newline plant as the Ray side; frequent = total line
            # count (within-doc repeats included) > 1; docs re-joined in
            # original line order, all-boilerplate docs become ''
            "WITH aug AS (SELECT doc_id, regexp_replace(coalesce(text, ''), "
            r"'((\S+ ){2}\S+) ', '\1' || chr(10), 'g') AS t FROM documents), "
            "lines AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line, "
            "generate_subscripts(string_split(t, chr(10)), 1) AS ord FROM aug), "
            "freq AS (SELECT line FROM lines GROUP BY line HAVING count(*) > 1) "
            "SELECT l.doc_id, coalesce(string_agg(CASE WHEN f.line IS NULL "
            "THEN l.line END, chr(10) ORDER BY l.ord), '') AS text, "
            "count(f.line)::BIGINT AS n_removed "
            "FROM lines l LEFT JOIN freq f ON l.line = f.line "
            "GROUP BY l.doc_id ORDER BY l.doc_id"
        ),
        "rrf_fuse": (
            # two ranked lists (price / recency per customer) → RRF top-5;
            # epoch_us/1000000.0 mirrors the Ray side's us/1e6 double exactly
            "WITH a AS (SELECT o_custkey AS query_id, o_orderkey AS doc_id, "
            "o_totalprice AS score FROM orders), "
            "b AS (SELECT o_custkey AS query_id, o_orderkey AS doc_id, "
            "CAST(epoch_us(o_orderdate) AS DOUBLE)/1000000.0 AS score FROM orders), "
            "ra AS (SELECT query_id, doc_id, row_number() OVER (PARTITION BY "
            "query_id ORDER BY score DESC, doc_id) AS r FROM a), "
            "rb AS (SELECT query_id, doc_id, row_number() OVER (PARTITION BY "
            "query_id ORDER BY score DESC, doc_id) AS r FROM b), "
            "u AS (SELECT query_id, doc_id, r FROM ra UNION ALL "
            "SELECT query_id, doc_id, r FROM rb), "
            "s AS (SELECT query_id, doc_id, sum(1.0/(60+r)) AS rrf_score "
            "FROM u GROUP BY 1, 2), "
            "t AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY "
            "rrf_score DESC, doc_id) AS rnk FROM s) "
            "SELECT query_id, doc_id, rrf_score, CAST(rnk AS BIGINT) AS rank "
            "FROM t WHERE rnk <= 5 ORDER BY query_id, rank"
        ),
        "collocations_unigram": (
            # PMI with one fixed double expression (c_ab*N)/(c_a*c_b) then
            # ln, ROUND(...,4) on both engines; ordering uses the ROUNDED
            # value so ulp-level libm differences cannot reorder rows
            "WITH toks AS (SELECT doc_id, "
            r"unnest(list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'), x -> x <> '')) AS tok, "
            r"generate_subscripts(list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'), x -> x <> ''), 1) AS ord "
            "FROM documents), "
            "big AS (SELECT tok AS w1, lead(tok) OVER (PARTITION BY doc_id "
            "ORDER BY ord) AS w2 FROM toks), "
            "bc AS (SELECT w1, w2, count(*) AS n_ab FROM big WHERE w2 IS NOT "
            "NULL GROUP BY 1, 2 HAVING count(*) >= 5), "
            "uc AS (SELECT tok AS word, count(*) AS c FROM toks GROUP BY 1), "
            "tot AS (SELECT count(*) AS n FROM toks) "
            "SELECT bc.w1, bc.w2, bc.n_ab, u1.c AS n_a, u2.c AS n_b, "
            "ROUND(ln((CAST(bc.n_ab AS DOUBLE) * CAST(tot.n AS DOUBLE)) / "
            "(CAST(u1.c AS DOUBLE) * CAST(u2.c AS DOUBLE))), 4) AS pmi "
            "FROM bc, tot "
            "JOIN uc u1 ON bc.w1 = u1.word JOIN uc u2 ON bc.w2 = u2.word "
            "ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT 100"
        ),
        "grouped_corr": (
            # the SAME closed form over sum()s the op evaluates — exact for
            # integer-valued columns, so bitwise equal (NULL ≡ NaN when a
            # group has zero variance)
            "WITH m AS (SELECT l_returnflag, l_linestatus, "
            "CASE WHEN l_quantity IS NOT NULL AND l_linenumber IS NOT NULL "
            "THEN CAST(l_quantity AS DOUBLE) END AS x, "
            "CASE WHEN l_quantity IS NOT NULL AND l_linenumber IS NOT NULL "
            "THEN CAST(l_linenumber AS DOUBLE) END AS y FROM lineitem), "
            "s AS (SELECT l_returnflag, l_linestatus, count(x) AS n, "
            "sum(x) AS sx, sum(y) AS sy, sum(x*x) AS sxx, sum(y*y) AS syy, "
            "sum(x*y) AS sxy FROM m GROUP BY 1, 2) "
            "SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n, "
            "CASE WHEN (n*sxx - sx*sx) * (n*syy - sy*sy) > 0 THEN "
            "(n*sxy - sx*sy) / sqrt((n*sxx - sx*sx) * (n*syy - sy*sy)) END AS corr "
            "FROM s ORDER BY l_returnflag, l_linestatus"
        ),
        "deterministic_shuffle": (
            # md5_number_lower('seed:id') % 2^62 == ops.dedup._md5_u64 —
            # the repo-wide cross-engine hash; ties broken by doc_id
            "SELECT doc_id, n_chars, "
            "CAST(md5_number_lower('7:' || CAST(doc_id AS VARCHAR)) "
            "% 4611686018427387904 AS BIGINT) AS shuffle_key "
            "FROM documents ORDER BY shuffle_key, doc_id"
        ),
        "rolling_window": (
            # integral l_quantity ⇒ cumsum-difference == windowed sum
            # bit-for-bit; roll_mean = same sum / same count division
            "SELECT l_suppkey, epoch_us(l_shipdate) AS ts_us, l_orderkey, "
            "l_linenumber, l_quantity, "
            "sum(l_quantity) OVER w AS roll_sum, "
            "CAST(count(*) OVER w AS BIGINT) AS roll_n, "
            "sum(l_quantity) OVER w / count(*) OVER w AS roll_mean "
            "FROM lineitem "
            "WINDOW w AS (PARTITION BY l_suppkey ORDER BY l_shipdate, "
            "l_orderkey, l_linenumber ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) "
            "ORDER BY l_suppkey, ts_us, l_orderkey, l_linenumber"
        ),
        "dedup_lines_within": (
            # same plain space→newline replace on both engines; keep each
            # line's first occurrence per doc, re-join in order
            "WITH aug AS (SELECT doc_id, replace(coalesce(text, ''), ' ', "
            "chr(10)) AS t FROM documents), "
            "lines AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line, "
            "generate_subscripts(string_split(t, chr(10)), 1) AS ord FROM aug), "
            "firsts AS (SELECT doc_id, line, min(ord) AS ord FROM lines "
            "GROUP BY 1, 2), "
            "tot AS (SELECT doc_id, count(*) AS nt FROM lines GROUP BY 1), "
            "ded AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY ord) "
            "AS text, count(*) AS nd FROM firsts GROUP BY 1) "
            "SELECT t.doc_id, coalesce(d.text, '') AS text, "
            "CAST(t.nt - d.nd AS BIGINT) AS n_removed "
            "FROM tot t JOIN ded d ON d.doc_id = t.doc_id ORDER BY t.doc_id"
        ),
        "fuzzy_pairs": (
            # byte-level levenshtein (probe: levenshtein('é','e') = 2) over
            # an md5-bucketed subset of distinct names; strlen band prunes
            # the self-join, = the op's lossless deletion blocking superset
            "WITH keys AS (SELECT DISTINCT c_name AS w FROM customer "
            "WHERE c_name IS NOT NULL AND c_name <> '' "
            "AND md5_number_lower(c_name) % 4 = 0) "
            "SELECT word_a, word_b, dist FROM ("
            "SELECT a.w AS word_a, b.w AS word_b, "
            "CAST(levenshtein(a.w, b.w) AS BIGINT) AS dist "
            "FROM keys a JOIN keys b ON a.w < b.w "
            "AND abs(strlen(a.w) - strlen(b.w)) <= 1) "
            "WHERE dist <= 1 ORDER BY word_a, word_b"
        ),
        "fuzzy_key_clusters": (
            # recursive transitive closure over the same banded levenshtein
            # pair set; canonical = LEAST(self, min reachable)
            "WITH RECURSIVE keys AS (SELECT DISTINCT c_name AS w FROM customer "
            "WHERE c_name IS NOT NULL AND c_name <> '' "
            "AND md5_number_lower(c_name) % 16 = 0), "
            "p AS (SELECT a.w AS wa, b.w AS wb FROM keys a JOIN keys b "
            "ON a.w < b.w AND abs(strlen(a.w) - strlen(b.w)) <= 1 "
            "AND levenshtein(a.w, b.w) <= 1), "
            "edges AS (SELECT wa AS src, wb AS dst FROM p "
            "UNION SELECT wb, wa FROM p), "
            "reach(src, dst) AS (SELECT src, dst FROM edges UNION "
            "SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src), "
            "rep AS (SELECT src AS word, min(dst) AS mn FROM reach "
            "GROUP BY src) "
            "SELECT k.w AS word, LEAST(k.w, coalesce(rep.mn, k.w)) AS canonical "
            "FROM keys k LEFT JOIN rep ON rep.word = k.w ORDER BY word"
        ),
        "hash_join_full": (
            # both sides filtered so unmatched rows exist on BOTH sides;
            # engine returns the coalesced key and sorts NULLS LAST (Arrow
            # sort_by at_end == DuckDB ASC default)
            "SELECT COALESCE(o.o_custkey, c.c_custkey) AS o_custkey, "
            "o.o_orderkey, o.o_totalprice, c.c_name "
            "FROM (SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
            "WHERE o_orderkey % 3 = 0) o "
            "FULL OUTER JOIN (SELECT c_custkey, c_name FROM customer "
            "WHERE c_custkey % 4 <> 0) c ON o.o_custkey = c.c_custkey "
            "ORDER BY o_custkey, o_orderkey"
        ),
        "pivot_table": (
            # SUM(CASE WHEN) null semantics: empty (key, cat) cells are
            # NULL; integral l_quantity ⇒ order-free exact float sums
            "SELECT l_suppkey, "
            "SUM(CASE WHEN l_returnflag='A' THEN l_quantity END) "
            'AS "l_quantity_A", '
            "SUM(CASE WHEN l_returnflag='N' THEN l_quantity END) "
            'AS "l_quantity_N", '
            "SUM(CASE WHEN l_returnflag='R' THEN l_quantity END) "
            'AS "l_quantity_R" '
            "FROM lineitem GROUP BY l_suppkey ORDER BY l_suppkey"
        ),
        "unpivot_long": (
            "SELECT * FROM ("
            "SELECT l_orderkey, l_linenumber, 'l_quantity' AS name, "
            "CAST(l_quantity AS DOUBLE) AS value FROM lineitem "
            "UNION ALL SELECT l_orderkey, l_linenumber, 'l_extendedprice', "
            "l_extendedprice FROM lineitem "
            "UNION ALL SELECT l_orderkey, l_linenumber, 'l_discount', "
            "l_discount FROM lineitem) "
            "ORDER BY l_orderkey, l_linenumber, name, value"
        ),
        "quota_sample": (
            # qkey = md5_number_lower('seed:id') % 2^62 == ops.dedup._md5_u64
            # convention; top-3 per user by qkey DESC, event_id tiebreak
            "SELECT user_id, qkey, event_id, rank FROM ("
            "SELECT user_id, event_id, "
            "CAST(md5_number_lower('11:' || CAST(event_id AS VARCHAR)) "
            "% 4611686018427387904 AS BIGINT) AS qkey, "
            "CAST(row_number() OVER (PARTITION BY user_id "
            "ORDER BY qkey DESC, event_id) AS BIGINT) AS rank FROM events"
            ") WHERE rank <= 3 ORDER BY user_id, rank"
        ),
        "dedup_paragraphs": (
            # paragraph-granularity first-occurrence dedup: split on
            # chr(10)||chr(10), winner = min packed pos, blanks survive
            "WITH docs2 AS (SELECT doc_id, CASE WHEN doc_id % 4 = 0 THEN "
            "coalesce(text, '') || chr(10) || chr(10) || "
            "'Subscribe to our newsletter today' "
            "ELSE coalesce(text, '') END AS text FROM documents), "
            "d AS (SELECT doc_id, string_split(text, chr(10) || chr(10)) AS ls FROM docs2), "
            "idx AS (SELECT unnest(generate_series(1, (SELECT coalesce(max(len(ls)), 1) FROM d))) AS i), "
            "lines AS (SELECT d.doc_id, i.i, d.ls[i.i] AS line FROM d, idx i WHERE i.i <= len(d.ls)), "
            "nb AS (SELECT doc_id, i, line, doc_id * 4194304 + (i - 1) AS pos FROM lines "
            "WHERE trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) <> ''), "
            "w AS (SELECT line, min(pos) AS keep_pos FROM nb GROUP BY line), "
            "kept AS (SELECT l.doc_id, l.i, l.line FROM lines l LEFT JOIN w ON w.line = l.line "
            "WHERE trim(l.line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) = '' "
            "OR l.doc_id * 4194304 + (l.i - 1) = w.keep_pos), "
            "agg AS (SELECT doc_id, string_agg(line, chr(10) || chr(10) ORDER BY i) AS text "
            "FROM kept GROUP BY doc_id) "
            "SELECT d2.doc_id, coalesce(a.text, '') AS text "
            "FROM documents d2 LEFT JOIN agg a ON d2.doc_id = a.doc_id "
            "ORDER BY d2.doc_id"
        ),
        "grouped_mode": (
            # mode = most frequent non-null value per key, ties -> smallest
            "SELECT user_id, mode_value, mode_count FROM ("
            "SELECT user_id, event_type AS mode_value, "
            "CAST(count(*) AS BIGINT) AS mode_count, "
            "row_number() OVER (PARTITION BY user_id "
            "ORDER BY count(*) DESC, event_type) AS rn "
            "FROM events WHERE event_type IS NOT NULL "
            "GROUP BY user_id, event_type) WHERE rn = 1 ORDER BY user_id"
        ),
        "lag_values": (
            # LAG with SQL null semantics; delta = value - lag(value) over
            # identical float64 operands => bitwise-equal across engines
            "SELECT user_id, event_id, epoch_us(ts) AS ts_us, value, "
            "lag(value) OVER w AS prev_value, "
            "value - lag(value) OVER w AS delta "
            "FROM events WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts, event_id) ORDER BY user_id, ts_us, event_id"
        ),
        "ngram_freq": (
            # RE2 \s+ split (ASCII whitespace — ops/asciiws parity rule)
            "WITH ws AS (SELECT list_filter(string_split_regex(lower(text), "
            "'\\s+'), x -> x <> '') AS w FROM documents), "
            "pos AS (SELECT w, unnest(generate_series(1, len(w) - 2)) AS i "
            "FROM ws WHERE len(w) >= 3), "
            "g AS (SELECT w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS gram "
            "FROM pos) "
            "SELECT gram, CAST(count(*) AS BIGINT) AS n FROM g "
            "GROUP BY gram HAVING count(*) >= 5 ORDER BY gram"
        ),
        "html_density": (
            # byte-length semantics on both engines (strlen == Arrow
            # binary_length on strings); same synthetic html as html_extract
            "WITH h AS (SELECT doc_id, "
            "'<html><head><title>t</title><script>var x=1;</script></head>"
            "<body><h1>Doc ' || CAST(doc_id AS VARCHAR) || '</h1><p>' || "
            "coalesce(text,'') || '</p><!-- c --></body></html>' AS html "
            "FROM documents) "
            "SELECT doc_id, CAST(strlen(html) AS BIGINT) AS html_len, "
            "CAST(len(regexp_extract_all(html, '<[^>]*>')) AS BIGINT) "
            "AS n_tags, "
            "CAST(strlen(regexp_replace(html, '<[^>]*>', '', 'g')) AS BIGINT) "
            "AS text_len, "
            "ROUND(CASE WHEN strlen(html) > 0 THEN "
            "strlen(regexp_replace(html, '<[^>]*>', '', 'g'))::DOUBLE "
            "/ strlen(html) ELSE 0 END, 4) AS text_ratio "
            "FROM h ORDER BY doc_id"
        ),
        "knn_label_precision": (
            # same list_cosine_similarity ranking convention as knn_cosine
            "WITH q AS (SELECT vec_id AS qid, embedding AS qe, label AS "
            "qlabel FROM embeddings WHERE vec_id < 5), "
            "r AS (SELECT q.qid, q.qlabel, b.vec_id, b.label, "
            "row_number() OVER (PARTITION BY q.qid ORDER BY "
            "list_cosine_similarity(b.embedding::DOUBLE[], q.qe::DOUBLE[]) "
            "DESC, b.vec_id) AS rnk "
            "FROM q JOIN embeddings b ON b.vec_id <> q.qid) "
            "SELECT qid AS query_id, CAST(count(*) AS BIGINT) AS k_eff, "
            "CAST(sum(CASE WHEN label = qlabel THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_match, "
            "ROUND(sum(CASE WHEN label = qlabel THEN 1 ELSE 0 END)::DOUBLE "
            "/ count(*), 4) AS precision "
            "FROM r WHERE rnk <= 10 GROUP BY qid ORDER BY qid"
        ),
        "ivf_pq_knn": sqlgen.ivf_pq_knn_sql(
            4, 2, 2, 8, 2, 3, 10, 64
        ),
        "pq_knn": sqlgen.pq_knn_sql(
            2, 8, 2, 3, 10, 64
        ),
        "kmv_distinct": (
            # same KMV rule: distinct md5 hashes per group, kth-smallest →
            # (k-1)*2^64/h_k (both factors/divides IEEE-exact); exact count
            # below k. 2^64 literal is a power of two → exact DOUBLE.
            "WITH h AS (SELECT DISTINCT l_returnflag AS g, "
            "md5_number_lower('kmv:' || CAST(l_partkey AS VARCHAR)) AS h "
            "FROM lineitem WHERE l_partkey IS NOT NULL), "
            "r AS (SELECT g, h, row_number() OVER (PARTITION BY g ORDER BY h) "
            "AS rnk, count(*) OVER (PARTITION BY g) AS cnt FROM h) "
            "SELECT g AS l_returnflag, "
            "CASE WHEN cnt < 256 THEN CAST(cnt AS DOUBLE) "
            "ELSE ROUND(255.0 * 18446744073709551616.0 / CAST(h AS DOUBLE), 4) "
            "END AS est_distinct, "
            "CAST(LEAST(cnt, 256) AS BIGINT) AS n_hashes "
            "FROM r WHERE rnk = 256 OR (cnt < 256 AND rnk = 1) "
            "ORDER BY l_returnflag"
        ),
        "bloom_membership": (
            # same Kirsch-Mitzenmacher double hashing as the op's engine
            # (ops/dedup._bloom_positions): pos_i = (h1 + i*h2) % m over the
            # two md5 halves reduced mod m; hit ⇔ all 3 positions set
            "WITH bench AS (SELECT DISTINCT c_name FROM customer "
            "WHERE c_custkey % 10 = 0 AND c_name IS NOT NULL), "
            "bh AS (SELECT CAST(md5_number_lower(c_name) % 512 AS BIGINT) AS h1, "
            "CAST(md5_number_upper(c_name) % 512 AS BIGINT) AS h2 FROM bench), "
            "ser AS (SELECT unnest(generate_series(0, 2)) AS i), "
            "bits AS (SELECT DISTINCT (h1 + i * h2) % 512 AS p FROM bh, ser), "
            "ph AS (SELECT c_custkey, c_name, "
            "CAST(md5_number_lower(c_name) % 512 AS BIGINT) AS h1, "
            "CAST(md5_number_upper(c_name) % 512 AS BIGINT) AS h2 FROM customer), "
            "cp AS (SELECT c_custkey, (h1 + i * h2) % 512 AS p FROM ph, ser), "
            "hits AS (SELECT c_custkey, count(*) AS c FROM cp "
            "JOIN bits USING (p) GROUP BY c_custkey) "
            "SELECT cu.c_custkey, cu.c_name, coalesce(h.c, 0) = 3 AS bloom_hit "
            "FROM customer cu LEFT JOIN hits h ON h.c_custkey = cu.c_custkey "
            "ORDER BY cu.c_custkey"
        ),
        "contamination_report": (
            # same gram convention as `decontaminate` (space-joined token
            # strings ≡ the uint64 polynomial hash modulo collisions), pivoted
            # to the benchmark side: distinct docs / (doc, gram) pairs per item
            "WITH ws AS (SELECT doc_id, "
            "list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w "
            "FROM documents), "
            "pos AS (SELECT doc_id, w, "
            "unnest(generate_series(1, len(w) - 2)) AS i FROM ws), "
            "grams AS (SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g "
            "FROM pos), "
            "bg AS (SELECT DISTINCT doc_id AS bench_id, g FROM grams "
            "WHERE doc_id % 97 = 0), "
            "cg AS (SELECT DISTINCT doc_id, g FROM grams "
            "WHERE doc_id % 97 <> 0), "
            "j AS (SELECT bg.bench_id, cg.doc_id FROM bg JOIN cg USING (g)), "
            "agg AS (SELECT bench_id, count(DISTINCT doc_id) AS n_docs, "
            "count(*) AS n_gram_hits FROM j GROUP BY bench_id) "
            "SELECT d.doc_id AS bench_id, "
            "CAST(coalesce(a.n_docs, 0) AS BIGINT) AS n_docs, "
            "CAST(coalesce(a.n_gram_hits, 0) AS BIGINT) AS n_gram_hits "
            "FROM documents d LEFT JOIN agg a ON a.bench_id = d.doc_id "
            "WHERE d.doc_id % 97 = 0 ORDER BY bench_id"
        ),
        "priority_sample": (
            # q = w / ((CAST(h AS DOUBLE)+1)/2^64): same association order
            # as the numpy side, every step IEEE-exact → bit-identical q
            "WITH q AS (SELECT o_orderkey, o_totalprice, "
            "CAST(o_totalprice AS DOUBLE) / "
            "((CAST(md5_number_lower('ps:' || CAST(o_orderkey AS VARCHAR)) "
            "AS DOUBLE) + 1.0) / 18446744073709551616.0) AS q FROM orders), "
            "top AS (SELECT * FROM q ORDER BY q DESC, o_orderkey LIMIT 200) "
            "SELECT o_orderkey, o_totalprice, q FROM top ORDER BY o_orderkey"
        ),
        "grouped_distinct": (
            "SELECT l_returnflag, l_linestatus, "
            "count(DISTINCT l_partkey)::BIGINT AS n_parts, "
            "count(DISTINCT l_suppkey)::BIGINT AS n_supps "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        ),
        "grouped_rollup": (
            # integral-valued l_quantity → exact sums at every level;
            # '(all)' coalesce on both engines sidesteps NULL ordering
            "SELECT coalesce(l_returnflag, '(all)') AS l_returnflag, "
            "coalesce(l_linestatus, '(all)') AS l_linestatus, "
            "sum(l_quantity) AS sum_qty, "
            "count(l_orderkey)::BIGINT AS n_rows, "
            "CAST(GROUPING(l_returnflag) + GROUPING(l_linestatus) AS BIGINT) "
            "AS level "
            "FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus) "
            "ORDER BY level, 1, 2"
        ),
        "corpus_drift": (
            # DSIR features (unigram+bigram md5 buckets, '[ \t\n\r]+' split
            # per ops/dsir._SPLIT), add-1 smoothing with the SAME fixed
            # expression (c+1)/(n+B); 512-bucket KL sums round4 both sides
            "WITH t AS (SELECT doc_id, source, list_filter("
            "string_split_regex(lower(coalesce(text, '')), '[ \t\n\r]+'), "
            "x -> x != '') AS ws FROM documents), "
            "tok AS (SELECT doc_id, source, unnest(ws) AS w, "
            "generate_subscripts(ws, 1) AS i FROM t), "
            "uni AS (SELECT source, CAST(md5_number_lower(w) % 512 AS BIGINT) "
            "AS bk FROM tok), "
            "big AS (SELECT a.source, "
            "CAST(md5_number_lower(a.w || ' ' || c.w) % 512 AS BIGINT) AS bk "
            "FROM tok a JOIN tok c ON a.doc_id = c.doc_id AND c.i = a.i + 1), "
            "feat AS (SELECT * FROM uni UNION ALL SELECT * FROM big), "
            "srcs AS (SELECT DISTINCT source FROM documents), "
            "bks AS (SELECT unnest(generate_series(0, 511)) AS bk), "
            "tot AS (SELECT source, count(*) AS n FROM feat GROUP BY source), "
            "cnt AS (SELECT source, bk, count(*) AS c FROM feat GROUP BY 1, 2), "
            "p AS (SELECT s.source, b.bk, "
            "(CAST(coalesce(c.c, 0) AS DOUBLE) + 1.0) / "
            "(CAST(coalesce(t.n, 0) AS DOUBLE) + 512) AS p "
            "FROM srcs s CROSS JOIN bks b "
            "LEFT JOIN cnt c ON c.source = s.source AND c.bk = b.bk "
            "LEFT JOIN tot t ON t.source = s.source) "
            "SELECT a.source AS source_a, b.source AS source_b, "
            "ROUND(sum(a.p * ln(a.p / b.p)), 4) AS kl "
            "FROM p a JOIN p b ON a.bk = b.bk AND a.source <> b.source "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "percentile_rank": (
            # cume_dist = exact integer ratio → bit-identical across engines
            "SELECT o_orderkey, o_totalprice, "
            "cume_dist() OVER (ORDER BY o_totalprice) AS cume_dist "
            "FROM orders ORDER BY o_totalprice, o_orderkey"
        ),
        "ntile_bucket": (
            # unique (value, id) order key ⇒ exact integer buckets
            "SELECT o_orderkey, o_totalprice, "
            "ntile(7) OVER (ORDER BY o_totalprice, o_orderkey)::BIGINT AS bucket "
            "FROM orders ORDER BY o_totalprice, o_orderkey"
        ),
        "winsorize": (
            # quantile_cont == numpy 'linear' interpolation on the same
            # sorted float64 values ⇒ identical thresholds; clamp is exact
            "WITH q AS (SELECT quantile_cont(o_totalprice, 0.05) AS lo, "
            "quantile_cont(o_totalprice, 0.95) AS hi FROM orders) "
            "SELECT o_orderkey, o_totalprice, "
            "round(least(greatest(o_totalprice, q.lo), q.hi), 4) AS winsorized "
            "FROM orders, q ORDER BY o_orderkey"
        ),
        "zscore_features": (
            # SAME fixed expression as the op: (x − sx/n)/sqrt(sxx/n −
            # (sx/n)²); sums exact on integer-valued cols; round4 both sides
            "WITH s AS (SELECT doc_id, n_chars::DOUBLE AS x, "
            "(n_chars % 97)::DOUBLE AS y FROM documents), "
            "st AS (SELECT count(*)::DOUBLE AS n, sum(x) AS sx, "
            "sum(x*x) AS sxx, sum(y) AS sy, sum(y*y) AS syy FROM s) "
            "SELECT doc_id, "
            "round((x - sx/n) / sqrt(sxx/n - (sx/n)*(sx/n)), 4) AS n_chars_z, "
            "round((y - sy/n) / sqrt(syy/n - (sy/n)*(sy/n)), 4) AS chm_z "
            "FROM s, st ORDER BY doc_id"
        ),
        "vocab_coverage": (
            # vocab = tokens with count ≥ 2 in the English subset;
            # oov_rate = exact integer ratio ⇒ bitwise identical
            "WITH toks AS (SELECT doc_id, lang, unnest(regexp_split_to_array("
            "lower(text), '[ \\t\\n\\r]+')) AS tok FROM documents), "
            "toks2 AS (SELECT doc_id, lang, tok FROM toks WHERE tok <> ''), "
            "vocab AS (SELECT tok FROM toks2 WHERE lang = 'en' "
            "GROUP BY tok HAVING count(*) >= 2), "
            "scored AS (SELECT t.doc_id, count(*)::BIGINT AS n_tokens, "
            "count(*) FILTER (v.tok IS NULL)::BIGINT AS n_oov "
            "FROM toks2 t LEFT JOIN vocab v ON t.tok = v.tok "
            "GROUP BY t.doc_id) "
            "SELECT d.doc_id, coalesce(s.n_tokens, 0)::BIGINT AS n_tokens, "
            "coalesce(s.n_oov, 0)::BIGINT AS n_oov, "
            "CASE WHEN coalesce(s.n_tokens, 0) > 0 THEN "
            "s.n_oov::DOUBLE / s.n_tokens::DOUBLE ELSE 0.0 END AS oov_rate "
            "FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id "
            "ORDER BY d.doc_id"
        ),
        "embedding_covariance": (
            # population covariance, SAME fixed expression as the op:
            # sxy/n − (sx_i/n)·(sx_j/n), rounded to 4 on both engines
            "WITH e AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v, "
            "generate_subscripts(embedding, 1) AS i FROM embeddings), "
            "p AS (SELECT a.i AS i, b.i AS j, sum(a.v * b.v) AS sxy "
            "FROM e a JOIN e b USING (vec_id) GROUP BY 1, 2), "
            "m AS (SELECT i, sum(v) AS sx FROM e GROUP BY 1), "
            "n AS (SELECT count(*)::DOUBLE AS n FROM embeddings) "
            "SELECT CAST(p.i - 1 AS BIGINT) AS i, CAST(p.j - 1 AS BIGINT) AS j, "
            "round(p.sxy / n.n - (ma.sx / n.n) * (mb.sx / n.n), 4) AS cov "
            "FROM p, n JOIN m ma ON ma.i = p.i JOIN m mb ON mb.i = p.j "
            "ORDER BY i, j"
        ),
        "link_prediction": (
            # wedge counting mirrors ops/graph.py::link_prediction: hub
            # apexes (directed degree > 64) skipped, existing edges
            # anti-joined, jaccard = exact-int ratio
            "WITH raw AS (SELECT doc_id AS src, (doc_id*7 + j*13) % 500 AS dst "
            "FROM (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents)), "
            "e0 AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b "
            "FROM raw WHERE src <> dst), "
            "e AS (SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0), "
            "deg AS (SELECT u AS node, count(*)::BIGINT AS d FROM e GROUP BY u), "
            "ok AS (SELECT node FROM deg WHERE d <= 64), "
            "w AS (SELECT x.v AS p, y.v AS q, count(*)::BIGINT AS cn "
            "FROM e x JOIN e y ON y.u = x.u AND y.v > x.v "
            "JOIN ok ON ok.node = x.u GROUP BY 1, 2), "
            "nw AS (SELECT w.p, w.q, w.cn FROM w ANTI JOIN e0 "
            "ON w.p = e0.a AND w.q = e0.b) "
            "SELECT nw.p AS u, nw.q AS v, nw.cn AS common_neighbors, "
            "round(CAST(nw.cn AS DOUBLE) / CAST(da.d + db.d - nw.cn AS DOUBLE), 4) "
            "AS jaccard, (da.d * db.d)::BIGINT AS pref_attach "
            "FROM nw JOIN deg da ON da.node = nw.p JOIN deg db ON db.node = nw.q "
            "WHERE nw.cn >= 2 ORDER BY u, v"
        ),
        "state_durations": (
            "WITH o AS (SELECT user_id, event_type, epoch_us(ts) AS t, "
            "lead(epoch_us(ts)) OVER (PARTITION BY user_id "
            "ORDER BY epoch_us(ts), event_id) AS nt FROM events) "
            "SELECT user_id, event_type, sum(nt - t)::BIGINT AS total_us, "
            "count(*)::BIGINT AS n_transitions FROM o WHERE nt IS NOT NULL "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "period_compare": (
            "WITH b AS (SELECT event_type, epoch_us(ts) // 604800000000 "
            "AS period, count(*)::BIGINT AS n FROM events GROUP BY 1, 2) "
            "SELECT b.event_type, b.period, b.n, p.n AS prev_n, "
            "round(CAST(b.n AS DOUBLE) / CAST(p.n AS DOUBLE), 4) AS ratio "
            "FROM b LEFT JOIN b p ON p.event_type = b.event_type "
            "AND p.period = b.period - 1 ORDER BY 1, 2"
        ),
        "benford_deviation": _benford_oracle(),
        "constraint_check": (
            "SELECT * FROM ("
            "SELECT 'custkey_not_null' AS name, "
            "count_if(o_custkey IS NULL)::BIGINT AS violations, "
            "count(*)::BIGINT AS n_rows FROM orders "
            "UNION ALL SELECT 'orderkey_unique', "
            "(count(o_orderkey) - count(DISTINCT o_orderkey))::BIGINT, "
            "count(*)::BIGINT FROM orders "
            "UNION ALL SELECT 'price_range', "
            "count_if(o_totalprice < 0.0 OR o_totalprice > 250000.0)::BIGINT, "
            "count(*)::BIGINT FROM orders "
            "UNION ALL SELECT 'priority_regex', "
            "count_if(NOT regexp_full_match(o_orderpriority, "
            "'[1-5]-[A-Z]+'))::BIGINT, count(*)::BIGINT FROM orders "
            "UNION ALL SELECT 'status_in_set', "
            "count_if(o_orderstatus IS NOT NULL AND o_orderstatus "
            "NOT IN ('O', 'F'))::BIGINT, count(*)::BIGINT FROM orders"
            ") ORDER BY name"
        ),
        "ngram_diversity": (
            "WITH u AS (SELECT doc_id, "
            "unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) AS tok, "
            "generate_subscripts(regexp_extract_all(coalesce(text, ''), "
            "'\\S+'), 1) AS i FROM documents), "
            "g1 AS (SELECT tok AS gram FROM u), "
            "g2 AS (SELECT a.tok || ' ' || b.tok AS gram FROM u a "
            "JOIN u b ON b.doc_id = a.doc_id AND b.i = a.i + 1), "
            "g3 AS (SELECT a.tok || ' ' || b.tok || ' ' || c.tok AS gram "
            "FROM u a JOIN u b ON b.doc_id = a.doc_id AND b.i = a.i + 1 "
            "JOIN u c ON c.doc_id = a.doc_id AND c.i = a.i + 2) "
            "SELECT * FROM ("
            "SELECT 1 AS n, count(*)::BIGINT AS total_ngrams, "
            "count(DISTINCT gram)::BIGINT AS distinct_ngrams, "
            "round(CAST(count(DISTINCT gram) AS DOUBLE) "
            "/ CAST(count(*) AS DOUBLE), 4) AS ratio FROM g1 "
            "UNION ALL SELECT 2, count(*)::BIGINT, "
            "count(DISTINCT gram)::BIGINT, "
            "round(CAST(count(DISTINCT gram) AS DOUBLE) "
            "/ CAST(count(*) AS DOUBLE), 4) FROM g2 "
            "UNION ALL SELECT 3, count(*)::BIGINT, "
            "count(DISTINCT gram)::BIGINT, "
            "round(CAST(count(DISTINCT gram) AS DOUBLE) "
            "/ CAST(count(*) AS DOUBLE), 4) FROM g3"
            ") ORDER BY n"
        ),
        "triangle_count": (
            "WITH raw AS (SELECT doc_id AS src, (doc_id*7 + j*13) % 500 AS dst "
            "FROM (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 4 AS INT))) AS j FROM documents)), "
            "e AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b "
            "FROM raw WHERE src <> dst), "
            "t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z FROM e e1 "
            "JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
            "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b), "
            "nodes AS (SELECT x AS node FROM t UNION ALL SELECT y FROM t "
            "UNION ALL SELECT z FROM t) "
            "SELECT node, count(*)::BIGINT AS triangles FROM nodes "
            "GROUP BY node ORDER BY node"
        ),
        "grouped_ols": (
            # exact int64 sufficient stats; finish expression operation-
            # identical to ops/agg.py::grouped_ols -> bitwise before ROUND
            "WITH b AS (SELECT l_returnflag, "
            "CAST(round(l_quantity * 1) AS BIGINT) AS xi, "
            "CAST(round(l_extendedprice * 100) AS BIGINT) AS yi FROM lineitem "
            "WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL), "
            "s AS (SELECT l_returnflag, count(*)::BIGINT AS n, "
            "sum(xi)::BIGINT AS sx, sum(yi)::BIGINT AS sy, "
            "sum(xi*xi)::BIGINT AS sxx, sum(xi*yi)::BIGINT AS sxy "
            "FROM b GROUP BY l_returnflag), "
            "sl AS (SELECT *, (n::DOUBLE * sxy::DOUBLE - sx::DOUBLE * sy::DOUBLE) "
            "/ NULLIF(n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE, 0.0) "
            "AS slope_s FROM s) "
            "SELECT l_returnflag, n, "
            "round(slope_s * (CAST(1 AS DOUBLE) / CAST(100 AS DOUBLE)), 6) AS slope, "
            "round(((sy::DOUBLE - slope_s * sx::DOUBLE) / n::DOUBLE) "
            "/ CAST(100 AS DOUBLE), 6) AS intercept "
            "FROM sl ORDER BY l_returnflag"
        ),
        "activity_streaks": (
            "WITH d AS (SELECT DISTINCT user_id, "
            "CAST(floor(epoch_us(ts) / 86400000000) AS BIGINT) AS day FROM events), "
            "g AS (SELECT user_id, day, day - row_number() OVER "
            "(PARTITION BY user_id ORDER BY day) AS grp FROM d), "
            "runs AS (SELECT user_id, grp, count(*)::BIGINT AS len "
            "FROM g GROUP BY 1, 2) "
            "SELECT user_id, sum(len)::BIGINT AS active_days, "
            "max(len)::BIGINT AS longest_streak, count(*)::BIGINT AS n_streaks "
            "FROM runs GROUP BY user_id ORDER BY user_id"
        ),
        "revenue_by_nation": (
            "WITH f AS (SELECT l_orderkey, "
            "CAST(round(l_extendedprice*100) AS BIGINT) * "
            "(100 - CAST(round(l_discount*100) AS BIGINT)) AS rev_e4 "
            "FROM lineitem) "
            "SELECT n_name, sum(rev_e4)::BIGINT / 10000.0 AS revenue, "
            "count(*)::BIGINT AS n_items "
            "FROM f JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey "
            "GROUP BY n_name ORDER BY n_name"
        ),
        "order_priority_counts": (
            "SELECT o_orderpriority, count(o_orderkey)::BIGINT AS n_orders "
            "FROM orders WHERE o_orderkey IN "
            "(SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R') "
            "GROUP BY 1 ORDER BY 1"
        ),
        "top_customer_revenue": (
            "WITH f AS (SELECT l_orderkey, "
            "CAST(round(l_extendedprice*100) AS BIGINT) * "
            "(100 - CAST(round(l_discount*100) AS BIGINT)) AS rev_e4 "
            "FROM lineitem), "
            "s AS (SELECT o_custkey, sum(rev_e4)::BIGINT AS rev_e4 FROM f "
            "JOIN orders ON l_orderkey = o_orderkey GROUP BY o_custkey), "
            "t AS (SELECT o_custkey, rev_e4 FROM s "
            "ORDER BY rev_e4 DESC, o_custkey LIMIT 10) "
            "SELECT t.o_custkey AS c_custkey, c_name, "
            "rev_e4::DOUBLE / 10000.0 AS revenue "
            "FROM t JOIN customer ON t.o_custkey = c_custkey ORDER BY c_custkey"
        ),
        "token_label_chi2": (
            "WITH toks AS (SELECT doc_id, lang, unnest(regexp_split_to_array("
            "lower(text), '[ \\t\\n\\r]+')) AS tok FROM documents), "
            "d AS (SELECT DISTINCT doc_id, lang, tok FROM toks WHERE tok <> ''), "
            "agg AS (SELECT tok AS token, "
            "sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS a, "
            "count(*)::BIGINT AS df FROM d GROUP BY tok), "
            "n AS (SELECT sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT "
            "AS nt, sum(CASE WHEN lang = 'en' THEN 0 ELSE 1 END)::BIGINT AS no "
            "FROM documents), "
            "x AS (SELECT token, a, df, a::DOUBLE AS fa, (df - a)::DOUBLE AS fb, "
            "((SELECT nt FROM n) - a)::DOUBLE AS fc, "
            "((SELECT no FROM n) - (df - a))::DOUBLE AS fd FROM agg "
            "WHERE df >= 5) "
            "SELECT token, a, df, "
            "round(((SELECT nt FROM n) + (SELECT no FROM n))::DOUBLE "
            "* ((fa*fd - fb*fc) * (fa*fd - fb*fc)) "
            "/ NULLIF(((fa+fb)*(fc+fd)) * ((fa+fc)*(fb+fd)), 0.0), 6) AS chi2 "
            "FROM x ORDER BY token"
        ),
        "warc_extract": (
            "SELECT 'http://' || source || '.example/' || "
            "CAST(doc_id AS VARCHAR) AS uri, 200::BIGINT AS status, "
            "'text/plain; charset=utf-8' AS content_type, "
            # coalesce mirrors the fixture's (text or '').encode(): a NULL
            # text row serializes as a 0-byte body, not a NULL
            "strlen(coalesce(text, ''))::BIGINT AS n_body_bytes, "
            "coalesce(text, '') AS body_text "
            "FROM documents ORDER BY uri"
        ),
        "robots_gate": (
            "WITH u AS (SELECT doc_id, '/cat' || CAST(doc_id % 7 AS VARCHAR) "
            "|| '/page' || CAST(doc_id AS VARCHAR) AS path FROM documents), "
            "r(allow, prefix) AS (VALUES (0, '/cat1'), (0, '/cat3/'), "
            "(1, '/cat3/page3'), (0, '/cat5/page'), (1, '/cat5/page5'), "
            "(1, '/cat2'), (0, '/cat2')), "
            "m AS (SELECT u.doc_id, r.allow, row_number() OVER "
            "(PARTITION BY u.doc_id ORDER BY strlen(r.prefix) DESC, "
            "r.allow DESC) AS rn FROM u JOIN r ON starts_with(u.path, r.prefix)) "
            "SELECT u.doc_id, u.path, "
            "coalesce((SELECT m.allow = 1 FROM m WHERE m.doc_id = u.doc_id "
            "AND m.rn = 1), TRUE) AS allowed "
            "FROM u ORDER BY u.doc_id"
        ),
        "grouped_cube": (
            "SELECT coalesce(lang, '(all)') AS lang, "
            "coalesce(source, '(all)') AS source, "
            "GROUPING_ID(lang, source)::BIGINT AS grouping_id, "
            "count(doc_id)::BIGINT AS n_docs, "
            "sum(n_chars)::BIGINT AS total_chars "
            "FROM documents GROUP BY CUBE(lang, source) "
            "ORDER BY grouping_id, 1, 2"
        ),
        "unicode_nfc": (
            "WITH p AS (SELECT doc_id, replace(text, 'a', 'a' || chr(769)) "
            "AS text FROM documents) "
            "SELECT doc_id, nfc_normalize(text) AS norm, "
            "nfc_normalize(text) <> text AS changed, "
            "length(text)::BIGINT AS len_before, "
            "length(nfc_normalize(text))::BIGINT AS len_after "
            "FROM p ORDER BY doc_id"
        ),
        "grouped_mad": (
            "WITH m AS (SELECT lang, median(n_chars) AS med "
            "FROM documents GROUP BY lang) "
            "SELECT d.lang, count(*)::BIGINT AS n, round(m.med, 4) AS median, "
            "round(median(abs(d.n_chars - m.med)), 4) AS mad "
            "FROM documents d JOIN m USING (lang) "
            "GROUP BY d.lang, m.med ORDER BY d.lang"
        ),
        "hits_scores": (
            "WITH " + _EDGES_CTE + ", "
            "h0 AS (SELECT node, CAST(1000000 AS BIGINT) AS v FROM nodes), "
            + _hits_half_sql("h0", "a1", "dst", "src") + ", "
            + _hits_half_sql("a1", "h1", "src", "dst") + ", "
            + _hits_half_sql("h1", "a2", "dst", "src") + ", "
            + _hits_half_sql("a2", "h2", "src", "dst") + " "
            "SELECT h2.node, CAST(h2.v AS BIGINT) AS hub, "
            "CAST(a2.v AS BIGINT) AS authority "
            "FROM h2 JOIN a2 USING (node) ORDER BY node"
        ),
        "bfs_levels": (
            "WITH RECURSIVE " + _EDGES_CTE + ", "
            "seeds AS (SELECT node FROM nodes WHERE node % 50 = 0), "
            "bfs(node, level) AS (SELECT node, 0 FROM seeds UNION "
            "SELECT e.dst, b.level + 1 FROM bfs b JOIN e ON e.src = b.node "
            "WHERE b.level < 4) "
            "SELECT node, CAST(min(level) AS BIGINT) AS level "
            "FROM bfs GROUP BY node ORDER BY node"
        ),
        "event_transitions": (
            "WITH e AS (SELECT * FROM events "
            "WHERE event_type IS NOT NULL), "
            "o AS (SELECT user_id, event_type, lead(event_type) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS nxt FROM e) "
            "SELECT event_type AS prev_type, nxt AS next_type, "
            "count(*)::BIGINT AS n FROM o WHERE nxt IS NOT NULL "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "grouped_variance": (
            # engine finish expression mirrored operation-for-operation
            # (x_scale = 1 ⇒ the engine's /scale² is an IEEE identity)
            "WITH s AS (SELECT l_returnflag, l_linestatus, "
            "count(xi)::BIGINT AS n, CAST(sum(xi) AS BIGINT) AS sx, "
            "CAST(sum(xi*xi) AS BIGINT) AS sxx FROM (SELECT l_returnflag, "
            "l_linestatus, CAST(floor(abs(l_quantity * 1) + 0.5) * "
            "sign(l_quantity) AS BIGINT) AS xi FROM lineitem) "
            "GROUP BY l_returnflag, l_linestatus) "
            "SELECT l_returnflag, l_linestatus, n, "
            "round(sx::DOUBLE / n::DOUBLE, 6) AS mean, "
            "round((sxx::DOUBLE - (sx::DOUBLE * sx::DOUBLE) / n::DOUBLE) "
            "/ n::DOUBLE, 6) AS var_pop, "
            "CASE WHEN n >= 2 THEN round((sxx::DOUBLE - (sx::DOUBLE * "
            "sx::DOUBLE) / n::DOUBLE) / (n::DOUBLE - 1.0), 6) END AS var_samp, "
            "round(sqrt(greatest((sxx::DOUBLE - (sx::DOUBLE * sx::DOUBLE) "
            "/ n::DOUBLE) / n::DOUBLE, 0.0)), 6) AS stddev_pop, "
            "CASE WHEN n >= 2 THEN round(sqrt(greatest((sxx::DOUBLE - "
            "(sx::DOUBLE * sx::DOUBLE) / n::DOUBLE) / (n::DOUBLE - 1.0), "
            "0.0)), 6) END AS stddev_samp "
            "FROM s ORDER BY l_returnflag, l_linestatus"
        ),
        "zorder_key": (
            "WITH q AS (SELECT l_orderkey, l_linenumber, l_partkey, "
            "l_suppkey, least(greatest(((l_partkey - 0) * 65536) // 65536, "
            "0), 65535) AS x, least(greatest(((l_suppkey - 0) * 65536) "
            "// 65536, 0), 65535) AS y FROM lineitem) "
            "SELECT l_orderkey, l_linenumber, l_partkey, l_suppkey, "
            "CAST(" + _zspread_sql("x") + " | (" + _zspread_sql("y")
            + " << 1) AS BIGINT) AS zkey "
            "FROM q ORDER BY l_orderkey, l_linenumber, l_partkey, l_suppkey"
        ),
        "jaccard_prefix_pairs": sqlgen.minhash_pairs_sql("documents", 0.4),
        "coalesce_latest": (
            "WITH e2 AS (SELECT event_id, user_id, ts, "
            "CASE WHEN event_id % 7 = 0 THEN NULL ELSE event_type END AS "
            "event_type, CASE WHEN event_id % 5 = 0 THEN NULL ELSE value END "
            "AS value FROM events), "
            "u AS (SELECT DISTINCT user_id FROM e2), "
            "t1 AS (SELECT user_id, event_type, row_number() OVER "
            "(PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn "
            "FROM e2 WHERE event_type IS NOT NULL), "
            "t2 AS (SELECT user_id, value, row_number() OVER "
            "(PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn "
            "FROM e2 WHERE value IS NOT NULL) "
            "SELECT u.user_id, t1.event_type AS latest_event_type, "
            "t2.value AS latest_value "
            "FROM u LEFT JOIN (SELECT * FROM t1 WHERE rn = 1) t1 USING (user_id) "
            "LEFT JOIN (SELECT * FROM t2 WHERE rn = 1) t2 USING (user_id) "
            "ORDER BY u.user_id"
        ),
        "k_core": (
            "WITH e0 AS (SELECT DISTINCT least(src, dst) AS a, "
            "greatest(src, dst) AS b FROM (SELECT doc_id AS src, "
            "(doc_id*7 + j*13) % 500 AS dst FROM (SELECT doc_id, "
            "unnest(generate_series(1, CAST(doc_id % 4 AS INT))) AS j "
            "FROM documents)) WHERE src <> dst), "
            + ", ".join(
                f"d{i} AS (SELECT node, count(*)::BIGINT AS degree FROM "
                f"(SELECT a AS node FROM e{i-1} UNION ALL SELECT b FROM e{i-1}) "
                f"GROUP BY node), "
                f"s{i} AS (SELECT node FROM d{i} WHERE degree >= 3), "
                f"e{i} AS (SELECT e.a, e.b FROM e{i-1} e "
                f"JOIN s{i} x ON e.a = x.node JOIN s{i} y ON e.b = y.node)"
                for i in (1, 2, 3)
            )
            + " SELECT node, count(*)::BIGINT AS degree FROM "
            "(SELECT a AS node FROM e3 UNION ALL SELECT b FROM e3) "
            "GROUP BY node ORDER BY node"
        ),
        "ndcg_eval": (
            # rank order = knn_label_precision's convention; DCG/IDCG via
            # recursive CTEs stepping rank-by-rank (same operand sequence
            # as the engine's left-to-right loop)
            "WITH RECURSIVE q AS (SELECT vec_id AS qid, embedding AS qe, "
            "label AS qlabel FROM embeddings WHERE vec_id < 5), "
            "r AS (SELECT q.qid, CASE WHEN b.label = q.qlabel THEN 1 ELSE 0 "
            "END AS rel, row_number() OVER (PARTITION BY q.qid ORDER BY "
            "list_cosine_similarity(b.embedding::DOUBLE[], q.qe::DOUBLE[]) "
            "DESC, b.vec_id) AS rnk FROM q JOIN embeddings b ON b.vec_id <> q.qid), "
            "rk AS (SELECT qid, rel, rnk FROM r WHERE rnk <= 10), "
            "agg AS (SELECT qid, count(*)::BIGINT AS k_eff, "
            "sum(rel)::BIGINT AS n_match FROM rk GROUP BY qid), "
            "dsteps(qid, rnk, acc) AS (SELECT qid, 0, 0.0::DOUBLE FROM q "
            "UNION ALL SELECT s.qid, s.rnk + 1, s.acc + (rk.rel::DOUBLE / "
            "log2((s.rnk + 2)::DOUBLE)) FROM dsteps s "
            "JOIN rk ON rk.qid = s.qid AND rk.rnk = s.rnk + 1), "
            "dcg AS (SELECT qid, acc AS dcg FROM (SELECT qid, acc, "
            "row_number() OVER (PARTITION BY qid ORDER BY rnk DESC) AS rr "
            "FROM dsteps) WHERE rr = 1), "
            "isteps(qid, i, acc) AS (SELECT qid, 0, 0.0::DOUBLE FROM q "
            "UNION ALL SELECT s.qid, s.i + 1, s.acc + (1.0 / "
            "log2((s.i + 2)::DOUBLE)) FROM isteps s "
            "JOIN agg ON agg.qid = s.qid WHERE s.i < agg.n_match), "
            "idcg AS (SELECT qid, acc AS idcg FROM (SELECT qid, acc, "
            "row_number() OVER (PARTITION BY qid ORDER BY i DESC) AS rr "
            "FROM isteps) WHERE rr = 1) "
            "SELECT agg.qid AS query_id, agg.k_eff, agg.n_match, "
            "round(dcg.dcg, 4) AS dcg, round(idcg.idcg, 4) AS idcg, "
            "CASE WHEN agg.n_match > 0 THEN round(dcg.dcg / idcg.idcg, 4) "
            "ELSE 0.0 END AS ndcg FROM agg "
            "JOIN dcg ON dcg.qid = agg.qid JOIN idcg ON idcg.qid = agg.qid "
            "ORDER BY agg.qid"
        ),
        "shard_balance": (
            "WITH ring AS (SELECT s, r, md5_number_lower('ring:' || "
            "CAST(s AS VARCHAR) || ':' || CAST(r AS VARCHAR)) AS p "
            "FROM (SELECT unnest(generate_series(0, 7)) AS s), "
            "(SELECT unnest(generate_series(0, 15)) AS r)), "
            "k AS (SELECT doc_id, md5_number_lower(CAST(doc_id AS VARCHAR)) "
            "AS h FROM documents), "
            "sel AS (SELECT k.doc_id, coalesce(min(CASE WHEN ring.p >= k.h "
            "THEN ring.p END), (SELECT min(p) FROM ring)) AS pt "
            "FROM k CROSS JOIN ring GROUP BY k.doc_id), "
            "asg AS (SELECT sel.doc_id, ring.s AS shard FROM sel "
            "JOIN ring ON ring.p = sel.pt), "
            "c AS (SELECT shard, count(*)::BIGINT AS n_keys FROM asg "
            "GROUP BY shard), "
            "t AS (SELECT CAST(sum(n_keys) AS BIGINT) AS total FROM c), "
            "all_s AS (SELECT unnest(generate_series(0, 7)) AS shard) "
            "SELECT CAST(all_s.shard AS INT) AS shard, "
            "coalesce(c.n_keys, 0) AS n_keys, "
            "CAST(coalesce(c.n_keys, 0) AS DOUBLE) / "
            "(t.total::DOUBLE / CAST(8 AS DOUBLE)) AS load "
            "FROM all_s LEFT JOIN c ON c.shard = all_s.shard, t "
            "ORDER BY shard"
        ),
        "consistent_shard": (
            "WITH ring AS (SELECT s, r, md5_number_lower('ring:' || "
            "CAST(s AS VARCHAR) || ':' || CAST(r AS VARCHAR)) AS p "
            "FROM (SELECT unnest(generate_series(0, 7)) AS s), "
            "(SELECT unnest(generate_series(0, 15)) AS r)), "
            "k AS (SELECT doc_id, md5_number_lower(CAST(doc_id AS VARCHAR)) "
            "AS h FROM documents), "
            "sel AS (SELECT k.doc_id, coalesce(min(CASE WHEN ring.p >= k.h "
            "THEN ring.p END), (SELECT min(p) FROM ring)) AS pt "
            "FROM k CROSS JOIN ring GROUP BY k.doc_id) "
            "SELECT sel.doc_id, CAST(ring.s AS INT) AS shard FROM sel "
            "JOIN ring ON ring.p = sel.pt ORDER BY doc_id"
        ),
        "multifield_search": sqlgen.stage1_topk_sql(
            _mf_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
            shared_ctes=sqlgen.fielded_shared_ctes(
                *_mf_concats(), 3, 1
            ),
        ),
        "multifield_search_distributed": sqlgen.stage1_topk_sql(
            _mf_panel_tokens(),
            coverage_depth=cfg.coverage_depth,
            stop_term_limit=cfg.stop_term_limit,
            shared_ctes=sqlgen.fielded_shared_ctes(
                *_mf_concats(), 3, 1
            ),
        ),
        "autocomplete_score": sqlgen.autocomplete_sql("merge sort"),
        "packed_lcs": sqlgen.packed_lcs_sql(["merge", "sort", "quick"]),
        "char_jaccard": sqlgen.char_jaccard_sql("data quality merge"),
        "typo_budget": sqlgen.typo_budget_sql(),
        "resample_locf": (
            # S = 86400000000 us (1 day); integer grid bounds via // so
            # ceil/floor are exact (epoch-us is non-negative)
            "WITH e AS (SELECT user_id, epoch_us(ts) AS t, value, event_id "
            "FROM events), "
            "b AS (SELECT user_id, min(t) AS lo, max(t) AS hi FROM e "
            "GROUP BY user_id), "
            "g AS (SELECT user_id, unnest(generate_series("
            "(lo + 86399999999) // 86400000000, hi // 86400000000)) "
            "* 86400000000 AS gt FROM b), "
            "r AS (SELECT g.user_id, g.gt, e.value, row_number() OVER ("
            "PARTITION BY g.user_id, g.gt "
            "ORDER BY e.t DESC, e.event_id DESC) AS rn "
            "FROM g JOIN e ON e.user_id = g.user_id AND e.t <= g.gt) "
            "SELECT user_id, gt AS grid_us, value FROM r WHERE rn = 1 "
            "ORDER BY user_id, grid_us"
        ),
        "bowtie": (
            "WITH RECURSIVE v AS (SELECT DISTINCT doc_id % 210 AS v "
            "FROM documents), "
            "e AS ("
            "SELECT v AS src, (v + 1) % 210 AS dst FROM v WHERE v % 7 <> 6 "
            "UNION SELECT v, v - 6 FROM v WHERE v % 7 = 6 "
            "UNION SELECT v, (v * 13 + 5) % 210 FROM v WHERE v % 17 = 0), "
            "reach(src, dst) AS ("
            "SELECT src, dst FROM e "
            "UNION SELECT r.src, e.dst FROM reach r JOIN e ON e.src = r.dst), "
            "nodes AS (SELECT src AS n FROM e UNION SELECT dst FROM e), "
            "mutual AS (SELECT a.src AS n, a.dst AS u FROM reach a "
            "JOIN reach b ON b.src = a.dst AND b.dst = a.src), "
            "scc AS (SELECT nodes.n AS node, "
            "least(nodes.n, coalesce(min(m.u), nodes.n)) AS scc_id "
            "FROM nodes LEFT JOIN mutual m ON m.n = nodes.n "
            "GROUP BY nodes.n), "
            "core AS (SELECT scc_id FROM (SELECT scc_id, count(*) AS c "
            "FROM scc GROUP BY scc_id ORDER BY c DESC, scc_id ASC LIMIT 1)), "
            "corenodes AS (SELECT node FROM scc "
            "WHERE scc_id = (SELECT scc_id FROM core)), "
            "fwd AS (SELECT node FROM corenodes UNION "
            "SELECT r.dst FROM reach r JOIN corenodes c ON r.src = c.node), "
            "bwd AS (SELECT node FROM corenodes UNION "
            "SELECT r.src FROM reach r JOIN corenodes c ON r.dst = c.node), "
            "ue AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e), "
            "wreach(src, dst) AS (SELECT src, dst FROM ue "
            "UNION SELECT w.src, ue.dst FROM wreach w "
            "JOIN ue ON ue.src = w.dst), "
            "wcomp AS (SELECT nodes.n AS node, "
            "least(nodes.n, coalesce(min(w.dst), nodes.n)) AS comp "
            "FROM nodes LEFT JOIN wreach w ON w.src = nodes.n "
            "GROUP BY nodes.n), "
            "corew AS (SELECT comp FROM wcomp "
            "WHERE node = (SELECT scc_id FROM core)) "
            "SELECT s.node, CASE "
            "WHEN s.scc_id = (SELECT scc_id FROM core) THEN 'core' "
            "WHEN s.node IN (SELECT node FROM bwd) THEN 'in' "
            "WHEN s.node IN (SELECT node FROM fwd) THEN 'out' "
            "WHEN wcomp.comp = (SELECT comp FROM corew) THEN 'tendril' "
            "ELSE 'disconnected' END AS region "
            "FROM scc s JOIN wcomp ON wcomp.node = s.node ORDER BY s.node"
        ),
        "scc": (
            "WITH RECURSIVE v AS (SELECT DISTINCT doc_id % 210 AS v "
            "FROM documents), "
            "e AS ("
            "SELECT v AS src, (v + 1) % 210 AS dst FROM v WHERE v % 7 <> 6 "
            "UNION SELECT v, v - 6 FROM v WHERE v % 7 = 6 "
            "UNION SELECT v, (v * 13 + 5) % 210 FROM v WHERE v % 17 = 0), "
            "reach(src, dst) AS ("
            "SELECT src, dst FROM e "
            "UNION SELECT r.src, e.dst FROM reach r "
            "JOIN e ON e.src = r.dst), "
            "nodes AS (SELECT src AS n FROM e UNION SELECT dst FROM e), "
            "mutual AS (SELECT a.src AS n, a.dst AS u FROM reach a "
            "JOIN reach b ON b.src = a.dst AND b.dst = a.src) "
            "SELECT nodes.n AS node, "
            "least(nodes.n, coalesce(min(m.u), nodes.n)) AS scc_id "
            "FROM nodes LEFT JOIN mutual m ON m.n = nodes.n "
            "GROUP BY nodes.n ORDER BY node"
        ),
        "jaro_winkler_pairs": (
            "WITH r AS (SELECT c_name AS k, c_custkey AS id, "
            "row_number() OVER (ORDER BY c_name, c_custkey) AS rn "
            "FROM customer), "
            "p AS (SELECT a.id AS id_a, b.id AS id_b, "
            "CAST(b.rn - a.rn AS INT) AS dist, "
            "jaro_winkler_similarity(a.k, b.k) AS jw "
            "FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 3) "
            "SELECT id_a, id_b, dist, round(jw, 4) AS jw FROM p "
            "WHERE jw >= 0.93 ORDER BY id_a, id_b"
        ),
        "curate_webtext": sqlgen.curate_webtext_sql(
            langs=("en",),
            min_quality=0.3,
            minhash_threshold=0.5,
            chunk_words=32,
            pack_capacity=128,
            decontam_n=3,
        ),
        "build_frontier": (
            "WITH d5 AS (SELECT DISTINCT doc_id % 5 AS k, "
            "doc_id % 3 + 1 AS m FROM documents), "
            "urls AS (SELECT DISTINCT 'http://site' || CAST(k AS VARCHAR) "
            "|| '.example.com/p/' || CAST(j AS VARCHAR) AS url, "
            "'site' || CAST(k AS VARCHAR) || '.example.com' AS domain "
            "FROM d5, unnest(generate_series(1, m)) AS t(j)), "
            "pri AS (SELECT domain, url, CAST(md5_number_lower('fq:' || "
            "url) % 4611686018427387904 AS BIGINT) AS prio FROM urls), "
            "cap AS (SELECT domain, url FROM (SELECT domain, url, "
            "row_number() OVER (PARTITION BY domain ORDER BY prio, url) "
            "AS rn FROM pri) WHERE rn <= 2), "
            "r AS (SELECT domain, url, row_number() OVER (PARTITION BY "
            "domain ORDER BY url) AS rank FROM cap) "
            "SELECT domain, url, rank, row_number() OVER (ORDER BY rank, "
            "domain, url) AS crawl_pos FROM r ORDER BY crawl_pos"
        ),
        "grouped_gini": (
            "WITH f AS (SELECT lang AS g, "
            "CAST(round(n_chars * 1) AS BIGINT) AS x FROM documents "
            "WHERE n_chars IS NOT NULL), "
            "r AS (SELECT g, x, row_number() OVER (PARTITION BY g "
            "ORDER BY x) AS i FROM f), "
            "s AS (SELECT g, count(*)::BIGINT AS n, "
            "CAST(sum(x) AS BIGINT) AS sx, CAST(sum(i * x) AS BIGINT) "
            "AS six FROM r GROUP BY g) "
            "SELECT g AS lang, n, sx AS sum_x, CASE WHEN n * sx > 0 THEN "
            "(2 * six - (n + 1) * sx)::DOUBLE / (n * sx)::DOUBLE END "
            "AS gini FROM s ORDER BY g"
        ),
        "grouped_topk_share": (
            "WITH c AS (SELECT lang, source, count(*)::BIGINT AS c "
            "FROM documents WHERE source IS NOT NULL "
            "GROUP BY lang, source), "
            "r AS (SELECT lang, c, row_number() OVER (PARTITION BY lang "
            "ORDER BY c DESC, source) AS rn FROM c), "
            "s AS (SELECT lang, count(*)::BIGINT AS n_items, "
            "CAST(sum(c) AS BIGINT) AS total, CAST(sum(CASE WHEN rn <= 3 "
            "THEN c ELSE 0 END) AS BIGINT) AS topk_sum FROM r "
            "GROUP BY lang) "
            "SELECT lang, n_items, total, topk_sum, "
            "topk_sum::DOUBLE / total::DOUBLE AS topk_share FROM s "
            "ORDER BY lang"
        ),
        "doc_novelty": (
            "WITH " + sqlgen.word_shingles_cte("documents")
            + ", tot AS (SELECT doc_id, count(*)::BIGINT AS ns FROM wsh "
            "GROUP BY doc_id), "
            "sdf AS (SELECT s, count(*)::BIGINT AS df FROM wsh GROUP BY s), "
            "sh AS (SELECT w.doc_id, count(*)::BIGINT AS shared FROM wsh w "
            "JOIN sdf ON sdf.s = w.s AND sdf.df >= 2 GROUP BY w.doc_id) "
            "SELECT d.doc_id, coalesce(t.ns, 0) AS n_shingles, "
            "coalesce(sh.shared, 0) AS n_shared, CASE WHEN t.ns > 0 THEN "
            "(t.ns - coalesce(sh.shared, 0))::DOUBLE / t.ns::DOUBLE END "
            "AS novelty FROM documents d LEFT JOIN tot t USING (doc_id) "
            "LEFT JOIN sh USING (doc_id) ORDER BY doc_id"
        ),
        "weighted_median": (
            "WITH f AS (SELECT l_returnflag AS g, "
            "CAST(round(l_quantity * 1) AS BIGINT) AS x, "
            "CAST(l_linenumber AS BIGINT) AS w FROM lineitem "
            "WHERE l_returnflag IS NOT NULL "
            "AND l_quantity IS NOT NULL AND l_linenumber IS NOT NULL "
            "AND l_linenumber > 0), "
            "t AS (SELECT g, CAST(sum(w) AS BIGINT) AS tw FROM f "
            "GROUP BY g), "
            "cw AS (SELECT g, x, CAST(sum(w) AS BIGINT) AS wv FROM f "
            "GROUP BY g, x), "
            "r AS (SELECT g, x, sum(wv) OVER (PARTITION BY g ORDER BY x) "
            "AS cum FROM cw), "
            "sel AS (SELECT r.g, min(r.x) AS wm FROM r JOIN t "
            "ON t.g = r.g WHERE r.cum >= (t.tw + 1) // 2 GROUP BY r.g) "
            "SELECT sel.g AS l_returnflag, t.tw AS total_w, "
            "CAST(sel.wm AS DOUBLE) / CAST(1 AS DOUBLE) AS weighted_median "
            "FROM sel JOIN t ON t.g = sel.g ORDER BY l_returnflag"
        ),
        "quantiles_streaming": (
            "SELECT lang, count(*)::BIGINT AS n, "
            "round(quantile_cont(n_chars, 0.25), 4) AS q25, "
            "round(quantile_cont(n_chars, 0.50), 4) AS q50, "
            "round(quantile_cont(n_chars, 0.75), 4) AS q75, "
            "round(quantile_cont(n_chars, 0.90), 4) AS q90 "
            "FROM documents WHERE lang IS NOT NULL AND n_chars IS NOT NULL "
            "GROUP BY lang ORDER BY lang"
        ),
        "median_streaming": (
            "WITH f AS (SELECT l_returnflag AS g, "
            "CAST(round(l_quantity * 1) AS BIGINT) AS x FROM lineitem "
            "WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL) "
            "SELECT g AS l_returnflag, count(*)::BIGINT AS n, "
            "round(quantile_cont(x, 0.5) / CAST(1 AS DOUBLE), 4) AS median "
            "FROM f GROUP BY g ORDER BY g"
        ),
        "retrieval_rank_eval": (
            # same ranking convention as ndcg_eval's CTE; metrics are
            # exact integer ratios (no recursion needed)
            "WITH q AS (SELECT vec_id AS qid, embedding AS qe, "
            "label AS qlabel FROM embeddings WHERE vec_id < 5), "
            "r AS (SELECT q.qid, CASE WHEN b.label = q.qlabel THEN 1 ELSE 0 "
            "END AS rel, row_number() OVER (PARTITION BY q.qid ORDER BY "
            "list_cosine_similarity(b.embedding::DOUBLE[], q.qe::DOUBLE[]) "
            "DESC, b.vec_id) AS rnk FROM q JOIN embeddings b "
            "ON b.vec_id <> q.qid), "
            "rk AS (SELECT qid, rel, rnk FROM r WHERE rnk <= 10), "
            "agg AS (SELECT qid, count(*)::BIGINT AS k_eff, "
            "CAST(sum(rel) AS BIGINT) AS n_match, "
            "CAST(min(CASE WHEN rel = 1 THEN rnk END) AS BIGINT) AS "
            "first_rank FROM rk GROUP BY qid), "
            "lc AS (SELECT label, count(*)::BIGINT AS c FROM embeddings "
            "GROUP BY label) "
            "SELECT agg.qid AS query_id, agg.k_eff, agg.n_match, "
            "agg.first_rank, CASE WHEN agg.first_rank IS NOT NULL THEN "
            "1.0 / agg.first_rank::DOUBLE ELSE 0.0 END AS mrr, "
            "agg.n_match::DOUBLE / agg.k_eff::DOUBLE AS p_at_k, "
            "CASE WHEN lc.c - 1 > 0 THEN agg.n_match::DOUBLE / "
            "(lc.c - 1)::DOUBLE END AS recall_at_k "
            "FROM agg JOIN q ON q.qid = agg.qid "
            "JOIN lc ON lc.label = q.qlabel ORDER BY query_id"
        ),
        "grouped_hhi": (
            "WITH c AS (SELECT lang, source, count(*)::BIGINT AS c "
            "FROM documents WHERE source IS NOT NULL "
            "GROUP BY lang, source), "
            "s AS (SELECT lang, CAST(sum(c) AS BIGINT) AS n, "
            "CAST(sum(c*c) AS BIGINT) AS sq, count(*)::BIGINT AS n_cats "
            "FROM c GROUP BY lang) "
            "SELECT lang, n, n_cats, "
            "round(sq::DOUBLE / (n::DOUBLE * n::DOUBLE), 6) AS hhi "
            "FROM s ORDER BY lang"
        ),
        "apply_changes": (
            "WITH s AS (SELECT *, CASE WHEN event_type = 'error' THEN 'D' "
            "ELSE 'U' END AS op FROM events), "
            "r AS (SELECT user_id, epoch_us(ts)::BIGINT AS ts_us, event_id, "
            "event_type, value, op, row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) AS rn FROM s) "
            "SELECT user_id, ts_us, event_id, event_type, value, op FROM r "
            "WHERE rn = 1 AND op <> 'D' ORDER BY user_id"
        ),
        "merge_intervals": (
            "WITH t AS (SELECT user_id, event_id, epoch_us(ts)::BIGINT AS s, "
            "epoch_us(ts)::BIGINT + (event_id % 1000) * 60000000 AS e "
            "FROM events), "
            "x AS (SELECT *, max(e) OVER (PARTITION BY user_id ORDER BY s, e, "
            "event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm "
            "FROM t), "
            "y AS (SELECT *, CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END "
            "AS isl FROM x), "
            "z AS (SELECT *, sum(isl) OVER (PARTITION BY user_id ORDER BY s, "
            "e, event_id) AS island FROM y) "
            "SELECT user_id, CAST(island AS BIGINT) AS island, min(s) AS start, "
            "max(e) AS \"end\", count(*)::BIGINT AS n_spans "
            "FROM z GROUP BY user_id, island ORDER BY user_id, island"
        ),
        "grouped_string_agg": (
            "SELECT lang, count(DISTINCT source)::BIGINT AS n_values, "
            "string_agg(DISTINCT source, ',' ORDER BY source) AS values "
            "FROM documents GROUP BY lang ORDER BY lang"
        ),
        "sitemap_urls": (
            "WITH jt AS (SELECT doc_id, unnest(generate_series(1, "
            "CAST(doc_id % 5 AS INT))) AS j FROM documents), "
            "x AS (SELECT doc_id, string_agg('<url><loc>http://site' || "
            "CAST(doc_id % 37 AS VARCHAR) || '.example.com/p' || "
            "CAST(doc_id AS VARCHAR) || '/' || CAST(j AS VARCHAR) || "
            "'</loc></url>', '' ORDER BY j) AS xml FROM jt GROUP BY doc_id), "
            "u AS (SELECT doc_id, unnest(regexp_extract_all(xml, "
            "'<loc>([^<]*)</loc>', 1)) AS url FROM x) "
            "SELECT DISTINCT doc_id, url FROM u ORDER BY doc_id, url"
        ),
        "bpe_train": sqlgen.bpe_train_sql("documents", 3),
        "bpe_encode": sqlgen.bpe_encode_sql("documents", 3),
        "spearman_corr": (
            "WITH f AS (SELECT l_returnflag AS g, l_quantity AS x, "
            "l_extendedprice AS y FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_extendedprice IS NOT NULL), "
            "r AS (SELECT g, rank() OVER (PARTITION BY g ORDER BY x) AS rx, "
            "rank() OVER (PARTITION BY g ORDER BY y) AS ry FROM f), "
            "s AS (SELECT g, count(*)::BIGINT AS n, "
            "CAST(sum(rx) AS BIGINT) AS sx, CAST(sum(ry) AS BIGINT) AS sy, "
            "CAST(sum(rx*rx) AS BIGINT) AS sxx, "
            "CAST(sum(ry*ry) AS BIGINT) AS syy, "
            "CAST(sum(rx*ry) AS BIGINT) AS sxy FROM r GROUP BY g) "
            "SELECT g AS l_returnflag, n, CASE WHEN "
            "sqrt((n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE) * "
            "(n::DOUBLE * syy::DOUBLE - sy::DOUBLE * sy::DOUBLE)) > 0 THEN "
            "round((n::DOUBLE * sxy::DOUBLE - sx::DOUBLE * sy::DOUBLE) / "
            "sqrt((n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE) * "
            "(n::DOUBLE * syy::DOUBLE - sy::DOUBLE * sy::DOUBLE)), 6) END "
            "AS spearman FROM s ORDER BY l_returnflag"
        ),
        "grouped_skewness": (
            "WITH f AS (SELECT l_returnflag AS g, "
            "CAST(round(l_quantity * 1) AS BIGINT) AS x FROM lineitem "
            "WHERE l_quantity IS NOT NULL), "
            "s AS (SELECT g, count(*)::BIGINT AS n, "
            "CAST(sum(x) AS BIGINT) AS sx, "
            "CAST(sum(x*x) AS BIGINT) AS sxx, "
            "CAST(sum((x*x)*x) AS BIGINT) AS sxxx, "
            "CAST(sum((x*x)*(x*x)) AS BIGINT) AS sxxxx FROM f GROUP BY g), "
            "m AS (SELECT g, n, sx::DOUBLE / n::DOUBLE AS mean, "
            "sxx::DOUBLE / n::DOUBLE AS q2, sxxx::DOUBLE / n::DOUBLE AS q3, "
            "sxxxx::DOUBLE / n::DOUBLE AS q4 FROM s), "
            "c AS (SELECT g, n, q2 - mean*mean AS m2, "
            "q3 - 3.0*mean*q2 + 2.0*((mean*mean)*mean) AS m3, "
            "q4 - 4.0*mean*q3 + 6.0*((mean*mean)*q2) "
            "- 3.0*(((mean*mean)*mean)*mean) AS m4 FROM m) "
            "SELECT g AS l_returnflag, n, "
            "CASE WHEN n > 0 AND m2 > 0 THEN round(m3 / (m2 * sqrt(m2)), 6) "
            "END AS skew_pop, "
            "CASE WHEN n > 0 AND m2 > 0 THEN round(m4 / (m2 * m2) - 3.0, 6) "
            "END AS kurt_excess FROM c ORDER BY l_returnflag"
        ),
        "group_checksum": (
            # wrapping-sum digest (mod 2^62): multiplicity-sensitive where
            # a bit_xor fold would cancel even-count rows
            "SELECT lang, count(*)::BIGINT AS n_rows, "
            "CAST(sum(CAST(md5_number_lower(concat("
            "coalesce(CAST(doc_id AS VARCHAR), '∅'), '|', "
            "coalesce(source, '∅'), '|', "
            "coalesce(CAST(n_chars AS VARCHAR), '∅'))) "
            "% 4611686018427387904 AS BIGINT)) % "
            "CAST('4611686018427387904' AS HUGEINT) AS BIGINT) AS checksum "
            "FROM documents GROUP BY lang ORDER BY lang"
        ),
        "pareto_frontier": (
            "WITH f AS (SELECT l_orderkey, l_linenumber, l_returnflag, "
            "l_quantity, l_extendedprice FROM lineitem "
            "WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL), "
            "runs AS (SELECT l_returnflag AS g, l_quantity AS x, "
            "max(l_extendedprice) AS ymax FROM f GROUP BY g, x), "
            "pm AS (SELECT g, x, ymax, max(ymax) OVER (PARTITION BY g "
            "ORDER BY x DESC ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "1 PRECEDING) AS prevmax FROM runs) "
            "SELECT f.l_orderkey, f.l_linenumber, f.l_returnflag, "
            "f.l_quantity, f.l_extendedprice FROM f JOIN pm "
            "ON f.l_returnflag = pm.g AND f.l_quantity = pm.x "
            "WHERE f.l_extendedprice >= pm.ymax AND "
            "(pm.prevmax IS NULL OR f.l_extendedprice > pm.prevmax) "
            "ORDER BY l_orderkey, l_linenumber, l_returnflag, l_quantity, "
            "l_extendedprice"
        ),
        "row_number_global": (
            "SELECT l_orderkey, l_linenumber, l_quantity, "
            "row_number() OVER (ORDER BY l_orderkey, l_linenumber, "
            "l_quantity) AS row_number FROM lineitem ORDER BY row_number"
        ),
        "grouped_percentile_rank": (
            "SELECT l_orderkey, l_linenumber, l_returnflag, l_quantity, "
            "cume_dist() OVER (PARTITION BY l_returnflag "
            "ORDER BY l_quantity) AS cume_dist FROM lineitem "
            "WHERE l_quantity IS NOT NULL "
            "ORDER BY l_orderkey, l_linenumber, l_returnflag, l_quantity"
        ),
        "ewma": (
            "WITH RECURSIVE base AS (SELECT user_id, event_id, value AS x, "
            "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS i FROM events WHERE value IS NOT NULL), "
            "rec AS (SELECT user_id, event_id, i, x AS ewma FROM base "
            "WHERE i = 1 "
            "UNION ALL SELECT b.user_id, b.event_id, b.i, "
            "(CAST(0.5 AS DOUBLE) * b.x) + "
            "((CAST(1.0 AS DOUBLE) - CAST(0.5 AS DOUBLE)) * r.ewma) "
            "FROM rec r JOIN base b ON b.user_id = r.user_id "
            "AND b.i = r.i + 1) "
            "SELECT user_id, event_id, i, ewma FROM rec ORDER BY user_id, i"
        ),
        "rolling_active_users": (
            "WITH p AS (SELECT DISTINCT user_id, "
            "epoch_us(ts) // 86400000000 AS d FROM events), "
            "e AS (SELECT DISTINCT user_id, d + x AS wd FROM p CROSS JOIN "
            "(SELECT unnest(generate_series(0, 6)) AS x)), "
            "days AS (SELECT DISTINCT d FROM p) "
            "SELECT wd AS day, count(*)::BIGINT AS active_users FROM e "
            "JOIN days ON days.d = e.wd GROUP BY wd ORDER BY day"
        ),
        "grouped_trimmed_mean": (
            "WITH f AS (SELECT l_returnflag AS g, "
            "CAST(round(l_quantity * 1) AS BIGINT) AS x FROM lineitem "
            "WHERE l_quantity IS NOT NULL), "
            "r AS (SELECT g, x, row_number() OVER (PARTITION BY g "
            "ORDER BY x) AS rn, count(*) OVER (PARTITION BY g) AS n FROM f), "
            "s AS (SELECT g, CAST(sum(x) AS BIGINT) AS sx, "
            "count(*)::BIGINT AS n_used FROM r "
            "WHERE rn > (n * 100000) // 1000000 "
            "AND rn <= n - (n * 100000) // 1000000 GROUP BY g) "
            "SELECT g AS l_returnflag, n_used, "
            "(sx::DOUBLE / n_used::DOUBLE) / CAST(1 AS DOUBLE) "
            "AS trimmed_mean FROM s ORDER BY g"
        ),
        "time_weighted_avg": (
            "WITH f AS (SELECT user_id, event_id, epoch_us(ts) AS tu, "
            "CAST(round(value * 100) AS BIGINT) AS v FROM events "
            "WHERE value IS NOT NULL), "
            "w AS (SELECT user_id, v, tu, lead(tu) OVER (PARTITION BY "
            "user_id ORDER BY tu, event_id) AS nxt FROM f), "
            "s AS (SELECT user_id, count(*)::BIGINT AS n_readings, "
            "CAST(sum(v * (coalesce(nxt, tu) - tu)) AS BIGINT) AS s, "
            "max(tu) - min(tu) AS span FROM w GROUP BY user_id) "
            "SELECT user_id, n_readings, CASE WHEN span > 0 THEN "
            "(s::DOUBLE / span::DOUBLE) / CAST(100 AS DOUBLE) END AS twa "
            "FROM s ORDER BY user_id"
        ),
        "grouped_rate_bounds": (
            "WITH f AS (SELECT user_id, CASE WHEN event_type = 'purchase' "
            "THEN 1 ELSE 0 END AS flag FROM events "
            "WHERE event_type IS NOT NULL), "
            "s AS (SELECT user_id, count(*)::BIGINT AS n, "
            "CAST(sum(flag) AS BIGINT) AS k FROM f GROUP BY user_id), "
            "m AS (SELECT user_id, n, k, k::DOUBLE / n::DOUBLE AS p, "
            "CAST(1.96 AS DOUBLE) * CAST(1.96 AS DOUBLE) AS zz FROM s), "
            "c AS (SELECT user_id, n, k, p, zz, "
            "1.0 + zz / n::DOUBLE AS denom FROM m), "
            "d AS (SELECT user_id, n, k, p, denom, "
            "(p + zz / (2.0 * n::DOUBLE)) / denom AS center, "
            "(CAST(1.96 AS DOUBLE) * sqrt((p * (1.0 - p)) / n::DOUBLE + "
            "zz / (4.0 * (n::DOUBLE * n::DOUBLE)))) / denom AS half FROM c) "
            "SELECT user_id, n, k, p AS rate, center - half AS wilson_lo, "
            "center + half AS wilson_hi FROM d ORDER BY user_id"
        ),
        "jaccard_join": (
            "WITH " + sqlgen.word_jaccard_pairs_core("documents", 0.4)
            + ", x AS (SELECT CASE WHEN id_a % 2 = 0 THEN id_a ELSE id_b "
            "END AS id_left, CASE WHEN id_a % 2 = 0 THEN id_b ELSE id_a "
            "END AS id_right, jaccard FROM wjp "
            "WHERE (id_a % 2) <> (id_b % 2)) "
            "SELECT id_left, id_right, jaccard FROM x "
            "ORDER BY id_left, id_right"
        ),
        "entity_cooccurrence": (
            "WITH nm AS (SELECT ['Alice','Bob','Carol','Dave','Eve',"
            "'Frank','Grace'] AS names), "
            "t AS (SELECT doc_id, coalesce(text, '') || ' ' || "
            "names[(doc_id % 7) + 1] || ' ' || "
            "names[((doc_id * 3 + 1) % 7) + 1] || ' ' || "
            "names[((doc_id * 5 + 2) % 7) + 1] AS text "
            "FROM documents, nm), "
            "w AS (SELECT doc_id, unnest(regexp_split_to_array(text, "
            "'[^A-Za-z]+')) AS tok FROM t), "
            "ents AS (SELECT DISTINCT doc_id, tok AS e FROM w "
            "WHERE regexp_full_match(tok, '[A-Z][a-z]+')), "
            "capped AS (SELECT doc_id, e FROM (SELECT doc_id, e, "
            "row_number() OVER (PARTITION BY doc_id ORDER BY e) AS rn "
            "FROM ents) WHERE rn <= 64), "
            "p AS (SELECT a.e AS ent_a, b.e AS ent_b, count(*)::BIGINT "
            "AS n_docs FROM capped a JOIN capped b "
            "ON a.doc_id = b.doc_id AND a.e < b.e GROUP BY a.e, b.e) "
            "SELECT ent_a, ent_b, n_docs FROM p WHERE n_docs >= 2 "
            "ORDER BY ent_a, ent_b"
        ),
        "image_dhash": (
            "WITH b AS (SELECT doc_id, md5(coalesce(text, '')) AS hx "
            "FROM documents), "
            "px AS (SELECT doc_id, i, CAST(md5_number_lower(hx || ':' || "
            "CAST(i AS VARCHAR)) % 256 AS BIGINT) AS p FROM b CROSS JOIN "
            "(SELECT unnest(generate_series(0, 71)) AS i)), "
            "bits AS (SELECT a.doc_id, (a.i // 9) * 8 + (a.i % 9) AS bp, "
            "CASE WHEN nb.p > a.p THEN 1 ELSE 0 END AS bit FROM px a "
            "JOIN px nb ON nb.doc_id = a.doc_id AND nb.i = a.i + 1 "
            "WHERE a.i % 9 < 8), "
            "s AS (SELECT doc_id, sum(CASE WHEN bit = 1 THEN "
            "CAST(1 AS HUGEINT) << bp ELSE CAST(0 AS HUGEINT) END) AS u "
            "FROM bits GROUP BY doc_id) "
            "SELECT doc_id, 'image/fake' AS media_type, CAST(CASE WHEN "
            "u >= CAST('9223372036854775808' AS HUGEINT) THEN "
            "u - CAST('18446744073709551616' AS HUGEINT) ELSE u END "
            "AS BIGINT) AS dhash FROM s ORDER BY doc_id"
        ),
        "image_dup_pairs": (
            "WITH " + _IMAGE_DHASH_PAIR_CTES
            + " SELECT id_a, id_b, CAST(hamming AS INT) AS hamming FROM hm "
            "WHERE hamming <= 3 ORDER BY id_a, id_b"
        ),
        "image_dedup_corpus": (
            "WITH RECURSIVE " + _IMAGE_DHASH_PAIR_CTES
            + ", sel AS (SELECT id_a, id_b FROM hm WHERE hamming <= 3), "
            "edges AS (SELECT id_a AS src, id_b AS dst FROM sel "
            "UNION SELECT id_b, id_a FROM sel), "
            "reach(src, dst) AS (SELECT src, dst FROM edges UNION "
            "SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src), "
            "rep AS (SELECT src AS node, min(dst) AS mn FROM reach "
            "GROUP BY src) "
            "SELECT doc_id FROM documents WHERE doc_id NOT IN "
            "(SELECT node FROM rep WHERE mn < node) ORDER BY doc_id"
        ),
        "audio_fingerprint": (
            "WITH b AS (SELECT doc_id, md5(coalesce(text, '')) AS hx "
            "FROM documents), "
            "e AS (SELECT doc_id, i, CAST(md5_number_lower(hx || ':' || "
            "CAST(i AS VARCHAR)) % 4294967296 AS BIGINT) AS en FROM b "
            "CROSS JOIN (SELECT unnest(generate_series(0, 64)) AS i)), "
            "bits AS (SELECT a.doc_id, a.i AS bp, CASE WHEN nb.en > a.en "
            "THEN 1 ELSE 0 END AS bit FROM e a JOIN e nb ON "
            "nb.doc_id = a.doc_id AND nb.i = a.i + 1 WHERE a.i < 64), "
            "s AS (SELECT doc_id, sum(CASE WHEN bit = 1 THEN "
            "CAST(1 AS HUGEINT) << bp ELSE CAST(0 AS HUGEINT) END) AS u "
            "FROM bits GROUP BY doc_id) "
            "SELECT doc_id, 'audio/fake' AS media_type, CAST(CASE WHEN "
            "u >= CAST('9223372036854775808' AS HUGEINT) THEN "
            "u - CAST('18446744073709551616' AS HUGEINT) ELSE u END "
            "AS BIGINT) AS fingerprint FROM s ORDER BY doc_id"
        ),
        "dedup_pair_eval": (
            "WITH " + _IMAGE_DHASH_PAIR_CTES
            + ", pred AS (SELECT id_a, id_b FROM hm WHERE hamming <= 3), "
            "truth AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM "
            "documents a JOIN documents b ON a.doc_id // 3 = b.doc_id // 3 "
            "AND a.doc_id < b.doc_id), "
            "m AS (SELECT coalesce(p.id_a, t.id_a) AS ia, "
            "coalesce(p.id_b, t.id_b) AS ib, "
            "CASE WHEN p.id_a IS NOT NULL THEN 1 ELSE 0 END AS ip, "
            "CASE WHEN t.id_a IS NOT NULL THEN 1 ELSE 0 END AS it "
            "FROM pred p FULL OUTER JOIN truth t "
            "ON p.id_a = t.id_a AND p.id_b = t.id_b), "
            "c AS (SELECT CAST(sum(CASE WHEN ip = 1 AND it = 1 THEN 1 "
            "ELSE 0 END) AS BIGINT) AS tp, CAST(sum(CASE WHEN ip = 1 AND "
            "it = 0 THEN 1 ELSE 0 END) AS BIGINT) AS fp, "
            "CAST(sum(CASE WHEN ip = 0 AND it = 1 THEN 1 ELSE 0 END) AS "
            "BIGINT) AS fn FROM m), "
            "d AS (SELECT tp + fp AS n_pred, tp + fn AS n_truth, tp, fp, "
            "fn, CASE WHEN tp + fp > 0 THEN tp::DOUBLE / "
            "(tp + fp)::DOUBLE END AS precision, CASE WHEN tp + fn > 0 "
            "THEN tp::DOUBLE / (tp + fn)::DOUBLE END AS recall FROM c) "
            "SELECT n_pred, n_truth, tp, fp, fn, precision, recall, "
            "CASE WHEN precision IS NOT NULL AND recall IS NOT NULL AND "
            "precision + recall > 0 THEN (2.0 * precision * recall) / "
            "(precision + recall) END AS f1 FROM d"
        ),
        "sorted_neighborhood": (
            "WITH r AS (SELECT doc_id, row_number() OVER (ORDER BY "
            "n_chars, doc_id) AS rn FROM documents) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(b.rn - a.rn AS INT) AS dist FROM r a JOIN r b "
            "ON b.rn > a.rn AND b.rn <= a.rn + 2 ORDER BY id_a, id_b"
        ),
        "politeness_order": (
            "WITH f AS (SELECT 'site' || CAST(doc_id % 37 AS VARCHAR) || "
            "'.example.com' AS domain, 'http://site' || "
            "CAST(doc_id % 37 AS VARCHAR) || '.example.com/page/' || "
            "CAST(doc_id AS VARCHAR) AS url FROM documents), "
            "r AS (SELECT domain, url, row_number() OVER (PARTITION BY "
            "domain ORDER BY url) AS rank FROM f) "
            "SELECT domain, url, rank, row_number() OVER (ORDER BY rank, "
            "domain, url) AS crawl_pos FROM r ORDER BY crawl_pos"
        ),
        "token_spectrum": (
            "WITH tok AS (SELECT unnest(regexp_split_to_array(lower("
            "coalesce(text, '')), '[ \\t\\n\\r]+')) AS t FROM documents), "
            "ct AS (SELECT t, count(*)::BIGINT AS n FROM tok "
            "WHERE t <> '' GROUP BY t), "
            "sp AS (SELECT n AS freq, count(*)::BIGINT AS n_tokens "
            "FROM ct GROUP BY n) "
            "SELECT a.freq, a.n_tokens, round((a.freq + 1)::DOUBLE * "
            "b.n_tokens::DOUBLE / a.n_tokens::DOUBLE, 6) AS r_star "
            "FROM sp a LEFT JOIN sp b ON b.freq = a.freq + 1 "
            "ORDER BY a.freq"
        ),
        "token_burstiness": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array("
            "lower(coalesce(text, '')), '[ \\t\\n\\r]+')) AS t "
            "FROM documents), "
            "ct AS (SELECT doc_id, t, count(*)::BIGINT AS c FROM tok "
            "WHERE t <> '' GROUP BY doc_id, t), "
            "n AS (SELECT count(*)::BIGINT AS nd FROM documents), "
            "s AS (SELECT t AS token, count(*)::BIGINT AS df, "
            "CAST(sum(c) AS BIGINT) AS total, CAST(sum(c*c) AS BIGINT) "
            "AS sq FROM ct GROUP BY t) "
            "SELECT token, df, total, round(((sq::DOUBLE / nd::DOUBLE) - "
            "(total::DOUBLE / nd::DOUBLE) * (total::DOUBLE / nd::DOUBLE)) "
            "/ (total::DOUBLE / nd::DOUBLE), 6) AS burstiness "
            "FROM s, n WHERE df >= 2 ORDER BY token"
        ),
        "kmv_set_ops": (
            # same KMV algebra as the op: per-source bottom-64 distinct
            # hashes, per-pair merged bottom-64, tau = h_(64); union =
            # 63*2^64/tau, inter = (nboth/64)*union_raw; exact when the
            # merged set has < 64 hashes (both sketches exact)
            "WITH h AS (SELECT DISTINCT event_type AS src, "
            "md5_number_lower('kmv:' || CAST(user_id AS VARCHAR)) AS h "
            "FROM events WHERE user_id IS NOT NULL "
            "AND event_type IS NOT NULL), "
            "r AS (SELECT src, h, row_number() OVER (PARTITION BY src "
            "ORDER BY h) AS rnk FROM h), "
            "sk AS (SELECT src, h FROM r WHERE rnk <= 64), "
            "srcs AS (SELECT DISTINCT src FROM sk), "
            "pairs AS (SELECT a.src AS sa, b.src AS sb FROM srcs a "
            "JOIN srcs b ON a.src < b.src), "
            "m AS (SELECT p.sa, p.sb, s.h FROM pairs p JOIN sk s "
            "ON s.src = p.sa OR s.src = p.sb GROUP BY p.sa, p.sb, s.h), "
            "mr AS (SELECT sa, sb, h, row_number() OVER (PARTITION BY "
            "sa, sb ORDER BY h) AS rnk, count(*) OVER (PARTITION BY sa, sb) "
            "AS cnt FROM m), "
            "top AS (SELECT sa, sb, h, rnk, cnt FROM mr WHERE rnk <= 64), "
            "flags AS (SELECT t.sa, t.sb, t.h, t.rnk, t.cnt, CASE WHEN "
            "ka.h IS NOT NULL AND kb.h IS NOT NULL THEN 1 ELSE 0 END AS "
            "boths FROM top t LEFT JOIN sk ka ON ka.src = t.sa AND "
            "ka.h = t.h LEFT JOIN sk kb ON kb.src = t.sb AND kb.h = t.h), "
            "agg AS (SELECT sa, sb, max(cnt) AS cnt, CAST(sum(boths) AS "
            "BIGINT) AS nboth, max(CASE WHEN rnk = 64 THEN h END) AS kth "
            "FROM flags GROUP BY sa, sb) "
            "SELECT sa AS src_a, sb AS src_b, "
            "CASE WHEN cnt < 64 THEN CAST(cnt AS DOUBLE) ELSE "
            "ROUND(63.0 * 18446744073709551616.0 / CAST(kth AS DOUBLE), 4) "
            "END AS union_est, "
            "CASE WHEN cnt < 64 THEN CAST(nboth AS DOUBLE) ELSE "
            "ROUND((CAST(nboth AS DOUBLE) / 64.0) * (63.0 * "
            "18446744073709551616.0 / CAST(kth AS DOUBLE)), 4) "
            "END AS inter_est FROM agg ORDER BY src_a, src_b"
        ),
        "audio_dup_pairs": (
            "WITH b AS (SELECT doc_id, md5('aud:' || "
            "CAST(doc_id // 3 AS VARCHAR)) AS hx FROM documents), "
            "e AS (SELECT doc_id, i, CAST(md5_number_lower(hx || ':' || "
            "CAST(i AS VARCHAR)) % 4294967296 AS BIGINT) AS en FROM b "
            "CROSS JOIN (SELECT unnest(generate_series(0, 64)) AS i)), "
            "bits AS (SELECT a.doc_id, a.i AS bp, CASE WHEN nb.en > a.en "
            "THEN 1 ELSE 0 END AS bit FROM e a JOIN e nb ON "
            "nb.doc_id = a.doc_id AND nb.i = a.i + 1 WHERE a.i < 64), "
            "s AS (SELECT doc_id, sum(CASE WHEN bit = 1 THEN "
            "CAST(1 AS HUGEINT) << bp ELSE CAST(0 AS HUGEINT) END) AS u "
            "FROM bits GROUP BY doc_id), "
            "v AS (SELECT doc_id, CAST(CASE WHEN u >= "
            "CAST('9223372036854775808' AS HUGEINT) THEN u - "
            "CAST('18446744073709551616' AS HUGEINT) ELSE u END AS BIGINT) "
            "AS h FROM s), "
            "bl AS (SELECT doc_id, h, k, (h >> (16 * k)) & 65535 AS key "
            "FROM v CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k)), "
            "cand AS (SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b "
            "FROM bl a JOIN bl b ON a.k = b.k AND a.key = b.key "
            "AND a.doc_id < b.doc_id), "
            "hm AS (SELECT c.id_a, c.id_b, bit_count(xor(va.h, vb.h)) AS "
            "hamming FROM cand c JOIN v va ON va.doc_id = c.id_a "
            "JOIN v vb ON vb.doc_id = c.id_b) "
            "SELECT id_a, id_b, CAST(hamming AS INT) AS hamming FROM hm "
            "WHERE hamming <= 3 ORDER BY id_a, id_b"
        ),
        # search_topk / search_topk_distributed (full coverage+fusion
        # cascade) and image_features (float-histogram fake codec) are
        # non-SQL-expressible → rows-only.
    }

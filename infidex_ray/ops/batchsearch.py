"""Batch search — score a Dataset of QUERIES through a built index as a
Ray Data transform ("search as a data transform").

The serving path (`engine.py` / `query/executor.py`) optimizes latency of
one query at a time; offline jobs — relevance eval sweeps, query-log
mining, hard-negative mining for ranker training — instead need THROUGHPUT
over millions of stored queries. This op is the Ray-Data-native shape for
that: a stateful actor pool (``map_batches`` with a callable class) where
each actor opens the index ONCE in ``__init__`` (mmap'd segments, df
tables) and then scores whole query batches per call — no per-query
engine setup, no driver round-trips, linear scale-out with the pool size.

The index tree must be readable by every worker (shared filesystem or
object store path) — the same assumption every multi-node Ray Data read
makes.

No direct reference analogue (the reference is a serving engine;
SearchEngine.cs:228-306 scores one query per call) — this is the
beyond-reference batch form of the same stage-1/coverage pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class _SearchActor:
    def __init__(
        self,
        index_dir: str,
        top_k: int,
        enable_coverage: bool,
        query_col: str,
        score_mode: str,
    ):
        from ..engine import Engine

        self.eng = Engine.load(index_dir)
        self.top_k = top_k
        self.enable_coverage = enable_coverage
        self.query_col = query_col
        self.score_mode = score_mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"query": [], "rank": [], "doc_id": [], "score": []}
        for q in batch[self.query_col].to_pylist():
            q = q or ""
            hits = self.eng.search(
                q, top_k=self.top_k, enable_coverage=self.enable_coverage
            )
            if self.score_mode == "float64_sql":
                smap = dict(self.eng.bm25_all_scores(q, include_fuzzy=True))
            for r, hit in enumerate(hits):
                out["query"].append(q)
                out["rank"].append(r + 1)
                out["doc_id"].append(hit.doc_key)
                if self.score_mode == "float64_sql":
                    s = smap[hit.doc_key]
                    s = float(
                        np.floor(abs(s) * 1e4 + 0.5) * np.sign(s) / 1e4
                    )
                else:
                    s = float(hit.score)
                out["score"].append(s)
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "rank": pa.array(out["rank"], pa.int64()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )


def batch_search(
    queries_ds,
    index_dir: str,
    top_k: int = 10,
    enable_coverage: bool = True,
    query_col: str = "query",
    score_mode: str = "engine",
    concurrency=(1, 8),
    batch_size: int = 256,
):
    """Run every query row through the index; returns ``(query, rank,
    doc_id, score)`` rows (rank 1-based, ranking identical to
    ``Engine.search`` — the golden rank-identity suite covers the
    underlying pipeline).

    ``score_mode='engine'`` emits the serving path's float32 score;
    ``'float64_sql'`` re-derives scores via ``bm25_all_scores`` (the
    SQL-surface float64 scorer, rounded half-away to 4) so the output
    hash-matches the ``sqlgen.stage1_topk_sql`` oracle — use with
    ``enable_coverage=False`` (the coverage cascade is not
    SQL-expressible).

    Scale: the actor pool autoscales within ``concurrency`` (a FIXED pool
    sized at the CPU count deadlocks small sessions — see the decontam
    note); each actor holds the mmap'd index once, so memory is
    O(index) × pool size, and throughput scales with the pool."""
    if score_mode not in ("engine", "float64_sql"):
        # validate driver-side: a worker-side raise surfaces as an opaque
        # RayTaskError
        raise ValueError(f"unknown score_mode {score_mode!r}")
    if score_mode == "float64_sql" and enable_coverage:
        # the coverage cascade can surface wordmatch-only hits absent
        # from bm25_all_scores (small corpora) → KeyError in the actor
        raise ValueError("score_mode='float64_sql' requires enable_coverage=False")
    return queries_ds.map_batches(
        _SearchActor,
        fn_constructor_args=(
            index_dir,
            top_k,
            enable_coverage,
            query_col,
            score_mode,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class _StatsOnly:
    """Plan context from the index's STATS files only — no segment opens.

    Everything the stage-1 plan pipeline needs before touching postings is
    index-global: tokenizer config (manifest), term df (stats parquet),
    total_docs/avgdl (stats.json), synonyms. Merge-stage actors use this
    to rebuild plans and run ``decide_level`` without holding any shard."""

    def __init__(self, index_dir: str):
        import json
        import os

        from ..engine import config_from_manifest, load_df_lookup

        with open(os.path.join(index_dir, "manifest.json")) as f:
            manifest = json.load(f)
        self.cfg = config_from_manifest(manifest)
        self.df_lookup = load_df_lookup(index_dir, "df")
        st = manifest["stats"]
        self.total_docs = st["total_docs"]
        self.avgdl = st["avg_doc_len"]
        self.synonym_map = self.cfg.synonym_map()
        self._delims = frozenset(self.cfg.delimiters)
        tomb = os.path.join(index_dir, "tombstones.json")
        self.deleted: frozenset = frozenset()
        if os.path.exists(tomb):
            with open(tomb) as f:
                self.deleted = frozenset(json.load(f))

    def norm_query(self, query_text: str) -> str:
        """search_ex's query prep (engine.py:481-487): normalize, synonym
        canonicalization, lower."""
        from ..analyzer import normalize_with

        q = normalize_with(
            self.cfg.normalizer, (query_text or "").strip(), is_query=True
        ).lower()
        if self.synonym_map is not None:
            q = self.synonym_map.canonicalize_text(q, self._delims)
        return q

    def stage1_query(self, q_norm: str) -> str | None:
        """The tf-idf query text stage 1 scores, or None when the query
        routes to the short/single-char path (engine.py:489-505) — out of
        scope for the sharded stage-1 op."""
        from ..engine import analyze_query

        if not q_norm:
            return None
        can_ngrams, has_mixed, long_words_text = analyze_query(q_norm, self.cfg)
        if not can_ngrams:
            return None
        t = long_words_text if has_mixed else q_norm
        return t if t.strip() else q_norm

    def fuzzy_probe_terms(self, tfidf_query: str) -> list[str]:
        """Terms whose LD1 fuzzy df must be summed across shards: global
        df == 0 and length ≥ 4 (stage1.prepare_query_terms:140-145)."""
        from ..analyzer import tokenize_for_search

        cfg = self.cfg
        tokens = tokenize_for_search(
            tfidf_query,
            cfg.index_sizes,
            cfg.start_pad_size,
            cfg.stop_pad_size,
            cfg.delimiters,
            cfg.high_resolution_mode,
        )
        seen = []
        done = set()
        for t in tokens:
            if t in done:
                continue
            done.add(t)
            if len(t) >= 4 and self.df_lookup(t) == 0:
                seen.append(t)
        return seen

    def bm25_probe_terms(self, raw_query: str) -> list[str]:
        """Fuzzy probe terms under bm25_all_scores' OWN tokenization
        (engine.py:818-833: normalize WITHOUT synonym canonicalization,
        default tokenizer flags) — the float64_sql scorer can reach OOV
        terms the stage-1 plan never probes (mixed-word drops, synonym
        canonical forms), and a shard falling back to its LOCAL fuzzy df
        for them would skew score64 with the shard count."""
        from ..analyzer import normalize_with, tokenize_for_search

        cfg = self.cfg
        q = normalize_with(
            cfg.normalizer, (raw_query or "").strip(), is_query=True
        ).lower()
        tokens = sorted(
            set(
                tokenize_for_search(
                    q,
                    cfg.index_sizes,
                    cfg.start_pad_size,
                    cfg.stop_pad_size,
                    cfg.delimiters,
                )
            )
        )
        return [
            t for t in tokens if len(t) >= 4 and self.df_lookup(t) == 0
        ]

    def plan(self, tfidf_query: str, fuzzy_map: dict):
        from ..query import stage1 as s1

        infos = s1.prepare_query_terms(
            tfidf_query,
            self.cfg,
            self.df_lookup,
            self.total_docs,
            self.avgdl,
            fuzzy_df_fn=lambda t: fuzzy_map.get(t, 0),
        )
        return s1.build_plan(infos)


def _fuzzy_json(fuzzy_map: dict) -> str:
    import json

    return json.dumps(sorted(fuzzy_map.items()))


def _fuzzy_from_json(s: str) -> dict:
    import json

    return dict(json.loads(s)) if s else {}


class _ShardFuzzyActor:
    """Round 1: per-shard LD1 fuzzy-union cardinalities for the probe
    terms (global fuzzy df = Σ shard cardinalities — segments are
    doc-disjoint, engine.py::_fuzzy_global_df)."""

    def __init__(self, index_dir: str, shard_indices: list):
        from ..engine import Engine

        self.eng = Engine.load(index_dir, segment_indices=list(shard_indices))
        self.stats = _StatsOnly(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_t, out_c = [], [], []
        for raw in batch["query"].to_pylist():
            tq = self.stats.stage1_query(self.stats.norm_query(raw))
            if tq is None:
                continue
            # union of the PLAN's probe set and the float64 scorer's —
            # both tokenizations' OOV terms need the GLOBAL fuzzy df
            probes = set(self.stats.fuzzy_probe_terms(tq))
            probes.update(self.stats.bm25_probe_terms(raw))
            for term in sorted(probes):
                out_q.append(raw)
                out_t.append(term)
                out_c.append(
                    sum(s.fuzzy_union(term)[1] for s in self.eng.searchers)
                )
        return pa.table(
            {
                "query": pa.array(out_q, pa.string()),
                "term": pa.array(out_t, pa.string()),
                "cnt": pa.array(out_c, pa.int64()),
            }
        )


class _ShardCountsActor:
    """Round 2: per-shard cumulative candidate-set cardinalities for each
    query's plan (stage1.SegmentStage1.phase_a), padded to 4 levels."""

    def __init__(self, index_dir: str, shard_indices: list):
        from ..engine import Engine

        self.eng = Engine.load(index_dir, segment_indices=list(shard_indices))
        self.stats = _StatsOnly(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..query.stage1 import sum_counts

        qs = batch["query"].to_pylist()
        fj = batch["fuzzy_json"].to_pylist()
        out = {"query": [], "fuzzy_json": [], "counts": []}
        for raw, f in zip(qs, fj):
            tq = self.stats.stage1_query(self.stats.norm_query(raw))
            if tq is None:
                continue
            plan = self.stats.plan(tq, _fuzzy_from_json(f))
            if plan is None or plan.n_levels == 1:
                vec = []  # level fixed at 1, no cardinality round needed
            else:
                vec = sum_counts([s.phase_a(plan) for s in self.eng.searchers]).tolist()
            out["query"].append(raw)
            out["fuzzy_json"].append(f)
            out["counts"].append(vec)
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "fuzzy_json": pa.array(out["fuzzy_json"], pa.string()),
                "counts": pa.array(out["counts"], pa.list_(pa.int64())),
            }
        )


class _ShardScoreActor:
    """Round 3: per-shard phase-B scoring at the globally decided level;
    ships per-SEGMENT entry lists with (seg_id, pos) so the final merge
    reproduces run_stage1's flatten order exactly."""

    def __init__(
        self, index_dir: str, shard_indices: list, depth: int, score_mode: str
    ):
        from ..engine import Engine

        self.eng = Engine.load(index_dir, segment_indices=list(shard_indices))
        self.stats = _StatsOnly(index_dir)
        self.depth = depth
        self.score_mode = score_mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {
            "query": [],
            "seg_id": [],
            "pos": [],
            "score32": [],
            "key": [],
            "tb": [],
            "score64": [],
        }
        for raw, f, level in zip(
            batch["query"].to_pylist(),
            batch["fuzzy_json"].to_pylist(),
            batch["level"].to_pylist(),
        ):
            qn = self.stats.norm_query(raw)
            tq = self.stats.stage1_query(qn)
            if tq is None:
                continue
            plan = self.stats.plan(tq, _fuzzy_from_json(f))
            if plan is None:
                continue
            smap = None
            if self.score_mode == "float64_sql":
                smap = dict(
                    self.eng.bm25_all_scores(
                        raw,
                        include_fuzzy=True,
                        fuzzy_df_overrides=_fuzzy_from_json(f),
                    )
                )
            for s in self.eng.searchers:
                # NOTE: tombstoned entries ship too — the engine filters
                # AFTER the depth-truncating merge (engine.py:509-510), so
                # filtering here would let live entries the whole-index
                # path truncated away sneak back in; final_merge filters.
                entries = s.phase_b(plan, int(level), self.depth, self.stats.avgdl)
                for pos, e in enumerate(entries):
                    out["query"].append(raw)
                    out["seg_id"].append(e[3])
                    out["pos"].append(pos)
                    out["score32"].append(np.float32(e[0]))
                    out["key"].append(e[1])
                    out["tb"].append(e[2])
                    if smap is not None:
                        v = smap[e[1]]
                        out["score64"].append(
                            float(np.floor(abs(v) * 1e4 + 0.5) * np.sign(v) / 1e4)
                        )
                    else:
                        out["score64"].append(float(e[0]))
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "seg_id": pa.array(out["seg_id"], pa.int32()),
                "pos": pa.array(out["pos"], pa.int32()),
                "score32": pa.array(out["score32"], pa.float32()),
                "key": pa.array(out["key"], pa.int64()),
                "tb": pa.array(out["tb"], pa.int64()),
                "score64": pa.array(out["score64"], pa.float64()),
            }
        )


def batch_search_sharded(
    queries_ds,
    index_dir: str,
    n_shards: int | None = None,
    top_k: int = 10,
    query_col: str = "query",
    score_mode: str = "engine",
    concurrency=(1, 4),
    batch_size: int = 256,
    num_merge_slices: int | None = None,
):
    """Shard-parallel batch scoring — the BIG-INDEX form of
    :func:`batch_search`: instead of every actor holding the whole index
    (memory O(index) × pool), the segments split into ``n_shards``
    contiguous groups and each query streams through one actor pool PER
    SHARD (memory O(index / n_shards) per actor). Rank-IDENTICAL to
    whole-index ``Engine.search(q, enable_coverage=False)`` because the
    full global stage-1 protocol runs as three Dataset rounds — the same
    information flow as the serving executor, re-expressed as streaming
    map_batches stages instead of per-query driver RTTs:

    1. fuzzy round: per-shard LD1 union cardinalities for terms with
       global df = 0 (summed per query — a shard-local fuzzy df would
       change the PLAN, engine.py::_fuzzy_global_df);
    2. counts round: per-shard ``phase_a`` candidate cardinalities →
       summed per query → ONE global ``decide_level`` (a shard-local
       level would change the candidate SET, stage1.py:200-223);
    3. score round: per-shard ``phase_b`` at the decided level →
       per-segment entry lists merged in run_stage1's exact flatten
       order (entries carry (seg_id, pos)) → ``merge_topk`` +
       ``consolidate`` per query.

    Stage-1 scope only: queries that route to the short/single-char path
    (all words below the min index size) emit NO rows — run those
    through :func:`batch_search` (full pipeline) instead. Output:
    ``(query, rank, doc_id, score)`` with ONE result set per DISTINCT
    query string (duplicate query-log rows collapse before the first
    round — join the output back on ``query`` to re-attach frequencies,
    or use :func:`batch_search`, which preserves row multiplicity).
    ``score_mode`` as in :func:`batch_search`.

    Scale: distinct queries materialize once and fan out to S shard pools per
    round; only O(probe terms), O(4 counts) and O(S × depth) entry rows
    per query ever cross; every merge is a coarse query-slice groupby
    (vectorized per-slice work, never a per-query Ray group)."""
    import json as _json
    import os as _os

    from ..query import stage1 as s1
    from .dedup import _default_num_slices, _slice_hash_strings

    if score_mode not in ("engine", "float64_sql"):
        raise ValueError(f"unknown score_mode {score_mode!r}")
    from ..engine import config_from_manifest

    with open(_os.path.join(index_dir, "manifest.json")) as f:
        manifest = _json.load(f)
    n_segments = len(manifest["segments"])
    depth = config_from_manifest(manifest).coverage_depth
    if n_shards is None:
        n_shards = min(8, n_segments)
    n_shards = max(1, min(int(n_shards), n_segments))
    bounds = np.linspace(0, n_segments, n_shards + 1).astype(int)
    shards = [
        list(range(bounds[i], bounds[i + 1]))
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    ]
    if num_merge_slices is None:
        num_merge_slices = _default_num_slices()

    def _union(dss):
        out = dss[0]
        for d in dss[1:]:
            out = out.union(d)
        return out

    def _q_slice(t: pa.Table) -> pa.Table:
        return t.append_column(
            "slice", pa.array(_slice_hash_strings(t["query"], num_merge_slices))
        )

    def query_text(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # null query rows coalesce to "" (sorted() in the merges cannot
        # compare None to str; batch_search does the same)
        q = pc.fill_null(t[query_col].cast(pa.string()), "")
        return _q_slice(pa.table({"query": q}))

    def distinct(g: pa.Table) -> pa.Table:
        return pa.table(
            {"query": pa.array(sorted(set(g["query"].to_pylist())), pa.string())}
        )

    # ONE row per distinct query before any fan-out: fuse_fuzzy sums one
    # row per (shard, term), so a query repeated d times in the log would
    # otherwise get d× its global fuzzy df
    qmat = (
        queries_ds.map_batches(query_text, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(distinct, batch_format="pyarrow")
        .materialize()
    )

    # ---- round 1: global fuzzy dfs --------------------------------------
    fuzzy_rows = _union(
        [
            qmat.map_batches(
                _ShardFuzzyActor,
                fn_constructor_args=(index_dir, sh),
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=concurrency,
            )
            for sh in shards
        ]
    )

    def base_q(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query": t["query"],
                "term": pa.nulls(len(t), pa.string()),
                "cnt": pa.nulls(len(t), pa.int64()),
            }
        )

    with_base = fuzzy_rows.union(qmat.map_batches(base_q, batch_format="pyarrow"))

    def fuse_fuzzy(g: pa.Table) -> pa.Table:
        """Per query: Σ cnt per term → fuzzy_json (base rows keep queries
        with no probes present)."""
        qs = np.asarray(g["query"].to_pylist(), dtype=object)
        terms = g["term"].to_pylist()
        cnts = g["cnt"].to_pylist()
        agg: dict = {}
        for q, t, c in zip(qs, terms, cnts):
            m = agg.setdefault(q, {})
            if t is not None:
                m[t] = m.get(t, 0) + int(c)
        keys = sorted(agg)
        return pa.table(
            {
                "query": pa.array(keys, pa.string()),
                "fuzzy_json": pa.array(
                    [_fuzzy_json(agg[k]) for k in keys], pa.string()
                ),
            }
        )

    q_fuzzy = (
        with_base.map_batches(_q_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(fuse_fuzzy, batch_format="pyarrow")
        .materialize()
    )

    # ---- round 2: global level decision ---------------------------------
    counts_rows = _union(
        [
            q_fuzzy.map_batches(
                _ShardCountsActor,
                fn_constructor_args=(index_dir, sh),
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=concurrency,
            )
            for sh in shards
        ]
    )
    stats_ref = [None]  # per merge-actor lazy _StatsOnly

    def decide(g: pa.Table) -> pa.Table:
        if stats_ref[0] is None:
            stats_ref[0] = _StatsOnly(index_dir)
        stats = stats_ref[0]
        qs = np.asarray(g["query"].to_pylist(), dtype=object)
        fj = g["fuzzy_json"].to_pylist()
        cs = g["counts"].to_pylist()
        order = np.argsort(qs, kind="stable")
        out_q, out_f, out_l = [], [], []
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and qs[order[j]] == qs[order[i]]:
                j += 1
            vec = s1.sum_counts([cs[t] for t in order[i:j]])
            q, f = qs[order[i]], fj[order[i]]
            tq = stats.stage1_query(stats.norm_query(q))
            if tq is not None:
                plan = stats.plan(tq, _fuzzy_from_json(f))
                if plan is not None:
                    level = (
                        1
                        if plan.n_levels == 1
                        else s1.decide_level(plan, vec, depth)
                    )
                    out_q.append(q)
                    out_f.append(f)
                    out_l.append(int(level))
            i = j
        return pa.table(
            {
                "query": pa.array(out_q, pa.string()),
                "fuzzy_json": pa.array(out_f, pa.string()),
                "level": pa.array(out_l, pa.int64()),
            }
        )

    q_level = (
        counts_rows.map_batches(_q_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(decide, batch_format="pyarrow")
        .materialize()
    )

    # ---- round 3: phase B + exact merge ---------------------------------
    hits = _union(
        [
            q_level.map_batches(
                _ShardScoreActor,
                fn_constructor_args=(index_dir, sh, depth, score_mode),
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=concurrency,
            )
            for sh in shards
        ]
    )

    merge_state = [None]  # lazy per-task tombstone set

    def final_merge(g: pa.Table) -> pa.Table:
        if merge_state[0] is None:
            merge_state[0] = _StatsOnly(index_dir).deleted
        deleted = merge_state[0]
        qs = np.asarray(g["query"].to_pylist(), dtype=object)
        seg = g["seg_id"].to_numpy(zero_copy_only=False)
        pos = g["pos"].to_numpy(zero_copy_only=False)
        s32 = g["score32"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        tb = g["tb"].to_numpy(zero_copy_only=False)
        s64 = g["score64"].to_numpy(zero_copy_only=False)
        out = {"query": [], "rank": [], "doc_id": [], "score": []}
        order = np.lexsort((pos, seg, qs))
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and qs[order[j]] == qs[order[i]]:
                j += 1
            idx = order[i:j]  # run_stage1's flatten order: seg asc, pos asc
            entries = [
                (float(s32[t]), int(key[t]), int(tb[t]), int(seg[t]), -1)
                for t in idx
            ]
            final = s1.consolidate(s1.merge_topk([entries], depth))
            if deleted:  # engine filters AFTER the depth merge (:509-510)
                final = [e for e in final if e[1] not in deleted]
            # score64 keyed by the FULL entry identity (key, seg, f32
            # score, tb): a multi-chunk doc puts several rows per (key,
            # seg) in idx and consolidate ranks by the BEST chunk — a
            # plain (key, seg) map iterated pos-ascending would keep the
            # WORST chunk's engine-mode score (entries are score-desc)
            sc = {
                (int(key[t]), int(seg[t]), float(s32[t]), int(tb[t])): float(
                    s64[t]
                )
                for t in idx
            }
            for r, e in enumerate(final[:top_k]):
                out["query"].append(qs[order[i]])
                out["rank"].append(r + 1)
                out["doc_id"].append(e[1])
                out["score"].append(sc[(e[1], e[3], e[0], e[2])])
            i = j
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "rank": pa.array(out["rank"], pa.int64()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )

    return (
        hits.map_batches(_q_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final_merge, batch_format="pyarrow")
    )

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
                    s = _round4(smap.get(hit.doc_key, 0.0))
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
    SQL-surface float64 scorer, rounded half-away to 4; 0.0 for a hit
    no term scores positively) so the output hash-matches the
    ``sqlgen.stage1_topk_sql`` oracle — use with
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
        # the coverage cascade has no float64 SQL counterpart (its
        # wordmatch-only hits have no BM25 score at all)
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


def _round4(v: float) -> float:
    """Round half away from zero to 4 places (the SQL oracle's ``round``)."""
    return float(np.floor(abs(v) * 1e4 + 0.5) * np.sign(v) / 1e4)


def _fuzzy_json(fuzzy_map: dict) -> str:
    import json

    return json.dumps(sorted(fuzzy_map.items()))


def _fuzzy_from_json(s: str) -> dict:
    import json

    return dict(json.loads(s)) if s else {}


def _plan(eng, query: str, fuzzy_json: str):
    """The query's stage-1 plan under round 1's global fuzzy dfs, or None
    (short/single-char route, or no scorable term)."""
    tfidf_query = eng.prep_query(query)[1]
    if tfidf_query is None:
        return None
    fuzzy = _fuzzy_from_json(fuzzy_json)
    return eng.plan(tfidf_query, lambda need: [fuzzy.get(t, 0) for t in need])


def _by_query(g: pa.Table, *ties: str):
    """Yield ``(query, row indices)`` once per distinct query of ``g``, the
    rows ordered by the ``ties`` columns within a query."""
    qs = np.asarray(g["query"].to_pylist(), dtype=object)
    if len(qs) == 0:
        return
    keys = [g[c].to_numpy(zero_copy_only=False) for c in reversed(ties)]
    order = np.lexsort((*keys, qs))
    sq = qs[order]
    for idx in np.split(order, np.flatnonzero(sq[1:] != sq[:-1]) + 1):
        yield qs[idx[0]], idx


class _ShardActor:
    """One index shard (a contiguous segment range), opened once per actor
    — the shared state of the three :func:`batch_search_sharded` rounds."""

    def __init__(self, index_dir: str, shard_indices: list, score_mode: str):
        from ..engine import Engine

        self.eng = Engine.load(index_dir, segment_indices=list(shard_indices))
        self.score_mode = score_mode


class _ShardFuzzyActor(_ShardActor):
    """Round 1: this shard's LD1 fuzzy-union cardinality of every unknown
    term a query probes (global fuzzy df = Σ shard cardinalities —
    segments are doc-disjoint, Engine._fuzzy_global_df_batch)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_f = [], []
        for raw in batch["query"].to_pylist():
            tfidf_query = self.eng.prep_query(raw)[1]
            if tfidf_query is None:
                continue
            local: dict = {}

            def probe(need):
                cnts = self.eng._fuzzy_global_df_batch(need)
                local.update(zip(need, cnts))
                return cnts

            # the probe set is whatever the hooks ask for: the plan's
            # unknown terms and, for float64 scores, the SQL scorer's (its
            # own tokenization reaches terms the plan never probes, and a
            # shard's LOCAL fuzzy df for them would skew score64 with the
            # shard count)
            self.eng.plan(tfidf_query, probe)
            if self.score_mode == "float64_sql":
                self.eng.bm25_terms(raw, probe)
            out_q.append(raw)
            out_f.append(_fuzzy_json(local))
        return pa.table(
            {
                "query": pa.array(out_q, pa.string()),
                "fuzzy_json": pa.array(out_f, pa.string()),
            }
        )


class _ShardCountsActor(_ShardActor):
    """Round 2: this shard's cumulative candidate-set cardinalities for
    each query's plan (stage1.SegmentStage1.phase_a)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..query.stage1 import sum_counts

        out = {"query": [], "fuzzy_json": [], "counts": []}
        for raw, f in zip(
            batch["query"].to_pylist(), batch["fuzzy_json"].to_pylist()
        ):
            plan = _plan(self.eng, raw, f)
            if plan is None:
                continue
            if plan.n_levels == 1:
                vec = []  # level fixed at 1, no cardinality round needed
            else:
                vec = sum_counts(
                    [r.stage1.phase_a(plan) for r in self.eng.records.values()]
                ).tolist()
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


# round-3 wire format: stage1.pack_topk's columns + the row's output score
_PACKED_SCHEMA = pa.schema(
    [
        ("query", pa.string()),
        ("score", pa.float64()),
        ("key", pa.int64()),
        ("tb", pa.int64()),
        ("seg", pa.int64()),
        ("lid", pa.int64()),
        ("score64", pa.float64()),
    ]
)
_PACKED = tuple(_PACKED_SCHEMA.names[1:])


class _ShardScoreActor(_ShardActor):
    """Round 3: phase B at the globally decided level on every segment of
    the shard, merged to the shard's top-``coverage_depth``
    (stage1.pack_topk) plus each row's output score (``score64``)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..query import stage1 as s1

        eng = self.eng
        depth = eng.cfg.coverage_depth
        qs, parts = [], []
        for raw, f, level in zip(
            batch["query"].to_pylist(),
            batch["fuzzy_json"].to_pylist(),
            batch["level"].to_pylist(),
        ):
            plan = _plan(eng, raw, f)
            if plan is None:
                continue
            # tombstoned entries ship too — the engine filters AFTER the
            # depth-truncating merge (Engine.search_ex), so filtering here
            # would let live entries the whole-index path truncated away
            # sneak back in; the final merge filters
            packed = s1.pack_topk(
                [
                    r.stage1.phase_b(plan, int(level), depth, eng.avgdl)
                    for r in eng.records.values()
                ],
                depth,
            )
            if self.score_mode == "float64_sql":
                smap = dict(
                    eng.bm25_all_scores(
                        raw, include_fuzzy=True, fuzzy_df_overrides=_fuzzy_from_json(f)
                    )
                )
                s64 = np.array([_round4(smap.get(k, 0.0)) for k in packed[1].tolist()])
            else:
                s64 = packed[0]
            qs.extend([raw] * len(s64))
            parts.append((*packed, s64))
        if not parts:
            return _PACKED_SCHEMA.empty_table()
        cols = [np.concatenate(c) for c in zip(*parts)]
        return pa.Table.from_arrays(
            [pa.array(qs, pa.string()), *map(pa.array, cols)], schema=_PACKED_SCHEMA
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
):
    """Shard-parallel batch scoring — the BIG-INDEX form of
    :func:`batch_search`: instead of every actor holding the whole index
    (memory O(index) × pool), the segments split into ``n_shards``
    contiguous groups and each query streams through one actor pool PER
    SHARD (memory O(index / n_shards) per actor). Rank-IDENTICAL to
    whole-index ``Engine.search(q, enable_coverage=False)`` because the
    full global stage-1 protocol runs as three Dataset rounds — the same
    information flow as the serving executor, re-expressed as streaming
    map_batches stages instead of per-query driver RTTs. Every round
    prepares the query and builds its plan through the engine's own
    ``Engine.prep_query`` / ``Engine.plan``:

    1. fuzzy round: per-shard LD1 union cardinalities for terms with
       global df = 0, summed per query (a shard-local fuzzy df would
       change the PLAN, Engine._fuzzy_global_df_batch);
    2. counts round: per-shard ``phase_a`` candidate cardinalities →
       summed per query → ONE global ``decide_level`` (a shard-local
       level would change the candidate SET, stage1.py:200-223);
    3. score round: per-shard ``phase_b`` at the decided level, packed
       to the shard's top-depth (``stage1.pack_topk``) → ``merge_packed``
       per query, the serving executor's merge.

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
    import json
    import os

    import pyarrow.compute as pc

    from ..engine import Engine, config_from_manifest
    from ..query import stage1 as s1
    from .dedup import _default_num_slices, _slice_hash_strings

    if score_mode not in ("engine", "float64_sql"):
        raise ValueError(f"unknown score_mode {score_mode!r}")
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
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
    num_slices = _default_num_slices()

    def fan_out(ds, actor):
        """One actor pool per shard over ``ds``; the union of their rows."""
        parts = [
            ds.map_batches(
                actor,
                fn_constructor_args=(index_dir, sh, score_mode),
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=concurrency,
            )
            for sh in shards
        ]
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def per_query(ds, fn):
        """``fn`` over coarse query slices: every row of a query meets in
        one group."""

        def add_slice(t: pa.Table) -> pa.Table:
            return t.append_column(
                "slice", pa.array(_slice_hash_strings(t["query"], num_slices))
            )

        return (
            ds.map_batches(add_slice, batch_format="pyarrow")
            .groupby("slice")
            .map_groups(fn, batch_format="pyarrow")
        )

    stats: list = []  # per merge task: a zero-segment engine (global stats)

    def stats_engine():
        if not stats:
            stats.append(Engine.load(index_dir, segment_indices=[]))
        return stats[0]

    def query_text(t: pa.Table) -> pa.Table:
        # null query rows coalesce to "" (batch_search does the same)
        return pa.table({"query": pc.fill_null(t[query_col].cast(pa.string()), "")})

    def distinct(g: pa.Table) -> pa.Table:
        return pa.table(
            {"query": pa.array(sorted(set(g["query"].to_pylist())), pa.string())}
        )

    # ONE row per distinct query before any fan-out: fuse_fuzzy sums one
    # map per shard, so a query repeated d times in the log would
    # otherwise get d× its global fuzzy df
    qmat = per_query(
        queries_ds.map_batches(query_text, batch_format="pyarrow"), distinct
    ).materialize()

    # ---- round 1: global fuzzy dfs --------------------------------------
    def fuse_fuzzy(g: pa.Table) -> pa.Table:
        from collections import Counter

        fj = g["fuzzy_json"].to_pylist()
        out_q, out_f = [], []
        for q, idx in _by_query(g):
            total: Counter = Counter()
            for t in idx:
                total.update(_fuzzy_from_json(fj[t]))
            out_q.append(q)
            out_f.append(_fuzzy_json(total))
        return pa.table(
            {
                "query": pa.array(out_q, pa.string()),
                "fuzzy_json": pa.array(out_f, pa.string()),
            }
        )

    q_fuzzy = per_query(fan_out(qmat, _ShardFuzzyActor), fuse_fuzzy).materialize()

    # ---- round 2: global level decision ---------------------------------
    def decide(g: pa.Table) -> pa.Table:
        fj = g["fuzzy_json"].to_pylist()
        cs = g["counts"].to_pylist()
        out_q, out_f, out_l = [], [], []
        for q, idx in _by_query(g):
            f = fj[idx[0]]
            plan = _plan(stats_engine(), q, f)
            level = (
                1
                if plan.n_levels == 1
                else s1.decide_level(plan, s1.sum_counts([cs[t] for t in idx]), depth)
            )
            out_q.append(q)
            out_f.append(f)
            out_l.append(int(level))
        return pa.table(
            {
                "query": pa.array(out_q, pa.string()),
                "fuzzy_json": pa.array(out_f, pa.string()),
                "level": pa.array(out_l, pa.int64()),
            }
        )

    q_level = per_query(fan_out(q_fuzzy, _ShardCountsActor), decide).materialize()

    # ---- round 3: phase B + packed merge --------------------------------
    def final_merge(g: pa.Table) -> pa.Table:
        deleted = stats_engine().deleted
        cols = [g[c].to_numpy(zero_copy_only=False) for c in _PACKED]
        out = {"query": [], "rank": [], "doc_id": [], "score": []}
        # rows in (seg, lid) order: exactly-tied entries keep the
        # whole-index flatten order through merge_packed's stable sort
        for q, idx in _by_query(g, "seg", "lid"):
            final = s1.merge_packed([[c[idx] for c in cols]], depth)
            if deleted:  # the engine filters AFTER the depth merge
                final = [e for e in final if e[1] not in deleted]
            for r, e in enumerate(final[:top_k]):
                out["query"].append(q)
                out["rank"].append(r + 1)
                out["doc_id"].append(e[1])
                out["score"].append(e[5])
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "rank": pa.array(out["rank"], pa.int64()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )

    return per_query(fan_out(q_level, _ShardScoreActor), final_merge)

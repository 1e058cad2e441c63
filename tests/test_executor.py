"""Distributed query serving (actor-pool) — rank identity vs in-process.

North-rule requirement: results must be identical regardless of partitioning
AND distribution (same two-phase protocol, same memo semantics).
"""

from __future__ import annotations

import pytest

from infidex_ray.build import build_index_local
from infidex_ray.engine import Engine

QUERIES = [
    "batman", "qick fux", "battamam", "new york", "speeding",
    "quick brown fox", "th", "x", "wonder woman",
]


@pytest.fixture(scope="module")
def dist_pair(ray_session, minicorpus, tmp_path_factory):
    from infidex_ray.query.executor import DistributedEngine

    out = tmp_path_factory.mktemp("dist_idx")
    build_index_local(minicorpus, str(out), n_segments=4)
    eng = Engine.load(str(out))
    deng = DistributedEngine.connect(str(out), num_shards=2)
    yield eng, deng
    # release the 2 actor-CPUs: the 4-CPU test session deadlocks later
    # connects if pools leak (the full-suite hang this teardown fixes)
    deng.shutdown()


def test_distributed_rank_identity(dist_pair):
    eng, deng = dist_pair
    for q in QUERIES:
        a = [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in eng.search(q, top_k=10)]
        b = [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in deng.search(q, top_k=10)]
        assert a == b, f"distributed mismatch for {q!r}: {a} vs {b}"


def test_distributed_golden_sets(dist_pair):
    _, deng = dist_pair
    assert [h.doc_key for h in deng.search("qick fux", top_k=10)] == [5, 1]
    assert [h.doc_key for h in deng.search("battamam", top_k=10)] == [6]
    assert [h.doc_key for h in deng.search("new york", top_k=10)] == [8]
    assert [h.doc_key for h in deng.search("speeding", top_k=10)] == [7]


def test_distributed_delete(dist_pair):
    """Tombstones broadcast to shards; deleted doc vanishes from results."""
    eng, deng = dist_pair
    assert [h.doc_key for h in deng.search("wonder woman", top_k=5)][0] == 9
    deng.delete_documents([9])
    try:
        keys = [h.doc_key for h in deng.search("wonder woman", top_k=5)]
        assert 9 not in keys
    finally:
        # undo for other tests sharing the fixture
        deng.deleted.clear()
        import os, json
        with open(os.path.join(deng.index_dir, "tombstones.json"), "w") as f:
            json.dump([], f)
        import ray
        ray.get([a.set_deleted.remote([]) for a in deng.actors])


def test_distributed_repeat_queries_speculative_path(dist_pair):
    """Every multi-level plan runs the fused speculative phase_ab round: a
    cold plan guesses the session's last decided level (1 at the start,
    clamped to the plan), a repeat plan its memoized level. Results must be
    bit-identical across three consecutive runs AND identical to the
    in-process engine, whether the level guess hits or misses."""
    eng, deng = dist_pair
    # cold pass: no memo entry, default level reset → first guess is 1
    deng._level_memo.clear()
    deng._default_level = 1
    for q in QUERIES:
        got = [(h.doc_key, round(h.score, 6), h.tiebreaker)
               for h in deng.search(q, top_k=10)]
        ref = [(h.doc_key, round(h.score, 6), h.tiebreaker)
               for h in eng.search(q, top_k=10)]
        assert got == ref, f"cold guess broke rank identity for {q!r}"
    for q in QUERIES:
        runs = [
            [(h.doc_key, round(h.score, 6), h.tiebreaker)
             for h in deng.search(q, top_k=10)]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2], q
        ref = [(h.doc_key, round(h.score, 6), h.tiebreaker)
               for h in eng.search(q, top_k=10)]
        assert runs[0] == ref, q
    # a miss is forced by polluting the memo with a wrong guess
    import infidex_ray.query.stage1 as s1
    from infidex_ray.analyzer import normalize

    for q in QUERIES:
        nq = normalize(q).lower().strip()
        infos = s1.prepare_query_terms(
            nq, deng.cfg, deng.df_lookup, deng.total_docs, deng.avgdl,
            fuzzy_df_batch_fn=deng._fuzzy_global_df_batch,
        )
        plan = s1.build_plan(infos)
        if plan is None or plan.n_levels == 1:
            continue
        key = (s1.SegmentStage1._plan_key(plan), 10 * deng.cfg.coverage.depth_factor
               if hasattr(deng.cfg.coverage, "depth_factor") else None)
        # poison every memo entry for this engine with an off-by-one level
        for k, v in list(deng._level_memo.items()):
            deng._level_memo[k] = max(1, v - 1) if v > 1 else v + 1
        got = [(h.doc_key, round(h.score, 6), h.tiebreaker)
               for h in deng.search(q, top_k=10)]
        ref = [(h.doc_key, round(h.score, 6), h.tiebreaker)
               for h in eng.search(q, top_k=10)]
        assert got == ref, f"corrective round broke rank identity for {q!r}"


def test_coverage_tables_hold_no_state_across_queries(dist_pair, minicorpus, tmp_path):
    """The coverage relation tables live for one candidate-scoring call:
    on fresh engines panel A then B gives the same results as B then A,
    and the CoverageContext the distributed driver ships to the shards
    carries only the query's own fields."""
    import dataclasses
    import pickle

    from infidex_ray.query.coverage import CoverageContext

    panel_a = ["quick brown fox", "qick fux", "battamam", "fox", "wonder"]
    panel_b = ["brown quick", "quickly fox", "batman robin", "speeds", "new york"]
    build_index_local(minicorpus, str(tmp_path / "idx"), n_segments=2)

    def run(panels):
        eng = Engine.load(str(tmp_path / "idx"))
        return {
            q: [(h.doc_key, h.score, h.tiebreaker) for h in eng.search(q, top_k=10)]
            for panel in panels
            for q in panel
        }

    assert run([panel_a, panel_b]) == run([panel_b, panel_a])

    _, deng = dist_pair
    fields = {f.name for f in dataclasses.fields(CoverageContext)}
    for q in panel_a:
        deng.search(q, top_k=10)
        q_cached, ctx = deng._ctx_cache
        for c in (ctx, pickle.loads(pickle.dumps(ctx))):
            assert set(vars(c)) == fields, sorted(vars(c))
            assert c.query == q_cached


def test_short_query_no_fuzzy_branch_identity(ray_session, tmp_path_factory):
    """Short queries over a corpus with >= FUZZY_FALLBACK_DOC_LIMIT matches
    take the no-fuzzy branch of the fused sq_phase1 protocol — the driver
    must then use the PREFIX snapshot/max, identical to the in-process
    gate (ShortQuery fallback limit, reference :221)."""
    from infidex_ray.query.executor import DistributedEngine
    from infidex_ray.query.shortquery import FUZZY_FALLBACK_DOC_LIMIT

    n = FUZZY_FALLBACK_DOC_LIMIT + 40
    docs = [(k, f"theme park number {k} with thick thorny thistles") for k in range(n)]
    docs += [(n + 1, "zebra yard"), (n + 2, "xylophone quartz")]
    out = tmp_path_factory.mktemp("sq_nofuzzy")
    build_index_local(docs, str(out), n_segments=4)
    eng = Engine.load(str(out))
    deng = DistributedEngine.connect(str(out), num_shards=2)
    try:
        for q in ("th", "the", "zeb", "x", "qz"):
            a = [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in eng.search(q, top_k=10)]
            b = [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in deng.search(q, top_k=10)]
            assert a == b, q
    finally:
        deng.shutdown()


def test_short_query_state_dropped_after_failed_query(dist_pair, monkeypatch):
    """A short query that fails between ``sq_phase1`` and ``sq_final``
    leaves its per-qid state on every shard; the engine's next short query
    drops it, so repeated failures do not grow the state."""
    import ray

    from infidex_ray import analyzer

    eng, deng = dist_pair

    def states():
        return ray.get([a.__ray_call__.remote(lambda self: len(self._sq_state)) for a in deng.actors])

    def fail(*_a):
        raise RuntimeError("between the rounds")

    with monkeypatch.context() as m:
        m.setattr(analyzer, "_word_splitter", fail)  # read after sq_phase1
        for q in ("th", "qu", "sp"):
            with pytest.raises(RuntimeError, match="between the rounds"):
                deng.search(q, top_k=5)
            assert states() == [1] * len(deng.actors), q
    b = [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in deng.search("th", top_k=5)]
    assert b == [(h.doc_key, round(h.score, 6), h.tiebreaker) for h in eng.search("th", top_k=5)]
    assert states() == [0] * len(deng.actors)


def _counting_top_ups(monkeypatch, cls):
    """Record the shard of each call ``cls._coverage_top_up`` makes (one
    ``run_jobs`` per shard on the distributed engine)."""
    calls = []
    top_up = cls._coverage_top_up

    def counting(self, ctx, jobs_by_shard, *rest):
        calls.extend(jobs_by_shard)
        return top_up(self, ctx, jobs_by_shard, *rest)

    monkeypatch.setattr(cls, "_coverage_top_up", counting)
    return calls


# Stage 1 returns 10 docs for these queries, and the word matcher ~200 more
# ("harbor" is in the first 200 docs, so in segments 0 and 1 of 4).
_ROUNDS_PANEL = ["harbor zephyr", "zephyr quartz harbor", "harbr zephyr", "quartz harbors"]


@pytest.fixture(scope="module")
def rounds_index(tmp_path_factory):
    import random

    rng = random.Random(3)
    filler = ["lorem", "ipsum", "dolor", "amet", "sit", "magna", "porta", "velit"]
    docs = []
    for k in range(400):
        words = [rng.choice(filler) for _ in range(6)]
        if k < 200:
            words.append("harbor")
        if k % 40 == 0:
            words += ["zephyr", "quartz"]
        docs.append((k, " ".join(words)))
    idx = str(tmp_path_factory.mktemp("rounds"))
    build_index_local(docs, idx, n_segments=4)
    return idx


def test_fused_coverage_under_speculation_identity(dist_pair, rounds_index, monkeypatch):
    """Force the speculative unique budget to 0 and 1, and shard 0's
    certain unique prefix to 0, so the fused path's corrective second round
    (missing allowed-unique jobs) runs — results must stay identical to the
    in-process engine."""
    from infidex_ray.query.executor import DistributedEngine

    round_ = DistributedEngine._coverage_round

    def no_sure(self, ctx, s1_jobs, cap, spec_budget, sure, *rest):
        return round_(self, ctx, s1_jobs, cap, spec_budget, 0, *rest)

    monkeypatch.setattr(DistributedEngine, "_coverage_round", no_sure)
    calls = _counting_top_ups(monkeypatch, DistributedEngine)
    rounds = Engine.load(rounds_index), DistributedEngine.connect(
        rounds_index, num_shards=2, num_cpus_per_actor=0.5
    )
    try:
        for budget in (0, 1):
            monkeypatch.setattr(DistributedEngine, "SPEC_UNIQUE_BUDGET", budget)
            calls.clear()
            for (eng, deng), queries in ((dist_pair, QUERIES), (rounds, _ROUNDS_PANEL)):
                for q in queries:
                    a = [(h.doc_key, round(h.score, 6), h.tiebreaker)
                         for h in eng.search(q, top_k=10)]
                    b = [(h.doc_key, round(h.score, 6), h.tiebreaker)
                         for h in deng.search(q, top_k=10)]
                    assert a == b, (budget, q)
            assert calls, budget  # the top-up ran
    finally:
        rounds[1].shutdown()


def test_coverage_round_count(ray_session, rounds_index, monkeypatch):
    """On a corpus where stage 1 returns fewer than coverage_depth hits and
    the word matcher finds many more docs, a query of 255 characters or
    less with 2 or more stage-1 docs makes exactly one ``run_jobs`` call,
    on shard 0, iff shard 0 holds fewer than ``top_k`` stage-1 keys and all
    shards at least ``top_k`` (its unique candidates then wait for the
    cross-shard k-th best), and none otherwise: shard 0 scores its certain
    unique candidates in the first round. In-process there is no second
    ``process_candidates`` call, and the hits equal ``Engine.search`` at
    1, 2 and 3 shards. The unique candidates sit in segments 0 and 1, so on
    shard 0 at every shard count, and are more than the speculative budget.
    Each panel query holds 10 stage-1 keys, 5 of them on shard 0 at 2 and
    3 shards, so top_k 5, 10 and 11 reach both branches."""
    from infidex_ray.query import pipeline as qp
    from infidex_ray.query.executor import DistributedEngine

    eng = Engine.load(rounds_index)
    depth = eng.cfg.coverage_depth
    s1_keys = {}
    for q in _ROUNDS_PANEL:
        norm, tfidf = eng.prep_query(q)
        top = eng.stage1(tfidf, depth)
        assert 2 <= len({e[1] for e in top}) and len(top) < depth and len(norm) <= 255, q
        s1_keys[q] = [(e[3], e[1]) for e in top]
        lids: dict = {}
        for e in top:
            lids.setdefault(e[3], []).append(e[4])
        _n, _ov, unique = qp.wm_scan(eng, norm, lids, depth)
        assert len(unique) > DistributedEngine.SPEC_UNIQUE_BUDGET, q
        assert {si for si, _, _ in unique} <= {0, 1}, q

    top_ks = (5, 10, 11)
    local_calls = _counting_top_ups(monkeypatch, Engine)
    want = {
        (q, k): [(h.doc_key, h.score, h.tiebreaker) for h in eng.search(q, top_k=k)]
        for q in _ROUNDS_PANEL for k in top_ks
    }
    assert not local_calls and all(want.values())
    calls = _counting_top_ups(monkeypatch, DistributedEngine)
    branches = set()
    for n in (1, 2, 3):
        deng = DistributedEngine.connect(rounds_index, num_shards=n, num_cpus_per_actor=0.5)
        try:
            for q in _ROUNDS_PANEL:
                keys = {key for _, key in s1_keys[q]}
                shard0 = {key for si, key in s1_keys[q] if deng._shard_of(si) == 0}
                for k in top_ks:
                    calls.clear()
                    got = [(h.doc_key, h.score, h.tiebreaker) for h in deng.search(q, top_k=k)]
                    assert got == want[q, k], (n, q, k)
                    cross = len(shard0) < k <= len(keys)
                    branches.add(cross)
                    assert calls == ([0] if cross else []), (n, q, k)
        finally:
            deng.shutdown()
    assert branches == {True, False}


def test_shard_actor_restart_mid_serving(dist_pair):
    """A killed shard restarts (max_restarts=-1), reloads its slice from
    disk, and the driver's one-shot retry makes the next search identical."""
    import ray

    _, deng = dist_pair
    before = {
        q: [(h.doc_key, round(h.score, 6)) for h in deng.search(q, top_k=10)]
        for q in QUERIES
    }
    ray.kill(deng.actors[0], no_restart=False)
    after = {
        q: [(h.doc_key, round(h.score, 6)) for h in deng.search(q, top_k=10)]
        for q in QUERIES
    }
    assert after == before


def test_distributed_query_api_parity(ray_session, tmp_path_factory):
    """The Query API (filter/boosts/sort/facets) runs on the distributed
    engine via one batched field_rows fan-out and matches the in-process
    engine result-for-result."""
    import pytest

    from infidex_ray.engine import Query

    movies = [
        (1, "The Matrix", {"genre": "Sci-Fi", "year": 1999}),
        (2, "The Matrix Reloaded", {"genre": "Sci-Fi", "year": 2003}),
        (3, "The Matrix Revolutions", {"genre": "Sci-Fi", "year": 2003}),
        (4, "The Match", {"genre": "Drama", "year": 2021}),
        (5, "Matriarch Rising", {"genre": "Horror", "year": 2018}),
    ]
    out = tmp_path_factory.mktemp("dist_field_idx")
    build_index_local(
        [(k, t) for k, t, _ in movies], str(out), n_segments=2,
        fields=[f for _, _, f in movies],
    )
    from infidex_ray.query.executor import DistributedEngine

    eng = Engine.load(str(out))
    deng = DistributedEngine.connect(str(out), num_shards=2)
    panels = [
        Query("matrix", max_results=10, filter="year >= 2000"),
        Query("matrix", max_results=10, filter="genre = 'Sci-Fi'"),
        Query("matrix", max_results=10, boosts=(("year >= 2003 AND year <= 2003", 3),)),
        Query("matrix", max_results=10, sort_by="year"),
        Query("matrix", max_results=10, sort_by="year", sort_ascending=False),
        Query("matrix", max_results=10, enable_facets=True),
        Query("matrix", max_results=2, filter="year >= 2000", enable_facets=True),
    ]
    try:
        for q in panels:
            a, b = eng.query(q), deng.query(q)
            assert [(h.doc_key, round(h.score, 6)) for h in a.records] == [
                (h.doc_key, round(h.score, 6)) for h in b.records
            ], q
            assert a.facets == b.facets, q
            assert a.total_candidates == b.total_candidates, q

        # match-all facets are refused with a pointer at the offline path
        with pytest.raises(ValueError):
            deng.query(Query("", max_results=10, enable_facets=True))
    finally:
        deng.shutdown()


def test_minimal_profile_rank_identity_distributed(ray_session, tmp_path):
    """enable_coverage persists in the manifest: a CreateMinimal-profile
    index (coverage off) serves rank-identically from the actor pool."""
    import dataclasses

    import ray.data

    from infidex_ray import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.query.executor import DistributedEngine

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    cfg = dataclasses.replace(
        EngineConfig.minimal(), target_docs_per_segment=200
    )
    idx = str(tmp_path / "minidx")
    eng = Engine.build(ds, idx, cfg, text_column="text", key_column="doc_id")
    deng = DistributedEngine.connect(idx, num_shards=2)
    try:
        for q in ("fast column table", "fsat colunm", "merge"):
            a = [(h.doc_key, h.score, h.tiebreaker) for h in eng.search(q, top_k=10)]
            b = [(h.doc_key, h.score, h.tiebreaker) for h in deng.search(q, top_k=10)]
            assert a == b
    finally:
        deng.shutdown()


def test_distributed_get_document_and_statistics(ray_session, tmp_path):
    """GetDocument/GetDocuments/GetStatistics work on the distributed engine
    (not just after a query's prefetch) and match the in-process engine."""
    import ray.data

    from infidex_ray import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.query.executor import DistributedEngine

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    idx = str(tmp_path / "gdidx")
    eng = Engine.build(
        ds, idx, EngineConfig(target_docs_per_segment=100),
        text_column="text", key_column="doc_id", store_columns=("lang",),
    )
    # 0.5-CPU actors: 3 shards must fit the 4-CPU test session even while
    # the module-scoped dist_pair fixture holds its 2 actor-CPUs
    deng = DistributedEngine.connect(idx, num_shards=3, num_cpus_per_actor=0.5)
    try:
        assert deng.get_document(7) == eng.get_document(7)
        assert deng.get_document(10**9) is None
        assert len(deng.get_documents([1, 2, 10**9])) == 2
        a, b = eng.get_statistics(), deng.get_statistics()
        assert (a.document_count, a.vocabulary_size) == (
            b.document_count,
            b.vocabulary_size,
        )
        assert a.document_count == 500
    finally:
        deng.shutdown()


def test_full_page_coverage_rank_identity(ray_session, tmp_path):
    """On a corpus whose stage-1 page is FULL, the fused coverage round runs
    with no speculative unique budget (spec_budget = 0): the distributed
    engine must match the in-process engine on (doc, score) for clean,
    typo, and repeated queries."""
    import ray.data

    from infidex_ray.build import build_index
    from infidex_ray.config import EngineConfig
    from infidex_ray.query.executor import DistributedEngine

    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"]
    rows = []
    for k in range(700):
        body = " ".join(words[(k + j) % len(words)] for j in range(9))
        rows.append(
            {"doc_id": k, "text": f"shared corpus {body} tail{k % 13} u{k}"}
        )
    out = str(tmp_path / "idxfullpage")
    cfg = EngineConfig(target_docs_per_segment=200, coverage_depth=500)
    build_index(
        ray.data.from_items(rows), out, cfg,
        text_column="text", key_column="doc_id",
    )
    eng = Engine.load(out)
    deng = DistributedEngine.connect(out, num_shards=2, warm=False)
    try:
        full_pages = {"n": 0}
        orig = deng._coverage_stage

        def counting(q, s1, cd, tk, deadline=None):
            full_pages["n"] += len(s1) >= cd
            return orig(q, s1, cd, tk, deadline)

        deng._coverage_stage = counting
        panel = [
            "shared corpus", "alpha beta gamma", "corpus omega",
            "shraed corpus",  # typo → fuzzy terms
            "alpha beta gamma",  # repeat (warm level memo)
        ]
        for q in panel:
            a = [(h.doc_key, h.score) for h in eng.search(q, top_k=10)]
            b = [(h.doc_key, h.score) for h in deng.search(q, top_k=10)]
            assert a == b, f"query {q!r}: {a[:4]} != {b[:4]}"
        assert full_pages["n"] >= 3  # the full-page fused round actually ran
    finally:
        deng.shutdown()


# ---------------------------------------------------------------------------
# One coverage round: the cases the round must handle exactly, compared with
# the reference job order (SearchPipeline.ExecuteCoverageStage: overlapping,
# unique, stage-1 jobs in ONE memo) on the final hits AND on every scored job.

# one 280-char token; doc 100's first chunk holds only a 203-char prefix of
# it (twice), so its LCS with the query is 259 > 255, while its later chunks
# hold the whole token and are wm-only candidates of a memo-slot doc
_LONG = "zebulon" * 40


def _coverage_case(case, mini):
    """(docs, build cfg, query cfg, queries) per case."""
    from dataclasses import replace

    from infidex_ray.autosegment import AutoSegmentSetup
    from infidex_ray.config import EngineConfig

    base = EngineConfig()
    panel = ["quick fox", "batman", "the forest", "new york city", "qick fux"]
    if case == "prescreen":
        cov = replace(base.coverage, enable_lexical_prescreen=True)
        return mini, base, replace(base, coverage=cov), panel + ["the fox", "not gold"]
    if case == "no_word_matcher":
        return mini, base, replace(base, enable_word_matcher=False), panel
    if case == "few_stage1_hits":
        # stop_term_limit 1 drops every gram shared by two docs from the
        # stage-1 plan: 0 or 1 stage-1 hits, wm-only docs in the memo slots
        cfg = EngineConfig(stop_term_limit=1)
        return mini, cfg, cfg, ["the fox", "the city", "the forest", "new city", "the speeding"]
    assert case == "long_query"
    w = _LONG[:203]
    docs = mini[:4] + [
        (100, " ".join([w, w, "lorem", _LONG + "ia", "ipsum", _LONG + "ia", "dolor", _LONG + "ia"])),
        (101, _LONG[:100] + " quartz"),
        (102, "the zebulon"),
    ]
    cfg = EngineConfig(auto_segment=AutoSegmentSetup(target_segment_size=420))
    return docs, cfg, cfg, [_LONG, _LONG[:270], "zebulon " + _LONG]


def _rank(r):
    """A scored job's rank tuple, the order ``finalize_coverage`` sorts by."""
    return r[0], r[2], -r[1]


def _check_pruned(results, w_results, top_k, where):
    """The scored jobs ``results`` of a pruned run against ``w_results`` of
    a run that scored every job, in the rank order ``(score, tiebreaker,
    -key)``: identical at or above the final θ (the ``top_k``-th best
    distinct-key tuple), and every job left out ranks strictly below θ.
    Returns how many skipped jobs tie θ's score."""
    from collections import Counter

    from infidex_ray.query import pipeline as qp

    top = qp.KthBest(top_k)
    for r in w_results:
        top.add(r[0], r[2], r[1])
    theta = top.theta
    assert [r for r in results if _rank(r) >= theta] == [
        r for r in w_results if _rank(r) >= theta
    ], where
    assert not Counter(results) - Counter(w_results), where
    skipped = list((Counter(w_results) - Counter(results)).elements())
    assert all(_rank(r) < theta for r in skipped), where
    return sum(r[0] == theta[0] for r in skipped)


def test_kth_best_rank_tuple_order():
    """``KthBest`` holds the k-th best ``(score, tiebreaker, -key)`` over
    distinct keys, each key at its best tuple: equal scores order by
    tiebreaker, then by the smaller key; a key's better tuple supersedes
    its old one and a worse one is ignored; a floor holds until the k-th
    best passes it; fewer than k keys give the floor; k < 1 keeps nothing.
    Random sequences agree with sorting every key's best tuple."""
    import random

    from infidex_ray.query import pipeline as qp

    top = qp.KthBest(2)
    top.add(5.0, 0, 7)
    assert top.theta == qp.NO_THETA  # one key, k = 2
    top.add(5.0, 0, 9)
    assert top.theta == (5.0, 0, -9)  # a tie in score and tiebreaker: key 9 ranks lower
    top.add(5.0, 0, 3)
    assert top.theta == (5.0, 0, -7)
    top.add(5.0, 10, 9)  # key 9 superseded by a higher tiebreaker
    assert top.theta == (5.0, 0, -3)
    top.add(4.0, 255, 9)  # a worse tuple of a kept key
    assert top.theta == (5.0, 0, -3)
    top.add(6.0, 0, 7)  # key 7 superseded, key 3 drops out
    assert top.theta == (5.0, 10, -9)

    floor = qp.KthBest(2, (5.0, 5, -1))
    floor.add(9.0, 0, 2)
    floor.add(5.0, 0, 1)
    assert floor.theta == (5.0, 5, -1)
    floor.add(5.0, 6, 3)
    assert floor.theta == (5.0, 6, -3)
    assert qp.KthBest(3, (1.0, 0, -4)).theta == (1.0, 0, -4)
    none = qp.KthBest(0)
    none.add(1.0, 0, 1)
    assert none.theta == qp.NO_THETA

    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 5)
        top = qp.KthBest(k)
        best: dict = {}
        for _ in range(rng.randint(0, 12)):
            score, tb, key = rng.choice((1.0, 2.0, 2.5)), rng.randint(0, 2), rng.randint(1, 6)
            top.add(score, tb, key)
            best[key] = max(best.get(key, (score, tb, -key)), (score, tb, -key))
            ranked = sorted(best.values(), reverse=True)
            assert top.theta == (ranked[k - 1] if len(ranked) >= k else qp.NO_THETA)

    results = [(2.0, 4, 0, 0), (2.0, 3, 0, 0), (1.0, 5, 9, 0)]
    assert qp.kth_best(results, 2) == qp.NO_THETA  # no word hits
    results.append((0.5, 6, 0, 1))
    assert qp.kth_best(results, 2) == (2.0, 0, -4)
    assert qp.kth_best(results, 5) == qp.NO_THETA


def _reference_coverage(eng, text, top_k=10):
    """Engine.search for a long-word query, its coverage stage written as
    one process_candidates call over the reference job order."""
    from infidex_ray.query import pipeline as qp
    from infidex_ray.query.coverage import prepare_query

    cfg = eng.cfg
    q, tfidf_query = eng.prep_query(text)
    depth = cfg.coverage_depth
    s1_results = eng.stage1(tfidf_query, depth)
    top = s1_results[:depth]
    if cfg.coverage.enable_lexical_prescreen and top:
        top = qp.lexical_prescreen(eng, q, top)
    lids: dict = {}
    for e in top:
        lids.setdefault(e[3], []).append(e[4])
    n_wm, ov, un = (0, [], [])
    if cfg.enable_word_matcher:
        n_wm, ov, un = qp.wm_scan(eng, q, lids, depth)
    un = un[: max(0, depth - len(ov))]
    doc_index: dict = {}
    for e in top:
        doc_index.setdefault(e[1], len(doc_index))
    for _si, _lid, key in sorted(ov + un, key=lambda t: (t[0], t[1])):
        doc_index.setdefault(key, len(doc_index))
    best_chunk: dict = {}
    for e in top:
        best_chunk.setdefault(e[1], (e[3], e[4]))
    mx = top[0][0] if top else 1.0
    jobs = [(si, lid, 0.0, doc_index[key]) for si, lid, key in ov + un]
    jobs += [(e[3], e[4], e[0] / mx if mx > 0 else 0.0, doc_index[e[1]]) for e in top]
    ctx = prepare_query(
        q, cfg.coverage.min_word_size, frozenset(cfg.delimiters), cfg.index_sizes,
        eng.df_lookup, eng.word_df, eng.total_docs, cfg.stop_term_limit,
    )
    results, memo = qp.process_candidates(eng, ctx, jobs, best_chunk)
    final = qp.finalize_coverage(
        cfg.coverage, results, memo, doc_index, n_wm, depth, top_k
    )
    return eng._to_hits(final if final is not None else s1_results[:top_k])


@pytest.mark.parametrize(
    "case", ["prescreen", "no_word_matcher", "few_stage1_hits", "long_query"]
)
def test_coverage_round_cases_match_reference(
    ray_session, minicorpus, tmp_path, monkeypatch, case
):
    """Each case the coverage round once left to a separate 3-round path —
    lexical prescreen, no word matcher, fewer than 2 stage-1 hits, a query
    over 255 characters — gives the reference's (doc, score, tiebreaker)
    in-process and at 1, 2 and 3 shards, and the driver finalizes the same
    memo and candidate index. The reference scores every job; the engine
    may prune, so its scored jobs must equal the reference's at or above
    the final θ (the 10th best distinct-key rank tuple), and every job it
    skipped must rank strictly below θ in the reference."""
    from infidex_ray.query import pipeline as qp
    from infidex_ray.query.executor import DistributedEngine

    docs, build_cfg, cfg, queries = _coverage_case(case, minicorpus)
    idx = str(tmp_path / case)
    build_index_local(docs, idx, build_cfg, n_segments=4)
    eng = Engine.load(idx, cfg)

    finalized = []
    finalize = qp.finalize_coverage

    def spy(setup, results, memo, doc_index, *rest):
        finalized.append((sorted(results), memo, doc_index))
        return finalize(setup, results, memo, doc_index, *rest)

    monkeypatch.setattr(qp, "finalize_coverage", spy)

    def run(search, q):
        finalized.clear()
        hits = [(h.doc_key, h.score, h.tiebreaker) for h in search(q)]
        assert len(finalized) == 1, q
        return hits, finalized[0]

    def check(got, want, where):
        (hits, (results, memo, doc_index)), (w_hits, (w_results, w_memo, w_index)) = got, want
        assert (hits, memo, doc_index) == (w_hits, w_memo, w_index), where
        _check_pruned(results, w_results, 10, where)

    want = {q: run(lambda q: _reference_coverage(eng, q), q) for q in queries}
    # the panel exercises its case
    tops = {q: eng.stage1(eng.prep_query(q)[1], cfg.coverage_depth) for q in queries}
    if case == "prescreen":
        assert any(len(qp.lexical_prescreen(eng, q, t)) < len(t) for q, t in tops.items())
    elif case == "few_stage1_hits":
        assert {len(t) for t in tops.values()} == {0, 1}
        assert all(len(want[q][1][2]) >= 2 for q in queries)
    elif case == "long_query":
        assert all(len(q) > 255 for q in queries)
        # doc 100 (several chunks) holds a memo slot
        assert any(want[q][1][2][100] < qp.MEMO_HEIGHT for q in queries)

    for q in queries:
        check(run(lambda q: eng.search(q, top_k=10), q), want[q], q)
    for n in (1, 2, 3):
        deng = DistributedEngine.connect(
            idx, num_shards=n, cfg=cfg, num_cpus_per_actor=0.5
        )
        try:
            for q in queries:
                check(run(lambda q: deng.search(q, top_k=10), q), want[q], (n, q))
        finally:
            deng.shutdown()


# ---------------------------------------------------------------------------
# Rank-safe coverage pruning: the same hits as scoring every candidate.

_PRUNE_WORDS = (
    "alpha", "beta", "gamma", "delta", "omega", "sigma",
    "kappa", "lambda", "theta", "zeta", "tau", "rho",
)
_PRUNE_DELETED = (2, 5, 11, 19)
# four words the corpus lacks plus two it has: every hit matches two of six
# terms, so the 10th score is under truncation_score, and the planted docs
# made of the two words alone score above 1 (a perfect-doc tier)
_PRUNE_LOW_QUERY = "qqxz wwvy jjkp vvmo alpha beta"
_PRUNE_LONG_QUERY = " ".join(["alpha beta gamma"] * 20)  # over 255 characters


def _pruning_corpus():
    import random

    rng = random.Random(7)
    docs = [
        (k, " ".join(rng.choice(_PRUNE_WORDS) for _ in range(rng.randint(3, 8))))
        for k in range(1, 241)
    ]
    docs += [(300 + k, " ".join(["alpha", "beta"][(k + j) % 2] for j in range(3 + k % 3)))
             for k in range(16)]
    # one key of ~45 chunks: more entries than a coverage_depth of 16
    docs.append((1000, " ".join(f"zulu yankee filler{j}" for j in range(300))))
    # the same two words padded with delimiters, longest text at the lowest
    # key: every doc scores the same on "yodel xylo", so the top k goes by
    # tiebreaker (shorter text first), the opposite of the key order
    docs += [(500 + k, "yodel" + " -" * (30 - k) + " xylo") for k in range(30)]
    return docs


def test_coverage_pruning_matches_unpruned(ray_session, tmp_path, monkeypatch):
    """Coverage pruning skips candidates whose score bound is below the
    running k-th best score. Against the unpruned run (every bound +inf,
    no job skipped), in-process, at 1, 2 and 3 shards and through
    batch_search: the hits are equal on (doc, score, tiebreaker), the
    driver finalizes the same memo and candidate index, and every job
    pruning skipped ranks below the final θ in the rank order (score,
    tiebreaker, -key). The panel reaches each edge of the rule: a 10th score
    under truncation_score (no pruning unless truncation is off),
    truncation off, a query over 255 characters, a multi-chunk key with
    more entries than coverage_depth, tombstones, a one-term query whose
    docs tie θ's score at the semantic clamp (tiebreaker 0), where pruning
    skips tied docs by key, and a two-term query whose top k ties in score
    and goes by tiebreaker against the key order."""
    from dataclasses import replace

    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.autosegment import AutoSegmentSetup
    from infidex_ray.config import EngineConfig
    from infidex_ray.ops.batchsearch import batch_search
    from infidex_ray.query import coverage as cov
    from infidex_ray.query import pipeline as qp
    from infidex_ray.query.executor import DistributedEngine

    idx = str(tmp_path / "prune")
    chunked = EngineConfig(auto_segment=AutoSegmentSetup(target_segment_size=200))
    build_index_local(_pruning_corpus(), idx, chunked, n_segments=4)
    Engine.load(idx).delete_documents(_PRUNE_DELETED)
    base = Engine.load(idx).cfg  # the manifest config batch_search serves with
    cfgs = {
        "default": base,
        "no_truncate": replace(base, coverage=replace(base.coverage, truncate=False)),
        "shallow": replace(base, coverage_depth=16),
    }
    panel = [
        "alpha beta", "gamma delta omega", "alpah beta", "sigma", "kappa lambda theta zeta",
        "tau rho", "zulu yankee", _PRUNE_LOW_QUERY, _PRUNE_LONG_QUERY,
        # memo-slot docs (the first two stage-1 hits) under θ
        "tau sigma", "kappa gamma beta",
        # one term: the exact matches tie at the clamp
        "omega",
        # two terms: a tie in score broken by tiebreaker
        "yodel xylo",
    ]

    finalized = []
    finalize = qp.finalize_coverage

    def spy(setup, results, memo, doc_index, *rest):
        finalized.append((sorted(results), memo, doc_index))
        return finalize(setup, results, memo, doc_index, *rest)

    monkeypatch.setattr(qp, "finalize_coverage", spy)

    def run(search, name):
        out = {}
        for q in panel:
            for k in (1, 3, 10):
                finalized.clear()
                out[name, q, k] = [
                    (h.doc_key, h.score, h.tiebreaker) for h in search(q, top_k=k)
                ], list(finalized)
        return out

    tied: dict = {}  # skipped jobs that tie θ's score

    def check(got, want):
        tied.clear()
        for key, (hits, finals) in got.items():
            w_hits, w_finals = want[key]
            assert hits == w_hits, key
            assert len(finals) == len(w_finals), key
            for (results, memo, doc_index), (w_results, w_memo, w_index) in zip(finals, w_finals):
                assert (memo, doc_index) == (w_memo, w_index), key
                tied[key] = _check_pruned(results, w_results, key[2], key)

    # in-process, counting the jobs pruning skipped
    skipped: dict = {}
    process = qp.process_candidates

    def counting(engine, ctx, jobs, *rest):
        results, memo = process(engine, ctx, jobs, *rest)
        skipped[ctx.query] = skipped.get(ctx.query, 0) + results.count(None)
        return results, memo

    local = {name: Engine.load(idx, cfg) for name, cfg in cfgs.items()}
    want = {}
    with monkeypatch.context() as m:
        m.setattr(cov, "score_bounds", lambda rel, table, lids, *a: np.full(len(lids), np.inf))
        m.setattr(qp, "process_candidates", counting)
        for name, eng in local.items():
            want.update(run(eng.search, name))
    assert skipped and not any(skipped.values())  # the oracle run pruned nothing

    # the panel reaches the rule's edges
    low = want["no_truncate", _PRUNE_LOW_QUERY, 10][0]
    assert len(low) == 10 and low[-1][1] < base.coverage.truncation_score
    assert len(_PRUNE_LONG_QUERY) > 255
    shallow = want["shallow", "zulu yankee", 10]
    assert shallow[0][0][0] == 1000
    assert sum(r[1] == 1000 for r in shallow[1][0][0]) > cfgs["shallow"].coverage_depth
    assert not {h[0] for v in want.values() for h in v[0]} & set(_PRUNE_DELETED)
    tied_top = want["default", "yodel xylo", 10][0]
    assert len({h[1] for h in tied_top}) == 1 and len({h[2] for h in tied_top}) == 10

    monkeypatch.setattr(qp, "process_candidates", counting)
    for name, eng in local.items():
        skipped.clear()
        check(run(eng.search, name), want)
        assert skipped["alpha beta"] > 0, name
        assert skipped[_PRUNE_LONG_QUERY] == 0, name
        # a 10th score under truncation_score prunes only without truncation
        assert (skipped[_PRUNE_LOW_QUERY] > 0) == (name == "no_truncate"), name
        assert tied[name, "omega", 10] > 0, name
    monkeypatch.setattr(qp, "process_candidates", process)

    for n in (1, 2, 3):
        for name, cfg in cfgs.items():
            deng = DistributedEngine.connect(idx, num_shards=n, cfg=cfg, num_cpus_per_actor=0.5)
            try:
                check(run(deng.search, name), want)
            finally:
                deng.shutdown()

    out = batch_search(
        ray.data.from_arrow(pa.table({"query": panel})), idx, top_k=10,
        enable_coverage=True, concurrency=(1, 1),
    ).to_pandas()
    for q in panel:
        rows = out[out["query"] == q].sort_values("rank")
        assert list(zip(rows["doc_id"], rows["score"])) == [
            (key, score) for key, score, _ in want["default", q, 10][0]
        ], q


def test_connect_config_reaches_every_shard(ray_session, tmp_path):
    """The driver takes the manifest's synonyms, and the shards serve with
    the caller's config: both must match the in-process engine."""
    from dataclasses import replace

    from infidex_ray.config import EngineConfig
    from infidex_ray.query.executor import DistributedEngine

    docs = [
        (1, "car show tickets on sale"),
        (2, "automobile show in the city hall"),
        (3, "vintage car auction"),
        (4, "the automobile club meeting"),
        (5, "boat show downtown"),
        (6, "show me the money"),
    ]
    idx = str(tmp_path / "syn")
    build_index_local(
        docs, idx, EngineConfig(synonyms=(("car", "automobile"),)), n_segments=2
    )
    base = Engine.load(idx).cfg
    cfgs = [
        None,
        replace(
            base,
            enable_word_matcher=False,
            coverage=replace(base.coverage, cover_whole_words=False),
        ),
    ]
    for cfg in cfgs:
        eng = Engine.load(idx, cfg)
        deng = DistributedEngine.connect(
            idx, num_shards=2, cfg=cfg, num_cpus_per_actor=0.5
        )
        try:
            for q in ("automobile show", "car show", "automobil shw"):
                a = [(h.doc_key, h.score, h.tiebreaker) for h in eng.search(q, top_k=10)]
                b = [(h.doc_key, h.score, h.tiebreaker) for h in deng.search(q, top_k=10)]
                assert a == b, (cfg is None, q, a, b)
        finally:
            deng.shutdown()

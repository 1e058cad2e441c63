"""link_prediction / state_durations / period_compare / benford_deviation /
constraint_check / ngram_diversity — brute-force double-entry plus the
edge cases the contract corpus can't plant (NULLs, hub caps, duplicate
keys, empty inputs, exotic whitespace)."""

import numpy as np
import pyarrow as pa
import pytest


def _duck():
    import duckdb

    return duckdb.connect()


def _df(ds):
    return ds.to_pandas()


# --------------------------------------------------------------- graphs


@pytest.fixture(scope="module")
def star_plus_path(ray_session):
    """Hub 0 — leaves 1..9; path 10-11-12; leaves share ONLY the hub."""
    import ray.data

    edges = [(0, i) for i in range(1, 10)] + [(10, 11), (11, 12)]
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
    )


def test_link_prediction_basic(star_plus_path):
    from infidex_ray.ops.graph import link_prediction

    out = _df(link_prediction(star_plus_path, min_cn=1)).sort_values(
        ["u", "v"]
    )
    rows = {(r.u, r.v): r for r in out.itertuples(index=False)}
    # all leaf pairs share exactly the hub; path ends share node 11
    assert (1, 2) in rows and rows[(1, 2)].common_neighbors == 1
    assert rows[(1, 2)].pref_attach == 1  # deg 1 * deg 1
    assert rows[(1, 2)].jaccard == 1.0  # 1 / (1 + 1 - 1)
    assert (10, 12) in rows and rows[(10, 12)].common_neighbors == 1
    # existing edges are excluded
    assert (0, 1) not in rows and (10, 11) not in rows
    assert len(out) == 9 * 8 // 2 + 1


def test_link_prediction_hub_cap(star_plus_path):
    """Capping out the hub removes every leaf-pair wedge, keeping only the
    path wedge (its apex has degree 2)."""
    from infidex_ray.ops.graph import link_prediction

    out = _df(
        link_prediction(star_plus_path, min_cn=1, max_center_degree=2)
    )
    assert sorted(map(tuple, out[["u", "v"]].values.tolist())) == [[10, 12]] or \
        sorted(map(tuple, out[["u", "v"]].values.tolist())) == [(10, 12)]


def test_link_prediction_empty(ray_session):
    import ray.data

    from infidex_ray.ops.graph import link_prediction

    ds = ray.data.from_arrow(
        pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
    )
    assert _df(link_prediction(ds)).empty


# --------------------------------------------------------------- windows


@pytest.fixture(scope="module")
def tiny_events(ray_session):
    import ray.data

    rows = [
        # user 1: a(0) -> b(10) -> a(25) -> end
        (1, 1, 0, "a"),
        (2, 1, 10_000_000, "b"),
        (3, 1, 25_000_000, "a"),
        # user 2: single event — no transitions
        (4, 2, 5_000_000, "a"),
        # user 3: simultaneous ts, id tiebreak
        (5, 3, 0, "x"),
        (6, 3, 0, "y"),
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "ts": pa.array(
                    [r[2] for r in rows], pa.timestamp("us")
                ),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
            }
        )
    )


def test_state_durations_basic(tiny_events):
    from infidex_ray.ops.windows import state_durations

    out = _df(state_durations(tiny_events))
    got = {
        (r.user_id, r.event_type): (r.total_us, r.n_transitions)
        for r in out.itertuples(index=False)
    }
    assert got[(1, "a")] == (10_000_000, 1)  # last 'a' is open -> dropped
    assert got[(1, "b")] == (15_000_000, 1)
    assert (2, "a") not in got
    # ts tie: order by (ts, event_id) -> x lasts 0us, y is last
    assert got[(3, "x")] == (0, 1)
    assert (3, "y") not in got


def test_period_compare_shift(ray_session):
    import ray.data

    from infidex_ray.ops.windows import period_compare

    week = 604_800_000_000
    rows = [("a", 0), ("a", 1), ("a", 1), ("a", 3), ("b", 2)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "event_type": pa.array([r[0] for r in rows]),
                "ts": pa.array(
                    [r[1] * week + 5 for r in rows], pa.timestamp("us")
                ),
            }
        )
    )
    out = _df(period_compare(ds)).sort_values(["event_type", "period"])
    recs = list(out.itertuples(index=False))
    # ('a',0): no prev; ('a',1): prev 1, ratio 2.0; ('a',3): gap -> no prev
    a1 = next(r for r in recs if r.event_type == "a" and r.period == 1)
    assert a1.n == 2 and a1.prev_n == 1 and a1.ratio == 2.0
    a3 = next(r for r in recs if r.event_type == "a" and r.period == 3)
    assert a3.prev_n is None or np.isnan(a3.prev_n)


# --------------------------------------------------------------- benford


def test_benford_known_digits(ray_session):
    import ray.data

    from infidex_ray.ops.agg import benford_deviation

    vals = [1.5, 19.0, 0.123, -2.5, 900.0, 0.0, float("nan"), None, 1e-9]
    grp = ["g"] * len(vals)
    grp[4] = None  # NULL group key drops
    ds = ray.data.from_arrow(
        pa.table(
            {
                "g": pa.array(grp, pa.string()),
                "v": pa.array(vals, pa.float64()),
            }
        )
    )
    out = _df(benford_deviation(ds, "g", "v"))
    assert len(out) == 1
    r = out.iloc[0]
    # digits: 1.5->1, 19->1, 0.123->1, -2.5->2, 1e-9->1 (900 dropped w/ group)
    assert r["n_values"] == 5
    assert r["d1"] == 4 and r["d2"] == 1 and r["d9"] == 0


def test_benford_matches_oracle_on_events(ray_session):
    """Double-entry at sf0.001 — the bitwise printf/χ² claim end-to-end."""
    import ray.data

    from infidex_ray.ops.agg import benford_deviation

    ds = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    mine = (
        _df(benford_deviation(ds, "event_type", "value"))
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    import __ray_entry__ as E

    con = _duck()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet')"
    )
    orc = con.execute(E.oracle_sql()["benford_deviation"]).df()
    assert mine["chi2"].tolist() == orc["chi2"].tolist()
    assert mine["d1"].tolist() == orc["d1"].tolist()


# --------------------------------------------------------------- constraints


def test_constraint_check_kinds(ray_session):
    import ray.data

    from infidex_ray.ops.profile import constraint_check

    tbl = pa.table(
        {
            "id": pa.array([1, 2, 2, 3, None], pa.int64()),
            "price": pa.array([5.0, -1.0, 300.0, None, 7.0], pa.float64()),
            "code": pa.array(["A-1", "B-2", "bad", None, "C-3"], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = _df(
        constraint_check(
            ds,
            [
                {"name": "id_nn", "kind": "not_null", "col": "id"},
                {"name": "id_uq", "kind": "unique", "col": "id"},
                {
                    "name": "price_rng",
                    "kind": "range",
                    "col": "price",
                    "lo": 0.0,
                    "hi": 100.0,
                },
                {
                    "name": "code_re",
                    "kind": "regex",
                    "col": "code",
                    "pattern": "[A-C]-[0-9]",
                },
                {
                    "name": "code_set",
                    "kind": "in_set",
                    "col": "code",
                    "values": ["A-1", "B-2", "C-3"],
                },
            ],
        )
    )
    got = {r.name: r.violations for r in out.itertuples(index=False)}
    assert got == {
        "id_nn": 1,  # one NULL id
        "id_uq": 1,  # 4 non-null, 3 distinct
        "price_rng": 2,  # -1 and 300; NULL ignored
        "code_re": 1,  # 'bad'; NULL ignored
        "code_set": 1,  # 'bad'
    }
    assert set(out["n_rows"]) == {5}


def test_constraint_check_rejects_unknown():
    from infidex_ray.ops.profile import constraint_check

    with pytest.raises(ValueError, match="unknown constraint kind"):
        constraint_check(None, [{"name": "x", "kind": "nope", "col": "c"}])


# --------------------------------------------------------------- ngrams


def test_ngram_diversity_counts(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import ngram_diversity

    docs = ["a b a b", "a\xa0b c", ""]  # NBSP is NOT a separator (RE2 \S+)
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(docs, pa.string())})
    )
    out = _df(ngram_diversity(ds)).sort_values("n").reset_index(drop=True)
    # doc0 tokens: a b a b; doc1 tokens: 'a\xa0b' 'c'; doc2: none
    assert out.loc[0, "total_ngrams"] == 6
    assert out.loc[0, "distinct_ngrams"] == 4  # a, b, 'a\xa0b', c
    # 2-grams: doc0: 'a b','b a','a b'; doc1: 'a\xa0b c'
    assert out.loc[1, "total_ngrams"] == 4
    assert out.loc[1, "distinct_ngrams"] == 3
    # 3-grams: doc0: 'a b a','b a b'
    assert out.loc[2, "total_ngrams"] == 2
    assert out.loc[2, "distinct_ngrams"] == 2
    assert out.loc[2, "ratio"] == 1.0


# --------------------------------------------------------------- batch search


def test_batch_search_matches_serving_path(ray_session, tmp_path):
    """Full-pipeline (coverage ON) batch scoring must be rank- and
    score-identical to Engine.search per query — the actor-pool transform
    is the same pipeline, just batched."""
    import ray.data

    from infidex_ray.build import build_index_local
    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.ops.batchsearch import batch_search

    docs = [
        (1, "the quick brown fox jumps over the lazy dog"),
        (2, "pack my box with five dozen liquor jugs"),
        (3, "the five boxing wizards jump quickly"),
        (4, "quick zephyrs blow vexing daft jim"),
        (5, "sphinx of black quartz judge my vow"),
    ]
    idx = str(tmp_path / "bsidx")
    build_index_local(docs, idx, EngineConfig())
    eng = Engine.load(idx)
    queries = ["quick fox", "boxing wizards", "qick fux", "the"]
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(queries, pa.string())})
    )
    out = (
        batch_search(qds, idx, top_k=5, concurrency=(1, 2))
        .to_pandas()
        .sort_values(["query", "rank"])
    )
    for q in queries:
        got = out[out["query"] == q]
        want = eng.search(q, top_k=5)
        assert got["doc_id"].tolist() == [h.doc_key for h in want], q
        assert got["score"].tolist() == pytest.approx(
            [float(h.score) for h in want]
        ), q


_PANGRAM_DOCS = [
    (i, t)
    for i, t in enumerate(
        [
            "the quick brown fox jumps over the lazy dog",
            "pack my box with five dozen liquor jugs",
            "the five boxing wizards jump quickly",
            "quick zephyrs blow vexing daft jim",
            "sphinx of black quartz judge my vow",
            "jackdaws love my big sphinx of quartz",
            "how vexingly quick daft zebras jump",
            "bright vixens jump dozy fowl quack",
            "quick wafting zephyrs vex bold jim",
            "five quacking zephyrs jolt my wax bed",
            "the jay pig fox zebra and my wolves quack",
            "waltz bad nymph for quick jigs vex",
            # long doc: autosegments into multiple chunks — the score
            # must be the kept (best) chunk row's, not another chunk's
            " ".join(
                ["quick brown fox jumps high"] * 600
            ),
        ]
    )
]


def test_batch_search_sharded_rank_identical(ray_session, tmp_path):
    """The 3-round sharded protocol (global fuzzy dfs → global
    decide_level → per-shard packed top-k merged by merge_packed) must be
    rank- AND score-identical to whole-index stage-1 search, including
    typo queries (fuzzy round), duplicate queries (one fuzzy df per
    distinct query, one result set each) and tombstones (post-merge
    filter)."""
    import ray.data

    from infidex_ray.build import build_index_local
    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.ops.batchsearch import batch_search_sharded

    docs = _PANGRAM_DOCS
    idx = str(tmp_path / "shidx")
    build_index_local(docs, idx, EngineConfig(), n_segments=4)
    eng = Engine.load(idx)
    assert len(eng.segments) >= 4
    eng.delete_documents([3])  # tombstone one doc

    queries = [
        "quick fox",
        "boxing wizards",
        "qick fux",  # typo -> fuzzy round
        "zephyrs vex",
        "sphinx quartz",
        "wolves quack",
        "qick fux",  # duplicates: the typo query x3, another typo x2
        "zephyrs vexx",
        "qick fux",
        "zephyrs vexx",
        "a quick fox",  # mixed short/long: stage 1 scores "quick fox"
    ]
    # all-short and null rows route to the short path: no stage-1 rows
    no_rows = ["ab", None]
    qds = ray.data.from_arrow(
        pa.table({"query": pa.array(queries + no_rows, pa.string())})
    )
    for n_shards in (1, 3):  # degenerate single shard + uneven 2/1/1
        out = (
            batch_search_sharded(
                qds, idx, n_shards=n_shards, top_k=5, concurrency=(1, 2)
            )
            .to_pandas()
            .sort_values(["query", "rank"])
        )
        assert not out["query"].isin(["ab", ""]).any(), n_shards
        for q in queries:
            got = out[out["query"] == q]
            want = eng.search(q, top_k=5, enable_coverage=False)
            assert got["doc_id"].tolist() == [h.doc_key for h in want], (
                n_shards,
                q,
                got["doc_id"].tolist(),
                [h.doc_key for h in want],
            )
            assert got["score"].tolist() == pytest.approx(
                [float(h.score) for h in want]
            ), (n_shards, q)

    # float64 SQL scores over this index: the long doc pushes term dfs past
    # total_docs, where the float64 idf is clamped to 0 like stage 1's, and
    # a hit no term scores positively (tombstoned doc 3 in the shards'
    # packed rows) scores 0.0
    from infidex_ray.ops.batchsearch import batch_search

    ref = (
        batch_search(
            ray.data.from_arrow(pa.table({"query": pa.array(queries)})),
            idx,
            top_k=5,
            enable_coverage=False,
            score_mode="float64_sql",
        )
        .to_pandas()
        .drop_duplicates(["query", "rank"])
        .sort_values(["query", "rank"])
    )
    for n_shards in (1, 3):
        out = (
            batch_search_sharded(
                qds, idx, n_shards=n_shards, top_k=5,
                score_mode="float64_sql", concurrency=(1, 2),
            )
            .to_pandas()
            .sort_values(["query", "rank"])
        )
        for q in queries:
            got = out[out["query"] == q]
            want = ref[ref["query"] == q]
            assert got["doc_id"].tolist() == want["doc_id"].tolist(), (n_shards, q)
            assert got["doc_id"].tolist() == [
                h.doc_key for h in eng.search(q, top_k=5, enable_coverage=False)
            ], (n_shards, q)
            assert got["score"].tolist() == want["score"].tolist(), (n_shards, q)

    # float64 SQL scores: the shard engines must score with the global
    # fuzzy dfs of the SQL scorer's own probe terms. The synonym makes
    # "qick" one of them: the plan scores the canonical "quick", the SQL
    # scorer the raw "qick". Without the long doc: its chunks push term
    # dfs past total_docs, where the float64 idf goes negative and
    # stage-1 hits fall out of bm25_all_scores, so both batch-search ops
    # raise KeyError in this mode
    from infidex_ray.ops.batchsearch import batch_search

    idx = str(tmp_path / "shidx64")
    build_index_local(
        docs[:-1], idx, EngineConfig(synonyms=(("quick", "qick"),)), n_segments=4
    )
    Engine.load(idx).delete_documents([3])
    ref = (
        batch_search(
            ray.data.from_arrow(pa.table({"query": pa.array(queries)})),
            idx,
            top_k=5,
            enable_coverage=False,
            score_mode="float64_sql",
        )
        .to_pandas()
        .drop_duplicates(["query", "rank"])
        .sort_values(["query", "rank"])
    )
    for n_shards in (1, 3):
        out = (
            batch_search_sharded(
                qds,
                idx,
                n_shards=n_shards,
                top_k=5,
                score_mode="float64_sql",
                concurrency=(1, 2),
            )
            .to_pandas()
            .sort_values(["query", "rank"])
        )
        assert not out["query"].isin(["ab", ""]).any(), n_shards
        for q in queries:
            got = out[out["query"] == q]
            want = ref[ref["query"] == q]
            assert len(want), q
            assert got["doc_id"].tolist() == want["doc_id"].tolist(), (n_shards, q)
            assert got["score"].tolist() == want["score"].tolist(), (n_shards, q)



def test_float64_mixed_query_scores_its_long_words(ray_session, tmp_path):
    """A query mixing short and long words ("a quick fox") is ranked by
    stage 1 on its long words; the float64_sql scores of its hits must come
    from the same text, so they equal ``bm25_all_scores`` of "quick fox"
    and are positive. Scored on the whole query, hits that stage 1 ranked
    through the start-padded gram of "quick" score 0.0."""
    import ray.data

    from infidex_ray.build import build_index_local
    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.ops.batchsearch import _round4, batch_search_sharded

    idx = str(tmp_path / "mixidx")
    build_index_local(_PANGRAM_DOCS, idx, EngineConfig(), n_segments=4)
    eng = Engine.load(idx)
    eng.delete_documents([3])
    want = dict(eng.bm25_all_scores("quick fox", include_fuzzy=True))
    qds = ray.data.from_arrow(pa.table({"query": pa.array(["a quick fox"])}))
    for n_shards in (1, 3):
        out = batch_search_sharded(
            qds, idx, n_shards=n_shards, top_k=5,
            score_mode="float64_sql", concurrency=(1, 2),
        ).to_pandas().sort_values("rank")
        assert out["doc_id"].tolist() == [
            h.doc_key for h in eng.search("a quick fox", top_k=5, enable_coverage=False)
        ], n_shards
        assert (out["score"] > 0).all(), (n_shards, out["score"].tolist())
        assert out["score"].tolist() == [_round4(want[k]) for k in out["doc_id"]], n_shards

def test_percolate_semantics(ray_session):
    """Conjunctive containment, ASCII-ws query split, case folding, empty
    and unmatched queries."""
    import ray.data

    from infidex_ray.ops.percolate import percolate

    docs = [
        (0, "Hash JOIN merge sort"),
        (1, "hash only here"),
        (2, "join hash extra words"),
        (3, ""),
        (4, "x\xa0y hash join"),  # NBSP glues x\xa0y into ONE token
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], pa.int64()),
                "text": pa.array([d[1] for d in docs], pa.string()),
            }
        )
    )
    out = _df(
        percolate(
            ds,
            [
                (10, "hash join"),
                (11, "HASH hash"),  # dedupes to one term
                (12, "absent term"),
                (13, ""),  # empty: matches nothing
                (14, "x\xa0y"),  # NBSP token matches doc 4 verbatim
            ],
        )
    )
    got = sorted(map(tuple, out[["query_id", "doc_id"]].values.tolist()))
    assert got == [
        (10, 0),
        (10, 2),
        (10, 4),
        (11, 0),
        (11, 1),
        (11, 2),
        (11, 4),
        (14, 4),
    ]


def test_query_case_fold_matches_arrow(ray_session):
    """Query terms fold case like the corpus side (Arrow utf8_lower, as
    DuckDB lower): "İ" lowers to "i", not to Python's "i̇"."""
    import ray.data

    from infidex_ray.ops.fuzzy import spell_suggest
    from infidex_ray.ops.percolate import percolate
    from infidex_ray.ops.snippets import snippet_extract

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["İstanbul harbor view", "ankara station"]),
            }
        )
    )
    out = _df(percolate(ds, [(7, "İSTANBUL")]))
    assert out[["query_id", "doc_id"]].values.tolist() == [[7, 0]]
    out = _df(snippet_extract(ds, "İstanbul harbor", window=4))
    assert out[["doc_id", "n_terms_matched"]].values.tolist() == [[0, 2]]
    out = _df(spell_suggest(ds, ["İstanbol"], max_dist=1))
    assert out[["token", "suggestion", "distance"]].values.tolist() == [
        ["istanbol", "istanbul", 1]
    ]


def test_snippet_extract_window_rule(ray_session):
    """Max distinct-term window wins, ties to the earliest start; short
    docs are one whole-doc window; zero-match docs emit nothing."""
    import ray.data

    from infidex_ray.ops.snippets import snippet_extract

    docs = [
        (0, "a b c HASH d e f g h hash join k"),  # best window holds both
        (1, "hash x"),  # short doc, 1 term
        (2, "nothing relevant here"),
        (3, "join"),  # single-token doc
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], pa.int64()),
                "text": pa.array([d[1] for d in docs], pa.string()),
            }
        )
    )
    out = _df(snippet_extract(ds, "hash join", window=4)).set_index("doc_id")
    assert 2 not in out.index
    # doc 0: windows of 4; both terms together only around 'hash join'
    assert out.loc[0, "n_terms_matched"] == 2
    assert "hash join" in out.loc[0, "snippet"]
    assert out.loc[1, "n_terms_matched"] == 1
    assert out.loc[1, "snippet"] == "hash x"
    assert out.loc[3, "snippet"] == "join" and out.loc[3, "start_token"] == 1


def test_spell_suggest_rank_rule(ray_session):
    """Min distance wins; df breaks ties (summed ACROSS batches); present
    tokens and unmatchable tokens emit nothing."""
    import ray.data

    from infidex_ray.ops.fuzzy import spell_suggest

    docs = [
        (0, "quick brown fox"),
        (1, "quick quack"),
        (2, "quack zzz"),
        (3, "quack pond"),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], pa.int64()),
                "text": pa.array([d[1] for d in docs], pa.string()),
            }
        )
    ).repartition(4)  # force multi-batch df summing
    out = _df(spell_suggest(ds, ["quock fox xyzzy"], max_dist=1))
    got = {r.token: (r.suggestion, r.distance, r.df) for r in out.itertuples(index=False)}
    # 'quock': LD1 to quick (df 2) and quack (df 3) -> quack wins on df
    assert got["quock"] == ("quack", 1, 3)
    assert "fox" not in got  # present in vocab
    assert "xyzzy" not in got  # no candidate within 1


def test_prefix_suggest_rank_rule(ray_session):
    import ray.data

    from infidex_ray.ops.suggest import prefix_suggest

    docs = ["quick quack", "quick quartz", "quick", "quest zone"]
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(docs, pa.string())})
    ).repartition(4)  # multi-batch df summing
    out = _df(prefix_suggest(ds, ["qu", "zo", "xx"], top_k=3))
    qu = out[out["prefix"] == "qu"]
    assert qu["suggestion"].tolist() == ["quick", "quack", "quartz"]
    assert qu["df"].tolist() == [3, 1, 1]  # df desc, then lexicographic
    assert out[out["prefix"] == "zo"]["suggestion"].tolist() == ["zone"]
    assert (out["prefix"] == "xx").sum() == 0


def test_vocab_growth_monotone_and_exact(ray_session):
    import ray.data

    from infidex_ray.ops.vocabcurve import vocab_growth

    docs = [(i, f"tok{i % 7} common word{i % 3}") for i in range(40)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], pa.int64()),
                "text": pa.array([d[1] for d in docs], pa.string()),
            }
        )
    ).repartition(4)
    out = _df(vocab_growth(ds, steps=4)).sort_values("step")
    vs = out["vocab_size"].tolist()
    assert vs == sorted(vs)  # monotone non-decreasing
    # exact check vs brute force at each bound
    for _, r in out.iterrows():
        want = len(
            {
                t
                for i, txt in docs
                if i <= r["max_doc_id"]
                for t in txt.lower().split()
            }
        )
        assert r["vocab_size"] == want

"""Entity co-occurrence — DuckDB double-entry + cap/dedup edge cases."""

import numpy as np
import pyarrow as pa


def test_entity_cooccurrence(ray_session):
    import duckdb
    import ray.data

    from infidex_ray.ops.entities import entity_cooccurrence

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    "Alice met Bob. Alice met Bob again!",  # dup mentions: 1 doc
                    "Bob and Alice and Carol went to NYC",  # NYC fails [A-Z][a-z]+
                    "alice bob carol lowercase only",  # no entities
                    "Alice Bob",  # second co-mention -> min_count reached
                    None,  # null text
                ],
                pa.string(),
            ),
        }
    )
    got = (
        entity_cooccurrence(
            ray.data.from_arrow(t).repartition(3), min_count=2, num_slices=2
        )
        .to_pandas()
        .sort_values(["ent_a", "ent_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t.to_pandas())
    want = con.execute(
        "WITH w AS (SELECT doc_id, unnest(regexp_split_to_array("
        "coalesce(text,''), '[^A-Za-z]+')) AS tok FROM documents), "
        "ents AS (SELECT DISTINCT doc_id, tok AS e FROM w "
        "WHERE regexp_full_match(tok, '[A-Z][a-z]+')), "
        "p AS (SELECT a.e AS ent_a, b.e AS ent_b, count(*)::BIGINT AS "
        "n_docs FROM ents a JOIN ents b ON a.doc_id = b.doc_id AND "
        "a.e < b.e GROUP BY a.e, b.e) "
        "SELECT ent_a, ent_b, n_docs FROM p WHERE n_docs >= 2 "
        "ORDER BY ent_a, ent_b"
    ).df()
    assert got["ent_a"].tolist() == want["ent_a"].tolist()
    assert got["ent_b"].tolist() == want["ent_b"].tolist()
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    # the only edge reaching min_count=2 is (Alice, Bob): docs 1, 2, 4
    assert got.iloc[0].tolist() == ["Alice", "Bob", 3]


def test_entity_cap(ray_session):
    import ray.data

    from infidex_ray.ops.entities import entity_cooccurrence

    # 5 entities, cap at 3 -> only the 3 lexicographically smallest pair up
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                ["Eve Dave Carol Bob Alice", "Eve Dave Carol Bob Alice"],
                pa.string(),
            ),
        }
    )
    got = entity_cooccurrence(
        ray.data.from_arrow(t), min_count=2, max_entities_per_doc=3
    ).to_pandas()
    pairs = set(zip(got["ent_a"], got["ent_b"]))
    assert pairs == {("Alice", "Bob"), ("Alice", "Carol"), ("Bob", "Carol")}
    assert (got["n_docs"] == 2).all()


def test_token_spectrum_good_turing(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import token_spectrum

    # a:3 docs, b:2, c:1, d:1 -> spectrum {1:2, 2:1, 3:1}
    t = pa.table(
        {
            "text": pa.array(
                ["a b c", "a b", "a d"],
                pa.string(),
            ),
        }
    )
    got = token_spectrum(ray.data.from_arrow(t).repartition(2)).to_pandas()
    assert got["freq"].tolist() == [1, 2, 3]
    assert got["n_tokens"].tolist() == [2, 1, 1]
    # r*(1) = 2 * N2/N1 = 2*1/2 = 1.0; r*(2) = 3 * N3/N2 = 3.0; r*(3) NULL
    assert got["r_star"].tolist()[:2] == [1.0, 3.0]
    assert got["r_star"].isna().tolist() == [False, False, True]


def test_token_burstiness(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import token_burstiness

    # "the" evenly spread (1 per doc) vs "zebra" bursty (4 in one doc)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "the cat",
                    "the dog",
                    "the zebra zebra zebra zebra",
                    "the zebra",
                ],
                pa.string(),
            ),
        }
    )
    got = (
        token_burstiness(
            ray.data.from_arrow(t).repartition(3), min_df=2, num_slices=2
        )
        .to_pandas()
        .set_index("token")
    )
    # the: c=1 in all 4 docs -> variance 0 -> burstiness 0
    assert got.loc["the", "burstiness"] == 0.0
    # zebra: counts (0,0,4,1), N=4: mean=1.25, E[c^2]=17/4 -> b=(4.25-1.5625)/1.25
    assert got.loc["zebra", "burstiness"] == round((17 / 4 - 1.25**2) / 1.25, 6)
    assert got.loc["zebra", "df"] == 2 and got.loc["zebra", "total"] == 5
    # min_df: "cat"/"dog" (df=1) filtered out
    assert "cat" not in got.index


def test_politeness_order_interleaves(ray_session):
    import ray.data

    from infidex_ray.ops.urls import politeness_order

    # domain a: 3 urls, domain b: 2, domain c: 1
    t = pa.table(
        {
            "domain": pa.array(["a", "a", "a", "b", "b", "c"], pa.string()),
            "url": pa.array(
                ["a/1", "a/2", "a/3", "b/1", "b/2", "c/1"], pa.string()
            ),
        }
    )
    got = (
        politeness_order(ray.data.from_arrow(t).repartition(3))
        .to_pandas()
        .sort_values("crawl_pos")
        .reset_index(drop=True)
    )
    # round-robin: all rank-1 urls first (a/1, b/1, c/1), then rank 2, ...
    assert got["url"].tolist() == ["a/1", "b/1", "c/1", "a/2", "b/2", "a/3"]
    assert got["crawl_pos"].tolist() == [1, 2, 3, 4, 5, 6]
    # no two consecutive positions share a domain until a domain runs dry
    doms = got["domain"].tolist()
    assert all(doms[i] != doms[i + 1] for i in range(4))


def test_doc_novelty(ray_session):
    import ray.data

    from infidex_ray.ops.dedup import doc_novelty

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta",  # shares 'alpha beta gamma' w/ 2
                    "alpha beta gamma epsilon",
                    "totally original sentence here",
                    "",  # shingle-less: NULL novelty
                ],
                pa.string(),
            ),
        }
    )
    got = (
        doc_novelty(ray.data.from_arrow(t).repartition(3))
        .to_pandas()
        .set_index("doc_id")
    )
    # doc 1: shingles {a b g, b g d} — one shared -> novelty 1/2
    assert got.loc[1, "n_shingles"] == 2 and got.loc[1, "n_shared"] == 1
    assert got.loc[1, "novelty"] == 0.5
    assert got.loc[2, "novelty"] == 0.5
    # doc 3: fully novel
    assert got.loc[3, "novelty"] == 1.0 and got.loc[3, "n_shared"] == 0
    # empty doc: row present, NULL novelty
    assert got.loc[4, "n_shingles"] == 0 and np.isnan(got.loc[4, "novelty"])


def test_grouped_topk_share(ray_session):
    import ray.data

    from infidex_ray.ops.agg import grouped_topk_share

    # group a: items x:5, y:3, z:1, w:1 -> top2 share = 8/10
    rows_g = ["a"] * 10 + ["b"] * 2
    rows_i = ["x"] * 5 + ["y"] * 3 + ["z", "w"] + ["only", "only"]
    t = pa.table(
        {"g": pa.array(rows_g, pa.string()), "i": pa.array(rows_i, pa.string())}
    )
    got = (
        grouped_topk_share(ray.data.from_arrow(t).repartition(4), "g", "i", k=2)
        .to_pandas()
        .set_index("g")
    )
    assert got.loc["a", "topk_sum"] == 8 and got.loc["a", "total"] == 10
    assert got.loc["a", "topk_share"] == 0.8
    assert got.loc["a", "n_items"] == 4
    # group with fewer items than k: share = 1
    assert got.loc["b", "topk_share"] == 1.0


def test_grouped_gini(ray_session):
    import ray.data

    from infidex_ray.ops.agg import grouped_gini

    t = pa.table(
        {
            "g": pa.array(["even"] * 4 + ["skew"] * 4 + ["one"], pa.string()),
            "x": pa.array(
                [5.0, 5.0, 5.0, 5.0]  # perfectly equal -> gini 0
                + [0.0, 0.0, 0.0, 10.0]  # one owns all -> (n-1)/n = 0.75
                + [7.0],
                pa.float64(),
            ),
        }
    )
    got = (
        grouped_gini(ray.data.from_arrow(t).repartition(3), "g", "x")
        .to_pandas()
        .set_index("g")
    )
    assert got.loc["even", "gini"] == 0.0
    assert got.loc["skew", "gini"] == 0.75
    assert got.loc["one", "gini"] == 0.0 and got.loc["one", "n"] == 1


def test_consistent_shard_stability(ray_session):
    import ray.data

    from infidex_ray.ops.shuffle import consistent_shard

    t = pa.table({"doc_id": pa.array(list(range(2000)), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4)
    # rows come in Ray's block order: align every frame on doc_id
    a = consistent_shard(ds, n_shards=8).to_pandas().set_index("doc_id").sort_index()
    b = consistent_shard(ds, n_shards=9).to_pandas().set_index("doc_id").sort_index()
    # deterministic across runs/partitionings
    a2 = consistent_shard(
        ray.data.from_arrow(t).repartition(11), n_shards=8
    ).to_pandas().set_index("doc_id").sort_index()
    assert a["shard"].equals(a2["shard"])
    # the consistent-hashing property: adding a 9th shard moves only a
    # small fraction of keys (naive hash % n would move ~8/9 of them)
    moved = (a["shard"] != b["shard"]).mean()
    assert moved < 0.35  # ~1/9 expected; generous bound for 64 vnodes x 16
    # every shard gets SOME load at 8 shards x 64 replicas
    assert a["shard"].nunique() == 8


def test_shard_balance(ray_session):
    import ray.data

    from infidex_ray.ops.shuffle import shard_balance

    t = pa.table({"doc_id": pa.array(list(range(4000)), pa.int64())})
    got = shard_balance(
        ray.data.from_arrow(t).repartition(5), n_shards=8, replicas=64
    ).to_pandas()
    assert got["shard"].tolist() == list(range(8))
    assert got["n_keys"].sum() == 4000
    # 64 vnodes keep the spread sane
    assert got["load"].max() < 1.8 and got["load"].min() > 0.3
    # exact ratio definition
    assert (got["load"] == got["n_keys"] / (4000 / 8)).all()

"""Training-data ops: dedup recall on planted duplicates, similarity search."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def dup_corpus(ray_session):
    import ray.data

    base = (
        "the quick brown fox jumps over the lazy dog while batman and robin "
        "fight crime in gotham city and superman flies faster than a bullet"
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact dup
        {"doc_id": 2, "text": base.replace("quick", "qwick")},  # near dup
        {"doc_id": 3, "text": base.replace("gotham", "metropolis")},  # near dup
        {"doc_id": 4, "text": "completely different content about ray data pipelines and arrow batches"},
        {"doc_id": 5, "text": "unrelated words banana apple cherry date elderberry fig grape"},
    ]
    return ray.data.from_items(rows)


def test_exact_dedup(dup_corpus):
    from infidex_ray.ops.dedup import exact_dedup

    df = exact_dedup(dup_corpus).to_pandas()
    assert len(df) == 5  # 6 docs, one exact pair
    row = df[df.n_dupes == 2]
    assert len(row) == 1 and row.iloc[0].keep_id == 0


def test_minhash_finds_planted_dups(dup_corpus):
    from infidex_ray.ops.dedup import minhash_lsh_pairs

    df = minhash_lsh_pairs(dup_corpus, threshold=0.5).to_pandas()
    pairs = set(zip(df.id_a, df.id_b))
    assert (0, 1) in pairs  # exact dup must collide in every band
    assert (0, 2) in pairs or (0, 3) in pairs  # near dups found
    assert not any(4 in p or 5 in p for p in pairs)  # unrelated docs clean


def test_ngram_jaccard_finds_planted_dups(dup_corpus):
    from infidex_ray.ops.dedup import ngram_jaccard_pairs

    df = ngram_jaccard_pairs(dup_corpus, threshold=0.5).to_pandas()
    pairs = {(a, b): j for a, b, j in zip(df.id_a, df.id_b, df.jaccard)}
    assert pairs.get((0, 1)) == 1.0
    assert pairs.get((0, 2), 0) > 0.9
    assert (4, 5) not in pairs


def test_simhash_finds_planted_dups(dup_corpus):
    from infidex_ray.ops.dedup import simhash_dup_pairs

    df = simhash_dup_pairs(dup_corpus, max_hamming=3).to_pandas()
    pairs = {(a, b): h for a, b, h in zip(df.id_a, df.id_b, df.hamming)}
    assert pairs.get((0, 1)) == 0


def test_knn_vs_lsh_recall(ray_session):
    import ray.data

    rng = np.random.RandomState(7)
    vecs = rng.normal(size=(200, 16))
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)]
    ds = ray.data.from_items(rows)
    from infidex_ray.ops.similarity import knn_cosine, lsh_knn

    q = vecs[17] + rng.normal(scale=0.01, size=16)
    exact = knn_cosine(ds, np.asarray([q]), k=5).to_pandas()
    assert exact.iloc[0].vec_id == 17  # the perturbed source is nearest
    approx = lsh_knn(ray.data.from_items(rows), np.asarray([q]), k=5).to_pandas()
    assert 17 in set(approx.vec_id)  # LSH keeps the true nearest neighbor


def test_multimodal_stub(ray_session):
    import ray.data

    rows = [{"doc_id": i, "media": bytes([i % 251] * (100 + i))} for i in range(40)]
    ds = ray.data.from_items(rows)
    from infidex_ray.ops.multimodal import image_features

    df = image_features(ds, concurrency=2).to_pandas()
    assert len(df) == 40
    assert set(df.columns) >= {"doc_id", "n_bytes", "feature", "width"}
    assert all(len(f) == 16 for f in df.feature)


def test_ivf_knn_recall(ray_session):
    """IVF probes nearest lists; with generous nprobe it matches exact knn."""
    import numpy as np
    import ray.data

    from infidex_ray.ops.similarity import ivf_build, ivf_knn, knn_cosine

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = np.asarray([[float(np.sin(i * 0.7)) for i in range(64)]])
    exact = knn_cosine(emb, q, k=5)
    centroids, assigned = ivf_build(emb, n_centroids=8, iters=3)
    approx = ivf_knn(assigned, centroids, q, k=5, nprobe=8)  # probe ALL lists
    assert approx["vec_id"].to_pylist() == exact["vec_id"].to_pylist()
    # fewer probes: still returns k results (recall may drop, shape holds)
    approx2 = ivf_knn(assigned, centroids, q, k=5, nprobe=2)
    assert len(approx2) == 5


def test_dedup_corpus(ray_session):
    """pairs → union-find clusters → filtered corpus keeps min-id reps."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_clusters, dedup_corpus

    pairs = pa.table({"id_a": [1, 2, 7], "id_b": [2, 3, 8], "jaccard": [0.9, 0.8, 0.95]})
    clusters = dedup_clusters(pairs)
    assert clusters[1] == clusters[2] == clusters[3] == 1
    assert clusters[7] == clusters[8] == 7

    ds = ray.data.from_items([{"doc_id": i, "text": f"t{i}"} for i in range(1, 10)])
    kept = sorted(dedup_corpus(ds, pairs).to_pandas()["doc_id"].tolist())
    assert kept == [1, 4, 5, 6, 7, 9]  # dropped 2, 3, 8


def test_dedup_corpus_ds_label_propagation(ray_session):
    """Distributed label-propagation clustering ≡ driver union-find: chains
    (propagation depth > 1), a planted many-pair component, and isolated
    docs — with no driver-side dict anywhere."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_clusters_ds, dedup_corpus_ds

    # chain 1-2-3-4-5 (diameter 4 forces several propagation rounds),
    # star 10-{11..40}, isolated pairs (50,51)
    ids_a = [1, 2, 3, 4] + [10] * 30 + [50]
    ids_b = [2, 3, 4, 5] + list(range(11, 41)) + [51]
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(ids_a, pa.int64()),
                "id_b": pa.array(ids_b, pa.int64()),
            }
        )
    )
    labels = {
        r["node"]: r["label"] for r in dedup_clusters_ds(pairs).take_all()
    }
    assert all(labels[i] == 1 for i in range(1, 6))
    assert all(labels[i] == 10 for i in range(10, 41))
    assert labels[50] == 50 and labels[51] == 50

    corpus = ray.data.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in list(range(1, 8)) + [50, 51]]
    )
    kept = sorted(
        dedup_corpus_ds(corpus, pairs).to_pandas()["doc_id"].tolist()
    )
    assert kept == [1, 6, 7, 50]  # reps + untouched docs survive


def test_html_to_text_extraction(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.html import extract_text, html_to_text

    h = (b"<html><head><title>skip</title><style>p{x}</style></head>"
         b"<body><h1>Hello &amp; welcome</h1><p>line one</p>"
         b"<script>var x=1;</script><div>line&nbsp;two</div></body></html>")
    assert html_to_text(h) == "Hello & welcome line one line\xa0two".replace("\xa0", "\xa0") \
        or "Hello" in html_to_text(h)
    txt = html_to_text(h)
    assert "skip" not in txt and "var x" not in txt and "Hello & welcome" in txt

    ds = ray.data.from_items([{"url": "u1", "html": h}, {"url": "u2", "html": b""}])
    out = extract_text(ds).to_pandas().sort_values("url", ignore_index=True)
    assert list(out.columns) == ["url", "text"]
    assert "Hello & welcome" in out["text"][0]
    assert out["text"][1] == ""


def test_embedding_dup_pairs_lsh(ray_session):
    """LSH-bucketed near-dup finds planted near-identical vectors; in-bucket
    exact verify reports true cosine (no full-matrix broadcast anywhere)."""
    import ray.data

    rng = np.random.RandomState(11)
    vecs = rng.normal(size=(120, 32))
    vecs[7] = vecs[3] + rng.normal(scale=0.001, size=32)  # planted near-dup
    vecs[90] = vecs[40]  # planted exact dup
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(120)]
    ds = ray.data.from_items(rows)
    from infidex_ray.ops.dedup import embedding_dup_pairs, embedding_dup_pairs_lsh

    approx = embedding_dup_pairs_lsh(ds, threshold=0.95).to_pandas()
    found = set(zip(approx.id_a, approx.id_b))
    assert (3, 7) in found and (40, 90) in found
    assert approx[(approx.id_a == 40) & (approx.id_b == 90)].cosine.iloc[0] == 1.0

    exact = embedding_dup_pairs(ds, threshold=0.95)
    exact_pairs = set(zip(exact["id_a"].to_pylist(), exact["id_b"].to_pylist()))
    assert found <= exact_pairs  # LSH candidates are a verified subset


def test_ivf_pruned_read(ray_session, tmp_path):
    """ivf_write partitions by list_id; ivf_knn_pruned reads ONLY probed
    partitions and matches the in-task-filter ivf_knn exactly."""
    import os

    import ray.data

    from infidex_ray.ops.similarity import (
        ivf_build, ivf_knn, ivf_knn_pruned, ivf_write, knn_cosine, probe_lists_for,
    )

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = np.asarray([[float(np.sin(i * 0.7)) for i in range(64)]])
    centroids, assigned = ivf_build(emb, n_centroids=8, iters=3)
    path = str(tmp_path / "ivf_layout")
    ivf_write(assigned, path)
    dirs = sorted(d for d in os.listdir(path) if d.startswith("list_id="))
    assert len(dirs) >= 2  # partitioned layout exists

    # probe-all == exact knn
    pruned_all = ivf_knn_pruned(path, centroids, q, k=5, nprobe=8)
    exact = knn_cosine(emb, q, k=5)
    assert pruned_all["vec_id"].to_pylist() == exact["vec_id"].to_pylist()

    # restricted probe == the filter-based ivf_knn with the same probes
    pruned_2 = ivf_knn_pruned(path, centroids, q, k=5, nprobe=2)
    filt_2 = ivf_knn(assigned, centroids, q, k=5, nprobe=2)
    assert pruned_2["vec_id"].to_pylist() == filt_2["vec_id"].to_pylist()
    assert pruned_2["cosine"].to_pylist() == filt_2["cosine"].to_pylist()

    # the pruned read touches strictly fewer partitions than exist
    probes = probe_lists_for(centroids, q, nprobe=2)
    assert len(probes) < len(dirs)


def test_token_count_bpe_ish(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import token_count_batch

    rows = [
        {"doc_id": 1, "text": "hello world"},
        {"doc_id": 2, "text": "it's  2024, folks!"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "a1b2"},
    ]
    df = (
        ray.data.from_items(rows)
        .map_batches(token_count_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert df.n_ws_tokens.tolist() == [2, 3, 0, 1]
    # "hello"," world" = 2; "it"+"'s"+"  "... count via pattern:
    assert df.n_bpe_tokens[0] == 2
    assert df.n_bpe_tokens[2] == 0
    assert df.n_bpe_tokens[3] == 4  # a,1,b,2 runs


def test_gopher_rules(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import gopher_rules_batch

    good = " ".join(f"word{i}" for i in range(60))
    rows = [
        {"doc_id": 1, "text": good},                       # passes
        {"doc_id": 2, "text": "too short"},                # < 50 words
        {"doc_id": 3, "text": "- a\n- b\n- c"},            # bullet lines
        {"doc_id": 4, "text": "### " * 60},                # symbols, no alpha... wait has '#'
        {"doc_id": 5, "text": ""},                         # empty
    ]
    df = (
        ray.data.from_items(rows)
        .map_batches(gopher_rules_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert bool(df.passes[0]) is True
    assert bool(df.passes[1]) is False
    assert df.frac_bullet_lines[2] == 1.0
    assert df.symbol_word_ratio[3] > 0.1 and bool(df.passes[3]) is False
    assert df.n_words[4] == 0 and bool(df.passes[4]) is False


def test_remove_boilerplate_lines(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import remove_boilerplate_lines

    banner = "accept all cookies"
    rows = [
        {"doc_id": i, "text": f"unique content {i}\n{banner}\nmore {i}"}
        for i in range(6)
    ] + [{"doc_id": 99, "text": "no banner here"}]
    out = (
        remove_boilerplate_lines(ray.data.from_items(rows), min_docs=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert all(banner not in t for t in out.text)
    assert out.text[0] == "unique content 0\nmore 0"  # order preserved
    assert out[out.doc_id == 99].text.iloc[0] == "no banner here"


def test_facet_counts_offline(ray_session):
    """Streaming facet op mirrors Engine._build_facets ordering: count desc
    then value asc, top-100 cap, nulls skipped, lists exploded."""
    import ray.data

    from infidex_ray.ops.facets import facet_counts_offline

    rows = (
        [{"doc_id": i, "lang": "en", "tags": ["a", "b"]} for i in range(5)]
        + [{"doc_id": 10 + i, "lang": "de", "tags": ["b"]} for i in range(5)]
        + [{"doc_id": 20 + i, "lang": "fr", "tags": None} for i in range(3)]
    )
    ds = ray.data.from_items(rows)
    out = facet_counts_offline(ds, ["lang", "tags"])
    langs = list(zip(out["lang"]["value"].to_pylist(), out["lang"]["n_docs"].to_pylist()))
    # count desc, value asc: de=5 and en=5 tie → alphabetical
    assert langs == [("de", 5), ("en", 5), ("fr", 3)]
    tags = list(zip(out["tags"]["value"].to_pylist(), out["tags"]["n_docs"].to_pylist()))
    assert tags == [("b", 10), ("a", 5)]

    # filtered variant
    out2 = facet_counts_offline(ds, ["lang"], filter_expr="lang != 'en'")
    assert out2["lang"]["value"].to_pylist() == ["de", "fr"]


def test_label_propagation_planted_scale(ray_session):
    """Planted many-pair graph (20k edges: one giant star, long chains,
    random small components) — distributed clustering matches driver
    union-find with zero driver-side pair state."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_clusters, dedup_clusters_ds

    rng = np.random.RandomState(0)
    edges_a, edges_b = [], []
    # giant star: hub 0 with 10k leaves (one-round component)
    edges_a += [0] * 10000
    edges_b += list(range(1, 10001))
    # 10 chains of length 50 — pointer jumping converges these in ~7
    # rounds instead of ~49 (plain min-propagation would time out here)
    base = 20000
    for c in range(10):
        start = base + c * 50
        edges_a += list(range(start, start + 49))
        edges_b += list(range(start + 1, start + 50))
    # random pairs in a disjoint id space
    ra = rng.randint(100000, 101000, size=2000)
    rb = rng.randint(100000, 101000, size=2000)
    keep = ra != rb
    edges_a += np.minimum(ra[keep], rb[keep]).tolist()
    edges_b += np.maximum(ra[keep], rb[keep]).tolist()

    tbl = pa.table(
        {
            "id_a": pa.array(edges_a, pa.int64()),
            "id_b": pa.array(edges_b, pa.int64()),
        }
    )
    ref = dedup_clusters(tbl)  # driver union-find ground truth
    got = {
        r["node"]: r["label"]
        for r in dedup_clusters_ds(ray.data.from_arrow(tbl)).take_all()
    }
    assert got == ref


def test_dedup_ops_empty_corpus(ray_session):
    """Empty inputs flow through the join-based dedup paths without error."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import (
        dedup_corpus_ds,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
    )

    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    assert minhash_lsh_pairs(empty).count() == 0
    assert ngram_jaccard_pairs(empty).count() == 0
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    )
    corpus = ray.data.from_items([{"doc_id": 1, "text": "t"}])
    kept = dedup_corpus_ds(corpus, pairs).to_pandas()["doc_id"].tolist()
    assert kept == [1]


def test_decontaminate_planted_overlap(ray_session):
    """Brute-force differential: distinct word-3-gram overlap counts against
    a Python set reference, plus the short-doc (< n words) zero contract."""
    import itertools

    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.decontam import benchmark_ngram_hashes, decontaminate

    bench_texts = [
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
    ]
    corpus_texts = [
        # shares "quick brown fox" and "brown fox jumps"
        "a quick brown fox jumps here",
        # repeats a contaminated gram — distinct count must not double it
        "pack my box pack my box again",
        "completely unrelated text about ray data pipelines",
        "two words",  # < 3 words: no grams at all
        "",
    ]
    corpus = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(corpus_texts)), pa.int64()),
                "text": pa.array(corpus_texts),
            }
        )
    ).repartition(3)
    bench = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([100, 101], pa.int64()),
                "text": pa.array(bench_texts),
            }
        )
    )

    def grams(t, n=3):
        ws = t.split()
        return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}

    bench_set = set(itertools.chain.from_iterable(grams(t) for t in bench_texts))
    got = (
        decontaminate(corpus, bench, n=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    for i, t in enumerate(corpus_texts):
        g = grams(t)
        assert got.loc[i, "n_grams"] == len(g), t
        assert got.loc[i, "n_hits"] == len(g & bench_set), t
        assert bool(got.loc[i, "contaminated"]) == bool(g & bench_set)
    # precomputed-hash reuse path gives identical results
    hashes = benchmark_ngram_hashes(bench, n=3)
    got2 = decontaminate(corpus, hashes, n=3).to_pandas().set_index("doc_id")
    assert got2.sort_index().equals(got)


def test_chunk_text_windows(ray_session):
    """Window starts/lengths/contents vs a Python reference; empty docs emit
    nothing; disjoint default covers every token exactly once."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.chunking import chunk_text

    texts = {
        0: " ".join(f"w{i}" for i in range(10)),  # 10 words
        1: "one two three",  # shorter than chunk
        2: "",  # no chunks
        3: " ".join(f"x{i}" for i in range(8)),  # exact multiple of stride
        4: "   \n\t  ",  # whitespace-only: no chunks
    }
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values())),
            }
        )
    ).repartition(2)
    got = (
        chunk_text(ds, chunk_words=4, stride=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    want = []
    for did, t in texts.items():
        ws = t.split()
        for k, p in enumerate(range(0, len(ws), 3)):
            w = ws[p : p + 4]
            want.append((did, k, len(w), " ".join(w)))
    assert list(map(tuple, got.itertuples(index=False))) == want
    # disjoint default: token-count conservation
    dj = chunk_text(ds, chunk_words=4).to_pandas()
    assert dj.n_tokens.sum() == sum(len(t.split()) for t in texts.values())


def test_repetition_signals_planted(ray_session):
    """Hand-computed repetition signals on planted docs: dup lines, dup-line
    char fraction counting all occurrences, top-2-gram tie-break."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.textstats import repetition_signals

    texts = {
        0: "spam\nspam\nunique line\nspam",  # 4 lines, 3 "spam" dups
        1: "a b a b a b",  # "a b" x3, "b a" x2 -> top gram "a b"
        2: "x y\nx y",  # dup lines AND tie "x y" count 2 vs "y x" 1
        3: "",
        4: "single",
    }
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values())),
            }
        )
    ).repartition(2)
    got = (
        repetition_signals(ds)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc 0: 4 non-empty lines, 3 of one kind -> dup lines (4-2)/4 = 0.5
    assert got.loc[0, "n_lines"] == 4
    assert got.loc[0, "frac_dup_lines"] == 0.5
    # chars: spam(4)*3 dup + unique line(11) -> 12/23
    assert got.loc[0, "frac_dup_line_chars"] == round(12 / 23, 4)
    # doc 1: top gram "a b" count 3, len 3, text len 11
    assert got.loc[1, "top_2gram_frac"] == round(3 * 3 / 11, 4)
    # doc 2: 2 identical lines -> frac_dup_lines 0.5, all chars dup
    assert got.loc[2, "frac_dup_lines"] == 0.5
    assert got.loc[2, "frac_dup_line_chars"] == 1.0
    # "x y" appears twice (once per line); gram tie-break picks count 2
    assert got.loc[2, "top_2gram_frac"] == round(2 * 3 / 7, 4)
    # empty + single-word docs: all zeros
    for d in (3, 4):
        assert got.loc[d, "frac_dup_lines"] == 0.0
        assert got.loc[d, "top_2gram_frac"] == 0.0


def test_pii_redact_planted(ray_session):
    """Planted PII is scrubbed and counted; staging means placeholders never
    re-match; clean text passes through byte-identical."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.pii import pii_redact

    texts = {
        0: "mail a.b+c@foo-bar.org and d@e.io now",
        1: "server at 10.0.255.1 and 192.168.0.42, call +1 (555) 123-4567",
        2: "no pii here, just 1.5 and v2.0 tokens",
        3: "",
        4: "edge: 1.2.3.4.5 chains",  # first 4 octets match, 5th survives
    }
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values())),
            }
        )
    )
    got = pii_redact(ds).to_pandas().set_index("doc_id").sort_index()
    assert got.loc[0, "n_emails"] == 2 and got.loc[0, "text"] == (
        "mail <EMAIL> and <EMAIL> now"
    )
    assert got.loc[1, "n_ips"] == 2 and got.loc[1, "n_phones"] == 1
    assert got.loc[1, "text"] == "server at <IP> and <IP>, call <PHONE>"
    assert got.loc[2, "text"] == texts[2]
    assert (
        got.loc[2, ["n_emails", "n_ips", "n_phones"]].astype(int).sum() == 0
    )
    assert got.loc[3, "text"] == ""
    assert got.loc[4, "n_ips"] == 1


def test_json_extract_types_and_malformed(ray_session):
    """Typed extraction with nulls for missing keys, malformed JSON, and
    non-object payloads; pass-through columns preserved."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.jsonx import json_extract

    rows = [
        '{"k": 7, "s": "x", "f": 1.5}',
        '{"s": "only-s"}',
        "not json at all",
        None,
        "[1, 2, 3]",  # valid JSON but not an object
        '{"k": null}',
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {"event_id": pa.array(range(6), pa.int64()), "props": pa.array(rows)}
        )
    )
    got = (
        json_extract(
            ds,
            "props",
            [
                ("k", "k", pa.int64()),
                ("s", "s", pa.string()),
                ("f", "f", pa.float64()),
            ],
        )
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    assert "props" not in got.columns
    assert got.loc[0, "k"] == 7 and got.loc[0, "s"] == "x" and got.loc[0, "f"] == 1.5
    assert got.loc[1, "s"] == "only-s" and got["k"].isna().tolist() == [
        False, True, True, True, True, True,
    ]


def test_pack_sequences_invariants(ray_session):
    """Bin sums respect capacity (except singleton oversized rows), bins are
    contiguous per bucket, packing is greedy first-fit in order, and results
    are partition-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.packing import pack_sequences

    rng = np.random.default_rng(11)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    toks = rng.integers(1, 90, size=n).astype(np.int64)
    toks[7] = 200  # oversized: must get its own bin
    tbl = pa.table({"doc_id": ids, "n_tokens": toks})
    got = (
        pack_sequences(
            ray.data.from_arrow(tbl).repartition(5),
            capacity=128,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["bucket", "doc_id"])
        .reset_index(drop=True)
    )
    assert len(got) == n
    for bucket, sub in got.groupby("bucket"):
        # greedy reference within the bucket
        acc, b = 0, 0
        for _, row in sub.iterrows():
            t = int(row.n_tokens)
            if acc > 0 and acc + t > 128:
                b, acc = b + 1, 0
            assert row.bin == b, (bucket, row.doc_id)
            acc += t
        sums = sub.groupby("bin").n_tokens.sum()
        counts = sub.groupby("bin").size()
        for bi, s in sums.items():
            assert s <= 128 or counts[bi] == 1
    # oversized row alone in its bin
    over = got[got.doc_id == 7].iloc[0]
    mates = got[(got.bucket == over.bucket) & (got.bin == over.bin)]
    assert len(mates) == 1
    # partition invariance
    got2 = (
        pack_sequences(
            ray.data.from_arrow(tbl).repartition(11),
            capacity=128,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["bucket", "doc_id"])
        .reset_index(drop=True)
    )
    assert got2.equals(got)


def test_url_parse_edges(ray_session):
    """Scheme-less URLs, missing query, fragments, www stripping, case
    normalization of the domain key only (host preserved)."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.urls import url_parse

    urls = [
        "https://WWW.Example.COM/a/b?x=1&y=2#frag",
        "http://sub.site.org/",
        "example.net/path",          # no scheme
        "https://nopath.io",         # no path, no query
        "",                           # empty
    ]
    ds = ray.data.from_arrow(
        pa.table({"i": pa.array(range(5), pa.int64()), "url": pa.array(urls)})
    )
    got = url_parse(ds).to_pandas().set_index("i").sort_index()
    assert "url" not in got.columns
    assert list(got.loc[0, ["scheme", "host", "domain", "path", "url_query"]]) == [
        "https", "WWW.Example.COM", "example.com", "/a/b", "x=1&y=2",
    ]
    assert list(got.loc[1, ["scheme", "domain", "path"]]) == [
        "http", "sub.site.org", "/",
    ]
    assert list(got.loc[2, ["scheme", "host", "path"]]) == [
        "", "example.net", "/path",
    ]
    assert list(got.loc[3, ["host", "path", "url_query"]]) == ["nopath.io", "", ""]
    assert list(got.loc[4, ["scheme", "host", "path"]]) == ["", "", ""]


def test_new_ops_property_invariants(ray_session):
    """Cross-op invariants on random text: disjoint chunking reconstructs
    the word stream; PII redaction is idempotent; url_parse round-trips;
    decontamination hits are monotone in the benchmark set."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.chunking import chunk_text
    from infidex_ray.ops.decontam import benchmark_ngram_hashes, decontaminate
    from infidex_ray.ops.pii import pii_redact_batch
    from infidex_ray.ops.urls import url_parse_batch

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)] + ["a@b.io", "10.0.0.1", "+12 345-678-90"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 60)))
        for _ in range(120)
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )
    ds = ray.data.from_arrow(tbl).repartition(4)

    # 1) disjoint chunk reconstruction
    ch = (
        chunk_text(ds, chunk_words=7)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
    )
    for did, sub in ch.groupby("doc_id"):
        assert " ".join(sub.chunk) == " ".join(texts[did].split())

    # 2) PII idempotence (vectorized batch fn, no Ray needed)
    once = pii_redact_batch(tbl)
    twice = pii_redact_batch(once.select(["doc_id", "text"]))
    assert twice["text"].to_pylist() == once["text"].to_pylist()
    assert pa.compute.sum(twice["n_emails"]).as_py() == 0
    assert pa.compute.sum(twice["n_ips"]).as_py() == 0

    # 3) url round-trip on well-formed urls
    urls = [f"https://Host{i}.org/p/{i}?x={i}" for i in range(50)]
    ut = pa.table({"i": pa.array(range(50), pa.int64()), "url": pa.array(urls)})
    parsed = url_parse_batch(ut, url_col="url")
    rebuilt = [
        f"{s}://{h}{p}?{q}"
        for s, h, p, q in zip(
            parsed["scheme"].to_pylist(), parsed["host"].to_pylist(),
            parsed["path"].to_pylist(), parsed["url_query"].to_pylist(),
        )
    ]
    assert rebuilt == urls

    # 4) decontam monotonicity: hashes of a superset benchmark give >= hits
    bench_small = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array([texts[0]])})
    )
    bench_big = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array([texts[0], texts[1]]),
            }
        )
    )
    h_small = benchmark_ngram_hashes(bench_small, n=3)
    h_big = benchmark_ngram_hashes(bench_big, n=3)
    assert set(h_small).issubset(set(h_big))
    d_small = decontaminate(ds, h_small, n=3).to_pandas().set_index("doc_id")
    d_big = decontaminate(ds, h_big, n=3).to_pandas().set_index("doc_id")
    assert (d_big.n_hits >= d_small.n_hits).all()
    assert (d_big.n_grams == d_small.n_grams).all()


def test_hashed_bow_long_vs_dense(ray_session):
    import ray.data

    from infidex_ray.ops.vectorize import hashed_bow, hashed_bow_dense

    docs = [
        {"doc_id": 1, "text": "alpha beta alpha gamma"},
        {"doc_id": 2, "text": "beta beta"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "  alpha\tbeta\nalpha gamma  "},
    ]
    ds = ray.data.from_items(docs)
    long = hashed_bow(ds, dim=32).to_pandas()
    # per-doc tf sums to the token count
    assert long[long.doc_id == 1].tf.sum() == 4
    assert long[long.doc_id == 2].tf.sum() == 2
    assert 3 not in set(long.doc_id)
    # whitespace-run tokenization: doc 4 == doc 1's multiset
    a = long[long.doc_id == 1].set_index("bucket").tf.sort_index()
    b = long[long.doc_id == 4].set_index("bucket").tf.sort_index()
    assert a.equals(b)

    dense = hashed_bow_dense(ray.data.from_items(docs), dim=32).to_pandas()
    vecs = {r.doc_id: np.asarray(r.vec, dtype=np.float32) for r in dense.itertuples()}
    assert all(len(v) == 32 for v in vecs.values())
    for d in (1, 2, 4):
        assert abs(np.linalg.norm(vecs[d]) - 1.0) < 1e-6
    assert np.linalg.norm(vecs[3]) == 0.0
    # dense == L2-normalized long-format counts
    raw = np.zeros(32, dtype=np.float32)
    for r in long[long.doc_id == 1].itertuples():
        raw[r.bucket] = r.tf
    np.testing.assert_allclose(vecs[1], raw / np.linalg.norm(raw), rtol=1e-6)


def test_domain_stats_and_blocklist(ray_session):
    import ray.data

    from infidex_ray.ops.urls import domain_stats, filter_domains, url_parse

    rows = [
        {"doc_id": i, "n_chars": 10 * i, "url": f"https://WWW.Site{i % 3}.org/p/{i}"}
        for i in range(12)
    ]
    parsed = url_parse(ray.data.from_items(rows))
    stats = domain_stats(parsed, size_col="n_chars").to_pandas().set_index("domain")
    assert stats.loc["site0.org", "n_docs"] == 4
    assert stats.loc["site1.org", "total_n_chars"] == 10 * (1 + 4 + 7 + 10)

    kept = filter_domains(parsed, ["site1.org"]).to_pandas()
    assert set(kept.domain) == {"site0.org", "site2.org"} and len(kept) == 8
    only = filter_domains(parsed, ["site1.org"], keep_listed=True).to_pandas()
    assert set(only.domain) == {"site1.org"} and len(only) == 4


def test_numeric_histogram(ray_session):
    import ray.data

    from infidex_ray.ops.histogram import numeric_histogram

    vals = [0.0, 0.5, 9.99, 10.0, 55.0, 99.999, 100.0, -1.0, 250.0]
    ds = ray.data.from_items([{"v": v} for v in vals])
    h = numeric_histogram(ds, "v", lo=0.0, hi=100.0, n_bins=10).to_pandas()
    h = h.set_index("bin")
    # in-range values only: 100.0, 250.0, -1.0 dropped
    assert h.n.sum() == 6
    assert h.loc[0, "n"] == 3  # 0.0, 0.5, 9.99
    assert h.loc[1, "n"] == 1  # 10.0
    assert h.loc[5, "n"] == 1  # 55.0
    assert h.loc[9, "n"] == 1  # 99.999
    assert h.loc[0, "lo_edge"] == 0.0 and h.loc[0, "hi_edge"] == 10.0
    assert 2 not in h.index  # empty bins omitted


def test_unigram_logprob(ray_session):
    import math

    import ray.data

    from infidex_ray.ops.lm import unigram_logprob, unigram_model

    rows = [
        {"doc_id": 0, "text": "the cat sat"},
        {"doc_id": 1, "text": "the the dog"},
        {"doc_id": 2, "text": ""},
    ]
    ds = ray.data.from_items(rows)
    out = unigram_logprob(ds).sort("doc_id").to_pandas()
    # counts: the=3 cat=1 sat=1 dog=1, total=6
    p = {"the": 3 / 6, "cat": 1 / 6, "sat": 1 / 6, "dog": 1 / 6}
    exp0 = -(math.log(p["the"]) + math.log(p["cat"]) + math.log(p["sat"])) / 3
    exp1 = -(2 * math.log(p["the"]) + math.log(p["dog"])) / 3
    assert out.n_tokens.tolist() == [3, 3, 0]
    assert abs(out.nll[0] - round(exp0, 4)) < 1e-9
    assert abs(out.nll[1] - round(exp1, 4)) < 1e-9
    assert out.nll[2] == 0.0

    # pruning: vocab_size=1 keeps only "the"; others hit the OOV floor 1/6
    out1 = unigram_logprob(ds, vocab_size=1).sort("doc_id").to_pandas()
    oov = math.log(1 / 6)
    exp1_pruned = -(2 * math.log(3 / 6) + oov) / 3
    assert abs(out1.nll[1] - round(exp1_pruned, 4)) < 1e-9

    # cross-corpus: train on doc 0 only; "dog" is OOV (floor 1/3)
    train = ray.data.from_items([rows[0]])
    tokens, logp, total, oov_logp = unigram_model(train)
    assert total == 3 and abs(oov_logp - math.log(1 / 3)) < 1e-12
    outx = unigram_logprob(ds, train_ds=train).sort("doc_id").to_pandas()
    expx = -(2 * math.log(1 / 3) + math.log(1 / 3)) / 3
    assert abs(outx.nll[1] - round(expx, 4)) < 1e-9


def test_dedup_against(ray_session):
    import ray.data

    from infidex_ray.ops.dedup import dedup_against

    corpus = ray.data.from_items(
        [
            {"doc_id": 0, "text": "alpha"},
            {"doc_id": 1, "text": "beta"},
            {"doc_id": 2, "text": "gamma"},
            {"doc_id": 3, "text": "alpha"},
            {"doc_id": 4, "text": ""},
        ]
    )
    ref = ray.data.from_items(
        [
            {"doc_id": 100, "text": "alpha"},
            {"doc_id": 101, "text": ""},
            {"doc_id": 102, "text": "delta"},
        ]
    )
    for broadcast in (True, False):
        out = dedup_against(corpus, ref, broadcast=broadcast).to_pandas()
        assert sorted(out.doc_id) == [1, 2], broadcast
        assert set(out.columns) == {"doc_id", "text"}

    # empty reference keeps everything
    empty_ref = ray.data.from_items([{"doc_id": 1, "text": "zzz"}]).filter(
        lambda r: False
    )
    kept = dedup_against(corpus, empty_ref, broadcast=True).to_pandas()
    assert sorted(kept.doc_id) == [0, 1, 2, 3, 4]


def test_extract_links_and_in_degrees(ray_session):
    import ray.data

    from infidex_ray.ops.html import extract_links, link_in_degrees

    rows = [
        {"doc_id": 0, "html": b'<a href="u1">x</a> <a href="u2">y</a> <a href="u1">z</a>'},
        {"doc_id": 1, "html": b'no links here'},
        {"doc_id": 2, "html": b'<a href="u2">q</a><a href="unclosed'},
        {"doc_id": 3, "html": None},
    ]
    links = extract_links(ray.data.from_items(rows)).to_pandas()
    got = sorted(map(tuple, links[["doc_id", "href"]].itertuples(index=False)))
    # duplicates collapse; unclosed href dropped; null html yields nothing
    assert got == [(0, "u1"), (0, "u2"), (2, "u2")]

    deg = (
        link_in_degrees(extract_links(ray.data.from_items(rows)))
        .to_pandas()
        .set_index("href")
    )
    assert deg.loc["u1", "in_degree"] == 1 and deg.loc["u2", "in_degree"] == 2


def test_tfidf_keywords(ray_session):
    import math

    import ray.data

    from infidex_ray.ops.vectorize import tfidf_keywords

    rows = [
        {"doc_id": 0, "text": "apple apple banana common"},
        {"doc_id": 1, "text": "banana cherry common"},
        {"doc_id": 2, "text": "common common"},
    ]
    out = (
        tfidf_keywords(ray.data.from_items(rows), k=2)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    # df: apple=1 banana=2 cherry=1 common=3; N=3 → idf(common)=0
    la, lb = math.log(3 / 1), math.log(3 / 2)
    d0 = out[out.doc_id == 0]
    assert list(d0.token) == ["apple", "banana"]
    assert abs(d0.score.iloc[0] - round(2 * la, 4)) < 1e-9
    assert abs(d0.score.iloc[1] - round(lb, 4)) < 1e-9
    d1 = out[out.doc_id == 1]
    assert list(d1.token) == ["cherry", "banana"]  # ln3 > ln1.5
    d2 = out[out.doc_id == 2]
    # common has idf 0 but is still doc 2's only (hence top) keyword
    assert list(d2.token) == ["common"] and d2.score.iloc[0] == 0.0


def test_pagerank(ray_session):
    import ray.data

    from infidex_ray.ops.graph import pagerank

    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0 (classic 3-node example)
    edges = [(0, 1), (0, 2), (1, 2), (2, 0)]
    ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
    out = pagerank(ds, num_iters=3).to_pandas().set_index("node")["rank"]

    # literal reference: r <- 0.05 + 0.85 * sum_in r/od, 3 iterations
    import numpy as np

    r = {n: 1 / 3 for n in (0, 1, 2)}
    od = {0: 2.0, 1: 1.0, 2: 1.0}
    for _ in range(3):
        c = {n: 0.0 for n in r}
        for s, d in edges:
            c[d] += r[s] / od[s]
        r = {n: (1 - 0.85) / 3 + 0.85 * c[n] for n in r}
    for n in (0, 1, 2):
        assert abs(out.loc[n] - round(r[n], 4)) < 1e-9, (n, out.loc[n], r[n])
    # ranks are a probability-ish mass: all positive, 2 is the sink-heavy node
    assert out.loc[2] > out.loc[0] > out.loc[1]


def test_mix_corpora(ray_session):
    import ray.data

    from infidex_ray.ops.dedup import _md5_u64
    from infidex_ray.ops.sampling import mix_corpora

    docs = ray.data.from_items([{"doc_id": i} for i in range(300)])
    out = mix_corpora([("a", docs, 0.5), ("b", docs, 0.2)]).to_pandas()
    for src, rate in (("a", 0.5), ("b", 0.2)):
        got = set(out[out.mix_source == src].doc_id)
        exp = {
            i for i in range(300)
            if _md5_u64(f"mix:{src}:{i}") % 1_000_000 < rate * 1_000_000
        }
        assert got == exp, src
    # independent salts: the two draws are not nested/correlated copies
    a = set(out[out.mix_source == "a"].doc_id)
    b = set(out[out.mix_source == "b"].doc_id)
    assert not b <= a or len(b) == 0 or a != b


def test_ngram_containment_pairs(ray_session):
    import ray.data

    from infidex_ray.ops.dedup import ngram_containment_pairs, ngram_jaccard_pairs

    long = "the quick brown fox jumps over the lazy dog " * 5
    rows = [
        {"doc_id": 0, "text": long},
        {"doc_id": 1, "text": "the quick brown fox"},  # contained in 0
        {"doc_id": 2, "text": "completely different words entirely"},
    ]
    ds = ray.data.from_items(rows)
    cont = ngram_containment_pairs(ds, threshold=0.9).to_pandas()
    assert [(r.id_a, r.id_b) for r in cont.itertuples()] == [(0, 1)]
    assert cont.containment.iloc[0] == 1.0  # every 3-gram of 1 is in 0
    # jaccard misses the same pair at any useful threshold
    jac = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    assert len(jac) == 0


def test_phrase_scan_and_filter(ray_session):
    import ray.data

    from infidex_ray.ops.phrases import phrase_filter, phrase_scan

    rows = [
        {"doc_id": 0, "text": "the quick brown fox"},
        {"doc_id": 1, "text": "quick quick quick"},  # distinct phrases, not hits
        {"doc_id": 2, "text": "nothing here"},
        {"doc_id": 3, "text": None},
    ]
    ds = ray.data.from_items(rows)
    out = (
        phrase_scan(ds, ["quick", "brown fox", "zebra"])
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.n_phrases_hit.tolist() == [2, 1, 0, 0]
    assert out.flagged.tolist() == [True, True, False, False]

    kept = phrase_filter(ds, ["quick"]).to_pandas()
    assert sorted(kept.doc_id) == [2, 3]
    only = phrase_filter(ds, ["quick"], keep_flagged=True).to_pandas()
    assert sorted(only.doc_id) == [0, 1]


def test_tfidf_keywords_pruned_vocab(ray_session):
    import ray.data

    from infidex_ray.ops.vectorize import tfidf_keywords

    rows = [
        {"doc_id": 0, "text": "apple apple banana common"},
        {"doc_id": 1, "text": "banana cherry common"},
        {"doc_id": 2, "text": "common common"},
    ]
    # max_vocab=2 keeps (common df=3, banana df=2); apple/cherry are OOV
    out = (
        tfidf_keywords(ray.data.from_items(rows), k=2, max_vocab=2)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
    )
    assert set(out.token) <= {"common", "banana"}
    d0 = out[out.doc_id == 0]
    assert list(d0.token) == ["banana", "common"]


def test_profile_columns(ray_session):
    import ray.data

    from infidex_ray.ops.profile import profile_columns

    rows = [
        {"doc_id": 0, "lang": "en", "v": 1.5},
        {"doc_id": 1, "lang": "en", "v": None},
        {"doc_id": 2, "lang": None, "v": 1.5},
        {"doc_id": 3, "lang": "de", "v": 2.0},
    ]
    out = (
        profile_columns(ray.data.from_items(rows), ["doc_id", "lang", "v"])
        .to_pandas()
        .set_index("column")
    )
    assert out.loc["doc_id"].tolist() == [4, 0, 4]
    assert out.loc["lang"].tolist() == [4, 1, 2]
    assert out.loc["v"].tolist() == [4, 1, 2]
    assert list(out.index) == ["doc_id", "lang", "v"]  # sorted


def test_profile_columns_float_distinct_matches_duckdb(ray_session):
    """n_distinct on floats is SQL count(DISTINCT): 0.0 and -0.0 are one
    value, and so are NaNs with different payloads."""
    import duckdb
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.profile import profile_columns

    nan_a, nan_b = np.array(
        [0x7FF8000000000000, 0x7FF8000000000123], np.uint64
    ).view(np.float64)
    t = pa.table({"v": pa.array([0.0, -0.0, 1.0, nan_a, nan_b], pa.float64())})
    want = duckdb.sql("SELECT count(DISTINCT v) FROM t").fetchone()[0]
    out = profile_columns(ray.data.from_arrow(t), ["v"]).to_pandas()
    assert out["n_distinct"].tolist() == [want] == [3]


def test_frame_sample_fake_plumbing(ray_session):
    import ray.data

    from infidex_ray.ops.multimodal import frame_sample

    rows = [
        {"doc_id": 0, "media": b"x" * 10},   # 10 % 97 + 1 = 11 frames → 0
        {"doc_id": 1, "media": b"y" * 130},  # 130 % 97 + 1 = 34 → 0, 30
        {"doc_id": 2, "media": None},        # 0 bytes → 1 frame → 0
    ]
    out = (
        frame_sample(ray.data.from_items(rows), stride=30, fake=True)
        .to_pandas()
        .sort_values(["doc_id", "frame_idx"])
        .reset_index(drop=True)
    )
    got = [(r.doc_id, r.frame_idx, r.ts_ms, r.n_frames) for r in out.itertuples()]
    assert got == [(0, 0, 0, 11), (1, 0, 0, 34), (1, 30, 1000, 34), (2, 0, 0, 1)]


def test_curate_webtext_pipeline(ray_session):
    import ray.data

    from infidex_ray.pipelines import curate_webtext

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    bench = docs.filter(lambda r: r["doc_id"] % 97 == 0)
    out = curate_webtext(
        docs, bench=bench, langs=("en",), min_quality=0.2,
        chunk_words=64, pack_capacity=256, decontam_n=3,
    )
    df = out.to_pandas()
    assert len(df) > 0
    assert {"doc_id", "chunk_id", "n_tokens", "bucket", "bin"} <= set(df.columns)
    # packing invariant: per (bucket, bin) token sums within capacity unless
    # a single oversized chunk owns the bin
    sums = df.groupby(["bucket", "bin"]).n_tokens.agg(["sum", "count", "max"])
    bad = sums[(sums["sum"] > 256) & (sums["count"] > 1)]
    assert bad.empty


def test_audio_features_fake_plumbing(ray_session):
    import ray.data

    from infidex_ray.ops.multimodal import audio_features

    rows = [
        {"doc_id": 0, "media": b"x" * 16000},  # 1000 ms → (1000-25)//10+1 = 98
        {"doc_id": 1, "media": b"y" * 160},    # 10 ms → 0 windows
        {"doc_id": 2, "media": None},
    ]
    out = (
        audio_features(ray.data.from_items(rows), fake=True)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0].tolist() == [16000, 1000, 98]
    assert out.loc[1].tolist() == [160, 10, 0]
    assert out.loc[2].tolist() == [0, 0, 0]


def test_pagerank_empty_and_unigram_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.graph import pagerank
    from infidex_ray.ops.lm import unigram_logprob

    empty_edges = ray.data.from_arrow(
        pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
    )
    assert pagerank(empty_edges).count() == 0

    empty_docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    assert unigram_logprob(empty_docs).count() == 0

    # all-empty-text corpus: total==0 path (no tokens anywhere)
    blank = ray.data.from_items([{"doc_id": 0, "text": ""}])
    out = unigram_logprob(blank).to_pandas()
    assert out.n_tokens.tolist() == [0] and out.nll.tolist() == [0.0]


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_containment_matches_bruteforce(ray_session, seed):
    import random

    import ray.data

    from infidex_ray.ops.dedup import (
        _char_shingle_hashes,
        ngram_containment_pairs,
        round_half_up4,
    )

    rng = random.Random(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    rows = []
    for i in range(14):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        rows.append({"doc_id": i, "text": " ".join(words)})
    got = ngram_containment_pairs(
        ray.data.from_items(rows), threshold=0.7, rare_shingle_cap=1000
    ).to_pandas()
    got_pairs = {
        (r.id_a, r.id_b): r.containment for r in got.itertuples()
    }

    sets = {r["doc_id"]: set(_char_shingle_hashes(r["text"], 3)) for r in rows}
    exp = {}
    for a in range(14):
        for b in range(a + 1, 14):
            sa, sb = sets[a], sets[b]
            denom = min(len(sa), len(sb))
            c = len(sa & sb) / denom if denom else 0.0
            if c >= 0.7:
                exp[(a, b)] = round_half_up4(c)
    assert set(got_pairs) == set(exp), (seed, got_pairs, exp)
    for k in exp:
        assert abs(got_pairs[k] - exp[k]) < 1e-9


@pytest.mark.parametrize("seed", [3, 11])
def test_dedup_against_matches_set_difference(ray_session, seed):
    import random

    import ray.data

    from infidex_ray.ops.dedup import dedup_against

    rng = random.Random(seed)
    texts = [f"t{rng.randint(0, 9)}" for _ in range(30)]
    corpus = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ref_texts = {f"t{rng.randint(0, 9)}" for _ in range(5)}
    ref = [{"doc_id": 100 + j, "text": t} for j, t in enumerate(sorted(ref_texts))]
    out = dedup_against(
        ray.data.from_items(corpus), ray.data.from_items(ref)
    ).to_pandas()
    exp = {r["doc_id"] for r in corpus if r["text"] not in ref_texts}
    assert set(out.doc_id) == exp, seed


def test_canonical_url(ray_session):
    import ray.data

    from infidex_ray.ops.urls import canonical_url

    cases = {
        "HTTPS://WWW.Ex.com/P/?utm_source=x&a=1#f": "https://www.ex.com/P/?a=1",
        "http://s.org/p?a=1&utm_campaign=z": "http://s.org/p?a=1",
        "https://h.com/": "https://h.com",
        "host.com/NoScheme?ref=abc": "host.com/NoScheme",
        "https://h.com/p?a=1&b=2": "https://h.com/p?a=1&b=2",
        "": "",
    }
    rows = [{"i": i, "url": u} for i, u in enumerate(cases)]
    out = canonical_url(ray.data.from_items(rows)).to_pandas().sort_values("i")
    got = dict(zip([r["url"] for r in rows], out.canonical_url))
    assert got == cases


def test_multimodal_real_codec_path(ray_session):
    """Exercises the REAL PIL decode path of ImageFeatureActor — skipped in
    codec-free containers (VERDICT r3 item 10: the real path must have a
    test that activates wherever PIL is importable)."""
    import pytest

    PIL = pytest.importorskip("PIL.Image")
    import io

    import numpy as np
    import ray.data

    from infidex_ray.ops.multimodal import image_features

    def png(w, h, val):
        img = PIL.new("RGB", (w, h), (val, val, val))
        buf = io.BytesIO()
        img.save(buf, format="PNG")
        return buf.getvalue()

    rows = [
        {"doc_id": i, "media": png(8 + i, 6 + i, (i * 37) % 256)}
        for i in range(8)
    ]
    df = image_features(ray.data.from_items(rows), concurrency=2).to_pandas()
    assert sorted(df.doc_id) == list(range(8))
    assert list(df.sort_values("doc_id").width) == [8 + i for i in range(8)]
    assert all(abs(sum(f) - 1.0) < 1e-5 for f in df.feature)  # L1-normalized


def test_chained_join_deadlock_probe():
    """Reproduces the Ray 2.49 chained-Dataset.join deadlock shape (chained
    joins with num_partitions > ~CPUs/2 hang) so the `join_partitions` cap
    can be deleted once a Ray release passes this probe.

    The probe runs in a SUBPROCESS with a kill timeout (a deadlock would
    otherwise hang the suite) and only under INFIDEX_PROBE_JOIN_DEADLOCK=1.
    Semantics: if the subprocess completes, the running Ray is clean — the
    version gate in `_ray_chained_join_deadlock` should then be bumped."""
    import os
    import subprocess
    import sys

    import pytest

    if os.environ.get("INFIDEX_PROBE_JOIN_DEADLOCK") != "1":
        pytest.skip("set INFIDEX_PROBE_JOIN_DEADLOCK=1 to run the probe")

    code = r"""
import ray, ray.data, pyarrow as pa, numpy as np
ray.init(address="local", num_cpus=4, include_dashboard=False)
n = 20000
docs = ray.data.from_arrow(pa.table({"doc_id": np.arange(n), "v": np.arange(n)*1.0})).map_batches(lambda b: b, batch_format="pyarrow")
pairs = ray.data.from_arrow(pa.table({"id_a": np.arange(n), "id_b": (np.arange(n)+1)%n})).map_batches(lambda b: b, batch_format="pyarrow")
# chained joins in ONE plan with partitions several x CPUs: reproduced hang
# on Ray 2.49 at P=24/4 CPUs (P=8/4 CPUs completes — the hang needs enough
# aggregator actors to starve the scheduler)
P = 24
j1 = pairs.join(docs, "inner", P, on=("id_a",), right_on=("doc_id",))
j2 = j1.join(docs, "inner", P, on=("id_b",), right_on=("doc_id",),
             left_suffix="_a", right_suffix="_b")
print("ROWS", j2.count())
ray.shutdown()
"""
    try:
        res = subprocess.run(
            [sys.executable, "-c", code],
            timeout=120,
            capture_output=True,
            text=True,
            cwd="/root/repo",
        )
    except subprocess.TimeoutExpired:
        # deadlock reproduced: the workaround cap is still required
        return
    if res.returncode == 0 and "ROWS" in res.stdout:
        from infidex_ray.ops.dataflow import _ray_chained_join_deadlock

        assert not _ray_chained_join_deadlock(), (
            "chained-join deadlock no longer reproduces on this Ray — bump "
            "the version gate in ops/dataflow._ray_chained_join_deadlock and "
            "delete the cap"
        )


def test_no_remote_function_defined_per_call():
    """Every ``ray.remote`` in the package is made once per process: at
    module level or inside a ``functools.cache``d factory. One made inside
    a function registers a new task type on every call."""
    import ast
    import pathlib

    def is_remote(node) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "remote"
            and isinstance(node.value, ast.Name)
            and node.value.id == "ray"
        )

    def is_cached(fn) -> bool:
        for d in fn.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            name = d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")
            if name in ("cache", "lru_cache"):
                return True
        return False

    bad = []

    def walk(node, fns, path):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if fns and any(is_remote(d) for d in ch.decorator_list):
                    bad.append(f"{path}:{ch.lineno}")
                inner = fns + [ch] if not isinstance(ch, ast.ClassDef) else fns
                walk(ch, inner, path)
                continue
            if isinstance(ch, ast.Call) and is_remote(ch.func) and fns:
                if not is_cached(fns[-1]):
                    bad.append(f"{path}:{ch.lineno}")
            walk(ch, fns, path)

    root = pathlib.Path(__file__).resolve().parents[1] / "infidex_ray"
    for py in sorted(root.rglob("*.py")):
        walk(ast.parse(py.read_text()), [], py.relative_to(root.parent))
    assert not bad, f"ray.remote made per call at: {bad}"


def test_slice_of_is_a_function_of_the_key():
    """Each key gets one slice in [0, n) whatever the batch boundaries and
    chunking: SQL-equal floats (-0.0/0.0, NaN payloads) and nulls
    included, for single columns and pairs."""
    import pyarrow as pa

    from infidex_ray.ops.dataflow import slice_of

    nan2 = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]
    cols = [
        pa.array(["a", "", None, "héllo", "日本語", "a", "", None, "ab" * 40]),
        pa.array([0, None, -5, 2**40, 0, None, 7, -5, 3], pa.int64()),
        pa.array([0.0, -0.0, float("nan"), nan2, 1.5, None, 1.5, -0.0, 2.0]),
    ]
    pair = (cols[1], cols[0])
    for n in (1, 7, 16, 64):
        for keys in [(c,) for c in cols] + [pair]:
            whole = slice_of(n, *keys)
            assert whole.dtype == np.int32
            assert ((whole >= 0) & (whole < n)).all()
            for cut in (1, 4, 8):  # two batches, and one chunked column
                parts = np.concatenate(
                    [
                        slice_of(n, *(k[:cut] for k in keys)),
                        slice_of(n, *(k[cut:] for k in keys)),
                    ]
                )
                chunked = slice_of(
                    n, *(pa.chunked_array([k[:cut], k[cut:]]) for k in keys)
                )
                assert (parts == whole).all() and (chunked == whole).all()
            # equal keys (by SQL equality for floats) share a slice
            rows = list(zip(*(k.to_pylist() for k in keys)))
            canon = [
                tuple("nan" if v != v else (0.0 if v == 0 else v) for v in r)
                for r in rows
            ]
            for i in range(len(rows)):
                for j in range(len(rows)):
                    if canon[i] == canon[j]:
                        assert whole[i] == whole[j], (keys, i, j)
        # numpy columns route like their Arrow equivalents
        as_np = slice_of(n, np.array([3, -1], np.int64))
        assert (as_np == slice_of(n, pa.array([3, -1]))).all()
    # strided ids (sharded or paged allocators) still spread: the low bits
    # of a multiply-mix alone would put multiples of 64 in one slice
    for stride in (16, 64):
        ids = np.arange(0, 1000 * stride, stride, dtype=np.int64)
        for n in (16, 64):
            assert len(set(slice_of(n, ids))) == n, (stride, n)
            assert len(set(slice_of(n, ids, ids))) == n, (stride, n)


def test_sorted_blocks_skip_empty_sort_blocks(ray_session):
    """All rows share the sort key, so Ray's sort leaves all but one
    output block empty; ``sorted_blocks`` returns only the non-empty ones,
    with sizes and offsets that add up to the row count."""
    import ray
    import ray.data

    from infidex_ray.ops.dataflow import on_blocks, sorted_blocks

    ds = ray.data.from_items(
        [{"k": 1, "id": i} for i in range(12)], override_num_blocks=4
    )
    assert ds.sort("k").materialize().num_blocks() > 1
    refs, sizes, offsets = sorted_blocks(ds, ["k", "id"], columns=["id", "k"])
    assert len(refs) == len(sizes) == len(offsets) >= 1
    assert (sizes > 0).all() and int(sizes.sum()) == 12
    assert offsets.tolist() == (np.cumsum(sizes) - sizes).tolist()
    firsts = ray.get(on_blocks(lambda t, o: (o, t["id"][0].as_py()), refs, offsets))
    assert firsts == [(int(o), int(o)) for o in offsets]  # id == row number
    refs, sizes, offsets = sorted_blocks(ds.filter(lambda r: False), "k")
    assert refs == [] and len(sizes) == len(offsets) == 0


def test_join_with_an_empty_side_is_typed(ray_session):
    """``dataflow.join`` never hands Ray an empty side: each ``how`` the
    ops use gives its pyarrow-typed result, whether or not the left side
    streams."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dataflow import join, typed_empty, uniform

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()), "a": ["x", "y"]})
    )
    right = typed_empty({"k2": pa.int64(), "b": pa.float64()})
    want = {
        "inner": ([], {"k": pa.int64(), "a": pa.string(), "b": pa.float64()}),
        "left_semi": ([], {"k": pa.int64(), "a": pa.string()}),
        "left_anti": ([1, 2], {"k": pa.int64(), "a": pa.string()}),
        "left_outer": ([1, 2], {"k": pa.int64(), "a": pa.string(), "b": pa.float64()}),
    }
    for how, (keys, schema) in want.items():
        for stream in (None, "left"):  # a streamed corpus side: same result
            out = join(left, right, how, "k", right_on="k2", stream=stream)
            got = out.to_arrow_refs()
            tbl = pa.concat_tables(
                [ray.get(r) for r in got] or [pa.schema(schema).empty_table()]
            )
            assert sorted(tbl["k"].to_pylist()) == keys, (how, stream)
            assert dict(zip(tbl.schema.names, tbl.schema.types)) == schema, how
            if how == "left_outer":
                assert tbl["b"].null_count == 2
    # nothing to drop: the streamed side comes back as given, not a copy
    lazy = left.map_batches(lambda t: t, batch_format="pyarrow")
    assert join(lazy, right, "left_anti", "k", right_on="k2", stream="left") is lazy
    # a streamed right side joins a non-empty left like a normalized one
    big = ray.data.from_arrow(pa.table({"k": pa.array([2, 3]), "c": [0.5, 1.5]}))
    rows = join(left, big, "inner", "k", stream="right").to_pandas()
    assert rows[["k", "a", "c"]].values.tolist() == [[2, "y", 0.5]]
    # a sparse groupby leaves empty blocks: uniform rewrites them once, and
    # a second call copies nothing
    sparse = ray.data.range(3).groupby("id").count().materialize()
    u = uniform(sparse, 8)
    assert sorted(u.to_pandas()["id"]) == [0, 1, 2]

    def block_refs(d):
        return [r for b in d.iter_internal_ref_bundles() for r, _ in b.blocks]

    assert block_refs(uniform(u, 8)) == block_refs(u)
    assert block_refs(u) != block_refs(sparse)
    # empty LEFT side: every how gives no rows, typed
    out = join(right, left, "inner", "k2", right_on="k")
    assert out.count() == 0
    assert out.schema().base_schema.names == ["k2", "b", "a"]


def test_char_entropy_brute(ray_session):
    import math

    import ray.data

    from infidex_ray.ops.textstats import char_entropy

    rows = [
        {"doc_id": 0, "text": ""},
        {"doc_id": 1, "text": "aaaa"},
        {"doc_id": 2, "text": "ab"},
        {"doc_id": 3, "text": "abcd"},
        {"doc_id": 4, "text": "aab"},
    ]
    df = char_entropy(ray.data.from_items(rows)).to_pandas().sort_values("doc_id")
    assert list(df.n_chars_raw) == [0, 4, 2, 4, 3]
    assert abs(df.entropy.iloc[1] - 0.0) < 1e-9  # single repeated char
    assert abs(df.entropy.iloc[2] - round(math.log(2), 4)) < 1e-9
    assert abs(df.entropy.iloc[3] - round(math.log(4), 4)) < 1e-9
    want = math.log(3) - (2 * math.log(2)) / 3
    assert abs(df.entropy.iloc[4] - round(want, 4)) < 1e-4


def test_collocations_pmi(ray_session):
    import ray.data

    from infidex_ray.ops.textstats import collocations

    docs = ["new york " * 6, "the cat the dog the car the cat the dog", "new york"]
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in enumerate(docs)])
    df = collocations(ds, min_count=2, top_k=10).to_pandas()

    # brute-force PMI reference
    import math
    from collections import Counter

    bg = Counter()
    for t in docs:
        ws = t.split()
        bg.update(zip(ws, ws[1:]))
    n = sum(bg.values())
    lx, rx = Counter(), Counter()
    for (a, b), c in bg.items():
        lx[a] += c
        rx[b] += c
    want = sorted(
        (
            (round(math.log(c * n / (lx[a] * rx[b])) * 1e4) / 1e4, a, b, c)
            for (a, b), c in bg.items()
            if c >= 2
        ),
        key=lambda r: (-r[0], r[1], r[2]),
    )[:10]
    got = list(zip(df.pmi, df.w1, df.w2, df.c))
    assert [(a, b, c) for _, a, b, c in got] == [(a, b, c) for _, a, b, c in want]
    assert all(abs(g[0] - w[0]) < 1e-9 for g, w in zip(got, want))
    assert ("new", "york") in {(a, b) for _, a, b, _ in got}


def test_event_order_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from infidex_ray.ops.windows import event_order

    events = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    got = (
        event_order(events)
        .to_pandas()
        .sort_values(["user_id", "rank"])
        .reset_index(drop=True)
    )
    ref = events.to_pandas()
    ref["ts_us"] = pd.to_datetime(ref.ts).astype("datetime64[us]").astype("int64")
    ref = ref.sort_values(["user_id", "ts_us", "event_id"]).reset_index(drop=True)
    ref["rank"] = ref.groupby("user_id").cumcount() + 1
    ref["gap_us"] = ref.groupby("user_id")["ts_us"].diff().fillna(-1).astype("int64")
    for col in ("event_id", "ts_us", "rank", "gap_us"):
        assert list(got[col]) == list(ref[col]), col


def test_dedup_lines_first_occurrence(ray_session):
    """Planted dup lines: first occurrence (min doc, then min line) wins;
    within-doc repeats dropped; blank lines always survive."""
    import ray.data

    from infidex_ray.ops.dedup import dedup_lines

    rows = [
        {"doc_id": 0, "text": "alpha\nbeta\nalpha\n\ngamma"},  # self-dup alpha
        {"doc_id": 1, "text": "beta\ndelta"},  # beta already in doc 0
        {"doc_id": 2, "text": "unique line\n  \ngamma"},  # gamma in doc 0
        {"doc_id": 3, "text": ""},
    ]
    got = {
        r["doc_id"]: r["text"]
        for r in dedup_lines(ray.data.from_items(rows)).take_all()
    }
    assert got[0] == "alpha\nbeta\n\ngamma"
    assert got[1] == "delta"
    assert got[2] == "unique line\n  "
    assert got[3] == ""


def test_duplicate_spans_brute_force(ray_session):
    """Differential vs a Python-set reference: per-doc duplicated n-gram
    position counts, the short-doc zero contract, and within-doc-repeat
    semantics (a gram duplicated across docs counts EVERY position it
    occupies; a gram repeated only within one doc does not count at all)."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.spans import duplicate_spans

    texts = [
        "a b c d e f",  # shares "a b c" and "b c d" with doc 1
        "x a b c d y",
        "a b c a b c z",  # "a b c" twice (both positions count) + "b c a", "c a b" only here
        "p q",  # < n words: zero grams
        "",  # empty
        "unique words only here nothing shared",
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        )
    ).repartition(3)
    out = {
        r["doc_id"]: r
        for r in duplicate_spans(ds, n=3).take_all()
    }

    # brute-force reference
    grams = {}
    for i, t in enumerate(texts):
        ws = t.split()
        for p in range(max(len(ws) - 2, 0)):
            grams.setdefault(" ".join(ws[p : p + 3]), set()).add(i)
    dup = {g for g, docs in grams.items() if len(docs) >= 2}
    for i, t in enumerate(texts):
        ws = t.split()
        total = max(len(ws) - 2, 0)
        hits = sum(
            1 for p in range(total) if " ".join(ws[p : p + 3]) in dup
        )
        assert out[i]["total_ngrams"] == total, i
        assert out[i]["dup_ngrams"] == hits, i
        exp_frac = round(hits / total, 4) if total else 0.0
        assert abs(out[i]["dup_frac"] - exp_frac) < 1e-9, i
    # sanity on the interesting rows
    assert out[2]["dup_ngrams"] == 2 and out[2]["total_ngrams"] == 5
    assert out[3]["dup_ngrams"] == 0 and out[3]["total_ngrams"] == 0


def test_duplicate_spans_no_duplicates(ray_session):
    """All-unique corpus exercises the empty-dup-gram-set fast path (the
    schema-less empty join side guard)."""
    import ray.data

    from infidex_ray.ops.spans import duplicate_spans

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta"},
        {"doc_id": 1, "text": "epsilon zeta eta theta"},
    ]
    out = duplicate_spans(ray.data.from_items(rows), n=3).take_all()
    assert sorted((r["doc_id"], r["total_ngrams"], r["dup_ngrams"]) for r in out) == [
        (0, 2, 0),
        (1, 2, 0),
    ]


def test_kmeans_brute_force(ray_session):
    """Differential vs a single-process numpy Lloyd reference with the same
    contract (init = k smallest ids, squared-euclidean argmin with
    lowest-cluster ties, empty clusters keep their centroid)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.clustering import kmeans

    rng = np.random.RandomState(7)
    n, dim, k, iters = 60, 5, 3, 4
    vecs = np.round(rng.randn(n, dim), 3)
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array([v.tolist() for v in vecs]),
            }
        )
    ).repartition(4)
    cents, labeled = kmeans(ds, k=k, iters=iters)
    got = {r["vec_id"]: r["cluster"] for r in labeled.take_all()}

    ref = vecs[:k].astype(np.float64).copy()
    for _ in range(iters):
        d2 = ((vecs[:, None, :] - ref[None]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        for j in range(k):
            if (a == j).any():
                ref[j] = vecs[a == j].mean(axis=0)
    d2 = ((vecs[:, None, :] - ref[None]) ** 2).sum(axis=2)
    expect = np.argmin(d2, axis=1)
    assert got == {int(i): int(c) for i, c in zip(ids, expect)}
    assert np.allclose(np.sort(cents, axis=0), np.sort(ref, axis=0))


def test_kmeans_empty_cluster_and_small_corpus(ray_session):
    """An isolated far-away init point keeps its centroid when it captures
    nothing after reassignment; k > n raises."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from infidex_ray.ops.clustering import kmeans

    # ids 0 and 1 are IDENTICAL points, so init centroids 0 and 1 coincide;
    # every tie breaks to cluster 0, cluster 1 never captures a member and
    # must keep its (0,0) init centroid through both iterations
    vecs = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 6.0], [6.0, 5.0]]
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": v} for i, v in enumerate(vecs)]
    )
    cents, labeled = kmeans(ds, k=3, iters=2)
    out = {r["vec_id"]: r["cluster"] for r in labeled.take_all()}
    assert out == {0: 0, 1: 0, 2: 2, 3: 2, 4: 2}
    assert np.allclose(cents[1], [0.0, 0.0])  # empty cluster kept its init
    with pytest.raises(ValueError):
        kmeans(ds, k=9, iters=1)


def test_embedding_outliers_brute_force(ray_session):
    """Per-cluster farthest-n matches a single-process reference: run the
    same Lloyd contract, then for every cluster take the top_n largest
    ROUNDED dist2 (ties → lowest id), rank 1-based."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.clustering import embedding_outliers

    rng = np.random.RandomState(11)
    n, dim, k, iters, top_n = 80, 4, 3, 3, 4
    vecs = np.round(rng.randn(n, dim), 3)
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array([v.tolist() for v in vecs]),
            }
        )
    ).repartition(5)
    out = embedding_outliers(ds, k=k, iters=iters, top_n=top_n).take_all()
    got = sorted((r["cluster"], r["rank"], r["vec_id"], r["dist2"]) for r in out)

    ref = vecs[:k].astype(np.float64).copy()
    for _ in range(iters):
        d2 = ((vecs[:, None, :] - ref[None]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        for j in range(k):
            if (a == j).any():
                ref[j] = vecs[a == j].mean(axis=0)
    d2 = ((vecs[:, None, :] - ref[None]) ** 2).sum(axis=2)
    a = np.argmin(d2, axis=1)
    raw = d2[np.arange(n), a]
    best = np.copysign(np.floor(np.abs(raw) * 1e4 + 0.5) / 1e4, raw)
    expect = []
    for c in range(k):
        members = [(float(best[i]), int(i)) for i in ids if a[i] == c]
        members.sort(key=lambda t: (-t[0], t[1]))
        for rank, (dd, i) in enumerate(members[:top_n], 1):
            expect.append((c, rank, i, dd))
    assert got == sorted(expect)


def test_script_profile_counts(ray_session):
    """Known mixed-script strings: exact class counts, codepoint length,
    rounded latin fraction, null text."""
    import ray.data

    from infidex_ray.ops.textstats import script_profile

    rows = [
        {"doc_id": 0, "text": "abc Привет 你好 12!"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": None},
        {"doc_id": 3, "text": "café"},  # é is Latin AND non-ASCII
    ]
    out = {r["doc_id"]: r for r in script_profile(ray.data.from_items(rows)).take_all()}
    r0 = out[0]
    assert r0["n_chars"] == len("abc Привет 你好 12!")
    assert r0["n_latin"] == 3
    assert r0["n_cyrillic"] == 6
    assert r0["n_han"] == 2
    assert r0["n_digit"] == 2
    assert r0["n_nonascii"] == 8
    assert r0["latin_frac"] == round(3 / r0["n_chars"], 4)
    assert out[1]["n_chars"] == 0 and out[1]["latin_frac"] == 0.0
    assert out[2]["n_chars"] == 0
    assert out[3]["n_latin"] == 4 and out[3]["n_nonascii"] == 1


def test_split_sentences_explode(ray_session):
    """Terminator-consumed split, per-doc reindex after empty drop, no rows
    for empty docs, ASCII-whitespace boundary (NBSP does NOT split)."""
    import ray.data

    from infidex_ray.ops.chunking import split_sentences

    rows = [
        {"doc_id": 0, "text": "one two. three four! five"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "tail dot."},  # end-of-string '.' not a boundary
        {"doc_id": 3, "text": "a?\xa0b. c"},  # NBSP after '?' -> not a split
    ]
    got = [
        (r["doc_id"], r["sent_idx"], r["sentence"])
        for r in split_sentences(ray.data.from_items(rows)).take_all()
    ]
    got.sort()
    assert got == [
        (0, 0, "one two"),
        (0, 1, "three four"),
        (0, 2, "five"),
        (2, 0, "tail dot."),
        (3, 0, "a? b"),
        (3, 1, "c"),
    ]


def test_dedup_against_minhash_cross_only(ray_session):
    """Planted cross-corpus near-dups: corpus docs matching one or BOTH
    reference docs are flagged with the right match count and max Jaccard;
    in-corpus near-dup pairs alone do NOT flag; id overlap between corpus
    and reference is harmless (internal key transform)."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_against_minhash, word_shingles

    base = (
        "the quick brown fox jumps over the lazy dog while the cat "
        "sleeps on the warm mat near the old wooden door frame today"
    )
    ref_texts = {100: base, 101: base.replace("dog", "wolf")}
    corpus_texts = {
        0: base,  # matches BOTH reference docs
        1: base.replace("today", "tonight"),  # near-dup of both too
        2: "completely different text about ray data pipelines and arrow",
        # 3 and 4 are near-dups of each other but of NO reference doc:
        3: "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        4: "alpha beta gamma delta epsilon zeta eta theta iota lambda",
        100: "unrelated content sharing the reference id on purpose",
    }
    corpus = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in corpus_texts.items()]
    ).repartition(2)
    ref = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in ref_texts.items()]
    )
    out = {
        r["doc_id"]: r
        for r in dedup_against_minhash(corpus, ref, threshold=0.5).take_all()
    }
    assert len(out) == len(corpus_texts)

    def jac(a, b):
        sa, sb = word_shingles(a), word_shingles(b)
        return len(sa & sb) / len(sa | sb)

    for i, t in corpus_texts.items():
        js = [jac(t, rt) for rt in ref_texts.values()]
        hits = [j for j in js if j >= 0.5]
        assert out[i]["n_near"] == len(hits), i
        exp_max = round(max(hits), 4) if hits else 0.0
        assert abs(out[i]["max_jaccard"] - exp_max) < 1e-9, i
        assert out[i]["near_contaminated"] == (len(hits) > 0), i
    assert out[0]["n_near"] == 2 and out[0]["max_jaccard"] == 1.0
    assert not out[3]["near_contaminated"] and not out[4]["near_contaminated"]
    assert not out[100]["near_contaminated"]


def test_dedup_against_minhash_full_int64_id_range(ray_session):
    """Hash-derived ids cover the FULL signed int64 range (md5-as-uint64
    viewed signed is negative half the time). Regression: the old packed
    ``(id << 1) | src`` key dropped the id's top bit, silently losing every
    negative-id match."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_against_minhash

    base = (
        "the quick brown fox jumps over the lazy dog while the cat "
        "sleeps on the warm mat near the old wooden door frame today"
    )
    ids = [-(2**63), -12345, (1 << 62) + 99, 2**63 - 1, 7]
    corpus = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": [base, base, base, "unrelated arrow ray text", base],
            }
        )
    ).repartition(2)
    ref = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([-1], pa.int64()), "text": [base]})
    )
    out = {
        r["doc_id"]: r
        for r in dedup_against_minhash(corpus, ref, threshold=0.8).take_all()
    }
    assert set(out) == set(ids)
    for i in ids:
        expected = i != 2**63 - 1
        assert out[i]["near_contaminated"] == expected, i
        assert out[i]["max_jaccard"] == (1.0 if expected else 0.0), i


def test_quantize_embeddings_roundtrip(ray_session):
    """Exact quantization contract: max-abs symmetric scale, half-away
    rounding (including the .5 boundary), zero-vector handling, and bounded
    reconstruction error."""
    import numpy as np
    import ray.data

    from infidex_ray.ops.vectorize import quantize_embeddings

    rows = [
        {"vec_id": 0, "embedding": [1.0, -0.5, 0.25, 0.0]},
        {"vec_id": 1, "embedding": [0.0, 0.0, 0.0, 0.0]},  # zero vector
        # scale = 2/127; 0.5 boundary: 0.0118110... * q -> check half-away
        {"vec_id": 2, "embedding": [2.0, -2.0, 1.0, 0.003937007874015748]},
    ]
    out = quantize_embeddings(ray.data.from_items(rows)).take_all()
    by = {}
    for r in out:
        by.setdefault(r["vec_id"], {})[r["i"]] = r

    # vec 0: scale = 1/127; q = round(e*127)
    assert [by[0][i]["q"] for i in (1, 2, 3, 4)] == [127, -64, 32, 0]
    assert abs(by[0][1]["scale"] - round(1 / 127, 6)) < 1e-12
    # zero vector: scale 0, all q 0
    assert [by[1][i]["q"] for i in (1, 2, 3, 4)] == [0, 0, 0, 0]
    assert by[1][1]["scale"] == 0.0
    # vec 2: scale = 2/127; last element = exactly 0.25 quanta -> q 0
    # (0.5/2 = .25) — and 1.0/(2/127) = 63.5 rounds AWAY to 64
    assert [by[2][i]["q"] for i in (1, 2, 3)] == [127, -127, 64]
    # reconstruction error bounded by scale/2 per element
    for r in rows:
        vid = r["vec_id"]
        scale = by[vid][1]["scale"]
        for i, e in enumerate(r["embedding"], start=1):
            assert abs(by[vid][i]["q"] * scale - e) <= scale / 2 + 1e-9


def test_batch_minhash_sketches_parity():
    """The batch-vectorized sketch kernel must be BYTE-identical to the
    per-doc ``minhash_signature(_shingle_hashes(_word_hashes(...)))`` path
    it replaced inside minhash_lsh_pairs / dedup_against_minhash — including
    the short-doc (<n words) single-shingle contract, empty/None docs, and
    unicode whitespace (tokenization is the analyzer splitter, NOT \\s)."""
    from infidex_ray.analyzer import _word_splitter
    from infidex_ray.config import DEFAULT_DELIMITERS
    from infidex_ray.ops.dedup import (
        _batch_minhash_sketches,
        _minhash_params,
        _shingle_hashes,
        _word_hashes,
        minhash_signature,
        normalize,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        None,
        "one",
        "two words",
        "exactly three words",
        "nbsp\xa0joined and vertical\x0btab plus em space tokens",
        "dup dup dup dup dup dup dup dup",
        "Tab\tand\nnewline   runs, punct!? marks",
        "repeat " * 300 + "tail unique words here",
        "ünïcödé Ärger ßtraße déjà vu déjà vu déjà",
    ]
    for num_perm, n in ((128, 3), (16, 5), (4, 1)):
        a, b = _minhash_params(num_perm)
        got_sig, got_sh = _batch_minhash_sketches(texts, n, a, b)
        # tiny chunk → exercises the doc-boundary chunked reduceat path
        got_sig_c, got_sh_c = _batch_minhash_sketches(
            texts, n, a, b, chunk_elems=num_perm * 2
        )
        assert got_sig_c == got_sig and got_sh_c == got_sh
        splitter = _word_splitter(DEFAULT_DELIMITERS)
        cache = {}
        for i, t in enumerate(texts):
            ws = [w for w in splitter.split(normalize(t or "").lower()) if w]
            sh = _shingle_hashes(_word_hashes(ws, cache), n)
            assert got_sh[i] == sh.tobytes(), (num_perm, n, i, t)
            assert got_sig[i] == minhash_signature(sh, a, b).tobytes(), (
                num_perm,
                n,
                i,
                t,
            )


def test_knn_graph_exact(ray_session):
    """knn_graph = per-vector exact top-k (self excluded), verified against
    a brute-force numpy reference; multi-block to exercise the block-pair
    streaming merge, k > n-1 to exercise the -inf self-slot filtering."""
    import ray.data

    from infidex_ray.ops.similarity import knn_graph

    rng = np.random.RandomState(7)
    vecs = rng.normal(size=(23, 8))
    vecs[5] = vecs[0]  # exact duplicate → cosine 1.0, tie-broken by id
    rows = [
        {"vec_id": 100 + i, "embedding": [float(x) for x in vecs[i]]}
        for i in range(len(vecs))
    ]
    ds = ray.data.from_items(rows).repartition(5)

    out = {}
    for r in knn_graph(ds, k=4).take_all():
        out.setdefault(r["vec_id"], []).append((r["rank"], r["nbr_id"], r["cosine"]))

    n = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    sims = n @ n.T
    for i in range(len(vecs)):
        got = sorted(out[100 + i])
        order = sorted(
            (j for j in range(len(vecs)) if j != i),
            key=lambda j: (-sims[i, j], 100 + j),
        )[:4]
        assert [g[1] for g in got] == [100 + j for j in order], i
        for (rank, nbr, cos), j in zip(got, order):
            assert abs(cos - sims[i, j]) < 5e-5
    # dup pair must be each other's rank-1 neighbor at cosine 1.0
    assert out[100][0][1:] == (105, 1.0) and out[105][0][1:] == (100, 1.0)

    # k larger than corpus: every vector still gets exactly n-1 neighbors
    tiny = ray.data.from_items(rows[:3]).repartition(2)
    cnt = {}
    for r in knn_graph(tiny, k=10).take_all():
        cnt[r["vec_id"]] = cnt.get(r["vec_id"], 0) + 1
    assert cnt == {100: 2, 101: 2, 102: 2}


def test_semantic_dedup_within_cluster_only(ray_session):
    """semantic_dedup drops near-dups only when k-means co-clusters them:
    two tight planted groups far apart → each keeps its min id; a straddling
    pair in different clusters survives (the SemDeDup recall trade)."""
    import ray.data

    from infidex_ray.ops.clustering import kmeans, semantic_dedup

    rng = np.random.RandomState(3)
    base_a = np.asarray([10.0, 0.0, 0.0, 0.0])
    base_b = np.asarray([0.0, 10.0, 0.0, 0.0])
    rows = []
    for i in range(4):  # cluster A: 4 near-identical vectors
        rows.append({"vec_id": i, "embedding": (base_a + rng.normal(scale=0.01, size=4)).tolist()})
    for i in range(4, 8):  # cluster B: 4 near-identical vectors
        rows.append({"vec_id": i, "embedding": (base_b + rng.normal(scale=0.01, size=4)).tolist()})
    ds = ray.data.from_items(rows).repartition(3)
    kept = sorted(r["vec_id"] for r in semantic_dedup(ds, k=2, iters=2, threshold=0.99).take_all())
    assert kept == [0, 4]

    # sanity: the two groups really land in different clusters
    _, labeled = kmeans(ds, k=2, iters=2)
    lab = {r["vec_id"]: r["cluster"] for r in labeled.take_all()}
    assert len({lab[i] for i in range(4)}) == 1
    assert len({lab[i] for i in range(4, 8)}) == 1
    assert lab[0] != lab[4]


def test_dsir_logweights_directional(ray_session):
    """DSIR log importance weights: documents resembling the target corpus
    must outweigh documents resembling only the raw background; empty docs
    weigh exactly 0; n_features counts unigrams + adjacent bigrams."""
    import ray.data

    from infidex_ray.ops.dsir import dsir_logweights

    target_text = "quantum physics entangled state superposition wave"
    noise_text = "cheap pills click here buy now free offer spam"
    raw = [
        {"doc_id": 0, "text": target_text},                # on-target
        {"doc_id": 1, "text": noise_text},                 # off-target
        {"doc_id": 2, "text": "quantum wave physics state"},  # partial match
        {"doc_id": 3, "text": ""},                         # empty
    ] + [{"doc_id": 10 + i, "text": noise_text} for i in range(6)]
    target = [{"doc_id": 100 + i, "text": target_text} for i in range(4)]
    raw_ds = ray.data.from_items(raw).repartition(3)
    tgt_ds = ray.data.from_items(target)

    out = {r["doc_id"]: r for r in dsir_logweights(raw_ds, tgt_ds).take_all()}
    assert len(out) == len(raw)
    assert out[3]["logweight"] == 0.0 and out[3]["n_features"] == 0
    # 6 words -> 6 unigrams + 5 bigrams
    assert out[0]["n_features"] == 11
    assert out[0]["logweight"] > out[2]["logweight"] > out[1]["logweight"]
    assert out[0]["logweight"] > 0 > out[1]["logweight"]


def test_hll_approx_distinct(ray_session):
    """HLL sketch: estimate within the ~1.04/sqrt(m) envelope of the true
    cardinality, invariant to duplication and block layout (register merge
    is an element-wise max), and per-group sketches are independent."""
    import ray.data

    from infidex_ray.ops.sketches import approx_distinct, approx_distinct_by

    rows = [{"k": "a" if i % 3 else "b", "v": f"value-{i % 700}"} for i in range(5000)]
    ds1 = ray.data.from_items(rows).repartition(2)
    ds2 = ray.data.from_items(rows * 3).repartition(7)  # dups + other layout

    e1 = approx_distinct(ds1, "v")["approx_distinct"][0].as_py()
    e2 = approx_distinct(ds2, "v")["approx_distinct"][0].as_py()
    assert e1 == e2  # duplication/layout-invariant
    assert abs(e1 - 700) / 700 < 0.10

    by = {
        r["k"]: r["approx_distinct"]
        for r in approx_distinct_by(ds1, "k", "v").take_all()
    }
    # k="b" sees i % 3 == 0 rows -> value-(0,3,...) distinct multiples of 3
    true_b = len({i % 700 for i in range(5000) if i % 3 == 0})
    true_a = len({i % 700 for i in range(5000) if i % 3})
    assert abs(by["b"] - true_b) / true_b < 0.10
    assert abs(by["a"] - true_a) / true_a < 0.10


def test_dedup_against_bloom(ray_session):
    """Bloom incremental dedup: zero false negatives always (every reference
    text is dropped); with a roomy filter it equals exact dedup_against; a
    deliberately tiny filter produces deterministic false positives that a
    local replay of the same double-hash filter predicts exactly."""
    import ray.data

    from infidex_ray.ops.dedup import _bloom_positions, dedup_against_bloom

    ref_rows = [{"doc_id": 1000 + i, "text": f"ref text {i}"} for i in range(20)]
    new_rows = [{"doc_id": i, "text": f"new text {i}"} for i in range(50)]
    corpus = ray.data.from_items(new_rows + ref_rows[:7]).repartition(3)
    ref = ray.data.from_items(ref_rows)

    kept = sorted(
        r["doc_id"] for r in dedup_against_bloom(corpus, ref).take_all()
    )
    assert all(k < 1000 for k in kept)  # every duplicated ref text dropped
    assert set(range(50)).issuperset(kept) and len(kept) >= 45

    # tiny filter -> false positives, reproduced by the reference replay
    n_bits, k = 64, 2
    kept_tiny = sorted(
        r["doc_id"]
        for r in dedup_against_bloom(corpus, ref, n_bits=n_bits, k_hashes=k).take_all()
    )
    bits = set(
        _bloom_positions([r["text"] for r in ref_rows], n_bits, k).reshape(-1).tolist()
    )
    expect = sorted(
        r["doc_id"]
        for r in new_rows + ref_rows[:7]
        if not all(
            p in bits
            for p in _bloom_positions([r["text"]], n_bits, k).reshape(-1).tolist()
        )
    )
    assert kept_tiny == expect
    assert len(kept_tiny) < len(kept)  # the tiny filter really did over-drop


def test_funnel_ordered_steps(ray_session):
    """funnel counts only strictly-ordered step completions: out-of-order
    events don't count, equal timestamps don't count (strict >), failure at
    step i zeroes all later steps, and every user appears in the output."""
    import ray.data

    from infidex_ray.ops.windows import funnel

    def ev(u, t, typ):
        return {"user_id": u, "ts": t, "event_type": typ}

    rows = [
        # u1: perfect order -> 3
        ev("u1", 10, "view"), ev("u1", 20, "click"), ev("u1", 30, "buy"),
        # u2: click BEFORE view -> only view counts -> 1
        ev("u2", 5, "click"), ev("u2", 10, "view"),
        # u3: click at the SAME ts as view (strict >) -> 1
        ev("u3", 10, "view"), ev("u3", 10, "click"),
        # u4: no funnel events at all -> 0
        ev("u4", 1, "scroll"),
        # u5: view->buy but no click -> 1 (cascade stops)
        ev("u5", 1, "view"), ev("u5", 2, "buy"),
        # u6: earliest view is AFTER its only click; later click rescues -> 3
        ev("u6", 1, "view"), ev("u6", 2, "click"), ev("u6", 0, "click"),
        ev("u6", 3, "buy"),
    ]
    ds = ray.data.from_items(rows).repartition(4)
    out = {
        r["user_id"]: r["steps_completed"]
        for r in funnel(ds, ["view", "click", "buy"], n_slices=8).take_all()
    }
    assert out == {"u1": 3, "u2": 1, "u3": 1, "u4": 0, "u5": 1, "u6": 3}


def test_cms_counts(ray_session):
    """CMS estimates: exact at generous width, upper-bound-only under forced
    collisions, layout-invariant, and an absent key reads the collision
    floor (0 at generous width)."""
    import ray.data

    from infidex_ray.ops.sketches import cms_counts

    rows = (
        [{"v": "hot"}] * 500 + [{"v": "warm"}] * 50 + [{"v": f"cold-{i}"} for i in range(100)]
    )
    ds = ray.data.from_items(rows).repartition(4)
    keys = ["hot", "warm", "cold-7", "never-seen"]

    wide = {r["key"]: r["est_count"] for r in cms_counts(ds, "v", keys, width=8192, depth=4).to_pylist()}
    assert wide == {"hot": 500, "warm": 50, "cold-7": 1, "never-seen": 0}

    narrow = {r["key"]: r["est_count"] for r in cms_counts(ds, "v", keys, width=8, depth=2).to_pylist()}
    for k in ("hot", "warm", "cold-7"):
        assert narrow[k] >= wide[k]  # CMS never underestimates

    again = {r["key"]: r["est_count"] for r in cms_counts(ds.repartition(9), "v", keys, width=8, depth=2).to_pylist()}
    assert again == narrow  # layout-invariant


def test_verify_pairs_broadcast_equals_join_path(ray_session):
    """The size-gated broadcast verify must produce the same pairs as the
    distributed join path on the same corpus (minhash output is a pure
    function of the input, so the two physical plans must agree row-set-
    for-row-set). An explicit num_partitions forces the join plan."""
    import ray.data

    from infidex_ray.ops.dedup import minhash_lsh_pairs

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(60)]
    rows = []
    for i in range(40):
        words = [vocab[j] for j in rng.randint(0, len(vocab), size=30)]
        rows.append({"doc_id": i, "text": " ".join(words)})
        if i % 4 == 0:  # planted near-dup
            mutated = list(words)
            mutated[rng.randint(0, len(words))] = "mutant"
            rows.append({"doc_id": 1000 + i, "text": " ".join(mutated)})
    ds = ray.data.from_items(rows).repartition(5)

    def canon(out):
        return sorted(
            (r["id_a"], r["id_b"], r["est_jaccard"], r["jaccard"])
            for r in out.take_all()
        )

    broadcast = canon(minhash_lsh_pairs(ds, threshold=0.3))
    joined = canon(minhash_lsh_pairs(ds, threshold=0.3, num_partitions=2))
    assert broadcast == joined and len(broadcast) >= 10


def test_connected_components(ray_session):
    """connected_components: chain + triangle + isolated pair all labeled by
    their min node; size gate and distributed path agree."""
    import ray.data

    from infidex_ray.ops.graph import connected_components

    edges = [
        {"src": 5, "dst": 6}, {"src": 6, "dst": 7},          # chain 5-6-7
        {"src": 10, "dst": 11}, {"src": 11, "dst": 12}, {"src": 12, "dst": 10},
        {"src": 99, "dst": 100},
    ]
    ds = ray.data.from_items(edges).repartition(3)
    want = {5: 5, 6: 5, 7: 5, 10: 10, 11: 10, 12: 10, 99: 99, 100: 99}
    got = {r["node"]: r["component"] for r in connected_components(ds).take_all()}
    assert got == want
    got_dist = {
        r["node"]: r["component"]
        for r in connected_components(ds, num_partitions=2).take_all()
    }
    assert got_dist == want


def test_retention_triangle(ray_session):
    """retention: cohorts keyed by first active period, offsets count
    distinct users (multiple events in one period count once)."""
    import ray.data

    from infidex_ray.ops.windows import retention

    P = 1_000_000 * 100  # 100-second periods, ts in epoch-us ints
    def ev(u, period):
        return {"user_id": u, "ts": period * P + (hash((u, period)) % 50)}

    rows = [
        ev("a", 0), ev("a", 0), ev("a", 1), ev("a", 3),   # cohort 0: a
        ev("b", 0), ev("b", 1),                            # cohort 0: b
        ev("c", 2), ev("c", 3),                            # cohort 2: c
    ]
    ds = ray.data.from_items(rows).repartition(3)
    got = {
        (r["cohort"], r["period_offset"]): r["n_users"]
        for r in retention(ds, period_s=100.0, n_slices=4).take_all()
    }
    assert got == {
        (0, 0): 2,  # a, b
        (0, 1): 2,  # a, b
        (0, 3): 1,  # a
        (2, 0): 1,  # c
        (2, 1): 1,  # c
    }


def test_knn_graph_lsh_recall(ray_session):
    """LSH kNN graph: on tight planted clusters every within-cluster
    neighbor co-buckets (identical sign patterns), so the approximate graph
    matches the exact graph restricted to those candidates; ranks and
    cosines agree with knn_graph where both report the pair."""
    import ray.data

    from infidex_ray.ops.similarity import knn_graph, knn_graph_lsh

    rng = np.random.RandomState(5)
    centers = rng.normal(size=(3, 16)) * 10
    rows = []
    vid = 0
    for c in centers:
        for _ in range(6):
            rows.append(
                {"vec_id": vid, "embedding": (c + rng.normal(scale=0.01, size=16)).tolist()}
            )
            vid += 1
    ds = ray.data.from_items(rows).repartition(4)

    exact = {
        (r["vec_id"], r["nbr_id"]): (r["rank"], r["cosine"])
        for r in knn_graph(ds, k=5).take_all()
    }
    approx = {
        (r["vec_id"], r["nbr_id"]): (r["rank"], r["cosine"])
        for r in knn_graph_lsh(ds, k=5, n_bits=4, n_tables=3, n_slices=4).take_all()
    }
    # tight clusters: each node's 5 within-cluster peers are its true top-5
    # and share its bucket in every table -> approx == exact here
    assert approx == exact and len(approx) == 18 * 5


def test_bigram_logprob(ray_session):
    """Interpolated bigram LM: sequential structure scores better than under
    the unigram (the bigram term rewards observed transitions); docs built
    from unseen transitions fall back toward the unigram; empty docs 0."""
    import ray.data

    from infidex_ray.ops.lm import bigram_logprob, unigram_logprob

    seq = "a b c d " * 25  # strong transitions a->b->c->d->a
    rows = [
        {"doc_id": 0, "text": seq},
        {"doc_id": 1, "text": "d c b a " * 25},  # same unigrams, reversed transitions
        {"doc_id": 2, "text": ""},
    ]
    ds = ray.data.from_items(rows)
    train = ray.data.from_items([{"doc_id": 100 + i, "text": seq} for i in range(4)])

    bi = {r["doc_id"]: r["nll"] for r in bigram_logprob(ds, train).take_all()}
    uni = {r["doc_id"]: r["nll"] for r in unigram_logprob(ds, train).take_all()}
    # doc 0 follows the trained transitions -> bigram beats unigram
    assert bi[0] < uni[0]
    # doc 1 has the same unigram distribution but unseen transitions ->
    # bigram can only lose (interpolation discounts to 0.25 * p_uni)
    assert bi[1] > uni[1]
    assert bi[0] < bi[1]
    assert bi[2] == 0.0


def test_curate_webtext_dsir_stage(ray_session):
    """The opt-in DSIR gate drops low-importance docs before chunking: with
    a target, output shrinks vs the no-DSIR run but stays non-empty, and the
    surviving doc set equals a direct dsir_logweights threshold filter over
    the deduped corpus."""
    import ray.data

    from infidex_ray.ops.dsir import dsir_logweights
    from infidex_ray.pipelines import curate_webtext

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    target = docs.filter(lambda r: r["doc_id"] % 5 == 0)

    base = curate_webtext(docs, langs=("en",), min_quality=0.2)
    base_ids = {r["doc_id"] for r in base.select_columns(["doc_id"]).take_all()}

    out = curate_webtext(
        docs, langs=("en",), min_quality=0.2,
        dsir_target=target, dsir_min_logweight=-15.0,
    )
    out_ids = {r["doc_id"] for r in out.select_columns(["doc_id"]).take_all()}
    assert out_ids and out_ids < base_ids  # strictly filtered, non-empty

    # cross-check against the standalone scorer on the same survivors
    survivors = docs.filter(lambda r: r["doc_id"] in base_ids)
    w = {
        r["doc_id"]: r["logweight"]
        for r in dsir_logweights(survivors, target).take_all()
    }
    expect = {d for d in base_ids if w[d] >= -15.0}
    assert out_ids == expect


def test_extract_anchors_regex_equivalence(ray_session):
    """The four-cut vectorized extraction matches the reference regex
    <a [^>]*href="([^"]*)"[^>]*>([^<]*)</a on adversarial markup: href in a
    LATER tag, nested markup in the anchor, unclosed tags, empty values."""
    import re

    import pyarrow as pa
    import ray.data
    from infidex_ray.ops.html import anchor_stats, extract_anchors

    pages = [
        '<a href="http://a.com/x">plain</a>',
        '<a class="z" href="http://b.com/">with attrs</a> tail',
        "<a >no href</a><a href=\"http://c.com\">second</a>",
        '<a href="http://d.com">nested <b>bold</b></a>',  # rejected: [^<]*
        '<a href="http://e.com">unclosed anchor',  # rejected: no </a
        '<a href="http://f.com">empty next</a><a href="">empty href</a>',
        '<a id="k">later tag has href</a><a rel="x" href="http://g.com/p">ok</a>',
        '<p>no anchors at all</p>',
        '<a href="http://h.com/1">one</a><a href="http://h.com/2">two</a>',
    ]
    rx = re.compile(r'<a [^>]*href="([^"]*)"[^>]*>([^<]*)</a')
    want = []
    for i, p in enumerate(pages):
        for m in rx.finditer(p):
            want.append((i, m.group(1), m.group(2)))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(pages)), pa.int64()),
                "html": pa.array([p.encode() for p in pages], pa.binary()),
            }
        )
    ).repartition(3)
    got = extract_anchors(ds).to_pandas()
    got_t = sorted(map(tuple, got[["doc_id", "href", "anchor"]].values.tolist()))
    assert got_t == sorted(want)

    stats = anchor_stats(extract_anchors(ds)).to_pandas()
    by_dom = {r.domain: r for r in stats.itertuples()}
    assert by_dom["h.com"].n_links == 2
    assert by_dom["h.com"].n_unique_anchors == 2
    assert by_dom["h.com"].top_anchor == "one"  # tie -> lexicographic


def test_readability_formula(ray_session):
    """FK ease/grade against hand-computed counts; sentence floor at 1;
    zero-word docs dropped; ASCII-whitespace word boundary (NBSP glues)."""
    import ray.data

    from infidex_ray.ops.dedup import round_half_up4
    from infidex_ray.ops.textstats import readability

    rows = [
        {"doc_id": 0, "text": "The cat sat. The dog ran! Did it rain?"},
        {"doc_id": 1, "text": "no terminal punctuation here"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": None},
        {"doc_id": 4, "text": "a\xa0b c"},  # NBSP: 2 words, not 3
    ]
    out = {r["doc_id"]: r for r in readability(ray.data.from_items(rows)).take_all()}
    assert set(out) == {0, 1, 4}
    r0 = out[0]
    assert (r0["n_words"], r0["n_sentences"], r0["n_syllables"]) == (9, 3, 9)
    w, s, y = 9.0, 3.0, 9.0
    assert r0["flesch_ease"] == round_half_up4(206.835 - 1.015 * (w / s) - 84.6 * (y / w))
    assert r0["fk_grade"] == round_half_up4(0.39 * (w / s) + 11.8 * (y / w) - 15.59)
    assert out[1]["n_sentences"] == 1 and out[1]["n_words"] == 4
    assert out[4]["n_words"] == 2


def test_corpus_overlap_matrix(ray_session):
    """Known shingle sets: exact sizes/intersections/jaccard, zero-overlap
    pairs present, distinctness across duplicate docs within a source."""
    import ray.data

    from infidex_ray.ops.dedup import corpus_overlap, word_shingles

    docs = {
        "A": ["one two three four", "one two three four"],  # dup within source
        "B": ["one two three four five"],
        "C": ["totally different words here"],
    }
    rows, i = [], 0
    for src, texts in docs.items():
        for t in texts:
            rows.append({"doc_id": i, "source": src, "text": t})
            i += 1
    got = corpus_overlap(ray.data.from_items(rows).repartition(3))
    sets = {s: set().union(*(word_shingles(t) for t in ts)) for s, ts in docs.items()}
    assert len(got) == 3
    for _, r in got.iterrows():
        sa, sb = sets[r.source_a], sets[r.source_b]
        assert r.size_a == len(sa) and r.size_b == len(sb)
        assert r.intersection == len(sa & sb)
        exp_j = round(len(sa & sb) / len(sa | sb), 4)
        assert abs(r.jaccard - exp_j) < 1e-9
    ac = got[(got.source_a == "A") & (got.source_b == "C")].iloc[0]
    assert ac.intersection == 0 and ac.jaccard == 0.0


def test_linear_score_custom_weights(ray_session):
    """Custom weight vector: logit is the per-token weight mean, sigmoid'd;
    empty docs dropped; md5 bucketing matches the hashed_bow scheme."""
    import ray.data

    from infidex_ray.ops.dedup import _md5_u64, round_half_up4
    from infidex_ray.ops.vectorize import linear_score

    dim = 16
    w = np.arange(dim, dtype=np.float64) / 10.0 - 0.5
    rows = [
        {"doc_id": 0, "text": "alpha beta gamma"},
        {"doc_id": 1, "text": "alpha alpha"},
        {"doc_id": 2, "text": ""},
    ]
    out = {
        r["doc_id"]: r
        for r in linear_score(
            ray.data.from_items(rows), dim=dim, weights=w
        ).take_all()
    }
    assert set(out) == {0, 1}
    for did, toks in ((0, ["alpha", "beta", "gamma"]), (1, ["alpha", "alpha"])):
        logit = float(np.mean([w[_md5_u64(t) % dim] for t in toks]))
        assert out[did]["logit"] == round_half_up4(logit)
        assert out[did]["prob"] == round_half_up4(1.0 / (1.0 + np.exp(-logit)))
        assert out[did]["n_tokens"] == len(toks)


def test_snapshot_diff_statuses(ray_session):
    """added/removed/changed detection across blocks; unchanged keys silent;
    None ≡ '' (digest contract of exact_dedup)."""
    import ray.data

    from infidex_ray.ops.dedup import snapshot_diff

    old = ray.data.from_items(
        [
            {"doc_id": 1, "text": "same"},
            {"doc_id": 2, "text": "will change"},
            {"doc_id": 3, "text": "will vanish"},
            {"doc_id": 4, "text": None},
        ]
    ).repartition(3)
    new = ray.data.from_items(
        [
            {"doc_id": 1, "text": "same"},
            {"doc_id": 2, "text": "changed!"},
            {"doc_id": 4, "text": ""},  # None == "" → unchanged
            {"doc_id": 5, "text": "brand new"},
        ]
    ).repartition(2)
    got = {r["doc_id"]: r["status"] for r in snapshot_diff(old, new).take_all()}
    assert got == {2: "changed", 3: "removed", 5: "added"}


def test_margin_mine_bruteforce(ray_session):
    """Margin mining vs a numpy brute-force oracle: best match, top-k
    forward/reverse averages, ratio margin; multi-block on both sides."""
    import ray.data

    from infidex_ray.ops.dedup import round_half_up4
    from infidex_ray.ops.similarity import margin_mine

    rng = np.random.default_rng(11)
    na, nb, d, k = 23, 17, 8, 4
    A = rng.normal(size=(na, d))
    B = rng.normal(size=(nb, d))
    src = ray.data.from_items(
        [{"vec_id": i, "embedding": A[i].tolist()} for i in range(na)]
    ).repartition(4)
    tgt = ray.data.from_items(
        [{"vec_id": 100 + j, "embedding": B[j].tolist()} for j in range(nb)]
    ).repartition(3)
    got = {r["src_id"]: r for r in margin_mine(src, tgt, k=k).take_all()}
    An = A / np.linalg.norm(A, axis=1, keepdims=True)
    Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
    S = An @ Bn.T
    ra = np.sort(S, axis=0)[::-1][:k].mean(axis=0)  # reverse avg per tgt
    assert len(got) == na
    for i in range(na):
        top = np.sort(S[i])[::-1][:k]
        j = int(np.argmax(S[i]))
        af = top.mean()
        m = S[i, j] / ((af + ra[j]) / 2.0)
        assert got[i]["tgt_id"] == 100 + j
        assert got[i]["cosine"] == round_half_up4(S[i, j])
        assert abs(got[i]["margin"] - round_half_up4(m)) <= 1e-4


def test_budget_select_prefix_cut(ray_session):
    """Global sort by (score desc, id asc) + exact cumulative-cost cut; the
    kept set equals the brute-force prefix regardless of block layout."""
    import ray.data

    from infidex_ray.ops.sampling import budget_select

    rng = np.random.default_rng(3)
    n = 200
    rows = [
        {"doc_id": i, "score": int(rng.integers(0, 50)), "cost": int(rng.integers(1, 30))}
        for i in range(n)
    ]
    budget = 400
    got = sorted(
        (r["doc_id"], r["cum"])
        for r in budget_select(
            ray.data.from_items(rows).repartition(9),
            budget,
            score_col="score",
            cost_col="cost",
        ).take_all()
    )
    order = sorted(rows, key=lambda r: (-r["score"], r["doc_id"]))
    cum, exp = 0, []
    for r in order:
        cum += r["cost"]
        if cum > budget:
            break
        exp.append((r["doc_id"], cum))
    assert got == sorted(exp)


def test_curate_webtext_model_band_budget(ray_session):
    """Opt-in gates: linear quality model + readability band + token budget —
    output shrinks monotonically vs the ungated run, packing invariant holds,
    and the budget bounds the kept source tokens."""
    import ray.data

    from infidex_ray.ops.vectorize import default_linear_weights
    from infidex_ray.pipelines import curate_webtext

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    base = curate_webtext(docs, langs=("en",), min_quality=0.2).to_pandas()
    gated = curate_webtext(
        docs,
        langs=("en",),
        min_quality=0.2,
        quality_model=default_linear_weights(64, seed=7),
        quality_model_min_prob=0.48,
        readability_band=(-1000.0, 1000.0),
        token_budget=2000,
    ).to_pandas()
    assert len(gated) > 0
    assert len(set(gated.doc_id)) <= len(set(base.doc_id))
    # budget bound: total source tokens of kept docs ≤ budget (chunk n_tokens
    # re-derive the same ASCII-ws word count, grouped per doc)
    per_doc = gated.groupby("doc_id").n_tokens.sum()
    assert per_doc.sum() <= 2000
    sums = gated.groupby(["bucket", "bin"]).n_tokens.agg(["sum", "count"])
    assert sums[(sums["sum"] > 256) & (sums["count"] > 1)].empty


def test_code_detect_signals(ray_session):
    """Known code/prose docs: exact line/keyword/brace counts and frac;
    keyword-led and brace-terminated lines counted once each."""
    import ray.data

    from infidex_ray.ops.textstats import code_detect

    code = "def f():\n    return 1;\nx = {\n}\nplain line"
    rows = [
        {"doc_id": 0, "text": code},
        {"doc_id": 1, "text": "just prose\nmore prose"},
        {"doc_id": 2, "text": None},
    ]
    out = {r["doc_id"]: r for r in code_detect(ray.data.from_items(rows)).take_all()}
    r0 = out[0]
    # lines: def f(): | return 1; | x = { | } | plain line → 4 code lines
    assert r0["n_lines"] == 5 and r0["n_code_lines"] == 4
    assert r0["n_semicolons"] == 1 and r0["n_braces"] == 2
    assert r0["code_frac"] == round(4 / 5, 4)
    assert out[1]["n_code_lines"] == 0 and out[1]["n_lines"] == 2
    assert out[2]["n_lines"] == 1 and out[2]["code_frac"] == 0.0


def test_knn_recall_bruteforce(ray_session):
    """recall@k vs a numpy oracle: exact/LSH graphs recomputed brute-force,
    per-vec intersection counts; exact edges always ≤ min(k, N-1)."""
    import ray.data

    from infidex_ray.ops.similarity import (
        _hyperplanes,
        knn_recall,
    )

    rng = np.random.default_rng(5)
    nvec, d, k, n_bits, n_tables = 40, 8, 4, 4, 2
    V = rng.normal(size=(nvec, d))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": V[i].tolist()} for i in range(nvec)]
    ).repartition(4)
    got = {r["vec_id"]: r for r in knn_recall(
        ds, k=k, n_bits=n_bits, n_tables=n_tables).take_all()}
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Vn @ Vn.T
    np.fill_diagonal(S, -np.inf)
    def topk(sims, cand):
        order = sorted(cand, key=lambda j: (-sims[j], j))
        return set(order[:k])
    # candidate sets from the same seeded hyperplanes (sign-bit buckets)
    buckets = {}
    for t in range(n_tables):
        pl = _hyperplanes(d, n_bits, 42 + t)
        bits = (V @ pl.T > 0).astype(int)
        code = (bits * (1 << np.arange(n_bits))).sum(axis=1)
        for i in range(nvec):
            buckets.setdefault((t, code[i]), []).append(i)
    cands = {i: set() for i in range(nvec)}
    for members in buckets.values():
        if 2 <= len(members) <= 4096:
            for i in members:
                cands[i].update(m for m in members if m != i)
    assert len(got) == nvec
    for i in range(nvec):
        exact = topk(S[i], range(nvec))
        approx = topk(S[i], cands[i]) if cands[i] else set()
        hits = len(exact & approx)
        assert got[i]["n_exact"] == len(exact)
        assert got[i]["n_hit"] == hits
        assert got[i]["recall"] == round(hits / len(exact), 4)


def test_grouped_agg_matches_pandas(ray_session):
    """Combiner aggregation vs a pandas oracle across multi-key groups and
    every aggregate kind (shared-column sum+mean dedup included)."""
    import pandas as pd
    import ray.data

    from infidex_ray.ops.agg import grouped_agg

    rng = np.random.default_rng(7)
    n = 500
    pdf = pd.DataFrame(
        {
            "g1": rng.integers(0, 4, n),
            "g2": rng.choice(["x", "y"], n),
            "a": rng.integers(0, 100, n),
            "b": rng.normal(size=n),
        }
    )
    got = (
        grouped_agg(
            ray.data.from_pandas(pdf).repartition(7),
            ["g1", "g2"],
            {
                "sum_a": ("sum", "a"),
                "n": ("count", "a"),
                "min_b": ("min", "b"),
                "max_b": ("max", "b"),
                "avg_a": ("mean", "a"),
            },
        )
        .to_pandas()
        .sort_values(["g1", "g2"])
        .reset_index(drop=True)
    )
    exp = (
        pdf.groupby(["g1", "g2"])
        .agg(
            sum_a=("a", "sum"),
            n=("a", "count"),
            min_b=("b", "min"),
            max_b=("b", "max"),
            avg_a=("a", "mean"),
        )
        .reset_index()
        .sort_values(["g1", "g2"])
        .reset_index(drop=True)
    )
    assert (got.g1 == exp.g1).all() and (got.g2 == exp.g2).all()
    assert (got.sum_a == exp.sum_a).all() and (got.n == exp.n).all()
    assert np.allclose(got.min_b, exp.min_b) and np.allclose(got.max_b, exp.max_b)
    assert np.allclose(got.avg_a, exp.avg_a)


def test_review_fixes_batch(ray_session):
    """Regression lock for the round-4 review findings: empty-string source
    in corpus_overlap, duplicate keys in snapshot_diff, null keys and
    all-null means in grouped_agg, string keys in keep_earliest."""
    import datetime as dt

    import ray.data

    from infidex_ray.ops.agg import grouped_agg
    from infidex_ray.ops.dedup import corpus_overlap, snapshot_diff
    from infidex_ray.ops.windows import keep_earliest

    # "" is a valid source name, not a sentinel
    ov = corpus_overlap(
        ray.data.from_items(
            [
                {"doc_id": 0, "source": "", "text": "one two three four"},
                {"doc_id": 1, "source": "B", "text": "one two three four"},
            ]
        )
    )
    assert ov.iloc[0].jaccard == 1.0 and ov.iloc[0].intersection == 2

    # duplicate keys within a snapshot: per-side digest multisets
    old = ray.data.from_items(
        [{"doc_id": 1, "text": "a"}, {"doc_id": 1, "text": "b"},
         {"doc_id": 4, "text": "m"}, {"doc_id": 4, "text": "n"}]
    )
    new = ray.data.from_items(
        [{"doc_id": 1, "text": "b"}, {"doc_id": 1, "text": "a"},
         {"doc_id": 3, "text": "y"}, {"doc_id": 3, "text": "z"},
         {"doc_id": 4, "text": "m"}]
    )
    got = {r["doc_id"]: r["status"] for r in snapshot_diff(old, new).take_all()}
    assert got == {3: "added", 4: "changed"}

    # null key = its own group; all-null mean = NaN (SQL NULL)
    ag = grouped_agg(
        ray.data.from_items(
            [{"g": "x", "v": 1.0}, {"g": None, "v": 2.0}, {"g": "y", "v": None}]
        ).repartition(2),
        ["g"],
        {"n": ("count", "v"), "m": ("mean", "v")},
    ).to_pandas()
    by = {("<null>" if g is None else g): (n, m) for g, n, m in ag.itertuples(index=False)}
    assert by["<null>"][0] == 1 and by["<null>"][1] == 2.0
    assert by["y"][0] == 0 and np.isnan(by["y"][1])

    # string keys (first crawl of each URL wins)
    base = dt.datetime(2024, 1, 1)
    ke = keep_earliest(
        ray.data.from_items(
            [
                {"event_id": 1, "ts": base + dt.timedelta(minutes=1), "user_id": "u/a"},
                {"event_id": 2, "ts": base, "user_id": "u/a"},
                {"event_id": 3, "ts": base, "user_id": "u/b"},
            ]
        ).repartition(2)
    )
    assert {r["user_id"]: r["event_id"] for r in ke.take_all()} == {"u/a": 2, "u/b": 3}


def test_drop_frequent_lines(ray_session):
    """Line-level boilerplate removal: corpus-frequent lines stripped, doc
    line order preserved, all-boilerplate docs become ''."""
    import ray.data

    from infidex_ray.ops.lines import drop_frequent_lines, frequent_lines

    docs = [
        {"doc_id": 0, "text": "keep me\nCOOKIE\nunique zero"},
        {"doc_id": 1, "text": "COOKIE\nunique one\nFOOT\nFOOT"},
        {"doc_id": 2, "text": "unique two\nFOOT"},
        {"doc_id": 3, "text": "COOKIE"},
        {"doc_id": 4, "text": ""},
        {"doc_id": 5, "text": None},
    ]
    ds = ray.data.from_items(docs)
    fl = frequent_lines(ds, max_freq=2).to_pandas()
    assert sorted(fl.line) == ["COOKIE", "FOOT"]
    assert sorted(fl.n) == [3, 3]
    out = drop_frequent_lines(ds, max_freq=2).to_pandas().sort_values("doc_id")
    assert list(out.text) == [
        "keep me\nunique zero", "unique one", "unique two", "", "", ""
    ]
    assert list(out.n_removed) == [1, 3, 1, 1, 0, 0]


def test_rrf_fuse_matches_sql(ray_session):
    """RRF fusion bit-identical to the row_number SQL oracle."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from infidex_ray.ops.ranking import rrf_fuse

    rng = np.random.default_rng(11)
    mk = lambda: [
        {"query_id": int(q), "doc_id": int(d), "score": float(rng.integers(0, 40))}
        for q in range(4)
        for d in rng.choice(60, size=15, replace=False)
    ]
    rows_a, rows_b = mk(), mk()
    out = (
        rrf_fuse(ray.data.from_items(rows_a), ray.data.from_items(rows_b), k0=60, k=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("a", pd.DataFrame(rows_a))
    con.register("b", pd.DataFrame(rows_b))
    exp = con.execute(
        """
        WITH ra AS (SELECT query_id, doc_id, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS r FROM a),
        rb AS (SELECT query_id, doc_id, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id) AS r FROM b),
        u AS (SELECT * FROM ra UNION ALL SELECT * FROM rb),
        s AS (SELECT query_id, doc_id, sum(1.0/(60+r)) AS rrf_score FROM u GROUP BY 1,2),
        t AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY rrf_score DESC, doc_id) AS rank FROM s)
        SELECT query_id, doc_id, rrf_score, CAST(rank AS BIGINT) AS rank
        FROM t WHERE rank <= 4 ORDER BY query_id, rank
        """
    ).df()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_collocations_small(ray_session):
    """PMI favors the always-adjacent pair over frequent-but-independent
    words; counts are exact."""
    import ray.data

    from infidex_ray.ops.collocations import collocations

    docs = [{"doc_id": i, "text": "new york " + ("the cat " * (i % 3 + 1)).strip()}
            for i in range(12)]
    out = collocations(ray.data.from_items(docs), min_count=3, top_n=10)
    df = out.to_pandas()
    top = df.iloc[0]
    assert (top.w1, top.w2) == ("new", "york")
    assert df.set_index(["w1", "w2"]).loc[("new", "york"), "n_ab"] == 12
    # 'the cat' occurs more often but 'the'/'cat' are higher-frequency words
    assert df.iloc[0].pmi >= df.set_index(["w1", "w2"]).loc[("the", "cat"), "pmi"]


def test_grouped_corr(ray_session):
    """Sufficient-statistic Pearson: exact on integer-valued columns,
    NaN on zero-variance and all-null groups; nulls excluded pairwise."""
    import numpy as np
    import ray.data

    from infidex_ray.ops.agg import grouped_corr

    rows = []
    for i in range(40):  # perfectly correlated group
        rows.append({"g": "lin", "x": float(i), "y": float(2 * i + 1)})
    for i in range(40):  # anti-correlated
        rows.append({"g": "anti", "x": float(i), "y": float(-3 * i)})
    rows.append({"g": "flat", "x": 1.0, "y": 5.0})
    rows.append({"g": "flat", "x": 1.0, "y": 7.0})  # zero x-variance
    rows.append({"g": "nul", "x": None, "y": 1.0})  # no valid pair
    rows.append({"g": "lin", "x": None, "y": 9.0})  # dropped pairwise
    out = grouped_corr(ray.data.from_items(rows).repartition(3), "g", "x", "y").to_pandas()
    by = dict(zip(out.g, out["corr"]))
    ns = dict(zip(out.g, out.n))
    assert ns == {"lin": 40, "anti": 40, "flat": 2, "nul": 0}
    assert abs(by["lin"] - 1.0) < 1e-12 and abs(by["anti"] + 1.0) < 1e-12
    assert np.isnan(by["flat"]) and np.isnan(by["nul"])


def test_deterministic_shuffle(ray_session):
    """Same (seed, ids) → same order regardless of partitioning; different
    seed → different order; all rows survive with columns intact."""
    import ray.data

    from infidex_ray.ops.shuffle import deterministic_shuffle

    rows = [{"doc_id": i, "v": i * 10} for i in range(200)]
    a = deterministic_shuffle(ray.data.from_items(rows), seed=1).to_pandas()
    b = deterministic_shuffle(
        ray.data.from_items(rows).repartition(7), seed=1
    ).to_pandas()
    c = deterministic_shuffle(ray.data.from_items(rows), seed=2).to_pandas()
    assert list(a.doc_id) == list(b.doc_id)  # partitioning-independent
    assert list(a.doc_id) != list(c.doc_id)  # seed changes the order
    assert list(a.doc_id) != sorted(a.doc_id)  # actually shuffled
    assert sorted(a.doc_id) == list(range(200)) and list(a.v) == [d * 10 for d in a.doc_id]


def test_pca_ops(ray_session):
    """Covariance matches numpy on a planted anisotropic cloud; pca_basis
    recovers the dominant axis; projection is centered and variance-ordered."""
    import numpy as np
    import ray.data

    from infidex_ray.ops.pca import embedding_covariance, pca_basis, pca_project

    rng = np.random.default_rng(3)
    d = 6
    direction = np.zeros(d); direction[2] = 1.0
    x = rng.normal(scale=0.1, size=(300, d)) + np.outer(rng.normal(scale=3.0, size=300), direction)
    rows = [{"vec_id": i, "embedding": list(map(float, x[i]))} for i in range(300)]
    ds = ray.data.from_items(rows).repartition(4)
    cov = embedding_covariance(ds)
    got = np.zeros((d, d))
    for i, j, c in zip(cov["i"].to_pylist(), cov["j"].to_pylist(), cov["cov"].to_pylist()):
        got[i, j] = c
    want = np.cov(x, rowvar=False, bias=True)
    assert np.allclose(got, want, atol=1e-3)
    mean, basis = pca_basis(ds, k=2)
    assert abs(basis[2, 0]) > 0.99  # dominant axis recovered, sign-fixed +
    assert basis[np.argmax(np.abs(basis[:, 0])), 0] > 0
    proj = pca_project(ds, mean, basis).to_pandas()
    assert len(proj) == 600
    p0 = proj[proj.comp == 0].value.to_numpy()
    p1 = proj[proj.comp == 1].value.to_numpy()
    assert abs(p0.mean()) < 1e-2 and p0.var() > p1.var()


def test_percentile_rank(ray_session):
    """cume_dist bit-identical to the SQL window, including tie runs that
    span sorted-block boundaries and all-equal corpora."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from infidex_ray.ops.ranking import percentile_rank

    rows = [{"doc_id": i, "v": float((i * 7) % 5)} for i in range(500)]
    out = (
        percentile_rank(ray.data.from_items(rows).repartition(9), "v")
        .to_pandas()
        .sort_values(["v", "doc_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", pd.DataFrame(rows))
    exp = con.execute(
        "SELECT doc_id, v, cume_dist() OVER (ORDER BY v) AS cume_dist "
        "FROM t ORDER BY v, doc_id"
    ).df()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    assert all(np.float64(a) == np.float64(b) for a, b in zip(out.cume_dist, exp.cume_dist))
    # degenerate: every row identical → every cume_dist is exactly 1.0
    one = percentile_rank(
        ray.data.from_items([{"doc_id": i, "v": 3.0} for i in range(40)]).repartition(5),
        "v",
    ).to_pandas()
    assert set(one.cume_dist) == {1.0}


def test_corpus_drift(ray_session):
    """KL drift: identical sources → symmetric near-zero; a divergent
    source shows strictly larger drift against both."""
    import ray.data

    from infidex_ray.ops.dsir import corpus_drift

    rows = []
    for i in range(60):
        rows.append({"doc_id": i, "source": "a", "text": "the quick brown fox " * 4})
        rows.append({"doc_id": 100 + i, "source": "b", "text": "the quick brown fox " * 4})
        rows.append({"doc_id": 200 + i, "source": "c", "text": "zebra xylophone quartz vortex " * 4})
    out = corpus_drift(
        ray.data.from_items(rows).repartition(4), n_buckets=256
    ).to_pandas()
    kl = {(r.source_a, r.source_b): r.kl for r in out.itertuples()}
    assert len(kl) == 6
    assert kl[("a", "b")] == 0.0 and kl[("b", "a")] == 0.0  # identical dists
    assert kl[("a", "c")] > 1.0 and kl[("c", "a")] > 1.0  # divergent source


def test_review_fixes_fourth_day(ray_session):
    """Locks the round-4 fourth-day review findings: corpus_drift keeps
    token-less sources (uniform smoothing) and drops NULL sources like the
    SQL oracle; PCA moments guard empty corpora; decode_png raises
    CodecError (not struct/numpy internals) on malformed payloads."""
    import pytest
    import ray.data

    from infidex_ray.ops.codecs import CodecError, PNG_MAGIC, decode_png, encode_png
    from infidex_ray.ops.dsir import corpus_drift
    from infidex_ray.ops.pca import embedding_covariance, pca_basis

    # corpus_drift: all-empty source participates; NULL source dropped
    rows = [
        {"doc_id": 0, "source": "a", "text": "hello world tokens here"},
        {"doc_id": 1, "source": "b", "text": ""},
        {"doc_id": 2, "source": None, "text": "should not appear anywhere"},
    ]
    out = corpus_drift(ray.data.from_items(rows), n_buckets=64).to_pandas()
    pairs = set(zip(out.source_a, out.source_b))
    assert pairs == {("a", "b"), ("b", "a")}
    assert (out.kl > 0).all()  # uniform vs real dist diverge

    # PCA: empty corpus → typed empty covariance, clear basis error
    import pyarrow as pa

    empty = ray.data.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float64()))})
    )
    cov = embedding_covariance(empty)
    assert len(cov) == 0 and cov.column_names == ["i", "j", "cov"]
    with pytest.raises(ValueError, match="empty"):
        pca_basis(empty)

    # codec: malformed payloads raise CodecError, not struct.error
    with pytest.raises(CodecError):
        decode_png(PNG_MAGIC + b"\x00\x00\x00\x0dIHDR\x01")  # truncated IHDR
    # palette image with out-of-range index
    import struct
    import zlib

    def chunk(t, d):
        return struct.pack(">I", len(d)) + t + d + struct.pack(">I", zlib.crc32(t + d))

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 3, 0, 0, 0)
    raw = zlib.compress(b"\x00\x05")  # filter 0, palette index 5 > size 1
    bad = (PNG_MAGIC + chunk(b"IHDR", ihdr) + chunk(b"PLTE", b"\x10\x20\x30")
           + chunk(b"IDAT", raw) + chunk(b"IEND", b""))
    with pytest.raises(CodecError):
        decode_png(bad)
    # valid palette decode still works
    ok = (PNG_MAGIC + chunk(b"IHDR", ihdr) + chunk(b"PLTE", b"\x10\x20\x30")
          + chunk(b"IDAT", zlib.compress(b"\x00\x00")) + chunk(b"IEND", b""))
    assert decode_png(ok).tolist() == [[[0x10, 0x20, 0x30]]]


def test_grouped_count_distinct(ray_session):
    """SQL count(DISTINCT) semantics: null values uncounted, all-null
    groups kept at 0, null keys form their own group."""
    import ray.data

    from infidex_ray.ops.agg import grouped_count_distinct

    rows = [
        {"g": "a", "x": 1}, {"g": "a", "x": 1}, {"g": "a", "x": 2},
        {"g": "b", "x": None}, {"g": "b", "x": None},  # all-null group
        {"g": None, "x": 7}, {"g": None, "x": 8},      # null key group
    ]
    out = grouped_count_distinct(
        ray.data.from_items(rows).repartition(3), "g", {"nx": "x"}
    ).to_pandas()
    by = {("<null>" if g is None else g): n for g, n in zip(out.g, out.nx)}
    assert by == {"a": 2, "b": 0, "<null>": 2}
    # global (no keys) variant
    tot = grouped_count_distinct(
        ray.data.from_items(rows).repartition(3), [], {"nx": "x"}
    ).to_pandas()
    assert list(tot.nx) == [4]


def test_grouped_rollup(ray_session):
    """Rollup = detail + subtotals + grand total with a GROUPING_ID-style
    level column; exact on integer-valued measures."""
    import ray.data

    from infidex_ray.ops.agg import grouped_rollup

    rows = [
        {"a": "x", "b": "p", "v": 1},
        {"a": "x", "b": "q", "v": 2},
        {"a": "y", "b": "p", "v": 4},
    ]
    out = grouped_rollup(
        ray.data.from_items(rows).repartition(2), ["a", "b"], {"s": ("sum", "v")}
    ).to_pandas()
    lut = {(r.a, r.b, r.level): r.s for r in out.itertuples()}
    assert lut[("x", "p", 0)] == 1 and lut[("x", "q", 0)] == 2
    assert lut[("x", None, 1)] == 3 and lut[("y", None, 1)] == 4
    assert lut[(None, None, 2)] == 7
    assert len(out) == 6


def test_rolling_window(ray_session):
    """Rolling ROWS window: run-boundary resets, window clamping at run
    starts, exact sums on integer-valued measures."""
    import ray.data

    from infidex_ray.ops.windows import rolling_window

    import datetime

    def ts(i):
        return datetime.datetime(2024, 1, 1) + datetime.timedelta(hours=i)

    rows = [
        {"k": "a", "t": ts(i), "id": i, "v": float(i + 1)} for i in range(6)
    ] + [{"k": "b", "t": ts(i), "id": 100 + i, "v": 10.0} for i in range(3)]
    out = (
        rolling_window(
            ray.data.from_items(rows).repartition(3), "k", "t", "v",
            window=3, id_cols=("id",),
        )
        .to_pandas()
        .sort_values(["k", "ts_us"])
        .reset_index(drop=True)
    )
    a = out[out.k == "a"]
    assert list(a.roll_sum) == [1, 3, 6, 9, 12, 15]  # 1,1+2,1+2+3,2+3+4,...
    assert list(a.roll_n) == [1, 2, 3, 3, 3, 3]
    b = out[out.k == "b"]
    assert list(b.roll_sum) == [10, 20, 30] and list(b.roll_mean) == [10, 10, 10]


def test_dedup_lines_within(ray_session):
    import ray.data

    from infidex_ray.ops.lines import dedup_lines_within

    rows = [
        {"doc_id": 0, "text": "a\nb\na\nc\nb\na"},
        {"doc_id": 1, "text": "x"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": None},
    ]
    out = dedup_lines_within(ray.data.from_items(rows)).to_pandas().sort_values("doc_id")
    assert list(out.text) == ["a\nb\nc", "x", "", ""]
    assert list(out.n_removed) == [3, 0, 0, 0]


def test_hybrid_search(ray_session, tmp_path):
    """BM25 + dense kNN fused by RRF: a doc ranked well by both legs beats
    docs strong in only one; rank provenance columns are populated."""
    import numpy as np
    import ray.data

    from infidex_ray import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.pipelines import hybrid_search

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    eng = Engine.build(
        docs, str(tmp_path / "hidx"), EngineConfig(target_docs_per_segment=200),
        text_column="text", key_column="doc_id",
    )
    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = np.asarray([float(np.sin(i * 0.7)) for i in range(64)])
    out = hybrid_search(eng, emb, "hash join merge", q, top_k=10, fetch_k=30)
    assert len(out) == 10
    scores = [s for _d, s, _l, _s2 in out]
    assert scores == sorted(scores, reverse=True)
    assert any(l is not None for _d, _s, l, _r in out)
    assert any(r is not None for _d, _s, _l, r in out)
    # a doc present in BOTH legs must outscore one present in only one leg
    both = [s for _d, s, l, r in out if l is not None and r is not None]
    single = [s for _d, s, l, r in out if (l is None) != (r is None)]
    if both and single:
        assert max(both) > min(single)


def test_minhash_plan():
    """MMDS S-curve planner: the 50%-candidacy point lands near the target
    threshold, and higher thresholds yield fewer, longer bands."""
    from infidex_ray.ops.dedup import minhash_plan

    lo = minhash_plan(0.3, num_perm=128)
    hi = minhash_plan(0.85, num_perm=128)
    assert lo["bands"] * (128 // lo["bands"]) == 128
    assert abs(lo["threshold_50"] - 0.3) < 0.15
    assert abs(hi["threshold_50"] - 0.85) < 0.1
    assert hi["bands"] < lo["bands"]  # high threshold → fewer bands
    import pytest

    with pytest.raises(ValueError):
        minhash_plan(1.5)


def test_fuzzy_pairs(ray_session):
    """SymSpell deletion-blocked all-pairs fuzzy linkage vs a brute-force
    byte-level Levenshtein reference, at both supported distances; 'é'/'e'
    is distance 2 (UTF-8 bytes == DuckDB levenshtein), and duplicate input
    rows collapse to one distinct key."""
    import itertools

    import ray

    from infidex_ray.ops.fuzzy import fuzzy_pairs, lev_bytes

    words = [
        "hash", "hashs", "hach", "cash", "dash", "dasher", "stream",
        "streem", "stream", "merge", "merg", "mergee", "é", "e", "ee",
        "a", "b", "ab", "", "join", "jion",
    ]
    ds = ray.data.from_items([{"w": w} for w in words])

    def brute(k):
        keys = sorted({w for w in words if w})
        out = set()
        for a, b in itertools.combinations(keys, 2):
            d = int(lev_bytes([a], [b])[0])
            if 1 <= d <= k:
                out.add((a, b, d))
        return out

    # lev_bytes itself vs a tiny scalar DP first
    def scalar_lev(a, b):
        a, b = a.encode(), b.encode()
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    pairs_ab = [("hash", "cash"), ("é", "e"), ("stream", "streem"),
                ("a", "ab"), ("merge", "mergee"), ("dash", "dasher")]
    got = lev_bytes([p[0] for p in pairs_ab], [p[1] for p in pairs_ab])
    assert list(got) == [scalar_lev(a, b) for a, b in pairs_ab]
    assert scalar_lev("é", "e") == 2  # byte-level semantics

    for k in (1, 2):
        res = fuzzy_pairs(ds, "w", max_dist=k).take_all()
        got = {(r["word_a"], r["word_b"], r["dist"]) for r in res}
        assert len(res) == len(got)  # no duplicate pairs emitted
        assert got == brute(k), f"max_dist={k}"
        assert all(a < b for a, b, _d in got)


def test_sketches(ray_session):
    """KMV / Bloom / count-min / priority-sample vs brute-force recomputation
    of the same deterministic md5-parity hash rules."""
    import ray

    from infidex_ray.ops.dedup import _bloom_positions, _md5_u64, round_half_up4
    from infidex_ray.ops.sketches import (
        _TWO64,
        bloom_against,
        kmv_distinct,
        priority_sample,
    )

    # --- KMV: group 'a' has 300 distinct (> k=16 → formula), 'b' has 5 (exact)
    rows = [{"g": "a", "v": i} for i in range(300) for _ in (0, 1)] + [
        {"g": "b", "v": i} for i in (7, 8, 9, 10, 11)
    ]
    ds = ray.data.from_items(rows)
    out = {r["g"]: r for r in kmv_distinct(ds, ["g"], "v", k=16).take_all()}
    assert out["b"]["n_hashes"] == 5 and out["b"]["est_distinct"] == 5.0
    hs = sorted(_md5_u64(f"kmv:{i}") for i in range(300))
    want = round_half_up4(15.0 * _TWO64 / float(hs[15]))
    assert out["a"]["n_hashes"] == 16 and out["a"]["est_distinct"] == want
    # estimate in a sane band
    assert 100 < out["a"]["est_distinct"] < 900

    # --- Bloom: tiny m forces false positives; recompute every verdict
    bench = ray.data.from_items([{"w": f"k{i}"} for i in range(0, 50, 5)])
    corpus = ray.data.from_items(
        [{"id": i, "w": f"k{i}"} for i in range(50)] + [{"id": 99, "w": None}]
    )
    res = bloom_against(corpus, bench, "w", m_bits=64, n_hashes=2, id_col="id")
    got = {r["id"]: r["bloom_hit"] for r in res.take_all()}
    bits = set(
        _bloom_positions([f"k{i}" for i in range(0, 50, 5)], 64, 2).reshape(-1)
    )
    for i in range(50):
        want_hit = all(p in bits for p in _bloom_positions([f"k{i}"], 64, 2)[0])
        assert got[i] == want_hit, i
    assert got[99] is False or got[99] == False  # noqa: E712
    assert all(got[i] for i in range(0, 50, 5))  # no false negatives, ever
    assert any(got[i] for i in range(50) if i % 5 != 0)  # m=64 → some FPs

    # --- priority sample: identical set to the brute top-k by q = w/u
    items = [{"key": i, "w": float(1 + (i * 7) % 13)} for i in range(100)]
    sel = priority_sample(
        ray.data.from_items(items), 10, "w", "key", salt="ps"
    ).take_all()
    qs = {
        it["key"]: it["w"] / ((float(_md5_u64(f"ps:{it['key']}")) + 1.0) / _TWO64)
        for it in items
    }
    want_keys = set(sorted(qs, key=lambda k2: -qs[k2])[:10])
    assert {r["key"] for r in sel} == want_keys
    assert all(abs(r["q"] - qs[r["key"]]) == 0.0 for r in sel)  # bit-exact


def test_contamination_report(ray_session):
    """Per-benchmark-item leak audit vs a brute-force recomputation: n_docs
    = distinct corpus docs sharing >=1 word n-gram, n_gram_hits = distinct
    (doc, gram) pairs; gram-less and unhit bench items appear with zeros."""
    import ray

    from infidex_ray.ops.decontam import contamination_report

    bench_rows = [
        {"doc_id": 1, "text": "alpha beta gamma delta"},
        {"doc_id": 2, "text": "beta gamma delta epsilon"},
        {"doc_id": 3, "text": "zeta eta theta"},
        {"doc_id": 4, "text": "xx"},  # < n words -> no grams, zero row
    ]
    corpus_rows = [
        {"doc_id": 10, "text": "x alpha beta gamma y"},        # hits 1
        {"doc_id": 11, "text": "beta gamma delta z"},           # hits 1 and 2
        {"doc_id": 12, "text": "nothing shared here at all"},
        {"doc_id": 13, "text": "beta gamma delta epsilon tail"},  # hits 1+2
    ]
    t = contamination_report(
        ray.data.from_items(corpus_rows),
        ray.data.from_items(bench_rows),
        n=3,
    )
    got = {
        r["bench_id"]: (r["n_docs"], r["n_gram_hits"])
        for r in t.to_pylist()
    }

    def grams(s, n=3):
        w = s.split()
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    want = {}
    for b in bench_rows:
        bg = grams(b["text"])
        nd, nh = 0, 0
        for c in corpus_rows:
            inter = grams(c["text"]) & bg
            if inter:
                nd += 1
                nh += len(inter)
        want[b["doc_id"]] = (nd, nh)
    assert got == want
    assert got[3] == (0, 0) and got[4] == (0, 0)
    assert got[1][0] >= 2  # sanity: the planted overlaps registered


def test_review_fixes_fifth_day(ray_session):
    """Review-pass fixes: banded Levenshtein parity, priority-sample
    native-type tie-break across the cut, kmv group codes on tricky keys."""
    import random

    import ray

    from infidex_ray.ops.fuzzy import lev_bytes
    from infidex_ray.ops.sketches import _group_codes, kmv_distinct, priority_sample

    # banded DP: exact below band, >band reported as >band, vs the full DP
    rng = random.Random(7)
    alph = "abcx"
    pairs = [
        (
            "".join(rng.choice(alph) for _ in range(rng.randint(0, 12))),
            "".join(rng.choice(alph) for _ in range(rng.randint(0, 12))),
        )
        for _ in range(300)
    ] + [("", "abc"), ("abc", ""), ("é", "e"), ("aaaa", "aaaa")]
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    full = lev_bytes(a, b)
    for band in (1, 2):
        banded = lev_bytes(a, b, band=band)
        for f, bd in zip(full, banded):
            if f <= band:
                assert bd == f
            else:
                assert bd > band

    # priority_sample: all-equal weights force q ties when hashes repeat —
    # plant EXACT q duplicates via duplicate keys? keys must be unique, so
    # instead force a near-degenerate case: weight 0 rows all have q = 0.
    items = [{"key": i, "w": 0.0} for i in range(40)] + [
        {"key": 100 + i, "w": 1.0} for i in range(3)
    ]
    sel = priority_sample(ray.data.from_items(items), 10, "w", "key").take_all()
    got_keys = sorted(r["key"] for r in sel)
    # the 3 positive-q rows plus the 7 SMALLEST zero-q keys (ORDER BY q
    # DESC, key) — numeric key order, not string order
    assert got_keys == [0, 1, 2, 3, 4, 5, 6, 100, 101, 102]

    # kmv over integer group keys (the empty-guard typing + exact codes)
    rows = [{"g": 1, "v": i} for i in range(30)] + [
        {"g": 2, "v": i} for i in range(7)
    ]
    out = {
        r["g"]: r["n_hashes"]
        for r in kmv_distinct(ray.data.from_items(rows), ["g"], "v", k=64).take_all()
    }
    assert out == {1: 30, 2: 7}

    # _group_codes: None key vs the string 'None' must be distinct tuples
    import pyarrow as pa

    t = pa.table({"k": pa.array([None, "None", None, "x"], pa.string())})
    codes = _group_codes(t)
    assert codes[0] == codes[2] and codes[0] != codes[1] != codes[3]


def test_fuzzy_key_clusters(ray_session):
    """Transitive fuzzy components vs a brute-force union-find over the
    exact pair set: canonical = binary-min key per component, singletons
    map to themselves, chains link endpoints farther apart than max_dist."""
    import itertools

    import ray

    from infidex_ray.ops.fuzzy import fuzzy_key_clusters, lev_bytes

    words = [
        "hash", "hashs", "hashss",  # chain: endpoints at distance 2
        "cash", "dash",             # both neighbors of hash
        "merge", "merg",
        "stream",                    # singleton
        "a", "b", "ab",
    ]
    ds = ray.data.from_items([{"w": w} for w in words])
    out = {r["word"]: r["canonical"] for r in
           fuzzy_key_clusters(ds, "w", max_dist=1).take_all()}

    # brute force: union-find over exact distance-1 pairs
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for x, y in itertools.combinations(sorted(set(words)), 2):
        if int(lev_bytes([x], [y])[0]) == 1:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    want = {}
    comps = {}
    for w in set(words):
        comps.setdefault(find(w), []).append(w)
    for members in comps.values():
        c = min(members)
        for w in members:
            want[w] = c
    assert out == want
    assert out["stream"] == "stream"          # singleton
    assert out["hashss"] == out["hash"]       # chained past max_dist


def test_pivot_null_cells_and_unknown_cats(ray_session):
    """pivot == SUM(CASE WHEN): empty (key,cat) cells NULL, rows with
    unlisted/NULL categories ignored."""
    import math

    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.agg import pivot

    t = pa.table(
        {
            "k": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
            "c": pa.array(["A", "B", "A", None, "Z", "B"]),
            "v": pa.array([10.0, 5.0, 7.0, 99.0, 99.0, 2.0]),
        }
    )
    out = (
        pivot(ray.data.from_arrow(t), "k", "c", "v", ["A", "B"])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["v_A"].tolist()[:2] == [10.0, 7.0] and math.isnan(out["v_A"][2])
    assert out["v_B"].tolist()[0] == 5.0 and math.isnan(out["v_B"][1])
    assert out["v_B"].tolist()[2] == 2.0
    # key 3's 'Z' row contributed nothing, key 2's NULL-cat row ignored
    assert len(out) == 3


def test_unpivot_roundtrip_counts(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.agg import unpivot

    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "x": pa.array([1.5, None], pa.float64()),
            "y": pa.array([3, 4], pa.int64()),
        }
    )
    out = (
        unpivot(ray.data.from_arrow(t), ["id"], ["x", "y"])
        .to_pandas()
        .sort_values(["id", "name"])
        .reset_index(drop=True)
    )
    assert len(out) == 4
    assert out["value"].tolist()[0] == 1.5 and out["value"].tolist()[1] == 3.0
    import math

    assert math.isnan(out["value"][2]) and out["value"][3] == 4.0


def test_quota_sample_caps_and_determinism(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import _md5_u64
    from infidex_ray.ops.sampling import quota_sample

    t = pa.table(
        {
            "g": pa.array([1] * 10 + [2] * 2, pa.int64()),
            "id": pa.array(list(range(12)), pa.int64()),
        }
    )
    out = (
        quota_sample(ray.data.from_arrow(t), "g", "id", n=3, seed=5)
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    assert out.groupby("g")["id"].count().tolist() == [3, 2]
    # survivors = top-3 md5 priorities, reproducible
    pri = sorted(
        ((_md5_u64(f"5:{i}") % (1 << 62), i) for i in range(10)), reverse=True
    )
    assert sorted(out[out.g == 1]["id"].tolist()) == sorted(
        i for _, i in pri[:3]
    )


def test_pq_knn_m1_equals_kmeans_dist2(ray_session):
    """With one subspace, PQ's ADC distance to a vector IS the squared
    distance to its assigned kmeans centroid — cross-check against
    ops.clustering.kmeans on the same data."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.clustering import kmeans
    from infidex_ray.ops.dedup import round_half_up4
    from infidex_ray.ops.similarity import pq_knn

    rng = np.random.RandomState(3)
    vecs = rng.normal(size=(30, 4)).astype(np.float64)
    t = pa.table(
        {
            "vec_id": pa.array(range(30), pa.int64()),
            "embedding": pa.array(vecs.tolist()),
        }
    )
    ds = ray.data.from_arrow(t)
    out = pq_knn(ds, n_queries=2, m=1, k_codes=4, iters=2, top_k=30).to_pandas()
    cents, labeled = kmeans(ds, k=4, iters=2)
    lab = labeled.to_pandas().set_index("vec_id")
    # every vector's ADC distance from query q = ||q_sub - centroid[code]||²;
    # with m=1 and q itself a dataset vector, the q-row's own entry at
    # rank wherever equals dist(q, centroid(code_of_x)) — check via direct
    # recomputation from the returned centroids
    for _, row in out.iterrows():
        q = vecs[int(row.query_id)]
        code = int(lab.loc[int(row.vec_id)]["cluster"])
        expect = round_half_up4(float(((q - cents[code]) ** 2).sum()))
        assert abs(row.adist2 - expect) < 1e-9, (row.to_dict(), expect)
    # shape/determinism
    assert sorted(out.query_id.unique().tolist()) == [0, 1]
    assert out.groupby("query_id")["rank"].max().tolist() == [30, 30]


def test_pq_knn_rejects_indivisible_dim(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.similarity import pq_knn

    t = pa.table(
        {
            "vec_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        }
    )
    with pytest.raises(ValueError, match="divide"):
        pq_knn(ray.data.from_arrow(t), m=2, k_codes=2)


def test_dedup_paragraphs_sep(ray_session):
    """dedup_lines(sep='\\n\\n'): paragraph granularity — a repeated
    paragraph drops from the later doc, single newlines inside a
    paragraph survive intact."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.dedup import dedup_lines

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                [
                    "intro line\nsecond line\n\nshared promo",
                    "shared promo\n\nunique tail",
                ]
            ),
        }
    )
    out = (
        dedup_lines(ray.data.from_arrow(t), sep="\n\n")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, "text"] == "intro line\nsecond line\n\nshared promo"
    assert out.loc[1, "text"] == "unique tail"


def test_grouped_mode_ties_and_nulls(ray_session):
    """Ties → smallest value; NULL values ignored; NULL keys form their
    own group."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.agg import grouped_mode

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", None, None], pa.string()),
            "v": pa.array(["y", "x", "y", "z", None, "q", "q"], pa.string()),
        }
    )
    out = (
        grouped_mode(ray.data.from_arrow(t), "k", "v")
        .to_pandas()
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )
    assert out.loc[0, "k"] == "a" and out.loc[0, "mode_value"] == "y"
    assert out.loc[0, "mode_count"] == 2
    # b: only one non-null value
    assert out.loc[1, "mode_value"] == "z" and out.loc[1, "mode_count"] == 1
    # null key group
    assert out.loc[2, "mode_value"] == "q" and out.loc[2, "mode_count"] == 2
    # tie case: equal counts -> smallest value
    t2 = pa.table(
        {
            "k": pa.array(["a", "a"], pa.string()),
            "v": pa.array(["m", "c"], pa.string()),
        }
    )
    out2 = grouped_mode(ray.data.from_arrow(t2), "k", "v").to_pandas()
    assert out2.loc[0, "mode_value"] == "c"


def test_lag_values_null_first_rows(ray_session):
    import math

    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.windows import lag_values

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 2], pa.int64()),
            "ts": pa.array([100, 200, 50], pa.timestamp("us")),
            "event_id": pa.array([7, 8, 9], pa.int64()),
            "value": pa.array([1.5, 4.0, 2.0], pa.float64()),
        }
    )
    out = (
        lag_values(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values(["user_id", "ts_us"])
        .reset_index(drop=True)
    )
    assert math.isnan(out.loc[0, "prev_value"]) and math.isnan(out.loc[0, "delta"])
    assert out.loc[1, "prev_value"] == 1.5 and out.loc[1, "delta"] == 2.5
    assert math.isnan(out.loc[2, "prev_value"])


def test_ivf_pq_prunes_to_probed_lists(ray_session):
    """Every vector an IVF-PQ query ranks must belong to one of that
    query's nprobe nearest coarse lists — recompute the coarse structure
    with ops.clustering.kmeans and verify membership; ranking values come
    from the PQ LUTs (already covered by pq_knn tests)."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.clustering import kmeans
    from infidex_ray.ops.similarity import ivf_pq_knn

    rng = np.random.RandomState(11)
    vecs = rng.normal(size=(40, 4)).astype(np.float64)
    t = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array(vecs.tolist()),
        }
    )
    ds = ray.data.from_arrow(t)
    out = ivf_pq_knn(
        ds, n_queries=2, nlist=4, nprobe=2, m=2, k_codes=4, iters=2, top_k=40
    ).to_pandas()
    cents, labeled = kmeans(ds, k=4, iters=2)
    lab = labeled.to_pandas().set_index("vec_id")["cluster"]
    cents = np.asarray(cents)
    for qid in [0, 1]:
        q = vecs[qid]
        d = ((q[None] - cents) ** 2).sum(axis=1)
        probed = set(np.lexsort((np.arange(4), d))[:2].tolist())
        ranked = out[out.query_id == qid]["vec_id"].tolist()
        assert ranked, "query ranked nothing"
        for vid in ranked:
            assert int(lab.loc[vid]) in probed
        # and nothing outside the probed lists sneaked in: every member of
        # the probed lists appears (top_k covers the whole corpus here)
        members = {int(v) for v in lab.index if int(lab.loc[v]) in probed}
        assert set(ranked) == members


def test_ngram_freq_short_docs_and_fallback(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.collocations import ngram_freq

    t = pa.table(
        {
            "text": pa.array(
                ["a b c a b c", "a b", "", None, "a b c d"], pa.string()
            )
        }
    )
    ds = ray.data.from_arrow(t)
    out = (
        ngram_freq(ds, n=3, min_count=2)
        .to_pandas()
        .sort_values("gram")
        .reset_index(drop=True)
    )
    # "a b c" appears 2x in doc0 + 1x in doc4 = 3; "b c a"/"c a b"/"b c d" once
    assert out["gram"].tolist() == ["a b c"] and out["n"].tolist() == [3]
    # n=2 path and min_count=1
    out2 = (
        ngram_freq(ds, n=2, min_count=1)
        .to_pandas()
        .sort_values("gram")
        .reset_index(drop=True)
    )
    assert dict(zip(out2["gram"], out2["n"]))["a b"] == 4
    with pytest.raises(ValueError, match=">= 2"):
        ngram_freq(ds, n=1)


def test_curate_webtext_quota_and_paragraph_stages(ray_session):
    """Opt-in per-domain quota + paragraph dedup: quota shrinks the doc set
    per domain; the planted shared paragraph survives in exactly one doc."""
    import pyarrow as pa
    import ray.data

    from infidex_ray.pipelines import curate_webtext

    base = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def add_cols(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        urls = [f"https://site{int(i) % 3}.com/p/{i}" for i in ids]
        texts = [
            (t or "") + "\n\nFollow us on social media"
            for t in b["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": pa.array(texts, pa.string()),
                "url": pa.array(urls, pa.string()),
            }
        )

    docs = base.map_batches(add_cols, batch_format="pyarrow")
    out = curate_webtext(
        docs,
        langs=("en",),
        min_quality=0.2,
        max_per_domain=20,
        paragraph_dedup=True,
    )
    df = out.to_pandas()
    assert len(df) > 0
    # quota: ≤ 20 docs per site → ≤ 60 distinct docs total
    assert df["doc_id"].nunique() <= 60
    # paragraph dedup: the planted promo survives in at most one doc's chunks
    promo_docs = df[df["chunk"].str.contains("Follow us on social")][
        "doc_id"
    ].nunique()
    assert promo_docs <= 1


def test_html_density_edge_cases(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.html import html_density

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "html": pa.array(
                [b"<p>hi</p>", b"plain text only", b"", None], pa.binary()
            ),
        }
    )
    out = (
        html_density(ray.data.from_arrow(t))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[1].tolist() == [9, 2, 2, 0.2222]
    assert out.loc[2].tolist() == [15, 0, 15, 1.0]
    assert out.loc[3].tolist() == [0, 0, 0, 0.0]
    assert out.loc[4].tolist() == [0, 0, 0, 0.0]


def test_knn_label_precision_bruteforce(ray_session):
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.similarity import knn_label_precision

    rng = np.random.RandomState(5)
    vecs = rng.normal(size=(20, 4))
    labels = (np.arange(20) % 2).astype(np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(range(20), pa.int64()),
            "embedding": pa.array(vecs.tolist()),
            "label": pa.array(labels),
        }
    )
    out = (
        knn_label_precision(ray.data.from_arrow(t), n_queries=2, k=5)
        .to_pandas()
        .set_index("query_id")
    )

    def norm(m):
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    nv = norm(vecs)
    for qid in [0, 1]:
        sims = nv @ nv[qid]
        others = [i for i in range(20) if i != qid]
        top = sorted(others, key=lambda i: (-sims[i], i))[:5]
        expect = sum(1 for i in top if labels[i] == labels[qid])
        assert out.loc[qid, "n_match"] == expect
        assert out.loc[qid, "k_eff"] == 5


def test_curate_webtext_image_dedup_stage(ray_session):
    """The opt-in perceptual image-dedup gate drops pages whose image
    payloads dHash-match: triples of identical fake images collapse to one
    representative before chunking."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.pipelines import curate_webtext

    base = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def add_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [f"img:{d // 3}".encode("utf-8") for d in ids]
        return batch.append_column("media", pa.array(blobs, pa.binary()))

    docs = base.map_batches(add_media, batch_format="pyarrow")
    with_dedup = curate_webtext(
        docs, langs=("en",), min_quality=0.2, image_dedup_hamming=3
    ).to_pandas()
    without = curate_webtext(
        docs, langs=("en",), min_quality=0.2
    ).to_pandas()
    assert len(with_dedup) > 0
    kept_with = set(with_dedup["doc_id"])
    kept_without = set(without["doc_id"])
    # image dedup collapses each gated triple to one doc: strictly fewer
    assert len(kept_with) < len(kept_without)
    # survivors never include two members of the same payload triple
    trip = [d // 3 for d in kept_with]
    assert len(trip) == len(set(trip))


def test_build_frontier_pipeline(ray_session):
    """Frontier construction end-to-end: outlinks -> canonicalize -> dedup
    -> robots gate -> quota -> politeness order."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from infidex_ray.ops.robots import parse_robots_txt
    from infidex_ray.pipelines import build_frontier

    pages = []
    for d in range(12):
        links = "".join(
            f'<a href="HTTP://Site{d % 3}.example.com/p/{j}?utm_source=x#frag">l</a>'
            for j in range(d % 4 + 1)
        )
        # duplicate discovery of the same page from another doc + a
        # disallowed path
        links += f'<a href="http://site{d % 3}.example.com/p/0">dup</a>'
        links += f'<a href="http://site{d % 3}.example.com/private/{d}">x</a>'
        pages.append({"doc_id": d, "html": f"<html>{links}</html>"})
    ds = ray.data.from_items(pages)
    rules = parse_robots_txt("User-agent: *\nDisallow: /private/\n")
    out = (
        build_frontier(ds, robots_rules=rules, max_per_domain=3)
        .to_pandas()
        .sort_values("crawl_pos")
        .reset_index(drop=True)
    )
    assert len(out) == 9  # 3 domains x quota 3
    # canonicalization: lowercased host, no fragments/tracking params
    assert out["url"].str.contains("utm|#|HTTP:").sum() == 0
    # robots: /private/ never survives
    assert out["url"].str.contains("/private/").sum() == 0
    # politeness: first 3 positions are 3 distinct domains
    assert out.head(3)["domain"].nunique() == 3
    # per-domain quota respected
    assert out.groupby("domain").size().max() <= 3


def test_batch_pack3_shingles_parity():
    """_batch_pack3_shingles is byte-identical to the per-doc
    _pack3_shingles path (distinct packed grams, (doc, hash) sorted),
    including empty docs, short-doc fallbacks, and non-ASCII."""
    import numpy as np

    from infidex_ray.ops.dedup import _batch_pack3_shingles, _pack3_shingles

    texts = [
        "the quick brown fox",
        "",
        "ab",
        "x",
        "the quick brown fox",
        "Škoda café ÉLÄN",
        None,
        "aaaaaa",
        "ab cd ef",
    ]
    doc_idx, hs = _batch_pack3_shingles(texts)
    for d, t in enumerate(texts):
        exp = np.sort(_pack3_shingles(t or ""))
        got = hs[doc_idx == d]
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, exp, err_msg=f"doc {d}: {t!r}")

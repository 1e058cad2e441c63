"""Incremental adds, soft deletes (tombstones), synonyms, segment merge.

Reference semantics: DeltaIndex/IndexMerger (new docs land in a delta
partition; stats rebuilt), TombstoneTracker (deleted keys vanish from
results), SynonymMap (equivalent surface forms collapse at index+query time),
SegmentMerger (k-way term merge of doc-disjoint segments).
"""

from __future__ import annotations

import os

import pytest

from infidex_ray.build import build_index_local
from infidex_ray.config import EngineConfig
from infidex_ray.engine import Engine
from infidex_ray.synonyms import SynonymMap


@pytest.fixture()
def small_engine(minicorpus, tmp_path):
    out = str(tmp_path / "idx")
    build_index_local(minicorpus, out, n_segments=2)
    return Engine.load(out)


def test_soft_delete(small_engine):
    eng = small_engine
    assert [h.doc_key for h in eng.search("batman", top_k=10)][0] == 6
    eng.delete_documents([6])
    keys = [h.doc_key for h in eng.search("batman", top_k=10)]
    assert 6 not in keys
    # tombstones survive reload
    eng2 = Engine.load(eng.index_dir)
    assert 6 not in [h.doc_key for h in eng2.search("batman", top_k=10)]


def test_add_does_not_reread_tombstones(ray_session, small_engine, monkeypatch):
    """An add opens its delta from memory, so it does not parse
    ``tombstones.json`` again; deleted keys stay hidden after the add, after
    a fresh load and on a distributed engine."""
    import builtins

    from infidex_ray.query.executor import DistributedEngine

    eng = small_engine
    eng.delete_documents([6])
    opened: list[str] = []
    real_open = builtins.open

    def tracking_open(file, *a, **kw):
        opened.append(str(file))
        return real_open(file, *a, **kw)

    monkeypatch.setattr(builtins, "open", tracking_open)
    eng.add_documents([(100, "batman returns to gotham")])
    monkeypatch.undo()
    assert opened  # the add's own writes
    assert not [p for p in opened if p.endswith("tombstones.json")]
    for e in (eng, Engine.load(eng.index_dir)):
        keys = [h.doc_key for h in e.search("batman", top_k=10)]
        assert 100 in keys and 6 not in keys
    deng = DistributedEngine.connect(
        eng.index_dir, num_shards=2, num_cpus_per_actor=0.5
    )
    try:
        keys = [h.doc_key for h in deng.search("batman", top_k=10)]
        assert 100 in keys and 6 not in keys
    finally:
        deng.shutdown()


def test_incremental_add(small_engine):
    eng = small_engine
    n0 = eng.total_docs
    assert eng.search("zebra stampede", top_k=5) == [] or all(
        h.score < 100 for h in eng.search("zebra stampede", top_k=5)
    )
    eng.add_documents([(100, "A zebra stampede crossed the savanna")])
    assert eng.total_docs == n0 + 1
    hits = eng.search("zebra stampede", top_k=5)
    assert hits and hits[0].doc_key == 100
    # existing docs still searchable with updated global stats
    assert [h.doc_key for h in eng.search("new york", top_k=10)] == [8]
    # delta segment persisted: fresh load sees it
    eng2 = Engine.load(eng.index_dir)
    assert eng2.total_docs == n0 + 1
    assert eng2.search("zebra stampede", top_k=5)[0].doc_key == 100


def test_synonym_map_unit():
    m = SynonymMap([("car", "automobile", "auto")])
    assert m.canonical("automobile") == m.canonical("car") == m.canonical("auto")
    delims = frozenset(" ")
    out = m.canonicalize_text("my automobile is fast", delims)
    assert out == f"my {m.canonical('car')} is fast"
    assert m.canonicalize_text("no synonyms here", delims) == "no synonyms here"


def test_synonyms_end_to_end(tmp_path):
    docs = [
        (1, "a red automobile parked outside"),
        (2, "a blue bicycle leaning on the wall"),
        (3, "the fastest car on the track"),
    ]
    cfg = EngineConfig(synonyms=(("car", "automobile"),))
    out = str(tmp_path / "syn_idx")
    build_index_local(docs, out, cfg, n_segments=1)
    eng = Engine.load(out)
    assert eng.synonym_map is not None  # restored from manifest
    # "car" must find BOTH the automobile doc and the car doc
    keys = {h.doc_key for h in eng.search("car", top_k=10)}
    assert {1, 3} <= keys
    keys = {h.doc_key for h in eng.search("automobile", top_k=10)}
    assert {1, 3} <= keys


def test_segment_merge(minicorpus, tmp_path):
    from infidex_ray.segments import merge_segments, read_segment
    import os

    out = str(tmp_path / "m_idx")
    build_index_local(minicorpus, out, n_segments=3)
    seg_root = os.path.join(out, "segments")
    seg_dirs = sorted(
        os.path.join(seg_root, d) for d in os.listdir(seg_root)
    )
    merged_dir = str(tmp_path / "merged")
    merge_segments(seg_dirs, merged_dir)
    merged = read_segment(merged_dir)
    parts = [read_segment(d, i) for i, d in enumerate(seg_dirs)]
    assert merged.n_docs == sum(p.n_docs for p in parts)
    # df of every term = sum of per-part dfs; postings count preserved
    import numpy as np

    for term in ["bat", "the", "fox"]:
        exp_df = sum(int(p.df[p.term_lookup(term)]) for p in parts if p.term_lookup(term) >= 0)
        i = merged.term_lookup(term)
        got_df = int(merged.df[i]) if i >= 0 else 0
        assert got_df == exp_df, term
    # doc keys preserved across the merge
    assert sorted(merged.doc_keys.tolist()) == sorted(
        np.concatenate([p.doc_keys for p in parts]).tolist()
    )


def test_hierarchical_merge_index(ray_session, minicorpus, tmp_path):
    """merge_index: tree of Ray merge tasks → single-segment index with
    identical search results."""
    from infidex_ray.build import merge_index

    src = str(tmp_path / "multi_idx")
    build_index_local(minicorpus, src, n_segments=4)
    eng_multi = Engine.load(src)

    merged = str(tmp_path / "merged_idx")
    merge_index(src, merged, fan_in=2, use_ray=True)
    eng_one = Engine.load(merged)
    assert len(eng_one.segments) == 1
    assert eng_one.total_docs == eng_multi.total_docs
    for q in ["batman", "qick fux", "new york", "speeding", "quick brown fox"]:
        a = [(h.doc_key, round(h.score, 6)) for h in eng_multi.search(q, top_k=10)]
        b = [(h.doc_key, round(h.score, 6)) for h in eng_one.search(q, top_k=10)]
        assert a == b, q


def test_read_corpus_csv(ray_session, tmp_path):
    from infidex_ray.sources import read_corpus

    p = tmp_path / "movies.csv"
    p.write_text("title,year\nThe Matrix,1999\nInception,2010\n")
    ds = read_corpus(str(p))
    rows = ds.to_pandas()
    assert sorted(rows["title"]) == ["Inception", "The Matrix"]


def test_sharded_stats_layout_and_delta_append(ray_session, tmp_path):
    """Distributed builds write vocab stats as sorted parquet part dirs; a
    delta append adds an overlapping part and VocabLookup sums them."""
    import os

    import ray.data

    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.vocabstats import VocabLookup, open_lookup

    rows = [{"doc_key": i, "text": f"alpha beta doc{i}"} for i in range(1, 21)]
    out = str(tmp_path / "sharded_idx")
    eng = Engine.build(
        ray.data.from_items(rows), out, EngineConfig(target_docs_per_segment=10),
        text_column="text", key_column="doc_key",
    )
    assert os.path.isdir(os.path.join(out, "stats", "vocab", "kind=term"))
    assert os.path.isdir(os.path.join(out, "stats", "vocab", "kind=word"))
    assert not os.path.exists(os.path.join(out, "stats", "df.parquet"))
    assert isinstance(eng.df_lookup, VocabLookup)
    assert eng.word_df("alpha") == 20

    eng.add_documents([(100, "alpha gamma fresh")])
    lk = open_lookup(out, "word")
    assert lk("alpha") == 21  # base part + delta part summed
    assert lk("gamma") == 1
    assert lk("nonexistent") == 0
    hits = eng.search("alpha beta", top_k=5)
    assert hits
    # doc stats live in the manifest only: no write-only stats file
    from infidex_ray.build import merge_index

    merged = str(tmp_path / "sharded_merged")
    merge_index(out, merged, use_ray=False)
    assert set(os.listdir(os.path.join(out, "stats"))) - {"ray_stats.txt"} == {"vocab"}
    assert os.listdir(os.path.join(merged, "stats")) == ["vocab"]


def test_rebuild_clears_stale_stats_layouts(ray_session, tmp_path):
    """An in-place rebuild must not leave an older vocab part behind — the
    lookup sums every part it finds and would serve stale dfs."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine
    from infidex_ray.vocabstats import open_lookup

    out = str(tmp_path / "stale_idx")
    stale = os.path.join(out, "stats", "vocab", "kind=word", "stale.parquet")
    os.makedirs(os.path.dirname(stale), exist_ok=True)
    pq.write_table(pa.table({"term": ["alpha"], "df": [999]}), stale)
    rows = [{"doc_key": i, "text": f"alpha beta doc{i}"} for i in range(1, 11)]
    Engine.build(
        ray.data.from_items(rows), out, EngineConfig(target_docs_per_segment=5),
        text_column="text", key_column="doc_key",
    )
    assert not os.path.exists(stale)
    lk = open_lookup(out, "word")
    assert lk("alpha") == 10  # fresh, not the stale 999


def test_merge_index_target_segments(ray_session, minicorpus, tmp_path):
    """merge_index(target_segments=2): compaction stops at the serving
    layout (build-fine/serve-coarse) with rank-identical search results."""
    from infidex_ray.build import merge_index

    src = str(tmp_path / "multi_idx2")
    build_index_local(minicorpus, src, n_segments=4)
    eng_multi = Engine.load(src)

    merged = str(tmp_path / "merged2_idx")
    man = merge_index(src, merged, fan_in=2, use_ray=True, target_segments=2)
    assert man["stats"]["n_segments"] == 2
    eng_two = Engine.load(merged)
    assert len(eng_two.segments) == 2
    assert eng_two.total_docs == eng_multi.total_docs
    for q in ["batman", "qick fux", "new york", "speeding", "quick brown fox"]:
        a = [(h.doc_key, round(h.score, 6)) for h in eng_multi.search(q, top_k=10)]
        b = [(h.doc_key, round(h.score, 6)) for h in eng_two.search(q, top_k=10)]
        assert a == b, q


def test_single_file_save_load_roundtrip(ray_session, tmp_path):
    """save_file → load_file rank identity vs the directory-loaded engine
    (reference Save/SaveToStream parity, SearchEngine.cs:385-442)."""
    import ray.data

    from infidex_ray import EngineConfig
    from infidex_ray.engine import Engine

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    idx = str(tmp_path / "idx")
    eng = Engine.build(
        ds, idx, EngineConfig(target_docs_per_segment=150),
        text_column="text", key_column="doc_id",
    )
    container = str(tmp_path / "index.infdx")
    eng.save_file(container)
    eng2 = Engine.load_file(container)
    for q in ("fast column table", "fsat colunm tble", "ab", "§", ""):
        a = [(h.doc_key, h.score) for h in eng.search(q, top_k=10)]
        b = [(h.doc_key, h.score) for h in eng2.search(q, top_k=10)]
        assert a == b, q
    # stream variants roundtrip too
    import io

    buf = io.BytesIO()
    eng.save_stream(buf)
    buf.seek(0)
    eng3 = Engine.load_stream(buf, str(tmp_path / "extract2"))
    a = [(h.doc_key, h.score) for h in eng.search("fast column", top_k=5)]
    c = [(h.doc_key, h.score) for h in eng3.search("fast column", top_k=5)]
    assert a == c


def test_rebuild_prunes_stale_layout_segments(ray_session, tmp_path):
    """A rebuild over an out_dir holding segments from a DIFFERENT batch
    layout must not union them into the manifest (silent corpus
    doubling): the __segment__ df rows carry this build's authoritative
    segment list and stale dirs are pruned."""
    import shutil

    import ray.data

    from infidex_ray.config import EngineConfig
    from infidex_ray.engine import Engine

    rows = [{"doc_id": i, "text": f"alpha beta doc{i} gamma"} for i in range(60)]
    ds = ray.data.from_items(rows)
    out = str(tmp_path / "prune_idx")
    eng = Engine.build(
        ds, out, EngineConfig(target_docs_per_segment=30),
        text_column="text", key_column="doc_id",
    )
    assert eng.total_docs == 60
    seg_root = os.path.join(out, "segments")
    real = sorted(os.listdir(seg_root))
    # plant a stale segment from a "previous layout" (content-id differs)
    shutil.copytree(
        os.path.join(seg_root, real[0]), os.path.join(seg_root, "seg-deadbeefdeadbeef")
    )
    eng2 = Engine.build(
        ray.data.from_items(rows), out, EngineConfig(target_docs_per_segment=30),
        text_column="text", key_column="doc_id",
    )
    assert eng2.total_docs == 60, "stale segment leaked into the manifest"
    assert not os.path.isdir(os.path.join(seg_root, "seg-deadbeefdeadbeef"))
    hits = eng2.search("alpha beta", top_k=5)
    assert hits


# --- incremental refresh == fresh load ---------------------------------------
_WORDS = (
    "harbor quantum lantern meadow copper violet summit ember glacier orchid "
    "falcon prairie cobalt willow thunder marble saffron canyon velvet beacon"
).split()

# two-word, typo, ≤3 chars, single char (each short shape once on base words
# and once on a word only the added batches carry), and last the exact query
# issued just before each add, whose words every added batch carries
_REFRESH_QUERIES = (
    "copper summit", "lantrn medow", "emb", "zep", "v", "z", "harbor quantum",
)


def _corpus(n: int, seed: int, start_key: int = 1) -> list[tuple[int, str]]:
    import random

    rng = random.Random(seed)
    return [
        (start_key + i, " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12))))
        for i in range(n)
    ]


def _hits(eng, q, cov):
    return [
        (h.doc_key, h.score, h.tiebreaker)
        for h in eng.search(q, top_k=10, enable_coverage=cov)
    ]


@pytest.fixture(params=["local_build", "ray_build"])
def refresh_index(request, tmp_path):
    """A 3-segment index from both builders: the local build's one vocab
    part per kind and the Ray build's range-partitioned parts (an add
    appends a part to either)."""
    if request.param == "ray_build":
        request.getfixturevalue("ray_session")
    return _build_refresh_index(str(tmp_path / "refresh_idx"), request.param)


def _build_refresh_index(out: str, build: str) -> str:
    docs = _corpus(240, seed=7)
    if build == "local_build":
        build_index_local(docs, out, n_segments=3)
    else:
        import ray.data

        Engine.build(
            ray.data.from_items([{"doc_key": k, "text": t} for k, t in docs]),
            out, EngineConfig(target_docs_per_segment=80),
            text_column="text", key_column="doc_key",
        )
    return out


def test_incremental_refresh_matches_fresh_load(refresh_index):
    """After each add, the refreshed engine answers exactly like a fresh
    load: every per-segment cache and plan memo was warmed first, so a
    stale idf, df part, key index or scanner would show up here."""
    eng = Engine.load(refresh_index)
    for step in range(4):
        for q in _REFRESH_QUERIES:  # warm caches + plan memos before the add
            for cov in (True, False):
                eng.search(q, top_k=10, enable_coverage=cov)
        eng.get_document(1)
        batch = _corpus(6, seed=100 + step, start_key=1000 + 10 * step)
        batch = [(k, f"{t} harbor quantum") for k, t in batch[:-1]] + [
            (batch[-1][0], "zephyr harbor quantum")
        ]
        if step == 2:  # re-add an existing key: the later segment wins
            batch.append((5, "harbor quantum replacement meadow"))
        eng.add_documents(batch)
        fresh = Engine.load(refresh_index)
        # the query issued just before the add goes first, so a plan memo
        # left over from before the add would be reused
        for q in reversed(_REFRESH_QUERIES):
            for cov in (True, False):
                assert _hits(eng, q, cov) == _hits(fresh, q, cov), (step, q, cov)
        for key in (batch[0][0], 5, 1):
            assert eng.get_document(key) == fresh.get_document(key), (step, key)
        assert eng.get_statistics() == fresh.get_statistics()
        assert (eng.total_docs, eng.avgdl) == (fresh.total_docs, fresh.avgdl)


def test_incremental_add_opens_only_the_delta(ray_session, tmp_path, monkeypatch):
    """From both builders, one add followed by one search reads no segment
    and no parquet file back, and builds at most one word matcher (the
    delta's); the unchanged segments keep theirs."""
    import pyarrow.parquet as pq

    from infidex_ray import engine as engine_mod
    from infidex_ray import segments as seglib
    from infidex_ray.query.wordmatch import SegmentWordMatcher

    calls = {"read_segment": 0, "word_matcher": 0}
    reads: list[str] = []
    real_read, real_init = seglib.read_segment, SegmentWordMatcher.__init__
    real_read_table, real_parquet_file = pq.read_table, pq.ParquetFile

    def counting_read(*a, **kw):
        calls["read_segment"] += 1
        return real_read(*a, **kw)

    def counting_init(self, *a, **kw):
        calls["word_matcher"] += 1
        real_init(self, *a, **kw)

    def counting_read_table(source, *a, **kw):
        reads.append(str(source))
        return real_read_table(source, *a, **kw)

    def counting_parquet_file(source, *a, **kw):
        reads.append(str(source))
        return real_parquet_file(source, *a, **kw)

    for build in ("local_build", "ray_build"):
        out = _build_refresh_index(str(tmp_path / build), build)
        eng = Engine.load(out)
        assert eng.search("harbor quantum", top_k=10)  # builds every matcher
        assert len(eng.records) == 3
        assert all(r._word_matcher is not None for r in eng.records.values())

        calls.update(read_segment=0, word_matcher=0)
        reads.clear()
        monkeypatch.setattr(engine_mod, "read_segment", counting_read)
        monkeypatch.setattr(seglib, "read_segment", counting_read)
        monkeypatch.setattr(SegmentWordMatcher, "__init__", counting_init)
        monkeypatch.setattr(pq, "read_table", counting_read_table)
        monkeypatch.setattr(pq, "ParquetFile", counting_parquet_file)
        eng.add_documents([(5000, "harbor quantum lantern")])
        assert eng.search("harbor quantum", top_k=10)
        monkeypatch.undo()
        assert calls["read_segment"] == 0, build
        assert reads == [], build
        assert calls["word_matcher"] <= 1, build


def test_add_replaces_delta_left_by_a_failed_add(tmp_path):
    """A delta directory that an add wrote but never listed in the manifest
    (it failed before its manifest write) is rebuilt by the next add, so
    the delta opened in memory is the one on disk."""
    import shutil

    from infidex_ray.segments import read_segment

    out = str(tmp_path / "idx")
    build_index_local(_corpus(40, seed=5), out, n_segments=2)
    saved = str(tmp_path / "saved")
    shutil.copytree(out, saved)
    Engine.load(out).add_documents([(700, "stale harbor page")])
    for name in ("manifest.json", "stats"):  # undo all but the segment write
        src, dst = os.path.join(saved, name), os.path.join(out, name)
        if os.path.isdir(src):
            shutil.rmtree(dst)
            shutil.copytree(src, dst)
        else:
            shutil.copy(src, dst)

    eng = Engine.load(out)
    eng.add_documents([(800, "fresh quantum page"), (801, "fresh lantern page")])
    on_disk = read_segment(os.path.join(out, "segments", "delta-0000"), 2)
    assert on_disk.doc_keys.tolist() == [800, 801]
    _assert_same_segment(eng.segments[-1], on_disk)
    assert _hits(eng, "fresh quantum", True) == _hits(Engine.load(out), "fresh quantum", True)


def _assert_same_segment(got, want) -> None:
    """Field-by-field equality of two SegmentData, dtypes included."""
    import numpy as np

    for name in (
        "terms", "df", "offsets", "nbytes", "n_postings", "max_weight",
        "doc_keys", "doc_len", "token_counts", "seg_numbers",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert isinstance(got.postings_buf.obj, np.memmap)
    assert bytes(got.postings_buf) == bytes(want.postings_buf)
    for name in ("seg_id", "urls", "norm_texts", "first_tokens", "fields", "meta"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b and repr(a) == repr(b), name
    assert (got.short_tables is None) == (want.short_tables is None)
    assert sorted(got.short_tables or {}) == sorted(want.short_tables or {})
    for name, table in (got.short_tables or {}).items():
        assert table.schema == want.short_tables[name].schema, name
        assert table.equals(want.short_tables[name]), name


@pytest.mark.parametrize("case", ["plain", "fields", "synonyms", "auto_segment"])
def test_delta_opened_from_memory_equals_read_segment(case, tmp_path):
    """The delta ``add_documents`` opens from the tables it just wrote is
    the segment ``read_segment`` reads from the same directory."""
    from infidex_ray.config import AutoSegmentSetup
    from infidex_ray.segments import read_segment

    cfg = {
        "synonyms": EngineConfig(synonyms=(("harbor", "port", "haven"),)),
        "auto_segment": EngineConfig(auto_segment=AutoSegmentSetup(120, 0.2)),
    }.get(case, EngineConfig())
    out = str(tmp_path / "idx")
    build_index_local(_corpus(60, seed=3), out, cfg, n_segments=2)
    eng = Engine.load(out, cfg)
    batch = _corpus(8, seed=4, start_key=900) + [(950, "port haven harbor café")]
    if case == "auto_segment":  # several chunks per doc
        batch += [(960 + i, " ".join([t] * 12)) for i, (_, t) in enumerate(batch[:3])]
    fields = None
    if case == "fields":
        fields = [
            {"year": 1990 + i, "genre": None if i % 3 else f"g{i}", "score": i / 4}
            for i in range(len(batch))
        ]
    for step in range(2):
        eng.add_documents([(k + 100 * step, t) for k, t in batch], fields=fields)
        seg = eng.segments[-1]
        name = f"delta-{step:04d}"
        _assert_same_segment(seg, read_segment(os.path.join(out, "segments", name), seg.seg_id))
    if case == "auto_segment":
        assert seg.seg_numbers.max() > 0
    if case == "fields":
        assert seg.fields is not None and seg.fields["year"][0] == 1990
    assert seg.short_tables is not None


def test_df_lookups_after_adds_equal_fresh_load(refresh_index):
    """After each of three adds, both in-place df lookups answer every delta
    term so far and a sample of base terms exactly as a fresh
    ``open_lookup``, and so do their merged views (non-ASCII keys included:
    the merged view sorts in code-point order)."""
    from infidex_ray.vocabstats import open_lookup

    eng = Engine.load(refresh_index)
    assert eng.search("harbor quantum", top_k=10)  # parse some base parts
    base = {k: open_lookup(refresh_index, k).terms[::7].tolist() for k in ("term", "word")}
    delta = {"term": [], "word": []}
    for step in range(3):
        batch = _corpus(5, seed=40 + step, start_key=2000 + 10 * step)
        batch.append((2100 + step, f"brandnew{step} harbor zzzword{step} ſtep{step} 東京"))
        eng.add_documents(batch)
        seg = eng.segments[-1]
        delta["term"] += seg.terms.tolist()
        delta["word"] += [w for t in seg.norm_texts for w in t.lower().split()]
        for name, b in (("df_lookup", "term"), ("word_df", "word")):
            got, fresh = getattr(eng, name), open_lookup(refresh_index, b)
            assert type(got) is type(fresh)
            probes = delta[b] + base[b] + ["", "absent-term", "\U0010ffff"]
            assert [got(t) for t in probes] == [fresh(t) for t in probes], (step, b)
            assert got.vocab_size() == fresh.vocab_size(), (step, b)
            assert got.terms.tolist() == fresh.terms.tolist(), (step, b)
            assert got.terms.tolist() == sorted(got.terms.tolist()), (step, b)
            assert got.dfs.tolist() == fresh.dfs.tolist(), (step, b)
        assert eng.word_df("東京") == step + 1


def test_stats_of_a_failed_add_do_not_count(refresh_index):
    """The manifest is the commit point: an add that wrote its stats parts
    but died before its manifest write leaves parts a load must not count,
    and the next add replaces them."""
    import shutil

    manifest = os.path.join(refresh_index, "manifest.json")
    shutil.copy(manifest, manifest + ".saved")
    before = Engine.load(refresh_index)
    harbor = before.word_df("harbor")
    Engine.load(refresh_index).add_documents([(700, "harbor zephyr")])
    shutil.copy(manifest + ".saved", manifest)  # undo only the manifest write

    eng = Engine.load(refresh_index)
    assert eng.total_docs == before.total_docs
    assert (eng.word_df("harbor"), eng.word_df("zephyr")) == (harbor, 0)
    assert eng.df_lookup.dfs.tolist() == before.df_lookup.dfs.tolist()
    eng.add_documents([(800, "harbor quantum")])
    fresh = Engine.load(refresh_index)
    assert (fresh.word_df("harbor"), fresh.word_df("zephyr")) == (harbor + 1, 0)
    assert fresh.word_df.terms.tolist() == eng.word_df.terms.tolist()


def test_missing_vocab_stats_fail_loudly(ray_session, tmp_path):
    """An index without ``stats/vocab/kind=*/`` (here the old single-file
    layout) raises on load instead of reading every df as 0; an empty local
    or Ray build still writes both kind dirs and loads."""
    import shutil

    import ray.data

    out = str(tmp_path / "old")
    build_index_local(_corpus(20, seed=1), out)
    for kind, name in (("term", "df"), ("word", "word_df")):
        shutil.copy(
            os.path.join(out, "stats", "vocab", f"kind={kind}", "base.parquet"),
            os.path.join(out, "stats", f"{name}.parquet"),
        )
    shutil.rmtree(os.path.join(out, "stats", "vocab"))
    with pytest.raises(FileNotFoundError, match="kind=term"):
        Engine.load(out)

    empty = str(tmp_path / "empty")
    build_index_local([], empty)
    rows = ray.data.from_items([{"doc_key": 1, "text": "harbor"}]).filter(lambda r: False)
    Engine.build(rows, str(tmp_path / "empty_ray"), text_column="text", key_column="doc_key")
    for out in (empty, str(tmp_path / "empty_ray")):
        for kind in ("term", "word"):
            assert os.path.isdir(os.path.join(out, "stats", "vocab", f"kind={kind}"))
        eng = Engine.load(out)
        assert eng.search("harbor", top_k=5) == []
        assert eng.word_df("harbor") == 0 and eng.get_statistics().vocabulary_size == 0


def test_merge_index_folds_delta_stats(tmp_path):
    """``merge_index`` of an index with adds (and the parts of a failed add)
    serves the same dfs; its live delta parts are summed into one part, so
    the merged index's own adds, which restart at ``delta-0000``, count
    once."""
    import shutil

    from infidex_ray.build import merge_index

    src, merged = str(tmp_path / "src"), str(tmp_path / "merged")
    build_index_local(_corpus(40, seed=2), src, n_segments=2)
    eng = Engine.load(src)
    eng.add_documents([(500, "harbor zephyr")])
    eng.add_documents([(501, "zephyr quantum")])
    manifest = os.path.join(src, "manifest.json")
    shutil.copy(manifest, manifest + ".saved")
    eng.add_documents([(502, "zephyr never committed")])
    shutil.copy(manifest + ".saved", manifest)
    want = Engine.load(src)

    merge_index(src, merged, use_ray=False, target_segments=1)
    got = Engine.load(merged)
    for name in ("df_lookup", "word_df"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.terms.tolist(), a.dfs.tolist()) == (b.terms.tolist(), b.dfs.tolist())
    assert got.word_df("zephyr") == 2
    got.add_documents([(600, "zephyr again")])
    assert Engine.load(merged).word_df("zephyr") == got.word_df("zephyr") == 3
    merge_index(merged, str(tmp_path / "twice"), use_ray=False)
    assert Engine.load(str(tmp_path / "twice")).word_df("zephyr") == 3
    for index in (src, merged, str(tmp_path / "twice")):
        assert os.listdir(os.path.join(index, "stats")) == ["vocab"]

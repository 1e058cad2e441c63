"""The four workloads and the traced layer sweep.

Every workload runs: set-up repeated ``SETUP_REPS`` times (the last one is
kept), then a timed phase that runs whole operations until ``seconds`` have
passed, then output checks off the clock. Each workload reports the same
four end-to-end numbers; what one operation and one unit of work are
differs per workload and is listed in README.md.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import gc
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import inputs
from .host import RAY_CPUS, PeakRss, process_titles
from .trace import Tracer, instrument

TOP_K = 10
SETUP_REPS = 3
SERVE_SHARDS = 2
# the serve stream holds enough queries for --seconds at this mean latency
# (the seed code's is ~100 ms); a run that still uses it up fails a check
SERVE_FLOOR_S = 0.010
BATCH_ACTORS = 2
BATCH_BLOCK = 50
# add_documents slows as delta segments pile up, so every ingest cycle
# restores the merged index and makes the same fixed sequence of adds
INGEST_ADDS = 6
INGEST_PAGES = 10
SERVING_SEGMENTS = 2

now = time.perf_counter


def hit_rows(hits, first_rank: int = 0) -> list[tuple[int, int, float]]:
    """(doc, rank, float32 score) of a hit list: the compared output."""
    return [(int(h.doc_key), r + first_rank, float(np.float32(h.score))) for r, h in enumerate(hits)]


def reference_search(index_dir: str, queries: list[str], traced: bool):
    """In-process ``Engine.search`` results for ``queries`` (runs as a Ray
    task, so the serve check is spread over the CPUs the shards freed)."""
    from infidex_ray.engine import Engine

    tracer = Tracer(traced)
    eng = Engine.load(index_dir)
    rows = []
    with instrument(tracer) if traced else contextlib.nullcontext():
        for q in queries:
            with tracer.span("reference.query"):
                rows.append(hit_rows(eng.search(q, top_k=TOP_K)))
    return rows, tracer.spans


class Run:
    """State of one benchmark run: work directory, tracer, memory sampler,
    check counters and the figures reported next to the metrics."""

    def __init__(self, work_dir: str, seed: int, tracer: Tracer):
        self.work = work_dir
        self.seed = seed
        self.tracer = tracer
        self.rss = PeakRss()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.detail: dict = {}
        self.counts: dict = {}
        self.samples: dict[str, list[float]] = {}
        self.index: str | None = None
        self.engine = None  # DistributedEngine while serving
        self.dedup_input = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def add_samples(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    # ---------------------------------------------------------------- set-up
    def build_serving_index(self, tag: str) -> str:
        """Corpus → Parquet → ``build_index`` → ``merge_index`` to the serving
        segment count. Returns the serving index directory."""
        import ray.data

        from infidex_ray.build import build_index, merge_index
        from infidex_ray.config import AutoSegmentSetup, EngineConfig

        root = os.path.join(self.work, tag)
        shutil.rmtree(root, ignore_errors=True)
        table = inputs.corpus(self.seed)
        inputs.write_corpus(table, os.path.join(root, "corpus"))
        cfg = EngineConfig(
            target_docs_per_segment=-(-table.num_rows // inputs.INPUT_FILES),
            auto_segment=AutoSegmentSetup(200, 0.2),
        )
        built, serving = os.path.join(root, "built"), os.path.join(root, "serving")
        with self.tracer.span("build.build_index"):
            t0 = now()
            build_index(ray.data.read_parquet(os.path.join(root, "corpus")), built, cfg,
                        text_column="text", key_column="url", repartition=False)
            t1 = now()
        with self.tracer.span("build.merge_index"):
            merge_index(built, serving, target_segments=SERVING_SEGMENTS)
            t2 = now()
        self.add_samples("build_index_s", [t1 - t0])
        self.add_samples("merge_index_s", [t2 - t1])
        self.add_samples("build_pages_per_s", [table.num_rows / (t2 - t0)])
        text_bytes = pc.sum(pc.binary_length(table["text"])).as_py()
        self.detail["index_bytes_per_input_byte"] = dir_bytes(serving) / text_bytes
        self.counts.setdefault("layout", set()).add(inputs.layout_digest(built))
        self.counts.setdefault("serving_layout", set()).add(inputs.layout_digest(serving))
        if self.index and self.index != serving:
            shutil.rmtree(os.path.dirname(self.index), ignore_errors=True)
        self.index = serving
        return serving

    def connect(self) -> None:
        from infidex_ray.query.executor import DistributedEngine

        if self.engine is not None:
            self.engine.shutdown()
        self.engine = DistributedEngine.connect(self.index, num_shards=SERVE_SHARDS)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None

    def setup(self, rep_fn, once_fn) -> float:
        """Median wall time of ``SETUP_REPS`` runs of ``rep_fn`` (the last
        one's result stays) plus the wall time of ``once_fn``."""
        times = []
        for rep in range(SETUP_REPS):
            t0 = now()
            rep_fn(self, rep)
            times.append(now() - t0)
        for key in ("layout", "serving_layout", "dedup_input"):
            if key in self.counts:
                self.check(len(self.counts[key]) == 1, f"{key} differs between set-ups")
        t0 = now()
        once_fn(self)
        self.detail["setup_reps_s"] = times
        return statistics.median(times) + now() - t0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def p50_ms(xs) -> float:
    return statistics.median(xs) * 1000.0


# ------------------------------------------------------------------- serve
def serve_setup(run: Run, rep: int) -> None:
    run.build_serving_index(f"setup{rep}")


def serve_connect(run: Run) -> None:
    """Once, after the repeated builds: connect the shard actors and send
    one warm query per shape."""
    run.connect()
    for _, q in inputs.query_pool(inputs.rng_seed(run.seed, "warm"), len(inputs.SHAPES)):
        run.engine.search(q, top_k=TOP_K)


def serve_phase(run: Run, seconds: float, min_queries: int) -> dict:
    """One client, closed loop, distinct queries, 2 shard actors."""
    import ray

    pool = inputs.query_pool(run.seed, max(min_queries, int(seconds / SERVE_FLOOR_S)))
    lat, got, shapes = [], [], []
    run.rss.reset()
    start = now()
    for i, (shape, q) in enumerate(pool):
        if i >= min_queries and now() - start >= seconds:
            break
        with run.tracer.span("serve.query", trace_id=f"serve{i}", shape=shape):
            t0 = now()
            hits = run.engine.search(q, top_k=TOP_K)
            lat.append(now() - t0)
        got.append(hit_rows(hits))
        shapes.append(shape)
        if i % 10 == 0:
            run.rss.sample()
    wall = now() - start
    run.rss.sample()
    run.check(len(got) < len(pool) or wall >= seconds,
              f"serve query stream ({len(pool)}) ran out before {seconds} s")
    run.close()  # frees the shard CPUs for the reference check

    queries = [q for _, q in pool[: len(got)]]
    task = ray.remote(num_cpus=1)(reference_search)
    parts = np.array_split(np.arange(len(queries)), 3)
    refs = [task.remote(run.index, [queries[i] for i in p], run.tracer.enabled)
            for p in parts if len(p)]
    for p, (rows, spans) in zip(parts, ray.get(refs)):
        run.tracer.adopt(spans, "reference")
        for i, want in zip(p.tolist(), rows):
            run.check(got[i] == want, f"serve {queries[i]!r} differs from Engine.search")
    run.counts["shapes"] = {s: shapes.count(s) for s in inputs.SHAPES}
    run.counts["serve_repeats"] = len(queries) - len(set(queries))
    lat_ms = sorted(x * 1000 for x in lat)
    run.detail["query_p50_ms"] = statistics.median(lat_ms)
    run.detail["query_p90_ms"] = float(np.percentile(lat_ms, 90))
    run.detail["query_n"] = len(lat_ms)
    return {"throughput": len(lat) / wall, "latency_ms": statistics.median(lat_ms)}


# -------------------------------------------------------------- batch_zipf
def release_actors(timeout_s: float = 30.0) -> None:
    """Ray Data frees a finished dataset's actor pool only once the dataset
    is garbage collected; a job started before that waited ~17 s for CPUs.
    So between jobs (off the clock) collect, then wait for every CPU and for
    the old actor processes to exit, so each job starts from the same state."""
    import ray

    gc.collect()
    deadline = now() + timeout_s
    while now() < deadline and (
        ray.available_resources().get("CPU", 0) < RAY_CPUS
        or any(title.startswith(b"ray::MapWorker") for title in process_titles())
    ):
        time.sleep(0.02)


def batch_setup(run: Run, rep: int) -> None:
    run.build_serving_index(f"setup{rep}")


def batch_phase(run: Run, seconds: float, min_jobs: int) -> dict:
    """Back-to-back ``batch_search`` jobs over one Zipf query log, stage-1
    mode, a fixed pool of 2 actors; each job pays its own cold start. Every
    job's rows are checked."""
    import ray.data

    from infidex_ray.engine import Engine
    from infidex_ray.ops.batchsearch import batch_search

    log = inputs.zipf_log(run.seed, inputs.BATCH_LOG)
    blocks = [pa.table({"query": log[i: i + BATCH_BLOCK]}) for i in range(0, len(log), BATCH_BLOCK)]
    walls, firsts, warms, jobs_rows = [], [], [], []
    run.rss.reset()
    start = now()
    while len(walls) < min_jobs or now() - start < seconds:
        tid = f"batch{len(walls)}"
        t0 = now()
        ds = batch_search(ray.data.from_arrow(blocks), run.index, top_k=TOP_K,
                          enable_coverage=False, concurrency=BATCH_ACTORS,
                          batch_size=BATCH_BLOCK)
        out, first = [], None
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = now()
            out.append(b)
            run.rss.sample()
        t1 = now()
        run.tracer.record("ops.batchsearch.job", t0, t1, tid)
        run.tracer.record("ops.batchsearch.first_batch", t0, first, tid)
        run.tracer.record("ops.batchsearch.warm", first, t1, tid)
        del ds
        release_actors()
        walls.append(t1 - t0)
        firsts.append(first - t0)
        warms.append(t1 - first)
        jobs_rows.append(batch_rows(out))

    # every job's rows for every distinct query must equal in-process
    # stage-1 search, once per occurrence in the log
    eng = Engine.load(run.index)
    for q in sorted(set(log)):
        want = sorted(hit_rows(eng.search(q, top_k=TOP_K, enable_coverage=False),
                               first_rank=1) * log.count(q))
        for j, got in enumerate(jobs_rows):
            run.check(sorted(got.get(q, [])) == want,
                      f"batch job {j} {q!r} differs from Engine.search(enable_coverage=False)")
    run.counts["log"] = {"queries": len(log), "distinct": len(set(log))}
    run.detail["dup_share"] = 1 - len(set(log)) / len(log)
    run.add_samples("first_batch_s", firsts)
    # input blocks and actor batches are both BATCH_BLOCK queries, so each
    # output batch answers exactly one block
    run.add_samples("warm_qps", [(len(log) - BATCH_BLOCK) / w for w in warms])
    job = statistics.median(walls)
    run.detail.update(batch_qps=len(log) / job, job_p50_ms=job * 1000,
                      warm_p50_ms=p50_ms(warms), jobs=len(walls),
                      first_s=[round(x, 3) for x in firsts], warm_s=[round(x, 3) for x in warms])
    return {"throughput": len(log) / job, "latency_ms": p50_ms(warms)}


def batch_rows(tables) -> dict[str, list]:
    """query → (doc, rank, float32 score) rows of a batch_search output."""
    got: dict[str, list] = {}
    for t in tables:
        for q, r, d, s in zip(*(t[c].to_pylist() for c in ("query", "rank", "doc_id", "score"))):
            got.setdefault(q, []).append((d, r, float(np.float32(s))))
    return got


# ------------------------------------------------------------------ ingest
def ingest_setup(run: Run, rep: int) -> None:
    run.build_serving_index(f"setup{rep}")


def ingest_phase(run: Run, seconds: float, min_cycles: int, adds: int = INGEST_ADDS) -> dict:
    """Cycles of: restore the merged index, then ``adds`` times
    ``add_documents`` → search for the batch's nonce → repeat search."""
    from infidex_ray.engine import Engine

    adds_s, first_s, second_s = [], [], []
    work = os.path.join(run.work, "ingest")
    run.rss.reset()
    start, cycles = now(), 0
    while cycles < min_cycles or now() - start < seconds:
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(run.index, work)  # off the clock: not a user step
        eng = Engine.load(work)
        for seq in range(adds):
            nonce, key, docs = inputs.add_batch(run.seed, seq, INGEST_PAGES)
            with run.tracer.span("ingest.add", trace_id=f"add{cycles}.{seq}"):
                t0 = now()
                eng.add_documents(docs)
                t1 = now()
                with run.tracer.span("engine.first_search"):
                    h1 = eng.search(nonce, top_k=TOP_K)
                t2 = now()
                with run.tracer.span("engine.second_search"):
                    h2 = eng.search(nonce, top_k=TOP_K)
                t3 = now()
            adds_s.append(t1 - t0)
            first_s.append(t2 - t1)
            second_s.append(t3 - t2)
            run.check(key in {h.doc_key for h in h1} and key in {h.doc_key for h in h2},
                      f"nonce {nonce} did not return page {key}")
            run.rss.sample()
        cycles += 1
    with open(os.path.join(work, "manifest.json")) as f:
        run.counts["segments_after_adds"] = len(json.load(f)["segments"])
    run.counts["index_bytes_after_adds"] = dir_bytes(work)
    run.add_samples("add_s", adds_s)
    run.add_samples("first_search_s", first_s)
    run.add_samples("second_search_s", second_s)
    fresh = [a + f for a, f in zip(adds_s, first_s)]
    busy = sum(adds_s) + sum(first_s) + sum(second_s)
    run.detail.update(
        add_p50_ms=p50_ms(adds_s), fresh_query_p50_ms=p50_ms(first_s),
        second_query_p50_ms=p50_ms(second_s), adds=len(adds_s),
        build_pages_per_s=statistics.median(run.samples["build_pages_per_s"]),
    )
    return {"throughput": len(adds_s) * INGEST_PAGES / busy, "latency_ms": p50_ms(fresh)}


# ------------------------------------------------------------------- dedup
def _dedup_pass(run: Run, tid: str):
    from infidex_ray.ops.dedup import exact_dedup, minhash_lsh_pairs

    def rows(out_ds) -> list[dict]:
        got = []
        for b in out_ds.iter_batches(batch_format="pyarrow", batch_size=None):
            got.extend(b.to_pylist())
            run.rss.sample()  # while the pass's task workers are still busy
        return got

    ds = run.dedup_input["ds"]
    with run.tracer.span("ops.dedup.minhash_lsh_pairs", trace_id=tid):
        t0 = now()
        pairs = rows(minhash_lsh_pairs(ds, threshold=0.5))
        t1 = now()
    with run.tracer.span("ops.dedup.exact_dedup", trace_id=tid):
        groups = rows(exact_dedup(ds))
        t2 = now()
    return pairs, groups, t1 - t0, t2 - t1


def dedup_setup(run: Run, rep: int) -> None:
    import ray.data

    table, near, exact = inputs.planted_corpus(run.seed)
    n = table.num_rows
    step = -(-n // 6)
    ds = ray.data.from_arrow([table.slice(i, step) for i in range(0, n, step)])
    run.dedup_input = {"ds": ds, "near": near, "exact": exact, "pages": n}
    run.counts.setdefault("dedup_input", set()).add(inputs.digest(table["text"].to_pylist()))
    _dedup_pass(run, f"warm{rep}")  # Ray Data workers and imports, once per session


def dedup_phase(run: Run, seconds: float, min_passes: int) -> dict:
    """Repeated ``minhash_lsh_pairs`` + ``exact_dedup`` passes over the
    corpus with planted near and exact copies."""
    inp = run.dedup_input
    near = set(inp["near"])
    exact = dict(inp["exact"])  # original id → copy id
    walls, mins, exs, digests, recall = [], [], [], [], []
    run.rss.reset()
    start = now()
    while len(walls) < min_passes or now() - start < seconds:
        pairs, groups, m_s, e_s = _dedup_pass(run, f"dedup{len(walls)}")
        walls.append(m_s + e_s)
        mins.append(m_s)
        exs.append(e_s)
        found = {(p["id_a"], p["id_b"]) for p in pairs}
        digests.append(inputs.digest(sorted(found)))
        recall.append(len(near & found) / len(near))
        run.check(digests[-1] == digests[0] and all(p["jaccard"] >= 0.5 for p in pairs),
                  "minhash_lsh_pairs pair set changed between passes")
        dupes = {g["keep_id"]: g["n_dupes"] for g in groups}
        run.check(len(groups) == inp["pages"] - len(exact)
                  and all(dupes.get(src) == 2 for src in exact),
                  "exact_dedup groups differ from the planted exact copies")
    run.detail["pass_s"] = [round(x, 3) for x in walls]
    run.add_samples("minhash_s", mins)
    run.add_samples("exact_s", exs)
    job = statistics.median(walls)
    run.detail.update(dedup_pages_per_s=inp["pages"] / job, passes=len(walls),
                      pairs=len(found), planted_recall=min(recall), pair_digest=digests[0])
    return {"throughput": inp["pages"] / job, "latency_ms": job * 1000}


def _none(run: Run) -> None:
    pass


# name → (repeated set-up, one-off set-up after it, timed phase)
WORKLOADS = {
    "serve": (serve_setup, serve_connect, lambda run, s: serve_phase(run, s, min_queries=30)),
    "batch_zipf": (batch_setup, _none, lambda run, s: batch_phase(run, s, min_jobs=2)),
    "ingest": (ingest_setup, _none, lambda run, s: ingest_phase(run, s, min_cycles=2)),
    "dedup": (dedup_setup, _none, lambda run, s: dedup_phase(run, s, min_passes=3)),
}


# -------------------------------------------------------------- layer sweep
def sweep(run: Run) -> None:
    """Traced runs only: give every per-layer metric a value on every
    workload. Layers the workload's own phase did not reach get one short
    pass of the phase that reaches them, on this seed's inputs."""
    if run.index is None:
        run.build_serving_index("sweep")
    t = run.tracer
    if not t.has("query.executor.search"):
        run.connect()
        serve_phase(run, 0, min_queries=12)
    if not t.has("ops.batchsearch.job"):
        batch_phase(run, 0, min_jobs=1)
    if not t.has("engine.add_documents"):
        ingest_phase(run, 0, min_cycles=1, adds=3)
    if not t.has("ops.dedup.minhash_lsh_pairs"):
        import ray.data

        table, near, exact = inputs.planted_corpus(run.seed)
        run.dedup_input = {"ds": ray.data.from_arrow(table), "near": near,
                           "exact": exact, "pages": table.num_rows}
        dedup_phase(run, 0, min_passes=1)
    analyzer_probe(run)
    decode_probe(run)


def analyzer_probe(run: Run, docs: int = 600, reps: int = 5) -> None:
    from infidex_ray.analyzer import count_tokens_batch

    texts = [t.lower() for t in inputs.corpus(run.seed)["text"].to_pylist()[:docs]]
    mb = sum(len(t.encode()) for t in texts) / 1e6
    for _ in range(reps):
        with t_span(run, "analyzer.count_tokens_batch", mb=mb):
            count_tokens_batch(texts)


def decode_probe(run: Run, reps: int = 3) -> None:
    """``read_segment`` + ``decode_postings`` of every term of one serving
    segment."""
    from infidex_ray.segments import decode_postings, read_segment

    with open(os.path.join(run.index, "manifest.json")) as f:
        name = json.load(f)["segments"][0]["name"]
    seg_dir = os.path.join(run.index, "segments", name)
    for _ in range(reps):
        with t_span(run, "segments.decode") as rec:
            seg = read_segment(seg_dir)
            buf = seg.postings_buf
            for off, nb in zip(seg.offsets.tolist(), seg.nbytes.tolist()):
                decode_postings(buf[off: off + nb])
            rec["mb"] = int(seg.nbytes.sum()) / 1e6


def t_span(run: Run, name: str, **attrs):
    return run.tracer.span(name, trace_id="probe", **attrs)


def _rate(tracer: Tracer, name: str) -> float | None:
    r = [s["mb"] / (s["end"] - s["start"]) for s in tracer.spans if s["name"] == name]
    return statistics.median(r) if r else None


def layer_metrics(run: Run) -> dict[str, tuple[float | None, str]]:
    t = run.tracer
    med = lambda k: statistics.median(run.samples[k]) if run.samples.get(k) else None  # noqa: E731
    m = {
        "query.executor.connect_s": (t.p50("query.executor.connect"), "s"),
        "query.executor.search_ms": (t.p50("query.executor.search", 1e3), "ms"),
        "query.executor.stage1_ms": (t.p50("query.executor.stage1", 1e3), "ms"),
        "query.stage1.ms": (t.p50("query.stage1", 1e3, trace="reference"), "ms"),
        "engine.search_ms": (t.p50("engine.search", 1e3, trace="reference"), "ms"),
        "engine.search_nocov_ms": (t.p50("engine.search_nocov", 1e3), "ms"),
    }
    for shape in inputs.SHAPES:
        m[f"shape.{shape}.p50_ms"] = (t.p50("serve.query", 1e3, shape=shape), "ms")
    m.update({
        "ops.batchsearch.first_batch_s": (med("first_batch_s"), "s"),
        "ops.batchsearch.warm_qps": (med("warm_qps"), "1/s"),
        "ops.batchsearch.dup_share": (run.detail.get("dup_share"), "ratio"),
        "build.build_index_s": (med("build_index_s"), "s"),
        "build.merge_index_s": (med("merge_index_s"), "s"),
        "analyzer.tokens_mb_per_s": (_rate(t, "analyzer.count_tokens_batch"), "MB/s"),
        "segments.decode_mb_per_s": (_rate(t, "segments.decode"), "MB/s"),
        "segments.count": (run.counts.get("segments_after_adds"), "count"),
        "segments.index_bytes": (run.counts.get("index_bytes_after_adds"), "bytes"),
        "build.append_to_index_ms": (t.p50("build.append_to_index", 1e3), "ms"),
        "engine.load_ms": (t.p50("engine.load", 1e3, under="engine.add_documents"), "ms"),
        "engine.first_search_ms": (t.p50("engine.first_search", 1e3), "ms"),
        "engine.second_search_ms": (t.p50("engine.second_search", 1e3), "ms"),
        "ops.dedup.minhash_s": (med("minhash_s"), "s"),
        "ops.dedup.exact_s": (med("exact_s"), "s"),
        "ops.dedup.pairs": (run.detail.get("pairs"), "count"),
        "ops.dedup.planted_recall": (run.detail.get("planted_recall"), "ratio"),
    })
    return m

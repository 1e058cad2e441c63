"""High-level engine API: build / load / search.

``Engine`` mirrors the reference's ``SearchEngine`` surface
(src/Infidex/SearchEngine.cs:96-319) on top of the partitioned on-disk index:

* ``Engine.build(ds, out_dir)``  — Ray Data build (see build.py)
* ``Engine.load(index_dir)``     — open segments + global stats ("Load" =
  reading the manifest; nothing is recomputed, IndexPersistence.cs semantics)
* ``engine.search(text, top_k)`` — full pipeline: normalize → stage-1 BM25
  per segment → heap merge → segment consolidation → coverage/fusion
  rescoring → truncation (SearchPipeline.cs:49-206)

This class runs the query path in-process (each SegmentStage1 is the exact
state a distributed query actor holds); the actor-pool serving path in
query/executor.py wraps the same objects.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .analyzer import normalize, split_words
from . import vocabstats
from .config import EngineConfig
from .query import stage1 as s1
from .segments import SegmentData, read_segment
from .vocabstats import VocabLookup


@dataclass
class SearchHit:
    score: float
    doc_key: int
    tiebreaker: int
    url: str | None = None
    text: str | None = None


@dataclass
class Query:
    """Mirror of Infidex.Api.Query (src/Infidex/Api/Query.cs): text + limits
    + Infiscript filter/boosts + sort + facets."""

    text: str
    max_results: int = 10
    filter: "str | object | None" = None  # Infiscript expression or AST node
    # (AST form accepts filters.DerivedFilter — the custom-predicate hook)
    boosts: tuple[tuple[str, int], ...] = ()  # (expression, strength 1-3)
    sort_by: str | None = None
    sort_ascending: bool = True
    enable_facets: bool = False
    enable_coverage: bool | None = None
    # Search timeout in ms, clamped to [0, 10000] at execution
    # (src/Infidex/Api/Query.cs:73-75, SearchEngine.cs:290)
    timeout_ms: int = 1000


@dataclass
class Result:
    """Mirror of Infidex.Api.Result: records + facets + truncation info."""

    records: list[SearchHit]
    facets: dict[str, list[tuple[str, int]]] | None
    truncation_index: int
    truncation_score: float
    total_candidates: int
    # src/Infidex/Api/Result.cs:34 (DidTimeOut): the query exceeded its
    # budget and records are the best-effort stage-1 (or partial) results
    did_timeout: bool = False
    # src/Infidex/Api/Result.cs:44 (ExecutionTimeMs). The reference declares
    # the field but never populates it; we measure the full query wall time.
    execution_time_ms: int = 0


@dataclass
class SystemStatus:
    """Mirror of Infidex.Api.SystemStatus (src/Infidex/Api/SystemStatus.cs:
    6-22): engine status snapshot returned by :meth:`Engine.get_status`."""

    document_count: int = 0
    reindex_required: bool = False
    too_long_search_text: bool = False
    too_long_client_text: bool = False
    index_progress: int = 0  # 0-100 %


@dataclass
class IndexStatistics:
    """Mirror of SearchEngine.IndexStatistics (SearchEngine.cs:385-399):
    (document count, vocabulary size) snapshot."""

    document_count: int = 0
    vocabulary_size: int = 0


def analyze_query(search_text: str, cfg: EngineConfig) -> tuple[bool, bool, str]:
    """QueryAnalyzer.Analyze (src/Infidex/Scoring/QueryAnalyzer.cs:10-55)."""
    min_size = cfg.min_index_size
    words = split_words(search_text, cfg.delimiters)
    if not words:
        return len(search_text) >= min_size, False, search_text
    long_words = [w for w in words if len(w) >= min_size]
    short_count = len(words) - len(long_words)
    can = bool(long_words)
    text = " ".join(long_words) if long_words else search_text
    mixed = short_count > 0 and bool(long_words)
    return can, mixed, text


def stage1_text(q: str, cfg: EngineConfig) -> str | None:
    """The text stage 1 scores for the normalized, lowered query ``q``: its
    long words alone when it mixes words under the min index size with
    longer ones, else ``q``; None when no word reaches the min index size
    (the short/single-char path). The float64 scorer and the SQL oracle
    take their terms from the same text."""
    can_ngrams, has_mixed, long_words_text = analyze_query(q, cfg)
    if not can_ngrams:
        return None
    return long_words_text if has_mixed else q


def config_from_manifest(manifest: dict) -> "EngineConfig":
    """Reconstruct the build-time EngineConfig from a manifest — shared by
    ``Engine.load`` and stats-only contexts (ops/batchsearch) that need
    the tokenizer/plan parameters without opening any segment."""
    c = manifest["config"]
    return EngineConfig(
        index_sizes=tuple(c["index_sizes"]),
        start_pad_size=c["start_pad_size"],
        stop_pad_size=c["stop_pad_size"],
        stop_term_limit=c["stop_term_limit"],
        delimiters=tuple(c["delimiters"]),
        synonyms=tuple(tuple(g) for g in c.get("synonyms", [])),
        enable_coverage=c.get("enable_coverage", True),
    )


def bm25_idf(total_docs: int, df: int) -> float:
    """Float64 BM25 idf with stage 1's clamp (``stage1.compute_idf``): a
    term whose df exceeds the doc count gets idf 0, not a negative one (df
    can: each occurrence past weight saturation adds 1, Term.cs:87-113).
    The SQL oracle's idf (``sqlgen._sql_idf``) applies the same rule."""
    ratio = (total_docs - df + 0.5) / (df + 0.5)
    return float(np.log(ratio + 1.0)) if ratio > 0 else 0.0


class SegmentRecord:
    """One segment's serving state: its ``SegmentData`` and stage-1
    searcher, plus its short-query scanner, word matcher and coverage token
    table, each built at first use. All of it depends only on the immutable
    segment files, so it lives as long as the segment is served."""

    def __init__(self, seg: SegmentData, cfg: EngineConfig, synonym_map):
        self.seg = seg
        self.stage1 = s1.SegmentStage1(seg, cfg)
        self._cfg = cfg
        self._synonym_map = synonym_map
        self._delimiters = frozenset(cfg.delimiters)
        self._short = self._word_matcher = self._token_table = None

    def cov_text(self, lid: int) -> str:
        """Coverage document text: normalized chunk text, synonym-canonicalized
        when a map is configured (SearchPipeline.ProcessCandidate, :482-489)."""
        text = self.seg.norm_texts[lid]
        if self._synonym_map is not None:
            text = self._synonym_map.canonicalize_text(text, self._delimiters)
        return text

    @property
    def short(self):
        if self._short is None:
            from .analyzer import _word_splitter
            from .query.shortquery import SegmentShortQuery

            self._short = SegmentShortQuery(self.seg, _word_splitter(self._cfg.delimiters))
        return self._short

    @property
    def word_matcher(self):
        """WordMatcher.FinalizeIndex analogue over the 1:1-lowered texts."""
        if self._word_matcher is None:
            from .analyzer import _word_splitter
            from .query.coverage import lower_1to1
            from .query.wordmatch import SegmentWordMatcher

            wmc = self._cfg.word_matcher
            self._word_matcher = SegmentWordMatcher(
                [lower_1to1(t) for t in self.seg.norm_texts],
                _word_splitter(self._cfg.delimiters),
                min_exact=wmc.min_word_size_exact,
                max_exact=wmc.max_word_size_exact,
                min_ld1=wmc.min_word_size_ld1,
                max_ld1=wmc.max_word_size_ld1,
                support_ld1=wmc.support_ld1,
                support_affix=wmc.support_affix,
            )
        return self._word_matcher

    @property
    def token_table(self):
        """Coverage token table over the chunks' ``cov_text``."""
        if self._token_table is None:
            from .query.coverage import token_table

            self._token_table = token_table(
                [self.cov_text(lid) for lid in range(len(self.seg.norm_texts))],
                self.seg.first_tokens, self._cfg.coverage.min_word_size, self._delimiters,
            )
        return self._token_table


def read_tombstones(index_dir: str) -> set[int]:
    """The index's soft-deleted keys (``delete_documents`` writes them)."""
    tomb = os.path.join(index_dir, "tombstones.json")
    if not os.path.exists(tomb):
        return set()
    with open(tomb) as f:
        return set(json.load(f))


class Engine:
    def __init__(
        self,
        index_dir: str,
        cfg: EngineConfig,
        segments: list[SegmentData],
        df_lookup: VocabLookup,
        word_df: VocabLookup,
        total_docs: int,
        avgdl: float,
    ):
        self.index_dir = index_dir
        self.cfg = cfg
        self.df_lookup = df_lookup
        self.word_df = word_df
        self.total_docs = total_docs
        self.avgdl = avgdl
        self.synonym_map = cfg.synonym_map()
        # GLOBAL segment id → serving record, in segment order (shard
        # engines hold a subset)
        self.records: dict[int, SegmentRecord] = {}
        self._key_index: dict[int, tuple[int, int]] | None = None
        for seg in segments:
            self._add_segment(SegmentRecord(seg, cfg, self.synonym_map))
        # soft-deleted keys: read where an engine is opened from disk
        # (``load``, ``DistributedEngine.connect``), not per construction
        self.deleted: set[int] = set()

    def _add_segment(self, rec: SegmentRecord) -> None:
        """Serve one more segment; a later segment wins a repeated key."""
        self.records[rec.seg.seg_id] = rec
        if self._key_index is not None:
            self._index_keys(rec.seg)

    def _index_keys(self, seg: SegmentData) -> None:
        self._key_index.update((k, (seg.seg_id, lid)) for lid, k in enumerate(seg.doc_keys.tolist()))

    @property
    def key_index(self) -> dict[int, tuple[int, int]]:
        """doc_key → (global segment id, local_id), built at first use."""
        if self._key_index is None:
            self._key_index = {}
            for rec in self.records.values():
                self._index_keys(rec.seg)
        return self._key_index

    @property
    def segments(self) -> list[SegmentData]:
        return [rec.seg for rec in self.records.values()]

    def seg_by_id(self, si: int) -> SegmentData:
        """Segment by GLOBAL segment id."""
        return self.records[si].seg

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        ds,
        out_dir: str,
        cfg: EngineConfig | None = None,
        text_column: str = "text",
        key_column: str = "url",
        store_columns: tuple[str, ...] = (),
        text_fields: tuple[tuple[str, int], ...] = (),
    ) -> "Engine":
        from .build import build_index

        cfg = cfg or EngineConfig()
        build_index(
            ds, out_dir, cfg, text_column, key_column,
            store_columns=store_columns, text_fields=text_fields,
        )
        return cls.load(out_dir, cfg)

    @classmethod
    def load(
        cls,
        index_dir: str,
        cfg: EngineConfig | None = None,
        segment_indices=None,
        opened=None,
    ) -> "Engine":
        """Open an index (or, with ``segment_indices``, a SHARD of it: the
        subset of segments a query actor owns; global stats still apply).

        ``opened`` = ``(manifest, segments, df_lookup, word_df)`` already
        in memory for this index and these segment indices: nothing is read
        from disk (how ``add_documents`` opens the delta it just wrote)."""
        if opened is not None:
            manifest, segments, df_lookup, word_df = opened
        else:
            with open(os.path.join(index_dir, "manifest.json")) as f:
                manifest = json.load(f)
            seg_root = os.path.join(index_dir, "segments")
            indices = (
                range(len(manifest["segments"]))
                if segment_indices is None
                else segment_indices
            )
            segments = [
                read_segment(os.path.join(seg_root, manifest["segments"][i]["name"]), i)
                for i in indices
            ]
            df_lookup = vocabstats.open_lookup(index_dir, "term", manifest)
            word_df = vocabstats.open_lookup(index_dir, "word", manifest)
        if cfg is None:
            cfg = config_from_manifest(manifest)
        stats = manifest["stats"]
        eng = cls(
            index_dir,
            cfg,
            segments,
            df_lookup,
            word_df,
            stats["total_docs"],
            stats["avg_doc_len"],
        )
        if opened is None:
            eng.deleted = read_tombstones(index_dir)
        return eng

    # ------------------------------------------------------- single-file I/O
    def save_file(self, file_path: str) -> None:
        """Export the whole index as ONE portable file (reference parity:
        ``SearchEngine.Save(filePath)``, src/Infidex/SearchEngine.cs:385-442
        + Indexing/IndexPersistence.cs:15-50). The container is an
        uncompressed tar of the index directory tree (segments + manifest +
        stats + tombstones) written atomically (tmp → rename), so an index
        can be shipped/downloaded as a single artifact; the directory layout
        stays the canonical cluster-serving format."""
        with open(file_path + ".tmp", "wb") as f:
            self.save_stream(f)
        os.replace(file_path + ".tmp", file_path)

    def save_stream(self, fileobj) -> None:
        """``SaveToStream`` parity: tar the index tree into a writable binary
        stream (deterministic member order)."""
        import tarfile

        with tarfile.open(fileobj=fileobj, mode="w") as tar:
            for root, dirs, files in os.walk(self.index_dir):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".tmp"):
                        continue
                    full = os.path.join(root, name)
                    arc = os.path.relpath(full, self.index_dir)
                    tar.add(full, arcname=arc, recursive=False)

    @classmethod
    def load_file(
        cls,
        file_path: str,
        extract_dir: str | None = None,
        cfg: EngineConfig | None = None,
    ) -> "Engine":
        """Open a ``save_file`` container: extract the tree (segments are
        mmapped, so they must land on disk) and ``load`` it. ``extract_dir``
        defaults to ``<file_path>.d`` next to the container; an existing
        extraction is reused only if its manifest is present."""
        with open(file_path, "rb") as f:
            return cls.load_stream(f, extract_dir or (file_path + ".d"), cfg)

    @classmethod
    def load_stream(
        cls, fileobj, extract_dir: str, cfg: EngineConfig | None = None
    ) -> "Engine":
        import tarfile

        os.makedirs(extract_dir, exist_ok=True)
        with tarfile.open(fileobj=fileobj, mode="r") as tar:
            tar.extractall(extract_dir, filter="data")
        return cls.load(extract_dir, cfg)

    # ----------------------------------------------------------------- search
    def _fuzzy_global_df_batch(self, texts: list[str]) -> list[int]:
        """Global cardinality of each term's LD1 union = Σ per-segment
        cardinalities (segments are doc-disjoint; VectorModel.ExpandMissingTerm
        sums the per-segment lists into one bitmap)."""
        return [sum(r.stage1.fuzzy_union(t)[1] for r in self.records.values()) for t in texts]

    def prep_query(self, query_text: str) -> tuple[str, str | None]:
        """search_ex's query prep: normalize, lower, synonym-canonicalize
        (SearchEngine.cs:279-286), then route (QueryAnalyzer.cs:10-55).
        Returns ``(q, tfidf_query)``; ``tfidf_query`` is the text stage 1
        scores, or None when ``q`` is empty or no word reaches the min
        index size (the short/single-char path)."""
        from .analyzer import normalize_with

        cfg = self.cfg
        q = normalize_with(cfg.normalizer, query_text.strip(), is_query=True).lower()
        if self.synonym_map is not None:
            q = self.synonym_map.canonicalize_text(q, frozenset(cfg.delimiters))
        if not q:
            return q, None
        return q, stage1_text(q, cfg)

    def plan(self, tfidf_query: str, fuzzy_df_batch) -> s1.QueryPlan | None:
        """The stage-1 plan of a prepared query under this engine's global
        stats. ``fuzzy_df_batch`` maps the query's unknown terms (df 0,
        length ≥ 4) to their global LD1 union df in one call."""
        infos = s1.prepare_query_terms(
            tfidf_query, self.cfg, self.df_lookup, self.total_docs, self.avgdl,
            fuzzy_df_batch,
        )
        return s1.build_plan(infos)

    def stage1(
        self, norm_lower_query: str, top_k: int
    ) -> list[tuple[float, int, int]]:
        """Stage-1 BM25 over all segments + heap merge + consolidation."""
        plan = self.plan(norm_lower_query, self._fuzzy_global_df_batch)
        return s1.run_stage1(
            [r.stage1 for r in self.records.values()], plan, top_k, self.avgdl
        )

    @property
    def shorts(self):
        """Per-segment short-query scanners (each built at first use)."""
        return [r.short for r in self.records.values()]

    SHORT_QUERY_MAX_LENGTH = 3  # SearchPipeline.cs:23
    SHORT_QUERY_COVERAGE_DOC_CAP = 500  # SearchPipeline.cs:24

    def search(self, query_text: str, top_k: int = 10, enable_coverage: bool | None = None) -> list[SearchHit]:
        """Full pipeline (SearchPipeline.Execute, SearchPipeline.cs:49-206)."""
        return self.search_ex(query_text, top_k, enable_coverage)[0]

    def search_ex(
        self,
        query_text: str,
        top_k: int = 10,
        enable_coverage: bool | None = None,
        timeout_ms: int | None = None,
    ) -> tuple[list[SearchHit], bool]:
        """Full pipeline with an optional per-query time budget: returns
        (hits, did_timeout). ``timeout_ms=None`` (the plain ``search()``
        path) runs unbudgeted — the budget belongs to the Query API, whose
        default is 1000 ms clamped to [0, 10000] (Query.cs:75,
        SearchEngine.cs:290). A silent default here would make ranking
        wall-clock-dependent on a throttled host. The deadline is checked
        between pipeline stages and inside the coverage candidate loop
        (ProcessMonitor.ShouldAbort pattern, Api/ProcessMonitor.cs:196) —
        on expiry the best-so-far stage-1 backbone is returned flagged."""
        from .query.pipeline import DeadlineExceeded

        if timeout_ms is None:
            deadline = float("inf")
        else:
            ms = max(0, min(int(timeout_ms), 10000))
            deadline = time.monotonic() + ms / 1000.0
        cfg = self.cfg
        q, tfidf_query = self.prep_query(query_text)
        if not q:
            return [], False
        coverage_on = cfg.enable_coverage if enable_coverage is None else enable_coverage
        can_ngrams = tfidf_query is not None
        coverage_depth = cfg.coverage_depth

        # overlap hook: the distributed executor records the coverage query
        # here, so its coverage context is prepared while the stage-1
        # fan-out is in flight
        self._pre_stage1(q, coverage_on and can_ngrams)

        if not can_ngrams:
            if len(q) == 1:
                stage1_results = self._run_single_char(q, top_k)
            else:
                stage1_results = self._run_short_query(q)
            stage1_results = s1.consolidate(stage1_results)
        else:
            stage1_results = self.stage1(tfidf_query, coverage_depth)

        if self.deleted:  # soft-delete tombstones (TombstoneTracker semantics)
            stage1_results = [e for e in stage1_results if e[1] not in self.deleted]

        if time.monotonic() >= deadline:  # between-stage deadline check
            return self._to_hits(stage1_results[:top_k]), True

        is_short = len(q) <= self.SHORT_QUERY_MAX_LENGTH and not any(
            d in q for d in cfg.delimiters
        )
        if is_short and len(stage1_results) >= top_k:
            return self._to_hits(stage1_results[:top_k]), False

        # short-query coverage gating (SearchPipeline.cs:122-159)
        allow_short_coverage = skip_short_cap = False
        if is_short:
            short_doc_count = self._short_doc_count(q)
            allow_short_coverage = 0 < short_doc_count <= self.SHORT_QUERY_COVERAGE_DOC_CAP
            skip_short_cap = short_doc_count > self.SHORT_QUERY_COVERAGE_DOC_CAP

        if (
            not coverage_on
            or (not can_ngrams and not allow_short_coverage)
            or skip_short_cap
        ):
            return self._to_hits(stage1_results[:top_k]), False

        if time.monotonic() >= deadline:
            return self._to_hits(stage1_results[:top_k]), True

        try:
            final = self._coverage_stage(
                q, stage1_results, coverage_depth, top_k, deadline=deadline
            )
        except DeadlineExceeded:
            return self._to_hits(stage1_results[:top_k]), True
        if final is None:  # coverage unavailable → stage1 backbone
            return self._to_hits(stage1_results[:top_k]), False
        return self._to_hits(final), False

    def _pre_stage1(self, q: str, coverage_likely: bool) -> None:
        """No-op for the in-process engine (sequential anyway)."""

    # overridable primitives (the distributed executor fans these out)
    def _run_single_char(self, q: str, top_k: int):
        from .query import shortquery as sq

        return sq.run_single_char(self.shorts, q, top_k)

    def _run_short_query(self, q: str):
        from .query import shortquery as sq

        return sq.run_short_query(
            self.shorts, q, self.cfg.min_index_size, self.cfg.start_pad_size,
            self.cfg.delimiters,
        )

    def _short_doc_count(self, q: str) -> int:
        return sum(s.count_word_start_docs(q) for s in self.shorts)

    # ------------------------------------------------ incremental / deletes
    def delete_documents(self, keys) -> None:
        """Soft delete: tombstoned keys disappear from results; postings and
        stats are untouched until a rebuild (DeltaIndex/TombstoneTracker
        semantics, src/Infidex/Indexing/Incremental/TombstoneTracker.cs)."""
        self.deleted.update(int(k) for k in keys)
        with open(os.path.join(self.index_dir, "tombstones.json"), "w") as f:
            json.dump(sorted(self.deleted), f)

    def add_documents(self, docs, fields=None) -> None:
        """Incremental add: write one delta segment plus one stats part per
        kind, then refresh this engine in place (DeltaIndex/IndexMerger: a
        new doc-range partition and a global stats refresh,
        IndexMerger.cs:55-92).

        Nothing written is read back: ``append_to_index`` hands back the
        delta built from the tables it just wrote (postings map the new
        ``postings.bin``) and its two stats parts, which both df lookups
        take in place. The delta opens through ``Engine.load`` as a
        one-segment shard of the updated index (its global id is its
        manifest position), and its record moves into this engine. Every
        other record is kept: it depends only on immutable segment files.
        Refreshed: ``total_docs`` and ``avgdl`` from the manifest, and every
        searcher's plan memo, whose postings carry the old plan's idf. So
        an add costs the delta segment plus two small part writes, not the
        whole index."""
        from . import build

        manifest, seg, parts = build.append_to_index(
            self.index_dir, docs, self.cfg, fields=fields
        )
        for lookup, part in zip((self.df_lookup, self.word_df), parts):
            lookup.add_written(*part)
        delta = Engine.load(
            self.index_dir, self.cfg, segment_indices=[seg.seg_id],
            opened=(manifest, [seg], self.df_lookup, self.word_df),
        )
        self._add_segment(delta.records[seg.seg_id])
        for rec in self.records.values():
            rec.stage1.clear_plan_memo()
        self.total_docs = delta.total_docs
        self.avgdl = delta.avgdl

    # ---------------------------------------------------------- coverage
    # Per-shard budget of unique wm candidates scored speculatively in the
    # coverage round, past shard 0's certain prefix. In-process that prefix
    # is every allowed candidate, so nothing is speculated; the distributed
    # engine speculates to save a round trip.
    SPEC_UNIQUE_BUDGET = 0

    def _coverage_stage(self, q, stage1_results, coverage_depth, top_k, deadline=None):
        """Coverage (SearchPipeline.ExecuteCoverageStage, :298-522) as one
        round over this engine's shards (``pipeline.coverage_shard``) plus a
        top-up round for the allowed unique wm candidates the first round
        did not score. Every job list, the global unique cap and the
        candidate index are built here; subclasses replace only the
        transport (``_shard_of``, ``_coverage_round``, ``_coverage_top_up``,
        ``_prescreen_keys``). Every shard call prunes its candidates for
        ``top_k`` (``pipeline.process_candidates``) in the rank order
        ``(score, tiebreaker, -key)``; the top-up starts from the k-th best
        tuple of every shard's kept results of the round.

        The global unique cap takes shard 0's unique list first, and every
        other shard's overlap is at most its stage-1 job count, so shard 0
        is certain to keep its first ``sure − len(its overlap)`` unique
        candidates, ``sure = coverage_depth − Σ_{ai≠0} len(s1_jobs[ai])``.
        The round scores those as kept jobs, pruned against shard 0's own
        kept results, and the top-up covers only what is left. When shard 0
        holds fewer than ``top_k`` stage-1 keys but all shards hold at least
        ``top_k``, shard 0's kept results cannot form a k-th best while
        every shard's can: then ``sure`` and the speculative budget are 0,
        and the top-up scores shard 0's unique candidates from that
        cross-shard floor instead. In-process (one shard) shard 0 holds
        every stage-1 key and ``sure`` is the whole depth, so there is no
        top-up unless a long query redoes a memo-slot doc. Returns final
        entries or None (stage-1 fallback); raises DeadlineExceeded."""
        from .query import pipeline as qp

        top = stage1_results[:coverage_depth]
        if self.cfg.coverage.enable_lexical_prescreen and top:
            top = qp.lexical_prescreen(self, q, top)
        ctx = self._ctx_for(q)
        # candidate doc-key index: stage-1 docs first in rank order, then wm
        # docs in ascending (si, lid) order (BuildDocumentKeyIndex, :524-545)
        doc_index: dict[int, int] = {}
        best_chunk: dict[int, tuple[int, int]] = {}
        s1_jobs: dict[int, list] = {}
        s1_keys: dict[int, list] = {}
        max_tfidf = top[0][0] if top else 1.0
        for e in top:
            assert len(e) >= 5 and e[3] >= 0 and e[4] >= 0, f"stage-1 entry without its chunk: {e}"
            di = doc_index.setdefault(e[1], len(doc_index))
            best_chunk.setdefault(e[1], (e[3], e[4]))
            norm_bm25 = e[0] / max_tfidf if max_tfidf > 0 else 0.0
            ai = self._shard_of(e[3])
            s1_jobs.setdefault(ai, []).append((e[3], e[4], norm_bm25, di))
            s1_keys.setdefault(ai, []).append(e[1])
        s1_slots = min(len(doc_index), qp.MEMO_HEIGHT)
        # No unique job is scored in the round when wm-only docs take memo
        # slots: their doc_index exists only after the global split, so they
        # are scored in the top-up; nor when only the other shards' stage-1
        # docs can complete shard 0's k-th best (the top-up's floor). No
        # speculation on a full stage-1 page (the overlap then ~always fills
        # the depth, so every speculative job would be discarded).
        spec_budget = sure = 0
        cross_floor = len(set(s1_keys.get(0, []))) < top_k <= len(doc_index)
        if s1_slots == qp.MEMO_HEIGHT and not cross_floor:
            if len(top) < coverage_depth:
                spec_budget = self.SPEC_UNIQUE_BUDGET
            sure = coverage_depth - sum(len(j) for ai, j in s1_jobs.items() if ai != 0)
        outs = self._coverage_round(
            ctx, s1_jobs, coverage_depth, spec_budget, sure, deadline, top_k
        )

        # global unique cap: the first (coverage_depth − overlap) unique
        # candidates of the shard-order concatenation (SearchPipeline.cs:371-397)
        remaining = coverage_depth - sum(len(o[1]) for o in outs)
        allowed: list[list] = []
        for _n, _ov, unique, _res, _memo in outs:
            take = max(0, min(remaining, len(unique)))
            remaining -= take
            allowed.append(unique[:take])
        for _si, _lid, key in sorted(
            [t for o in outs for t in o[1]] + [t for a in allowed for t in a],
            key=lambda t: (t[0], t[1]),
        ):
            doc_index.setdefault(key, len(doc_index))
        # A raw LCS over 255 is stored clamped, so on a long query the first
        # job of a memo-slot doc reads a different LCS than its later jobs.
        # A stage-1 memo-slot doc with allowed unique chunks is therefore
        # scored again in the top-up, all its jobs in the reference order.
        redo: set[int] = set()
        if len(q) > 255:
            redo = {doc_index[k] for a in allowed for *_, k in a} & set(range(s1_slots))

        results: list = []
        memo: dict[int, list[int]] = {}
        top_up: dict[int, tuple[list, dict]] = {}
        for ai, ((_n, ov, _un, res, m), un) in enumerate(zip(outs, allowed)):
            # the shard's jobs in the reference order (overlapping, unique,
            # stage-1; SearchPipeline.cs:351-447); the round scored all but
            # the unique ones past its speculative prefix
            s1 = s1_jobs.get(ai, [])
            keys = [k for *_, k in ov + un] + s1_keys.get(ai, [])
            jobs = [(si, lid, 0.0, doc_index[k]) for si, lid, k in ov + un] + s1
            spec_end = len(res) - len(s1)
            # round results: overlapping, stage-1, then speculative unique
            # (None where the shard pruned the job)
            scored = res[: len(ov) + len(s1) + len(un)]
            results.extend(r for r in scored if r is not None and doc_index[r[1]] not in redo)
            memo.update(m)
            rest = [
                p for p, j in enumerate(jobs)
                if j[3] in redo or spec_end <= p < len(ov) + len(un)
            ]
            if rest:
                # the top-up shard needs the best chunk of its own keys only
                top_up[ai] = (
                    [jobs[p] for p in rest],
                    {keys[p]: best_chunk[keys[p]] for p in rest if keys[p] in best_chunk},
                )
        if top_up:
            # θ₀: every shard's kept results of the round bound the
            # top-up's threshold
            theta0 = qp.kth_best(results, top_k)
            for res, m in self._coverage_top_up(ctx, top_up, deadline, top_k, theta0):
                results.extend(r for r in res if r is not None)
                for di, entry in m.items():
                    memo.setdefault(di, entry)
        return qp.finalize_coverage(
            self.cfg.coverage, results, memo, doc_index,
            sum(o[0] for o in outs), coverage_depth, top_k,
        )

    # coverage transport: this engine is a pool of one shard
    def _shard_of(self, si: int) -> int:
        return 0

    def _ctx_for(self, q: str):
        """The coverage query context (depends on q and the global stats)."""
        from .query import coverage as cov

        cfg = self.cfg
        return cov.prepare_query(
            q, cfg.coverage.min_word_size, frozenset(cfg.delimiters),
            cfg.index_sizes, self.df_lookup, self.word_df, self.total_docs,
            cfg.stop_term_limit,
        )

    def _coverage_round(self, ctx, s1_jobs, cap, spec_budget, sure, deadline, top_k):
        """``sure`` goes to shard 0 only (see ``_coverage_stage``)."""
        from .query import pipeline as qp

        return [
            qp.coverage_shard(
                self, ctx, s1_jobs.get(0, []), cap, spec_budget, sure, deadline, top_k
            )
        ]

    def _coverage_top_up(self, ctx, top_up, deadline, top_k, theta0):
        """``top_up`` maps a shard to (its jobs, the best chunks of their
        keys); every top-up result is kept, so all of them feed θ."""
        from .query import pipeline as qp

        return [
            qp.process_candidates(
                self, ctx, jobs, best_chunk, deadline, (top_k, len(jobs), theta0)
            )
            for jobs, best_chunk in top_up.values()
        ]

    def _prescreen_keys(self, words, keys) -> set[int]:
        from .query import pipeline as qp

        return qp.segment_prescreen_keys(self.segments, words, keys)

    def _to_hits(self, entries: list[tuple[float, int, int]]) -> list[SearchHit]:
        return [SearchHit(score=e[0], doc_key=e[1], tiebreaker=e[2]) for e in entries]

    # --------------------------------------------------- Query API (M6)
    def _field_row(self, key: int) -> dict:
        """Stored field values for one doc (url always included)."""
        loc = self.key_index.get(key)
        if loc is None:
            return {}
        si, lid = loc
        # si is a GLOBAL segment id (shard engines hold a subset, so
        # positional indexing into self.segments would be wrong there)
        seg = self.seg_by_id(si)
        row = {"url": seg.urls[lid] if seg.urls else None}
        if seg.fields:
            for name, col in seg.fields.items():
                row[name] = col[lid]
        return row

    def _prefetch_field_rows(self, keys) -> None:
        """No-op in-process (stored fields are local); the distributed
        engine overrides this with one batched shard fan-out."""

    def query(self, q: Query) -> Result:
        """SearchEngine.Search(Query) incl. post-processing
        (SearchEngine.cs:290-368: pipeline → filter → boosts → sort →
        facets → take maxResults)."""
        from . import filters as flt

        t_query = time.perf_counter()
        if not q.text or q.text.isspace():
            if q.enable_facets:
                res = self._empty_query_with_facets(q)
                res.execution_time_ms = int((time.perf_counter() - t_query) * 1000)
                return res
            return Result(
                [], None, 0, 0.0, 0,
                execution_time_ms=int((time.perf_counter() - t_query) * 1000),
            )

        hits, did_timeout = self.search_ex(
            q.text, top_k=q.max_results, enable_coverage=q.enable_coverage,
            timeout_ms=q.timeout_ms,
        )
        entries = [(h.score, h.doc_key, h.tiebreaker) for h in hits]

        if q.filter or q.boosts or q.sort_by or q.enable_facets:
            # batch hook: the distributed engine fetches every needed stored
            # row in ONE shard fan-out here; in-process it is a no-op and
            # _field_row reads segments directly
            self._prefetch_field_rows([e[1] for e in entries])

        if q.filter:
            ast = flt.parse(q.filter) if isinstance(q.filter, str) else q.filter
            entries = [
                e for e in entries if flt.matches_row(ast, self._field_row(e[1]))
            ]
        if q.boosts:
            compiled = [
                (flt.parse(expr) if isinstance(expr, str) else expr, int(strength))
                for expr, strength in q.boosts
            ]
            boosted = []
            for score, key, tb in entries:
                row = self._field_row(key)
                total = sum(s for ast, s in compiled if flt.matches_row(ast, row))
                boosted.append((score + total if total > 0 else score, key, tb))
            boosted.sort(key=lambda e: -e[0])  # ResultProcessor.cs:119: score only
            entries = boosted
        if q.sort_by:
            entries = self._apply_sort(entries, q.sort_by, q.sort_ascending)

        facets = self._build_facets(entries) if q.enable_facets else None
        top = entries[: q.max_results]
        return Result(
            self._to_hits(top),
            facets,
            len(top) - 1 if top else 0,
            top[-1][0] if top else 0.0,
            len(entries),
            did_timeout=did_timeout,
            execution_time_ms=int((time.perf_counter() - t_query) * 1000),
        )

    def get_status(self) -> SystemStatus:
        """ISearchEngine.GetStatus (Api/ISearchEngine.cs:16) — a point-in-time
        snapshot; ``index_progress`` reflects an attached build monitor when
        one is running, else 100 for a loaded index."""
        progress = 100
        mon = getattr(self, "monitor", None)
        if mon is not None and getattr(mon, "is_running", False):
            progress = int(getattr(mon, "progress_percent", 0))
        return SystemStatus(
            document_count=sum(len(seg.doc_keys) for seg in self.segments),
            reindex_required=False,
            too_long_search_text=False,
            too_long_client_text=False,
            index_progress=progress,
        )

    def get_document(self, document_key: int) -> dict | None:
        """SearchEngine.GetDocument (SearchEngine.cs:363-368): the stored
        field values for one public document key — ``None`` when the key is
        unknown (or tombstoned). Includes ``url`` plus every stored column."""
        if document_key in getattr(self, "deleted", ()):  # tombstoned
            return None
        row = self._field_row(int(document_key))
        return row or None

    def get_documents(self, document_keys) -> list[dict]:
        """SearchEngine.GetDocuments (SearchEngine.cs:370-375): batch form of
        :meth:`get_document`; unknown keys are skipped (the reference returns
        only found documents)."""
        out = []
        for k in document_keys:
            row = self.get_document(k)
            if row is not None:
                out.append(row)
        return out

    def get_statistics(self) -> "IndexStatistics":
        """SearchEngine.GetStatistics (SearchEngine.cs:378-383):
        (document count, vocabulary size) — vocabulary = distinct WORD terms
        across the index (the reference counts its TermCollection)."""
        return IndexStatistics(
            document_count=int(self.total_docs), vocabulary_size=self.word_df.vocab_size()
        )

    # Match-all + facets walks every stored doc in-process (faithful to the
    # reference's serving-time facets) — refuse beyond this many docs and
    # point callers at the streaming offline path.
    matchall_facet_cap: int = 1_000_000

    def _empty_query_with_facets(self, q: Query) -> Result:
        """SearchEngine.HandleEmptyQueryWithFacets (SearchEngine.cs:322-348)."""
        from . import filters as flt

        total = sum(len(seg.doc_keys) for seg in self.segments)
        if total > self.matchall_facet_cap:
            raise ValueError(
                f"match-all facets over {total} docs exceeds the in-process cap "
                f"({self.matchall_facet_cap}); use "
                "infidex_ray.ops.facets.facet_counts_offline for corpus-scale "
                "facet jobs (streaming Ray groupby)"
            )
        entries = []
        seen = set()
        for seg in self.segments:
            for key in seg.doc_keys.tolist():
                if key in self.deleted or key in seen:
                    continue
                seen.add(key)
                entries.append((float(0xFFFF), int(key), 0))
        if q.filter:
            ast = flt.parse(q.filter) if isinstance(q.filter, str) else q.filter
            entries = [e for e in entries if flt.matches_row(ast, self._field_row(e[1]))]
        top = entries[: q.max_results]
        facets = self._build_facets(top)
        return Result(
            self._to_hits(top), facets, len(top) - 1 if top else 0,
            top[-1][0] if top else 0.0, len(entries),
        )

    def _apply_sort(self, entries, field_name: str, ascending: bool):
        """ResultProcessor.ApplySort (:126-141): same-type comparable values,
        else string ordinal; None sorts first ascending."""

        def sort_key(e):
            v = self._field_row(e[1]).get(field_name)
            if v is None:
                return (0, "", 0.0)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                return (1, "", float(v))
            return (2, str(v), 0.0)

        return sorted(entries, key=sort_key, reverse=not ascending)

    def _build_facets(self, entries, max_per_field: int = 100):
        """FacetBuilder.BuildFacets (src/Infidex/Core/FacetBuilder.cs:19-74):
        value counts per stored field over the result set, count desc then
        value asc, capped at 100 values per field."""
        counts: dict[str, dict[str, int]] = {}
        for _, key, _tb in entries:
            row = self._field_row(key)
            for name, value in row.items():
                if name == "url" or value is None:
                    continue
                values = value if isinstance(value, (list, tuple)) else [value]
                field_counts = counts.setdefault(name, {})
                for v in values:
                    s = str(v)
                    field_counts[s] = field_counts.get(s, 0) + 1
        return {
            name: sorted(fc.items(), key=lambda kv: (-kv[1], kv[0]))[:max_per_field]
            for name, fc in counts.items()
            if fc
        }

    def bm25_terms(self, query_text: str, fuzzy_df_batch) -> tuple[list, list]:
        """bm25_all_scores' term resolution: the query normalized and lowered
        WITHOUT synonym canonicalization, reduced to the text stage 1 scores
        (``stage1_text``: long words only for a mixed query), tokenized with
        the default tokenizer flags, each distinct term with its float64
        idf. Terms absent from the dictionary (df 0, length ≥ 4) take their
        LD1 union df from ``fuzzy_df_batch`` (one call), or are dropped when
        it is None. Returns ``(terms, fuzzy_terms)``, both (term, idf)
        lists."""
        from .analyzer import normalize_with, tokenize_for_search

        cfg = self.cfg
        q = normalize_with(cfg.normalizer, query_text.strip(), is_query=True).lower()
        q = stage1_text(q, cfg) or q
        tokens = sorted(
            set(
                tokenize_for_search(
                    q, cfg.index_sizes, cfg.start_pad_size, cfg.stop_pad_size, cfg.delimiters
                )
            )
        )
        dfs = [self.df_lookup(t) for t in tokens]
        need = [t for t, df in zip(tokens, dfs) if df == 0 and len(t) >= 4]
        fuzzy_dfs = (
            dict(zip(need, fuzzy_df_batch(need))) if need and fuzzy_df_batch else {}
        )
        terms, fuzzy_terms = [], []
        for t, df in zip(tokens, dfs):
            into = terms
            if df == 0:
                df, into = fuzzy_dfs.get(t, 0), fuzzy_terms
            if 0 < df <= cfg.stop_term_limit:
                into.append((t, bm25_idf(self.total_docs, df)))
        return terms, fuzzy_terms

    def bm25_all_scores(
        self,
        query_text: str,
        include_fuzzy: bool = False,
        fuzzy_df_overrides: dict | None = None,
    ) -> list[tuple[int, float]]:
        """Disjunctive full-corpus BM25+ scores in float64 — the SQL-oracle
        surface (no candidate pruning): every doc matching ≥1 query term
        gets its exact score. With ``include_fuzzy``, terms absent from the
        dictionary (df=0, len ≥ 4) contribute their LD1 virtual-term
        postings (tf=1, df = global union cardinality) exactly like
        stage-1's fuzzy expansion — the float64 mirror of the score the
        search path accumulates in float32. Returns (doc_key, score) rows.

        ``fuzzy_df_overrides`` lets a SHARD engine score with INDEX-global
        LD1 union dfs (its own sum covers only its segments):
        ``ops.batchsearch.batch_search_sharded`` sums them across shards in
        its first round, through this same ``bm25_terms`` probe."""
        fuzzy = None
        if include_fuzzy:
            over = fuzzy_df_overrides or {}

            def fuzzy(need):
                return [
                    over[t] if t in over else self._fuzzy_global_df_batch([t])[0]
                    for t in need
                ]

        terms, fuzzy_terms = self.bm25_terms(query_text, fuzzy)
        out: list[tuple[int, float]] = []
        avgdl = self.avgdl if self.avgdl > 0 else 1.0
        for rec in self.records.values():
            seg = rec.seg
            acc: dict[int, float] = {}

            def accumulate(docs, tf, idf):
                dl = seg.doc_len[docs].astype(np.float64)
                dl = np.where(dl <= 0, 1.0, dl)
                sc = idf * ((tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl)) + 1.0)
                for d, s in zip(docs.tolist(), sc.tolist()):
                    acc[d] = acc.get(d, 0.0) + s

            for t, idf in terms:
                i = seg.term_lookup(t)
                if i < 0:
                    continue
                docs, weights = seg.term_postings(i)
                accumulate(docs, weights.astype(np.float64), idf)
            for t, idf in fuzzy_terms:
                docs, _card = rec.stage1.fuzzy_union(t)
                if len(docs):
                    accumulate(docs, np.ones(len(docs), dtype=np.float64), idf)
            keys = seg.doc_keys
            out.extend((int(keys[d]), s) for d, s in acc.items() if s > 0)
        out.sort(key=lambda e: e[0])
        return out

    # convenience for tests
    def doc_text_by_key(self, key: int) -> str | None:
        for seg in self.segments:
            idx = np.flatnonzero(seg.doc_keys == key)
            if len(idx):
                return seg.norm_texts[int(idx[0])]
        return None

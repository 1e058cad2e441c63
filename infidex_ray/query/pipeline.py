"""Coverage + fusion orchestration (Stage 2/3).

Port of SearchPipeline.ExecuteCoverageStage (reference:
src/Infidex/Scoring/SearchPipeline.cs:298-522):

1. top stage-1 candidates (≤ coverageDepth) + WordMatcher candidates
   (exact ∪ LD1 ∪ affix per query word, capped so wm-only docs fill at most
   coverageDepth − overlap slots, in internal-id order);
2. per candidate: LCS memo → coverage matcher cascade → fusion score,
   skipping the candidates whose score bound cannot reach the top k
   (rank-safe: the final hits are the same);
3. bounded heap (coverageDepth) → consolidation → truncation.

Distribution model: every candidate doc lives in exactly one doc-range
segment (all chunks of a source doc stay in one segment), so per-candidate
work is shard-local. ``coverage_shard`` is one shard's half of the round
(WordMatcher split + candidate scoring); ``Engine._coverage_stage`` is the
one driver (job lists, global unique cap, top-up, candidate index order,
truncation). The in-process engine is a pool of one shard that calls
``coverage_shard`` directly; the actor-pool executor fans it out.
Internal-id order = (global segment_index, local_id), deterministic from
the manifest.
"""

from __future__ import annotations

import heapq

from . import coverage as cov
from .fusion import fusion_calculate, tiebreaker
from .metrics import lcs_containment

# The reference's LCS/wordHits memo is a Span2D(2, N) guarded by
# ``docIndex < Height`` (SearchPipeline.cs:492,517) — Height is 2, so ONLY
# the first two candidate docs ever receive LCS credit and a wordHits memo
# byte. Load-bearing for its truncation goldens (e.g. "speeding" → exactly
# one result); ported verbatim.
MEMO_HEIGHT = 2


class DeadlineExceeded(Exception):
    """Per-query time budget expired mid-coverage (the engine catches this
    and falls back to the stage-1 backbone with Result.did_timeout set —
    ProcessMonitor.ShouldAbort pattern, src/Infidex/Api/ProcessMonitor.cs:196)."""


# deadline polled every this many candidate jobs (time.monotonic is ~20 ns,
# but the check still shouldn't sit in the innermost matcher loops)
_DEADLINE_STRIDE = 16


_PREP_CACHE_MAX = 100_000  # ~tens of MB of slices at typical chunk sizes


def _prep_for(engine, si: int, lid: int, text: str, setup, delimiters):
    """Per-doc-chunk tokenization prep of coverage text ``text``, cached on
    the engine/shard — the dominant per-candidate cost, query-independent
    so computed once."""
    cache = getattr(engine, "_doc_prep_cache", None)
    if cache is None:
        cache = engine._doc_prep_cache = {}
    key = (si, lid)
    prep = cache.get(key)
    if prep is None:
        prep = cov.prepare_doc(text, setup.min_word_size, delimiters)
        # bounded LRU-ish cache: hot candidates recur across queries, but a
        # long-lived serving shard must not accumulate prep state without
        # limit (dict preserves insertion order → popping the oldest entry
        # approximates LRU well enough for a recurrence cache)
        if len(cache) >= _PREP_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = prep
    return prep


def wm_scan(
    engine,
    norm_query: str,
    s1_lids_by_seg: dict[int, list[int]],
    cap: int,
) -> tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """WordMatcherLookup over this engine/shard's segments, split against the
    stage-1 candidate set. Returns (total candidate count,
    overlapping [(si, lid, key)], first ``cap`` unique [(si, lid, key)]).

    Only the first ``coverageDepth − overlap`` unique wm candidates are ever
    processed (SearchPipeline.cs:371-397), so everything beyond ``cap`` per
    shard is dropped HERE — candidate unions for common words cover most of
    the corpus and must never leave the shard. With the word matcher off
    there are no candidates."""
    import numpy as np

    from ..analyzer import _word_splitter

    cfg = engine.cfg
    if not cfg.enable_word_matcher:
        return 0, [], []
    splitter = _word_splitter(cfg.delimiters)
    query_words = [w for w in splitter.split(norm_query) if w]
    n_total = 0
    overlapping: list[tuple[int, int, int]] = []
    unique: list[tuple[int, int, int]] = []
    for rec in engine.records.values():
        seg = rec.seg
        ids = rec.word_matcher.candidates_for_query(query_words, cfg.coverage.cover_prefix_suffix)
        if getattr(engine, "deleted", None) and len(ids):
            keep = ~np.isin(
                seg.doc_keys[ids], np.fromiter(engine.deleted, dtype=np.int64)
            )
            ids = ids[keep]
        n_total += len(ids)
        if not len(ids):
            continue
        tf = s1_lids_by_seg.get(seg.seg_id)
        if tf is not None and len(tf):
            mask = np.isin(ids, tf)
        else:
            mask = np.zeros(len(ids), dtype=bool)
        ov = ids[mask]
        if len(ov):
            keys = seg.doc_keys[ov]
            overlapping.extend(
                (seg.seg_id, int(l), int(k)) for l, k in zip(ov.tolist(), keys.tolist())
            )
        room = cap - len(unique)
        if room > 0:
            un = ids[~mask][:room]
            if len(un):
                keys = seg.doc_keys[un]
                unique.extend(
                    (seg.seg_id, int(l), int(k))
                    for l, k in zip(un.tolist(), keys.tolist())
                )
    return n_total, overlapping, unique


# θ before any kept result qualifies: below every rank tuple
NO_THETA = (float("-inf"),)


class KthBest:
    """The ``k``-th best rank tuple ``(score, tiebreaker, -key)`` over
    distinct doc keys among the results added so far, each key at its best
    tuple, never below ``floor`` (a k-th best tuple known from other results
    the driver keeps). ``finalize_coverage`` ranks entries by this tuple,
    descending, so an entry whose tuple is below the k-th best cannot reach
    the top k. Used as the pruning threshold θ; ``NO_THETA`` (or the floor)
    while fewer than ``k`` keys were added."""

    __slots__ = ("k", "floor", "heap", "best")

    def __init__(self, k: int, floor: tuple = NO_THETA):
        self.k = k
        self.floor = floor
        self.heap: list[tuple[float, int, int]] = []  # min-heap; stale entries skipped
        self.best: dict[int, tuple[float, int, int]] = {}  # best tuple of each key in the top k

    def add(self, score: float, tiebreaker: int, key: int) -> None:
        best, heap = self.best, self.heap
        rank = (score, tiebreaker, -key)
        cur = best.get(key)
        if cur is not None:
            if rank <= cur:
                return
        elif len(best) >= self.k and (not heap or rank <= heap[0]):
            return  # no better than the k-th best (k < 1 keeps nothing)
        best[key] = rank
        heapq.heappush(heap, rank)
        while True:
            low = heap[0]
            if best.get(-low[2]) != low:  # a superseded tuple of its key
                heapq.heappop(heap)
            elif len(best) > self.k:
                heapq.heappop(heap)
                del best[-low[2]]
            else:
                break

    @property
    def theta(self) -> tuple:
        if not self.heap or len(self.best) < self.k:
            return self.floor
        return max(self.floor, self.heap[0])


def kth_best(results, k: int) -> tuple:
    """θ₀ for the top-up: the ``k``-th best distinct-key rank tuple
    ``(score, tiebreaker, -key)`` of kept ``results`` (``KthBest``), or
    ``NO_THETA`` when they have fewer than ``k`` keys or no word hits
    (pruning needs a kept result with hits). The driver passes every
    shard's kept results of the round, so the floor can come from other
    shards' stage-1 docs."""
    top = KthBest(k)
    hits = False
    for r in results:
        top.add(r[0], r[2], r[1])
        hits = hits or r[3] > 0
    return top.theta if hits else NO_THETA


def _score_bounds(engine, relations, jobs, docs, positions) -> tuple[list[int], list[tuple]]:
    """The job ``positions`` in descending order of their rank-tuple bound
    ``(coverage.score_bounds, tiebreaker, -key)``, and those bounds in the
    same order: the score bound, and the exact tiebreaker
    (``fusion.tiebreaker``) read from the token table's text lengths. One
    bulk call per (text segment, candidate segment) pair (one pair unless a
    key repeats across segments); ``docs`` holds each job's (key, text
    chunk)."""
    import numpy as np

    text_seg = np.array([docs[p][1] for p in positions])
    text_lid = np.array([docs[p][2] for p in positions])
    seg = np.array([jobs[p][0] for p in positions])
    lid = np.array([jobs[p][1] for p in positions])
    neg_key = -np.array([docs[p][0] for p in positions], dtype=np.int64)
    bound = np.empty(len(positions))
    tb = np.empty(len(positions), dtype=np.int64)
    for tsi, si in set(zip(text_seg.tolist(), seg.tolist())):
        at = (text_seg == tsi) & (seg == si)
        table = engine.records[tsi].token_table
        bound[at] = cov.score_bounds(
            relations, table, text_lid[at], engine.records[si].token_table, lid[at],
        )
        tb[at] = _tiebreakers(relations, table, text_lid[at])
    rank = np.lexsort((neg_key, tb, bound))[::-1]
    return (
        [positions[i] for i in rank.tolist()],
        list(zip(bound[rank].tolist(), tb[rank].tolist(), neg_key[rank].tolist())),
    )


def _tiebreakers(relations, table: cov.TokenTable, lids) -> list[int]:
    """``fusion.tiebreaker`` of chunks ``lids`` of ``table`` as coverage
    texts, before scoring: it reads only the query length, the query token
    count (``relations.fusion_n``) and the text length, so it is computed
    once per distinct length."""
    import numpy as np

    lens, inv = np.unique(table.text_len[np.asarray(lids, dtype=np.int64)], return_inverse=True)
    q_len, n = len(relations.query), relations.fusion_n
    by_len = [tiebreaker(q_len, L, n) for L in lens.tolist()]
    return [by_len[i] for i in inv.tolist()]


def process_candidates(
    engine,
    ctx: cov.CoverageContext,
    jobs: list[tuple[int, int, float, int]],
    best_chunk: dict[int, tuple[int, int]],
    deadline: float | None = None,
    prune: tuple[int, int, tuple] | None = None,
) -> tuple[list, dict[int, list[int]]]:
    """Shard-local candidate scoring (SearchPipeline.ProcessCandidate,
    :449-522). ``jobs`` = (si, lid, base_score, doc_index); all jobs for
    one doc key arrive at the shard owning its segment, so the 2-slot
    LCS/wordHits memo semantics hold locally.

    ``prune`` = (top_k, n_kept, theta0) turns on rank-safe pruning in the
    rank order of ``finalize_coverage``, the tuple ``(score, tiebreaker,
    -key)``. The first ``n_kept`` jobs are results the driver is certain to
    keep, and ``theta0`` is a k-th best tuple the driver already holds
    (``NO_THETA`` if none). θ is the ``top_k``-th best distinct-key tuple
    of the kept results (``KthBest``, at least ``theta0``). Memo-slot jobs
    are scored first, in order (their order fills the memo), then stage-1
    jobs in rank order, until pruning can start: θ's score survives
    truncation (≥ ``truncation_score`` or truncation off) and a kept result
    has word hits (no stage-1 fallback). Then each remaining job gets the
    tuple bound ``(coverage.score_bounds, exact tiebreaker, -key)``, in
    bulk (``_score_bounds``), and the jobs are scored in descending tuple
    order until one is strictly below θ; every later job is skipped. A
    score at most its bound with the same tiebreaker and key ranks at most
    the bound, so each skipped entry sorts below every entry of the final
    top k and ``finalize_coverage`` returns the same hits. Ties in score
    (one-term queries at the semantic clamp, where the tiebreaker is 0)
    are thus cut by key, as the final sort cuts them. A query whose θ
    never qualifies computes no bound (and builds no token table); a query
    over 255 characters is not pruned (over that, the driver drops some
    memo-slot results).

    Returns ([(score, key, tiebreaker, word_hits) or None when skipped, one
    per job in job order], {doc_index<2: [lcs, wh]})."""
    setup = engine.cfg.coverage
    delimiters = frozenset(engine.cfg.delimiters)
    min_stem_length = engine.cfg.min_index_size
    memo: dict[int, list[int]] = {}
    results: list = [None] * len(jobs)
    # overlapping wm jobs and stage-1 jobs for the same candidate carry the
    # SAME (si, lid, best-chunk, lcs) → identical features; only base_score
    # differs. Caching halves the matcher-cascade work for the common
    # full-overlap case. Keyed on the lcs actually used, so the raw-vs-
    # clamped >255 edge recomputes and stays exact.
    feat_cache: dict[tuple, object] = {}
    # the query's token-relation tables, shared by this call's candidates
    relations = cov.TokenRelations(ctx, delimiters, min_stem_length, setup)

    # per job: doc key and the chunk its coverage text comes from — the
    # best-scoring chunk for the key when stage 1 found one
    # (SegmentProcessor.GetBestSegmentText, :42-75); metadata stays the
    # candidate chunk's (CalculateFeatures(..., internalId))
    docs = []
    for si, lid, _base, _di in jobs:
        key = int(engine.seg_by_id(si).doc_keys[lid])
        docs.append((key, *best_chunk.get(key, (si, lid))))

    order = list(range(len(jobs)))
    pruning = prune is not None and len(ctx.query) <= 255
    ranked: list | None = None  # the rank-tuple bound of each order slot, once bounded
    n_memo = 0
    if pruning:
        top_k, n_kept, theta0 = prune
        top = KthBest(top_k, theta0)
        has_hits = theta0 > NO_THETA
        # memo-slot jobs first, in order (their order fills the memo), then
        # stage-1 jobs in rank order until pruning can start
        order.sort(key=lambda p: (not 0 <= jobs[p][3] < MEMO_HEIGHT, -jobs[p][2]))
        n_memo = sum(1 for j in jobs if 0 <= j[3] < MEMO_HEIGHT)

    import time as _time

    n_done = 0
    while n_done < len(order):
        if (
            deadline is not None
            and n_done % _DEADLINE_STRIDE == 0
            and _time.monotonic() >= deadline
        ):
            raise DeadlineExceeded
        p = order[n_done]
        if pruning and n_done >= n_memo and has_hits:
            theta = top.theta
            if theta > NO_THETA and (
                theta[0] >= setup.truncation_score or not setup.truncate
            ):
                if ranked is None:
                    # pruning can start: bound the rest, then score it in
                    # descending bound order
                    rest, bounds = _score_bounds(engine, relations, jobs, docs, order[n_done:])
                    order[n_done:] = rest
                    ranked = [None] * n_done + bounds
                    p = order[n_done]
                if ranked[n_done] < theta:
                    break  # bounds only fall and θ only rises: skip the rest
        n_done += 1
        si, lid, base_score, di = jobs[p]
        key, tsi, tlid = docs[p]
        seg = engine.seg_by_id(si)
        doc_text = engine.records[tsi].cov_text(tlid)
        prep = _prep_for(engine, tsi, tlid, doc_text, setup, delimiters)
        lcs = 0
        if 0 <= di < MEMO_HEIGHT:
            m = memo.setdefault(di, [0, 0])
            lcs = m[0]
            if lcs == 0:
                tol = 0
                if len(ctx.query) >= setup.coverage_q_limit_for_error_tolerance:
                    tol = int(
                        len(ctx.query) * setup.coverage_lcs_error_tolerance_relative_q
                    )
                lcs = lcs_containment(ctx.query, prep[0], tol)
                m[0] = min(lcs, 255)
        feat_key = (si, lid, tsi, tlid, lcs)
        features = feat_cache.get(feat_key)
        if features is None:
            features = cov.calculate_features(
                ctx, doc_text, lcs, setup, delimiters, min_stem_length,
                doc_first_token=seg.first_tokens[lid],
                doc_has_tokens=int(seg.token_counts[lid]) > 0,
                doc_prep=prep,
                relations=relations,
            )
            feat_cache[feat_key] = features
        score, tb = fusion_calculate(ctx.query, doc_text, features, base_score)
        if 0 <= di < MEMO_HEIGHT:
            m = memo.setdefault(di, [0, 0])
            if m[1] == 0:
                m[1] = min(features.word_hits, 255)
        results[p] = (score, key, tb, features.word_hits)
        if pruning and p < n_kept:
            top.add(score, tb, key)
            has_hits = has_hits or features.word_hits > 0
    return results, memo


def coverage_shard(
    engine,
    ctx: cov.CoverageContext,
    s1_jobs: list[tuple[int, int, float, int]],
    cap: int,
    spec_budget: int,
    sure: int,
    deadline: float | None = None,
    top_k: int | None = None,
):
    """One shard's coverage round: WordMatcher split + candidate scoring
    over the shard's segments, in one ``process_candidates`` call (pruned
    for ``top_k`` when given).

    ``s1_jobs`` = this shard's stage-1 jobs ``(si, lid, norm_bm25, di)`` in
    global rank order. Their (si, lid) are the stage-1 chunks the wm
    candidates are split against, and each key's first job names the chunk
    its coverage text comes from (all chunks of a source doc live in one
    segment, so the shard sees every chunk of its keys). The call scores
    the overlapping candidates, then the stage-1 jobs, then a prefix of
    the unique candidates: the first ``sure − len(overlapping)``, which the
    driver is certain to keep (``sure`` is a floor of the unique cap left
    before this shard's overlap), and the next ``spec_budget``
    speculatively; the driver keeps those only within the global
    ``coverage_depth − overlap`` unique cap. The overlapping, stage-1 and
    certain unique results are kept, so they feed θ.

    Returns (n_wm_total, overlapping, unique, results, memo): ``results``
    has one entry per job in that order (None for a pruned job);
    ``unique`` is capped at ``cap``.
    Raises DeadlineExceeded when ``deadline`` passes mid-scan."""
    lids_by_seg: dict[int, list[int]] = {}
    key_di: dict[int, int] = {}
    best_chunk: dict[int, tuple[int, int]] = {}
    for si, lid, _base, di in s1_jobs:
        key = int(engine.seg_by_id(si).doc_keys[lid])
        lids_by_seg.setdefault(si, []).append(lid)
        key_di[key] = di
        best_chunk.setdefault(key, (si, lid))
    n_total, overlapping, unique = wm_scan(engine, ctx.query, lids_by_seg, cap)
    n_sure = max(0, min(len(unique), sure - len(overlapping)))
    jobs = [(si, lid, 0.0, key_di.get(key, -1)) for si, lid, key in overlapping]
    jobs += s1_jobs
    jobs += [
        (si, lid, 0.0, key_di.get(key, -1))
        for si, lid, key in unique[: n_sure + spec_budget]
    ]
    n_kept = len(overlapping) + len(s1_jobs) + n_sure
    prune = None if top_k is None else (top_k, n_kept, NO_THETA)
    results, memo = process_candidates(engine, ctx, jobs, best_chunk, deadline, prune)
    return n_total, overlapping, unique, results, memo


def finalize_coverage(
    setup,
    results: list[tuple[float, int, int, int]],
    memo: dict[int, list[int]],
    doc_index: dict[int, int],
    n_wm_total: int,
    coverage_depth: int,
    top_k: int,
):
    """Driver-side coverage epilogue: dedupe/sort scored candidates, then
    apply the
    reference's truncation rule (ResultProcessor.CalculateTruncationIndex,
    src/Infidex/Scoring/ResultProcessor.cs:146-178). Returns final entries or
    None (stage-1 fallback)."""
    max_word_hits = max((r[3] for r in results), default=0)
    if max_word_hits == 0 and n_wm_total == 0:
        return None  # → stage-1 fallback

    entries = [(r[0], r[1], r[2]) for r in results]
    entries.sort(key=lambda e: (-e[0], -e[2], e[1]))
    entries = entries[:coverage_depth]
    best: dict[int, tuple[float, int, int]] = {}
    for e in entries:
        cur = best.get(e[1])
        if cur is None or (e[0], e[2], -e[1]) > (cur[0], cur[2], -cur[1]):
            best[e[1]] = e
    final = sorted(best.values(), key=lambda e: (-e[0], -e[2], e[1]))
    if not final:
        return None

    truncation_index = -1
    if setup.truncate:
        # ResultProcessor.CalculateTruncationIndex (:146-178): docs beyond the
        # 2-slot memo read zeros and survive only on score >= TruncationScore.
        min_word_hits = max(
            setup.coverage_min_word_hits_abs,
            max_word_hits - setup.coverage_min_word_hits_relative,
        )
        for i in range(len(final) - 1, -1, -1):
            di = doc_index.get(final[i][1])
            if di is None:
                continue
            lcs_b, wh_b = memo.get(di, (0, 0)) if di < MEMO_HEIGHT else (0, 0)
            if wh_b >= min_word_hits or lcs_b > 0 or final[i][0] >= setup.truncation_score:
                truncation_index = i
                break

    if truncation_index == -1 or not setup.truncate:
        result_count = top_k
    else:
        result_count = min(truncation_index + 1, top_k)
    return final[:result_count]


def prescreen_words(cfg, norm_query: str) -> set[str]:
    """Query word set for the lexical prescreen (Tokenizer.
    GetWordTokensForCoverage, src/Infidex/Tokenization/Tokenizer.cs:331-341)."""
    from ..analyzer import _word_splitter

    splitter = _word_splitter(cfg.delimiters)
    return {
        w for w in splitter.split(norm_query) if len(w) >= cfg.coverage.min_word_size
    }


def segment_prescreen_keys(segments, words: set[str], candidate_keys) -> set[int]:
    """Doc keys among ``candidate_keys`` whose doc contains ANY query word —
    the posting-union ∩ candidates step of LexicalPrescreen.Apply
    (src/Infidex/Scoring/LexicalPrescreen.cs:44-84), shard-local (a doc lives
    in exactly one segment)."""
    import numpy as np

    wanted = np.asarray(sorted(set(candidate_keys)), dtype=np.int64)
    hit: set[int] = set()
    if len(wanted) == 0:
        return hit
    for seg in segments:
        for w in words:
            i = seg.term_lookup(w)
            if i < 0:
                continue
            docs, _ = seg.term_postings(i)
            keys = seg.doc_keys[docs]
            hit.update(keys[np.isin(keys, wanted)].tolist())
    return hit


def lexical_prescreen(engine, norm_query: str, top: list):
    """LexicalPrescreen.Apply (src/Infidex/Scoring/LexicalPrescreen.cs:17-84):
    keep only candidates containing at least one full query word. Skipped
    when any query word has df == 0 (typo/fuzzy case) and falls back to the
    unfiltered list when it would filter everything."""
    words = prescreen_words(engine.cfg, norm_query)
    if not words:
        return top
    for w in words:
        if engine.df_lookup(w) == 0:
            return top
    keys = engine._prescreen_keys(words, [e[1] for e in top])
    if not keys:
        return top
    filtered = [e for e in top if e[1] in keys]
    return filtered if filtered else top

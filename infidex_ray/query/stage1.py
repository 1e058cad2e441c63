"""Stage 1: BM25+ candidate generation and scoring over doc-range segments.

Numpy re-implementation of the reference's scoring contract:

* BM25+ constants k1=1.2 b=0.75 δ=1.0, idf = ln((N−df+0.5)/(df+0.5)+1),
  tf = uint8 posting weight (reference: src/Infidex/Indexing/Bm25Scorer.cs:
  21-23, 643-652, 686-695) — float32 arithmetic.
* Tiered candidate selection (reference:
  src/Infidex/Scoring/TieredCandidateSelector.cs:53-322): disjunctive union
  for typo/single-term shapes, else full-AND → (n−1)-AND → top-2 high-IDF
  singles with topK·2/3/5/10 cardinality cutoffs.
* Fuzzy expansion of unknown query grams (len ≥ 4, global df 0) into an
  edit-distance-1 union "virtual term" with tf=1 per doc (reference:
  src/Infidex/Indexing/VectorModel.cs:643-743).
* Result ordering: score desc → tiebreaker desc → doc_key asc
  (reference: src/Infidex/Core/ScoreEntry.cs:25-36).

Distribution model: documents live in exactly one segment, so every candidate
set (AND/OR of posting lists) distributes over segments: global_set =
⊎ per-segment sets, and |global_set| = Σ per-segment counts. The reference's
cardinality-based tier cutoffs are therefore evaluated on GLOBAL counts via a
two-phase protocol:

  phase A (per segment): compute the nested candidate sets + their local
           cardinality vector (cheap set ops, no scoring);
  decide   (driver):     sum count vectors → pick the inclusion level exactly
           as TieredCandidateSelector would on one big segment;
  phase B (per segment): BM25-score the included union, return local top-k.

This makes the partitioned engine rank-identical to the reference's
single-segment semantics regardless of how many segments the corpus is split
into (north_rule requirement), at the cost of one extra tiny round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analyzer import tokenize_for_search
from ..config import EngineConfig
from ..segments import SegmentData

K1 = np.float32(1.2)
B = np.float32(0.75)
DELTA = np.float32(1.0)
_ONE = np.float32(1.0)
_HALF = np.float32(0.5)
MAX_TF = np.float32(255.0)


def compute_idf(total_docs: int, df: int) -> np.float32:
    """Bm25Scorer.ComputeIdf (Bm25Scorer.cs:686-695), float32 math."""
    if df <= 0 or total_docs <= 0:
        return np.float32(0.0)
    dff = np.float32(df)
    n = np.float32(total_docs)
    ratio = (n - dff + _HALF) / (dff + _HALF)
    if ratio <= 0:
        return np.float32(0.0)
    return np.float32(np.log(ratio + _ONE))


def max_term_score(idf: np.float32, avgdl: np.float32) -> np.float32:
    """Per-term upper bound with tf=255 (VectorModel.cs:521-533)."""
    min_dl_norm = _ONE - B + B * (_ONE / avgdl)
    max_core = (MAX_TF * (K1 + _ONE)) / (MAX_TF + K1 * min_dl_norm)
    return idf * (max_core + DELTA)


@dataclass
class QueryTermInfo:
    """One unique query term with global stats (VectorModel.QueryTermStat)."""

    text: str
    global_df: int
    q_occ: int
    idf: np.float32
    max_score: np.float32
    is_fuzzy: bool = False


@dataclass
class QueryPlan:
    """Globally-decided candidate-selection plan, shipped to every segment."""

    infos: list[QueryTermInfo]  # idf-descending (stable)
    mode: str  # "disjunctive" | "tiered"
    included_ranks: list[int] = field(default_factory=list)  # disjunctive
    selective_ranks: list[int] = field(default_factory=list)  # tiered (≤2)

    @property
    def n_levels(self) -> int:
        if self.mode == "disjunctive":
            return len(self.included_ranks)
        return 2 + len(self.selective_ranks)  # t0, t1, s1?, s2?

    def approx_nbytes(self) -> int:
        """Rough pickled size — decides inline-vs-object-store shipping in the
        distributed executor (typical panel plans are 0.5-2 KB)."""
        return 80 * len(self.infos) + sum(len(i.text) for i in self.infos) + 128


def prepare_query_terms(
    query_text: str,
    cfg: EngineConfig,
    df_lookup,
    total_docs: int,
    avgdl: float,
    fuzzy_df_batch_fn=None,
) -> list[QueryTermInfo]:
    """Tokenize the (normalized+lowered) query, dedupe into unique terms with
    occurrence counts and global df, compute idf/maxScore
    (VectorModel.SearchWithMaxScore gather phase, VectorModel.cs:376-530).
    ``fuzzy_df_batch_fn`` maps every unknown term (global df 0, length ≥ 4)
    to its LD1 union df in ONE call — a multi-typo query would otherwise
    pay one fan-out RTT per unknown term on a distributed engine."""
    tokens = tokenize_for_search(
        query_text,
        cfg.index_sizes,
        cfg.start_pad_size,
        cfg.stop_pad_size,
        cfg.delimiters,
        cfg.high_resolution_mode,
    )
    if not tokens:
        return []
    tokens_sorted = sorted(tokens)
    uniq: list[tuple[str, int]] = []
    for t in tokens_sorted:
        if uniq and uniq[-1][0] == t:
            uniq[-1] = (t, min(uniq[-1][1] + 1, 255))
        else:
            uniq.append((t, 1))

    avgdl32 = np.float32(avgdl if avgdl > 0 else 1.0)
    dfs = [int(df_lookup(text) or 0) for text, _ in uniq]
    need = [text for (text, _), df in zip(uniq, dfs) if df == 0 and len(text) >= 4]
    fuzzy_dfs: dict[str, int] = {}
    if need and fuzzy_df_batch_fn is not None:
        fuzzy_dfs = {t: int(v or 0) for t, v in zip(need, fuzzy_df_batch_fn(need))}
    out: list[QueryTermInfo] = []
    for (text, occ), df in zip(uniq, dfs):
        is_fuzzy = False
        if df == 0:
            fdf = fuzzy_dfs.get(text, 0)
            if fdf > 0:
                df, is_fuzzy = fdf, True
        if df <= 0 or df > cfg.stop_term_limit:
            continue
        idf = compute_idf(total_docs, df)
        out.append(
            QueryTermInfo(text, df, occ, idf, max_term_score(idf, avgdl32), is_fuzzy)
        )
    return out


def build_plan(infos: list[QueryTermInfo]) -> QueryPlan | None:
    """Route + order terms exactly as TieredCandidateSelector would with
    global statistics (single-big-segment semantics)."""
    if not infos:
        return None
    ordered = sorted(infos, key=lambda t: -float(t.idf))
    max_idf = float(ordered[0].idf)
    has_typo = any(t.global_df < 10 for t in infos)

    if has_typo or len(infos) == 1:
        # disjunctive (:243-322): after the first (max-idf) term produces
        # docs, low-quality terms (idf < 0.2·max) are skipped
        included = [
            r
            for r, t in enumerate(ordered)
            if r == 0 or len(infos) == 1 or float(t.idf) >= max_idf * 0.2
        ]
        return QueryPlan(ordered, "disjunctive", included_ranks=included)

    # tiered: choose up to 2 globally-selective terms (idf ≥ 0.3·max)
    selective = []
    for r, t in enumerate(ordered):
        if float(t.idf) <= 0 or float(t.idf) < max_idf * 0.3:
            continue
        selective.append(r)
        if len(selective) == 2:
            break
    return QueryPlan(ordered, "tiered", selective_ranks=selective)


def sum_counts(vecs) -> np.ndarray:
    """Σ of ragged phase-A cardinality vectors (per segment or per shard) —
    a shorter vector contributes 0 to the levels it lacks."""
    total = np.zeros(max((len(v) for v in vecs), default=0), dtype=np.int64)
    for v in vecs:
        total[: len(v)] += np.asarray(v, dtype=np.int64)
    return total


def decide_level(plan: QueryPlan, counts: np.ndarray, top_k: int) -> int:
    """Given the GLOBAL cumulative cardinality vector (Σ over segments of the
    phase-A counts), pick the inclusion level per the reference's cutoffs.
    Returns the number of nested candidate sets to include (≥1)."""
    n = len(plan.infos)
    if plan.mode == "disjunctive":
        # stop once the cumulative union reaches topK·100 (:317-318)
        for lvl in range(len(plan.included_ranks)):
            if counts[lvl] >= top_k * 100:
                return lvl + 1
        return len(plan.included_ranks)

    # tiered (:130-236). Level meanings: 1=t0, 2=+t1, 3=+s1, 4=+s2
    c0 = counts[0]
    if n >= 2 and c0 >= top_k * 2:
        return 1
    level, cur = 1, c0
    if n >= 3 and c0 < top_k * 3:
        level, cur = 2, counts[1]
    if cur < top_k * 5 and plan.selective_ranks:
        level = 3
        if len(plan.selective_ranks) > 1 and counts[2] < top_k * 10:
            level = 4
    return level


# --- scoring -----------------------------------------------------------------


class TermPostings:
    """Postings access for one plan term — eager (decoded arrays) or LAZY.

    A lazy term defers decoding to the moment a target set is known, then
    block-skip decodes only the touched skip blocks
    (``SegmentData.term_postings_subset`` — the vectorized analogue of the
    skip-table Advance in MMapBlockPostingsEnum.cs:6-303) and exposes the
    per-block max weights (BlockPostingsWriter.cs:97-106) for block-max
    score bounds. Terms whose full list is needed to BUILD the candidate
    set stay eager; everything else (typically the longest, lowest-idf
    lists) goes lazy."""

    __slots__ = ("info", "docs", "weights", "_seg", "_idx", "_probes")

    # below this posting count a full decode is cheaper than the block-skip
    # bookkeeping (searchsorted + per-run cumsum per probe) — profiled: tiny
    # lazy lists cost 2× an eager decode across a query's probe sequence
    LAZY_MIN_POSTINGS = 8 * 128  # 8 blocks

    # a lazy list probed this many times in one plan gets promoted to a full
    # cached decode — unless it is huge, where per-probe skip still wins
    PROMOTE_AFTER = 3
    PROMOTE_MAX_N = 65536

    def __init__(self, info, docs=None, weights=None, seg=None, idx=-1):
        self.info = info
        self.docs = docs
        self.weights = weights
        self._seg = seg
        self._idx = idx
        self._probes = 0

    @property
    def n(self) -> int:
        if self.docs is not None:
            return len(self.docs)
        return int(self._seg.n_postings[self._idx])

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        if self.docs is None:
            self.docs, self.weights = self._seg.term_postings(self._idx)
        return self.docs, self.weights

    def for_targets(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Postings restricted to the blocks containing ``targets`` (sorted)
        — a membership-exact superset; full arrays when already decoded.
        Repeated probes of a moderate-size list promote it to a cached full
        decode (phase A probes + phase B scoring hit the same lists)."""
        if self.docs is not None:
            return self.docs, self.weights
        self._probes += 1
        if self._probes >= self.PROMOTE_AFTER and self.n <= self.PROMOTE_MAX_N:
            return self.full()
        sub = self._seg.term_postings_subset_or_none(self._idx, targets)
        if sub is None:
            # skipping can't pay for these targets → decode fully ONCE and
            # cache (a repeated uncached fallback was the top stage-1 cost)
            return self.full()
        return sub

    def block_bound_tf(self, targets: np.ndarray) -> np.ndarray | None:
        """Per-target tf upper bound from the block-max skip table (0 for
        targets before the first posting); None when no skip table exists."""
        if self._seg is None or self._idx < 0:
            return None
        meta = self._seg.term_block_meta(self._idx)
        if meta is None:
            return None
        anchors, block_max = meta
        pos = np.searchsorted(anchors, targets, side="right") - 1
        bm = np.where(pos >= 0, block_max[np.maximum(pos, 0)], 0)
        return bm.astype(np.uint8)


def score_candidates(
    candidates: np.ndarray,
    term_postings: list[TermPostings],
    doc_len: np.ndarray,
    avgdl: float,
    top_k: int | None = None,
) -> np.ndarray:
    """Vectorized BM25+ accumulation over the candidate set, float32
    (Bm25Scorer.ProcessChunk/ComputeTermScore, Bm25Scorer.cs:283-651).

    With ``top_k``, applies the MaxScore pruning idea term-at-a-time
    (Bm25Scorer.cs:104-193,352-355: per-term upper bounds, suffix sums,
    candidates whose partial + remaining bound cannot reach the current
    floor are dropped), tightened per candidate with the next term's
    BLOCK-max weight when its skip table is available (block-max WAND,
    Ding & Suel 2011; reference skip rows BlockPostingsWriter.cs:97-106).
    Lossless for the top-k result set: the floor is the k-th best PARTIAL
    score (a lower bound on the k-th best final score), bounds are true
    upper bounds (with a 1e-6 inflation absorbing float reordering), and
    only candidates strictly below the floor are dropped. Pruned candidates
    keep score 0.

    Lazy terms decode only the posting blocks containing still-alive
    candidates — with idf-descending term order the longest lists come
    last, when pruning has already shrunk the alive set."""
    avgdl32 = np.float32(avgdl if avgdl > 0 else 1.0)
    n = len(candidates)
    scores = np.zeros(n, dtype=np.float32)
    if n == 0:
        return scores
    cand_dl = doc_len[candidates].astype(np.float32)
    cand_dl = np.where(cand_dl <= 0, np.float32(1.0), cand_dl)
    norm_all = K1 * (_ONE - B + B * (cand_dl / avgdl32))

    # NOTE: accumulation order is the caller's (plan.infos is idf-descending,
    # which equals maxScore-descending since max_core is term-independent) —
    # float32 addition order is part of the score contract, so never re-sort.
    prune = top_k is not None and n > 4 * top_k and len(term_postings) > 1
    if prune:
        max_scores = np.array(
            [float(tp.info.max_score) for tp in term_postings], dtype=np.float64
        )
        suffix = np.concatenate([np.cumsum(max_scores[::-1])[::-1], [0.0]])

    alive = np.arange(n)
    for ti, t in enumerate(term_postings):
        info = t.info
        if float(info.idf) <= 0 or t.n == 0:
            continue
        cand = candidates[alive]
        docs, weights = t.for_targets(cand)
        if len(docs):
            pos = np.searchsorted(docs, cand)
            pos_c = np.minimum(pos, len(docs) - 1)
            hit = docs[pos_c] == cand
            if hit.any():
                tf = weights[pos_c[hit]].astype(np.float32)
                core = (tf * (K1 + _ONE)) / (tf + norm_all[alive][hit])
                scores[alive[hit]] += info.idf * (core + DELTA)
        if prune and ti + 1 < len(term_postings) and len(alive) > top_k:
            floor = np.partition(scores[alive], len(alive) - top_k)[len(alive) - top_k]
            if floor > 0:
                nxt = term_postings[ti + 1]
                bm = (
                    nxt.block_bound_tf(candidates[alive])
                    if nxt.docs is None and float(nxt.info.idf) > 0
                    else None
                )
                if bm is not None:
                    # block-max bound for the next term + global tail after
                    tf_b = bm.astype(np.float64)
                    core_b = np.zeros(len(alive), dtype=np.float64)
                    nz = tf_b > 0
                    core_b[nz] = (tf_b[nz] * (float(K1) + 1.0)) / (
                        tf_b[nz] + norm_all[alive][nz].astype(np.float64)
                    )
                    nxt_bound = float(nxt.info.idf) * np.where(
                        nz, core_b + float(DELTA), 0.0
                    )
                    bound = scores[alive] + (nxt_bound + suffix[ti + 2]) * 1.000001
                else:
                    bound = scores[alive] + np.float32(suffix[ti + 1])
                keep = bound >= floor
                dropped = alive[~keep]
                scores[dropped] = 0  # pruned: cannot reach top-k
                alive = alive[keep]
    return scores


def topk_entries(
    keys: np.ndarray,
    scores: np.ndarray,
    k: int,
    tiebreakers: np.ndarray | None = None,
    seg_id: int = -1,
    local_ids: np.ndarray | None = None,
) -> list[tuple]:
    """Top-k as (score, doc_key, tiebreaker, seg_id, local_id) under
    ScoreEntry ordering (ScoreEntry.cs:25-36): score desc, tiebreaker desc,
    doc_key asc. (seg_id, local_id) identify the winning chunk — the
    bestSegmentsMap analogue used by coverage to fetch the right text."""
    n = len(keys)
    if n == 0:
        return []
    tb = tiebreakers if tiebreakers is not None else np.zeros(n, dtype=np.int32)
    order = np.lexsort((keys, -tb, -scores.astype(np.float64)))
    take = order[: min(k, n)]
    if local_ids is None:
        return [(float(scores[i]), int(keys[i]), int(tb[i]), seg_id, -1) for i in take]
    return [
        (float(scores[i]), int(keys[i]), int(tb[i]), seg_id, int(local_ids[i]))
        for i in take
    ]


def merge_topk(entry_lists: list[list[tuple]], k: int) -> list[tuple]:
    """Global top-k across per-segment lists, ordered (-score, -tiebreak,
    key). numpy lexsort instead of a Python key-lambda sort — this runs on
    the driver per query over n_segments × top_k entries."""
    alle = [e for lst in entry_lists for e in lst]
    n = len(alle)
    if n <= 1:
        return alle[:k]
    sc = np.fromiter((e[0] for e in alle), np.float64, count=n)
    tb = np.fromiter((e[2] for e in alle), np.int64, count=n)
    ky = np.fromiter((e[1] for e in alle), np.int64, count=n)
    order = np.lexsort((ky, -tb, -sc))[:k]
    return [alle[i] for i in order]


def pack_topk(entry_lists: list[list[tuple]], k: int):
    """Shard-actor side: merge per-segment entry lists and pack the top-k as
    numpy columns — the wire format between shard actors and the driver.
    16 shards × 500 Python tuples cost ~9 ms/query to pickle + merge on the
    driver; packed columns cross in ~1 ms (pickle-5 zero-copy buffers)."""
    ent = merge_topk(entry_lists, k)
    n = len(ent)
    return (
        np.fromiter((e[0] for e in ent), np.float64, count=n),
        np.fromiter((e[1] for e in ent), np.int64, count=n),
        np.fromiter((e[2] for e in ent), np.int64, count=n),
        np.fromiter((e[3] for e in ent), np.int64, count=n),
        np.fromiter((e[4] for e in ent), np.int64, count=n),
    )


def merge_packed(parts: list, k: int) -> list[tuple]:
    """Driver side: global top-k + consolidation over packed columns.
    Equivalent to ``consolidate(merge_topk(...))`` — the lexsort is stable,
    so ties keep concatenation (= shard) order exactly like the tuple path,
    and first-occurrence-per-key on the rank-ordered top-k IS the
    best-entry-per-key rule. Columns after the five ``pack_topk`` ones
    (a per-row payload) ride along into each kept tuple."""
    parts = [p for p in parts if p is not None and len(p[0])]
    if not parts:
        return []
    cols = [np.concatenate(c) for c in zip(*parts)]
    sc, ky, tb = cols[0], cols[1], cols[2]
    order = np.lexsort((ky, -tb, -sc))[:k]
    _, first = np.unique(ky[order], return_index=True)
    first.sort()
    keep = order[first]
    return list(zip(*(c[keep].tolist() for c in cols)))


def consolidate(entries: list[tuple]) -> list[tuple]:
    """SegmentProcessor.ConsolidateSegments (:16-37): best entry per doc_key,
    sorted descending."""
    best: dict[int, tuple] = {}
    for e in entries:
        cur = best.get(e[1])
        if cur is None or (e[0], e[2], -e[1]) > (cur[0], cur[2], -cur[1]):
            best[e[1]] = e
    out = list(best.values())
    out.sort(key=lambda e: (-e[0], -e[2], e[1]))
    return out


def _union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return np.union1d(a, b)


def _intersect_sorted(arrays: list[np.ndarray]) -> np.ndarray:
    out = arrays[0]
    for p in arrays[1:]:
        if len(out) == 0:
            return out
        out = np.intersect1d(out, p, assume_unique=True)
    return out


class SegmentStage1:
    """Stage-1 searcher bound to one loaded segment (the state a query actor
    holds): local postings, global statistics."""

    def __init__(self, seg: SegmentData, cfg: EngineConfig):
        self.seg = seg
        self.cfg = cfg
        self._fuzzy_cache: dict[str, tuple[np.ndarray, int]] = {}
        self._del_index: dict[str, list[int]] | None = None
        # phase A → phase B memo: the two-phase protocol evaluates the same
        # plan twice per query (counts, then scoring) — cache the decoded
        # postings + nested candidate sets between the calls
        self._plan_memo_key = None
        self._plan_memo: tuple | None = None

    def clear_plan_memo(self) -> None:
        """Drop the memoized plan: its postings carry the plan's idf, which
        goes stale when the global stats change (an incremental add)."""
        self._plan_memo_key = None
        self._plan_memo = None

    @staticmethod
    def _plan_key(plan: QueryPlan):
        return (
            tuple(t.text for t in plan.infos),
            tuple(t.is_fuzzy for t in plan.infos),
            plan.mode,
            tuple(plan.included_ranks),
            tuple(plan.selective_ranks),
        )

    # -- fuzzy (edit-distance-1) expansion --------------------------------
    def _deletion_index(self) -> dict[str, list[int]]:
        """Symmetric-delete index over the segment term dictionary, built
        lazily once (replaces FstIndex.MatchWithinEditDistance1)."""
        if self._del_index is None:
            idx: dict[str, list[int]] = {}
            for i, t in enumerate(self.seg.terms):
                t = str(t)
                idx.setdefault(t, []).append(~i)  # ones-complement = exact
                for j in range(len(t)):
                    idx.setdefault(t[:j] + t[j + 1 :], []).append(i)
            self._del_index = idx
        return self._del_index

    def _ld1_term_ids(self, text: str) -> list[int]:
        idx = self._deletion_index()
        cand: set[int] = set()
        for v in idx.get(text, ()):
            cand.add(v if v >= 0 else ~v)
        for j in range(len(text)):
            d = text[:j] + text[j + 1 :]
            for v in idx.get(d, ()):
                cand.add(v if v >= 0 else ~v)
        out = []
        for tid in cand:
            term = str(self.seg.terms[tid])
            if term != text and _lev1(text, term):
                out.append(tid)
        return sorted(out)

    def fuzzy_union(self, text: str) -> tuple[np.ndarray, int]:
        """LD1 virtual-term postings: sorted unique doc ids, tf=1
        (VectorModel.ExpandMissingTerm, VectorModel.cs:643-743)."""
        hit = self._fuzzy_cache.get(text)
        if hit is not None:
            return hit
        tids = self._ld1_term_ids(text)
        if not tids:
            res = (np.empty(0, dtype=np.uint32), 0)
        else:
            parts = [self.seg.term_postings(int(i))[0] for i in tids]
            docs = np.unique(np.concatenate(parts))
            res = (docs, int(len(docs)))
        if len(self._fuzzy_cache) >= 1000:  # LruCache(1000), VectorModel.cs:42
            self._fuzzy_cache.pop(next(iter(self._fuzzy_cache)))
        self._fuzzy_cache[text] = res
        return res

    # -- local postings for a plan ----------------------------------------
    def _plan_postings(self, plan: QueryPlan) -> list[TermPostings]:
        """Postings handles in plan order. Only the ranks whose FULL list is
        needed to build candidate sets decode eagerly (disjunctive included
        ranks, tiered selective singles); everything else stays lazy and is
        block-skip decoded against the candidate/probe set later — the long
        low-idf lists never pay a full-decode at 100× posting lengths."""
        if plan.mode == "disjunctive":
            eager_ranks = set(plan.included_ranks)
        else:
            # tiered intersections probe the long lists against the smallest
            # list (progressive), so only the selective singles must be full
            eager_ranks = set(plan.selective_ranks)
        out: list[TermPostings] = []
        for r, info in enumerate(plan.infos):
            if info.is_fuzzy:
                docs, _card = self.fuzzy_union(info.text)
                out.append(
                    TermPostings(info, docs, np.ones(len(docs), dtype=np.uint8))
                )
                continue
            i = self.seg.term_lookup(info.text)
            if i < 0:
                out.append(
                    TermPostings(info, np.empty(0, np.uint32), np.empty(0, np.uint8))
                )
            elif (
                r in eager_ranks
                or int(self.seg.n_postings[i]) < TermPostings.LAZY_MIN_POSTINGS
            ):
                docs, weights = self.seg.term_postings(i)
                out.append(TermPostings(info, docs, weights))
            else:
                out.append(TermPostings(info, seg=self.seg, idx=i))
        return out

    @staticmethod
    def _intersect_progressive(tps: list[TermPostings]) -> np.ndarray:
        """Intersection of all terms' doc sets, probing the longer lists
        against the running (small) result with block-skip decode instead of
        fully decoding every list — order-independent set semantics, so the
        result is identical to the naive all-full-decode intersection."""
        if not tps:
            return np.empty(0, np.uint32)
        order = sorted(range(len(tps)), key=lambda r: tps[r].n)
        out = tps[order[0]].full()[0]
        for r in order[1:]:
            if len(out) == 0:
                return out
            docs = tps[r].for_targets(out)[0]
            out = np.intersect1d(out, docs, assume_unique=True)
        return out

    def _candidate_sets(self, plan: QueryPlan, tp=None) -> list[np.ndarray]:
        """Phase A: the nested candidate sets for this segment."""
        if tp is None:
            tp = self._plan_postings(plan)
        if plan.mode == "disjunctive":
            sets = []
            union = np.empty(0, dtype=np.uint32)
            for r in plan.included_ranks:
                union = _union_sorted(union, tp[r].full()[0])
                sets.append(union)
            return sets
        # tiered: t1 (all but the last term) first, then t0 = t1 ∩ last —
        # the last (lowest-idf, longest) list is only probed, never unioned
        if len(tp) >= 3:
            t1 = self._intersect_progressive(tp[:-1])
            if len(t1):
                last = tp[-1].for_targets(t1)[0]
                t0 = np.intersect1d(t1, last, assume_unique=True)
            else:
                t0 = t1
        elif len(tp) == 2:
            t1 = np.empty(0, np.uint32)
            t0 = self._intersect_progressive(tp)
        else:
            t1 = np.empty(0, np.uint32)
            t0 = np.empty(0, np.uint32)
        sets = [t0, _union_sorted(t0, t1)]
        cur = sets[-1]
        for r in plan.selective_ranks:
            cur = _union_sorted(cur, tp[r].full()[0])
            sets.append(cur)
        return sets

    def _memoized(self, plan: QueryPlan) -> tuple:
        key = self._plan_key(plan)
        if self._plan_memo_key != key:
            tp = self._plan_postings(plan)
            sets = self._candidate_sets(plan, tp)
            self._plan_memo_key = key
            self._plan_memo = (tp, sets)
        return self._plan_memo

    def phase_a(self, plan: QueryPlan) -> np.ndarray:
        """Cumulative local cardinalities of the nested candidate sets."""
        _, sets = self._memoized(plan)
        return np.asarray([len(s) for s in sets], dtype=np.int64)

    def phase_b(
        self, plan: QueryPlan, level: int, top_k: int, avgdl: float
    ) -> list[tuple[float, int, int]]:
        """Score the level-``level`` candidate set, return local top-k."""
        tp, sets = self._memoized(plan)
        if not sets:
            return []
        cands = sets[min(level, len(sets)) - 1]
        if len(cands) == 0:
            return []
        scores = score_candidates(cands, tp, self.seg.doc_len, avgdl, top_k=top_k)
        hit = scores > 0
        cands, scores = cands[hit], scores[hit]
        if len(cands) == 0:
            return []
        keys = self.seg.doc_keys[cands]
        return topk_entries(keys, scores, top_k, seg_id=self.seg.seg_id, local_ids=cands)

    def search_single(
        self, plan: QueryPlan, level: int, top_k: int, avgdl: float
    ) -> list[tuple[float, int, int]]:
        return self.phase_b(plan, level, top_k, avgdl)


def run_stage1(
    searchers: list[SegmentStage1],
    plan: QueryPlan | None,
    top_k: int,
    avgdl: float,
) -> list[tuple[float, int, int]]:
    """Driver-side orchestration of the two-phase stage-1 over in-process
    searchers (the actor executor mirrors this with ray.get batching)."""
    if plan is None:
        return []
    if plan.n_levels == 1:
        # a single candidate level needs no cardinality round: decide_level
        # returns 1 regardless of the counts (single-term / one-included-rank
        # disjunctive plans — skips a whole fan-out in the executor)
        level = 1
    else:
        total = sum_counts([s.phase_a(plan) for s in searchers])
        if len(total) == 0:
            return []
        level = decide_level(plan, total, top_k)
    per_seg = [s.phase_b(plan, level, top_k, avgdl) for s in searchers]
    return consolidate(merge_topk(per_seg, top_k))


def _lev1(a: str, b: str) -> bool:
    """True iff Levenshtein distance (no transposition) ≤ 1."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]

"""Coverage stage (Stage 2): lexical matcher cascade + coverage scoring.

Re-implementation of the reference's coverage engine:

* tokenization/dedup   — src/Infidex/Coverage/CoverageTokenizer.cs:7-108
* whole-word matcher   — src/Infidex/Coverage/WholeWordMatcher.cs:5-68
* joined-word matcher  — src/Infidex/Coverage/JoinedWordMatcher.cs:5-135
* prefix/suffix        — src/Infidex/Coverage/PrefixSuffixMatcher.cs:8-215
* fuzzy matcher        — src/Infidex/Coverage/FuzzyWordMatcher.cs:14-145
* coverage scoring     — src/Infidex/Coverage/CoverageScorer.cs:5-198
* fusion signals       — src/Infidex/Coverage/FusionSignalComputer.cs:48-569
* per-term idf         — src/Infidex/Coverage/CoverageEngine.cs:388-427

Query text arrives normalized + lowercased (SearchEngine.Search); document
text arrives normalized but NOT lowercased (SegmentProcessor.GetBestSegmentText)
— all comparisons are case-insensitive (OrdinalIgnoreCase), implemented here by
comparing 1:1-lowercased shadow strings that preserve offsets/lengths.

Token-relation kernel. Every question the cascade and the fusion signals
ask about a (query token, doc token) pair depends on the two strings only,
and one query's candidates share most of their doc tokens. So
``TokenRelations`` answers each question once per query and distinct
lowered doc token, in tables filled the first time a candidate carries the
token:

* ``tokens`` — one int bit mask per doc token. Against each coverage query
  token: equality, equality with a joined query pair, the prefix/suffix
  pass-1 relation (prefix, suffix or infix either way) and "proper prefix
  of a query token". Against each unfiltered (fusion) query token:
  equality, "starts with" and stem evidence (a common prefix of at least
  ``min_stem_length``). Per query: explained by no query token
  (perfect doc), anchor stem, trailing-term match and the two-segment
  prefix/suffix fragments.
* ``prefix_fuzzy[i]`` — the pass-2 credit: ``damerau1`` on the doc token's
  length-window prefixes against query token ``i``.
* ``fuzzy(i, edits, ...)`` — the fuzzy matcher's ``damerau1``/``damerau``
  distance at one edit budget, length window and first-char rule applied.
* ``single`` — a doc token's single-term lexical similarity score.

A candidate maps its tokens through ``tokens`` and ORs the masks, so each
"any doc token" question of the matchers and the fusion signals is one bit
test, and the perfect-doc, stem-evidence, anchor-stem, trailing-density and
single-term signals run over the doc's distinct tokens (cached per doc in
``prepare_doc``). The order-dependent loops keep the reference's order and
their ``q_active``/``d_active`` bookkeeping: the first-match scans of the
four matchers (query order; length-descending active tokens in the
prefix/suffix passes; doc order per edit budget in the fuzzy matcher) and
the first "starts with" doc token of a single-term query. A table only lets
those scans skip tokens without the relation. Scores are bit-identical to
the literal per-pair loops kept in tests/oracle.py
(tests/test_coverage_kernel.py).

The tables live for one candidate-scoring call (``pipeline.
process_candidates``): they are never module state and never part of the
``CoverageContext`` that crosses the wire.

Score bound. ``score_bounds`` turns a block of candidates' OR'd masks
(and, for a query token no exact relation explains, the fuzzy tables) into
upper bounds on their fusion scores before any matcher runs;
``process_candidates`` pairs each with the candidate's exact tiebreaker
(from the table's text lengths) and skips the candidates whose bound cannot
reach the running top k in the rank order (score, tiebreaker, -key)
(tests/test_coverage_kernel.py checks bound ≥ score, that the bulk bound
equals the per-candidate one kept in tests/oracle.py, and that the
pre-scoring tiebreaker equals the fusion one). It reads each chunk's
tokens from the segment's ``TokenTable``, built once per segment: the same
lowered tokens ``prepare_doc`` gives, interned as int32 ids.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import or_

import numpy as np

from .metrics import damerau, damerau1


@dataclass(frozen=True)
class CoverageParams:
    """CoverageSetup defaults (src/Infidex/Coverage/CoverageSetup.cs:6-134)."""

    min_word_size: int = 2
    levenshtein_max_word_size: int = 20
    num_typos: int = 2
    min_length_one_typo: int = 3
    min_length_two_typos: int = 7
    coverage_min_word_hits_abs: int = 1
    coverage_min_word_hits_relative: int = 0
    coverage_q_limit_for_error_tolerance: int = 5
    coverage_lcs_error_tolerance_relative_q: float = 0.2
    cover_whole_query: bool = True
    cover_whole_words: bool = True
    cover_fuzzy_words: bool = True
    cover_joined_words: bool = True
    cover_prefix_suffix: bool = True
    truncate: bool = True
    truncation_score: int = 254
    # CoverageSetup.cs:92 — off by default; drops stage-1 candidates whose
    # doc contains none of the query's full words (conservative: skipped
    # when any query word is absent from the index → possible typo)
    enable_lexical_prescreen: bool = False


def lower_1to1(s: str) -> str:
    """Per-char lowercase that preserves string length (mirrors .NET
    ToLowerInvariant's 1:1 UTF-16 mapping; Python str.lower() may expand
    e.g. 'İ' — take the first produced char in that case)."""
    low = s.lower()
    if len(low) == len(s):
        return low
    return "".join((c.lower() or c)[0] for c in s)


def tokenize_slices(
    text: str, min_word_size: int, delimiters: frozenset[str]
) -> list[tuple[int, int]]:
    """(offset, length) slices of tokens with len >= min_word_size
    (CoverageTokenizer.TokenizeToSpan; position == offset)."""
    out: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i] in delimiters:
            i += 1
        if i >= n:
            break
        start = i
        while i < n and text[i] not in delimiters:
            i += 1
        if i - start >= min_word_size:
            out.append((start, i - start))
    return out


def dedupe_slices(slices: list[tuple[int, int]], low_text: str) -> list[tuple[int, int]]:
    """Case-insensitive dedup preserving first occurrence
    (CoverageTokenizer.DeduplicateQueryTokens/DeduplicateDocTokens)."""
    seen: set[str] = set()
    out: list[tuple[int, int]] = []
    for off, ln in slices:
        key = low_text[off : off + ln]
        if key not in seen:
            seen.add(key)
            out.append((off, ln))
    return out



# --- token-relation kernel ---------------------------------------------------

_ANCHOR_STEM_LENGTH = 3
_MAX_TRAILING_TERM_LENGTH = 2
_MIN_SEGMENT = 3  # two-segment heuristic fragment floor


class _Memo(dict):
    """A dict that computes a missing key's value with ``fn`` and keeps it,
    so ``map(memo.__getitem__, keys)`` stays in C for every key seen before."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _prefix_fuzzy_credit(qt: str, dt: str):
    """Pass-2 credit of doc token ``dt`` for query token ``qt``
    (PrefixSuffixMatcher.cs:150-205): Damerau ≤ 1 on the doc token's
    length-window prefixes. 0 = no match."""
    q_len, d_len = len(qt), len(dt)
    if q_len >= d_len:
        return 0
    dist = damerau1(qt, dt[:q_len])
    if dist <= 1:
        return max(q_len - dist, 0.1)
    dist = damerau1(qt, dt[: q_len + 1])
    if dist <= 1:
        return max(q_len - dist, 0.1)
    if q_len > 1:
        dist = damerau1(qt, dt[: q_len - 1])
        if dist <= 1:
            return max(q_len - 1 - dist, 0.1)
    return 0


def _fuzzy_window(q_len: int, edit_dist: int, setup: CoverageParams) -> tuple[int, int, bool] | None:
    """(min length, max length, two-char first-letter rule) of the doc
    tokens the fuzzy matcher compares with a ``q_len``-char query token at
    ``edit_dist`` (FuzzyWordMatcher.cs:60-100), or None when the token is
    not tried at that budget."""
    if q_len < setup.min_word_size:
        return None
    if q_len >= setup.min_length_two_typos:
        token_max_edits = 2
    elif q_len >= setup.min_length_one_typo:
        token_max_edits = 1
    else:
        token_max_edits = 0
    is_special_short = False
    if q_len == 2 and token_max_edits == 0 and setup.num_typos >= 1:
        token_max_edits = 1
        is_special_short = True
    if token_max_edits > setup.num_typos:
        token_max_edits = setup.num_typos
    if edit_dist > token_max_edits or (is_special_short and edit_dist != 1):
        return None
    min_len = max(setup.min_word_size, q_len - edit_dist)
    max_len = min(setup.levenshtein_max_word_size, q_len + edit_dist, 63)
    return min_len, max_len, is_special_short


def _fuzzy_distance(qt: str, edit_dist: int, min_len: int, max_len: int, special_short: bool, dt: str) -> int:
    """The fuzzy matcher's distance of doc token ``dt`` at one edit budget
    (FuzzyWordMatcher.cs:95-130); -1 when the length window or the
    two-char first-letter rule excludes it or it is over budget."""
    d_len = len(dt)
    if d_len > max_len or d_len < min_len:
        return -1
    if special_short and (not dt or dt[0] != qt[0]):
        return -1
    dist = damerau1(qt, dt) if edit_dist == 1 else damerau(qt, dt, edit_dist)
    return dist if dist <= edit_dist else -1


def _single_term_token_score(q: str, t: str) -> float:
    """One doc token's score in ComputeSingleTermLexicalSimilarity
    (FusionSignalComputer.cs:445-540); the doc's score is the max over its
    tokens. ``q`` is the lowered query term, at least 3 chars."""
    if len(t) < 2:
        return 0.0
    q_len = len(q)
    idx = q.find(t)
    if idx >= 0:
        return (len(t) / q_len) * (1.0 - idx / q_len)
    max_k = min(q_len, len(t))
    best_k = 0
    for length in range(max_k, 1, -1):
        if q[q_len - length :] == t[:length]:
            best_k = length
            break
    prefix_suffix_score = best_k / q_len if best_k > 0 else 0.0
    fuzzy_score = 0.0
    if len(t) <= 32:
        dist = damerau(q, t, 2)
        if dist <= 2:
            fuzzy_score = (q_len - dist) / q_len
    return max(prefix_suffix_score, fuzzy_score)


class TokenRelations:
    """One query's token-relation tables (see the module docstring). Built
    per candidate-scoring call from the query context; the doc-token keys
    are lowered token texts."""

    def __init__(self, ctx, delimiters: frozenset[str], min_stem_length: int, setup: CoverageParams):
        self.query = q = ctx.query
        # coverage query tokens: min_word_size-filtered, deduped
        self.q_texts = q_texts = [q[o : o + l] for o, l in ctx.tokens]
        nc = len(q_texts)
        self.q_len_order = sorted(range(nc), key=lambda i: -len(q_texts[i]))
        self.q_joined = [q_texts[i] + q_texts[i + 1] for i in range(nc - 1)]
        self.q_heads = frozenset(t[:k] for t in q_texts for k in range(1, len(t)))
        # fusion query tokens: unfiltered, repeats kept
        self.fq_slices = tokenize_slices(q, 0, delimiters)
        self.fq_texts = fq = [q[o : o + l] for o, l in self.fq_slices]
        nf = len(fq)
        # ``fusion_calculate``'s query token count: the unfiltered count,
        # else the coverage count; 0 without coverage tokens (the features
        # then stay empty)
        self.fusion_n = (nf or nc) if nc else 0

        bits = (1 << k for k in itertools.count())

        def take(n):
            return [next(bits) for _ in range(n)]

        self.b_eq, self.b_ps, self.b_join = take(nc), take(nc), take(len(self.q_joined))
        self.b_feq, self.b_fstart, self.b_fstem = take(nf), take(nf), take(nf)
        (self.b_head, self.b_unexplained, self.b_anchor, self.b_trail,
         self.b_seg_prefix, self.b_seg_suffix) = take(6)
        self.b_approx = take(nc)
        self.n_bits = next(bits).bit_length() - 1  # relation bits in use
        self.joined_bits: dict[str, int] = {}
        for text, b in zip(self.q_joined, self.b_join):
            self.joined_bits[text] = self.joined_bits.get(text, 0) | b

        # fusion predicates (FusionSignalComputer.cs:53-178)
        self.min_stem_length = min_stem_length
        # stem evidence: multi-term queries, terms of min_stem_length or more
        self.stem_terms = (
            [i for i in range(nf) if len(fq[i]) >= min_stem_length] if nf >= 2 else []
        )
        self.stem_heads = [(fq[i][:min_stem_length], self.b_fstem[i]) for i in self.stem_terms]
        self.preceding_eq = 0
        for i in range(nf - 1):
            if fq[i]:
                self.preceding_eq |= self.b_feq[i]
        self.anchor = (
            fq[0][:_ANCHOR_STEM_LENGTH]
            if nf and self.fq_slices[0][1] >= _ANCHOR_STEM_LENGTH
            else None
        )
        self.trail = (
            fq[-1] if nf >= 2 and 1 <= len(fq[-1]) <= _MAX_TRAILING_TERM_LENGTH else None
        )
        self.seg = None
        self.single = None
        if nf == 1 and len(fq[0]) >= 3:
            self.single = _Memo(partial(_single_term_token_score, fq[0]))
            q_len = len(fq[0])
            if q_len >= 2 * _MIN_SEGMENT:
                seg_len = min(2 * _MIN_SEGMENT, q_len // 2)
                self.seg = (fq[0][:seg_len], fq[0][q_len - seg_len :])

        self.tokens = _Memo(self._relate)
        self.prefix_fuzzy = [_Memo(partial(_prefix_fuzzy_credit, t)) for t in q_texts]
        self._fuzzy: dict[tuple[int, int], _Memo] = {}

        # score bound (``score_bounds``): the relations that can give a query
        # token matched chars, and those that can give it a prefix hit (a
        # doc pair joined into token i makes its second doc token a suffix
        # of token i, so ``b_ps`` covers that case)
        join = self.b_join + [0]
        self.b_prefix = [self.b_eq[i] | self.b_ps[i] | join[i] for i in range(nc)]
        self.b_term = [
            self.b_prefix[i] | join[i - 1] | self.b_approx[i] for i in range(nc)
        ]
        self.b_match = reduce(or_, self.b_prefix, self.b_head)
        # ``approx[i][d]``: the fuzzy-prefix pass of the prefix/suffix
        # matcher or the fuzzy matcher can match query token i with doc
        # token d; a doc that relates to token i through none of its exact
        # bits gets ``b_approx[i]`` from it
        self.b_exact = [b & ~a for b, a in zip(self.b_term, self.b_approx)]
        self._windows = [
            [(e, w) for e in (1, 2) if (w := _fuzzy_window(len(t), e, setup)) is not None]
            for t in q_texts
        ]
        self.approx = [_Memo(partial(self._approx, i)) for i in range(nc)]
        # high-information dominance (FusionScorer.cs:88-146): the terms that
        # can be the dominant one and whether an anchor stem can be strong
        self.b_dominant = 0
        self.strong_anchor = False
        wl = ctx.word_level_idf
        if wl is not None and nc >= 2:
            total_idf = 0.0
            for idf in ctx.term_idf:
                total_idf += idf
            avg = total_idf / nc if total_idf > 0.0 else 0.0
            for i in range(nc):
                if 0.0 < wl[i] and wl[i] >= avg:
                    self.b_dominant |= self.b_term[i]
            self.strong_anchor = wl[0] >= avg
        # the single-char last token boost is at most 8 + 16 + 4
        # (FusionSignalComputer.cs:180-262)
        self.boost_max = 28 if nf > nc and len(fq[-1]) == 1 and fq[-1].isalpha() else 0
        self.single_term = (nf or nc) <= 1
        self.b_cov_bound = reduce(or_, self.b_term, 0)
        self.b_fusion_bound = reduce(
            or_,
            [self.b_fstart[i] | self.b_fstem[i] for i in self.stem_terms],
            self.preceding_eq | (self.b_fstart[-1] if nf else 0)
            | self.b_unexplained | self.b_anchor,
        )
        self.bounds = _Memo(partial(_precedence_bound, self))

    def _relate(self, d: str) -> int:
        """Bit mask of doc token ``d`` (module docstring)."""
        mask = 0
        d_len = len(d)
        for q, b_eq, b_ps in zip(self.q_texts, self.b_eq, self.b_ps):
            q_len = len(q)
            if q_len == d_len:
                if d == q:
                    mask |= b_eq
            elif q_len < d_len:
                if d.startswith(q) or d.endswith(q) or (q_len >= 4 and q in d):
                    mask |= b_ps
            elif q.endswith(d):
                mask |= b_ps
        mask |= self.joined_bits.get(d, 0)
        if d in self.q_heads:
            mask |= self.b_head

        explained = False
        for q, b_feq, b_fstart in zip(self.fq_texts, self.b_feq, self.b_fstart):
            if d.startswith(q):
                mask |= b_fstart
                if d_len == len(q):
                    mask |= b_feq
                explained = True
            elif q.startswith(d):
                explained = True
        if not explained:
            mask |= self.b_unexplained
        if d_len >= self.min_stem_length:
            head = d[: self.min_stem_length]
            for q_head, b in self.stem_heads:
                if q_head == head:
                    mask |= b
        if self.anchor is not None and d.startswith(self.anchor):
            mask |= self.b_anchor
        last = self.trail
        if last is not None and (d.startswith(last) or (d_len > len(last) and last in d)):
            mask |= self.b_trail
        if self.seg is not None and d_len >= _MIN_SEGMENT:
            prefix_frag, suffix_frag = self.seg
            if d.startswith(prefix_frag) or prefix_frag.startswith(d):
                mask |= self.b_seg_prefix
            if d.endswith(suffix_frag) or suffix_frag.endswith(d):
                mask |= self.b_seg_suffix
        return mask

    def _approx(self, i: int, d: str) -> bool:
        q_len = len(self.q_texts[i])
        if (q_len >= 4 or (i == len(self.q_texts) - 1 and q_len >= 2)) and self.prefix_fuzzy[i][d]:
            return True  # the pass-2 window rule of match_prefix_suffix
        return any(self.fuzzy(i, e, *w)[d] >= 0 for e, w in self._windows[i])

    def fuzzy(self, i: int, edit_dist: int, min_len: int, max_len: int, special_short: bool) -> _Memo:
        """Fuzzy-matcher distances of query token ``i`` at ``edit_dist``
        (the window and the first-letter rule follow from ``i`` and
        ``edit_dist``, so the pair keys the table)."""
        table = self._fuzzy.get((i, edit_dist))
        if table is None:
            table = self._fuzzy[(i, edit_dist)] = _Memo(
                partial(_fuzzy_distance, self.q_texts[i], edit_dist, min_len, max_len, special_short)
            )
        return table


class MatchState:
    """Mutable state threaded through the matcher cascade (MatchState.cs)
    for one candidate doc. ``recs`` are the doc tokens' relation masks,
    ``rel_any`` their OR."""

    __slots__ = (
        "rel", "q_texts", "d_texts", "d_slices", "d_order", "recs", "rel_any",
        "q_active", "d_active",
        "term_matched_chars", "term_max_chars", "term_has_whole",
        "term_has_joined", "term_has_prefix", "term_first_pos", "term_idf",
        "q_count", "d_count", "doc_token_count",
        "word_hits", "num_whole", "num_joined", "num_fuzzy",
        "num_prefix_suffix", "penalty",
    )

    def __init__(self, rel: TokenRelations, d_slices, d_texts, d_order, term_max_chars, term_idf, doc_token_count):
        self.rel = rel
        self.q_texts = rel.q_texts
        self.d_slices = d_slices
        self.d_texts = d_texts
        self.d_order = d_order
        self.recs = list(map(rel.tokens.__getitem__, d_texts))
        self.rel_any = reduce(or_, self.recs, 0)
        self.q_count = len(self.q_texts)
        self.d_count = len(d_slices)
        self.doc_token_count = doc_token_count
        self.q_active = [True] * self.q_count
        self.d_active = [True] * self.d_count
        self.term_matched_chars = [0.0] * self.q_count
        self.term_max_chars = term_max_chars
        self.term_has_whole = [False] * self.q_count
        self.term_has_joined = [False] * self.q_count
        self.term_has_prefix = [False] * self.q_count
        self.term_first_pos = [-1] * self.q_count
        self.term_idf = term_idf
        self.word_hits = 0
        self.num_whole = 0.0
        self.num_joined = 0.0
        self.num_fuzzy = 0.0
        self.num_prefix_suffix = 0.0
        self.penalty = 0


# --- matchers (reference order; greedy consumption is part of the contract) --


def match_whole_words(st: MatchState) -> None:
    """WholeWordMatcher.Match (WholeWordMatcher.cs:5-68). Doc tokens are
    distinct, so the first active equal token is THE equal token if active."""
    b_eq = st.rel.b_eq
    p_increment = 1 if st.q_count > 1 else 0
    for i in range(st.q_count):
        if not st.rel_any & b_eq[i]:
            continue
        qt = st.q_texts[i]
        match_index = st.d_texts.index(qt)
        if not st.d_active[match_index]:
            continue
        q_len = len(qt)
        st.word_hits += 1
        st.num_whole += q_len
        st.term_matched_chars[i] += q_len
        st.term_has_whole[i] = True
        st.term_has_prefix[i] = True
        pos = st.d_slices[match_index][0]
        if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
            st.term_first_pos[i] = pos
        # penalty: doc token at position i differs from query token i
        if i >= st.d_count or st.d_texts[i] != qt:
            st.penalty += 1
        if i < st.q_count - 1:
            st.num_whole += p_increment
        st.q_active[i] = False
        st.d_active[match_index] = False


def match_joined_words(st: MatchState) -> None:
    """JoinedWordMatcher.Match (JoinedWordMatcher.cs:5-135). A doc token of
    length |q1|+|q2| that starts with q1 and ends with q2 IS q1+q2, and a
    query token made of two doc tokens starts with the first one."""
    rel = st.rel
    q_active, d_active = st.q_active, st.d_active
    # query pair → single doc token (the next active query token after an
    # active i with active i+1 is i+1)
    for i in range(st.q_count - 1):
        if not q_active[i] or not q_active[i + 1]:
            continue
        if not st.rel_any & rel.b_join[i]:
            continue
        match_index = st.d_texts.index(rel.q_joined[i])
        if not d_active[match_index]:
            continue
        next_idx = i + 1
        q1_len = len(st.q_texts[i])
        q2_len = len(st.q_texts[next_idx])
        st.num_joined += q1_len + q2_len
        st.word_hits += 2
        st.term_matched_chars[i] += q1_len
        st.term_has_joined[i] = True
        st.term_has_prefix[i] = True
        pos = st.d_slices[match_index][0]
        if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
            st.term_first_pos[i] = pos
        st.term_matched_chars[next_idx] += q2_len
        st.term_has_joined[next_idx] = True
        if st.term_first_pos[next_idx] == -1 or pos < st.term_first_pos[next_idx]:
            st.term_first_pos[next_idx] = pos
        q_active[i] = False
        q_active[next_idx] = False
        d_active[match_index] = False

    # doc pair → single query token; only a doc token that is a proper
    # prefix of some query token can start one
    b_head = rel.b_head
    if not st.rel_any & b_head:
        return
    recs = st.recs
    for i in range(st.d_count - 1):
        if not d_active[i] or not recs[i] & b_head:
            continue
        next_idx = -1
        for k in range(i + 1, st.d_count):
            if d_active[k]:
                next_idx = k
                break
        if next_idx == -1:
            break
        joined = st.d_texts[i] + st.d_texts[next_idx]
        if joined not in st.q_texts:
            continue
        match_index = st.q_texts.index(joined)
        if not q_active[match_index]:
            continue
        joined_len = len(joined)
        st.num_joined += joined_len
        st.word_hits += 1
        st.term_matched_chars[match_index] += joined_len
        st.term_has_joined[match_index] = True
        st.term_has_prefix[match_index] = True
        pos = st.d_slices[i][0]
        if st.term_first_pos[match_index] == -1 or pos < st.term_first_pos[match_index]:
            st.term_first_pos[match_index] = pos
        q_active[match_index] = False
        d_active[i] = False
        d_active[next_idx] = False


def match_prefix_suffix(st: MatchState) -> None:
    """PrefixSuffixMatcher.Match (PrefixSuffixMatcher.cs:8-214): exact pass
    then fuzzy-prefix pass, both over length-descending active tokens
    (stable sort = reference's insertion sort; the doc order is cached per
    doc, the query order per query)."""
    rel = st.rel
    q_active, d_active = st.q_active, st.d_active
    q_indices = [i for i in rel.q_len_order if q_active[i]]
    d_indices = [j for j in st.d_order if d_active[j]]
    q_texts, d_texts, recs = st.q_texts, st.d_texts, st.recs

    # pass 1: exact prefix / suffix / contains
    for i in q_indices:
        bit = rel.b_ps[i]
        if not q_active[i] or not st.rel_any & bit:
            continue
        qt = q_texts[i]
        q_len = len(qt)
        for j in d_indices:
            if not d_active[j] or not recs[j] & bit:
                continue
            dt = d_texts[j]
            d_len = len(dt)
            is_prefix = False
            if q_len < d_len:
                if dt.startswith(qt):
                    match_score = q_len
                    is_prefix = True
                elif dt.endswith(qt):
                    match_score = max(1, q_len // 2)
                else:
                    match_score = q_len * 0.6
            else:
                match_score = d_len
            st.num_prefix_suffix += match_score
            st.word_hits += 1
            st.term_matched_chars[i] += match_score
            if is_prefix:
                st.term_has_prefix[i] = True
            pos = st.d_slices[j][0]
            if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                st.term_first_pos[i] = pos
            q_active[i] = False
            d_active[j] = False
            break

    # pass 2: fuzzy prefix (Damerau ≤1 on length-window prefixes of doc token)
    for i in q_indices:
        if not q_active[i]:
            continue
        q_len = len(q_texts[i])
        if not (q_len >= 4 or (i == st.q_count - 1 and q_len >= 2)):
            continue
        credits = list(map(rel.prefix_fuzzy[i].__getitem__, d_texts))
        if not any(credits):
            continue
        for j in d_indices:
            match_score = credits[j]
            if not match_score or not d_active[j]:
                continue
            st.num_prefix_suffix += match_score
            st.word_hits += 1
            st.term_matched_chars[i] += match_score
            pos = st.d_slices[j][0]
            if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                st.term_first_pos[i] = pos
            q_active[i] = False
            d_active[j] = False
            break


def all_terms_fully_matched(st: MatchState) -> bool:
    for i in range(st.q_count):
        if st.term_max_chars[i] > 0 and st.term_matched_chars[i] < st.term_max_chars[i]:
            return False
    return True


def match_fuzzy_words(st: MatchState, setup: CoverageParams) -> None:
    """FuzzyWordMatcher.Match (FuzzyWordMatcher.cs:14-133)."""
    q_active, d_active = st.q_active, st.d_active
    max_query_length = 0
    for i in range(st.q_count):
        if q_active[i] and len(st.q_texts[i]) > max_query_length:
            max_query_length = len(st.q_texts[i])
    if max_query_length == 0:
        return

    if max_query_length >= setup.min_length_two_typos:
        max_edit_dist = 2
    elif max_query_length >= setup.min_length_one_typo:
        max_edit_dist = 1
    else:
        max_edit_dist = 0
    if max_query_length == 2 and max_edit_dist == 0 and setup.num_typos >= 1:
        max_edit_dist = 1
    if max_edit_dist > setup.num_typos:
        max_edit_dist = setup.num_typos
    if max_edit_dist == 0:
        return

    for edit_dist in range(1, max_edit_dist + 1):
        if not any(q_active):
            break
        for i in range(st.q_count):
            if not q_active[i]:
                continue
            q_len = len(st.q_texts[i])
            window = _fuzzy_window(q_len, edit_dist, setup)
            if window is None:
                continue
            table = st.rel.fuzzy(i, edit_dist, *window)
            dists = list(map(table.__getitem__, st.d_texts))
            if max(dists, default=-1) < 0:
                continue
            for j, dist in enumerate(dists):
                if dist < 0 or not d_active[j]:
                    continue
                st.word_hits += 1
                st.num_fuzzy += q_len - dist
                st.term_matched_chars[i] += q_len - dist
                pos = st.d_slices[j][0]
                if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                    st.term_first_pos[i] = pos
                q_active[i] = False
                d_active[j] = False
                break


# --- coverage scoring --------------------------------------------------------


@dataclass
class FusionSignals:
    """Precomputed lexical signals (FusionSignalComputer.cs:9-42)."""

    unfiltered_query_token_count: int = 0
    lexical_prefix_last: bool = False
    all_preceding_exact: bool = False
    is_perfect_doc_lexical: bool = False
    has_stem_evidence: bool = False
    has_anchor_stem: bool = False
    trailing_match_density: int = 0  # byte 0-255
    single_term_lexical_sim: int = 0  # byte 0-255
    single_char_last_token_boost: int = 0


@dataclass
class CoverageFeatures:
    """CoverageFeatures (CoverageFeatures.cs:3-89)."""

    coverage_score: int = 0
    terms_count: int = 0
    terms_with_any_match: int = 0
    terms_fully_matched: int = 0
    terms_strict_matched: int = 0
    terms_prefix_matched: int = 0
    first_match_index: int = -1
    sum_ci: float = 0.0
    word_hits: int = 0
    doc_token_count: int = 0
    longest_prefix_run: int = 0
    suffix_prefix_run: int = 0
    phrase_span: int = 0
    preceding_strict_count: int = 0
    last_token_has_prefix: bool = False
    last_term_ci: float = 0.0
    weighted_coverage: float = 0.0
    last_term_is_type_ahead: bool = False
    idf_coverage: float = 0.0
    total_idf: float = 0.0
    missing_idf: float = 0.0
    term_idf: list[float] | None = None  # word-level idf per token
    term_ci: list[float] | None = None
    fusion: FusionSignals = field(default_factory=FusionSignals)


def score_coverage(
    st: MatchState,
    query_len: int,
    lcs_sum: float,
    cover_whole_query: bool,
    word_level_term_idf: list[float] | None,
    features: CoverageFeatures,
) -> None:
    """CoverageScorer.CalculateFinalScore (CoverageScorer.cs:5-198); fills
    ``features`` in place."""
    q_count = st.q_count
    if not cover_whole_query:
        lcs_sum = 0.0
    num11 = st.num_joined + st.num_whole + st.num_fuzzy + st.num_prefix_suffix - st.penalty
    if num11 == 0.0 and lcs_sum > 2.0:
        num11 = lcs_sum - 2.0
    features.coverage_score = int(min(num11 / query_len * 255.0, 255.0)) & 0xFF

    sum_ci = 0.0
    weighted_coverage_sum = 0.0
    total_weight = 0.0
    idf_weighted_sum = 0.0
    total_idf = 0.0
    missing_idf = 0.0
    last_term_ci = 0.0
    last_term_idf = 0.0
    first_match_index = -1
    min_pos = None
    max_pos = -1
    term_ci_array = [0.0] * q_count if (word_level_term_idf is not None and q_count > 0) else None

    for i in range(q_count):
        if st.term_max_chars[i] <= 0:
            continue
        ci = min(1.0, st.term_matched_chars[i] / st.term_max_chars[i])
        sum_ci += ci
        if term_ci_array is not None:
            term_ci_array[i] = ci
        if ci > 0:
            features.terms_with_any_match += 1
        term_len = st.term_max_chars[i]
        total_weight += term_len
        weighted_coverage_sum += ci * term_len
        idf = st.term_idf[i]
        total_idf += idf
        idf_weighted_sum += ci * idf
        if ci < 1.0:
            missing_idf += (1.0 - ci) * idf
        if i == q_count - 1:
            last_term_ci = ci
            last_term_idf = idf
        is_fully = st.term_matched_chars[i] >= (st.term_max_chars[i] - 0.01)
        if is_fully:
            features.terms_fully_matched += 1
        if (st.term_has_whole[i] or st.term_has_joined[i]) and is_fully:
            features.terms_strict_matched += 1
        if st.term_has_prefix[i]:
            features.terms_prefix_matched += 1
        if st.term_first_pos[i] >= 0:
            if first_match_index == -1 or st.term_first_pos[i] < first_match_index:
                first_match_index = st.term_first_pos[i]
            if min_pos is None or st.term_first_pos[i] < min_pos:
                min_pos = st.term_first_pos[i]
            if st.term_first_pos[i] > max_pos:
                max_pos = st.term_first_pos[i]

    features.weighted_coverage = (
        weighted_coverage_sum / total_weight if total_weight > 0 else 0.0
    )
    features.idf_coverage = idf_weighted_sum / total_idf if total_idf > 0 else 0.0

    features.last_term_is_type_ahead = False
    if q_count > 0 and total_idf > 0:
        idf_share = last_term_idf / total_idf
        features.last_term_is_type_ahead = idf_share <= 1.0 / (q_count + 1)

    # single-term LCS boost
    if q_count == 1 and query_len > 0 and lcs_sum > 0.0:
        ci_lcs = min(1.0, lcs_sum / query_len)
        if ci_lcs > sum_ci:
            sum_ci = ci_lcs

    # longest consecutive prefix run
    current_run = 0
    for i in range(q_count):
        prefix_hit = (
            st.term_has_prefix[i] and st.term_max_chars[i] > 0 and st.term_matched_chars[i] > 0
        )
        if prefix_hit:
            current_run += 1
            if current_run > features.longest_prefix_run:
                features.longest_prefix_run = current_run
        else:
            current_run = 0

    # suffix run
    suffix_run = 0
    for i in range(q_count - 1, -1, -1):
        if st.term_has_prefix[i] and st.term_max_chars[i] > 0 and st.term_matched_chars[i] > 0:
            suffix_run += 1
        else:
            break
    features.suffix_prefix_run = suffix_run

    if min_pos is not None and max_pos >= min_pos and features.terms_with_any_match >= 2:
        features.phrase_span = (max_pos - min_pos) + 1

    if q_count >= 1:
        last_idx = q_count - 1
        features.last_token_has_prefix = (
            st.term_has_prefix[last_idx] and st.term_matched_chars[last_idx] > 0
        )
        if q_count >= 2:
            for i in range(q_count - 1):
                if (st.term_has_whole[i] or st.term_has_joined[i]) and st.term_matched_chars[
                    i
                ] >= (st.term_max_chars[i] - 0.01):
                    features.preceding_strict_count += 1

    features.terms_count = q_count
    features.first_match_index = first_match_index
    features.sum_ci = sum_ci
    features.last_term_ci = last_term_ci
    features.total_idf = total_idf
    features.missing_idf = missing_idf
    features.term_idf = word_level_term_idf
    features.term_ci = term_ci_array



# --- fusion signals ----------------------------------------------------------


def compute_fusion_signals(
    rel: TokenRelations,
    d_low: str,
    d_tokens: list[tuple[int, int]],
    d_distinct: tuple[str, ...],
    d_counts: tuple[int, ...],
    doc_first_token: str | None,
    doc_has_tokens: bool,
) -> FusionSignals:
    """FusionSignalComputer.ComputeSignals (FusionSignalComputer.cs:53-178).
    ``d_tokens`` are the doc's unfiltered (minWordSize=0) slices over the
    lowered shadow string; ``d_distinct`` their distinct texts in order of
    first occurrence, ``d_counts`` how often each occurs."""
    q_tokens, q_texts = rel.fq_slices, rel.fq_texts
    sig = FusionSignals(unfiltered_query_token_count=len(q_tokens))
    q_count, d_count = len(q_tokens), len(d_tokens)
    if q_count == 0 or d_count == 0:
        return sig
    recs = list(map(rel.tokens.__getitem__, d_distinct))
    rel_any = reduce(or_, recs, 0)

    # 1. prefix-last match
    if q_count == 1:
        b = rel.b_fstart[0]
        if rel_any & b:
            # the first doc token starting with q is a first occurrence
            k = next(k for k, r in enumerate(recs) if r & b)
            sig.lexical_prefix_last = True
            sig.all_preceding_exact = d_distinct[k] == q_texts[0]
    elif (rel_any & rel.preceding_eq) == rel.preceding_eq:
        if not q_texts[-1] or rel_any & rel.b_fstart[-1]:
            sig.lexical_prefix_last = True
            sig.all_preceding_exact = True

    # 2. perfect doc: every doc token explained by some query token
    sig.is_perfect_doc_lexical = not rel_any & rel.b_unexplained

    # 3. stem evidence (qCount >= 2)
    if q_count >= 2:
        unmatched = evidence = 0
        for i in rel.stem_terms:
            if rel_any & rel.b_fstart[i]:
                continue
            unmatched += 1
            if rel_any & rel.b_fstem[i]:
                evidence += 1
        sig.has_stem_evidence = unmatched > 0 and evidence == unmatched

    # 4. anchor stem (uses precomputed doc metadata fast path,
    #    FusionSignalComputer.cs:91-132 — including its first-token-too-short
    #    edge where no fallback scan happens)
    stem = rel.anchor
    if stem is not None:
        first = lower_1to1(doc_first_token) if doc_first_token else ""
        b = rel.b_anchor
        if doc_has_tokens and len(first) >= len(stem):
            if first.startswith(stem):
                sig.has_anchor_stem = True
            elif rel_any & b:
                # any token after the first: another distinct token, or a
                # repeat of the first one
                sig.has_anchor_stem = (
                    not recs[0] & b
                    or d_counts[0] > 1
                    or any(r & b for r in itertools.islice(recs, 1, None))
                )
        elif not doc_has_tokens:
            sig.has_anchor_stem = bool(rel_any & b)

    # 5. trailing match density (over every token occurrence)
    if rel.trail is not None and rel_any & rel.b_trail:
        b = rel.b_trail
        matchable = sum(c for r, c in zip(recs, d_counts) if r & b)
        density = matchable / d_count
        sig.trailing_match_density = int(min(max(density * 255.0, 0.0), 255.0))

    # 6. single-term lexical similarity
    if q_count == 1:
        sim = _single_term_lexical_similarity(rel, recs, d_distinct)
        sig.single_term_lexical_sim = int(min(max(sim * 255.0, 0.0), 255.0))

    # 7. single-char last token boost
    if q_count >= 2:
        sig.single_char_last_token_boost = _single_char_last_token_match(
            rel.query, d_low, q_tokens, d_tokens
        )
    return sig


def _single_char_last_token_match(q_low, d_low, q_tokens, d_tokens) -> int:
    """FusionSignalComputer.ComputeSingleCharLastTokenMatch (:180-262)."""
    q_count, d_count = len(q_tokens), len(d_tokens)
    last_off, last_len = q_tokens[-1]
    if last_len != 1:
        return 0
    target = q_low[last_off]
    if not target.isalpha():
        return 0
    d_index = 0
    first_match_index = -1
    for i in range(q_count - 1):
        off, ln = q_tokens[i]
        q_term = q_low[off : off + ln]
        found = False
        while d_index < d_count:
            doff, dln = d_tokens[d_index]
            if q_term in d_low[doff : doff + dln]:
                found = True
                if first_match_index == -1:
                    first_match_index = d_index
                break
            d_index += 1
        if not found:
            return 0
    if d_index + 1 < d_count:
        noff, nln = d_tokens[d_index + 1]
        next_term = d_low[noff : noff + nln]
        if next_term and next_term[0] == target:
            end_of_last = d_tokens[d_index][0] + d_tokens[d_index][1]
            between = d_low[end_of_last:noff]
            if all(c.isspace() for c in between):
                boost = 8 + max(0, 16 - first_match_index)
                if nln == 1:
                    boost += 4
                return boost
    return 0


def _single_term_lexical_similarity(rel: TokenRelations, recs, d_distinct) -> float:
    """FusionSignalComputer.ComputeSingleTermLexicalSimilarity (:445-568):
    the best per-token score (a max, so over distinct tokens), then the
    two-segment heuristic on the first tokens holding each fragment."""
    if rel.single is None:  # query term under 3 chars
        return 0.0
    best = max(0.0, max(map(rel.single.__getitem__, d_distinct), default=0.0))

    # two-segment heuristic: the first token position holding a fragment is
    # a first occurrence, so positions differ iff the distinct tokens do
    if rel.seg is not None:
        b_p, b_s = rel.b_seg_prefix, rel.b_seg_suffix
        prefix_index = suffix_index = -1
        for i, r in enumerate(recs):
            if prefix_index == -1 and r & b_p:
                prefix_index = i
            if suffix_index == -1 and r & b_s:
                suffix_index = i
            if prefix_index != -1 and suffix_index != -1:
                break
        if prefix_index != -1 and suffix_index != -1 and prefix_index != suffix_index:
            prefix_frag, suffix_frag = rel.seg
            q_len = len(rel.fq_texts[0])
            two_seg = min(1.0, (len(prefix_frag) + len(suffix_frag)) / q_len)
            if two_seg > best:
                best = two_seg
    return best


# --- score bound -------------------------------------------------------------

_SEMANTIC_MAX = 0.999  # fusion_calculate clamps the semantic fraction here


def coverage_tier(matched: int, total: int) -> int:
    """Multi-term coverage tier of ``matched`` of ``total`` coverage terms
    (FusionScorer.cs:60-75)."""
    if matched >= total:
        return 3
    if matched == total - 1:
        return 2
    if matched * 2 >= total:
        return 1
    return 0


@dataclass(frozen=True)
class TokenTable:
    """One segment's coverage doc tokens, query-independent, built once
    per segment (``token_table``). The lowered tokens of every chunk's
    coverage text are interned into ``vocab``; per chunk: a CSR of its
    deduped coverage token ids (``prepare_doc``'s coverage texts, in their
    order, so a chunk's first entry is its first coverage token) and of its
    distinct fusion token ids, whether its first coverage token sits at
    offset 0, its raw coverage token count, its lowered first-token
    metadata as an id into ``first_vocab`` (-1 when absent or empty), and
    the length of its coverage text (the tiebreaker's doc length)."""

    vocab: list
    cov_ptr: np.ndarray  # int32, n_chunks + 1
    cov_ids: np.ndarray  # int32
    fus_ptr: np.ndarray  # int32, n_chunks + 1
    fus_ids: np.ndarray  # int32
    at_zero: np.ndarray  # bool
    raw_count: np.ndarray  # int32
    first_ids: np.ndarray  # int32
    first_vocab: list
    text_len: np.ndarray  # int32


def token_table(texts, first_tokens, min_word_size: int, delimiters: frozenset[str]) -> TokenTable:
    """The ``TokenTable`` of chunks with coverage texts ``texts`` and
    first-token metadata ``first_tokens``. A token is a maximal run of
    non-delimiter characters of the text, as in ``tokenize_slices``."""
    run = re.compile("[^" + re.escape("".join(sorted(delimiters))) + "]+")
    index: dict[str, int] = {}
    firsts: dict[str, int] = {}
    cov_ids: list[int] = []
    fus_ids: list[int] = []
    cov_ptr, fus_ptr, at_zero, raw_count, first_ids = [0], [0], [], [], []
    for text, first in zip(texts, first_tokens):
        low = lower_1to1(text)
        spans = [m.span() for m in run.finditer(text)]
        tokens = [low[a:b] for a, b in spans]
        distinct = dict.fromkeys(tokens)
        ids = [index.setdefault(t, len(index)) for t in distinct]
        fus_ids += ids
        cov_ids += [i for t, i in zip(distinct, ids) if len(t) >= min_word_size]
        cov_ptr.append(len(cov_ids))
        fus_ptr.append(len(fus_ids))
        at_zero.append(bool(spans) and spans[0][0] == 0 and len(tokens[0]) >= min_word_size)
        raw_count.append(sum(len(t) >= min_word_size for t in tokens))
        first_ids.append(firsts.setdefault(lower_1to1(first), len(firsts)) if first else -1)
    i32 = partial(np.array, dtype=np.int32)
    return TokenTable(
        list(index), i32(cov_ptr), i32(cov_ids), i32(fus_ptr), i32(fus_ids),
        np.array(at_zero, dtype=bool), i32(raw_count), i32(first_ids), list(firsts),
        i32([len(t) for t in texts]),
    )


def _distinct(ids: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``ids`` (all in ``range(size)``), sorted."""
    seen = np.zeros(size, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def _or_masks(rel: TokenRelations, vocab, ptr, ids, lids, dtype):
    """Per chunk at ``lids``: the OR of its tokens' relation masks, from
    one CSR gather. Also returns the gathered token ids, a per-id table of
    the masks (filled for the gathered ids), each chunk's token count and
    the start of each non-empty chunk's run in the gathered ids."""
    starts = ptr[lids]
    lens = ptr[lids + 1] - starts
    at = np.cumsum(lens) - lens
    gathered = ids[np.repeat(starts - at, lens) + np.arange(int(lens.sum()))]
    distinct = _distinct(gathered, len(vocab))
    tokens = rel.tokens
    masks = np.zeros(len(vocab), dtype=dtype)
    masks[distinct] = [tokens[vocab[i]] for i in distinct.tolist()]
    runs = at[lens > 0]
    out = np.zeros(len(lids), dtype=dtype)
    if len(runs):  # an empty chunk adds no run, so each run ends at the next
        out[lens > 0] = np.bitwise_or.reduceat(masks[gathered], runs)
    return out, gathered, masks, lens, runs


def score_bounds(
    rel: TokenRelations, table: TokenTable, text_lids, first_table: TokenTable, first_lids
) -> np.ndarray:
    """Upper bounds on ``fusion_calculate``'s score, one per candidate,
    read from the token relations before any matcher runs (``rel`` built
    with the coverage setup). Candidate j's coverage text is chunk
    ``text_lids[j]`` of ``table``, and its first-token metadata is that of
    chunk ``first_lids[j]`` of ``first_table``.

    A candidate reduces to its OR'd coverage mask (plus ``b_approx[i]``
    where only a fuzzy relation can match query token i), its OR'd fusion
    mask, whether its first coverage token can match at offset 0 and its
    token count; ``rel.bounds`` maps that key to the bound
    (``_precedence_bound``). The masks are ORed per candidate in bulk:
    uint64 words when the relation bits fit, Python ints otherwise. The
    fuzzy tables are read only for the tokens of candidates that no exact
    relation explains (tests/oracle.py keeps the per-candidate form)."""
    n = len(text_lids)
    if not rel.q_texts:  # no coverage token: every feature stays 0
        return np.full(n, _SEMANTIC_MAX)
    bit = np.uint64 if rel.n_bits <= 64 else int
    dtype = np.uint64 if bit is np.uint64 else object
    lids = np.asarray(text_lids, dtype=np.int64)
    vocab = table.vocab
    cov_any, gathered, masks, lens, runs = _or_masks(
        rel, vocab, table.cov_ptr, table.cov_ids, lids, dtype
    )
    # starting at the beginning counts only with a clean (prefix) match of
    # every term, which exact relations alone give: it needs an exact
    # relation on a doc token at offset 0
    starts = table.at_zero[lids]
    starts[lens > 0] &= (masks[gathered[runs]] & bit(rel.b_match)) != 0
    for i, b in enumerate(rel.b_exact):
        need = ((cov_any & bit(b)) == 0) & (lens > 0)
        if not need.any():
            continue
        in_need = np.repeat(need, lens)
        approx = rel.approx[i]
        hit = np.zeros(len(vocab), dtype=bool)
        wanted = _distinct(gathered[in_need], len(vocab))
        hit[wanted] = [approx[vocab[t]] for t in wanted.tolist()]
        found = np.zeros(n, dtype=bool)
        found[lens > 0] = np.logical_or.reduceat(hit[gathered] & in_need, runs)
        cov_any[found] |= bit(rel.b_approx[i])
    fus_any = np.zeros(n, dtype=dtype)
    if not rel.single_term:
        fus_any = _or_masks(rel, vocab, table.fus_ptr, table.fus_ids, lids, dtype)[0]
        # the anchor stem may also come from the segment's first-token
        # metadata (FusionSignalComputer.cs:91-132)
        if rel.anchor is not None:
            first = first_table.first_ids[np.asarray(first_lids, dtype=np.int64)]
            need = ((fus_any & bit(rel.b_anchor)) == 0) & (first >= 0)
            if need.any():
                firsts = first_table.first_vocab
                stem = np.zeros(len(firsts), dtype=bool)
                wanted = _distinct(first[need], len(firsts))
                stem[wanted] = [firsts[f].startswith(rel.anchor) for f in wanted.tolist()]
                fus_any[need & stem[first]] |= bit(rel.b_anchor)
        fus_any &= bit(rel.b_fusion_bound)
    count = np.minimum(table.raw_count[lids], len(rel.q_texts) + 1)
    keys = list(zip(
        (cov_any & bit(rel.b_cov_bound)).tolist(), fus_any.tolist(), starts.tolist(), count.tolist()
    ))
    bound = {k: rel.bounds[k] for k in dict.fromkeys(keys)}
    return np.fromiter(map(bound.__getitem__, keys), dtype=float, count=n)


def _precedence_bound(rel: TokenRelations, key: tuple) -> float:
    """The bound of one candidate key (``score_bounds``). Every
    precedence bit counts as set unless the masks rule it out, and the
    semantic fraction as its clamp, 0.999. A query token can end up
    matched only through a relation in ``b_term``; each hit consumes one
    query token, so at most that many terms match and ``word_hits`` is at
    most that count too. Starting at
    the beginning needs a match on a doc token at offset 0. The fusion
    signals the precedence reads are functions of the fusion tokens' OR'd
    mask. Bit 3 (a partial match) does not rise with the matched-term
    count, so the bound takes the largest precedence over every count it
    allows."""
    cov_any, fus_any, starts, doc_token_count = key
    nc = len(rel.q_texts)
    n_possible = sum(1 for b in rel.b_term if cov_any & b)
    clean = all(cov_any & b for b in rel.b_prefix)
    if rel.single_term:
        if not n_possible:
            return _SEMANTIC_MAX
        # the single-term tier needs a clean (prefix) match
        tier = (4 if starts else 2) if clean else 0
        return float(1 << 17 | (1 << 16 if clean else 0) | tier << 3) + _SEMANTIC_MAX

    lexical_prefix_last = (fus_any & rel.preceding_eq) == rel.preceding_eq and bool(
        fus_any & rel.b_fstart[-1]
    )
    perfect = not fus_any & rel.b_unexplained
    anchor = bool(fus_any & rel.b_anchor)
    unmatched_stems = [i for i in rel.stem_terms if not fus_any & rel.b_fstart[i]]
    stem_evidence = bool(unmatched_stems) and all(
        fus_any & rel.b_fstem[i] for i in unmatched_stems
    )
    high = 0
    if cov_any & rel.b_dominant or (anchor and rel.strong_anchor):
        high |= 1 << 13
    if 0 < doc_token_count <= n_possible:  # word_hits == doc_token_count
        high |= 1 << 14
    best = 0
    for matched in range(n_possible + 1):
        complete = matched == nc
        if lexical_prefix_last:
            multi = 3 if complete else 2
        else:
            multi = 1 if perfect or anchor else 0
        prec = coverage_tier(matched, nc) << 16 | high | (1 << (multi + rel.boost_max).bit_length()) - 1
        if complete and clean and starts and lexical_prefix_last:
            prec |= 1 << 15
        # a partial match sets bit 3 on stem evidence, else only with one
        # term unmatched
        if 0 < matched < nc and (stem_evidence or matched == nc - 1):
            prec |= 8
        best = max(best, prec)
    return float(best) + _SEMANTIC_MAX


# --- query context + feature calculation -------------------------------------


@dataclass
class CoverageContext:
    """Prepared per-query state (CoverageEngine.PrepareQuery,
    CoverageEngine.cs:61-126): deduped tokens, gram-averaged idf, word idf."""

    query: str  # normalized + lowered
    tokens: list[tuple[int, int]]
    term_idf: list[float]
    term_max_chars: list[int]
    word_level_idf: list[float] | None


def gram_avg_idf(term: str, index_sizes, df_lookup, total_docs: int, stop_term_limit: int) -> float:
    """CoverageEngine.ComputeTermIdf (CoverageEngine.cs:388-427): mean BM25
    idf over the term's n-grams (no padding), fallback log2(len+1)."""
    idf_sum = 0.0
    count = 0
    for size in index_sizes:
        if len(term) < size:
            continue
        for i in range(len(term) - size + 1):
            df = int(df_lookup(term[i : i + size]) or 0)
            if 0 < df <= stop_term_limit:
                n = float(total_docs)
                ratio = (n - df + 0.5) / (df + 0.5)
                if ratio > 0:
                    idf_sum += math.log(ratio + 1.0)
                    count += 1
    if count > 0:
        return idf_sum / count
    return math.log2(len(term) + 1)


def prepare_query(
    query: str,
    min_word_size: int,
    delimiters: frozenset[str],
    index_sizes,
    df_lookup,
    word_df_lookup,
    total_docs: int,
    stop_term_limit: int,
) -> CoverageContext:
    raw = tokenize_slices(query, min_word_size, delimiters)
    tokens = dedupe_slices(raw, query)  # query already lowered
    term_idf = [
        gram_avg_idf(query[o : o + l], index_sizes, df_lookup, total_docs, stop_term_limit)
        for o, l in tokens
    ]
    term_max_chars = [l for _, l in tokens]
    word_level_idf: list[float] | None = None
    if word_df_lookup is not None and tokens:
        word_level_idf = []
        for o, l in tokens:
            df = int(word_df_lookup(query[o : o + l]) or 0)
            if 0 < df <= total_docs:
                n = float(total_docs)
                word_level_idf.append(math.log((n - df + 0.5) / (df + 0.5) + 1.0))
            else:
                word_level_idf.append(0.0)
    return CoverageContext(query, tokens, term_idf, term_max_chars, word_level_idf)



def prepare_doc(
    doc_text: str, min_word_size: int, delimiters: frozenset[str]
) -> tuple:
    """Query-independent per-document prep — computed once per doc chunk
    and cached by the query actor: the lowered shadow, the raw coverage
    token count, the deduped coverage slices and texts, the unfiltered
    fusion slices, their distinct texts (first-occurrence order) with
    occurrence counts, and the length-descending order of the coverage
    tokens (stable, as the prefix/suffix matcher scans them)."""
    d_low = lower_1to1(doc_text)
    d_raw = tokenize_slices(doc_text, min_word_size, delimiters)
    d_unique = dedupe_slices(d_raw, d_low)
    fusion_slices = tokenize_slices(doc_text, 0, delimiters)
    counts: dict[str, int] = {}
    for o, l in fusion_slices:
        t = d_low[o : o + l]
        counts[t] = counts.get(t, 0) + 1
    # coverage tokens are fusion tokens: share their string objects
    canonical = dict(zip(counts, counts))
    d_unique_texts = [canonical[d_low[o : o + l]] for o, l in d_unique]
    d_order = tuple(sorted(range(len(d_unique)), key=lambda j: -d_unique[j][1]))
    return (
        d_low, len(d_raw), d_unique, fusion_slices, d_unique_texts,
        tuple(counts), tuple(counts.values()), d_order,
    )


def calculate_features(
    ctx: CoverageContext,
    doc_text: str,
    lcs_sum: float,
    setup: CoverageParams,
    delimiters: frozenset[str],
    min_stem_length: int,
    doc_first_token: str | None = None,
    doc_has_tokens: bool = False,
    doc_prep: tuple | None = None,
    relations: TokenRelations | None = None,
) -> CoverageFeatures:
    """CoverageEngine.CalculateCoverageInternal + signal computation
    (CoverageEngine.cs:222-382). ``relations`` are the query's tables,
    shared across one call's candidates (built here when absent)."""
    features = CoverageFeatures()
    if not ctx.tokens:
        return features

    if doc_prep is None:
        doc_prep = prepare_doc(doc_text, setup.min_word_size, delimiters)
    if relations is None:
        relations = TokenRelations(ctx, delimiters, min_stem_length, setup)
    d_low, d_raw_count, d_unique, fusion_d_slices, d_texts, d_distinct, d_counts, d_order = doc_prep
    features.doc_token_count = d_raw_count

    st = MatchState(
        relations, d_unique, d_texts, d_order, ctx.term_max_chars, ctx.term_idf, d_raw_count,
    )

    if setup.cover_whole_words:
        match_whole_words(st)
    if setup.cover_joined_words and st.q_count > 0:
        match_joined_words(st)
    if setup.cover_prefix_suffix and st.q_count > 0:
        match_prefix_suffix(st)
    if setup.cover_fuzzy_words and st.q_count > 0 and not all_terms_fully_matched(st):
        match_fuzzy_words(st, setup)

    features.word_hits = st.word_hits
    score_coverage(
        st, len(ctx.query), lcs_sum, setup.cover_whole_query, ctx.word_level_idf, features
    )

    # fusion signals over UNFILTERED tokens (minWordSize=0)
    features.fusion = compute_fusion_signals(
        relations, d_low, fusion_d_slices, d_distinct, d_counts,
        doc_first_token, doc_has_tokens,
    )
    return features

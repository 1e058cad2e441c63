"""Slow sequential oracle mirroring the reference control flow literally.

Used double-entry: the Ray/numpy engine must produce identical stage-1
results. Follows SearchEngine.IndexDocuments → VectorModel.IndexDocument →
Term.FirstCycleAdd → BuildInvertedLists → SearchWithMaxScore →
TieredCandidateSelector → Bm25Scorer step by step (single segment,
field weight 1.0)."""

from __future__ import annotations

import numpy as np

from infidex_ray.analyzer import normalize, tokenize_for_indexing, tokenize_for_search
from infidex_ray.config import EngineConfig

F = np.float32
K1, B, DELTA = F(1.2), F(0.75), F(1.0)


def _lev1(a: str, b: str) -> bool:
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


class OracleTerm:
    def __init__(self):
        self.df = 0
        self.doc_ids: list[int] = []
        self.weights: list[int] = []

    def count_usage(self, stop_limit):
        if self.df == -1:
            return
        self.df += 1
        if self.df > stop_limit:
            self.df = -1

    def first_cycle_add(self, doc, stop_limit, field_weight=1.0):
        if self.df < 0:
            return
        if len(self.weights) < stop_limit:
            if not self.doc_ids or self.doc_ids[-1] != doc:
                self.doc_ids.append(doc)
                self.weights.append(int(min(round(field_weight), 255)))
            else:
                new_w = self.weights[-1] + field_weight
                if new_w <= 255:
                    self.weights[-1] = int(round(new_w))
                    self.df -= 1
        else:
            self.df = -1
            self.doc_ids.clear()
            self.weights.clear()


class OracleEngine:
    def __init__(self, cfg: EngineConfig | None = None):
        self.cfg = cfg or EngineConfig()
        self.terms: dict[str, OracleTerm] = {}
        self.doc_keys: list[int] = []
        self.texts: list[str] = []
        self.doc_len: np.ndarray | None = None
        self.avgdl = 0.0

    def index(self, docs: list[tuple[int, str]]):
        cfg = self.cfg
        for key, text in docs:
            doc_id = len(self.doc_keys)
            self.doc_keys.append(key)
            self.texts.append(text)
            itext = normalize(text).lower()
            for tok, _pos in tokenize_for_indexing(
                itext, cfg.index_sizes, cfg.start_pad_size, cfg.stop_pad_size, cfg.delimiters
            ):
                t = self.terms.setdefault(tok, OracleTerm())
                t.count_usage(cfg.stop_term_limit)
                t.first_cycle_add(doc_id, cfg.stop_term_limit)
        n = len(self.doc_keys)
        self.doc_len = np.zeros(n, dtype=np.float32)
        for t in self.terms.values():
            if t.df <= 0:
                continue
            for d, w in zip(t.doc_ids, t.weights):
                self.doc_len[d] += w
        self.avgdl = float(self.doc_len.sum() / n) if n else 0.0

    # --- query -----------------------------------------------------------
    def _idf(self, df: int) -> np.float32:
        if df <= 0:
            return F(0)
        n, d = F(len(self.doc_keys)), F(df)
        ratio = (n - d + F(0.5)) / (d + F(0.5))
        return F(np.log(ratio + F(1))) if ratio > 0 else F(0)

    def stage1(self, query: str, top_k: int):
        cfg = self.cfg
        q = normalize(query.strip()).lower()
        toks = sorted(
            tokenize_for_search(
                q, cfg.index_sizes, cfg.start_pad_size, cfg.stop_pad_size, cfg.delimiters
            )
        )
        uniq: list[str] = []
        for t in toks:
            if not uniq or uniq[-1] != t:
                uniq.append(t)
        avgdl = F(self.avgdl if self.avgdl > 0 else 1.0)
        infos = []  # (text, df, idf, max_score, docs, weights)
        for t in uniq:
            term = self.terms.get(t)
            df = term.df if term else 0
            docs, weights = (term.doc_ids, term.weights) if term else ([], [])
            if df == 0 and len(t) >= 4:
                # fuzzy LD1 union "virtual term" (VectorModel.ExpandMissingTerm)
                union = set()
                for text2, t2 in self.terms.items():
                    if t2.df > 0 and _lev1(t, text2) and text2 != t:
                        union |= set(t2.doc_ids)
                if union:
                    docs = sorted(union)
                    weights = [1] * len(docs)
                    df = len(docs)
            if df <= 0 or df > cfg.stop_term_limit:
                continue
            idf = self._idf(df)
            min_dl_norm = F(1) - B + B * (F(1) / avgdl)
            max_core = (F(255) * (K1 + F(1))) / (F(255) + K1 * min_dl_norm)
            infos.append((t, df, idf, idf * (max_core + DELTA), docs, weights))

        if not infos:
            return []
        # candidate selection
        cands = self._select(infos, top_k)
        scores: dict[int, np.float32] = {}
        for t, df, idf, ms, docs, weights in infos:
            if idf <= 0:
                continue
            wmap = dict(zip(docs, weights))
            for d in cands:
                if d in wmap:
                    tf = F(wmap[d])
                    dl = F(self.doc_len[d]) if self.doc_len[d] > 0 else F(1)
                    norm = K1 * (F(1) - B + B * (dl / avgdl))
                    core = (tf * (K1 + F(1))) / (tf + norm)
                    scores[d] = scores.get(d, F(0)) + idf * (core + DELTA)
        entries = [
            (float(s), self.doc_keys[d]) for d, s in scores.items() if s > 0
        ]
        entries.sort(key=lambda e: (-e[0], e[1]))
        return entries[:top_k]

    def _select(self, infos, top_k):
        live = [(i, set(docs)) for i, (t, df, idf, ms, docs, w) in enumerate(infos) if df > 0]
        if not live:
            return set()
        has_typo = any(infos[i][1] < 10 for i, _ in live)
        max_idf = max(float(infos[i][2]) for i, _ in live)
        if has_typo or len(infos) == 1:
            # disjunctive
            order = sorted(live, key=lambda x: -float(infos[x[0]][2]))
            union: set[int] = set()
            has_sel = False
            for i, docs in order:
                low_q = float(infos[i][2]) < max_idf * 0.2
                if len(live) > 1 and low_q and has_sel:
                    continue
                union |= docs
                if not low_q and len(union) > 0:
                    has_sel = True
                if len(union) >= top_k * 100:
                    break
            return union
        order = sorted(live, key=lambda x: -float(infos[x[0]][2]))
        out: set[int] = set()
        if len(order) >= 2:
            tier0 = set.intersection(*[d for _, d in order])
            out |= tier0
            if len(out) >= top_k * 2:
                return out
        if len(order) >= 3 and len(out) < top_k * 3:
            out |= set.intersection(*[d for _, d in order[:-1]])
        if len(out) < top_k * 5:
            cutoff = max_idf * 0.3
            sel = [x for x in order if float(infos[x[0]][2]) > 0 and float(infos[x[0]][2]) >= cutoff][:2]
            for i, docs in sel:
                out |= docs
                if len(out) >= top_k * 10:
                    break
        return out


# --- coverage cascade oracle ---------------------------------------------------
#
# The matcher cascade and the fusion signals as literal per-pair loops: every
# predicate is evaluated on every (query token, doc token) pair it reaches, in
# the reference's order. ``infidex_ray.query.coverage`` reads the same
# predicates from per-query relation tables; tests/test_coverage_kernel.py
# checks that both give identical CoverageFeatures and FusionSignals.

from infidex_ray.query.coverage import (  # noqa: E402
    CoverageFeatures,
    CoverageParams,
    FusionSignals,
    _single_char_last_token_match,
    dedupe_slices,
    lower_1to1,
    score_coverage,
    tokenize_slices,
)
from infidex_ray.query.metrics import damerau, damerau1  # noqa: E402


class MatchState:
    """Mutable state threaded through the matcher cascade (MatchState.cs)."""

    __slots__ = (
        "d_texts", "q_texts",
        "q_slices", "d_slices", "q_low", "d_low", "q_active", "d_active",
        "term_matched_chars", "term_max_chars", "term_has_whole",
        "term_has_joined", "term_has_prefix", "term_first_pos", "term_idf",
        "q_count", "d_count", "doc_token_count",
        "word_hits", "num_whole", "num_joined", "num_fuzzy",
        "num_prefix_suffix", "penalty",
    )

    def __init__(self, q_slices, d_slices, q_low, d_low, term_max_chars, term_idf, doc_token_count, d_texts=None):
        self.q_slices = q_slices
        self.d_slices = d_slices
        self.q_low = q_low
        self.d_low = d_low
        self.d_texts = (
            d_texts
            if d_texts is not None
            else [d_low[o : o + l] for o, l in d_slices]
        )
        self.q_texts = [q_low[o : o + l] for o, l in q_slices]
        self.q_count = len(q_slices)
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

    def q_text(self, i: int) -> str:
        return self.q_texts[i]

    def d_text(self, j: int) -> str:
        return self.d_texts[j]


# --- matchers (ported loops; order-dependence is part of the contract) -------


def match_whole_words(st: MatchState) -> None:
    """WholeWordMatcher.Match (WholeWordMatcher.cs:5-68)."""
    p_increment = 1 if st.q_count > 1 else 0
    for i in range(st.q_count):
        q_off, q_len = st.q_slices[i]
        qt = st.q_text(i)
        match_index = -1
        for j in range(st.d_count):
            if st.d_active[j] and st.d_slices[j][1] == q_len and st.d_text(j) == qt:
                match_index = j
                break
        if match_index == -1:
            continue
        st.word_hits += 1
        st.num_whole += q_len
        st.term_matched_chars[i] += q_len
        st.term_has_whole[i] = True
        st.term_has_prefix[i] = True
        pos = st.d_slices[match_index][0]
        if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
            st.term_first_pos[i] = pos
        # penalty: doc token at position i differs from query token i
        if st.d_count > i:
            if st.d_slices[i][1] != q_len or st.d_text(i) != qt:
                st.penalty += 1
        else:
            st.penalty += 1
        if i < st.q_count - 1:
            st.num_whole += p_increment
        st.q_active[i] = False
        st.d_active[match_index] = False


def match_joined_words(st: MatchState) -> None:
    """JoinedWordMatcher.Match (JoinedWordMatcher.cs:5-135)."""
    # query pair → single doc token
    for i in range(st.q_count - 1):
        if not st.q_active[i] or not st.q_active[i + 1]:
            continue
        next_idx = -1
        for k in range(i + 1, st.q_count):
            if st.q_active[k]:
                next_idx = k
                break
        if next_idx == -1:
            break
        q1_len = st.q_slices[i][1]
        q2_len = st.q_slices[next_idx][1]
        joined_len = q1_len + q2_len
        q1t = st.q_text(i)
        q2t = st.q_text(next_idx)
        match_index = -1
        for j in range(st.d_count):
            if st.d_active[j] and st.d_slices[j][1] == joined_len:
                dt = st.d_text(j)
                if dt.startswith(q1t) and dt.endswith(q2t):
                    match_index = j
                    break
        if match_index == -1:
            continue
        st.num_joined += joined_len
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
        st.q_active[i] = False
        st.q_active[next_idx] = False
        st.d_active[match_index] = False

    # doc pair → single query token
    for i in range(st.d_count - 1):
        if not st.d_active[i]:
            continue
        next_idx = -1
        for k in range(i + 1, st.d_count):
            if st.d_active[k]:
                next_idx = k
                break
        if next_idx == -1:
            break
        d1_len = st.d_slices[i][1]
        d2_len = st.d_slices[next_idx][1]
        joined_len = d1_len + d2_len
        d1t = st.d_text(i)
        d2t = st.d_text(next_idx)
        match_index = -1
        for j in range(st.q_count):
            if st.q_active[j] and st.q_slices[j][1] == joined_len:
                qt = st.q_text(j)
                if qt.startswith(d1t) and qt.endswith(d2t):
                    match_index = j
                    break
        if match_index == -1:
            continue
        st.num_joined += joined_len
        st.word_hits += 1
        st.term_matched_chars[match_index] += joined_len
        st.term_has_joined[match_index] = True
        st.term_has_prefix[match_index] = True
        pos = st.d_slices[i][0]
        if st.term_first_pos[match_index] == -1 or pos < st.term_first_pos[match_index]:
            st.term_first_pos[match_index] = pos
        st.q_active[match_index] = False
        st.d_active[i] = False
        st.d_active[next_idx] = False


def match_prefix_suffix(st: MatchState) -> None:
    """PrefixSuffixMatcher.Match (PrefixSuffixMatcher.cs:8-214): exact pass
    then fuzzy-prefix pass, both over length-descending active tokens
    (stable sort = reference's insertion sort)."""
    q_indices = sorted(
        (i for i in range(st.q_count) if st.q_active[i]),
        key=lambda i: -st.q_slices[i][1],
    )
    d_indices = sorted(
        (j for j in range(st.d_count) if st.d_active[j]),
        key=lambda j: -st.d_slices[j][1],
    )

    # pass 1: exact prefix / suffix / contains
    for i in q_indices:
        if not st.q_active[i]:
            continue
        q_len = st.q_slices[i][1]
        qt = st.q_text(i)
        for j in d_indices:
            if not st.d_active[j]:
                continue
            d_len = st.d_slices[j][1]
            if q_len == d_len:
                continue
            dt = st.d_text(j)
            is_match = False
            is_prefix = False
            match_score = 0.0
            if q_len < d_len:
                if dt.startswith(qt):
                    match_score = q_len
                    is_match = True
                    is_prefix = True
                elif dt.endswith(qt):
                    match_score = max(1, q_len // 2)
                    is_match = True
                elif q_len >= 4 and qt in dt:
                    match_score = q_len * 0.6
                    is_match = True
            else:
                if qt.endswith(dt):
                    match_score = d_len
                    is_match = True
            if is_match:
                st.num_prefix_suffix += match_score
                st.word_hits += 1
                st.term_matched_chars[i] += match_score
                if is_prefix:
                    st.term_has_prefix[i] = True
                pos = st.d_slices[j][0]
                if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                    st.term_first_pos[i] = pos
                st.q_active[i] = False
                st.d_active[j] = False
                break

    # pass 2: fuzzy prefix (Damerau ≤1 on length-window prefixes of doc token)
    for i in q_indices:
        if not st.q_active[i]:
            continue
        q_len = st.q_slices[i][1]
        qt = st.q_text(i)
        if not (q_len >= 4 or (i == st.q_count - 1 and q_len >= 2)):
            continue
        for j in d_indices:
            if not st.d_active[j]:
                continue
            d_len = st.d_slices[j][1]
            if q_len >= d_len:
                continue
            dt = st.d_text(j)
            is_match = False
            match_score = 0.0
            dist = damerau1(qt, dt[:q_len])
            if dist <= 1:
                match_score = max(q_len - dist, 0.1)
                is_match = True
            elif d_len > q_len:
                dist = damerau1(qt, dt[: q_len + 1])
                if dist <= 1:
                    match_score = max(q_len - dist, 0.1)
                    is_match = True
                elif q_len > 1:
                    dist = damerau1(qt, dt[: q_len - 1])
                    if dist <= 1:
                        match_score = max(q_len - 1 - dist, 0.1)
                        is_match = True
            if is_match:
                st.num_prefix_suffix += match_score
                st.word_hits += 1
                st.term_matched_chars[i] += match_score
                pos = st.d_slices[j][0]
                if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                    st.term_first_pos[i] = pos
                st.q_active[i] = False
                st.d_active[j] = False
                break


def all_terms_fully_matched(st: MatchState) -> bool:
    for i in range(st.q_count):
        if st.term_max_chars[i] > 0 and st.term_matched_chars[i] < st.term_max_chars[i]:
            return False
    return True


def match_fuzzy_words(st: MatchState, setup: CoverageParams) -> None:
    """FuzzyWordMatcher.Match (FuzzyWordMatcher.cs:14-133)."""
    max_query_length = 0
    for i in range(st.q_count):
        if st.q_active[i] and st.q_slices[i][1] > max_query_length:
            max_query_length = st.q_slices[i][1]
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
        if not any(st.q_active[: st.q_count]):
            break
        for i in range(st.q_count):
            if not st.q_active[i]:
                continue
            q_len = st.q_slices[i][1]
            if q_len < setup.min_word_size:
                continue
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
            if edit_dist > token_max_edits:
                continue
            if is_special_short and edit_dist != 1:
                continue
            min_len = max(setup.min_word_size, q_len - edit_dist)
            max_len = min(setup.levenshtein_max_word_size, q_len + edit_dist, 63)
            qt = st.q_text(i)
            for j in range(st.d_count):
                if not st.d_active[j]:
                    continue
                d_len = st.d_slices[j][1]
                if d_len > max_len or d_len < min_len:
                    continue
                dt = st.d_text(j)
                if is_special_short and (not dt or dt[0] != qt[0]):
                    continue
                dist = damerau1(qt, dt) if edit_dist == 1 else damerau(qt, dt, edit_dist)
                if dist <= edit_dist:
                    st.word_hits += 1
                    st.num_fuzzy += q_len - dist
                    st.term_matched_chars[i] += q_len - dist
                    pos = st.d_slices[j][0]
                    if st.term_first_pos[i] == -1 or pos < st.term_first_pos[i]:
                        st.term_first_pos[i] = pos
                    st.q_active[i] = False
                    st.d_active[j] = False
                    break



_ANCHOR_STEM_LENGTH = 3
_MAX_TRAILING_TERM_LENGTH = 2


def compute_fusion_signals(
    q_low: str,
    d_low: str,
    q_tokens: list[tuple[int, int]],
    d_tokens: list[tuple[int, int]],
    min_stem_length: int,
    doc_first_token: str | None,
    doc_has_tokens: bool,
    d_texts: list[str] | None = None,
    q_texts: list[str] | None = None,
) -> FusionSignals:
    """FusionSignalComputer.ComputeSignals (FusionSignalComputer.cs:53-178).
    ``q_tokens``/``d_tokens`` are unfiltered (minWordSize=0) slices over the
    lowered shadow strings."""
    sig = FusionSignals(unfiltered_query_token_count=len(q_tokens))
    q_count, d_count = len(q_tokens), len(d_tokens)
    if q_count == 0 or d_count == 0:
        return sig

    if q_texts is None:
        q_texts = [q_low[o : o + l] for o, l in q_tokens]
    if d_texts is None:
        d_texts = [d_low[o : o + l] for o, l in d_tokens]

    def qt(i):
        return q_texts[i]

    def dt(j):
        return d_texts[j]

    # 1. prefix-last match
    if q_count == 1:
        q = qt(0)
        for j in range(d_count):
            if dt(j).startswith(q):
                sig.lexical_prefix_last = True
                sig.all_preceding_exact = dt(j) == q
                break
    else:
        all_preceding_exact = True
        for i in range(q_count - 1):
            q = qt(i)
            if not q:
                continue
            if not any(dt(j) == q for j in range(d_count)):
                all_preceding_exact = False
                break
        if all_preceding_exact:
            last = qt(q_count - 1)
            if not last:
                sig.lexical_prefix_last = True
                sig.all_preceding_exact = True
            else:
                for j in range(d_count):
                    if dt(j).startswith(last):
                        sig.lexical_prefix_last = True
                        sig.all_preceding_exact = True
                        break

    # 2. perfect doc: every doc token explained by some query token
    perfect = True
    for j in range(d_count):
        d = dt(j)
        if not any(d.startswith(qt(i)) or qt(i).startswith(d) for i in range(q_count)):
            perfect = False
            break
    sig.is_perfect_doc_lexical = perfect

    # 3. stem evidence (qCount >= 2)
    if q_count >= 2:
        unmatched = evidence = 0
        for i in range(q_count):
            q = qt(i)
            if len(q) < min_stem_length:
                continue
            if any(dt(j) == q or dt(j).startswith(q) for j in range(d_count)):
                continue
            unmatched += 1
            for j in range(d_count):
                d = dt(j)
                if len(d) < min_stem_length:
                    continue
                if q.startswith(d):
                    evidence += 1
                    break
                max_check = min(len(q), len(d))
                if max_check >= min_stem_length:
                    plen = 0
                    for a, b in zip(q, d):
                        if a != b:
                            break
                        plen += 1
                    if plen >= min_stem_length:
                        evidence += 1
                        break
        sig.has_stem_evidence = unmatched > 0 and evidence == unmatched

    # 4. anchor stem (uses precomputed doc metadata fast path,
    #    FusionSignalComputer.cs:91-132 — including its first-token-too-short
    #    edge where no fallback scan happens)
    if q_count > 0 and q_tokens[0][1] >= _ANCHOR_STEM_LENGTH:
        stem = qt(0)[:_ANCHOR_STEM_LENGTH]
        first = lower_1to1(doc_first_token) if doc_first_token else ""
        if doc_has_tokens and len(first) >= len(stem):
            if first.startswith(stem):
                sig.has_anchor_stem = True
            else:
                for j in range(1, d_count):
                    d = dt(j)
                    if len(d) >= len(stem) and d.startswith(stem):
                        sig.has_anchor_stem = True
                        break
        elif not doc_has_tokens:
            for j in range(d_count):
                d = dt(j)
                if len(d) >= len(stem) and d.startswith(stem):
                    sig.has_anchor_stem = True
                    break

    # 5. trailing match density
    if q_count >= 2:
        last_len = q_tokens[-1][1]
        if 1 <= last_len <= _MAX_TRAILING_TERM_LENGTH:
            last = qt(q_count - 1)
            matchable = 0
            for j in range(d_count):
                d = dt(j)
                if d.startswith(last) or (len(d) > len(last) and last in d):
                    matchable += 1
            if matchable > 0:
                density = matchable / d_count
                sig.trailing_match_density = int(min(max(density * 255.0, 0.0), 255.0))

    # 6. single-term lexical similarity
    if q_count == 1:
        sim = _single_term_lexical_similarity(qt(0), d_low, d_tokens)
        sig.single_term_lexical_sim = int(min(max(sim * 255.0, 0.0), 255.0))

    # 7. single-char last token boost
    if q_count >= 2:
        sig.single_char_last_token_boost = _single_char_last_token_match(
            q_low, d_low, q_tokens, d_tokens
        )
    return sig


def _single_term_lexical_similarity(q: str, d_low: str, d_tokens) -> float:
    """FusionSignalComputer.ComputeSingleTermLexicalSimilarity (:445-568).
    ``q`` is already lowered."""
    q_len = len(q)
    if q_len < 3:
        return 0.0
    best = 0.0
    for off, ln in d_tokens:
        if ln < 2:
            continue
        t = d_low[off : off + ln]
        idx = q.find(t)
        if idx >= 0:
            score = (len(t) / q_len) * (1.0 - idx / q_len)
            if score > best:
                best = score
            continue
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
        combined = max(prefix_suffix_score, fuzzy_score)
        if combined > best:
            best = combined

    # two-segment heuristic
    MIN_SEG = 3
    if q_len >= 2 * MIN_SEG:
        seg_len = min(2 * MIN_SEG, q_len // 2)
        prefix_frag = q[:seg_len]
        suffix_frag = q[q_len - seg_len :]
        prefix_index = suffix_index = -1
        for i, (off, ln) in enumerate(d_tokens):
            if ln < 3:
                continue
            t = d_low[off : off + ln]
            if prefix_index == -1 and (
                t.startswith(prefix_frag) or prefix_frag.startswith(t)
            ):
                prefix_index = i
            if suffix_index == -1 and (t.endswith(suffix_frag) or suffix_frag.endswith(t)):
                suffix_index = i
            if prefix_index != -1 and suffix_index != -1:
                break
        if prefix_index != -1 and suffix_index != -1 and prefix_index != suffix_index:
            two_seg = min(1.0, (len(prefix_frag) + len(suffix_frag)) / q_len)
            if two_seg > best:
                best = two_seg
    return best


def oracle_calculate_features(
    ctx,
    doc_text: str,
    lcs_sum: float,
    setup: CoverageParams,
    delimiters: frozenset[str],
    min_stem_length: int,
    doc_first_token: str | None = None,
    doc_has_tokens: bool = False,
) -> CoverageFeatures:
    """CoverageEngine.CalculateCoverageInternal + signal computation over the
    per-pair loops above."""
    features = CoverageFeatures()
    if not ctx.tokens:
        return features

    d_low = lower_1to1(doc_text)
    d_raw = tokenize_slices(doc_text, setup.min_word_size, delimiters)
    d_unique = dedupe_slices(d_raw, d_low)
    fusion_d_slices = tokenize_slices(doc_text, 0, delimiters)
    features.doc_token_count = len(d_raw)

    st = MatchState(
        ctx.tokens, d_unique, ctx.query, d_low, ctx.term_max_chars, ctx.term_idf,
        len(d_raw),
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
    fq = tokenize_slices(ctx.query, 0, delimiters)
    features.fusion = compute_fusion_signals(
        ctx.query, d_low, fq, fusion_d_slices, min_stem_length,
        doc_first_token, doc_has_tokens,
    )
    return features


# --- per-candidate score bound (the bulk bound's oracle) ----------------------

from functools import reduce  # noqa: E402
from operator import or_  # noqa: E402

from infidex_ray.query.coverage import _SEMANTIC_MAX  # noqa: E402


def score_bound(rel, doc_prep: tuple, doc_first_token: str | None) -> float:
    """``coverage.score_bounds`` of one candidate, one token at a time: the
    OR'd coverage mask of the doc tokens in ``doc_prep``
    (``coverage.prepare_doc``), plus ``b_approx[i]`` where only a fuzzy
    relation can match query token i, the OR'd fusion mask, whether the
    first coverage token can match at offset 0 and the token count, mapped
    through ``rel.bounds``."""
    if not rel.q_texts:
        return _SEMANTIC_MAX
    tokens = rel.tokens
    d_texts = doc_prep[4]
    cov_any = reduce(or_, map(tokens.__getitem__, d_texts), 0)
    for i, b in enumerate(rel.b_exact):
        if not cov_any & b and any(map(rel.approx[i].__getitem__, d_texts)):
            cov_any |= rel.b_approx[i]
    starts = bool(d_texts) and doc_prep[2][0][0] == 0 and bool(tokens[d_texts[0]] & rel.b_match)
    fus_any = 0
    if not rel.single_term:
        fus_any = reduce(or_, map(tokens.__getitem__, doc_prep[5]), 0)
        if (
            rel.anchor is not None
            and not fus_any & rel.b_anchor
            and doc_first_token
            and lower_1to1(doc_first_token).startswith(rel.anchor)
        ):
            fus_any |= rel.b_anchor
        fus_any &= rel.b_fusion_bound
    return rel.bounds[
        (cov_any & rel.b_cov_bound, fus_any, starts, min(doc_prep[1], len(rel.q_texts) + 1))
    ]


# --- per-list posting encoder (the CSR encoder's oracle) ---------------------

import struct  # noqa: E402

from infidex_ray.segments import _FMT_V1, _HEADER, BLOCK_SIZE  # noqa: E402


def encode_postings(doc_ids: np.ndarray, weights: np.ndarray) -> bytes:
    """Encode one sorted posting list.

    Layout (v1): header(n, width, 1) | first_doc u32 | deltas (n-1)*width |
    weights n*u8 | block_max ceil(n/B)*u8 | block_anchor ceil(n/B)*u32

    ``block_anchor[j]`` is the first doc id of block j, so a reader can
    reconstruct block j alone as anchor + cumsum(deltas[jB-1+1 : ...]) —
    the skip-table advance of MMapBlockPostingsEnum.cs:6-303 without
    touching earlier blocks; ``block_max`` feeds block-max score bounds.
    """
    n = len(doc_ids)
    assert n > 0
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint32)
    weights = np.ascontiguousarray(weights, dtype=np.uint8)
    deltas = np.diff(doc_ids)
    max_delta = int(deltas.max()) if len(deltas) else 0
    if max_delta < 1 << 8:
        width, dt = 1, np.uint8
    elif max_delta < 1 << 16:
        width, dt = 2, np.uint16
    else:
        width, dt = 4, np.uint32
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    pad = n_blocks * BLOCK_SIZE - n
    wpad = np.pad(weights, (0, pad))
    block_max = wpad.reshape(n_blocks, BLOCK_SIZE).max(axis=1).astype(np.uint8)
    anchors = doc_ids[::BLOCK_SIZE].astype(np.uint32)
    parts = [
        _HEADER.pack(n, width, _FMT_V1),
        struct.pack("<I", int(doc_ids[0])),
        deltas.astype(dt).tobytes(),
        weights.tobytes(),
        block_max.tobytes(),
        anchors.tobytes(),
    ]
    return b"".join(parts)

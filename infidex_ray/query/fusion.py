"""Stage 3: fusion scoring — precedence bit-vector + semantic fraction.

Faithful port of FusionScorer.Calculate
(reference: src/Infidex/Scoring/FusionScorer.cs:19-396). This float is the
final ranking value; the bit logic is the rank-identity contract.
"""

from __future__ import annotations

from .coverage import CoverageFeatures, coverage_tier

_INTENT_BONUS_PER_SIGNAL = 0.15


def _single_term_tier(is_exact, is_clean, starts_at_beginning, is_complete) -> int:
    if not is_complete:
        return 0
    if starts_at_beginning:
        if is_exact:
            return 4
        if is_clean:
            return 3
    else:
        if is_exact:
            return 2
        if is_clean:
            return 1
    return 0


def _multi_term_tier(is_prefix_last_strong, lexical_prefix_last, is_perfect_doc, has_anchor_with_run) -> int:
    if is_prefix_last_strong:
        return 3
    if lexical_prefix_last:
        return 2
    if is_perfect_doc or has_anchor_with_run:
        return 1
    return 0


def _semantic_score(
    f: CoverageFeatures, is_single_term: bool, bm25_score: float, coverage_ratio: float
) -> float:
    """FusionScorer.ComputeSemanticScore (:313-361); the [0, 0.999] clamp
    lives in :func:`fusion_calculate`."""
    avg_ci = f.sum_ci / f.terms_count if f.terms_count > 0 else 0.0
    has_partial = 0.0 < coverage_ratio < 1.0

    if is_single_term:
        lexical_sim = f.fusion.single_term_lexical_sim / 255.0
        semantic = (avg_ci + lexical_sim) / 2.0
    elif f.doc_token_count == 0:
        semantic = avg_ci
    else:
        unmatched = f.terms_count - f.terms_with_any_match
        last_term_matched = f.last_token_has_prefix or (
            f.terms_count > 0 and f.terms_with_any_match == f.terms_count
        )
        can_use_idf = (last_term_matched or not f.last_term_is_type_ahead) and f.total_idf > 0.0
        use_idf_coverage = (
            has_partial and unmatched == 1 and can_use_idf and f.idf_coverage > coverage_ratio
        )
        base_coverage = f.idf_coverage if use_idf_coverage else avg_ci
        density = f.word_hits / f.doc_token_count
        semantic = base_coverage * density
        # intent bonus (:363-381)
        if f.terms_count >= 3:
            signals = (1 if f.fusion.has_anchor_stem else 0) + (
                1 if f.suffix_prefix_run >= 2 else 0
            )
            if signals > 0:
                semantic = min(1.0, semantic + _INTENT_BONUS_PER_SIGNAL * signals)
        # trailing term bonus (:383-396)
        if f.terms_count >= 2:
            match_density = f.fusion.trailing_match_density / 255.0
            if match_density > 0.0:
                semantic += (1.0 - semantic) * match_density

    coverage_gap = 1.0 - coverage_ratio
    if has_partial and bm25_score >= coverage_gap:
        semantic = coverage_ratio * semantic + coverage_gap * bm25_score
    return semantic


def fusion_calculate(
    query_text: str,
    document_text: str,
    f: CoverageFeatures,
    bm25_score: float,
) -> tuple[float, int]:
    """Returns (score, tiebreaker). Score = precedence integer + semantic
    fraction clamped to [0, 0.999] (FusionScorer.Calculate, :19-236)."""
    n = (
        f.fusion.unfiltered_query_token_count
        if f.fusion.unfiltered_query_token_count > 0
        else f.terms_count
    )
    is_single_term = n <= 1

    is_complete = f.terms_count > 0 and f.terms_with_any_match == f.terms_count
    is_clean = f.terms_count > 0 and f.terms_prefix_matched == f.terms_count
    is_exact = f.terms_count > 0 and f.terms_strict_matched == f.terms_count
    starts_at_beginning = f.first_match_index == 0
    lexical_prefix_last = f.fusion.lexical_prefix_last
    preceding_terms = max(0, f.terms_count - 1)
    coverage_prefix_last = (
        f.terms_count >= 1
        and f.preceding_strict_count == preceding_terms
        and f.last_token_has_prefix
    )
    is_prefix_last_strong = lexical_prefix_last and coverage_prefix_last
    is_perfect_doc = f.fusion.is_perfect_doc_lexical

    precedence = 0

    if not is_single_term and f.terms_count > 0:
        precedence |= coverage_tier(f.terms_with_any_match, f.terms_count) << 16

    is_exact_prefix = (
        not is_single_term and is_clean and starts_at_beginning and lexical_prefix_last and is_complete
    )
    is_subset_match = (
        not is_single_term and f.doc_token_count > 0 and f.word_hits == f.doc_token_count
    )
    if is_exact_prefix:
        precedence |= 1 << 15
    if is_subset_match:
        precedence |= 1 << 14

    # high-info term dominance (:88-146)
    if not is_single_term and f.terms_count >= 2:
        has_dominant_term = False
        avg_idf_for_query = 0.0
        if (
            f.term_idf is not None
            and f.term_ci is not None
            and len(f.term_idf) == f.terms_count
            and len(f.term_ci) == f.terms_count
        ):
            avg_idf_for_query = (
                f.total_idf / f.terms_count if (f.total_idf > 0.0 and f.terms_count > 0) else 0.0
            )
            for cand in range(f.terms_count):
                candidate_power = f.term_idf[cand] * f.term_ci[cand]
                if (
                    f.term_ci[cand] <= 0.1
                    or f.term_idf[cand] <= 0.0
                    or f.term_idf[cand] < avg_idf_for_query
                ):
                    continue
                other_power = sum(
                    f.term_idf[i] * f.term_ci[i] for i in range(f.terms_count) if i != cand
                )
                if candidate_power >= other_power:
                    has_dominant_term = True
                    break
        has_strong_anchor = (
            f.fusion.has_anchor_stem
            and f.term_idf is not None
            and len(f.term_idf) >= 1
            and f.term_idf[0] >= avg_idf_for_query
        )
        if has_dominant_term or has_strong_anchor:
            precedence |= 1 << 13
        unmatched = f.terms_count - f.terms_with_any_match
        if has_dominant_term and unmatched == 1:
            precedence |= 8

    if is_single_term:
        if is_complete:
            precedence |= 1 << 17
        if is_clean and f.terms_count > 0:
            precedence |= 1 << 16
        precedence |= _single_term_tier(is_exact, is_clean, starts_at_beginning, is_complete) << 3
    else:
        has_anchor_with_run = f.fusion.has_anchor_stem and f.longest_prefix_run >= 2
        multi = _multi_term_tier(
            is_prefix_last_strong, lexical_prefix_last, is_perfect_doc, has_anchor_with_run
        )
        if f.fusion.unfiltered_query_token_count > f.terms_count:
            multi += f.fusion.single_char_last_token_boost
        precedence |= multi

    coverage_ratio = f.terms_with_any_match / f.terms_count if f.terms_count > 0 else 0.0
    has_partial = 0.0 < coverage_ratio < 1.0

    if has_partial and n >= 2:
        if f.fusion.has_stem_evidence:
            precedence |= 8
        else:
            unmatched = f.terms_count - f.terms_with_any_match
            last_term_matched = f.last_token_has_prefix or (
                f.terms_count > 0 and f.terms_with_any_match == f.terms_count
            )
            can_boost = (last_term_matched or not f.last_term_is_type_ahead) and f.total_idf > 0.0
            if unmatched == 1 and can_boost:
                missing_info_ratio = f.missing_idf / f.total_idf
                term_gap = 1.0 - coverage_ratio
                if missing_info_ratio < term_gap:
                    precedence |= 8

    semantic = _semantic_score(f, is_single_term, bm25_score, coverage_ratio)
    semantic = min(max(semantic, 0.0), 0.999)

    return float(precedence) + semantic, tiebreaker(len(query_text), len(document_text), n)


def tiebreaker(query_len: int, doc_text_len: int, n: int) -> int:
    """``fusion_calculate``'s tiebreaker (the end of FusionScorer.Calculate):
    query focus on the document text, 0 for single-term queries (``n``, the
    query token count, below 2) and empty texts. It reads lengths only, so
    pruning computes it before a candidate is scored."""
    if n < 2 or doc_text_len <= 0:
        return 0
    return int(min(1.0, query_len / doc_text_len) * 255.0)

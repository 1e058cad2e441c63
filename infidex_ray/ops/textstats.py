"""Text-analysis operators for large-scale training-data pipelines.

All operators are vectorized ``map_batches`` stages over ``batch_format=
"pyarrow"`` (zero-copy from the object store) and stream end-to-end — no
driver-side materialization. They reuse the engine's analyzer chain
(normalize + delimiters) so their outputs are consistent with the index.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from . import dataflow
from ..analyzer import _word_splitter, normalize
from ..config import DEFAULT_DELIMITERS
from .asciiws import split_ascii_ws
from .dedup import round_half_up4_arr as _round4_half_up  # canonical rounding

# A small fixed English stopword list (public knowledge) for quality scoring.
STOPWORDS = frozenset(
    "a an and are as at be by for from has he in is it its of on that the to was were will with".split()
)

# Tiny deterministic stopword profiles for the language-ID heuristic.
LANG_PROFILES: dict[str, frozenset] = {
    "en": STOPWORDS,
    "de": frozenset("der die das und ist ein eine nicht mit von zu im den".split()),
    "fr": frozenset("le la les et est un une pas avec de du dans pour".split()),
    "es": frozenset("el la los las y es un una no con de del en para".split()),
    "zh": frozenset(),  # no-space script: detected by CJK codepoint ratio
}


def _norm_lower(texts: list) -> list[str]:
    return [normalize(t).lower() if t else "" for t in texts]


def token_stats_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """(doc_id, n_tokens, n_chars_norm, n_distinct_tokens, total_token_len)."""
    texts = _norm_lower(batch[text_col].to_pylist())
    splitter = _word_splitter(DEFAULT_DELIMITERS)
    n_tokens = np.zeros(len(texts), dtype=np.int64)
    n_distinct = np.zeros(len(texts), dtype=np.int64)
    n_chars = np.zeros(len(texts), dtype=np.int64)
    total_len = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        ws = [w for w in splitter.split(t) if w]
        n_tokens[i] = len(ws)
        n_distinct[i] = len(set(ws))
        n_chars[i] = len(t)
        total_len[i] = sum(len(w) for w in ws)
    return pa.table(
        {
            "doc_id": batch[id_col],
            "n_tokens": n_tokens,
            "n_chars_norm": n_chars,
            "n_distinct_tokens": n_distinct,
            "total_token_len": total_len,
        }
    )


# GPT-2-style pretokenizer pattern (public: openai/gpt-2 encoder.py), minus
# the unicode property classes and the trailing-whitespace lookahead —
# RE2 (the DuckDB oracle engine) has no lookahead, and both engines use
# leftmost-first alternation, so Python and the SQL oracle count identically.
BPE_ISH_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)
_BPE_RE = None


def token_count_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Token counting two ways: whitespace tokens and a BPE-ish regex
    pretokenization (GPT-2-style pattern) — the unit LLM data pipelines
    budget by. (doc_id, n_ws_tokens, n_bpe_tokens)."""
    global _BPE_RE
    if _BPE_RE is None:
        import re

        # re.ASCII: \s in the pattern must mean RE2's ASCII class, matching
        # the DuckDB oracle engine (see ops/asciiws.py).
        _BPE_RE = re.compile(BPE_ISH_PATTERN, re.ASCII)
    texts = batch[text_col].to_pylist()
    n_ws = np.zeros(len(texts), dtype=np.int64)
    n_bpe = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        t = t or ""
        n_ws[i] = len(split_ascii_ws(t))
        n_bpe[i] = sum(1 for _ in _BPE_RE.finditer(t))
    return pa.table(
        {"doc_id": batch[id_col], "n_ws_tokens": n_ws, "n_bpe_tokens": n_bpe}
    )


def quality_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Document quality signals: length, stopword ratio, distinct ratio.

    quality = 0.4·min(1, n_tokens/100) + 0.3·distinct_ratio + 0.3·stopword_ratio
    (a simple public-recipe web-text quality heuristic; deterministic)."""
    texts = _norm_lower(batch[text_col].to_pylist())
    splitter = _word_splitter(DEFAULT_DELIMITERS)
    n = len(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    stop_ratio = np.zeros(n, dtype=np.float64)
    distinct_ratio = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        ws = [w for w in splitter.split(t) if w]
        n_tokens[i] = len(ws)
        if ws:
            stop_ratio[i] = sum(1 for w in ws if w in STOPWORDS) / len(ws)
            distinct_ratio[i] = len(set(ws)) / len(ws)
    quality = 0.4 * np.minimum(1.0, n_tokens / 100.0) + 0.3 * distinct_ratio + 0.3 * stop_ratio
    return pa.table(
        {
            "doc_id": batch[id_col],
            "n_tokens": n_tokens,
            "stopword_ratio": _round4_half_up(stop_ratio),
            "distinct_ratio": _round4_half_up(distinct_ratio),
            "quality": _round4_half_up(quality),
        }
    )


_ALPHA_RE = None


def gopher_rules_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Gopher-style document quality rules (public recipe, Rae et al. 2021):
    word count bounds, mean word length, bullet/ellipsis line fractions,
    symbol-to-word ratio, alphabetic-word fraction — the standard web-text
    pre-filters. All signals defined on the RAW text (whitespace words,
    newline lines) so a DuckDB oracle can recompute them exactly.

    Returns (doc_id, n_words, mean_word_len, frac_bullet_lines,
    frac_ellipsis_lines, symbol_word_ratio, frac_alpha_words, passes)."""
    global _ALPHA_RE
    if _ALPHA_RE is None:
        import re

        _ALPHA_RE = re.compile(r"[A-Za-z]")
    texts = batch[text_col].to_pylist()
    n = len(texts)
    n_words = np.zeros(n, dtype=np.int64)
    mean_wl = np.zeros(n, dtype=np.float64)
    frac_bullet = np.zeros(n, dtype=np.float64)
    frac_ellipsis = np.zeros(n, dtype=np.float64)
    sym_ratio = np.zeros(n, dtype=np.float64)
    frac_alpha = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        words = split_ascii_ws(t)
        nw = len(words)
        n_words[i] = nw
        lines = t.split("\n")
        nl = len(lines)
        frac_bullet[i] = (
            sum(1 for l in lines if l.startswith("-") or l.startswith("•")) / nl
        )
        frac_ellipsis[i] = (
            sum(1 for l in lines if l.endswith("...") or l.endswith("…")) / nl
        )
        if nw:
            mean_wl[i] = sum(len(w) for w in words) / nw
            sym_ratio[i] = (t.count("#") + t.count("...")) / nw
            frac_alpha[i] = sum(1 for w in words if _ALPHA_RE.search(w)) / nw
    passes = (
        (n_words >= 50)
        & (n_words <= 100_000)
        & (mean_wl >= 3)
        & (mean_wl <= 10)
        & (frac_bullet < 0.9)
        & (frac_ellipsis < 0.3)
        & (sym_ratio < 0.1)
        & (frac_alpha >= 0.8)
    )
    from .dedup import round_half_up4_arr

    return pa.table(
        {
            "doc_id": batch[id_col],
            "n_words": n_words,
            "mean_word_len": round_half_up4_arr(mean_wl),
            "frac_bullet_lines": round_half_up4_arr(frac_bullet),
            "frac_ellipsis_lines": round_half_up4_arr(frac_ellipsis),
            "symbol_word_ratio": round_half_up4_arr(sym_ratio),
            "frac_alpha_words": round_half_up4_arr(frac_alpha),
            "passes": passes,
        }
    )


def langid_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Heuristic language ID: CJK codepoint ratio → zh, else best stopword
    profile overlap (deterministic tie-break by language code)."""
    texts = _norm_lower(batch[text_col].to_pylist())
    splitter = _word_splitter(DEFAULT_DELIMITERS)
    preds: list[str] = []
    for t in texts:
        if t and sum(1 for c in t if 0x4E00 <= ord(c) <= 0x9FFF) / max(len(t), 1) > 0.1:
            preds.append("zh")
            continue
        ws = set(w for w in splitter.split(t) if w)
        best_lang, best = "en", -1.0
        for lang in sorted(LANG_PROFILES):
            prof = LANG_PROFILES[lang]
            if not prof:
                continue
            score = len(ws & prof)
            if score > best:
                best, best_lang = score, lang
        preds.append(best_lang)
    return pa.table({"doc_id": batch[id_col], "pred_lang": pa.array(preds, pa.string())})


def fingerprint_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Content fingerprint: md5 hex of the normalized+lowered text (the
    byte-identical invariant surface — md5 so DuckDB's ``md5()`` recomputes
    it) + an order-sensitive polynomial rolling hash of the token stream,
    word hash = md5 lower half (DuckDB ``md5_number_lower``), folded as
    h = (h·BASE + wh) mod 2⁶¹−1 (SQL: ``list_reduce`` over HUGEINT)."""
    from .dedup import _md5_u64

    texts = _norm_lower(batch[text_col].to_pylist())
    splitter = _word_splitter(DEFAULT_DELIMITERS)
    content_hash: list[str] = []
    rolling = np.zeros(len(texts), dtype=np.int64)
    MOD = (1 << 61) - 1
    BASE = 1_000_003
    cache: dict[str, int] = {}
    for i, t in enumerate(texts):
        content_hash.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        h = 0
        for w in splitter.split(t):
            if not w:
                continue
            wh = cache.get(w)
            if wh is None:
                wh = cache[w] = _md5_u64(w)
            h = (h * BASE + wh) % MOD
        rolling[i] = h
    return pa.table(
        {
            "doc_id": batch[id_col],
            "content_hash": pa.array(content_hash, pa.string()),
            "rolling_hash": rolling,
        }
    )


def remove_boilerplate_lines(
    ds,
    min_docs: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """CCNet-style corpus-level line dedup (public recipe): a non-empty line
    appearing in >= ``min_docs`` DISTINCT documents is boilerplate (nav
    bars, cookie banners, footers) and is dropped from every document;
    remaining lines keep their original order ("blank" = only chars from
    ``ops/lines.BLANK_CHARS``, the exact set DuckDB ``trim(line, ...)``
    strips — bare str.strip() would also eat unicode spaces and diverge
    from the SQL oracle). Returns a Dataset of (doc_id, text).

    Delegates to the vectorized ``ops/lines.py`` engine (Arrow split +
    dictionary-encode distinct-(doc, line) partials, md5-slice-grouped
    counts — never a per-line Ray group — then one broadcast strip pass
    with ``is_in`` + ``binary_join`` reassembly; the corpus itself streams
    twice and never shuffles). The occurrence-count variant with the
    removal tally is ``ops.lines.drop_frequent_lines``."""
    from .lines import drop_frequent_lines

    cleaned = drop_frequent_lines(
        ds,
        id_col=id_col,
        text_col=text_col,
        distinct_docs=True,
        min_count=min_docs,
        skip_blank=True,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch[id_col],
                "text": batch["text"].cast(pa.large_string()),
            }
        )

    return cleaned.map_batches(project, batch_format="pyarrow")


# --- Heavy hitters -----------------------------------------------------------


def heavy_hitters(ds, k: int = 100, text_col: str = "text"):
    """Top-k most frequent whitespace tokens across the corpus.

    The combiner pattern end-to-end: each batch collapses to its distinct
    (token, n) partial counts via Arrow kernels (``utf8_lower`` ->
    ``split_pattern_regex`` -> ``value_counts``; no Python loop over rows or
    tokens), and the global sum groups by a coarse md5 SLICE of the token —
    never one Ray group per vocabulary entry (Ray's aggregate pays per
    GROUP; a web-scale vocab would hit the 29M-key groupby cliff the
    duplicate_spans rework measured) — with each slice summing its tokens
    vectorized. Shuffle volume is |vocab| × |blocks| partial rows — the
    standard word-count answer to the "the"-key skew, since the hot token
    contributes one row per block, not one per occurrence. Each slice then
    keeps only its own top-k, so the final sort+limit runs over
    ≤ k × num_slices rows, not the vocabulary.

    Token order ties break lexicographically; output order (n desc, token
    asc) matches the SQL oracle's ORDER BY so the driver's order-sensitive
    hash agrees.
    """
    import pyarrow.compute as pc

    num_slices = dataflow.num_slices()

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        tokens = vc.field("values").cast(pa.string())
        sl = dataflow.slice_of(num_slices, tokens)
        return pa.table(
            {
                "token": tokens,
                "n": vc.field("counts").cast(pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def slice_topk(group: pa.Table) -> pa.Table:
        agg = group.drop_columns(["slice"]).group_by(["token"]).aggregate(
            [("n", "sum")]
        )
        agg = agg.rename_columns(
            ["n" if c == "n_sum" else c for c in agg.column_names]
        )
        # per-slice top-k (same (n desc, token asc) order as the final cut —
        # a token outside its slice's top-k cannot be in the global top-k)
        toks = np.asarray(agg["token"].to_pylist(), dtype=object)
        ns = agg["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -ns))[:k]
        return pa.table(
            {
                "token": pa.array(toks[order], pa.string()),
                "n": pa.array(ns[order].astype(np.int64)),
            }
        )

    return (
        ds.select_columns([text_col])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_topk, batch_format="pyarrow")
        .sort(["n", "token"], descending=[True, False])
        .limit(k)
    )


def group_quantiles(
    ds, group_col: str, value_col: str, qs: tuple = (0.25, 0.5, 0.75, 0.9)
):
    """Exact per-group quantiles (linear interpolation — numpy 'linear' ==
    DuckDB ``quantile_cont``) of a numeric column, e.g. the per-language
    length deciles that quality-threshold filters cut against.

    One groupby shuffle of (group, value) pairs only; quantiles computed
    in-group with ``np.quantile``. Exactness requires a group's values to
    fit in one worker — at corpus scale where they don't, sample first
    (``ops.sampling.sample_hash`` on the value-bearing table) or bin; the
    exact path is the oracle-checkable baseline.
    """

    def agg(group: pa.Table) -> pa.Table:
        v = group[value_col].combine_chunks().to_numpy(zero_copy_only=False)
        g = group[group_col].combine_chunks().slice(0, 1)
        quo = np.quantile(v.astype(np.float64), qs, method="linear")
        cols = {
            group_col: g,
            "n": pa.array([len(v)], pa.int64()),
        }
        for q, x in zip(qs, quo):
            cols[f"q{int(round(q * 100)):02d}"] = pa.array(
                [_round4_half_up(np.asarray([x]))[0]], pa.float64()
            )
        return pa.table(cols)

    return (
        ds.select_columns([group_col, value_col])
        .groupby(group_col)
        .map_groups(agg, batch_format="pyarrow")
    )


def repetition_signals_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Within-document repetition signals (the Gopher repetition rules, Rae
    et al. 2021 Table A1, complementing :func:`gopher_rules_batch`'s
    length/format rules): duplicate-line fraction, duplicate-line CHARACTER
    fraction, and the top word-2-gram character fraction — boilerplate-y and
    looping docs score high and get filtered before training.

    Definitions (raw text, exactly mirrored by the DuckDB oracle):

    * lines = ``text.split('\n')`` with empty strings dropped;
      ``frac_dup_lines`` = (n_lines − n_distinct_lines) / n_lines;
      ``frac_dup_line_chars`` = chars in lines occurring > 1× (all
      occurrences) / chars in all non-empty lines.
    * 2-grams = adjacent whitespace-token pairs (all occurrences); the top
      gram is max by (count, then lexicographically smallest);
      ``top_2gram_frac`` = count × len(gram string) / len(text).

    Stateless map_batches — no shuffle; per-doc Counters, output one row per
    input row (zeros for empty docs)."""
    from collections import Counter

    from .dedup import round_half_up4_arr

    texts = batch[text_col].to_pylist()
    n = len(texts)
    n_lines = np.zeros(n, dtype=np.int64)
    f_dup_lines = np.zeros(n, dtype=np.float64)
    f_dup_chars = np.zeros(n, dtype=np.float64)
    top2 = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        lc = Counter(l for l in t.split("\n") if l != "")
        nl = sum(lc.values())
        n_lines[i] = nl
        if nl:
            f_dup_lines[i] = (nl - len(lc)) / nl
            tot = sum(len(l) * c for l, c in lc.items())
            if tot:
                f_dup_chars[i] = (
                    sum(len(l) * c for l, c in lc.items() if c > 1) / tot
                )
        ws = split_ascii_ws(t)
        if len(ws) >= 2:
            gc = Counter(" ".join(p) for p in zip(ws, ws[1:]))
            g, c = min(gc.items(), key=lambda kv: (-kv[1], kv[0]))
            top2[i] = c * len(g) / len(t)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_lines": n_lines,
            "frac_dup_lines": round_half_up4_arr(f_dup_lines),
            "frac_dup_line_chars": round_half_up4_arr(f_dup_chars),
            "top_2gram_frac": round_half_up4_arr(top2),
        }
    )


def repetition_signals(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset wrapper for :func:`repetition_signals_batch`."""
    import functools

    return ds.select_columns([id_col, text_col]).map_batches(
        functools.partial(
            repetition_signals_batch, id_col=id_col, text_col=text_col
        ),
        batch_format="pyarrow",
    )


def char_entropy_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Per-document Shannon character entropy (nats) — a cheap gibberish /
    binary-spill detector for web-text gating (low entropy = repeated
    padding, very high = random bytes). entropy = ln(n) − Σ c·ln(c) / n over
    codepoint counts; 0.0 for empty docs. Stateless map_batches; the DuckDB
    oracle recomputes it from ``string_split(text, '')`` counts (numpy and
    DuckDB ``ln`` agree bit-for-bit — probed)."""
    from collections import Counter

    from .dedup import round_half_up4_arr

    texts = batch[text_col].to_pylist()
    n_out = np.zeros(len(texts), dtype=np.int64)
    ent = np.zeros(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        n = len(t)
        n_out[i] = n
        if n:
            c = np.fromiter(Counter(t).values(), dtype=np.float64)
            ent[i] = np.log(float(n)) - float((c * np.log(c)).sum()) / n
    return pa.table(
        {
            id_col: batch[id_col],
            "n_chars_raw": n_out,
            "entropy": round_half_up4_arr(ent),
        }
    )


def char_entropy(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset wrapper for :func:`char_entropy_batch`."""
    import functools

    return ds.select_columns([id_col, text_col]).map_batches(
        functools.partial(char_entropy_batch, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )


def collocations(
    ds,
    min_count: int = 5,
    top_k: int = 50,
    text_col: str = "text",
):
    """Corpus-level PMI collocations: the ``top_k`` adjacent word bigrams by
    pointwise mutual information with PAIR-TABLE marginals (the
    Mikolov-style phrase-joining form): with pair count c(x,y), left/right
    marginals c(x,.)/c(.,y) and total pair count N — all derived from the
    ONE bigram table — ``pmi = ln(c(x,y) * N / (c(x,.) * c(.,y)))``. Tokens
    are case-kept ASCII-whitespace words (the RE2-``\\s`` oracle contract,
    ops/asciiws.py). Output (w1, w2, c, pmi) for pairs with
    ``c >= min_count``, ordered by (pmi DESC, w1, w2), limited to
    ``top_k``; pmi rounded half-away-from-zero to 4 decimals.

    Delegates to the vectorized ``ops/collocations.py`` engine
    (dictionary-encode + packed-code partial counts, md5-slice-grouped sums
    — never a per-bigram Ray group), ``marginals="pairs"``. The unigram-
    marginal Church-Hanks variant is ``collocations(marginals="unigrams")``
    there."""
    from .collocations import collocations as _pmi_engine

    return _pmi_engine(
        ds,
        text_col=text_col,
        min_count=min_count,
        top_n=top_k,
        marginals="pairs",
        lowercase=False,
    )


# --- script / char-class profiling -------------------------------------------

# RE2 character classes counted by script_profile. Both Arrow's
# count_substring_regex and DuckDB's regexp_extract_all run RE2, so the two
# sides are ENGINE-identical, not just pattern-identical (the same guarantee
# ops/pii.py leans on).
SCRIPT_CLASSES: tuple[tuple[str, str], ...] = (
    ("n_latin", r"[\p{Latin}]"),
    ("n_cyrillic", r"[\p{Cyrillic}]"),
    ("n_han", r"[\p{Han}]"),
    ("n_digit", "[0-9]"),
    ("n_nonascii", r"[^\x00-\x7F]"),
)


def script_profile_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Per-doc script/char-class counts — the language/script gate of a web
    curation pipeline (complements the stopword-list ``langid_batch`` for
    non-whitespace scripts where word lists do not apply). Vectorized Arrow
    RE2 kernels only; no Python row loop."""
    import pyarrow.compute as pc

    texts = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
    n_chars = pc.cast(pc.utf8_length(texts), pa.int64())
    cols: dict = {
        "doc_id": batch[id_col].cast(pa.int64()),
        "n_chars": n_chars,
    }
    for name, pat in SCRIPT_CLASSES:
        cols[name] = pc.cast(pc.count_substring_regex(texts, pat), pa.int64())
    latin = cols["n_latin"].to_numpy(zero_copy_only=False).astype(np.float64)
    total = np.maximum(n_chars.to_numpy(zero_copy_only=False), 1).astype(
        np.float64
    )
    from .dedup import round_half_up4_arr

    cols["latin_frac"] = pa.array(round_half_up4_arr(latin / total))
    return pa.table(cols)


def script_profile(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Streaming per-doc script profile: ``(doc_id, n_chars, n_latin,
    n_cyrillic, n_han, n_digit, n_nonascii, latin_frac)``."""
    return ds.map_batches(
        lambda b: script_profile_batch(b, id_col, text_col),
        batch_format="pyarrow",
    )


# --- readability --------------------------------------------------------------

# RE2 patterns shared verbatim with the DuckDB oracle (regexp_extract_all):
# words are ASCII-whitespace-delimited runs (RE2 \S is ASCII-complement —
# the ops/asciiws.py parity rule), sentences are [.!?]+ runs, "syllables"
# are vowel-group runs (the classic cheap FK syllable heuristic; vowel
# groups never span whitespace, so counting over the whole text equals the
# per-word sum).
_READ_WORD_PAT = r"\S+"
_READ_SENT_PAT = r"[.!?]+"
_READ_SYL_PAT = "[aeiouyAEIOUY]+"


def readability_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Per-doc Flesch reading-ease + Flesch–Kincaid grade via vectorized
    Arrow RE2 count kernels (engine-identical to the DuckDB oracle's
    regexp_extract_all counts). Sentence count is floored at 1 so unpunctuated
    docs still score; docs with zero words are dropped (no formula applies).
    Quality-scoring gate in the Gopher/C4 family — a readability band is a
    cheap proxy for prose vs boilerplate/code."""
    import pyarrow.compute as pc

    texts = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
    w = pc.cast(pc.count_substring_regex(texts, _READ_WORD_PAT), pa.int64())
    s = pc.cast(pc.count_substring_regex(texts, _READ_SENT_PAT), pa.int64())
    y = pc.cast(pc.count_substring_regex(texts, _READ_SYL_PAT), pa.int64())
    wn = w.to_numpy(zero_copy_only=False).astype(np.float64)
    sn = np.maximum(s.to_numpy(zero_copy_only=False), 1).astype(np.float64)
    yn = y.to_numpy(zero_copy_only=False).astype(np.float64)
    keep = wn > 0
    wn, sn, yn = wn[keep], sn[keep], yn[keep]
    from .dedup import round_half_up4_arr

    wps = wn / sn
    spw = yn / wn
    ease = 206.835 - 1.015 * wps - 84.6 * spw
    grade = 0.39 * wps + 11.8 * spw - 15.59
    mask = pa.array(keep)
    return pa.table(
        {
            "doc_id": batch[id_col].cast(pa.int64()).filter(mask),
            "n_words": w.filter(mask),
            "n_sentences": pa.array(sn.astype(np.int64)),
            "n_syllables": y.filter(mask),
            "flesch_ease": pa.array(round_half_up4_arr(ease)),
            "fk_grade": pa.array(round_half_up4_arr(grade)),
        }
    )


def readability(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Streaming per-doc readability: ``(doc_id, n_words, n_sentences,
    n_syllables, flesch_ease, fk_grade)``."""
    return ds.map_batches(
        lambda b: readability_batch(b, id_col, text_col),
        batch_format="pyarrow",
    )


# --- code detection -----------------------------------------------------------

# One RE2 pattern, anchored per line via (?m): a "code line" either starts
# with a programming keyword or ends with a brace/semicolon. Counted with
# Arrow count_substring_regex and (in the oracle) DuckDB regexp_extract_all —
# both RE2, so the two sides are engine-identical (the script_profile
# guarantee). At most one match per line (both branches are ^…$-anchored).
_CODE_LINE_PAT = (
    r"(?m)^(?:[ \t]*(?:def |class |import |from |return |function |var |const"
    r" |let |#include)[^\n]*|[^\n]*[{};][ \t]*)$"
)


def code_detect_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Per-doc code-likeness signals (the Dolma/RedPajama "code tagger"
    shape): line counts, code-looking-line counts, brace/semicolon density —
    the gate that routes prose to the text mix and code to the code mix.
    Vectorized Arrow RE2 kernels; no Python row loop, no shuffle."""
    import pyarrow.compute as pc

    texts = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
    n_lines = pc.add(
        pc.cast(pc.count_substring(texts, "\n"), pa.int64()), 1
    )
    n_code = pc.cast(pc.count_substring_regex(texts, _CODE_LINE_PAT), pa.int64())
    n_semi = pc.cast(pc.count_substring(texts, ";"), pa.int64())
    n_brace = pc.cast(pc.count_substring_regex(texts, r"[{}]"), pa.int64())
    nl = n_lines.to_numpy(zero_copy_only=False).astype(np.float64)
    nc = n_code.to_numpy(zero_copy_only=False).astype(np.float64)
    from .dedup import round_half_up4_arr

    return pa.table(
        {
            "doc_id": batch[id_col].cast(pa.int64()),
            "n_lines": n_lines,
            "n_code_lines": n_code,
            "n_semicolons": n_semi,
            "n_braces": n_brace,
            "code_frac": pa.array(round_half_up4_arr(nc / nl)),
        }
    )


def code_detect(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Streaming per-doc code-likeness: ``(doc_id, n_lines, n_code_lines,
    n_semicolons, n_braces, code_frac)``."""
    return ds.map_batches(
        lambda b: code_detect_batch(b, id_col, text_col),
        batch_format="pyarrow",
    )


def unicode_normalize_text(ds, text_col: str = "text", form: str = "NFC"):
    """Unicode-normalize a text column; appends ``norm`` (the normalized
    string) and ``changed`` (did normalization alter the string). ``NFC``
    matches DuckDB's ``nfc_normalize`` exactly (both defer to the Unicode
    normalization spec), which is what the oracle checks. Stateless
    per-batch map — normalization is inherently per-string (no Arrow
    kernel in this build), but the loop body is a single C-level
    ``unicodedata.normalize`` call per row."""
    import unicodedata

    def fn(batch: pa.Table) -> pa.Table:
        vals = batch[text_col].to_pylist()
        norm = [
            unicodedata.normalize(form, v) if v is not None else None
            for v in vals
        ]
        changed = [
            (n != v) if v is not None else None for v, n in zip(vals, norm)
        ]
        return batch.append_column(
            "norm", pa.array(norm, pa.string())
        ).append_column("changed", pa.array(changed, pa.bool_()))

    return ds.map_batches(fn, batch_format="pyarrow")


def compression_ratio(ds, text_col: str = "text", level: int = 6):
    """zlib compression ratio per document — the RefinedWeb/Gopher-style
    redundancy signal (highly repetitive machine-generated pages compress
    far below natural text). Appends ``n_bytes`` (UTF-8 length),
    ``n_compressed`` and ``ratio`` (= compressed/raw, 1.0 for empty).
    Deterministic for a fixed zlib level, but zlib is not expressible in
    SQL — pytest-locked rather than oracle-checked."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        raw_n, comp_n, ratio = [], [], []
        for v in batch[text_col].to_pylist():
            b = (v or "").encode("utf-8")
            c = len(zlib.compress(b, level))
            raw_n.append(len(b))
            comp_n.append(c)
            ratio.append(c / len(b) if b else 1.0)
        return (
            batch.append_column("n_bytes", pa.array(raw_n, pa.int64()))
            .append_column("n_compressed", pa.array(comp_n, pa.int64()))
            .append_column("ratio", pa.array(ratio, pa.float64()))
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def grouped_mad(ds, group_col: str, value_col: str):
    """Per-group robust center/spread: exact median and MAD (median of
    absolute deviations from the group median) — the outlier-resistant
    sibling of the z-score gates, e.g. per-language length cut-offs that a
    few giant pages can't drag. Same exact shape as
    :func:`group_quantiles` (one (group, value) shuffle, numpy 'linear'
    interpolation == DuckDB ``quantile_cont``/``median``); the MAD's
    ``|x − med|`` subtracts identical float64 operands on both engines, so
    the oracle matches bitwise before ROUND. Output: (group, n, median,
    mad), rounded half-away-from-zero to 4.
    """

    def agg(group: pa.Table) -> pa.Table:
        v = (
            group[value_col]
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        g = group[group_col].combine_chunks().slice(0, 1)
        med = np.quantile(v, 0.5, method="linear")
        mad = np.quantile(np.abs(v - med), 0.5, method="linear")
        return pa.table(
            {
                group_col: g,
                "n": pa.array([len(v)], pa.int64()),
                "median": pa.array(
                    [_round4_half_up(np.asarray([med]))[0]], pa.float64()
                ),
                "mad": pa.array(
                    [_round4_half_up(np.asarray([mad]))[0]], pa.float64()
                ),
            }
        )

    return (
        ds.select_columns([group_col, value_col])
        .groupby(group_col)
        .map_groups(agg, batch_format="pyarrow")
    )


def _round6(x: float) -> float:
    """Half-away-from-zero 6-dp rounding (DuckDB ROUND parity)."""
    import math

    return math.copysign(math.floor(abs(x) * 1e6 + 0.5) / 1e6, x)


def token_spectrum(ds, text_col: str = "text") -> pa.Table:
    """Corpus frequency spectrum (count-of-counts): how many distinct
    tokens occur exactly ``freq`` times — the Zipf curve LM vocabulary
    sizing reads, plus the Good-Turing adjusted count
    ``r* = (r+1)·N_{r+1}/N_r`` (Gale & Sampson 1995; NULL at spectrum
    holes), the smoothing input for unseen-mass estimation.

    Scale shape: per-batch ``value_counts`` partials → one md5 token-slice
    groupby summing per token vectorized (never one Ray group per token)
    → each slice emits its own count-of-counts partial (≤ |distinct
    freqs| rows) → the driver merges a spectrum-sized table (thousands of
    rows at any corpus size — frequencies are dense near 1 and sparse
    above). All counts exact int64; ``r*`` is one mirrored float
    expression ⇒ bitwise before ROUND(…, 6).

    Returns a pa.Table ``(freq, n_tokens, r_star)`` ordered by freq.
    """
    import pyarrow.compute as pc

    num_slices = dataflow.num_slices()

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        tokens = vc.field("values").cast(pa.string())
        sl = dataflow.slice_of(num_slices, tokens)
        return pa.table(
            {
                "token": tokens,
                "n": vc.field("counts").cast(pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def slice_spectrum(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {"freq": pa.array([], pa.int64()), "nt": pa.array([], pa.int64())}
            )
        toks = np.asarray(t["token"].to_pylist(), dtype=object)
        ns = t["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(toks, kind="stable")
        ts, nss = toks[order], ns[order]
        starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
        totals = np.add.reduceat(nss, starts)
        freqs, counts = np.unique(totals, return_counts=True)
        return pa.table(
            {
                "freq": pa.array(freqs.astype(np.int64)),
                "nt": pa.array(counts.astype(np.int64)),
            }
        )

    sp = (
        ds.select_columns([text_col])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_spectrum, batch_format="pyarrow")
        .to_pandas()  # ≤ |slices| × |distinct freqs| rows
    )
    if len(sp) == 0:
        return pa.table(
            {
                "freq": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "r_star": pa.array([], pa.float64()),
            }
        )
    agg = sp.groupby("freq", as_index=False)["nt"].sum().sort_values("freq")
    freqs = agg["freq"].to_numpy()
    nts = agg["nt"].to_numpy()
    nxt = {f: n for f, n in zip(freqs, nts)}
    r_star = [
        (
            _round6(float(f + 1) * float(nxt[f + 1]) / float(n))
            if f + 1 in nxt
            else None
        )
        for f, n in zip(freqs, nts)
    ]
    return pa.table(
        {
            "freq": pa.array(freqs.astype(np.int64)),
            "n_tokens": pa.array(nts.astype(np.int64)),
            "r_star": pa.array(r_star, pa.float64()),
        }
    )


def token_burstiness(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 2,
    num_slices: int | None = None,
):
    """Per-token burstiness (variance-to-mean ratio of the per-document
    count, zeros included): content words are bursty (they recur within
    the few docs that use them), function words are Poisson-ish — a
    classic keyword/stopword separator (Church & Gale 1995) that needs no
    language resources.

    Exactness: per-doc counts, Σc and Σc² are exact int64 (per-batch
    lexsort-run partials — one row per (batch, token), never per
    occurrence); ``n_docs`` is the corpus row count; the finish
    ``((Σc²/N) − (Σc/N)²) / (Σc/N)`` is one mirrored float expression ⇒
    bitwise before ROUND(…, 6). Output: ``(token, df, total, burstiness)``
    for tokens with ``df ≥ min_df``, a Dataset.
    """
    import pyarrow.compute as pc

    if num_slices is None:
        num_slices = dataflow.num_slices()
    n_docs = ds.count()

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern="[ \t\n\r]+"
        )
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False).astype(bool)
        words = np.asarray(flat.to_pylist(), dtype=object)[keep]
        docs = doc_idx[keep]
        if len(words) == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "sc": pa.array([], pa.int64()),
                    "sc2": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        o = np.lexsort((docs, words))
        w, d = words[o], docs[o]
        new = np.r_[True, (w[1:] != w[:-1]) | (d[1:] != d[:-1])]
        starts = np.flatnonzero(new)
        c = np.diff(np.r_[starts, len(w)])  # per-(doc, token) count
        wt = w[starts]
        new_t = np.r_[True, wt[1:] != wt[:-1]]
        tstarts = np.flatnonzero(new_t)
        df = np.diff(np.r_[tstarts, len(wt)])
        sc = np.add.reduceat(c, tstarts)
        sc2 = np.add.reduceat(c * c, tstarts)
        toks_out = wt[tstarts]
        sl = dataflow.slice_of(num_slices, toks_out)
        return pa.table(
            {
                "token": pa.array(toks_out, pa.string()),
                "df": pa.array(df.astype(np.int64)),
                "sc": pa.array(sc.astype(np.int64)),
                "sc2": pa.array(sc2.astype(np.int64)),
                "slice": pa.array(sl),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "burstiness": pa.array([], pa.float64()),
                }
            )
        toks = np.asarray(t["token"].to_pylist(), dtype=object)
        order = np.argsort(toks, kind="stable")
        ts = toks[order]
        df = t["df"].to_numpy(zero_copy_only=False)[order]
        sc = t["sc"].to_numpy(zero_copy_only=False)[order]
        sc2 = t["sc2"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
        dfm = np.add.reduceat(df, starts)
        scm = np.add.reduceat(sc, starts)
        sc2m = np.add.reduceat(sc2, starts)
        keep = dfm >= min_df
        nd = float(n_docs)
        mean = scm[keep].astype(np.float64) / nd
        exc2 = sc2m[keep].astype(np.float64) / nd
        b = (exc2 - mean * mean) / mean
        return pa.table(
            {
                "token": pa.array(ts[starts][keep], pa.string()),
                "df": pa.array(dfm[keep].astype(np.int64)),
                "total": pa.array(scm[keep].astype(np.int64)),
                "burstiness": pa.array(
                    np.copysign(np.floor(np.abs(b) * 1e6 + 0.5) / 1e6, b),
                    pa.float64(),
                ),
            }
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def ngram_diversity(
    ds,
    text_col: str = "text",
    ns: tuple = (1, 2, 3),
    num_slices: int | None = None,
):
    """Corpus diversity report: for each n in ``ns``, the total number of
    word n-grams, the EXACT distinct n-gram count and their ratio — the
    lexical-diversity curve data-quality dashboards plot (a collapsing
    distinct/total ratio at n=2..3 is the classic templated-spam tell).
    Tokens split on ASCII whitespace (RE2 ``\\S+`` parity). Output:
    ``(n, total_ngrams, distinct_ngrams, ratio)``, ratio exact-int
    division rounded to 4.

    Scale: per-batch n-gram construction is pure Arrow/numpy (token
    flatten + shifted ``binary_join_element_wise``); distinct counting
    streams per-batch DEDUPED grams through a coarse md5 gram-slice
    (one slice groupby over (n, slice), never a per-gram Ray group —
    the heavy_hitters combiner shape), totals are O(1) partials."""
    import pyarrow.compute as pc
    import ray

    if num_slices is None:
        num_slices = dataflow.num_slices()
    # dedupe: a repeated n would double-count totals (one total row per
    # occurrence per batch) while distinct merges — halving the ratio
    ns = tuple(sorted({int(n) for n in ns}))
    if not ns or any(n < 1 for n in ns):
        raise ValueError("ns must be positive ints")
    max_n = max(ns)

    def partials(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        toks = pc.split_pattern_regex(col, pattern="[\t\n\x0b\x0c\r ]+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        # per-doc token counts after dropping split-edge empties
        doc_of = np.repeat(np.arange(len(lens)), lens)[keep]
        flat = flat.filter(pa.array(keep))
        tl = np.bincount(doc_of, minlength=len(lens)) if len(doc_of) else np.zeros(len(lens), dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(tl)[:-1]]) if len(tl) else np.zeros(0, dtype=np.int64)
        pos = np.arange(len(doc_of)) - np.repeat(starts, tl)
        dlen = np.repeat(tl, tl)
        gram_rows = {"n": [], "gram": [], "slice": []}
        tot_rows = {"n": [], "t": []}
        for n in ns:
            valid = np.flatnonzero(pos + n <= dlen)
            tot_rows["n"].append(n)
            tot_rows["t"].append(len(valid))
            if len(valid) == 0:
                continue
            if n == 1:
                grams = flat.take(pa.array(valid))
            else:
                parts = [flat.take(pa.array(valid + k)) for k in range(n)]
                grams = pc.binary_join_element_wise(
                    *parts, pa.scalar(" ", pa.large_string())
                )
            uniq = grams.unique()
            sl = dataflow.slice_of(num_slices, uniq)
            gram_rows["n"].append(np.full(len(uniq), n, dtype=np.int64))
            gram_rows["gram"].append(uniq.cast(pa.large_string()))
            gram_rows["slice"].append(sl)
        # one stream: gram rows (slice ≥ 0, t null) + per-n total rows
        # (slice = -1, gram null)
        if gram_rows["n"]:
            g_n = np.concatenate(gram_rows["n"])
            g_gram = pa.concat_arrays(
                [
                    a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                    for a in gram_rows["gram"]
                ]
            )
            g_sl = np.concatenate(gram_rows["slice"])
        else:
            g_n = np.zeros(0, dtype=np.int64)
            g_gram = pa.array([], pa.large_string())
            g_sl = np.zeros(0, dtype=np.int32)
        k = len(tot_rows["n"])
        return pa.table(
            {
                "n": pa.array(
                    np.concatenate([g_n, np.asarray(tot_rows["n"], dtype=np.int64)]),
                    pa.int64(),
                ),
                "gram": pa.concat_arrays([g_gram, pa.nulls(k, pa.large_string())]),
                "slice": pa.array(
                    np.concatenate([g_sl, np.full(k, -1, dtype=np.int32)]),
                    pa.int32(),
                ),
                "t": pa.concat_arrays(
                    [
                        pa.nulls(len(g_n), pa.int64()),
                        pa.array(tot_rows["t"], pa.int64()),
                    ]
                ),
            }
        )

    src = ds.select_columns([text_col])
    stream = src.map_batches(partials, batch_format="pyarrow").materialize()

    def dedup_slice(g: pa.Table) -> pa.Table:
        nn = g["n"].to_numpy(zero_copy_only=False)
        out_n, out_c = [], []
        for n in np.unique(nn):
            sub = g.filter(pa.array(nn == n))
            out_n.append(int(n))
            out_c.append(len(sub["gram"].combine_chunks().unique()))
        return pa.table(
            {
                "n": pa.array(out_n, pa.int64()),
                "d": pa.array(out_c, pa.int64()),
            }
        )

    def _keep_grams(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b["slice"], 0)).select(
            ["n", "gram", "slice"]
        )

    def _keep_totals(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.less(b["slice"], 0)).select(["n", "t"])

    distinct = (
        stream.map_batches(_keep_grams, batch_format="pyarrow")
        .groupby(["n", "slice"])
        .map_groups(dedup_slice, batch_format="pyarrow")
        .groupby("n")
        .sum("d")
    )
    totals = (
        stream.map_batches(_keep_totals, batch_format="pyarrow")
        .groupby("n")
        .sum("t")
    )
    d_map = {int(r["n"]): int(r["sum(d)"]) for r in distinct.take_all()}
    t_map = {int(r["n"]): int(r["sum(t)"]) for r in totals.take_all()}
    rows_n = sorted(ns)
    tot = np.asarray([t_map.get(n, 0) for n in rows_n], dtype=np.int64)
    dis = np.asarray([d_map.get(n, 0) for n in rows_n], dtype=np.int64)
    ratio = np.where(tot > 0, dis / np.maximum(tot, 1), np.nan)
    from .dedup import round_half_up4_arr

    ratio = round_half_up4_arr(ratio)
    return ray.data.from_arrow(
        pa.table(
            {
                "n": pa.array(rows_n, pa.int64()),
                "total_ngrams": pa.array(tot, pa.int64()),
                "distinct_ngrams": pa.array(dis, pa.int64()),
                "ratio": pa.array(ratio, pa.float64(), mask=~(tot > 0)),
            }
        )
    )

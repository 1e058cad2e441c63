"""DuckDB oracle-SQL builders mirroring the engine's analyzer/scoring math.

These generate ANSI-ish SQL (DuckDB dialect) that recomputes, from the raw
parquet tables, exactly what the Ray pipelines compute — used by the driver's
correctness gate (__ray_entry__.oracle_sql) and by tests.
"""

from __future__ import annotations

from .analyzer import _FOLD_PAIRS
from .config import DEFAULT_DELIMITERS


def sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def delim_regex_class() -> str:
    """RE2 character class matching the engine's 22 delimiters."""
    out = []
    for c in DEFAULT_DELIMITERS:
        if c == "\t":
            out.append("\\t")
        elif c in "\\^]-[":
            out.append("\\" + c)
        else:
            out.append(c)
    return "[" + "".join(out) + "]"


def norm_expr(col: str = "text") -> str:
    """SQL expression for normalize(text).lower() (TextNormalizer semantics:
    fold diacritics, \\t\\n\\r→space, collapse space runs, then lower)."""
    fold_from = "".join(k for k, _ in _FOLD_PAIRS)
    fold_to = "".join(v for _, v in _FOLD_PAIRS)
    inner = (
        f"translate({col}, {sql_quote(fold_from)} || chr(9) || chr(10) || chr(13), "
        f"{sql_quote(fold_to)} || '   ')"
    )
    return f"lower(regexp_replace({inner}, ' {{2,}}', ' ', 'g'))"


def norm_docs_cte(table: str = "documents", id_col: str = "doc_id") -> str:
    return (
        f"norm_docs AS (SELECT {id_col} AS doc_id, {norm_expr('text')} AS norm "
        f"FROM {table})"
    )


def grams_cte() -> str:
    """3-grams over the padded normalized text (startPad=2, U+FFFF)."""
    return (
        "padded AS (SELECT doc_id, repeat(chr(65535), 2) || norm AS p FROM norm_docs), "
        "series AS (SELECT unnest(generate_series(1, (SELECT coalesce(max(length(p)),1) FROM padded))) AS i), "
        "grams AS (SELECT doc_id, substr(p, i, 3) AS term FROM padded, series "
        "WHERE i <= length(p) - 2)"
    )


def words_cte(min_len: int = 3) -> str:
    dre = sql_quote(delim_regex_class())
    return (
        f"words AS (SELECT doc_id, unnest(string_split_regex(norm, {dre})) AS term "
        f"FROM norm_docs) , words_f AS (SELECT doc_id, term FROM words "
        f"WHERE length(term) >= {min_len})"
    )


def tokens_cte() -> str:
    """All token occurrences (grams + words), mirroring tokenize_for_indexing."""
    return (
        "tokens AS (SELECT doc_id, term FROM grams UNION ALL "
        "SELECT doc_id, term FROM words_f)"
    )


def term_df_sql(table: str = "documents") -> str:
    """(term, df): distinct docs per term over grams ∪ words."""
    return (
        f"WITH {norm_docs_cte(table)}, {grams_cte()}, {words_cte()} "
        "SELECT term, count(DISTINCT doc_id) AS df FROM "
        "(SELECT doc_id, term FROM grams UNION SELECT doc_id, term FROM words_f) "
        "GROUP BY term ORDER BY term"
    )


def word_df_sql(table: str = "documents") -> str:
    """Word-level df over ALL word lengths (word-IDF cache input)."""
    dre = sql_quote(delim_regex_class())
    return (
        f"WITH {norm_docs_cte(table)}, "
        f"w AS (SELECT doc_id, unnest(string_split_regex(norm, {dre})) AS word FROM norm_docs) "
        "SELECT word, count(DISTINCT doc_id) AS df FROM w WHERE length(word) >= 1 "
        "GROUP BY word ORDER BY word"
    )


def doc_len_sql(table: str = "documents") -> str:
    """(doc_id, doc_len): #3-gram windows (= length of norm) + #words len≥3.
    Assumes no per-doc term occurrence exceeds 255 (true for this corpus;
    the engine additionally applies uint8 saturation)."""
    return (
        f"WITH {norm_docs_cte(table)}, {grams_cte()}, {words_cte()} "
        "SELECT n.doc_id AS doc_id, "
        "  (CASE WHEN length(n.norm) >= 1 THEN length(n.norm) ELSE 0 END) "
        "  + coalesce(w.cnt, 0) AS doc_len "
        "FROM norm_docs n LEFT JOIN "
        "(SELECT doc_id, count(*) AS cnt FROM words_f GROUP BY doc_id) w "
        "ON n.doc_id = w.doc_id ORDER BY doc_id"
    )


def normalize_sql(table: str = "documents") -> str:
    return (
        f"SELECT doc_id, {norm_expr('text')} AS norm_text FROM {table} ORDER BY doc_id"
    )


def ngram_jaccard_sql(
    table: str = "documents", threshold: float = 0.5, cap: int = 20
) -> str:
    """Exact Jaccard over distinct UNPADDED char 3-grams of normalize(text)
    .lower(); candidates restricted to pairs sharing a rare shingle
    (df ≤ cap) — identical semantics to ops.dedup.ngram_jaccard_pairs."""
    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
g AS (
  SELECT DISTINCT doc_id, substr(norm, i, 3) AS term
  FROM n, (SELECT unnest(generate_series(1,
        (SELECT coalesce(max(length(norm)),1) FROM n))) AS i) s
  WHERE i <= length(norm) - 2
),
sdf AS (SELECT term, count(*) AS c FROM g GROUP BY term),
rare AS (SELECT term FROM sdf WHERE c BETWEEN 2 AND {cap}),
cand AS (
  SELECT DISTINCT a.doc_id AS ia, b.doc_id AS ib
  FROM g a JOIN rare r ON a.term = r.term
  JOIN g b ON b.term = a.term AND a.doc_id < b.doc_id
),
sizes AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
inter AS (
  SELECT c.ia, c.ib, count(*) AS i
  FROM cand c
  JOIN g ga ON ga.doc_id = c.ia
  JOIN g gb ON gb.doc_id = c.ib AND gb.term = ga.term
  GROUP BY c.ia, c.ib
)
SELECT c.ia AS id_a, c.ib AS id_b,
       round(i.i::DOUBLE / (sa.sz + sb.sz - i.i), 4) AS jaccard
FROM cand c
JOIN inter i ON i.ia = c.ia AND i.ib = c.ib
JOIN sizes sa ON sa.doc_id = c.ia
JOIN sizes sb ON sb.doc_id = c.ib
WHERE i.i::DOUBLE / (sa.sz + sb.sz - i.i) >= {threshold}
ORDER BY id_a, id_b
"""


def ngram_containment_sql(
    table: str = "documents", threshold: float = 0.8, cap: int = 20
) -> str:
    """Containment |A∩B|/min(|A|,|B|) over distinct unpadded char 3-grams;
    same rare-shingle candidate restriction as ngram_jaccard_sql — identical
    semantics to ops.dedup.ngram_containment_pairs."""
    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
g AS (
  SELECT DISTINCT doc_id, substr(norm, i, 3) AS term
  FROM n, (SELECT unnest(generate_series(1,
        (SELECT coalesce(max(length(norm)),1) FROM n))) AS i) s
  WHERE i <= length(norm) - 2
),
sdf AS (SELECT term, count(*) AS c FROM g GROUP BY term),
rare AS (SELECT term FROM sdf WHERE c BETWEEN 2 AND {cap}),
cand AS (
  SELECT DISTINCT a.doc_id AS ia, b.doc_id AS ib
  FROM g a JOIN rare r ON a.term = r.term
  JOIN g b ON b.term = a.term AND a.doc_id < b.doc_id
),
sizes AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
inter AS (
  SELECT c.ia, c.ib, count(*) AS i
  FROM cand c
  JOIN g ga ON ga.doc_id = c.ia
  JOIN g gb ON gb.doc_id = c.ib AND gb.term = ga.term
  GROUP BY c.ia, c.ib
)
SELECT c.ia AS id_a, c.ib AS id_b,
       round(i.i::DOUBLE / least(sa.sz, sb.sz), 4) AS containment
FROM cand c
JOIN inter i ON i.ia = c.ia AND i.ib = c.ib
JOIN sizes sa ON sa.doc_id = c.ia
JOIN sizes sb ON sb.doc_id = c.ib
WHERE i.i::DOUBLE / least(sa.sz, sb.sz) >= {threshold}
ORDER BY id_a, id_b
"""


def word_shingles_cte(table: str = "documents") -> str:
    """CTEs ``n``/``w``/``wsh``: distinct word 3-gram shingles of the
    normalized text, with the short-doc contract (0 < words < 3 → one
    whole-doc shingle) — mirrors ops.dedup.word_shingles/_shingle_hashes."""
    dre = sql_quote(delim_regex_class())
    return f"""
n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
w AS (SELECT doc_id, list_filter(string_split_regex(norm, {dre}), x -> x != '') AS ws FROM n),
wsh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS s
  FROM w, (SELECT unnest(generate_series(1, (SELECT coalesce(max(len(ws)),1) FROM w))) AS i) ser
  WHERE len(ws) >= 3 AND i <= len(ws) - 2
  UNION
  SELECT doc_id, array_to_string(ws, ' ') AS s FROM w WHERE len(ws) BETWEEN 1 AND 2
)"""


def word_jaccard_pairs_core(table: str = "documents", threshold: float = 0.5) -> str:
    """CTE chain ending in ``wjp`` = (id_a, id_b, jaccard) — ALL pairs with
    exact word-3-gram Jaccard ≥ threshold. Oracle for minhash_lsh_pairs: the
    LSH candidate stage has ≈ 1 − (1 − j⁴)³² recall (≥ 1 − 1e-15 at the
    j ≥ 0.9 pairs this corpus contains), and the op's exact-jaccard verify
    makes its output identical to this ground truth."""
    return f"""
{word_shingles_cte(table)},
wsizes AS (SELECT doc_id, count(*) AS sz FROM wsh GROUP BY doc_id),
winter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
  FROM wsh a JOIN wsh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
),
wjp AS (
  SELECT i.ia AS id_a, i.ib AS id_b,
         round(i.i::DOUBLE / (sa.sz + sb.sz - i.i), 4) AS jaccard
  FROM winter i
  JOIN wsizes sa ON sa.doc_id = i.ia
  JOIN wsizes sb ON sb.doc_id = i.ib
  WHERE i.i::DOUBLE / (sa.sz + sb.sz - i.i) >= {threshold}
)"""


def minhash_pairs_sql(table: str = "documents", threshold: float = 0.5) -> str:
    return (
        f"WITH {word_jaccard_pairs_core(table, threshold)} "
        "SELECT id_a, id_b, jaccard FROM wjp ORDER BY id_a, id_b"
    )


def dedup_corpus_minhash_sql(table: str = "documents", threshold: float = 0.5) -> str:
    """Connected components over the exact word-shingle Jaccard pairs via a
    recursive transitive closure; keep each component's min doc_id plus all
    unpaired docs — mirrors minhash pairs → union-find → dedup_corpus."""
    return f"""
WITH RECURSIVE {word_jaccard_pairs_core(table, threshold)},
edges AS (
  SELECT id_a AS src, id_b AS dst FROM wjp
  UNION SELECT id_b, id_a FROM wjp
),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
rep AS (SELECT src AS node, min(dst) AS mn FROM reach GROUP BY src)
SELECT doc_id FROM {table}
WHERE doc_id NOT IN (SELECT node FROM rep WHERE mn < node)
ORDER BY doc_id
"""


def simhash_pairs_sql(table: str = "documents", max_hamming: int = 3) -> str:
    """SimHash Hamming-distance pairs recomputed from scratch: distinct char
    3-grams (whole-text shingle when len < 3), gram hash = md5_number_lower
    (bit-identical to ops.dedup._md5_u64), per-bit majority vote, then
    all-pairs Hamming ≤ max_hamming. The op's 4-block pigeonhole bucketing
    finds every such pair (3 differing bits leave ≥ 1 of 4 16-bit blocks
    identical), so the outputs coincide whenever no bucket exceeds the
    op's size cap (always true at the driver's scale)."""
    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
g AS (
  SELECT DISTINCT doc_id, substr(norm, i, 3) AS gram
  FROM n, (SELECT unnest(generate_series(1, (SELECT coalesce(max(length(norm)),1) FROM n))) AS i) s
  WHERE length(norm) >= 3 AND i <= length(norm) - 2
  UNION
  SELECT doc_id, norm AS gram FROM n WHERE length(norm) BETWEEN 1 AND 2
),
gh AS (SELECT doc_id, md5_number_lower(gram) AS h FROM g),
cnt AS (SELECT doc_id, count(*) AS ng FROM gh GROUP BY doc_id),
votes AS (
  SELECT gh.doc_id, bs.b, sum(((gh.h >> bs.b) & 1)::BIGINT) AS ones
  FROM gh, (SELECT unnest(generate_series(0, 63)) AS b) bs
  GROUP BY gh.doc_id, bs.b
),
bits AS (
  SELECT v.doc_id, v.b,
         CASE WHEN 2 * v.ones > c.ng THEN 1 ELSE 0 END AS bit
  FROM votes v JOIN cnt c ON c.doc_id = v.doc_id
),
allbits AS (
  SELECT n.doc_id, bs.b, coalesce(bt.bit, 0) AS bit
  FROM n CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) bs
  LEFT JOIN bits bt ON bt.doc_id = n.doc_id AND bt.b = bs.b
),
ham AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         sum(CASE WHEN a.bit != b.bit THEN 1 ELSE 0 END)::INT AS hamming
  FROM allbits a JOIN allbits b ON a.b = b.b AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT id_a, id_b, hamming FROM ham WHERE hamming <= {max_hamming}
ORDER BY id_a, id_b
"""


def langid_sql(table: str = "documents") -> str:
    """Stopword-profile argmax language ID (ops.textstats.langid_batch): CJK
    codepoint ratio > 0.1 → zh; else first language in (de, en, es, fr)
    alphabetical order achieving the max distinct-stopword overlap — the
    Python loop initializes best = −1 and takes strictly-greater, so ties go
    to the alphabetically-first profile."""
    from .ops.textstats import LANG_PROFILES

    dre = sql_quote(delim_regex_class())

    def lst(lang: str) -> str:
        return "[" + ", ".join(sql_quote(w) for w in sorted(LANG_PROFILES[lang])) + "]"

    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
w AS (SELECT doc_id, list_distinct(list_filter(string_split_regex(norm, {dre}), x -> x != '')) AS ws FROM n),
s AS (
  SELECT n.doc_id,
    CASE WHEN length(n.norm) > 0 AND
         length(regexp_replace(n.norm, '[^\\x{{4e00}}-\\x{{9fff}}]', '', 'g'))::DOUBLE
           / greatest(length(n.norm), 1) > 0.1
         THEN TRUE ELSE FALSE END AS is_cjk,
    len(list_intersect(w.ws, {lst('de')})) AS s_de,
    len(list_intersect(w.ws, {lst('en')})) AS s_en,
    len(list_intersect(w.ws, {lst('es')})) AS s_es,
    len(list_intersect(w.ws, {lst('fr')})) AS s_fr
  FROM n JOIN w ON n.doc_id = w.doc_id)
SELECT doc_id,
  CASE WHEN is_cjk THEN 'zh'
       WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
       WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
       WHEN s_es >= s_fr THEN 'es'
       ELSE 'fr' END AS pred_lang
FROM s ORDER BY doc_id
"""


def fingerprint_sql(table: str = "documents") -> str:
    """Content fingerprints (ops.textstats.fingerprint_batch): md5 hex of
    the normalized text + the order-sensitive polynomial rolling hash over
    md5_number_lower word hashes, folded in HUGEINT mod 2^61−1."""
    dre = sql_quote(delim_regex_class())
    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
w AS (SELECT doc_id, list_filter(string_split_regex(norm, {dre}), x -> x != '') AS ws FROM n),
r AS (
  SELECT doc_id,
         list_reduce(
           list_prepend(0::HUGEINT,
                        list_transform(ws, x -> md5_number_lower(x)::HUGEINT)),
           (acc, x) -> (acc * 1000003 + x) % 2305843009213693951) AS rh
  FROM w)
SELECT n.doc_id, md5(n.norm) AS content_hash, coalesce(r.rh, 0)::BIGINT AS rolling_hash
FROM n JOIN r ON n.doc_id = r.doc_id ORDER BY n.doc_id
"""


def embedding_lsh_pairs_sql(
    dim: int = 64,
    threshold: float = 0.4,
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 42,
    table: str = "embeddings",
) -> str:
    """Oracle for ops.dedup.embedding_dup_pairs_lsh: the seeded hyperplanes
    are inlined as literal DOUBLE vectors (deterministic — same RandomState
    stream as the op), buckets recomputed per (table, vec) via sign bits of
    the raw inner product (sign(raw·p) == sign(normalized·p)), candidate
    pairs share a (table, bucket), verified by exact cosine ≥ threshold."""
    from .ops.similarity import _hyperplanes

    rows = []
    for t in range(n_tables):
        pl = _hyperplanes(dim, n_bits, seed + t)
        for b in range(n_bits):
            vec = "[" + ", ".join(repr(float(v)) for v in pl[b]) + "]::DOUBLE[]"
            rows.append(f"({t}, {b}, {vec})")
    values = ",\n".join(rows)
    return f"""
WITH planes(t, bit, vec) AS (VALUES {values}),
b AS (
  SELECT e.vec_id, p.t,
         sum(CASE WHEN list_inner_product(e.embedding::DOUBLE[], p.vec) > 0
                  THEN (1::BIGINT << p.bit) ELSE 0 END) AS bucket
  FROM {table} e CROSS JOIN planes p GROUP BY e.vec_id, p.t
),
cand AS (
  SELECT DISTINCT a.vec_id AS id_a, b2.vec_id AS id_b
  FROM b a JOIN b b2 ON a.t = b2.t AND a.bucket = b2.bucket AND a.vec_id < b2.vec_id
)
SELECT c.id_a, c.id_b,
       round(list_cosine_similarity(ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]), 4) AS cosine
FROM cand c
JOIN {table} ea ON ea.vec_id = c.id_a
JOIN {table} eb ON eb.vec_id = c.id_b
WHERE list_cosine_similarity(ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]) >= {threshold}
ORDER BY id_a, id_b
"""


def lsh_knn_sql(
    query_vec,
    k: int = 10,
    n_bits: int = 12,
    seed: int = 42,
    table: str = "embeddings",
) -> str:
    """Oracle for ops.similarity.lsh_knn with a CONSTANT query vector: the
    seeded hyperplanes are inlined, the query's bucket (and its Hamming-1
    multiprobe acceptance) is precomputed here, docs bucket via sign bits of
    the raw inner product (sign-equal to the op's normalized dot), and the
    accepted set is ranked by exact cosine desc, vec_id asc."""
    import numpy as np

    from .ops.similarity import _hyperplanes

    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    planes = _hyperplanes(len(q), n_bits, seed)
    qn = q / (np.linalg.norm(q) or 1.0)
    qb = int((( (qn @ planes.T) > 0) @ (1 << np.arange(n_bits))).astype(np.int64))
    rows = []
    for b in range(n_bits):
        vec = "[" + ", ".join(repr(float(v)) for v in planes[b]) + "]::DOUBLE[]"
        rows.append(f"({b}, {vec})")
    values = ",\n".join(rows)
    qvec = "[" + ", ".join(repr(float(v)) for v in q) + "]::DOUBLE[]"
    return f"""
WITH planes(bit, vec) AS (VALUES {values}),
b AS (
  SELECT e.vec_id,
         sum(CASE WHEN list_inner_product(e.embedding::DOUBLE[], p.vec) > 0
                  THEN (1::BIGINT << p.bit) ELSE 0 END) AS bucket
  FROM {table} e CROSS JOIN planes p GROUP BY e.vec_id
),
acc AS (
  SELECT e.vec_id,
         list_cosine_similarity(e.embedding::DOUBLE[], {qvec}) AS cos
  FROM {table} e JOIN b ON b.vec_id = e.vec_id
  WHERE bit_count(xor(b.bucket, {qb}::BIGINT)) <= 1
)
SELECT 0::INT AS query_idx,
       row_number() OVER (ORDER BY cos DESC, vec_id) AS rank,
       vec_id,
       round(cos, 4) AS cosine
FROM acc
ORDER BY cos DESC, vec_id
LIMIT {k}
"""


def quality_sql(table: str = "documents") -> str:
    """DuckDB oracle for ops.textstats.quality_batch: token counts over the
    normalized word split, stopword/distinct ratios, and the composite
    quality = 0.4·min(1, n_tokens/100) + 0.3·distinct_ratio + 0.3·stop_ratio
    (same left-to-right float64 accumulation order as the numpy side)."""
    from .ops.textstats import STOPWORDS

    dre = sql_quote(delim_regex_class())
    stoplist = ", ".join(sql_quote(w) for w in sorted(STOPWORDS))
    return f"""
WITH n AS (SELECT doc_id, {norm_expr('text')} AS norm FROM {table}),
w AS (SELECT doc_id, unnest(string_split_regex(norm, {dre})) AS w FROM n),
wf AS (SELECT doc_id, w FROM w WHERE length(w) >= 1),
s AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT w) AS n_distinct,
         sum(CASE WHEN w IN ({stoplist}) THEN 1 ELSE 0 END) AS n_stop
  FROM wf GROUP BY doc_id)
SELECT n.doc_id,
  coalesce(s.n_tokens, 0) AS n_tokens,
  round(coalesce(s.n_stop::DOUBLE / s.n_tokens, 0.0), 4) AS stopword_ratio,
  round(coalesce(s.n_distinct::DOUBLE / s.n_tokens, 0.0), 4) AS distinct_ratio,
  round(0.4 * least(1.0, coalesce(s.n_tokens, 0) / 100.0)
      + 0.3 * coalesce(s.n_distinct::DOUBLE / s.n_tokens, 0.0)
      + 0.3 * coalesce(s.n_stop::DOUBLE / s.n_tokens, 0.0), 4) AS quality
FROM n LEFT JOIN s ON n.doc_id = s.doc_id
ORDER BY n.doc_id
"""


def _sql_idf(n: str, df: str) -> str:
    """Float64 BM25 idf with the engine's clamp (``engine.bm25_idf``): 0
    when df exceeds the doc count, never a negative or undefined log."""
    return (
        f"CASE WHEN {n} - {df} + 0.5 > 0 "
        f"THEN ln(({n} - {df} + 0.5) / ({df} + 0.5) + 1.0) ELSE 0.0 END"
    )


def bm25_sql(query_tokens: list[str], table: str = "documents") -> str:
    """Full-corpus disjunctive BM25+ scores for a fixed token multiset
    (float64; the engine's oracle entry scores in float64 too)."""
    vals = ", ".join(f"({sql_quote(t)})" for t in sorted(set(query_tokens)))
    return f"""
WITH {norm_docs_cte(table)}, {grams_cte()}, {words_cte()}, {tokens_cte()},
qterms(term) AS (VALUES {vals}),
occ AS (
  SELECT t.doc_id, t.term, count(*) AS occ FROM tokens t
  JOIN qterms q ON t.term = q.term GROUP BY t.doc_id, t.term
),
alltok AS (SELECT doc_id, count(*) AS n_tok FROM tokens GROUP BY doc_id),
doclen AS (
  SELECT n.doc_id, coalesce(a.n_tok, 0)::DOUBLE AS dl
  FROM norm_docs n LEFT JOIN alltok a ON n.doc_id = a.doc_id
),
corpus AS (
  SELECT count(*)::DOUBLE AS n, (SELECT avg(dl) FROM doclen) AS avgdl FROM norm_docs
),
df AS (
  SELECT t.term, count(DISTINCT t.doc_id)::DOUBLE AS df FROM tokens t
  JOIN qterms q ON t.term = q.term GROUP BY t.term
),
scored AS (
  SELECT o.doc_id,
    sum(
      {_sql_idf("c.n", "df.df")} *
      ( (least(o.occ, 255)::DOUBLE * 2.2)
        / (least(o.occ, 255)::DOUBLE
           + 1.2 * (0.25 + 0.75 * (CASE WHEN d.dl <= 0 THEN 1.0 ELSE d.dl END) / c.avgdl))
        + 1.0 )
    ) AS score
  FROM occ o
  JOIN df ON o.term = df.term
  JOIN doclen d ON o.doc_id = d.doc_id
  CROSS JOIN corpus c
  GROUP BY o.doc_id
)
SELECT doc_id, round(score, 4) AS score FROM scored WHERE score > 0 ORDER BY doc_id
"""


def _stage1_query_ctes(
    prefix: str,
    query_text: str,
    tokens: list[str],
    top_k: int,
    coverage_depth: int,
    stop_term_limit: int,
) -> tuple[str, str]:
    """Per-query CTE block for :func:`stage1_topk_sql` — mirrors the full
    stage-1 plan pipeline (query/stage1.py: prepare_query_terms →
    build_plan → decide_level → phase_b) in SQL:

    * term stats: df over the shared ``occ`` postings; terms absent from
      the dictionary (df=0, len ≥ 4) expand to their LD1 virtual term
      (DuckDB ``levenshtein`` == the engine's no-transposition ``_lev1``
      on this ASCII corpus; tf=1, df = distinct-doc union — fuzzy_union,
      stage1.py:558);
    * plan: idf-desc term order (ties by term asc = Python's stable sort
      over the sorted token list), disjunctive mode iff any df < 10 or a
      single term (build_plan:177), included ranks r=0 ∨ idf ≥ 0.2·max,
      selective ranks = first two with idf ≥ 0.3·max;
    * level: decide_level's cutoffs with top_k = coverage_depth
      (Engine.search_ex passes coverage_depth into stage1);
    * candidates: nested-set membership by level (t0 = all-terms
      intersection, t1 = all-but-last, then selective unions —
      _candidate_sets, stage1.py:629);
    * scoring: BM25+ over ALL plan terms in float64; rank order
      ``CAST(score AS FLOAT) DESC, doc_id ASC`` — the engine accumulates
      float32, so ties are resolved at float32 granularity.

    Returns (ctes_sql, final_select_name)."""
    p = prefix
    vals = ", ".join(f"({sql_quote(t)})" for t in sorted(set(tokens)))
    cd = coverage_depth
    ctes = f"""
{p}qt(term) AS (VALUES {vals}),
{p}exact AS (
  SELECT q.term, count(o.doc_id) AS df
  FROM {p}qt q LEFT JOIN occ o ON o.term = q.term GROUP BY q.term),
{p}fzn AS (
  SELECT e.term, v.term AS vterm FROM {p}exact e JOIN vocab v
    ON v.term <> e.term AND levenshtein(e.term, v.term) <= 1
  WHERE e.df = 0 AND length(e.term) >= 4),
{p}fzdocs AS MATERIALIZED (
  SELECT f.term, o.doc_id FROM {p}fzn f JOIN occ o ON o.term = f.vterm
  GROUP BY f.term, o.doc_id),
{p}fzdf AS (SELECT term, count(*) AS df FROM {p}fzdocs GROUP BY term),
{p}ts AS (
  SELECT t.term, t.df, t.is_fuzzy,
         {_sql_idf("c.n", "t.df")} AS idf
  FROM (
    SELECT e.term,
           CASE WHEN e.df > 0 THEN e.df ELSE coalesce(f.df, 0) END AS df,
           (e.df = 0) AS is_fuzzy
    FROM {p}exact e LEFT JOIN {p}fzdf f USING (term)
  ) t CROSS JOIN corpus c
  WHERE t.df > 0 AND t.df <= {stop_term_limit}),
{p}ord AS (
  SELECT term, df, is_fuzzy, idf,
         row_number() OVER (ORDER BY idf DESC, term ASC) AS r FROM {p}ts),
{p}meta AS (
  SELECT count(*) AS n, max(idf) AS midf,
         max(CASE WHEN df < 10 THEN 1 ELSE 0 END) AS typo FROM {p}ts),
{p}sel AS (
  SELECT o.r, row_number() OVER (ORDER BY o.r) AS si
  FROM {p}ord o, {p}meta m WHERE o.idf > 0 AND o.idf >= m.midf * 0.3
  QUALIFY si <= 2),
{p}tp AS MATERIALIZED (
  SELECT o.r, o.idf, oc.doc_id, least(oc.tf, 255)::DOUBLE AS tf
  FROM {p}ord o JOIN occ oc ON oc.term = o.term WHERE NOT o.is_fuzzy
  UNION ALL
  SELECT o.r, o.idf, fd.doc_id, 1.0::DOUBLE AS tf
  FROM {p}ord o JOIN {p}fzdocs fd ON fd.term = o.term WHERE o.is_fuzzy),
{p}inc AS (
  SELECT o.r, row_number() OVER (ORDER BY o.r) AS ii
  FROM {p}ord o, {p}meta m
  WHERE o.r = 1 OR m.n = 1 OR o.idf >= m.midf * 0.2),
{p}dmin AS (
  SELECT tp.doc_id, min(i.ii) AS ii
  FROM {p}tp tp JOIN {p}inc i ON i.r = tp.r GROUP BY tp.doc_id),
{p}dcum AS (
  SELECT ii, sum(count(*)) OVER (ORDER BY ii) AS cum
  FROM {p}dmin GROUP BY ii),
{p}dlvl AS (
  SELECT coalesce((SELECT min(ii) FROM {p}dcum WHERE cum >= {100 * cd}),
                  (SELECT count(*) FROM {p}inc)) AS lvl),
{p}dst AS (
  SELECT dr.doc_id, count(*) AS nm,
         count(*) FILTER (WHERE dr.r < m.n) AS nm1,
         max(CASE WHEN dr.r = (SELECT min(r) FROM {p}sel WHERE si = 1)
             THEN 1 ELSE 0 END) AS in_s1,
         max(CASE WHEN dr.r = (SELECT min(r) FROM {p}sel WHERE si = 2)
             THEN 1 ELSE 0 END) AS in_s2
  FROM (SELECT DISTINCT doc_id, r FROM {p}tp) dr, {p}meta m
  GROUP BY dr.doc_id, m.n),
{p}tc AS (
  SELECT
    count(*) FILTER (WHERE nm = m.n) AS c0,
    count(*) FILTER (WHERE nm = m.n OR (m.n >= 3 AND nm1 = m.n - 1)) AS c1,
    count(*) FILTER (WHERE nm = m.n OR (m.n >= 3 AND nm1 = m.n - 1)
                     OR in_s1 = 1) AS c2
  FROM {p}dst, {p}meta m GROUP BY m.n),
{p}tlvl AS (
  SELECT CASE
    WHEN m.n >= 2 AND t.c0 >= {2 * cd} THEN 1
    WHEN (CASE WHEN m.n >= 3 AND t.c0 < {3 * cd} THEN t.c1 ELSE t.c0 END)
           < {5 * cd}
         AND (SELECT count(*) FROM {p}sel) > 0
      THEN CASE WHEN (SELECT count(*) FROM {p}sel) > 1
                     AND t.c2 < {10 * cd} THEN 4 ELSE 3 END
    ELSE CASE WHEN m.n >= 3 AND t.c0 < {3 * cd} THEN 2 ELSE 1 END
  END AS lvl
  FROM {p}tc t, {p}meta m),
{p}cand AS (
  SELECT d.doc_id FROM {p}dmin d, {p}meta m, {p}dlvl l
  WHERE (m.typo = 1 OR m.n = 1) AND d.ii <= l.lvl
  UNION
  SELECT d.doc_id FROM {p}dst d, {p}meta m, {p}tlvl l
  WHERE NOT (m.typo = 1 OR m.n = 1) AND (
    d.nm = m.n
    OR (l.lvl >= 2 AND m.n >= 3 AND d.nm1 = m.n - 1)
    OR (l.lvl >= 3 AND d.in_s1 = 1)
    OR (l.lvl >= 4 AND d.in_s2 = 1))),
{p}sc AS (
  SELECT tp.doc_id,
    sum(tp.idf * ((tp.tf * 2.2) / (tp.tf + 1.2 * (0.25 + 0.75 *
        (CASE WHEN d.dl <= 0 THEN 1.0 ELSE d.dl END) / c.avgdl)) + 1.0))
      AS score
  FROM {p}tp tp JOIN {p}cand cd ON cd.doc_id = tp.doc_id
  JOIN doclen d ON d.doc_id = tp.doc_id CROSS JOIN corpus c
  GROUP BY tp.doc_id),
{p}top AS (
  SELECT {sql_quote(query_text)} AS query,
    row_number() OVER (ORDER BY CAST(score AS FLOAT) DESC, doc_id ASC)
      AS rank,
    doc_id, round(score, 4) AS score
  FROM {p}sc WHERE score > 0 QUALIFY rank <= {top_k})
"""
    return ctes.strip(), f"{p}top"


def stage1_topk_sql(
    panel: list[tuple[str, list[str]]],
    table: str = "documents",
    top_k: int = 10,
    coverage_depth: int = 500,
    stop_term_limit: int = 1_250_000,
    shared_ctes: str | None = None,
) -> str:
    """Full stage-1 BM25+ top-k oracle for a panel of (query_text,
    tokens) pairs — the SQL mirror of ``Engine.search(q, top_k,
    enable_coverage=False)``. See :func:`_stage1_query_ctes` for the
    plan-pipeline mirror; shared postings/doclen/corpus CTEs are computed
    once for the whole panel. ``shared_ctes`` overrides the standard
    single-field pipeline with a caller-supplied ``WITH …`` prefix that
    must define ``occ(doc_id, term, tf)``, ``vocab(term)``,
    ``doclen(doc_id, dl)`` and ``corpus(n, avgdl)`` — the fielded oracle
    (:func:`fielded_shared_ctes`) uses this to swap in weighted-tf
    postings."""
    if shared_ctes is not None:
        shared = shared_ctes
    else:
        shared = (
        # MATERIALIZED: every query block references occ/vocab/doclen —
        # without the hint DuckDB re-inlines the whole tokens pipeline at
        # each reference (measured 40 s → ~2 s at sf0.01 for a 5-query
        # panel)
        f"WITH {norm_docs_cte(table)}, {grams_cte()}, {words_cte()}, "
        f"{tokens_cte()}, "
        "occ AS MATERIALIZED (SELECT doc_id, term, least(count(*), 255) "
        "AS tf FROM tokens GROUP BY doc_id, term), "
        "vocab AS MATERIALIZED (SELECT DISTINCT term FROM tokens), "
        "alltok AS (SELECT doc_id, count(*) AS n_tok FROM tokens "
        "GROUP BY doc_id), "
        "doclen AS MATERIALIZED (SELECT n.doc_id, "
        "coalesce(a.n_tok, 0)::DOUBLE AS dl "
        "FROM norm_docs n LEFT JOIN alltok a ON n.doc_id = a.doc_id), "
        "corpus AS MATERIALIZED (SELECT count(*)::DOUBLE AS n, "
        "(SELECT avg(dl) FROM doclen) AS avgdl FROM norm_docs)"
    )
    blocks, finals = [], []
    for qi, (qtext, toks) in enumerate(panel):
        ctes, final = _stage1_query_ctes(
            f"q{qi}_", qtext, toks, top_k, coverage_depth, stop_term_limit
        )
        blocks.append(ctes)
        finals.append(f"SELECT * FROM {final}")
    return (
        shared
        + ",\n"
        + ",\n".join(blocks)
        + "\n"
        + "\nUNION ALL\n".join(finals)
        + "\nORDER BY query, rank"
    )


def autocomplete_sql(
    query: str,
    table: str = "documents",
    candidate_chars: int = 32,
    prefix_bonus: float = 0.1,
) -> str:
    """Oracle for ops.autocomplete.autocomplete_score: the Hyyrö
    bit-parallel LCS automaton run as a recursive CTE — per candidate
    character, ``S = ((S + (S & cm)) | (S - (S & cm))) & mask`` with the
    query's char→bitmap baked as a CASE (chars ≥ U+0100 map to 0, the
    reference's ASCII-optimized map). Query must be ≤ 62 chars so all
    state fits BIGINT with no overflow; lcs = bit_count(mask XOR S).
    Score = the same float64 expression order as the batch kernel."""
    q = query.lower()
    m = len(q)
    if not (0 < m <= 62):
        raise ValueError("query must be 1..62 chars for the BIGINT automaton")
    amap: dict[str, int] = {}
    for i, ch in enumerate(q):
        if ord(ch) < 256:
            amap[ch] = amap.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    arms = " ".join(
        f"WHEN {sql_quote(ch)} THEN {bm}" for ch, bm in sorted(amap.items())
    )
    cm = f"CASE substr(cand, r.j + 1, 1) {arms} ELSE 0 END"
    pb = float(prefix_bonus)
    qlit = sql_quote(q)
    return f"""
WITH RECURSIVE c AS (
  SELECT doc_id, lower(substr(coalesce(text, ''), 1, {candidate_chars})) AS cand
  FROM {table}),
cl AS (SELECT doc_id, cand, length(cand) AS L FROM c),
auto(doc_id, j, S) AS (
  SELECT doc_id, 0, {mask} FROM cl
  UNION ALL
  SELECT r.doc_id, r.j + 1,
         ((r.S + u.u) | (r.S - u.u)) & {mask}
  FROM auto r JOIN cl ON cl.doc_id = r.doc_id
  CROSS JOIN LATERAL (SELECT r.S & ({cm}) AS u) u
  WHERE r.j < cl.L),
fin AS (
  SELECT a.doc_id, bit_count(CAST(xor(a.S, {mask}) AS BIGINT)) AS lcs
  FROM auto a JOIN cl ON cl.doc_id = a.doc_id WHERE a.j = cl.L),
pref AS (
  SELECT cl.doc_id, coalesce(max(g.k), 0) AS prefix
  FROM cl LEFT JOIN (SELECT unnest(generate_series(1, {m})) AS k) g
    ON g.k <= cl.L AND substr(cl.cand, 1, g.k) = substr({qlit}, 1, g.k)
  GROUP BY cl.doc_id)
SELECT cl.doc_id, fin.lcs, pref.prefix,
  CASE WHEN fin.lcs = 0 OR cl.L = 0 THEN 0.0 ELSE
    round(least(greatest(
      (CAST(0.5 AS DOUBLE) * fin.lcs * (fin.lcs / CAST({m} AS DOUBLE)
        + fin.lcs / CAST(cl.L AS DOUBLE))
       + CAST({pb} AS DOUBLE) * pref.prefix)
      / greatest(least(CAST({m} AS DOUBLE), CAST(cl.L AS DOUBLE))
                 + CAST({pb} AS DOUBLE) * least(CAST(4.0 AS DOUBLE),
                     least(CAST({m} AS DOUBLE),
                           CAST(cl.L AS DOUBLE))), CAST(1.0 AS DOUBLE)),
    0.0), 1.0), 4)
  END AS score
FROM cl JOIN fin USING (doc_id) JOIN pref USING (doc_id)
ORDER BY cl.doc_id
"""


def fielded_shared_ctes(
    concats: list[str],
    l1s: list[int],
    w_title: int,
    w_body: int,
    table: str = "documents",
) -> str:
    """Shared-CTE override for :func:`stage1_topk_sql` mirroring a planted
    MULTIFIELD corpus (title weight ``w_title``, body weight ``w_body``,
    both integers so Term.FirstCycleAdd's banker's-rounding accumulation
    is exact integer addition). Per doc: text = concats[doc_id %
    len(concats)] || ' q' || doc_id, with field-boundary raw position
    l1s[doc_id % len] + 1 (concats must carry the same modulus).

    The caller must supply ``concats`` as the synonym-CANONICAL form of
    the CONCATENATED '§'-joined field text (build canonicalizes AFTER
    concatenation, build.py:106-109 — a synonym glued across '§' never
    canonicalizes) and ``l1s`` as the PRE-canonicalization title lengths
    (concat_fields computes boundaries over the raw text, so
    canonicalization shifts token positions relative to the boundary —
    the DetermineFieldWeight skew quirk, ported as-is).

    Mirrored semantics (analyzer.py): '§' is NOT a delimiter, so grams
    and words cross the boundary; token position = PADDED-text index for
    grams / start_pad + raw offset for words vs RAW boundary positions
    (field_weight_at); per-term tf = integer sum of per-occurrence field
    weights; doc length = total weighted token mass (build.py:122-130
    fielded branch)."""
    if len(concats) != len(l1s):
        raise ValueError("concats and l1s must share one modulus")

    def case_str(col: str, opts: list[str]) -> str:
        arms = " ".join(
            f"WHEN {i} THEN {sql_quote(s)}" for i, s in enumerate(opts)
        )
        return f"CASE {col} % {len(opts)} {arms} END"

    def case_int(col: str, opts: list[int]) -> str:
        arms = " ".join(f"WHEN {i} THEN {int(v)}" for i, v in enumerate(opts))
        return f"CASE {col} % {len(opts)} {arms} END"

    wT, wB = int(w_title), int(w_body)
    return f"""
WITH cat AS MATERIALIZED (
  SELECT doc_id,
         {case_str('doc_id', concats)} || ' q' || CAST(doc_id AS VARCHAR) AS t,
         {case_int('doc_id', l1s)} AS l1
  FROM {table}),
fpad AS (SELECT doc_id, repeat(chr(65535), 2) || t AS p, l1 FROM cat),
fser AS (SELECT unnest(generate_series(1,
         (SELECT coalesce(max(length(p)), 1) FROM fpad))) AS i),
gtok AS (
  SELECT doc_id, substr(p, i, 3) AS term,
         CASE WHEN i - 1 >= l1 + 1 THEN {wB} ELSE {wT} END AS wt
  FROM fpad, fser WHERE i <= length(p) - 2),
wsplit AS (
  SELECT doc_id, l1, unnest(string_split(t, ' ')) AS w,
         generate_subscripts(string_split(t, ' '), 1) AS k FROM cat),
wtok AS (
  SELECT doc_id, w AS term,
         CASE WHEN 2 + off0 >= l1 + 1 THEN {wB} ELSE {wT} END AS wt
  FROM (
    SELECT doc_id, l1, w,
           coalesce(sum(length(w) + 1) OVER (PARTITION BY doc_id ORDER BY k
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off0
    FROM wsplit)
  WHERE length(w) >= 3),
emis AS MATERIALIZED (
  SELECT * FROM gtok UNION ALL SELECT * FROM wtok),
occ AS MATERIALIZED (
  SELECT doc_id, term, least(sum(wt), 255) AS tf FROM emis
  GROUP BY doc_id, term),
vocab AS MATERIALIZED (SELECT DISTINCT term FROM occ),
doclen AS MATERIALIZED (
  SELECT c.doc_id, coalesce(e.dl, 0)::DOUBLE AS dl
  FROM cat c LEFT JOIN (SELECT doc_id, sum(wt) AS dl FROM emis
                        GROUP BY doc_id) e ON e.doc_id = c.doc_id),
corpus AS MATERIALIZED (
  SELECT count(*)::DOUBLE AS n, (SELECT avg(dl) FROM doclen) AS avgdl
  FROM cat)"""


def curate_webtext_sql(
    table: str = "documents",
    langs: tuple = ("en",),
    min_quality: float = 0.3,
    minhash_threshold: float = 0.5,
    chunk_words: int = 32,
    pack_capacity: int = 128,
    decontam_n: int = 3,
    num_buckets: int = 16,
) -> str:
    """End-to-end oracle for ``pipelines.curate_webtext`` on the mod-97
    corpus/bench split (bench = doc_id % 97 = 0, like the decontaminate
    entry): langid ∈ langs + quality floor + Gopher gate → exact text
    dedup (min-id survivor) → MinHash near-dedup (exact word-shingle
    Jaccard ground truth + recursive-CTE transitive closure, the
    dedup_corpus oracle) → word-``decontam_n``-gram decontamination →
    disjoint ``chunk_words`` chunking → greedy first-fit packing in
    (doc_id, chunk_id) order (the pack_sequences lock-step recursion).
    Gate comparisons use the UNROUNDED float64 expressions — bitwise
    mirrors of the batch kernels (same accumulation order)."""
    from .ops.textstats import LANG_PROFILES, STOPWORDS

    dre = sql_quote(delim_regex_class())
    stoplist = ", ".join(sql_quote(w) for w in sorted(STOPWORDS))
    lang_set = ", ".join(sql_quote(lg) for lg in sorted(set(langs)))

    def lst(lang: str) -> str:
        return "[" + ", ".join(sql_quote(w) for w in sorted(LANG_PROFILES[lang])) + "]"

    cw = int(chunk_words)
    cap = int(pack_capacity)
    gn = int(decontam_n)
    return f"""
WITH RECURSIVE
corpus0 AS MATERIALIZED (SELECT doc_id, text FROM {table} WHERE doc_id % 97 <> 0),
-- fused row-local gate: langid + quality + gopher (unrounded mirrors)
gnorm AS MATERIALIZED (SELECT doc_id, {norm_expr('text')} AS norm, coalesce(text, '') AS t FROM corpus0),
gw AS (SELECT doc_id, list_filter(string_split_regex(norm, {dre}), x -> x != '') AS ws FROM gnorm),
lid AS (
  SELECT doc_id,
    CASE WHEN is_cjk THEN 'zh'
         WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
         WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
         WHEN s_es >= s_fr THEN 'es'
         ELSE 'fr' END AS pred_lang
  FROM (
    SELECT n.doc_id,
      CASE WHEN length(n.norm) > 0 AND
           length(regexp_replace(n.norm, '[^\\x{{4e00}}-\\x{{9fff}}]', '', 'g'))::DOUBLE
             / greatest(length(n.norm), 1) > 0.1
           THEN TRUE ELSE FALSE END AS is_cjk,
      len(list_intersect(d.dws, {lst('de')})) AS s_de,
      len(list_intersect(d.dws, {lst('en')})) AS s_en,
      len(list_intersect(d.dws, {lst('es')})) AS s_es,
      len(list_intersect(d.dws, {lst('fr')})) AS s_fr
    FROM gnorm n JOIN (SELECT doc_id, list_distinct(ws) AS dws FROM gw) d
      ON d.doc_id = n.doc_id)),
qual AS (
  SELECT g.doc_id,
    0.4 * least(1.0, coalesce(s.n_tokens, 0) / 100.0)
      + 0.3 * coalesce(s.n_distinct::DOUBLE / s.n_tokens, 0.0)
      + 0.3 * coalesce(s.n_stop::DOUBLE / s.n_tokens, 0.0) AS quality
  FROM gnorm g LEFT JOIN (
    SELECT doc_id, count(*) AS n_tokens, count(DISTINCT w) AS n_distinct,
           sum(CASE WHEN w IN ({stoplist}) THEN 1 ELSE 0 END) AS n_stop
    FROM (SELECT doc_id, unnest(ws) AS w FROM gw)
    WHERE length(w) >= 1 GROUP BY doc_id
  ) s ON g.doc_id = s.doc_id),
gop AS (
  SELECT doc_id,
    (n_words >= 50 AND n_words <= 100000 AND mean_word_len >= 3
     AND mean_word_len <= 10 AND frac_bullet_lines < 0.9
     AND frac_ellipsis_lines < 0.3 AND symbol_word_ratio < 0.1
     AND frac_alpha_words >= 0.8) AS passes
  FROM (
    SELECT doc_id,
      len(words) AS n_words,
      CASE WHEN len(words) = 0 THEN 0.0
           ELSE length(regexp_replace(t, '\\s', '', 'g'))::DOUBLE / len(words) END AS mean_word_len,
      len(list_filter(lines, l -> l LIKE '-%' OR l LIKE '•%'))::DOUBLE / len(lines) AS frac_bullet_lines,
      len(list_filter(lines, l -> l LIKE '%...' OR l LIKE '%…'))::DOUBLE / len(lines) AS frac_ellipsis_lines,
      CASE WHEN len(words) = 0 THEN 0.0
           ELSE ((length(t) - length(replace(t, '#', '')))
               + (length(t) - length(replace(t, '...', ''))) / 3)::DOUBLE / len(words) END AS symbol_word_ratio,
      CASE WHEN len(words) = 0 THEN 0.0
           ELSE len(list_filter(words, w -> regexp_matches(w, '[A-Za-z]')))::DOUBLE / len(words) END AS frac_alpha_words
    FROM (SELECT doc_id, t, regexp_extract_all(t, '\\S+') AS words,
                 string_split(t, chr(10)) AS lines FROM gnorm))),
gated AS MATERIALIZED (
  SELECT c.doc_id, c.text FROM corpus0 c
  JOIN lid ON lid.doc_id = c.doc_id
  JOIN qual ON qual.doc_id = c.doc_id
  JOIN gop ON gop.doc_id = c.doc_id
  WHERE lid.pred_lang IN ({lang_set}) AND qual.quality >= {min_quality}
    AND gop.passes),
-- exact text dedup: min-id survivor per identical raw text
exact_kept AS (SELECT min(doc_id) AS doc_id FROM gated GROUP BY text),
corpus1 AS MATERIALIZED (
  SELECT g.doc_id, g.text FROM gated g JOIN exact_kept k USING (doc_id)),
-- MinHash near-dedup: exact word-shingle Jaccard ground truth
{word_jaccard_pairs_core('corpus1', minhash_threshold)},
edges AS (
  SELECT id_a AS src, id_b AS dst FROM wjp
  UNION SELECT id_b, id_a FROM wjp),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src),
rep AS (SELECT src AS node, min(dst) AS mn FROM reach GROUP BY src),
corpus2 AS MATERIALIZED (
  SELECT doc_id, text FROM corpus1
  WHERE doc_id NOT IN (SELECT node FROM rep WHERE mn < node)),
-- decontamination: word {gn}-gram overlap with the bench split
cws AS (SELECT doc_id,
        list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
        FROM corpus2),
cgrams AS (SELECT doc_id, array_to_string(w[i:i+{gn - 1}], ' ') AS g
           FROM (SELECT doc_id, w, unnest(generate_series(1, len(w) - {gn - 1})) AS i FROM cws)),
bgrams AS (SELECT DISTINCT array_to_string(w[i:i+{gn - 1}], ' ') AS g
           FROM (SELECT w, unnest(generate_series(1, len(w) - {gn - 1})) AS i
                 FROM (SELECT list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
                       FROM {table} WHERE doc_id % 97 = 0))),
contaminated AS (SELECT DISTINCT c.doc_id FROM cgrams c JOIN bgrams b ON c.g = b.g),
corpus3 AS MATERIALIZED (
  SELECT doc_id, text FROM corpus2
  WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)),
-- chunk: disjoint {cw}-word windows
chws AS (SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
         FROM corpus3),
chunks AS MATERIALIZED (
  SELECT doc_id, (p - 1) // {cw} AS chunk_id,
         least({cw}, len(w) - p + 1) AS n_tokens,
         array_to_string(w[p:p+{cw - 1}], ' ') AS chunk
  FROM (SELECT doc_id, w, unnest(generate_series(1, len(w), {cw})) AS p FROM chws)),
-- pack: greedy first-fit in (doc_id, chunk_id) order, bucket = doc_id % {num_buckets}
r AS (SELECT doc_id, chunk_id, n_tokens, chunk, doc_id % {num_buckets} AS bucket,
      row_number() OVER (PARTITION BY doc_id % {num_buckets}
                         ORDER BY doc_id, chunk_id) AS rn FROM chunks),
pk AS (
  SELECT bucket, rn, doc_id, chunk_id, n_tokens, chunk,
         CAST(0 AS BIGINT) AS bin, n_tokens AS acc FROM r WHERE rn = 1
  UNION ALL
  SELECT r.bucket, r.rn, r.doc_id, r.chunk_id, r.n_tokens, r.chunk,
         CASE WHEN pk.acc + r.n_tokens > {cap} THEN pk.bin + 1 ELSE pk.bin END,
         CASE WHEN pk.acc + r.n_tokens > {cap} THEN r.n_tokens
              ELSE pk.acc + r.n_tokens END
  FROM pk JOIN r ON r.bucket = pk.bucket AND r.rn = pk.rn + 1)
SELECT doc_id, chunk_id, CAST(n_tokens AS BIGINT) AS n_tokens, chunk,
       CAST(bucket AS BIGINT) AS bucket, bin
FROM pk ORDER BY doc_id, chunk_id
"""


def _kmeans_assign_ctes(
    k: int, iters: int, table: str, prefix: str = ""
) -> tuple[list, str]:
    """Shared unrolled-CTE Lloyd's construction: returns (cte list, name of
    the final per-(vec_id, cluster) distance relation). Callers append their
    own final selection (kmeans_sql keeps dist2; semantic_dedup_sql keeps
    only the winning cluster per vec). ``prefix`` namespaces every CTE so
    several independent trainings can share one WITH clause (pq_knn_sql
    trains one k-means per PQ subspace)."""
    p = prefix
    ctes = [
        f"{p}dims AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS e, "
        f"generate_subscripts(embedding, 1) AS i FROM {table})",
        f"{p}init AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 "
        f"AS cluster FROM (SELECT vec_id FROM {table} ORDER BY vec_id "
        f"LIMIT {k}))",
        f"{p}c0 AS (SELECT {p}init.cluster, d.i, d.e AS c "
        f"FROM {p}init JOIN {p}dims d USING (vec_id))",
    ]
    prev = f"{p}c0"
    for t in range(1, iters + 1):
        ctes.append(
            f"{p}d{t} AS (SELECT {p}dims.vec_id, {prev}.cluster, "
            f"sum(({p}dims.e - {prev}.c) * ({p}dims.e - {prev}.c)) AS d2 "
            f"FROM {p}dims JOIN {prev} ON {p}dims.i = {prev}.i "
            f"GROUP BY {p}dims.vec_id, {prev}.cluster)"
        )
        ctes.append(
            f"{p}a{t} AS (SELECT vec_id, cluster FROM (SELECT vec_id, cluster, "
            f"row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) "
            f"AS rn FROM {p}d{t}) WHERE rn = 1)"
        )
        ctes.append(
            f"{p}u{t} AS (SELECT {p}a{t}.cluster, {p}dims.i, avg({p}dims.e) AS c "
            f"FROM {p}a{t} JOIN {p}dims USING (vec_id) "
            f"GROUP BY {p}a{t}.cluster, {p}dims.i)"
        )
        ctes.append(
            f"{p}c{t} AS (SELECT p.cluster, p.i, coalesce(u.c, p.c) AS c "
            f"FROM {prev} p LEFT JOIN {p}u{t} u "
            f"ON p.cluster = u.cluster AND p.i = u.i)"
        )
        prev = f"{p}c{t}"
    fin = iters + 1
    ctes.append(
        f"{p}d{fin} AS (SELECT {p}dims.vec_id, {prev}.cluster, "
        f"sum(({p}dims.e - {prev}.c) * ({p}dims.e - {prev}.c)) AS d2 "
        f"FROM {p}dims JOIN {prev} ON {p}dims.i = {prev}.i "
        f"GROUP BY {p}dims.vec_id, {prev}.cluster)"
    )
    return ctes, f"{p}d{fin}"


def kmeans_sql(k: int, iters: int, table: str = "embeddings") -> str:
    """Unrolled-CTE Lloyd's k-means matching ops/clustering.kmeans: init from
    the k smallest vec_ids, squared-euclidean argmin (ties -> lowest
    cluster), AVG centroid update with empty clusters keeping the previous
    centroid, one final assignment against the last centroids."""
    ctes, dfin = _kmeans_assign_ctes(k, iters, table)
    return (
        "WITH "
        + ", ".join(ctes)
        + " SELECT vec_id, cluster, round(d2, 4) AS dist2 FROM "
        + f"(SELECT vec_id, cluster, d2, row_number() OVER "
        + f"(PARTITION BY vec_id ORDER BY d2, cluster) AS rn FROM {dfin}) "
        + "WHERE rn = 1 ORDER BY vec_id"
    )


def embedding_outliers_sql(
    k: int, iters: int, top_n: int, table: str = "embeddings"
) -> str:
    """Per-cluster farthest-``top_n`` outliers over the unrolled k-means
    assignment (ops/clustering.embedding_outliers): rank on the 4-rounded
    dist2 (DESC, id ASC tie-break) — the same value the engine ranks on."""
    ctes, dfin = _kmeans_assign_ctes(k, iters, table)
    ctes.append(
        "assign AS (SELECT vec_id, cluster, round(d2, 4) AS dist2 FROM "
        "(SELECT vec_id, cluster, d2, row_number() OVER "
        f"(PARTITION BY vec_id ORDER BY d2, cluster) AS rn FROM {dfin}) "
        "WHERE rn = 1)"
    )
    return (
        "WITH "
        + ", ".join(ctes)
        + " SELECT cluster, dist2, vec_id, rank FROM "
        + "(SELECT cluster, dist2, vec_id, row_number() OVER "
        + "(PARTITION BY cluster ORDER BY dist2 DESC, vec_id) AS rank "
        + f"FROM assign) WHERE rank <= {top_n} ORDER BY cluster, rank"
    )


def semantic_dedup_sql(
    k: int, iters: int, threshold: float, table: str = "embeddings"
) -> str:
    """Ground truth for ops.clustering.semantic_dedup: the same unrolled
    k-means assignment, near-dup pairs restricted to SAME-cluster vec pairs
    with cosine >= threshold, recursive transitive closure, keep the min-id
    representative per component (pairs straddling two clusters are NOT
    edges — by design on both sides; that is SemDeDup's recall trade)."""
    ctes, dfin = _kmeans_assign_ctes(k, iters, table)
    ctes.append(
        "assign AS (SELECT vec_id, cluster FROM (SELECT vec_id, cluster, "
        f"row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) "
        f"AS rn FROM {dfin}) WHERE rn = 1)"
    )
    ctes.append(
        f"p AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b "
        f"FROM {table} a JOIN {table} b ON a.vec_id < b.vec_id "
        f"JOIN assign ca ON ca.vec_id = a.vec_id "
        f"JOIN assign cb ON cb.vec_id = b.vec_id "
        f"WHERE ca.cluster = cb.cluster AND "
        f"list_cosine_similarity(a.embedding::DOUBLE[], "
        f"b.embedding::DOUBLE[]) >= {threshold})"
    )
    ctes.append(
        "edges AS (SELECT id_a AS src, id_b AS dst FROM p "
        "UNION SELECT id_b, id_a FROM p)"
    )
    ctes.append(
        "reach(src, dst) AS (SELECT src, dst FROM edges UNION "
        "SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src)"
    )
    ctes.append("rep AS (SELECT src AS node, min(dst) AS mn FROM reach GROUP BY src)")
    return (
        "WITH RECURSIVE "
        + ", ".join(ctes)
        + f" SELECT vec_id FROM {table} WHERE vec_id NOT IN "
        + "(SELECT node FROM rep WHERE mn < node) ORDER BY vec_id"
    )


def dedup_against_minhash_sql(
    table: str = "documents", threshold: float = 0.5, ref_mod: int = 10
) -> str:
    """Ground truth for ops.dedup.dedup_against_minhash with the reference
    corpus = docs whose id % ref_mod == 0: per corpus doc, the count and max
    of exact word-3-gram Jaccard scores >= threshold against any reference
    doc (LSH recall at 32x4 bands is ~1 at the j >= 0.9 matches this corpus
    contains, so the op's verified output equals this brute force)."""
    return f"""
WITH {word_shingles_cte(table)},
wsizes AS (SELECT doc_id, count(*) AS sz FROM wsh GROUP BY doc_id),
ci AS (
  SELECT a.doc_id AS ca, b.doc_id AS rb, count(*) AS i
  FROM wsh a JOIN wsh b ON a.s = b.s
  WHERE b.doc_id % {ref_mod} = 0
  GROUP BY a.doc_id, b.doc_id
),
hits AS (
  SELECT ca, i::DOUBLE / (sa.sz + sb.sz - i) AS j
  FROM ci JOIN wsizes sa ON sa.doc_id = ca JOIN wsizes sb ON sb.doc_id = rb
  WHERE i::DOUBLE / (sa.sz + sb.sz - i) >= {threshold}
),
agg AS (SELECT ca AS doc_id, count(*) AS n_near,
        max(round(j, 4)) AS max_jaccard FROM hits GROUP BY ca)
SELECT d.doc_id, coalesce(g.n_near, 0) AS n_near,
  coalesce(g.max_jaccard, 0.0) AS max_jaccard,
  coalesce(g.n_near, 0) > 0 AS near_contaminated
FROM {table} d LEFT JOIN agg g USING (doc_id)
ORDER BY d.doc_id
"""


def dsir_logweights_sql(
    n_buckets: int = 4096, ref_mod: int = 10, table: str = "documents"
) -> str:
    """Ground truth for ops.dsir.dsir_logweights with target corpus = docs
    whose id % ref_mod == 0: hashed unigram+bigram buckets via
    md5_number_lower % n_buckets, add-1-smoothed bucket distributions for
    target and raw (raw = the whole table), per-doc SUM of the bucket
    log-ratios. Docs with no features weigh 0."""
    b = n_buckets
    return f"""
WITH t AS (SELECT doc_id, list_filter(
         string_split_regex(lower(text), '[ \t\n\r]+'), x -> x != '') AS ws
       FROM {table}),
tok AS (SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i FROM t),
uni AS (SELECT doc_id, CAST(md5_number_lower(w) % {b} AS BIGINT) AS bk FROM tok),
big AS (SELECT a.doc_id,
               CAST(md5_number_lower(a.w || ' ' || c.w) % {b} AS BIGINT) AS bk
        FROM tok a JOIN tok c ON a.doc_id = c.doc_id AND c.i = a.i + 1),
feat AS (SELECT * FROM uni UNION ALL SELECT * FROM big),
tc AS (SELECT bk, count(*) AS c FROM feat WHERE doc_id % {ref_mod} = 0 GROUP BY bk),
rc AS (SELECT bk, count(*) AS c FROM feat GROUP BY bk),
tt AS (SELECT count(*) AS n FROM feat WHERE doc_id % {ref_mod} = 0),
rt AS (SELECT count(*) AS n FROM feat),
lr AS (SELECT r.bk,
         ln((coalesce(t.c, 0) + 1) / CAST((SELECT n FROM tt) + {b} AS DOUBLE))
       - ln((r.c + 1) / CAST((SELECT n FROM rt) + {b} AS DOUBLE)) AS v
       FROM rc r LEFT JOIN tc t ON r.bk = t.bk),
wsum AS (SELECT f.doc_id, count(*) AS n_features, sum(lr.v) AS w
         FROM feat f JOIN lr ON f.bk = lr.bk GROUP BY f.doc_id)
SELECT d.doc_id, coalesce(ws2.n_features, 0) AS n_features,
       round(coalesce(ws2.w, 0), 4) AS logweight
FROM {table} d LEFT JOIN wsum ws2 ON d.doc_id = ws2.doc_id
ORDER BY d.doc_id
"""


def _hll_rank_case(w_expr: str, p: int) -> str:
    """Exact SQL for the HLL rank (1 + leading zeros of the top 64-p hash
    bits): a descending power-of-two CASE ladder — integer comparisons only,
    no float log2 (whose boundary rounding could diverge)."""
    q = 64 - p
    whens = " ".join(
        f"WHEN {w_expr} >= {1 << (q - 1 - k)} THEN {k + 1}" for k in range(q)
    )
    return f"(CASE WHEN {w_expr} = 0 THEN {q + 1} {whens} END)"


def hll_estimate_sql(
    value_expr: str,
    table: str,
    p: int = 12,
    key_expr: str | None = None,
    key_name: str = "k",
) -> str:
    """Ground truth for ops.sketches.approx_distinct(_by): replays the
    deterministic HLL — md5_number_lower hash, low-p-bit register, exact
    rank ladder, alpha*m^2/sum(2^-r) with linear-counting correction — so
    the oracle reproduces the ESTIMATE bit-for-bit, not the true count."""
    m = 1 << p
    alpha_m2 = (0.7213 / (1 + 1.079 / m)) * m * m
    rank = _hll_rank_case(f"(h // {m})", p)
    kcol = f"{key_expr} AS {key_name}, " if key_expr else ""
    kgrp = f"{key_name}, " if key_expr else ""
    ksel = f"{key_name}, " if key_expr else ""
    est = (
        f"CASE WHEN {alpha_m2!r} / ssum <= {2.5 * m!r} AND zeros > 0 "
        f"THEN {m} * ln({m} / CAST(zeros AS DOUBLE)) "
        f"ELSE {alpha_m2!r} / ssum END"
    )
    keys_cte = (
        f", keys AS (SELECT DISTINCT {key_name} FROM h), "
        f"grid AS (SELECT keys.{key_name}, s.i AS idx FROM keys, ser s)"
        if key_expr
        else ", grid AS (SELECT s.i AS idx FROM ser s)"
    )
    join_on = (
        f"reg.{key_name} = grid.{key_name} AND reg.idx = grid.idx"
        if key_expr
        else "reg.idx = grid.idx"
    )
    order = f"ORDER BY {key_name}" if key_expr else ""
    return f"""
WITH h AS (SELECT {kcol}md5_number_lower({value_expr}) AS h FROM {table}),
rk AS (SELECT {kgrp}CAST(h % {m} AS BIGINT) AS idx, {rank} AS r FROM h),
reg AS (SELECT {kgrp}idx, max(r) AS r FROM rk GROUP BY {kgrp}idx),
ser AS (SELECT unnest(generate_series(0, {m - 1})) AS i){keys_cte},
allr AS (SELECT {('grid.' + key_name + ', ') if key_expr else ''}grid.idx,
         coalesce(reg.r, 0) AS r FROM grid LEFT JOIN reg ON {join_on}),
agg AS (SELECT {kgrp}sum(power(2.0, -r)) AS ssum,
        sum(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS zeros
        FROM allr {('GROUP BY ' + key_name) if key_expr else ''})
SELECT {ksel}CAST(floor(({est}) + 0.5) AS BIGINT) AS approx_distinct
FROM agg {order}
"""


def dedup_against_bloom_sql(
    n_bits: int = 1 << 20,
    k_hashes: int = 4,
    ref_mod: int = 7,
    table: str = "documents",
) -> str:
    """Ground truth for ops.dedup.dedup_against_bloom with reference = docs
    whose id % ref_mod == 0: replays the exact Bloom filter — double-hashed
    positions from the two md5 halves reduced mod n_bits, drop iff ALL
    k positions are set — false positives included, so the op's output is
    hash-identical by construction (the sketch is a pure hash function)."""
    n, k = n_bits, k_hashes
    return f"""
WITH refs AS (SELECT DISTINCT coalesce(text, '') AS t FROM {table}
              WHERE doc_id % {ref_mod} = 0),
rh AS (SELECT CAST(md5_number_lower(t) % {n} AS BIGINT) AS h1,
              CAST(md5_number_upper(t) % {n} AS BIGINT) AS h2 FROM refs),
ser AS (SELECT unnest(generate_series(0, {k - 1})) AS i),
refpos AS (SELECT DISTINCT (h1 + i * h2) % {n} AS pos FROM rh, ser),
ch AS (SELECT doc_id, CAST(md5_number_lower(coalesce(text, '')) % {n} AS BIGINT) AS h1,
              CAST(md5_number_upper(coalesce(text, '')) % {n} AS BIGINT) AS h2
       FROM {table}),
cp AS (SELECT doc_id, (h1 + i * h2) % {n} AS pos FROM ch, ser),
hits AS (SELECT doc_id, count(*) AS c FROM cp JOIN refpos USING (pos)
         GROUP BY doc_id)
SELECT d.doc_id, d.n_chars FROM {table} d
LEFT JOIN hits ON d.doc_id = hits.doc_id
WHERE coalesce(hits.c, 0) < {k} ORDER BY d.doc_id
"""


def funnel_sql(steps: list, table: str = "events") -> str:
    """Ground truth for ops.windows.funnel: cascaded per-user min-timestamp
    CTEs, step i+1 restricted to events strictly after the user's earliest
    completion of step i; steps_completed = deepest non-NULL stage."""
    ctes = [
        f"s1 AS (SELECT user_id, min(ts) AS t FROM {table} "
        f"WHERE event_type = {sql_quote(steps[0])} GROUP BY user_id)"
    ]
    for i in range(1, len(steps)):
        ctes.append(
            f"s{i + 1} AS (SELECT e.user_id, min(e.ts) AS t FROM {table} e "
            f"JOIN s{i} USING (user_id) "
            f"WHERE e.event_type = {sql_quote(steps[i])} AND e.ts > s{i}.t "
            f"GROUP BY e.user_id)"
        )
    case = " ".join(
        f"WHEN s{i}.t IS NOT NULL THEN {i}"
        for i in range(len(steps), 0, -1)
    )
    joins = " ".join(
        f"LEFT JOIN s{i} ON u.user_id = s{i}.user_id"
        for i in range(1, len(steps) + 1)
    )
    return (
        f"WITH u AS (SELECT DISTINCT user_id FROM {table}), "
        + ", ".join(ctes)
        + f" SELECT u.user_id, (CASE {case} ELSE 0 END) AS steps_completed "
        + f"FROM u {joins} ORDER BY u.user_id"
    )


def cms_counts_sql(
    keys: list,
    width: int,
    depth: int,
    col: str = "event_type",
    table: str = "events",
) -> str:
    """Ground truth for ops.sketches.cms_counts: replays the count-min
    sketch — per-depth-row double-hashed bucket counts over the column, a
    key's estimate = min over rows — collisions included (the sketch is a
    pure function of the md5 hashes)."""
    keys_vals = ", ".join(
        f"({i}, {sql_quote(str(k))})" for i, k in enumerate(keys)
    )
    return f"""
WITH ser AS (SELECT unnest(generate_series(0, {depth - 1})) AS d),
vals AS (SELECT CAST(md5_number_lower(coalesce(CAST({col} AS VARCHAR), '')) % {width} AS BIGINT) AS h1,
                CAST(md5_number_upper(coalesce(CAST({col} AS VARCHAR), '')) % {width} AS BIGINT) AS h2
         FROM {table}),
cells AS (SELECT d, (h1 + d * h2) % {width} AS pos, count(*) AS n
          FROM vals, ser GROUP BY d, (h1 + d * h2) % {width}),
q(ord, key) AS (VALUES {keys_vals}),
qh AS (SELECT ord, key,
              CAST(md5_number_lower(key) % {width} AS BIGINT) AS h1,
              CAST(md5_number_upper(key) % {width} AS BIGINT) AS h2 FROM q),
qpos AS (SELECT ord, key, d, (h1 + d * h2) % {width} AS pos FROM qh, ser),
est AS (SELECT qpos.ord, qpos.key, min(coalesce(cells.n, 0)) AS est_count
        FROM qpos LEFT JOIN cells ON cells.d = qpos.d AND cells.pos = qpos.pos
        GROUP BY qpos.ord, qpos.key)
SELECT key, est_count FROM est ORDER BY ord
"""


def knn_graph_lsh_sql(
    dim: int,
    k: int = 10,
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 42,
    max_bucket_size: int = 4096,
    table: str = "embeddings",
) -> str:
    """Oracle for ops.similarity.knn_graph_lsh: inlined seeded hyperplanes,
    buckets via sign bits of the raw inner product, candidates = co-members
    of any non-oversize (table, bucket), per-vec top-k by exact cosine.
    Per-group top-k then global top-k is lossless over the candidate set,
    so the oracle ranks over ALL distinct candidates directly."""
    from .ops.similarity import _hyperplanes

    rows = []
    for t in range(n_tables):
        pl = _hyperplanes(dim, n_bits, seed + t)
        for b in range(n_bits):
            vec = "[" + ", ".join(repr(float(v)) for v in pl[b]) + "]::DOUBLE[]"
            rows.append(f"({t}, {b}, {vec})")
    values = ",\n".join(rows)
    return f"""
WITH planes(t, bit, vec) AS (VALUES {values}),
b AS (
  SELECT e.vec_id, p.t,
         sum(CASE WHEN list_inner_product(e.embedding::DOUBLE[], p.vec) > 0
                  THEN (1::BIGINT << p.bit) ELSE 0 END) AS bucket
  FROM {table} e CROSS JOIN planes p GROUP BY e.vec_id, p.t
),
bs AS (SELECT t, bucket, count(*) AS c FROM b GROUP BY t, bucket),
cand AS (
  SELECT DISTINCT a.vec_id AS v, b2.vec_id AS nbr
  FROM b a
  JOIN b b2 ON a.t = b2.t AND a.bucket = b2.bucket AND a.vec_id <> b2.vec_id
  JOIN bs ON bs.t = a.t AND bs.bucket = a.bucket
  WHERE bs.c BETWEEN 2 AND {max_bucket_size}
),
scored AS (
  SELECT c.v, c.nbr,
         list_cosine_similarity(ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]) AS cos
  FROM cand c
  JOIN {table} ea ON ea.vec_id = c.v
  JOIN {table} eb ON eb.vec_id = c.nbr
)
SELECT vec_id, rank, nbr_id, cosine FROM (
  SELECT v AS vec_id,
         row_number() OVER (PARTITION BY v ORDER BY cos DESC, nbr) AS rank,
         nbr AS nbr_id, round(cos, 4) AS cosine
  FROM scored
) WHERE rank <= {k}
ORDER BY vec_id, rank
"""


def bigram_logprob_sql(
    vocab_size: int = 256,
    bigram_size: int = 512,
    lam: float = 0.75,
    table: str = "documents",
) -> str:
    """Ground truth for ops.lm.bigram_logprob: Jelinek-Mercer interpolated
    bigram perplexity with pruned unigram (top vocab_size by count desc,
    token asc; OOV floor 1/total) and pruned bigram (top bigram_size by
    count desc, pair asc; pruned/unseen bigram term = 0); first token of
    each doc scores unigram-only."""
    return f"""
WITH raw AS (SELECT doc_id,
        unnest(regexp_split_to_array(lower(text), '[ \t\n\r]+')) AS tok,
        generate_subscripts(regexp_split_to_array(lower(text), '[ \t\n\r]+'), 1) AS i
      FROM {table}),
tk AS (SELECT doc_id, tok,
       row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
       FROM raw WHERE tok <> ''),
uc AS (SELECT tok, count(*)::BIGINT AS n FROM tk GROUP BY tok),
ut AS (SELECT sum(n)::DOUBLE AS tot FROM uc),
uv AS (SELECT tok, n FROM (SELECT tok, n,
        row_number() OVER (ORDER BY n DESC, tok) AS rn FROM uc)
       WHERE rn <= {vocab_size}),
bp AS (SELECT a.tok AS prev, b.tok AS tok, count(*)::BIGINT AS n
       FROM tk a JOIN tk b ON a.doc_id = b.doc_id AND b.j = a.j + 1
       GROUP BY a.tok, b.tok),
bv AS (SELECT prev, tok, n FROM (SELECT prev, tok, n,
        row_number() OVER (ORDER BY n DESC, prev, tok) AS rn FROM bp)
       WHERE rn <= {bigram_size}),
scored AS (
  SELECT t.doc_id,
    CASE WHEN t.j = 1
      THEN coalesce(u.n, 1) / (SELECT tot FROM ut)
      ELSE {lam!r} * (CASE WHEN up.n IS NOT NULL AND bvv.n IS NOT NULL
                      THEN bvv.n / CAST(up.n AS DOUBLE) ELSE 0 END)
         + {1.0 - lam!r} * (coalesce(u.n, 1) / (SELECT tot FROM ut))
    END AS p
  FROM tk t
  LEFT JOIN uv u ON u.tok = t.tok
  LEFT JOIN tk tp ON tp.doc_id = t.doc_id AND tp.j = t.j - 1
  LEFT JOIN uv up ON up.tok = tp.tok
  LEFT JOIN bv bvv ON bvv.prev = tp.tok AND bvv.tok = t.tok
),
w AS (SELECT doc_id, count(*) AS n_tokens, -avg(ln(p)) AS nll
      FROM scored GROUP BY doc_id)
SELECT d.doc_id, coalesce(w.n_tokens, 0) AS n_tokens,
       round(coalesce(w.nll, 0), 4) AS nll
FROM {table} d LEFT JOIN w ON d.doc_id = w.doc_id
ORDER BY d.doc_id
"""


def _pq_subspace_ctes(
    m: int,
    k_codes: int,
    iters: int,
    n_queries: int,
    dim: int,
    table: str,
) -> tuple[list, str, str]:
    """Shared PQ construction: per-subspace namespaced kmeans trainings,
    code assignments ``s{i}_a`` and query LUTs ``s{i}_lut``. Returns
    (ctes, adc_distance_expr, join_clauses) for a ``dist`` relation built
    as ``FROM s0_a a0 JOIN s0_lut l0 ON l0.cluster = a0.cluster {joins}``
    — pq_knn_sql uses it bare; ivf_pq_knn_sql adds the coarse-list
    pruning join."""
    if dim % m:
        raise ValueError("dim must divide evenly into m subspaces")
    dsub = dim // m
    ctes: list[str] = []
    for s in range(m):
        lo, hi = s * dsub + 1, (s + 1) * dsub
        sub = (
            f"(SELECT vec_id, embedding[{lo}:{hi}] AS embedding FROM {table})"
        )
        sub_ctes, dfin = _kmeans_assign_ctes(
            k_codes, iters, sub, prefix=f"s{s}_"
        )
        ctes.extend(sub_ctes)
        ctes.append(
            f"s{s}_a AS (SELECT vec_id, cluster FROM (SELECT vec_id, "
            f"cluster, row_number() OVER (PARTITION BY vec_id "
            f"ORDER BY d2, cluster) AS rn FROM {dfin}) WHERE rn = 1)"
        )
        ctes.append(
            f"s{s}_lut AS (SELECT d.vec_id AS qid, c.cluster, "
            f"sum((d.e - c.c) * (d.e - c.c)) AS d2 "
            f"FROM s{s}_dims d JOIN s{s}_c{iters} c ON d.i = c.i "
            f"WHERE d.vec_id < {n_queries} GROUP BY d.vec_id, c.cluster)"
        )
    adc = " + ".join(f"l{s}.d2" for s in range(m))
    joins = " ".join(
        f"JOIN s{s}_a a{s} ON a{s}.vec_id = a0.vec_id "
        f"JOIN s{s}_lut l{s} ON l{s}.cluster = a{s}.cluster "
        f"AND l{s}.qid = l0.qid"
        for s in range(1, m)
    )
    return ctes, adc, joins


def pq_knn_sql(
    m: int,
    k_codes: int,
    iters: int,
    n_queries: int,
    top_k: int,
    dim: int,
    table: str = "embeddings",
) -> str:
    """Ground truth for ops.similarity.pq_knn: one namespaced unrolled
    k-means per PQ subspace (DuckDB list slice ``embedding[lo:hi]``,
    1-based inclusive), codes = final assignment (d2 asc, cluster asc
    tie-break), query LUT d2 summed per (query, centroid) over subspace
    dims, ADC distance = sum of per-subspace LUT entries, top-k per query
    by (d2, vec_id). Queries are the ``vec_id < n_queries`` rows of the
    same table — no literals, any scale."""
    ctes, adc, joins = _pq_subspace_ctes(
        m, k_codes, iters, n_queries, dim, table
    )
    ctes.append(
        "dist AS (SELECT l0.qid AS query_id, a0.vec_id, "
        f"{adc} AS d2 FROM s0_a a0 "
        f"JOIN s0_lut l0 ON l0.cluster = a0.cluster {joins})"
    )
    return (
        "WITH "
        + ", ".join(ctes)
        + " SELECT query_id, rank, vec_id, round(d2, 4) AS adist2 FROM "
        + "(SELECT query_id, vec_id, d2, CAST(row_number() OVER "
        + "(PARTITION BY query_id ORDER BY d2, vec_id) AS BIGINT) AS rank "
        + f"FROM dist) WHERE rank <= {top_k} ORDER BY query_id, rank"
    )


def ivf_pq_knn_sql(
    nlist: int,
    nprobe: int,
    m: int,
    k_codes: int,
    iters: int,
    n_queries: int,
    top_k: int,
    dim: int,
    table: str = "embeddings",
) -> str:
    """Ground truth for ops.similarity.ivf_pq_knn — and unlike the ivf_knn
    entries (which probe ALL lists so brute-force ranking is the oracle),
    this one oracles the COARSE PRUNING itself: a namespaced full-dim
    kmeans (``c_``) is the coarse quantizer, each query probes its
    ``nprobe`` nearest coarse lists (d2 asc, list asc), and only vectors
    assigned to a probed list are ADC-ranked with the shared PQ
    construction (by_residual=False: codes quantize raw vectors, the
    FAISS IVFPQ option that keeps the algebra join-expressible)."""
    ctes, cfin = _kmeans_assign_ctes(nlist, iters, table, prefix="c_")
    ctes.append(
        "c_a AS (SELECT vec_id, cluster FROM (SELECT vec_id, cluster, "
        "row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) "
        f"AS rn FROM {cfin}) WHERE rn = 1)"
    )
    ctes.append(
        "c_q2l AS (SELECT d.vec_id AS qid, c.cluster, "
        "sum((d.e - c.c) * (d.e - c.c)) AS d2 "
        f"FROM c_dims d JOIN c_c{iters} c ON d.i = c.i "
        f"WHERE d.vec_id < {n_queries} GROUP BY d.vec_id, c.cluster)"
    )
    ctes.append(
        "probed AS (SELECT qid, cluster FROM (SELECT qid, cluster, "
        "row_number() OVER (PARTITION BY qid ORDER BY d2, cluster) AS rn "
        f"FROM c_q2l) WHERE rn <= {nprobe})"
    )
    pq_ctes, adc, joins = _pq_subspace_ctes(
        m, k_codes, iters, n_queries, dim, table
    )
    ctes.extend(pq_ctes)
    ctes.append(
        "dist AS (SELECT l0.qid AS query_id, a0.vec_id, "
        f"{adc} AS d2 FROM s0_a a0 "
        f"JOIN s0_lut l0 ON l0.cluster = a0.cluster {joins} "
        "JOIN c_a ON c_a.vec_id = a0.vec_id "
        "JOIN probed ON probed.qid = l0.qid "
        "AND probed.cluster = c_a.cluster)"
    )
    return (
        "WITH "
        + ", ".join(ctes)
        + " SELECT query_id, rank, vec_id, round(d2, 4) AS adist2 FROM "
        + "(SELECT query_id, vec_id, d2, CAST(row_number() OVER "
        + "(PARTITION BY query_id ORDER BY d2, vec_id) AS BIGINT) AS rank "
        + f"FROM dist) WHERE rank <= {top_k} ORDER BY query_id, rank"
    )


def bpe_train_sql(table: str = "documents", num_merges: int = 3) -> str:
    """Unrolled BPE merge-table oracle (ops/bpe.py::bpe_train): word counts
    → sentinel-wrapped char sequences → per-iteration pair counts, argmax
    (count DESC, a, b) and sentinel replace — the same greedy left-to-right
    merge the engine applies (see ops/bpe.py module docstring)."""
    sep = "chr(1)"
    ctes = [
        f"toks AS (SELECT unnest(regexp_split_to_array(lower(text), "
        f"'[ \\t\\n\\r]+')) AS w FROM {table})",
        f"wc AS (SELECT w, count(*)::BIGINT AS cnt FROM toks "
        f"WHERE w <> '' AND w NOT LIKE '%' || {sep} || '%' GROUP BY w)",
        f"s0 AS (SELECT w, cnt, array_to_string(list_transform("
        f"regexp_split_to_array(w, ''), c -> {sep} || c || {sep}), '') "
        f"AS seq FROM wc)",
    ]
    for i in range(1, num_merges + 1):
        p = i - 1
        ctes.append(
            f"l{i} AS (SELECT cnt, string_split(trim(seq, {sep}), "
            f"{sep} || {sep}) AS l FROM s{p})"
        )
        ctes.append(
            f"p{i} AS (SELECT l[j] AS a, l[j+1] AS b, CAST(sum(cnt) AS BIGINT) "
            f"AS c FROM l{i}, (SELECT unnest(generate_series(1, "
            f"(SELECT max(len(l)) FROM l{i}))) AS j) ser "
            f"WHERE j <= len(l) - 1 GROUP BY a, b)"
        )
        ctes.append(
            f"m{i} AS (SELECT a, b, c FROM p{i} ORDER BY c DESC, a, b LIMIT 1)"
        )
        ctes.append(
            f"s{i} AS (SELECT w, cnt, replace(seq, "
            f"{sep} || (SELECT a FROM m{i}) || {sep} || {sep} || "
            f"(SELECT b FROM m{i}) || {sep}, "
            f"{sep} || (SELECT a FROM m{i}) || (SELECT b FROM m{i}) || {sep}) "
            f"AS seq FROM s{p})"
        )
    unions = " UNION ALL ".join(
        f"SELECT {i}::BIGINT AS rank, a AS left, b AS right, a || b AS merged, "
        f"c AS pair_count FROM m{i}"
        for i in range(1, num_merges + 1)
    )
    return "WITH " + ", ".join(ctes) + " SELECT * FROM (" + unions + ") ORDER BY rank"


def bpe_encode_sql(table: str = "documents", num_merges: int = 3) -> str:
    """Oracle for bpe_train → bpe_encode_counts composed: re-derives the
    same merge table (bpe_train_sql CTE chain), then tokenizes every doc's
    words with the same sentinel replaces and sums symbol counts per doc."""
    sep = "chr(1)"
    train = bpe_train_sql(table, num_merges)
    ctes = train[len("WITH ") : train.index(" SELECT * FROM (")]
    reps = "array_to_string(list_transform(regexp_split_to_array(w, ''), " \
        f"c -> {sep} || c || {sep}), '')"
    for i in range(1, num_merges + 1):
        reps = (
            f"replace({reps}, {sep} || (SELECT a FROM m{i}) || {sep} || {sep} "
            f"|| (SELECT b FROM m{i}) || {sep}, "
            f"{sep} || (SELECT a FROM m{i}) || (SELECT b FROM m{i}) || {sep})"
        )
    return (
        "WITH " + ctes + ", "
        f"dw AS (SELECT doc_id, unnest(regexp_split_to_array(lower(text), "
        f"'[ \\t\\n\\r]+')) AS w FROM {table}), "
        f"dw2 AS (SELECT doc_id, w FROM dw WHERE w <> '' AND "
        f"w NOT LIKE '%' || {sep} || '%'), "
        f"enc AS (SELECT doc_id, len(string_split(trim({reps}, {sep}), "
        f"{sep} || {sep})) AS toks FROM dw2) "
        "SELECT doc_id, count(*)::BIGINT AS n_words, "
        "CAST(sum(toks) AS BIGINT) AS n_tokens "
        "FROM enc GROUP BY doc_id ORDER BY doc_id"
    )


def _dlit(v: float) -> str:
    """Exact float64 literal: repr round-trips through strtod."""
    return f"CAST('{v!r}' AS DOUBLE)"


def char_jaccard_sql(query: str, table: str = "documents") -> str:
    """Oracle for ops.charmetrics.char_jaccard (JaccardMetric.cs:66-134):
    per-doc codepoint frequencies via string_split(text, '') (DuckDB
    splits per codepoint; the '' artifact of empty strings is filtered),
    query histogram inlined as VALUES; both Jaccard quotients are exact
    integer operands cast to DOUBLE — bitwise equal to the numpy kernel."""
    from collections import Counter

    if not query:
        raise ValueError("query must be non-empty")
    hist = Counter(query)
    values = ", ".join(
        f"({sql_quote(ch)}, {n})" for ch, n in sorted(hist.items())
    )
    qlen = len(query)
    qset = len(hist)
    return f"""
WITH chars AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), '')) AS ch
  FROM {table}),
dfreq AS (
  SELECT doc_id, ch, count(*) AS n FROM chars WHERE ch <> ''
  GROUP BY doc_id, ch),
dstat AS (
  SELECT d.doc_id, length(coalesce(d.text, '')) AS dlen,
         coalesce(f.dset, 0) AS dset
  FROM {table} d LEFT JOIN (
    SELECT doc_id, count(*) AS dset FROM dfreq GROUP BY doc_id) f
    USING (doc_id)),
q(ch, qn) AS (VALUES {values}),
inter AS (
  SELECT f.doc_id, sum(least(f.n, q.qn)) AS ia, count(*) AS iset
  FROM dfreq f JOIN q USING (ch) GROUP BY f.doc_id)
SELECT s.doc_id,
  round(CAST(coalesce(i.ia, 0) AS DOUBLE)
        / CAST({qlen} + s.dlen - coalesce(i.ia, 0) AS DOUBLE), 4)
    AS jaccard_all,
  round(CAST(coalesce(i.iset, 0) AS DOUBLE)
        / CAST({qset} + s.dset - coalesce(i.iset, 0) AS DOUBLE), 4)
    AS jaccard_set
FROM dstat s LEFT JOIN inter i USING (doc_id)
ORDER BY s.doc_id
"""


def typo_budget_sql(
    p: float = 0.04, alpha: float = 0.01, table: str = "documents"
) -> str:
    """Oracle for ops.charmetrics.typo_budget (EditDistanceModel.cs:
    49-88): token lengths via RE2 ``\\S+``; ``q^L`` built by a sequential
    multiplication CTE and the binomial CDF recurrence stepped by a
    second recursive CTE — every float op in the engine's order, so the
    d_max integers are exact (the repo's rank-stepping sequential-float
    mirror pattern)."""
    q = 1.0 - p
    target = 1.0 - alpha
    pq = f"({_dlit(p)} / {_dlit(q)})"
    return f"""
WITH RECURSIVE toks AS (
  SELECT unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) AS tok
  FROM {table}),
lens AS (
  SELECT length(tok) AS length, count(*) AS n_tokens FROM toks GROUP BY 1),
powr(length, i, pk) AS (
  SELECT length, 0, CAST(1.0 AS DOUBLE) FROM lens
  UNION ALL
  SELECT length, i + 1, pk * {_dlit(q)} FROM powr WHERE i < length),
init AS (SELECT length, pk FROM powr WHERE i = length),
loop(length, k, pk, cdf) AS (
  SELECT length, 0, pk, pk FROM init
  UNION ALL
  SELECT r.length, r.k + 1, t.pk2, r.cdf + t.pk2
  FROM loop r CROSS JOIN LATERAL (
    SELECT r.pk * ((CAST(r.length - r.k AS DOUBLE)
                    / CAST(r.k + 1 AS DOUBLE)) * {pq}) AS pk2) t
  WHERE r.k < r.length AND r.cdf < {_dlit(target)})
SELECT l.length, l.n_tokens, m.max_edits
FROM lens l JOIN (
  SELECT length, max(k) AS max_edits FROM loop GROUP BY length) m
  USING (length)
ORDER BY l.length
"""


def packed_lcs_sql(
    words: list[str],
    table: str = "documents",
    candidate_chars: int = 32,
    prefix_bonus: float = 0.1,
) -> str:
    """Oracle for ops.autocomplete.packed_lcs_score: the boundary-masked
    packed Hyyrö automaton (PackedBitParallelLcs.cs:146-155,
    ``S = ((S & ZM) + (U & ZM)) | (S − U)``) as a recursive CTE over
    candidate characters, char→bitmap and ZM/word masks baked as
    constants; per-word LCS via shifted bit_count, score = the float64
    ComputePackedJaroScore expression in the engine's operation order."""
    if not words or any(not w for w in words):
        raise ValueError("words must be non-empty strings")
    amap: dict[str, int] = {}
    offsets: list[int] = []
    lengths: list[int] = []
    bit_pos = 0
    for w in words:
        lw = w.lower()  # keep offsets/lengths in sync with the bitmap —
        # everything derives from the LOWERED word (see _pack_words)
        offsets.append(bit_pos)
        lengths.append(len(lw))
        for ch in lw:
            if ord(ch) < 256:
                amap[ch] = amap.get(ch, 0) | (1 << bit_pos)
            bit_pos += 1
    if not (0 < bit_pos <= 60):
        raise ValueError("total packed word length must be 1..60")
    zm = 0
    for off, ln in zip(offsets, lengths):
        if ln > 1:
            zm |= ((1 << (ln - 1)) - 1) << off
    mask = (1 << bit_pos) - 1
    arms = " ".join(
        f"WHEN {sql_quote(ch)} THEN {bm}" for ch, bm in sorted(amap.items())
    )
    cm = f"CASE substr(cand, r.j + 1, 1) {arms} ELSE 0 END"
    qcat = "".join(w.lower() for w in words)
    qlit = sql_quote(qcat)
    qlen = _dlit(float(bit_pos))
    pb = _dlit(float(prefix_bonus))
    pb4 = _dlit(float(prefix_bonus) * 4.0)
    lcs_cols = ", ".join(
        f"bit_count(CAST(((xor(a.S, {mask}) >> {off}) & {(1 << ln) - 1}) "
        f"AS BIGINT)) AS lcs_{wi}"
        for wi, (off, ln) in enumerate(zip(offsets, lengths))
    )
    lcs_names = ", ".join(f"fin.lcs_{wi}" for wi in range(len(words)))
    total = " + ".join(f"fin.lcs_{wi}" for wi in range(len(words)))
    matched = " + ".join(
        f"CASE WHEN fin.lcs_{wi} > 0 THEN 1 ELSE 0 END"
        for wi in range(len(words))
    )
    return f"""
WITH RECURSIVE c AS (
  SELECT doc_id,
         lower(substr(coalesce(text, ''), 1, {candidate_chars})) AS cand
  FROM {table}),
cl AS (SELECT doc_id, cand, length(cand) AS L FROM c),
auto(doc_id, j, S) AS (
  SELECT doc_id, 0, {mask} FROM cl
  UNION ALL
  SELECT r.doc_id, r.j + 1,
         ((r.S & {zm}) + (u.u & {zm})) | (r.S - u.u)
  FROM auto r JOIN cl ON cl.doc_id = r.doc_id
  CROSS JOIN LATERAL (SELECT r.S & ({cm}) AS u) u
  WHERE r.j < cl.L),
fin AS (
  SELECT a.doc_id, {lcs_cols}
  FROM auto a JOIN cl ON cl.doc_id = a.doc_id WHERE a.j = cl.L),
tot AS (
  SELECT fin.doc_id, {lcs_names}, {total} AS total_lcs,
         {matched} AS matched_words
  FROM fin),
pref AS (
  SELECT cl.doc_id, coalesce(max(g.k), 0) AS prefix
  FROM cl LEFT JOIN (
    SELECT unnest(generate_series(1, {len(qcat)})) AS k) g
    ON g.k <= cl.L AND substr(cl.cand, 1, g.k) = substr({qlit}, 1, g.k)
  GROUP BY cl.doc_id)
SELECT t.doc_id, {", ".join(f"t.lcs_{wi}" for wi in range(len(words)))},
  t.total_lcs, t.matched_words, pref.prefix,
  CASE WHEN t.total_lcs = 0 OR cl.L = 0 THEN 0.0 ELSE
    round(least(greatest(
      (CAST(0.5 AS DOUBLE) * t.total_lcs
         * (t.total_lcs / {qlen} + t.total_lcs / CAST(cl.L AS DOUBLE))
       + {pb} * least(pref.prefix, 4))
      / (least({qlen}, CAST(cl.L AS DOUBLE)) + {pb4}),
    CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE)), 4)
  END AS score
FROM tot t JOIN cl USING (doc_id) JOIN pref USING (doc_id)
ORDER BY t.doc_id
"""


def cluster_sizes_sql(table: str = "documents", threshold: float = 0.5) -> str:
    """Oracle for ops.dedup.cluster_size_histogram: transitive closure
    over the exact word-shingle Jaccard pairs (same truth set as
    dedup_corpus_minhash_sql), one row per component carrying its size,
    one row per unpaired doc (size 1), then the size histogram."""
    return f"""
WITH RECURSIVE {word_jaccard_pairs_core(table, threshold)},
edges AS (
  SELECT id_a AS src, id_b AS dst FROM wjp
  UNION SELECT id_b, id_a FROM wjp
),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
rep AS (SELECT src AS node, min(dst) AS mn FROM reach GROUP BY src),
lab AS (SELECT node, least(node, mn) AS label FROM rep),
sz AS (SELECT label, count(*) AS size FROM lab GROUP BY label),
allsz AS (
  SELECT size FROM sz
  UNION ALL
  SELECT 1 FROM {table}
  WHERE doc_id NOT IN (SELECT node FROM lab)
)
SELECT size AS cluster_size, count(*)::BIGINT AS n_clusters
FROM allsz GROUP BY size ORDER BY cluster_size
"""

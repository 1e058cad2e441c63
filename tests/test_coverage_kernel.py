"""The coverage token-relation kernel against the literal per-pair oracle.

``infidex_ray.query.coverage`` answers each (query token, doc token)
question once per query from relation tables; ``tests/oracle.py`` keeps the
reference's per-pair matcher loops and fusion-signal scans. Every
CoverageFeatures and FusionSignals field must agree bit for bit, with one
``TokenRelations`` shared across several docs as in ``process_candidates``.
``coverage.score_bounds``, which pruning compares with the running k-th
best score, must never be below the exact fusion score, and must equal the
per-candidate bound of ``tests/oracle.py`` on every candidate. The
tiebreaker pruning ranks a candidate by before scoring it must equal the
one ``fusion_calculate`` gives it.
"""

from __future__ import annotations

import dataclasses
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import oracle_calculate_features, score_bound

from infidex_ray.config import EngineConfig
from infidex_ray.query import coverage as cov
from infidex_ray.query import pipeline as qp
from infidex_ray.query.fusion import fusion_calculate
from infidex_ray.synonyms import SynonymMap

SETTINGS = settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CFG = EngineConfig()
DELIMS = frozenset(CFG.delimiters)
# a small alphabet makes prefixes, suffixes, infixes and typos collide often;
# 'İ' lowers to two chars under str.lower (1:1 in the shadow strings), 'ß'
# upper-cases to two
_ALPHABET = "abceiİß"
_SEPARATORS = (" ", " ", "  ", "-", ", ", ". ", "/", " (", ") ", "\t")


def _edit(draw, w: str, kind: str) -> str:
    n = len(w)
    c = draw(st.sampled_from(_ALPHABET.lower()))
    p = draw(st.integers(0, n))
    if kind == "sub" and n:
        p = min(p, n - 1)
        return w[:p] + c + w[p + 1 :]
    if kind == "ins":
        return w[:p] + c + w[p:]
    if kind == "del" and n > 1:
        p = min(p, n - 1)
        return w[:p] + w[p + 1 :]
    if kind == "swap" and n > 1:
        p = min(p, n - 2)
        return w[:p] + w[p + 1] + w[p] + w[p + 2 :]
    return w


@st.composite
def _variant(draw, w: str) -> str:
    """``w`` itself or a related token: LD1/LD2 typo, transposition,
    prefix, suffix, infix host, or a copy longer than 32 or 63 chars."""
    kind = draw(
        st.sampled_from(
            ("same", "same", "sub", "ins", "del", "swap", "two", "prefix",
             "suffix", "head", "tail", "infix", "long32", "long63", "upper")
        )
    )
    if kind in ("sub", "ins", "del", "swap"):
        return _edit(draw, w, kind)
    if kind == "two":
        return _edit(draw, _edit(draw, w, "sub"), draw(st.sampled_from(("ins", "del", "swap"))))
    if kind == "prefix":
        return w[: draw(st.integers(1, max(1, len(w))))]
    if kind == "suffix":
        return w[draw(st.integers(0, max(0, len(w) - 1))) :]
    if kind == "head":  # two-segment fragments of a long query term
        return w[: draw(st.integers(3, 6))]
    if kind == "tail":
        return w[-draw(st.integers(3, 6)) :]
    if kind == "infix":
        return draw(st.text(_ALPHABET, max_size=2)) + w + draw(st.text(_ALPHABET, min_size=1, max_size=2))
    if kind == "long32":
        return (w * (33 // max(1, len(w)) + 1))[: draw(st.integers(33, 40))]
    if kind == "long63":
        return (w * (64 // max(1, len(w)) + 1))[: draw(st.integers(62, 70))]
    if kind == "upper":
        return w.upper()
    return w


@st.composite
def _case(draw):
    word = st.text(_ALPHABET, min_size=1, max_size=8) | st.text(_ALPHABET, min_size=2, max_size=2)
    words = draw(st.lists(word, min_size=1, max_size=4))
    n_q = draw(st.integers(1, 5))
    q_tokens = [draw(_variant(draw(st.sampled_from(words)))) for _ in range(n_q)]
    if n_q >= 2 and draw(st.booleans()):
        q_tokens[-1] = draw(st.sampled_from("abcß1"))  # single-char last token
    parts = None
    if draw(st.booleans()):  # query token = two doc tokens
        parts = draw(st.lists(st.text("abce", min_size=2, max_size=4), min_size=2, max_size=2))
        q_tokens[draw(st.integers(0, n_q - 1))] = "".join(parts)
    if draw(st.integers(0, 5)) == 0:  # one long term: two-segment heuristic
        w = draw(st.sampled_from(words))
        q_tokens = [w * (6 // len(w) + draw(st.integers(1, 3)))]
    query = " ".join(q_tokens).lower()

    docs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 9)) == 0:  # delimiter-only text
            docs.append("".join(draw(st.lists(st.sampled_from(_SEPARATORS), max_size=4))))
            continue
        pool = words + q_tokens
        toks = [draw(_variant(draw(st.sampled_from(pool)))) for _ in range(draw(st.integers(1, 10)))]
        if len(q_tokens) >= 2 and draw(st.booleans()):  # doc token = query pair
            i = draw(st.integers(0, len(q_tokens) - 2))
            toks.insert(draw(st.integers(0, len(toks))), q_tokens[i] + q_tokens[i + 1])
        if draw(st.booleans()):  # repeated doc tokens
            toks += draw(st.lists(st.sampled_from(toks), min_size=1, max_size=4))
            toks = draw(st.permutations(toks))
        if parts and draw(st.booleans()):  # adjacent doc pair = query token
            at = draw(st.integers(0, len(toks)))
            toks[at:at] = parts
        text = toks[0]
        for t in toks[1:]:
            text += draw(st.sampled_from(_SEPARATORS)) + t
        docs.append(text)
    return query, docs


def _bits(obj):
    """Dataclass fields as a tuple; floats by their bit pattern."""
    def conv(v):
        if isinstance(v, float):
            return struct.pack("<d", v)
        if isinstance(v, (list, tuple)):
            return tuple(conv(x) for x in v)
        if isinstance(v, dict):
            return tuple((k, conv(x)) for k, x in v.items())
        return v

    return conv(dataclasses.asdict(obj))


def _bounds(relations, texts, firsts, setup, lids=None):
    """``coverage.score_bounds`` of chunks ``lids`` (default: every chunk)
    of a token table over ``texts``."""
    table = cov.token_table(texts, firsts, setup.min_word_size, DELIMS)
    lids = range(len(texts)) if lids is None else lids
    return cov.score_bounds(relations, table, lids, table, lids)


@SETTINGS
@given(_case(), st.data())
def test_coverage_kernel_matches_oracle(case, data):
    query, docs = case
    min_stem = data.draw(st.integers(1, 4))
    word_df = data.draw(st.sampled_from((None, lambda w: len(w) % 4)))
    ctx = cov.prepare_query(
        query, CFG.coverage.min_word_size, DELIMS, CFG.index_sizes,
        lambda t: len(t) % 3, word_df, 10, CFG.stop_term_limit,
    )
    relations = cov.TokenRelations(ctx, DELIMS, min_stem, CFG.coverage)
    for doc in docs + docs[:1]:  # the repeat reads only filled tables
        # doc_first_token is segment metadata: absent, too short, unrelated
        # to the doc, or its real first word
        first = data.draw(st.sampled_from((None, "", "ab", "İst", "xyz", doc.split(" ")[0])))
        has_tokens = data.draw(st.booleans())
        lcs = data.draw(st.sampled_from((0.0, 0.0, 1.0, 3.0, 7.5)))
        want = oracle_calculate_features(
            ctx, doc, lcs, CFG.coverage, DELIMS, min_stem, first, has_tokens
        )
        got = cov.calculate_features(
            ctx, doc, lcs, CFG.coverage, DELIMS, min_stem, first, has_tokens,
            doc_prep=cov.prepare_doc(doc, CFG.coverage.min_word_size, DELIMS),
            relations=relations,
        )
        assert _bits(got) == _bits(want), (query, doc)


@SETTINGS
@given(_case(), st.data())
def test_score_bound_covers_fusion_score(case, data):
    """``coverage.score_bounds`` is at least the exact ``fusion_calculate``
    score of every candidate, under any matcher switches: pruning skips a
    candidate only when its bound is below θ, so a bound under the real
    score would drop a top-k hit."""
    query, docs = case
    flags = {
        f: data.draw(st.booleans())
        for f in ("cover_whole_query", "cover_whole_words", "cover_fuzzy_words",
                  "cover_joined_words", "cover_prefix_suffix")
    }
    setup = dataclasses.replace(
        CFG.coverage, num_typos=data.draw(st.sampled_from((2, 2, 1, 0))), **flags
    )
    min_stem = data.draw(st.integers(1, 4))
    word_df = data.draw(st.sampled_from((None, lambda w: len(w) % 4)))
    ctx = cov.prepare_query(
        query, setup.min_word_size, DELIMS, CFG.index_sizes,
        lambda t: len(t) % 3, word_df, 10, CFG.stop_term_limit,
    )
    relations = cov.TokenRelations(ctx, DELIMS, min_stem, setup)
    for doc in docs + docs[:1]:
        # first-token metadata may also hold the query's anchor stem
        first = data.draw(st.sampled_from(
            (None, "", "ab", "İst", "xyz", doc.split(" ")[0], query.split(" ")[0].upper())
        ))
        has_tokens = data.draw(st.booleans())
        lcs = data.draw(st.sampled_from((0.0, 0.0, 1.0, 3.0, 7.5)))
        prep = cov.prepare_doc(doc, setup.min_word_size, DELIMS)
        bound = _bounds(relations, [doc], [first], setup)[0]
        features = cov.calculate_features(
            ctx, doc, lcs, setup, DELIMS, min_stem, first, has_tokens,
            doc_prep=prep, relations=relations,
        )
        base = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
        score, _ = fusion_calculate(query, doc, features, base)
        assert bound >= score, (query, doc, setup, bound, score)


def test_score_bound_reads_first_token_metadata():
    """The anchor stem can come from the segment's first-token metadata
    alone: here no doc token starts with "abc", yet the metadata does, so
    the anchor-with-run tier (two prefix-matched terms in a row) is set and
    the bound must allow it."""
    setup = CFG.coverage
    query, doc = "abcd efgh ijkl", "zzz efghx ijklx"
    ctx = cov.prepare_query(
        query, setup.min_word_size, DELIMS, CFG.index_sizes,
        lambda t: 1, None, 10, CFG.stop_term_limit,
    )
    relations = cov.TokenRelations(ctx, DELIMS, 3, setup)
    prep = cov.prepare_doc(doc, setup.min_word_size, DELIMS)
    features = cov.calculate_features(
        ctx, doc, 0.0, setup, DELIMS, 3, "ABCDEF", True, doc_prep=prep, relations=relations,
    )
    assert features.fusion.has_anchor_stem and not features.fusion.is_perfect_doc_lexical
    score, _ = fusion_calculate(query, doc, features, 0.0)
    assert int(score) & 0b111 == 1  # the anchor-with-run multi-term tier
    assert _bounds(relations, [doc], ["ABCDEF"], setup)[0] >= score


# extra query words that push the relation bits past one uint64 word
_WIDE = ("ab", "bc", "ca", "abc", "bca", "cab", "ace", "bee", "iba")


@SETTINGS
@given(_case(), st.data())
def test_bulk_score_bounds_match_oracle(case, data):
    """The bulk bound equals the per-candidate oracle on every candidate:
    repeated and unordered chunks, chunks with no coverage token (also the
    last chunk of the table and of the block, where ``reduceat`` has no run
    to end), and queries whose relation bits exceed 64 (Python-int masks).
    The token table holds exactly ``prepare_doc``'s tokens."""
    query, docs = case
    wide = data.draw(st.booleans())
    if wide:
        query += " " + " ".join(data.draw(st.permutations(_WIDE)))
    setup = dataclasses.replace(CFG.coverage, num_typos=data.draw(st.sampled_from((2, 1, 0))))
    min_stem = data.draw(st.integers(1, 4))
    ctx = cov.prepare_query(
        query, setup.min_word_size, DELIMS, CFG.index_sizes,
        lambda t: len(t) % 3, data.draw(st.sampled_from((None, lambda w: len(w) % 4))),
        10, CFG.stop_term_limit,
    )
    relations = cov.TokenRelations(ctx, DELIMS, min_stem, setup)
    assert (relations.n_bits > 64) == wide
    # chunks without coverage tokens: empty, delimiters only, one-char words
    texts = list(docs)
    for t in ("", " - ", "a b", "İ"):
        texts.insert(data.draw(st.integers(0, len(texts))), t)
    texts.append(data.draw(st.sampled_from(("", "x", ", "))))
    firsts = [
        data.draw(st.sampled_from((None, "", "ab", "İst", "xyz", t.split(" ")[0], query[:4].upper())))
        for t in texts
    ]
    table = cov.token_table(texts, firsts, setup.min_word_size, DELIMS)
    preps = [cov.prepare_doc(t, setup.min_word_size, DELIMS) for t in texts]
    for j, prep in enumerate(preps):
        cov_ids = table.cov_ids[table.cov_ptr[j] : table.cov_ptr[j + 1]]
        fus_ids = table.fus_ids[table.fus_ptr[j] : table.fus_ptr[j + 1]]
        assert [table.vocab[i] for i in cov_ids] == prep[4]
        assert tuple(table.vocab[i] for i in fus_ids) == prep[5]
        assert table.at_zero[j] == (bool(prep[2]) and prep[2][0][0] == 0)
        assert table.raw_count[j] == prep[1]
    last = len(texts) - 1
    lids = data.draw(st.lists(st.integers(0, last), min_size=1, max_size=12)) + [last]
    first_lids = [data.draw(st.integers(0, last)) for _ in lids]
    got = cov.score_bounds(relations, table, lids, table, first_lids)
    want = [score_bound(relations, preps[j], firsts[f]) for j, f in zip(lids, first_lids)]
    assert got.tolist() == want, (query, texts, lids)


def test_bulk_score_bounds_match_oracle_with_synonyms(tmp_path):
    """Through the engine's lazily built token table: chunk texts are
    synonym-canonicalized before they are tokenized, so the bound of every
    chunk equals the oracle's on the canonicalized text, and its
    pre-scoring tiebreaker equals ``fusion_calculate``'s on that text, for
    queries that name either word of a synonym group."""
    from infidex_ray.build import build_index_local
    from infidex_ray.engine import Engine

    docs = [
        (1, "car show tickets on sale"), (2, "Automobile show in the city hall"),
        (3, "vintage car auction"), (4, "the automobile club meeting"),
        (5, "boat show downtown"), (6, "an auto-mobile, a car; cars"), (7, "- -"),
    ]
    idx = str(tmp_path / "syn")
    build_index_local(docs, idx, EngineConfig(synonyms=(("car", "automobile"),)), n_segments=2)
    eng = Engine.load(idx)
    assert eng.synonym_map is not None
    setup, delims = eng.cfg.coverage, frozenset(eng.cfg.delimiters)
    for q in ("car show", "automobile auction", "vintage automobile club", "cars", "the aut"):
        ctx = eng._ctx_for(q)
        relations = cov.TokenRelations(ctx, delims, eng.cfg.min_index_size, setup)
        jobs = [(seg.seg_id, lid, 0.0, -1) for seg in eng.segments for lid in range(len(seg.norm_texts))]
        docs_of = [(0, si, lid) for si, lid, _, _ in jobs]
        got = dict(zip(*qp._score_bounds(eng, relations, jobs, docs_of, list(range(len(jobs))))))
        for p, (si, lid, _, _) in enumerate(jobs):
            text = eng.records[si].cov_text(lid)
            prep = cov.prepare_doc(text, setup.min_word_size, delims)
            first = eng.seg_by_id(si).first_tokens[lid]
            features = cov.calculate_features(
                ctx, text, 0.0, setup, delims, eng.cfg.min_index_size, first, True,
                doc_prep=prep, relations=relations,
            )
            _, tb = fusion_calculate(ctx.query, text, features, 0.0)
            assert got[p] == (score_bound(relations, prep, first), tb, 0), (q, text)
    vocab = {t for r in eng.records.values() for t in r.token_table.vocab}
    assert "car" in vocab and "automobile" not in vocab  # canonicalized texts


@SETTINGS
@given(_case(), st.data())
def test_pre_scoring_tiebreaker_matches_fusion(case, data):
    """Pruning ranks a candidate by ``(bound, tiebreaker, -key)`` before
    scoring it, with the tiebreaker read from the token table's text
    lengths and ``TokenRelations.fusion_n`` (``pipeline._tiebreakers``).
    It must equal ``fusion_calculate``'s tiebreaker for every candidate:
    texts without coverage tokens (empty, delimiters only, one-char words),
    queries whose tokens are all below ``min_word_size`` (no features, so
    n = 0), one-term queries, and synonym maps, which canonicalize the
    query and the coverage texts (and so change their lengths)."""
    query, docs = case
    if data.draw(st.integers(0, 5)) == 0:  # every coverage token filtered
        query = " ".join(data.draw(st.lists(st.sampled_from("abcß1-"), min_size=1, max_size=4)))
    texts = list(docs)
    for t in ("", " - ", "a b", "İ"):
        texts.insert(data.draw(st.integers(0, len(texts))), t)
    if data.draw(st.booleans()):
        words = sorted({w for t in [query, *docs] for w in t.split() if w})
        groups = data.draw(st.lists(
            st.lists(st.sampled_from(words + ["automobile", "zz"]), min_size=2, max_size=3),
            max_size=3,
        ))
        smap = SynonymMap(groups)
        query = smap.canonicalize_text(query, DELIMS)
        texts = [smap.canonicalize_text(t, DELIMS) for t in texts]
    setup = CFG.coverage
    min_stem = data.draw(st.integers(1, 4))
    ctx = cov.prepare_query(
        query, setup.min_word_size, DELIMS, CFG.index_sizes,
        lambda t: len(t) % 3, None, 10, CFG.stop_term_limit,
    )
    relations = cov.TokenRelations(ctx, DELIMS, min_stem, setup)
    table = cov.token_table(texts, [None] * len(texts), setup.min_word_size, DELIMS)
    lids = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=12))
    want = []
    for j in lids:
        features = cov.calculate_features(
            ctx, texts[j], 0.0, setup, DELIMS, min_stem, None, True,
            doc_prep=cov.prepare_doc(texts[j], setup.min_word_size, DELIMS),
            relations=relations,
        )
        want.append(fusion_calculate(query, texts[j], features, 0.5)[1])
    assert qp._tiebreakers(relations, table, lids) == want, (query, texts, lids)

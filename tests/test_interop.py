"""INFDX2 import/export: golden-bytes fixture → native segment → rank
parity, plus byte-identical export round-trips.

The writer here is an INDEPENDENT test-only implementation (deliberately
not ``interop.build_infdx2``, so the product writer is cross-checked
against a second assembly of the same layout): it assembles bytes per the
reference layout (IndexPersistence.cs Save, :32-99 — C# BinaryWriter
little-endian primitives, LEB128+UTF-8 strings, XOR-rot7 checksums,
length-prefixed blob, WordMatcher trailer bool) the way
PersistenceTests.cs:77-175 exercises the format.
"""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest

from infidex_ray.build import build_index_local
from infidex_ray.config import EngineConfig
from infidex_ray.engine import Engine
from infidex_ray.interop import (
    Infdx2Error,
    build_infdx2,
    checksum_bytes,
    checksum_words,
    export_infdx2,
    import_infdx2,
    parse_infdx2,
)

DOCS = [
    (10, "the quick brown fox jumps over the lazy dog"),
    (11, "pack my box with five dozen liquor jugs"),
    (12, "the five boxing wizards jump quickly"),
    (13, "quick zephyrs blow vexing daft jim"),
    (14, "sphinx of black quartz judge my vow"),
    (15, "the quick brown fox jumps over the lazy dog"),
]


def _w_string(buf: io.BytesIO, s: str) -> None:
    data = s.encode("utf-8")
    n = len(data)
    while True:  # 7-bit length prefix (C# BinaryWriter.Write(string))
        b = n & 0x7F
        n >>= 7
        buf.write(bytes([b | (0x80 if n else 0)]))
        if not n:
            break
    buf.write(data)


def write_infdx2(docs, terms, deleted=(), has_word_matcher=False) -> bytes:
    """Assemble INFDX2 bytes: docs = [(id, key, text, info)], terms =
    [(text, df, [(doc_id, weight)])]."""
    blob = io.BytesIO()
    blob.write(struct.pack("<i", len(docs)))
    for did, key, text, info in docs:
        blob.write(struct.pack("<i", did))
        blob.write(struct.pack("<q", key))
        _w_string(blob, text)
        _w_string(blob, info)
        blob.write(struct.pack("<i", 0))  # segment
        blob.write(struct.pack("<i", -1))  # jsonIndex
        blob.write(struct.pack("<?", did in deleted))
    blob.write(struct.pack("<i", len(terms)))
    for text, df, postings in terms:
        _w_string(blob, text)
        blob.write(struct.pack("<i", df))
        blob.write(struct.pack("<i", len(postings)))
        for d, w in postings:
            blob.write(struct.pack("<i", d))
            blob.write(struct.pack("<B", w))
    data = blob.getvalue()

    out = io.BytesIO()
    out.write(b"INFDX2")
    flags = 0
    out.write(struct.pack("<I", 2))
    out.write(struct.pack("<I", flags))
    out.write(struct.pack("<I", len(docs)))
    out.write(struct.pack("<I", len(terms)))
    out.write(
        struct.pack(
            "<I", checksum_words([2, flags, len(docs), len(terms)])
        )
    )
    out.write(struct.pack("<I", len(data)))
    out.write(data)
    out.write(struct.pack("<I", checksum_bytes(data)))
    out.write(struct.pack("<?", has_word_matcher))
    return out.getvalue()


def _native_sections(tmp_path):
    """Build DOCS natively, lift the segment's terms/postings into the
    INFDX2 shape — the bytes a C# build of the same corpus would persist
    (analyzer is byte-contract-identical)."""
    out = str(tmp_path / "native")
    build_index_local(DOCS, out, EngineConfig())
    eng = Engine.load(out)
    seg = eng.segments[0]
    keys = seg.doc_keys
    id_of = {int(k): i for i, k in enumerate(keys)}
    docs = [
        (id_of[k], k, t, f"info-{k}")
        for k, t in DOCS
    ]
    docs.sort(key=lambda e: e[0])
    terms = []
    for i, t in enumerate(seg.terms):
        d, w = seg.term_postings(i)
        terms.append(
            (str(t), int(eng.df_lookup(str(t))), list(zip(d.tolist(), w.tolist())))
        )
    return eng, docs, terms


def test_import_roundtrip_rank_identical(tmp_path):
    eng, docs, terms = _native_sections(tmp_path)
    payload = write_infdx2(docs, terms)
    p = tmp_path / "index.infdx2"
    p.write_bytes(payload)

    imp = import_infdx2(str(p), str(tmp_path / "imported"))
    assert imp.total_docs == len(DOCS)
    assert abs(imp.avgdl - eng.avgdl) < 1e-3
    for q in ["quick fox", "boxing wizards", "qick fux", "sphinx quartz", "the"]:
        a = [(h.doc_key, round(h.score, 4)) for h in eng.search(q, top_k=10)]
        b = [(h.doc_key, round(h.score, 4)) for h in imp.search(q, top_k=10)]
        assert a == b, f"query {q!r}: {a} != {b}"


def test_import_deleted_docs_become_tombstones(tmp_path):
    eng, docs, terms = _native_sections(tmp_path)
    dead_key = 12
    dead_id = next(did for did, k, _t, _i in docs if k == dead_key)
    payload = write_infdx2(docs, terms, deleted={dead_id})
    p = tmp_path / "index.infdx2"
    p.write_bytes(payload)
    imp = import_infdx2(str(p), str(tmp_path / "imported_tomb"))
    assert dead_key in imp.deleted
    hits = imp.search("boxing wizards", top_k=10)
    assert all(h.doc_key != dead_key for h in hits)


def test_parse_golden_bytes():
    """Hand-assembled two-doc fixture (PersistenceTests.cs:77-175 layout)."""
    payload = write_infdx2(
        [(0, 100, "alpha beta", "a"), (1, 200, "beta gamma", "b")],
        [
            ("alp", 1, [(0, 1)]),
            ("bet", 2, [(0, 1), (1, 1)]),
        ],
        has_word_matcher=True,
    )
    parsed = parse_infdx2(payload)
    assert parsed["has_word_matcher"] is True
    assert [d[1] for d in parsed["docs"]] == [100, 200]
    assert parsed["docs"][0][2] == "alpha beta"
    t = parsed["terms"][1]
    assert t[0] == "bet" and t[1] == 2
    np.testing.assert_array_equal(t[2], [0, 1])
    np.testing.assert_array_equal(t[3], [1, 1])


def test_parse_rejects_corruption():
    payload = bytearray(
        write_infdx2([(0, 1, "x y z", "")], [("x y", 1, [(0, 1)])])
    )
    with pytest.raises(Infdx2Error, match="checksum"):
        bad = bytearray(payload)
        bad[-10] ^= 0xFF  # flip a data byte → data checksum mismatch
        parse_infdx2(bytes(bad))
    with pytest.raises(Infdx2Error, match="magic"):
        parse_infdx2(b"NOTIDX" + bytes(payload[6:]))
    with pytest.raises(Infdx2Error, match="version"):
        bad = bytearray(payload)
        bad[6] = 9
        parse_infdx2(bytes(bad))


def test_export_byte_roundtrip(tmp_path):
    """import→export reproduces a reference-written file byte for byte
    (text already in normalized form, dense file ids — the lossless case
    the exporter documents)."""
    _eng, docs, terms = _native_sections(tmp_path)
    payload = write_infdx2(docs, terms)
    p = tmp_path / "index.infdx2"
    p.write_bytes(payload)
    import_infdx2(str(p), str(tmp_path / "imp_rt"))
    out = export_infdx2(str(tmp_path / "imp_rt"))
    assert out == payload


def test_export_deleted_and_trailer_roundtrip(tmp_path):
    _eng, docs, terms = _native_sections(tmp_path)
    dead_id = next(did for did, k, _t, _i in docs if k == 13)
    payload = write_infdx2(
        docs, terms, deleted={dead_id}, has_word_matcher=True
    )
    p = tmp_path / "index.infdx2"
    p.write_bytes(payload)
    import_infdx2(str(p), str(tmp_path / "imp_rt2"))
    out = export_infdx2(str(tmp_path / "imp_rt2"), str(tmp_path / "re.infdx2"))
    assert out == payload
    assert (tmp_path / "re.infdx2").read_bytes() == payload


def test_native_export_reimport_rank_identical(tmp_path):
    """A natively-built index exports to INFDX2 and the exported file
    serves rank-identically when imported back — i.e. the bytes carry the
    complete ranking state a C# engine would rebuild from on load."""
    native = str(tmp_path / "native_exp")
    build_index_local(DOCS, native, EngineConfig())
    eng = Engine.load(native)
    out_file = tmp_path / "native.infdx2"
    export_infdx2(native, str(out_file))
    parsed = parse_infdx2(out_file.read_bytes())
    assert len(parsed["docs"]) == len(DOCS)
    assert parsed["has_word_matcher"] is False
    imp = import_infdx2(str(out_file), str(tmp_path / "native_reimp"))
    for q in ["quick fox", "boxing wizards", "qick fux", "sphinx quartz", "the"]:
        a = [(h.doc_key, round(h.score, 4)) for h in eng.search(q, top_k=10)]
        b = [(h.doc_key, round(h.score, 4)) for h in imp.search(q, top_k=10)]
        assert a == b, f"query {q!r}: {a} != {b}"


def test_build_infdx2_matches_independent_writer():
    """Product writer vs the test-only writer: same sections → same bytes."""
    docs = [
        (0, 100, "alpha beta", "a", 0, -1, False),
        (1, 200, "beta gamma", "b", 0, -1, True),
    ]
    terms = [
        ("alp", 1, np.array([0]), np.array([1], dtype=np.uint8)),
        ("bet", 2, np.array([0, 1]), np.array([1, 7], dtype=np.uint8)),
        ("stop", 0, np.array([], dtype=np.int64), np.array([], dtype=np.uint8)),
    ]
    ours = build_infdx2(docs, terms, has_word_matcher=True)
    ref = write_infdx2(
        [(0, 100, "alpha beta", "a"), (1, 200, "beta gamma", "b")],
        [("alp", 1, [(0, 1)]), ("bet", 2, [(0, 1), (1, 7)])],
        deleted={1},
        has_word_matcher=True,
    )
    assert ours == ref


@pytest.mark.parametrize("where", ["posting", "document"])
def test_build_infdx2_rejects_doc_id_outside_int32(where):
    """INFDX2 doc ids are int32: 2**31 must fail loudly, not wrap into a
    corrupt file whose checksums still pass."""
    big = 2**31
    docs = [(big if where == "document" else 0, 100, "alpha", "a", 0, -1, False)]
    ids = np.array([big if where == "posting" else 0], dtype=np.int64)
    terms = [("alp", 1, ids, np.array([1], dtype=np.uint8))]
    with pytest.raises(Infdx2Error, match="int32"):
        build_infdx2(docs, terms)


def test_export_preserves_stop_term_header_skew(tmp_path):
    """Reference files write header term_count INCLUDING stop terms the
    blob omits (WriteTerms filters df>0) — the skewed header must
    round-trip byte-identically via the sidecar."""
    _eng, docs, terms = _native_sections(tmp_path)
    payload = bytearray(write_infdx2(docs, terms))
    # patch the header term count up by 7 (simulated stop terms) and
    # recompute the header checksum the way the reference writes it
    import struct as _s

    n_terms_skewed = len(terms) + 7
    payload[18:22] = _s.pack("<I", n_terms_skewed)
    payload[22:26] = _s.pack(
        "<I", checksum_words([2, 0, len(docs), n_terms_skewed])
    )
    payload = bytes(payload)
    parsed = parse_infdx2(payload)
    assert parsed["term_count_header"] == n_terms_skewed
    p = tmp_path / "skew.infdx2"
    p.write_bytes(payload)
    import_infdx2(str(p), str(tmp_path / "imp_skew"))
    assert export_infdx2(str(tmp_path / "imp_skew")) == payload

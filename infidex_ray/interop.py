"""INFDX2 import — read the reference's canonical single-file index format.

The reference persists its whole index as one ``INFDX2`` v2 binary
(src/Infidex/Indexing/IndexPersistence.cs:15-50: magic + version + flags +
doc/term counts + XOR-rotate header checksum, then a length-prefixed data
blob holding the documents and terms sections followed by optional
FST/short-query/metadata sections, then a blob checksum;
src/Infidex/SearchEngine.cs:385-442 wraps it with a WordMatcher trailer).

The module is bidirectional: :func:`import_infdx2` parses a
reference-written file and materializes the documents + posting lists into
a native infidex_ray segment tree, and :func:`export_infdx2` serializes a
native index tree back into the reference byte format (flags=0 — the
optional FST/short-query/metadata cache sections are rebuild caches the C#
loader regenerates, so omitting them is a valid, loadable file). An
imported index re-exports byte-identically when the source file's terms
are in sorted order with dense in-order doc ids — what this exporter (and
the golden fixtures) write; files with other term enumeration orders
(C# Dictionary order is arbitrary) re-export as a semantically identical
NORMALIZED file (sorted terms, header term count and stop-term skew
preserved via the ``interop.json`` sidecar). ``Engine.save_file`` remains
this repo's own portable container. Derived structures (doc lengths, word-IDF, short-query
artifacts, word matcher, term dictionary) are REBUILT natively — exactly
what the reference itself does on load (``SearchEngine.Load`` →
``VectorModel.CalculateWeights``, SearchEngine.cs:423-427): doc length =
Σ posting weights per doc (BuildInvertedLists, VectorModel.cs:130-221),
word-IDF and metadata from the stored ``IndexedText``. The optional
FST / short-query / metadata-cache blob sections are therefore skipped —
they are caches of exactly what the rebuild produces.

Limitations (documented, not silent): per-field boundaries are not stored
in INFDX2 (the reference's own loader reconstitutes every document as one
``content`` field, IndexPersistence.cs:330-343), so an imported index
serves with the file's field-weighted postings but new coverage passes see
the concatenated text.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"INFDX2"
FORMAT_VERSION = 2

FLAG_HAS_FST = 1 << 0
FLAG_HAS_SHORT_QUERY = 1 << 1
FLAG_HAS_WORD_MATCHER = 1 << 2
FLAG_COMPRESSED = 1 << 3
FLAG_HAS_DOC_METADATA = 1 << 4


class Infdx2Error(ValueError):
    """Malformed / corrupted INFDX2 input."""


def _rotl32(v: int, n: int) -> int:
    v &= 0xFFFFFFFF
    return ((v << n) | (v >> (32 - n))) & 0xFFFFFFFF


def checksum_words(values) -> int:
    """IndexPersistence.CalculateSimpleChecksum(uint[]) — XOR + rot7."""
    c = 0x12345678
    for v in values:
        c ^= v & 0xFFFFFFFF
        c = _rotl32(c, 7)
    return c


def checksum_bytes(data: bytes) -> int:
    """IndexPersistence.CalculateSimpleChecksum(byte[]): little-endian
    4-byte words (zero-padded tail), XOR + rot7."""
    c = 0x12345678
    n = len(data)
    full = n - (n % 4)
    if full:
        for (v,) in struct.iter_unpack("<I", data[:full]):
            c ^= v
            c = _rotl32(c, 7)
    if full < n:
        v = 0
        for j, b in enumerate(data[full:]):
            v |= b << (j * 8)
        c ^= v
        c = _rotl32(c, 7)
    return c


class _Reader:
    """Little-endian cursor over bytes with C# BinaryReader semantics."""

    def __init__(self, data: bytes):
        self.d = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.d):
            raise Infdx2Error("unexpected end of INFDX2 data")
        out = self.d[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def u8(self) -> int:
        return self._take(1)[0]

    def boolean(self) -> bool:
        return self.u8() != 0

    def string(self) -> str:
        """C# BinaryReader.ReadString: LEB128 byte length + UTF-8."""
        length = 0
        shift = 0
        while True:
            b = self.u8()
            length |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
            if shift > 35:
                raise Infdx2Error("bad 7-bit string length")
        return self._take(length).decode("utf-8")

    @property
    def remaining(self) -> int:
        return len(self.d) - self.pos


_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1


class _Writer:
    """Little-endian byte assembler with C# BinaryWriter semantics
    (IndexPersistence.Save uses BinaryWriter, :33-101)."""

    def __init__(self):
        self.b = bytearray()

    def raw(self, data: bytes) -> None:
        self.b += data

    def u32(self, v: int) -> None:
        self.b += struct.pack("<I", v & 0xFFFFFFFF)

    def i32(self, v: int) -> None:
        if not _I32_MIN <= v <= _I32_MAX:
            raise Infdx2Error(f"{v} does not fit an INFDX2 int32 field")
        self.b += struct.pack("<i", v)

    def i64(self, v: int) -> None:
        self.b += struct.pack("<q", v)

    def boolean(self, v: bool) -> None:
        self.b += b"\x01" if v else b"\x00"

    def string(self, s: str) -> None:
        """C# BinaryWriter.Write(string): LEB128 byte length + UTF-8."""
        data = s.encode("utf-8")
        n = len(data)
        while True:
            b7 = n & 0x7F
            n >>= 7
            self.b.append(b7 | (0x80 if n else 0))
            if not n:
                break
        self.b += data


_POSTING_DTYPE = np.dtype([("d", "<i4"), ("w", "u1")])


def build_infdx2(
    docs, terms, has_word_matcher: bool = False, header_term_count: int | None = None
) -> bytes:
    """Assemble INFDX2 v2 bytes (IndexPersistence.Save layout, :33-101).

    ``docs``  = [(id, key, text, info, segment, json_idx, deleted)] —
    WriteDocuments (:293-306); ``terms`` = [(text, df, doc_ids, weights)]
    with numpy arrays — WriteTerms packed (int32 doc id, uint8 weight)
    postings (:350-374). Flags are 0 (no FST/short-query/metadata cache
    sections — the C# loader rebuilds those on load) and the SearchEngine
    WordMatcher trailer bool (SearchEngine.cs:392-395) is appended.
    ``header_term_count`` overrides the header's term count (the
    reference writes ``terms.Count`` INCLUDING stop terms, which the blob
    omits, :56/:356 — its loader tolerates the mismatch and so does
    :func:`parse_infdx2`); default = the persisted term count."""
    blob = _Writer()
    blob.i32(len(docs))
    for did, key, text, info, segment, json_idx, deleted in docs:
        blob.i32(int(did))
        blob.i64(int(key))
        blob.string(text or "")
        blob.string(info or "")
        blob.i32(int(segment))
        blob.i32(int(json_idx))
        blob.boolean(bool(deleted))
    n_terms = 0
    tw = _Writer()
    for text, df, doc_ids, weights in terms:
        if int(df) <= 0:  # WriteTerms skips df==0 stop terms (:356)
            continue
        n_terms += 1
        tw.string(text)
        tw.i32(int(df))
        n = len(doc_ids)
        tw.i32(n)
        if n:
            ids = np.asarray(doc_ids, dtype=np.int64)
            if ids.min() < _I32_MIN or ids.max() > _I32_MAX:
                # the format is int32 throughout: a silent wrap would write
                # a corrupt file whose checksums still pass
                raise Infdx2Error(f"term {text!r}: a posting doc id does not fit int32")
            rec = np.empty(n, dtype=_POSTING_DTYPE)
            rec["d"] = ids.astype(np.int32)
            rec["w"] = np.asarray(weights, dtype=np.uint8)
            tw.raw(rec.tobytes())
    blob.i32(n_terms)
    blob.raw(bytes(tw.b))
    data = bytes(blob.b)

    hdr_terms = n_terms if header_term_count is None else int(header_term_count)
    out = _Writer()
    out.raw(MAGIC)
    flags = 0
    out.u32(FORMAT_VERSION)
    out.u32(flags)
    out.u32(len(docs))
    out.u32(hdr_terms)
    out.u32(checksum_words([FORMAT_VERSION, flags, len(docs), hdr_terms]))
    out.u32(len(data))
    out.raw(data)
    out.u32(checksum_bytes(data))
    out.boolean(has_word_matcher)
    return bytes(out.b)


def export_infdx2(index_dir: str, out_path: str | None = None) -> bytes:
    """Serialize a native index tree into the reference's ``INFDX2`` v2
    single-file byte format, loadable by the C# engine
    (IndexPersistence.Load rebuilds doc lengths / word-IDF / short-query
    artifacts on load, SearchEngine.cs:423-427, so only documents + terms
    + postings need to travel).

    Documents are emitted in manifest segment order with dense internal
    ids; ``IndexedText`` is the stored normalized text (exactly what the
    reference persists), ``DocumentClientInformation`` the stored url/info.
    Tombstoned keys export with the Deleted flag. A ``json_idx`` sidecar
    written by :func:`import_infdx2` is honored so import→export
    round-trips byte-identically; native builds write JsonIndex=0 (the
    reference Document default, Core/Document.cs:81).

    Like the reference's own Save, this is a driver-side single-file dump —
    the whole vocabulary streams through one process by design; use the
    native partitioned tree for anything cluster-scale."""
    from . import vocabstats
    from .segments import read_segment

    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    tomb_path = os.path.join(index_dir, "tombstones.json")
    deleted_keys: set[int] = set()
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            deleted_keys = set(json.load(f))
    sidecar = {}
    sc_path = os.path.join(index_dir, "interop.json")
    if os.path.exists(sc_path):
        with open(sc_path) as f:
            sidecar = json.load(f)

    docs = []
    post_map: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    base = 0
    for seg_meta in manifest["segments"]:
        seg = read_segment(
            os.path.join(index_dir, "segments", seg_meta["name"]), mmap=False
        )
        n = len(seg.doc_keys)
        for i in range(n):
            key = int(seg.doc_keys[i])
            docs.append(
                (
                    base + i,
                    key,
                    seg.norm_texts[i],
                    seg.urls[i],
                    int(seg.seg_numbers[i]),
                    0,
                    key in deleted_keys,
                )
            )
        for t in range(len(seg.terms)):
            d, w = seg.term_postings(t)
            post_map.setdefault(str(seg.terms[t]), []).append(
                (d.astype(np.int64) + base, w)
            )
        base += n

    json_idx = sidecar.get("json_idx")
    if json_idx is not None and len(json_idx) == len(docs):
        docs = [
            (did, key, text, info, segment, json_idx[did], dl)
            for (did, key, text, info, segment, _j, dl) in docs
        ]

    df_lookup = vocabstats.open_lookup(index_dir, "term", manifest)
    df_terms = df_lookup.terms.tolist()
    missing = set(post_map) - set(df_terms)
    if missing:  # a segment term absent from the df stats would silently
        # export with no df row — that is index corruption, surface it
        raise Infdx2Error(
            f"{len(missing)} segment terms missing from df stats "
            f"(e.g. {sorted(missing)[:3]})"
        )
    terms = []
    for text, df in zip(df_terms, df_lookup.dfs.tolist()):
        chunks = post_map.get(text)
        if chunks is None:
            doc_ids = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.uint8)
        elif len(chunks) == 1:
            doc_ids, weights = chunks[0]
        else:
            doc_ids = np.concatenate([c[0] for c in chunks])
            weights = np.concatenate([c[1] for c in chunks])
        terms.append((text, int(df), doc_ids, weights))

    payload = build_infdx2(
        docs,
        terms,
        has_word_matcher=bool(sidecar.get("has_word_matcher")),
        header_term_count=sidecar.get("header_term_count"),
    )
    if out_path is not None:
        with open(out_path, "wb") as f:
            f.write(payload)
    return payload


def parse_infdx2(data: bytes) -> dict:
    """Parse an INFDX2 byte stream (IndexPersistence.Load, :103-205).

    Returns ``{"flags", "docs": [(id, key, text, info, segment, json_idx,
    deleted)], "terms": [(text, df, doc_ids, weights)], "has_word_matcher"}``.
    Header and data checksums are verified; FST / short-query / metadata
    cache sections and the WordMatcher trailer are validated for presence
    but not decoded (see module docstring)."""
    r = _Reader(data)
    if r._take(6) != MAGIC:
        raise Infdx2Error("invalid index magic: expected INFDX2")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise Infdx2Error(
            f"unsupported index version {version}; expected {FORMAT_VERSION}"
        )
    flags = r.u32()
    doc_count = r.u32()
    term_count = r.u32()
    header_checksum = r.u32()
    if header_checksum != checksum_words(
        [FORMAT_VERSION, flags, doc_count, term_count]
    ):
        raise Infdx2Error("header checksum mismatch")
    if flags & FLAG_COMPRESSED:
        # reserved by the reference (IndexPersistence.IndexFlags.Compressed)
        # — without this guard the blob parse would die with a misleading
        # count/EOF error
        raise Infdx2Error("compressed INFDX2 blobs are not supported")
    data_length = r.u32()
    blob = r._take(data_length)
    data_checksum = r.u32()
    if data_checksum != checksum_bytes(blob):
        raise Infdx2Error("data checksum mismatch")

    br = _Reader(blob)
    # documents section (WriteDocuments, :290-306)
    n_docs = br.i32()
    if n_docs != doc_count:
        raise Infdx2Error(
            f"document count mismatch: header {doc_count}, data {n_docs}"
        )
    docs = []
    for _ in range(n_docs):
        did = br.i32()
        key = br.i64()
        text = br.string()
        info = br.string()
        segment = br.i32()
        json_idx = br.i32()
        deleted = br.boolean()
        docs.append((did, key, text, info, segment, json_idx, deleted))

    # terms section (WriteTerms, :350-380); count may be < header term
    # count (stop terms are not persisted)
    n_terms = br.i32()
    terms = []
    for _ in range(n_terms):
        text = br.string()
        df = br.i32()
        n_post = br.i32()
        if n_post:
            rec = np.frombuffer(
                br._take(5 * n_post), dtype=np.dtype([("d", "<i4"), ("w", "u1")])
            )
            doc_ids = rec["d"].astype(np.int64)
            weights = rec["w"].copy()
        else:
            doc_ids = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.uint8)
        terms.append((text, df, doc_ids, weights))

    # trailer after the checksummed blob: SearchEngine.Save writes a bool +
    # optional WordMatcher payload (SearchEngine.cs:392-395)
    has_wm = r.boolean() if r.remaining else False
    return {
        "flags": flags,
        "docs": docs,
        "terms": terms,
        "has_word_matcher": has_wm,
        # header term count INCLUDES stop terms the blob omits (WriteTerms
        # filters df>0, :356) — kept so export can round-trip the header
        "term_count_header": term_count,
    }


def import_infdx2(file_path: str, out_dir: str, cfg=None):
    """Import a reference-written ``INFDX2`` file into a native index tree
    under ``out_dir`` and return the serving :class:`~infidex_ray.engine.
    Engine`. Postings, weights and df come from the FILE (preserving any
    field weighting the C# build applied); doc lengths, word-IDF,
    short-query artifacts and the word matcher are rebuilt natively from
    the stored documents — the same derivation the reference runs on load
    (VectorModel.CalculateWeights). Deleted documents become tombstones."""
    from . import vocabstats
    from .analyzer import normalize_with
    from .build import _finish_segment, manifest_config
    from .config import EngineConfig
    from .engine import Engine
    from .vocabstats import df_table, sum_df

    cfg = cfg or EngineConfig()
    with open(file_path, "rb") as f:
        parsed = parse_infdx2(f.read())

    docs = parsed["docs"]
    # internal file ids → dense local ids (file order; ids are arbitrary)
    id_map = {did: i for i, (did, *_rest) in enumerate(docs)}
    if len(id_map) != len(docs):
        raise Infdx2Error("duplicate internal document ids")
    urls = [info for (_d, _k, _t, info, _s, _j, _del) in docs]
    keys = np.asarray([k for (_d, k, *_r) in docs], dtype=np.int64)
    texts = [t for (_d, _k, t, *_r) in docs]
    seg_numbers = [s for (_d, _k, _t, _i, s, _j, _del) in docs]
    deleted_keys = [k for (_d, k, _t, _i, _s, _j, dl) in docs if dl]

    norm_texts = [normalize_with(cfg.normalizer, t or "") for t in texts]
    lower_texts = [t.lower() for t in norm_texts]

    # terms sorted; postings per term sorted by local doc id; doc length =
    # Σ posting weights (BuildInvertedLists parity, VectorModel.cs:130-221)
    doc_len = np.zeros(len(docs), dtype=np.float64)
    term_rows = []
    empty_df: dict[str, int] = {}  # df-only terms (no persisted postings)
    for text, df, doc_ids, weights in parsed["terms"]:
        if len(doc_ids) == 0:
            empty_df[text] = empty_df.get(text, 0) + int(df)
            continue
        local = np.asarray(
            [id_map[int(d)] for d in doc_ids], dtype=np.int64
        )
        order = np.argsort(local, kind="stable")
        local, weights = local[order], weights[order]
        np.add.at(doc_len, local, weights.astype(np.float64))
        term_rows.append((text, int(df), local.astype(np.uint32), weights))
    term_rows.sort(key=lambda e: e[0])

    seg_dir = os.path.join(out_dir, "segments", "seg-0000")
    meta = _finish_segment(
        urls,
        norm_texts,
        lower_texts,
        keys,
        seg_numbers,
        doc_len.astype(np.float32),
        [t for t, _df, _d, _w in term_rows],
        np.asarray([df for _t, df, _d, _w in term_rows], dtype=np.int64),
        (
            np.cumsum([0] + [len(d) for _t, _df, d, _w in term_rows]),
            np.concatenate([np.empty(0, np.uint32)] + [d for _t, _df, d, _w in term_rows]),
            np.concatenate([np.empty(0, np.uint8)] + [w for _t, _df, _d, w in term_rows]),
        ),
        cfg,
        seg_dir,
        {"source": os.path.abspath(file_path), "format": "INFDX2"},
        None,
        0.0,
        0.0,
    )

    vocabstats.write_vocab(out_dir, {
        "term": sum_df(  # keep df-only terms in the idf stats
            [
                df_table("term", meta["terms"], meta["term_df"]),
                df_table("term", list(empty_df), list(empty_df.values())),
            ],
            "term",
        ),
        "word": sum_df([meta["word_df"]], "word").rename_columns(["term", "df"]),
    })
    n_docs = len(docs)
    sum_dl = float(doc_len.sum())
    stats = {
        "total_docs": n_docs,
        "sum_doc_len": sum_dl,
        "avg_doc_len": (sum_dl / n_docs) if n_docs else 0.0,
        "n_segments": 1,
    }
    vocabstats.write_stats(out_dir, stats)
    manifest = {
        "version": 1,
        "config": manifest_config(cfg),
        "stats": stats,
        "segments": [
            {
                "name": "seg-0000",
                "n_docs": n_docs,
                "lineage": meta.get("lineage", {}),
            }
        ],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    # interop sidecar: preserve per-doc JsonIndex and the trailer flag
    # (not used for serving) so export_infdx2 can round-trip the file
    # byte-identically
    with open(os.path.join(out_dir, "interop.json"), "w") as f:
        json.dump(
            {
                "json_idx": [j for (_d, _k, _t, _i, _s, j, _dl) in docs],
                "has_word_matcher": parsed["has_word_matcher"],
                "header_term_count": parsed["term_count_header"],
            },
            f,
        )
    if deleted_keys:
        with open(os.path.join(out_dir, "tombstones.json"), "w") as f:
            json.dump(sorted(deleted_keys), f)
    return Engine.load(out_dir, cfg)

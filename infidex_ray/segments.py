"""Immutable index segments: posting-list codec + segment write/read/merge.

A segment is the Ray analogue of the reference's flushed INFS disk segment
(reference: src/Infidex/Indexing/Segments/SegmentWriter.cs:13-94,
SegmentReader.cs:33-168): one doc-range partition of the corpus with

* ``terms.parquet``   — sorted term dictionary (term, df, offset, n_postings,
  max_weight) — replaces the reference's FST + Elias-Fano offset table with a
  sorted Arrow table + binary search (SURVEY §2.9: on-disk bit layout is not
  part of the rank contract).
* ``postings.bin``    — per-term compressed posting blocks: frame-of-reference
  delta-encoded doc ids (width 1/2/4 bytes) + raw uint8 weights + per-128-block
  max-weight skip metadata (block-max, mirroring BlockPostingsWriter.cs:97-106).
* ``docmap.parquet``  — local doc id → (doc_key, url, norm_text, doc_len,
  first_token, token_count).
* ``meta.json``       — stats + lineage + per-stage metrics; ``_SUCCESS``
  marker for checkpoint/resume.

Postings reach the writer as one CSR — list offsets (int64, terms+1),
concatenated doc ids (uint32), concatenated weights (uint8) — and
``encode_csr`` turns every list into its blob in one vectorized pass, so
``postings.bin`` is one write. Build, merge, incremental add and INFDX2
import all hand over a CSR.

Doc ids are segment-local (dense, 0..n-1, in input order); global identity is
``doc_key``. Segments are doc-range disjoint by construction, so k-way merge
concatenates postings (SegmentMerger.cs:13-136 semantics).
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BLOCK_SIZE = 128  # postings per skip block (BlockPostingsWriter.cs:7-9 uses 64-256)

# header reserved byte doubles as the format version: 0 = round-1/2 blobs
# (block_max only), 1 = adds a block-anchor skip table (first doc id per
# block) so any block decodes independently — the skip-table rows of
# BlockPostingsWriter.cs:97-106 (minDoc, offset, maxWeight) in columnar form.
_FMT_V1 = 1

_HEADER = struct.Struct("<IBB")  # n_postings, delta_width, version


def _scatter(buf: np.ndarray, dst: np.ndarray, lens: np.ndarray, src: np.ndarray) -> None:
    """Copy ``src`` — runs of ``lens`` bytes laid end to end — into ``buf``
    with run i starting at ``dst[i]``."""
    idx = np.repeat(dst - (np.cumsum(lens) - lens), lens)
    idx += np.arange(len(src), dtype=np.int64)
    buf[idx] = src


def encode_csr(
    offsets: np.ndarray, doc_ids: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode every posting list of a CSR in one vectorized pass: list i is
    ``doc_ids[offsets[i]:offsets[i+1]]`` (sorted, non-empty) with its
    ``weights``; each becomes one blob, blobs laid end to end.

    Blob layout (v1): header(n, width, 1) | first_doc u32 | deltas
    (n-1)*width | weights n*u8 | block_max ceil(n/B)*u8 | block_anchor
    ceil(n/B)*u32. ``width`` (1/2/4) is the smallest that holds the list's
    largest delta; ``block_anchor[j]`` is the first doc id of block j, so a
    reader decodes block j alone (the skip-table advance of
    MMapBlockPostingsEnum.cs:6-303) and ``block_max`` feeds block-max score
    bounds — BlockPostingsWriter.cs:97-106 over all lists at once.

    Returns (buffer u8, blob offset i64, nbytes i32, n_postings i32,
    max_weight u8), the last four per list."""
    offsets = np.asarray(offsets, dtype=np.int64)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint32)
    weights = np.ascontiguousarray(weights, dtype=np.uint8)
    starts = offsets[:-1]
    n = np.diff(offsets)
    assert (n > 0).all() and offsets[-1] == len(doc_ids) == len(weights)

    deltas = np.diff(doc_ids, prepend=doc_ids[:1])
    deltas[starts] = 0  # a list's first doc is stored whole, not as a delta
    max_delta = np.maximum.reduceat(deltas, starts)
    width = np.where(max_delta < 1 << 8, 1, np.where(max_delta < 1 << 16, 2, 4))
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    head = _HEADER.size + 4
    nbytes = head + (n - 1) * width + n + 5 * n_blocks
    blob_off = np.cumsum(nbytes) - nbytes
    buf = np.empty(int(nbytes.sum()), dtype=np.uint8)

    # header + first doc: one packed 10-byte record per list
    rec = np.empty(len(n), dtype=[("n", "<u4"), ("w", "u1"), ("v", "u1"), ("d", "<u4")])
    rec["n"], rec["w"], rec["v"], rec["d"] = n, width, _FMT_V1, doc_ids[starts]
    _scatter(buf, blob_off, np.full(len(n), head), rec.view(np.uint8))

    body = np.ones(len(doc_ids), dtype=bool)
    body[starts] = False
    for w, dt in ((1, "<u1"), (2, "<u2"), (4, "<u4")):
        lists = width == w
        if lists.any():
            src = deltas[body & np.repeat(lists, n)].astype(dt).view(np.uint8)
            _scatter(buf, blob_off[lists] + head, (n[lists] - 1) * w, src)

    w_off = blob_off + head + (n - 1) * width
    _scatter(buf, w_off, n, weights)
    # block starts: list i's blocks begin at starts[i] + j*B, j < n_blocks[i]
    first_block = np.cumsum(n_blocks) - n_blocks
    block_start = np.repeat(starts - first_block * BLOCK_SIZE, n_blocks)
    block_start += np.arange(len(block_start), dtype=np.int64) * BLOCK_SIZE
    _scatter(buf, w_off + n, n_blocks, np.maximum.reduceat(weights, block_start))
    anchors = doc_ids[block_start].astype("<u4").view(np.uint8)
    _scatter(buf, w_off + n + n_blocks, 4 * n_blocks, anchors)
    return (
        buf,
        blob_off,
        nbytes.astype(np.int32),
        n.astype(np.int32),
        np.maximum.reduceat(weights, starts),
    )


def decode_postings(buf: memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode a posting blob → (doc_ids uint32, weights uint8). Zero-copy for
    the weight bytes; doc ids are reconstructed via cumsum."""
    n, width, _ = _HEADER.unpack_from(buf, 0)
    off = _HEADER.size
    first = struct.unpack_from("<I", buf, off)[0]
    off += 4
    dt = {1: np.uint8, 2: np.uint16, 4: np.uint32}[width]
    deltas = np.frombuffer(buf, dtype=dt, count=n - 1, offset=off)
    off += (n - 1) * width
    weights = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off)
    doc_ids = np.empty(n, dtype=np.uint32)
    doc_ids[0] = first
    if n > 1:
        np.cumsum(deltas, out=doc_ids[1:], dtype=np.uint32)
        doc_ids[1:] += first
    return doc_ids, weights


def decode_block_max(buf: memoryview) -> np.ndarray:
    n, width, _ = _HEADER.unpack_from(buf, 0)
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    off = _HEADER.size + 4 + (n - 1) * width + n
    return np.frombuffer(buf, dtype=np.uint8, count=n_blocks, offset=off)


def decode_block_meta(buf: memoryview) -> tuple[np.ndarray, np.ndarray] | None:
    """(block_anchors u32, block_max u8) for a v1 blob; None for legacy v0
    blobs (no anchors → callers fall back to full decode)."""
    n, width, version = _HEADER.unpack_from(buf, 0)
    if version < _FMT_V1:
        return None
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    off = _HEADER.size + 4 + (n - 1) * width + n
    block_max = np.frombuffer(buf, dtype=np.uint8, count=n_blocks, offset=off)
    anchors = np.frombuffer(
        buf, dtype=np.uint32, count=n_blocks, offset=off + n_blocks
    )
    return anchors, block_max


def decode_postings_subset_or_none(
    buf: memoryview, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Block-skip decode: reconstruct ONLY the blocks that could contain any
    of ``targets`` (sorted doc ids) — the vectorized analogue of the skip-
    table Advance in MMapBlockPostingsEnum.cs:6-303. Returns the (doc_ids,
    weights) of the touched blocks (a superset of the matching postings,
    exact for membership probes), or None when skipping cannot pay (legacy
    blob, tiny list, or most blocks touched) — callers should then use the
    full decode and CACHE it (repeated fallback decodes were the round-3
    profile's top stage-1 cost)."""
    meta = decode_block_meta(buf)
    if meta is None:
        return None
    anchors, _ = meta
    n, width, _v = _HEADER.unpack_from(buf, 0)
    n_blocks = len(anchors)
    if n_blocks <= 2:
        return None
    # targets are sorted → searchsorted output is non-decreasing: dedupe
    # with a diff mask instead of np.unique's sort
    pos = np.searchsorted(anchors, targets, side="right") - 1
    if len(pos):
        keep = np.empty(len(pos), dtype=bool)
        keep[0] = True
        np.not_equal(pos[1:], pos[:-1], out=keep[1:])
        blocks = pos[keep]
        blocks = blocks[blocks >= 0]
    else:
        blocks = pos
    if len(blocks) * 2 >= n_blocks:  # touching most blocks → decode all
        return None
    off = _HEADER.size
    first = struct.unpack_from("<I", buf, off)[0]
    off += 4
    dt = {1: np.uint8, 2: np.uint16, 4: np.uint32}[width]
    deltas = np.frombuffer(buf, dtype=dt, count=n - 1, offset=off)
    weights_all = np.frombuffer(
        buf, dtype=np.uint8, count=n, offset=off + (n - 1) * width
    )
    # decode contiguous block runs in one cumsum each
    out_docs: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    i = 0
    while i < len(blocks):
        j = i
        while j + 1 < len(blocks) and blocks[j + 1] == blocks[j] + 1:
            j += 1
        b0, b1 = int(blocks[i]), int(blocks[j])
        lo = b0 * BLOCK_SIZE
        hi = min((b1 + 1) * BLOCK_SIZE, n)
        docs = np.empty(hi - lo, dtype=np.uint32)
        docs[0] = anchors[b0] if lo > 0 else first
        if hi - lo > 1:
            np.cumsum(deltas[lo : hi - 1], out=docs[1:], dtype=np.uint32)
            docs[1:] += docs[0]
        out_docs.append(docs)
        out_w.append(weights_all[lo:hi])
        i = j + 1
    if not out_docs:
        return np.empty(0, np.uint32), np.empty(0, np.uint8)
    return np.concatenate(out_docs), np.concatenate(out_w)


def decode_postings_subset(
    buf: memoryview, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Block-skip decode with an inline full-decode fallback (see
    :func:`decode_postings_subset_or_none` — prefer that in hot paths so
    the fallback decode can be cached)."""
    sub = decode_postings_subset_or_none(buf, targets)
    return decode_postings(buf) if sub is None else sub


TERMS_SCHEMA = pa.schema(
    [
        ("term", pa.large_string()),
        ("df", pa.int64()),
        ("offset", pa.int64()),
        ("nbytes", pa.int32()),
        ("n_postings", pa.int32()),
        ("max_weight", pa.uint8()),
    ]
)

DOCMAP_SCHEMA = pa.schema(
    [
        ("local_id", pa.int32()),
        ("doc_key", pa.int64()),
        ("url", pa.large_string()),
        ("norm_text", pa.large_string()),
        ("doc_len", pa.float32()),
        ("first_token", pa.large_string()),
        ("token_count", pa.int32()),
        ("seg_number", pa.int32()),
    ]
)


def write_segment(
    seg_dir: str,
    terms: list[str] | pa.Array,
    term_df: np.ndarray,
    postings: tuple[np.ndarray, np.ndarray, np.ndarray],
    docmap: dict,
    meta: dict,
    extra_tables: dict | None = None,
) -> tuple[pa.Table, pa.Table, dict]:
    """Write one immutable segment. ``terms`` must be sorted; ``postings``
    is the CSR ``(offsets, doc_ids, weights)`` whose list i
    (``offsets[i]:offsets[i+1]``) belongs to terms[i]. ``meta["timings_s"]``
    gains the ``encode`` and ``write`` wall times. Idempotent: writes to a
    tmp dir then renames (safe for Ray task retries).

    Returns the term table, doc table and meta (as ``meta.json`` reads
    back) it wrote: with ``extra_tables`` they are what
    :func:`segment_from_tables` needs to open the segment without reading
    its files back."""
    tmp = seg_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    meta = dict(meta)
    timings = meta["timings_s"] = dict(meta.get("timings_s", {}))

    t0 = time.perf_counter()
    buf, offsets, nbytes, nposts, maxw = encode_csr(*postings)
    t1 = time.perf_counter()
    with open(os.path.join(tmp, "postings.bin"), "wb") as f:
        f.write(buf)

    term_table = pa.table(
        {
            "term": pa.array(terms, type=pa.large_string()),
            "df": pa.array(term_df, type=pa.int64()),
            "offset": offsets,
            "nbytes": nbytes,
            "n_postings": nposts,
            "max_weight": maxw,
        },
        schema=TERMS_SCHEMA,
    )
    pq.write_table(term_table, os.path.join(tmp, "terms.parquet"))

    doc_table = pa.table(docmap, schema=DOCMAP_SCHEMA)
    pq.write_table(doc_table, os.path.join(tmp, "docmap.parquet"))

    for name, table in (extra_tables or {}).items():
        pq.write_table(table, os.path.join(tmp, name))

    meta["n_terms"] = len(term_table)
    meta["postings_bytes"] = len(buf)
    timings["encode"] = round(t1 - t0, 4)
    timings["write"] = round(time.perf_counter() - t1, 4)
    meta_json = json.dumps(meta)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        f.write(meta_json)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("")

    if os.path.isdir(seg_dir):  # lost race with a retry that already finished
        import shutil

        shutil.rmtree(tmp)
    else:
        os.rename(tmp, seg_dir)
    return term_table, doc_table, json.loads(meta_json)


def segment_is_complete(seg_dir: str) -> bool:
    return os.path.exists(os.path.join(seg_dir, "_SUCCESS"))


@dataclass
class SegmentData:
    """In-memory handle to one segment, loaded once per query actor."""

    seg_id: int
    terms: np.ndarray  # sorted np str array
    df: np.ndarray
    offsets: np.ndarray
    nbytes: np.ndarray
    n_postings: np.ndarray
    max_weight: np.ndarray
    postings_buf: memoryview
    doc_keys: np.ndarray  # int64, by local id
    urls: list[str] | None
    norm_texts: list[str]  # coverage doc text (normalized, NOT lowered)
    doc_len: np.ndarray  # float32
    first_tokens: list[str]
    token_counts: np.ndarray
    meta: dict
    fields: dict[str, list] | None = None  # stored filter/facet/sort columns
    seg_numbers: np.ndarray | None = None  # chunk number per local doc
    # build-time short-query artifacts (sq_champions/sq_prefix parquet; see
    # query/shortquery.compute_short_tables). None for pre-artifact segments.
    short_tables: dict[str, "pa.Table"] | None = None

    @property
    def n_docs(self) -> int:
        return len(self.doc_keys)

    def term_lookup(self, term: str) -> int:
        """Binary search in the sorted dictionary; -1 if absent."""
        i = np.searchsorted(self.terms, term)
        if i < len(self.terms) and self.terms[i] == term:
            return int(i)
        return -1

    def term_postings(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        off = int(self.offsets[idx])
        end = off + int(self.nbytes[idx])
        return decode_postings(self.postings_buf[off:end])

    def term_block_meta(self, idx: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(block_anchors, block_max) skip table — None for legacy blobs."""
        off = int(self.offsets[idx])
        end = off + int(self.nbytes[idx])
        return decode_block_meta(self.postings_buf[off:end])

    def term_postings_subset(
        self, idx: int, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block-skip decode of just the blocks containing ``targets``."""
        off = int(self.offsets[idx])
        end = off + int(self.nbytes[idx])
        return decode_postings_subset(self.postings_buf[off:end], targets)

    def term_postings_subset_or_none(
        self, idx: int, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Like :meth:`term_postings_subset` but returns None when skipping
        cannot pay, so the caller can decode fully ONCE and cache."""
        off = int(self.offsets[idx])
        end = off + int(self.nbytes[idx])
        return decode_postings_subset_or_none(self.postings_buf[off:end], targets)

    def term_prefix_range(self, prefix: str) -> tuple[int, int]:
        lo = int(np.searchsorted(self.terms, prefix))
        hi = int(np.searchsorted(self.terms, prefix + "\U0010ffff"))
        return lo, hi


_SHORT_TABLES = ("sq_champions.parquet", "sq_prefix.parquet")
_SIDE_TABLES = ("fields.parquet", *_SHORT_TABLES)


def segment_from_tables(
    seg_dir: str,
    term_table: pa.Table,
    doc_table: pa.Table,
    meta: dict,
    extra_tables: dict | None = None,
    seg_id: int = 0,
    mmap: bool = True,
) -> SegmentData:
    """Open the segment at ``seg_dir`` from its term table, doc table, meta
    and side tables (``fields.parquet``, ``sq_*.parquet``; other entries of
    ``extra_tables`` are ignored), whether they were just read or just
    written. Postings map ``postings.bin``."""
    path = os.path.join(seg_dir, "postings.bin")
    if mmap and os.path.getsize(path) > 0:
        buf = memoryview(np.memmap(path, dtype=np.uint8, mode="r"))
    else:
        with open(path, "rb") as f:
            buf = memoryview(f.read())
    extra = extra_tables or {}
    ft = extra.get("fields.parquet")
    fields = None if ft is None else {n: ft[n].to_pylist() for n in ft.column_names}
    short_tables = {n: extra[n] for n in _SHORT_TABLES if n in extra} or None
    seg_numbers = (
        doc_table["seg_number"].to_numpy()
        if "seg_number" in doc_table.column_names
        else np.zeros(len(doc_table), dtype=np.int32)
    )
    return SegmentData(
        fields=fields,
        seg_numbers=seg_numbers,
        short_tables=short_tables,
        seg_id=seg_id,
        terms=term_table["term"].to_numpy(),
        df=term_table["df"].to_numpy(),
        offsets=term_table["offset"].to_numpy(),
        nbytes=term_table["nbytes"].to_numpy(),
        n_postings=term_table["n_postings"].to_numpy(),
        max_weight=term_table["max_weight"].to_numpy(),
        postings_buf=buf,
        doc_keys=doc_table["doc_key"].to_numpy(),
        urls=doc_table["url"].to_pylist(),
        norm_texts=doc_table["norm_text"].to_pylist(),
        doc_len=doc_table["doc_len"].to_numpy().astype(np.float32),
        first_tokens=doc_table["first_token"].to_pylist(),
        token_counts=doc_table["token_count"].to_numpy(),
        meta=meta,
    )


def read_segment(seg_dir: str, seg_id: int = 0, mmap: bool = True) -> SegmentData:
    with open(os.path.join(seg_dir, "meta.json")) as f:
        meta = json.load(f)
    extra = {}
    for name in _SIDE_TABLES:
        path = os.path.join(seg_dir, name)
        if os.path.exists(path):
            extra[name] = pq.read_table(path)
    return segment_from_tables(
        seg_dir,
        pq.read_table(os.path.join(seg_dir, "terms.parquet")),
        pq.read_table(os.path.join(seg_dir, "docmap.parquet")),
        meta, extra, seg_id, mmap,
    )


def _merge_short_tables(seg_dirs: list[str], doc_bases) -> dict | None:
    """Merge the per-segment short-query artifacts directly instead of
    recomputing them over the merged texts (the recompute dominated merge
    wall time at 2M pages — lower_1to1 + word split over 450k chunks per
    final segment). Exact by construction: champion scores depend only on
    the DOC (position/density/word-start features,
    query/shortquery.py:120-183), segments are doc-disjoint, and the rank
    rule (score desc, doc_key asc) is global — so re-ranking the
    concatenated per-segment top-64 lists per char reproduces a fresh
    compute bit-for-bit (parity-locked by test). Prefix doc counts are
    additive. Returns None when any input lacks the artifacts."""
    import pyarrow.parquet as pq

    from .query.shortquery import CHAMPION_SIZE

    ch_tabs, px_tabs = [], []
    for si, d in enumerate(seg_dirs):
        cp = os.path.join(d, "sq_champions.parquet")
        pp = os.path.join(d, "sq_prefix.parquet")
        if not (os.path.exists(cp) and os.path.exists(pp)):
            return None
        ct = pq.read_table(cp)
        # lid is segment-local → rebase into the merged doc space
        lids = ct["lid"].to_numpy(zero_copy_only=False).astype(np.int64)
        ct = ct.set_column(
            ct.schema.get_field_index("lid"),
            "lid",
            pa.array((lids + int(doc_bases[si])).astype(np.int32)),
        )
        ch_tabs.append(ct)
        px_tabs.append(pq.read_table(pp))

    allc = pa.concat_tables(ch_tabs)
    ch = np.asarray([ord(c) for c in allc["ch"].to_pylist()], dtype=np.int64)
    sc = allc["score"].to_numpy(zero_copy_only=False)
    dk = allc["doc_key"].to_numpy(zero_copy_only=False)
    li = allc["lid"].to_numpy(zero_copy_only=False)
    order = np.lexsort((dk, -sc, ch))
    ch, sc, dk, li = ch[order], sc[order], dk[order], li[order]
    group_start = np.zeros(len(ch), dtype=np.int64)
    new_group = np.flatnonzero(np.diff(ch)) + 1
    group_start[new_group] = new_group
    np.maximum.accumulate(group_start, out=group_start)
    keep = (np.arange(len(ch)) - group_start) < CHAMPION_SIZE
    champs = pa.table(
        {
            "ch": pa.array([chr(c) for c in ch[keep].tolist()], pa.large_string()),
            "score": pa.array(sc[keep], pa.float64()),
            "doc_key": pa.array(dk[keep], pa.int64()),
            "lid": pa.array(li[keep].astype(np.int32), pa.int32()),
        }
    )

    prefix_counts: dict[str, int] = {}
    for t in px_tabs:
        for p, n in zip(t["prefix"].to_pylist(), t["n_docs"].to_pylist()):
            prefix_counts[p] = prefix_counts.get(p, 0) + int(n)
    pk = sorted(prefix_counts)
    prefixes = pa.table(
        {
            "prefix": pa.array(pk, pa.large_string()),
            "n_docs": pa.array([prefix_counts[p] for p in pk], pa.int64()),
        }
    )
    return {"sq_champions.parquet": champs, "sq_prefix.parquet": prefixes}


def merge_segments(
    seg_dirs: list[str], out_dir: str, seg_id: int = 0, delimiters=None
) -> dict:
    """K-way merge of doc-range-disjoint segments into one
    (SegmentMerger.cs:13-136 semantics: sorted term streams merged; postings
    concatenated with doc-base offsets, which preserves sorted doc ids).
    Per-segment side tables are carried through: word_df summed, fields
    concatenated, and — when ``delimiters`` is given — the short-query
    artifacts recomputed over the merged docmap."""
    segs = [read_segment(d, i) for i, d in enumerate(seg_dirs)]
    doc_bases = np.cumsum([0] + [s.n_docs for s in segs[:-1]]).astype(np.int64)

    all_terms = np.concatenate([s.terms for s in segs])
    uniq = np.unique(all_terms)

    # vectorized k-way term alignment: each segment's sorted term array maps
    # into `uniq` with ONE searchsorted (a per-term lookup loop was the
    # dominant merge cost at 400 segments / 2M pages)
    et = np.concatenate([np.searchsorted(uniq, s.terms) for s in segs])
    es = np.repeat(np.arange(len(segs)), [len(s.terms) for s in segs])
    el = np.concatenate([np.arange(len(s.terms)) for s in segs])
    order = np.lexsort((es, et))  # term-major, segment order within a term
    et, es, el = et[order], es[order], el[order]
    entry_len = np.concatenate([s.n_postings for s in segs]).astype(np.int64)[order]
    entry_df = np.concatenate([s.df for s in segs]).astype(np.int64)[order]

    # output CSR: the entries' lists laid end to end in (term, segment)
    # order, each shifted by its segment's doc base
    starts = np.flatnonzero(np.diff(et, prepend=-1))  # each term's first entry
    offsets = np.r_[0, np.cumsum(np.add.reduceat(entry_len, starts))]
    lists = [segs[si].term_postings(i) for si, i in zip(es.tolist(), el.tolist())]
    docs_out = np.concatenate([np.empty(0, np.uint32), *(d for d, _ in lists)])
    docs_out = docs_out + np.repeat(doc_bases[es], entry_len)
    w_out = np.concatenate([np.empty(0, np.uint8), *(w for _, w in lists)])

    docmap = {
        "local_id": np.arange(sum(s.n_docs for s in segs), dtype=np.int32),
        "doc_key": np.concatenate([s.doc_keys for s in segs]),
        "url": sum((s.urls or [] for s in segs), []),
        "norm_text": sum((s.norm_texts for s in segs), []),
        "doc_len": np.concatenate([s.doc_len for s in segs]),
        "first_token": sum((s.first_tokens for s in segs), []),
        "token_count": np.concatenate([s.token_counts for s in segs]),
        "seg_number": np.concatenate(
            [
                s.seg_numbers
                if s.seg_numbers is not None
                else np.zeros(s.n_docs, dtype=np.int32)
                for s in segs
            ]
        ),
    }
    meta = {
        "n_docs": int(sum(s.n_docs for s in segs)),
        "sum_doc_len": float(sum(float(s.meta.get("sum_doc_len", 0.0)) for s in segs)),
        "merged_from": [s.meta.get("segment_dir", d) for s, d in zip(segs, seg_dirs)],
        "segment_dir": out_dir,
    }

    extra: dict[str, pa.Table] = {}
    # word-level df: sum across inputs (doc-disjoint)
    word_df: dict[str, int] = {}
    for d in seg_dirs:
        wpath = os.path.join(d, "word_df.parquet")
        if os.path.exists(wpath):
            wt = pq.read_table(wpath)
            for w, c in zip(wt["word"].to_pylist(), wt["df"].to_pylist()):
                word_df[w] = word_df.get(w, 0) + int(c)
    if word_df:
        extra["word_df.parquet"] = pa.table(
            {
                "word": pa.array(list(word_df.keys()), pa.large_string()),
                "df": pa.array(list(word_df.values()), pa.int64()),
            }
        )
    # stored field columns: concatenate when every input carries them
    if all(s.fields for s in segs) and segs:
        names = list(segs[0].fields.keys())
        if all(list(s.fields.keys()) == names for s in segs):
            extra["fields.parquet"] = pa.table(
                {n: sum((s.fields[n] for s in segs), []) for n in names}
            )
    # short-query artifacts over the merged docmap
    if delimiters is not None:
        merged_sq = _merge_short_tables(seg_dirs, doc_bases)
        if merged_sq is not None:
            extra.update(merged_sq)
        else:  # an input lacks the artifacts: recompute over the texts
            from .analyzer import _word_splitter
            from .query.coverage import lower_1to1
            from .query.shortquery import compute_short_tables

            splitter = _word_splitter(tuple(delimiters))
            lower = [lower_1to1(t) for t in docmap["norm_text"]]
            words = [[w for w in splitter.split(t) if w] for t in lower]
            extra.update(
                compute_short_tables(lower, words, docmap["doc_key"], seg_id)
            )

    return write_segment(
        out_dir, uniq[et[starts]].tolist(), np.add.reduceat(entry_df, starts),
        (offsets, docs_out.astype(np.uint32), w_out), docmap, meta,
        extra_tables=extra or None,
    )[2]

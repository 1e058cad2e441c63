"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale design notes (100 TB):

* exact: hash inside ``map_batches`` (tiny rows leave the task), then one
  ``groupby(hash)`` shuffle of (hash, doc_id) pairs — never the text.
* MinHash/LSH: signatures computed vectorized per batch; the shuffle key is
  the (band, bucket-hash) pair, so each band groupby moves 8-byte keys.
* n-gram Jaccard: inverted-index join — ``flat_map`` distinct shingles →
  groupby(shingle) → per-group pair emission with a hot-shingle cap (a
  shingle shared by k docs emits k² pairs; shingles with df > cap are
  dropped like the engine's stop terms, documented below).
* embedding: brute-force blocked matmul against a ``ray.put`` broadcast of
  the (id, vector) matrix for small sides; LSH-bucketed for large.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..analyzer import normalize
from . import dataflow
from .dataflow import _MIX1, _MIX2

# --- exact dedup -------------------------------------------------------------


def _hash_slice_batch(
    batch: pa.Table, id_col: str, text_col: str, num_slices: int
) -> pa.Table:
    """(h, doc_id, slice) rows — slice is a coarse bucket of the content
    hash, so every copy of a text lands in ONE slice without a per-hash Ray
    group (content hashes are ~unique; Ray's aggregate pays per GROUP — the
    29M-key groupby cliff)."""
    h = pa.array(
        [
            hashlib.blake2b((t or "").encode("utf-8"), digest_size=16).hexdigest()
            for t in batch[text_col].to_pylist()
        ],
        pa.string(),
    )
    return pa.table(
        {"h": h, "doc_id": batch[id_col], "slice": dataflow.slice_of(num_slices, h)}
    )


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Groups of byte-identical ``text``; keeps min(doc_id) per group.
    Returns (keep_id, n_dupes) — one row per distinct text.

    Scale design: (hash, id) rows shuffle ONCE by a coarse hash slice;
    each slice collapses its hashes with one vectorized Arrow group-by —
    no per-hash Ray group (hashes are ~unique, the worst groupby key)."""
    import functools

    def slice_agg(group: pa.Table) -> pa.Table:
        agg = group.drop_columns(["slice"]).group_by(["h"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        ren = {"doc_id_min": "keep_id", "doc_id_count": "n_dupes"}
        agg = agg.rename_columns([ren.get(c, c) for c in agg.column_names])
        return agg.select(["keep_id", "n_dupes"]).set_column(
            1, "n_dupes", agg["n_dupes"].cast(pa.int64())
        )

    return (
        ds.map_batches(
            functools.partial(
                _hash_slice_batch,
                id_col=id_col,
                text_col=text_col,
                num_slices=dataflow.num_slices(mult=8, floor=64),
            ),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(slice_agg, batch_format="pyarrow")
    )


def exact_dup_pairs(ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id_a, id_b) pairs linking each duplicate doc to its group's min-id
    representative (id_a = min of the byte-identical-text group). Feeds
    ``dedup_corpus`` for the exact-dedup pipeline; the shuffle moves only
    (hash, doc_id) rows — once, by coarse hash slice — never the text, and
    never a per-hash Ray group (see :func:`exact_dedup`)."""
    import functools

    def pairs_slice(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        if group.num_rows == 0:
            return empty
        enc = group["h"].combine_chunks().dictionary_encode()
        hc = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = (
            group["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        )
        order = np.lexsort((ids, hc))
        hc, ids = hc[order], ids[order]
        new = np.empty(len(hc), dtype=bool)
        new[0] = True
        new[1:] = hc[1:] != hc[:-1]
        seg = np.cumsum(new) - 1
        rep = ids[np.flatnonzero(new)][seg]  # group min id per row
        keep = ~new
        if not keep.any():
            return empty
        return pa.table(
            {
                "id_a": pa.array(rep[keep].astype(np.int64)),
                "id_b": pa.array(ids[keep].astype(np.int64)),
            }
        )

    return (
        ds.map_batches(
            functools.partial(
                _hash_slice_batch,
                id_col=id_col,
                text_col=text_col,
                num_slices=dataflow.num_slices(mult=8, floor=64),
            ),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(pairs_slice, batch_format="pyarrow")
    )


# --- shingles ----------------------------------------------------------------


def round_half_up4(x: float) -> float:
    """Round to 4 decimals half-away-from-zero — matches DuckDB/SQL ROUND
    (Python's round is banker's; values like 0.56785 would diverge from the
    SQL oracles by one ulp at the 4th decimal)."""
    import math

    return math.copysign(math.floor(abs(x) * 1e4 + 0.5) / 1e4, x)


def round_half_up4_arr(arr):
    """Vectorized round_half_up4 (same half-away-from-zero contract — keep
    the two in lockstep; the SQL oracles hash against this exact formula)."""
    return np.copysign(np.floor(np.abs(arr) * 1e4 + 0.5) / 1e4, arr)


def char_shingles(text: str, n: int = 3) -> set:
    """Distinct character n-grams of the normalized+lowered text."""
    t = normalize(text or "").lower()
    if len(t) < n:
        return {t} if t else set()
    return {t[i : i + n] for i in range(len(t) - n + 1)}


def _hash64(s: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
    )


#: Pair-count ceiling for the broadcast verify path (id pairs are 16 B each,
#: so 1M pairs ≈ 16 MB on the driver / object store — far below any worker
#: heap). Above it, verification falls back to the fully distributed joins.
_BROADCAST_VERIFY_MAX_PAIRS = int(
    os.environ.get("INFIDEX_BROADCAST_VERIFY_MAX_PAIRS", "1000000")
)


def _attach_sketches_broadcast(pairs_tbl: pa.Table, sketches, sketches_b=None):
    """Map-side variant of :func:`_attach_sketches` for SMALL pair tables:
    the (id_a, id_b) list — ids only, never the sketches — is broadcast once
    via ``ray.put``; each sketch block emits its locally matching rows keyed
    by (pair index, side), and one pair-sized slice groupby pairs the two
    sides back up. Replaces two aggregator-actor joins plus their two
    repartition+materialize normalizations with one map and one small sort —
    the joins' fixed startup (~0.5 s per partition actor) dominated small
    and medium verifies (A/B at 5k docs / 256 pairs: 7 s → ~2 s)."""
    import ray

    if sketches_b is None:
        sketches_b = sketches
    ids_a = np.asarray(pairs_tbl["id_a"].to_numpy(zero_copy_only=False), np.int64)
    ids_b = np.asarray(pairs_tbl["id_b"].to_numpy(zero_copy_only=False), np.int64)
    npairs = len(ids_a)
    side_lookup = {}
    for side, ids in (("a", ids_a), ("b", ids_b)):
        order = np.argsort(ids, kind="stable")
        side_lookup[side] = (ids[order], order.astype(np.int64))
    ref = ray.put((side_lookup, ids_a, ids_b))

    def emit_side(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            lookup, _, _ = ray.get(ref)
            sorted_ids, pidx = lookup[side]
            doc = np.asarray(
                batch["doc_id"].to_numpy(zero_copy_only=False), np.int64
            )
            lo = np.searchsorted(sorted_ids, doc, "left")
            hi = np.searchsorted(sorted_ids, doc, "right")
            counts = hi - lo
            total = int(counts.sum())
            cols = [c for c in batch.column_names if c != "doc_id"]
            if total == 0:
                empty = {
                    "pair_idx": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "slice": pa.array([], pa.int32()),
                }
                for c in cols:
                    empty[c] = batch[c].slice(0, 0)
                return pa.table(empty)
            row_idx = np.repeat(np.arange(len(doc), dtype=np.int64), counts)
            starts = np.repeat(lo, counts)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            p = pidx[starts + within]
            out = {
                "pair_idx": pa.array(p, pa.int64()),
                "side": pa.array(
                    np.full(total, 0 if side == "a" else 1, np.int8), pa.int8()
                ),
                "slice": pa.array((p % np.int64(_n_verify_slices(npairs))).astype(np.int32)),
            }
            taken = batch.select(cols).take(pa.array(row_idx, pa.int64()))
            for c in cols:
                out[c] = taken[c]
            return pa.table(out)

        return fn

    long_ds = sketches.map_batches(
        emit_side("a"), batch_format="pyarrow"
    ).union(sketches_b.map_batches(emit_side("b"), batch_format="pyarrow"))

    def combine(group: pa.Table) -> pa.Table:
        _, ia, ib = ray.get(ref)
        p = np.asarray(group["pair_idx"].to_numpy(zero_copy_only=False), np.int64)
        s = np.asarray(group["side"].to_numpy(zero_copy_only=False), np.int64)
        cols = [
            c for c in group.column_names if c not in ("pair_idx", "side", "slice")
        ]
        order = np.lexsort((s, p))
        p2, s2 = p[order], s[order]
        first = (
            np.flatnonzero((p2[:-1] == p2[1:]) & (s2[:-1] == 0) & (s2[1:] == 1))
            if len(p2) > 1
            else np.empty(0, np.int64)
        )
        out = {
            "id_a": pa.array(ia[p2[first]] if len(first) else [], pa.int64()),
            "id_b": pa.array(ib[p2[first]] if len(first) else [], pa.int64()),
        }
        a_rows = pa.array(order[first], pa.int64())
        b_rows = pa.array(order[first + 1], pa.int64())
        for c in cols:
            out[f"{c}_a"] = group[c].take(a_rows)
            out[f"{c}_b"] = group[c].take(b_rows)
        return pa.table(out)

    return long_ds.groupby("slice").map_groups(combine, batch_format="pyarrow")


def _n_verify_slices(npairs: int) -> int:
    """Slice count for the broadcast-verify groupby: ~20k pair-rows per
    group keeps a slice's sketch payload well under a worker heap while
    never paying more group-task overhead than the pair volume warrants."""
    return max(1, min(256, (2 * npairs) // 20_000 + 1))


def _attach_sketches(
    pairs, sketches, num_partitions: int | None = None, sketches_b=None
):
    """Attach each candidate pair's two per-doc sketch rows via two
    distributed hash joins (``Dataset.join``): sketches shuffle by id hash,
    the pair table stays pair-sized, and NOTHING is collected to the driver
    — this replaces round-2's candidate-bounded driver broadcast, which was
    the component that would OOM first on a boilerplate-heavy crawl.
    Non-key sketch columns come back suffixed ``_a`` / ``_b``. For
    cross-corpus pairs whose two sides live in different id spaces, pass the
    ``id_b``-side table as ``sketches_b`` (default: same table both joins).

    When the pair table is small (≤ ``_BROADCAST_VERIFY_MAX_PAIRS``, known
    for free when ``pairs`` is materialized), the id list — never the
    sketches — is broadcast instead and the joins are skipped entirely
    (:func:`_attach_sketches_broadcast`): the classic broadcast-vs-shuffle
    join cutover. Only the pair IDS ever reach the driver; the sketch
    payload stays distributed on both paths."""
    if sketches_b is None:
        sketches_b = sketches
    try:
        from ray.data.dataset import MaterializedDataset as _MatDs2

        if (
            num_partitions is None  # an explicit count forces the join path
            and isinstance(pairs, _MatDs2)
            and pairs.count() <= _BROADCAST_VERIFY_MAX_PAIRS
        ):
            import ray

            pairs_tbl = pa.concat_tables(
                [
                    t.select(["id_a", "id_b"])
                    for t in ray.get(pairs.to_arrow_refs())
                    if t.num_rows
                ]
            ).combine_chunks()
            return _attach_sketches_broadcast(pairs_tbl, sketches, sketches_b)
    except Exception:  # noqa: BLE001 — fall back to the join path
        pass
    if num_partitions is None:
        # each partition costs an aggregator-actor startup (~0.5 s): size the
        # join by the LARGER side at ~500k rows/partition when both sides are
        # already materialized (count() is then metadata-only), else default
        try:
            from ray.data.dataset import MaterializedDataset as _MatDs

            if all(
                isinstance(d, _MatDs) for d in (pairs, sketches, sketches_b)
            ):
                rows = max(pairs.count(), sketches.count(), sketches_b.count())
                num_partitions = max(2, -(-rows // 500_000))
        except Exception:  # noqa: BLE001 — sizing is a pure optimization
            pass
    # the pair table (and j1) are the derived sides; the sketches stream
    j1 = dataflow.join(
        pairs, sketches, "inner", "id_a", num_partitions, right_on="doc_id",
        stream="right",
    )
    return dataflow.join(
        j1,
        sketches_b,
        "inner",
        "id_b",
        num_partitions,
        right_on="doc_id",
        stream="right",
        left_suffix="_a",
        right_suffix="_b",
    )


def _verify_pairs(cand, sketches, num_partitions: int | None = None, sketches_b=None):
    """Dedup a candidate (id_a, id_b) stream and attach both sides' sketch
    rows, picking the cheapest safe strategy by measured size:

    * small candidate table (≤ ``_BROADCAST_VERIFY_MAX_PAIRS`` rows BEFORE
      dedup, known for free after the materialize) → dedup the 16-byte id
      pairs on the driver and use the broadcast attach — skips one
      all-to-all groupby plus both hash joins;
    * otherwise → distributed ``groupby((id_a, id_b))`` dedup and the
      aggregator-actor join path. Only ids ever reach the driver.

    Returns the joined Dataset (columns ``id_a, id_b, <sketch cols>_a/_b``)
    or ``None`` when there are no candidates (callers return their own
    empty schema — an empty Dataset here would be schema-less)."""
    import ray

    cand = cand.materialize()
    n_cand = cand.count()
    if n_cand == 0:
        return None
    if num_partitions is None and n_cand <= _BROADCAST_VERIFY_MAX_PAIRS:
        # per-block select: map_groups blocks can disagree on column ORDER
        # (and empty blocks can be schema-less), which concat_tables rejects
        blocks = [
            t.select(["id_a", "id_b"])
            for t in ray.get(cand.to_arrow_refs())
            if t.num_rows
        ]
        tbl = pa.concat_tables(blocks).combine_chunks()
        ia = np.asarray(tbl["id_a"].to_numpy(zero_copy_only=False), np.int64)
        ib = np.asarray(tbl["id_b"].to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((ib, ia))
        ia, ib = ia[order], ib[order]
        keep = np.empty(len(ia), dtype=bool)
        keep[0] = True
        keep[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        pairs_tbl = pa.table(
            {"id_a": pa.array(ia[keep], pa.int64()), "id_b": pa.array(ib[keep], pa.int64())}
        )
        return _attach_sketches_broadcast(pairs_tbl, sketches, sketches_b)
    uniq = _pair_slice_agg(cand).materialize()
    if uniq.count() == 0:  # pragma: no cover — cand non-empty implies pairs
        return None
    return _attach_sketches(uniq, sketches, num_partitions, sketches_b)


def _pair_slice_agg(cand, aggs=None):
    """Collapse a candidate ``(id_a, id_b[, value…])`` pair stream to one
    row per distinct pair — by a coarse mixed-hash SLICE of the pair, never
    one Ray group per pair (candidate pairs are ~unique keys; Ray's
    aggregate pays per GROUP — the duplicate_spans lesson). ``aggs`` is a
    pyarrow aggregate list like ``[("hamming", "min")]`` (None = distinct
    pairs only); aggregated columns keep their original names."""
    def agg_slice(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if aggs is None:
            return t.group_by(["id_a", "id_b"]).aggregate([])
        res = t.group_by(["id_a", "id_b"]).aggregate(list(aggs))
        ren = {f"{c}_{f}": c for c, f in aggs}
        return res.rename_columns([ren.get(c, c) for c in res.column_names])

    add_slice = dataflow.add_slice(
        ("id_a", "id_b"), dataflow.num_slices(mult=8, floor=64)
    )
    return (
        cand.map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(agg_slice, batch_format="pyarrow")
    )


def _pack3_shingles(t: str) -> np.ndarray:
    """Distinct char-3-gram shingles of normalize(t).lower() as packed
    uint64s: three 21-bit codepoints (max codepoint 0x10FFFF < 2^21) — a
    BIJECTION with the gram string, so hash-set Jaccard equals string-set
    Jaccard exactly, and the whole doc vectorizes in numpy. Text shorter
    than 3 chars yields one whole-text fallback hash with the top bit set
    (packed values use only 63 bits, so the spaces never collide)."""
    tn = normalize(t or "").lower()
    if not tn:
        return np.empty(0, dtype=np.uint64)
    if len(tn) < 3:
        return np.asarray(
            [_hash64(tn) | (1 << 63)], dtype=np.uint64
        )
    cp = np.frombuffer(tn.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    h = (cp[:-2] << np.uint64(42)) | (cp[1:-1] << np.uint64(21)) | cp[2:]
    return np.unique(h)


# --- n-gram Jaccard (exact, inverted-index join) ----------------------------


def _batch_pack3_shingles(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_pack3_shingles`: per-doc DISTINCT packed char-3-gram
    hashes for a whole batch, flat — returns ``(doc_idx, hashes)`` sorted
    by (doc, hash), distinct within each doc. One utf-32 decode + one
    vectorized 21-bit pack over the concatenated batch instead of a
    per-doc Python loop (the r4-audit ngram_jaccard vectorization nit);
    byte-identical to the per-doc path (parity-tested)."""
    n_docs = len(texts)
    e64 = np.empty(0, dtype=np.uint64)
    if n_docs == 0:
        return np.empty(0, dtype=np.int64), e64
    norm = [normalize(t or "").lower() for t in texts]
    lens = np.fromiter((len(t) for t in norm), np.int64, count=n_docs)
    big = "".join(norm)
    if not big:
        return np.empty(0, dtype=np.int64), e64
    cp = np.frombuffer(big.encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    doc_of_char = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    out_docs: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    if len(cp) >= 3:
        h = (
            (cp[:-2] << np.uint64(42))
            | (cp[1:-1] << np.uint64(21))
            | cp[2:]
        )
        # a window is valid iff it stays inside one doc
        inside = doc_of_char[:-2] == doc_of_char[2:]
        h = h[inside]
        hd = doc_of_char[:-2][inside]
        if len(h):
            order = np.lexsort((h, hd))
            h, hd = h[order], hd[order]
            keep = np.r_[True, (hd[1:] != hd[:-1]) | (h[1:] != h[:-1])]
            out_docs.append(hd[keep])
            out_h.append(h[keep])
    # short-doc fallback (0 < len < 3): one whole-text hash, top bit set
    for d in np.flatnonzero((lens > 0) & (lens < 3)):
        out_docs.append(np.asarray([d], dtype=np.int64))
        out_h.append(
            np.asarray([_hash64(norm[d]) | (1 << 63)], dtype=np.uint64)
        )
    if not out_h:
        return np.empty(0, dtype=np.int64), e64
    docs = np.concatenate(out_docs)
    hs = np.concatenate(out_h)
    order = np.lexsort((hs, docs))
    return docs[order], hs[order]


def _char_shingle_hashes(t: str, n: int) -> np.ndarray:
    """Distinct char n-gram shingle hashes: the packed bijection for n == 3
    (the default — zero collisions by construction), a cached blake2b per
    distinct gram otherwise."""
    if n == 3:
        return _pack3_shingles(t)
    return np.unique(
        np.fromiter(
            (_hash64(g) for g in char_shingles(t, n)), dtype=np.uint64
        )
    )


def ngram_jaccard_pairs(
    ds,
    threshold: float = 0.5,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    rare_shingle_cap: int = 20,
    num_partitions: int | None = None,
    metric: str = "jaccard",
):
    """Near-dup pairs by exact Jaccard on distinct char n-grams.

    Candidate generation: inverted-index join restricted to RARE shingles
    (df ≤ rare_shingle_cap) — the standard trick that bounds the quadratic
    per-shingle pair blowup (a shingle shared by k docs emits k² pairs).
    Pairs that share only ubiquitous shingles are below any useful threshold
    anyway. The Jaccard reported per candidate pair is EXACT (full shingle
    sets; for n = 3 the shingle hash is a bijection with the gram string, so
    hash-set Jaccard IS string-set Jaccard). Returns (id_a, id_b, jaccard)
    with id_a < id_b, jaccard ≥ threshold.

    Scale: fully distributed, zero driver state. Each doc's shingle-hash
    sketch is computed once; candidates come from a groupby over 8-byte
    shingle hashes; verification attaches the two sketches to each pair via
    two hash joins (`_attach_sketches`) and scores in ``map_batches``.

    ``metric="containment"`` scores ``|A∩B| / min(|A|, |B|)`` instead — the
    subset-duplication detector (a page quoting or mirroring another scores
    ~1.0 by containment but can be far below any Jaccard threshold when the
    container is much longer); the output column is then ``containment``.
    """
    if metric not in ("jaccard", "containment"):
        raise ValueError(f"unknown metric {metric!r}")

    def sketch_batch(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        if n == 3:
            # batch-vectorized packed grams (one utf-32 decode + flat pack)
            doc_idx, hs = _batch_pack3_shingles(texts)
            counts = np.bincount(doc_idx, minlength=len(texts))
            ends = np.cumsum(counts)
            blobs = [
                hs[e - c : e].tobytes() for c, e in zip(counts, ends)
            ]
        else:
            blobs = [_char_shingle_hashes(t, n).tobytes() for t in texts]
        return pa.table(
            {"doc_id": batch[id_col], "sh": pa.array(blobs, pa.binary())}
        )

    # sketches are consumed twice (candidate explode + the verify joins)
    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow").materialize()

    def explode(batch: pa.Table) -> pa.Table:
        ids, hs = [], []
        for i, blob in zip(batch["doc_id"].to_pylist(), batch["sh"].to_pylist()):
            arr = np.frombuffer(blob, dtype=np.uint64)
            ids.append(np.full(len(arr), i, dtype=np.int64))
            hs.append(arr.view(np.int64))
        if not ids:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "h": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                "h": pa.array(np.concatenate(hs), pa.int64()),
            }
        )

    shingle_rows = sketches.map_batches(explode, batch_format="pyarrow")

    def pairs_per_shingle(group: pa.Table) -> pa.Table:
        docs = sorted(set(group["doc_id"].to_pylist()))
        if len(docs) < 2 or len(docs) > rare_shingle_cap:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        a, b = [], []
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                a.append(docs[i])
                b.append(docs[j])
        return pa.table({"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())})

    cand = shingle_rows.groupby("h").map_groups(
        pairs_per_shingle, batch_format="pyarrow"
    )
    joined = _verify_pairs(cand, sketches, num_partitions)
    if joined is None:
        # empty Datasets lose their column schema, which breaks the joins
        return dataflow.typed_empty(
            {
                "id_a": pa.int64(),
                "id_b": pa.int64(),
                metric: pa.float64(),
            }
        )

    def score(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for x, y, ba, bb in zip(
            batch["id_a"].to_pylist(),
            batch["id_b"].to_pylist(),
            batch["sh_a"].to_pylist(),
            batch["sh_b"].to_pylist(),
        ):
            sa = np.frombuffer(ba, dtype=np.uint64)
            sb = np.frombuffer(bb, dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            if metric == "containment":
                denom = min(len(sa), len(sb))
            else:
                denom = len(sa) + len(sb) - inter
            jac = inter / denom if denom else 0.0
            if jac >= threshold:
                out_a.append(x)
                out_b.append(y)
                out_j.append(round_half_up4(jac))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                metric: pa.array(out_j, pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


def ngram_containment_pairs(
    ds,
    threshold: float = 0.8,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    rare_shingle_cap: int = 20,
    num_partitions: int | None = None,
):
    """Subset-duplication pairs: ``|A∩B| / min(|A|, |B|) ≥ threshold`` over
    distinct char n-grams — catches a page that quotes/mirrors another even
    when the longer container dilutes Jaccard below any useful cut. Same
    rare-shingle candidate machinery as :func:`ngram_jaccard_pairs`."""
    return ngram_jaccard_pairs(
        ds,
        threshold=threshold,
        n=n,
        id_col=id_col,
        text_col=text_col,
        rare_shingle_cap=rare_shingle_cap,
        num_partitions=num_partitions,
        metric="containment",
    )


# --- MinHash + LSH -----------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a·x + b) mod p over the shingle hash set."""
    if len(shingle_hashes) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    x = shingle_hashes.astype(np.uint64)[:, None]
    # (a*x + b) mod p with uint64 wrap-around is fine for minima comparisons
    # as long as it is applied consistently; use object-free modmul via float?
    # → do exact mod-p arithmetic in python ints is slow; use (a*x+b) % p on
    # uint64 with np.mod after casting through uint64 multiplication modulo
    # 2^64 — consistent, uniform, deterministic.
    vals = (x * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
    return vals.min(axis=0)


def word_shingles(text: str, n: int = 3) -> set:
    """Distinct word n-gram shingles of normalized+lowered text (the standard
    web-dedup shingling unit — char grams have too high a baseline overlap).

    Short-doc contract (kept in lockstep with :func:`_shingle_hashes` and the
    SQL oracles): a doc with 0 < words < n yields ONE whole-doc shingle (the
    joined word sequence); an empty doc yields the empty set."""
    from ..analyzer import _word_splitter
    from ..config import DEFAULT_DELIMITERS

    t = normalize(text or "").lower()
    ws = [w for w in _word_splitter(DEFAULT_DELIMITERS).split(t) if w]
    if len(ws) < n:
        return {" ".join(ws)} if ws else set()
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def _word_hashes(ws: list[str], cache: dict[str, int]) -> np.ndarray:
    """Per-word 64-bit blake2b hashes with a per-task cache (words repeat
    heavily across a batch, so hashlib runs once per distinct word)."""
    out = np.empty(len(ws), dtype=np.uint64)
    for i, w in enumerate(ws):
        h = cache.get(w)
        if h is None:
            h = cache[w] = _hash64(w)
        out[i] = h
    return out


def _batch_doc_shingles(texts: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT word-``n``-gram shingle hashes for a whole batch,
    flat: returns ``(doc_idx, hashes)`` sorted by (doc, hash), distinct
    within each doc — every per-doc Python step hoisted to one batch-level
    kernel: Arrow RE2 split (`_split_words_flat`), blake2b over the token
    DICTIONARY only, one flat rolling polynomial for all window shingles,
    one lexsort for per-doc distinct. Byte-identical to the per-doc
    ``_shingle_hashes(_word_hashes(...))`` path (parity-tested via
    `_batch_minhash_sketches`); short-doc contract as in
    :func:`word_shingles`."""
    from ..analyzer import _split_words_flat
    from ..config import DEFAULT_DELIMITERS

    n_docs = len(texts)
    if n_docs == 0:
        e64 = np.empty(0, dtype=np.uint64)
        return np.empty(0, dtype=np.int64), e64
    lower = [normalize(t or "").lower() for t in texts]
    flat, doc_of, wl = _split_words_flat(lower, DEFAULT_DELIMITERS)
    nz = wl > 0
    if isinstance(flat, pa.ChunkedArray):  # pragma: no cover - combined above
        flat = flat.combine_chunks()
    enc = flat.dictionary_encode()
    idx = np.asarray(enc.indices.to_numpy(zero_copy_only=False), dtype=np.int64)
    words = enc.dictionary.to_pylist()
    dh = np.fromiter(
        (_hash64(w) for w in words), dtype=np.uint64, count=len(words)
    )
    wh = dh[idx[nz]]
    doc_of = doc_of[nz]
    counts = np.bincount(doc_of, minlength=n_docs)
    ends = np.cumsum(counts)
    starts = ends - counts
    with np.errstate(over="ignore"):
        powers = _MIX1 ** np.arange(n, dtype=np.uint64)
        F = len(wh)
        if F >= n:
            acc = np.zeros(F - n + 1, dtype=np.uint64)
            for k in range(n):
                acc += wh[k : F - n + 1 + k] * powers[k]
            acc *= _MIX2
            wdoc = doc_of[: F - n + 1]
            valid = (np.arange(F - n + 1, dtype=np.int64) + n) <= ends[wdoc]
            win_docs, win_hashes = wdoc[valid], acc[valid]
        else:
            win_docs = np.empty(0, dtype=np.int64)
            win_hashes = np.empty(0, dtype=np.uint64)
        # short-doc contract (0 < L < n → ONE whole-doc shingle), rare: loop
        short = np.flatnonzero((counts > 0) & (counts < n))
        if len(short):
            sh_hashes = np.asarray(
                [
                    (wh[starts[d] : ends[d]] * powers[: counts[d]]).sum()
                    * _MIX2
                    for d in short.tolist()
                ],
                dtype=np.uint64,
            )
            win_docs = np.concatenate([win_docs, short])
            win_hashes = np.concatenate([win_hashes, sh_hashes])
    # per-doc sorted distinct == np.unique per doc
    order = np.lexsort((win_hashes, win_docs))
    d2, h2 = win_docs[order], win_hashes[order]
    if len(d2):
        keep = np.empty(len(d2), dtype=bool)
        keep[0] = True
        keep[1:] = (d2[1:] != d2[:-1]) | (h2[1:] != h2[:-1])
        return d2[keep], h2[keep]
    return d2, h2


def _batch_minhash_sketches(
    texts: list,
    n: int,
    a: np.ndarray,
    b: np.ndarray,
    chunk_elems: int = 1 << 16,
) -> tuple[list, list]:
    """Whole-batch minhash sketches, byte-identical to the per-doc
    ``minhash_signature(_shingle_hashes(_word_hashes(...)))`` path:
    :func:`_batch_doc_shingles` for the flat distinct shingles, then one
    ``(x·a+b) mod p`` matrix + ``minimum.reduceat`` for the signatures.
    Returns (sig bytes, sorted-distinct shingle bytes) per doc. The per-row
    loop was the hottest stage of minhash_lsh_pairs (VERDICT r3 item:
    minhash_dedup 13.1 s vs 4.4 s in r2)."""
    n_docs = len(texts)
    num_perm = len(a)
    u64max = np.iinfo(np.uint64).max
    if n_docs == 0:
        return [], []
    d3, h3 = _batch_doc_shingles(texts, n)
    sig = np.full((n_docs, num_perm), u64max, dtype=np.uint64)
    c3 = np.bincount(d3, minlength=n_docs)
    if len(h3):
        nonempty = np.flatnonzero(c3 > 0)
        seg_starts = (np.cumsum(c3) - c3)[nonempty]
        seg_ends = seg_starts + c3[nonempty]
        # chunk the (shingles × num_perm) matrix at doc boundaries, sized to
        # stay cache-resident: the compute writes then min-reduces the same
        # matrix, so a ~512 KB chunk is 2.2× faster than a 128 MB one
        # (measured 0.42 s vs 0.92 s / 5000 bench docs) — DRAM round-trips
        # dominate otherwise. Long docs still get one whole-doc chunk.
        chunk_rows = max(1, chunk_elems // max(1, num_perm))
        i = 0
        while i < len(nonempty):
            j = int(
                np.searchsorted(
                    seg_ends, seg_starts[i] + chunk_rows, side="left"
                )
            )
            j = max(j, i + 1)
            base = seg_starts[i]
            with np.errstate(over="ignore"):
                vals = (
                    h3[base : seg_ends[j - 1], None] * a[None, :] + b[None, :]
                ) % np.uint64(_MERSENNE)
            sig[nonempty[i:j]] = np.minimum.reduceat(
                vals, seg_starts[i:j] - base, axis=0
            )
            i = j
    out_sig = [sig[i].tobytes() for i in range(n_docs)]
    out_sh = []
    pos = 0
    for c in c3.tolist():
        out_sh.append(h3[pos : pos + c].tobytes())
        pos += c
    return out_sig, out_sh


def _shingle_hashes(wh: np.ndarray, n: int) -> np.ndarray:
    """Distinct word-n-gram shingle hashes, vectorized: polynomial combine of
    the word-hash sliding window under uint64 wraparound (deterministic; the
    round-1 per-shingle hashlib loop was ~10× slower).

    Short-doc contract matches :func:`word_shingles`: 0 < L < n yields ONE
    synthetic hash of the whole L-word sequence (↔ the single joined-string
    shingle), L == 0 yields the empty array."""
    L = len(wh)
    if L == 0:
        return wh
    with np.errstate(over="ignore"):
        powers = _MIX1 ** np.arange(n, dtype=np.uint64)
        if L < n:
            return np.asarray([(wh * powers[:L]).sum() * _MIX2], dtype=np.uint64)
        acc = np.zeros(L - n + 1, dtype=np.uint64)
        for k in range(n):
            acc += wh[k : L - n + 1 + k] * powers[k]
        acc *= _MIX2
    return np.unique(acc)


def minhash_lsh_pairs(
    ds,
    num_perm: int = 128,
    bands: int = 32,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    seed: int = 42,
    threshold: float = 0.5,
    est_cutoff: float = 0.0,
    max_bucket_size: int = 256,
    num_partitions: int | None = None,
):
    """MinHash+LSH near-dup pairs over word n-gram shingles: docs sharing any
    band bucket become candidates; each candidate pair is then verified with
    the EXACT word-n-gram Jaccard of the two shingle-hash sketches (plus the
    signature-agreement estimate). Returns (id_a, id_b, est_jaccard,
    jaccard) with id_a < id_b and exact ``jaccard ≥ threshold`` — the exact
    column makes the output SQL-checkable (the oracle recomputes word-shingle
    Jaccard over all pairs; LSH recall at the default 32 bands × 4 rows is
    ~1 − (1 − j⁴)³² ≈ 99.99 % at j = 0.7). Deterministic (seeded).

    Scale: signatures/sketches are vectorized numpy per batch, computed ONCE;
    the band shuffle moves only (doc_id, band, bucket) 8-byte keys; buckets
    larger than ``max_bucket_size`` are dropped (the engine's stop-term rule
    — a hot bucket of k identical boilerplate docs would otherwise emit k²
    pairs); verification attaches the two sketches to each pair via hash
    joins (`_attach_sketches`) — no driver state anywhere. ``est_cutoff``
    optionally prunes candidate pairs by signature agreement before the
    exact set intersection."""
    from ..analyzer import _word_splitter
    from ..config import DEFAULT_DELIMITERS

    rows_per_band = num_perm // bands
    a, b = _minhash_params(num_perm, seed)

    def compute_sketches(batch: pa.Table) -> pa.Table:
        out_sig, out_sh = _batch_minhash_sketches(
            batch[text_col].to_pylist(), n, a, b
        )
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "sig": pa.array(out_sig, pa.binary()),
                "sh": pa.array(out_sh, pa.binary()),
            }
        )

    # sketches computed ONCE and materialized; the band emission and the
    # verification joins both read the cached blocks
    sigs = ds.map_batches(compute_sketches, batch_format="pyarrow").materialize()

    def emit_bands(batch: pa.Table) -> pa.Table:
        n_docs = len(batch)
        if n_docs == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                }
            )
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        S = np.vstack(
            [np.frombuffer(s, dtype=np.uint64) for s in batch["sig"].to_pylist()]
        ).reshape(n_docs, bands, rows_per_band)
        powers = _MIX2 ** np.arange(rows_per_band, dtype=np.uint64)
        with np.errstate(over="ignore"):
            buckets = ((S * powers[None, None, :]).sum(axis=2) * _MIX1).view(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(bands, dtype=np.int32), n_docs), pa.int32()
                ),
                "bucket": pa.array(buckets.reshape(-1), pa.int64()),
            }
        )

    band_rows = sigs.map_batches(emit_bands, batch_format="pyarrow")

    # ONE coarse group per bucket-hash slice instead of one per (band,
    # bucket): `map_groups` pays a Python call per group, and ~n_docs×bands
    # mostly-singleton buckets made that the dominant cost (3.5 s of a 9.4 s
    # run at 5k docs). A slice key is a pure function of (band, bucket), so
    # every bucket still lands wholly inside one group; the UDF then finds
    # bucket runs with one lexsort and expands pairs per qualifying bucket.
    # Slice count scales with the band-row volume (~2M rows per group task)
    # so one slice never outgrows a worker; sigs is materialized, so count()
    # is metadata-only.
    N_SLICES = int(min(65536, max(64, (sigs.count() * bands) // 2_000_000)))

    add_slice = dataflow.add_slice(("bucket", "band"), N_SLICES)

    def pairs_in_slice(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        bd = group["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bk, bd))
        ids, bd, bk = ids[order], bd[order], bk[order]
        new = np.empty(len(ids), dtype=bool)
        if len(ids) == 0:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        new[0] = True
        new[1:] = (bd[1:] != bd[:-1]) | (bk[1:] != bk[:-1])
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ids)]
        pa_, pb_ = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            docs = np.unique(ids[s:e])
            m = len(docs)
            if m < 2 or m > max_bucket_size:
                # oversize buckets dropped (boilerplate/empty-doc skew guard)
                continue
            iu, ju = np.triu_indices(m, k=1)
            pa_.append(docs[iu])
            pb_.append(docs[ju])
        if not pa_:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(pa_), pa.int64()),
                "id_b": pa.array(np.concatenate(pb_), pa.int64()),
            }
        )

    cand = (
        band_rows.map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(pairs_in_slice, batch_format="pyarrow")
    )
    # verify distributively: attach both sketches per pair (broadcast ids or
    # hash joins by size), then score (signature estimate + exact Jaccard)
    joined = _verify_pairs(cand, sigs, num_partitions)
    if joined is None:
        # empty Datasets lose their column schema, which breaks the joins
        return dataflow.typed_empty(
            {
                "id_a": pa.int64(),
                "id_b": pa.int64(),
                "est_jaccard": pa.float64(),
                "jaccard": pa.float64(),
            }
        )

    def score(batch: pa.Table) -> pa.Table:
        oa, ob, oe, oj = [], [], [], []
        for x, y, siga, sigb, sha, shb in zip(
            batch["id_a"].to_pylist(),
            batch["id_b"].to_pylist(),
            batch["sig_a"].to_pylist(),
            batch["sig_b"].to_pylist(),
            batch["sh_a"].to_pylist(),
            batch["sh_b"].to_pylist(),
        ):
            est = float(
                (np.frombuffer(siga, np.uint64) == np.frombuffer(sigb, np.uint64)).mean()
            )
            if est < est_cutoff:
                continue
            sa = np.frombuffer(sha, dtype=np.uint64)
            sb = np.frombuffer(shb, dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                oa.append(x)
                ob.append(y)
                oe.append(round_half_up4(est))
                oj.append(round_half_up4(jac))
        return pa.table(
            {
                "id_a": pa.array(oa, pa.int64()),
                "id_b": pa.array(ob, pa.int64()),
                "est_jaccard": pa.array(oe, pa.float64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


# --- SimHash -----------------------------------------------------------------


def _md5_u64(s: str) -> int:
    """Cross-engine 64-bit hash: the lower 8 md5 digest bytes, little-endian
    — bit-for-bit DuckDB's ``md5_number_lower()``, so SQL oracles can
    recompute every hash-derived value (SimHash bits, fingerprints)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:16], "little")


def simhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text", n: int = 3) -> pa.Table:
    """64-bit SimHash over char n-gram features (weight = 1 per distinct);
    bit accumulation vectorized over all of a doc's shingle hashes at once.
    Gram hash = md5 lower half (:func:`_md5_u64`) with a per-batch cache —
    grams repeat heavily across docs, and the md5 choice makes the SimHash
    (and the Hamming pairs built on it) exactly recomputable in DuckDB."""
    out = np.zeros(len(batch), dtype=np.int64)
    texts = batch[text_col].to_pylist()
    bit_idx = np.arange(64, dtype=np.uint64)
    weights = np.uint64(1) << bit_idx
    cache: dict[str, int] = {}
    for i, t in enumerate(texts):
        grams = char_shingles(t, n)
        if not grams:
            continue
        hs = np.empty(len(grams), dtype=np.uint64)
        for k, g in enumerate(grams):
            h = cache.get(g)
            if h is None:
                h = cache[g] = _md5_u64(g)
            hs[k] = h
        bits = ((hs[:, None] >> bit_idx[None, :]) & np.uint64(1)).astype(np.int64)
        acc = 2 * bits.sum(axis=0) - len(grams)  # (+1/-1 votes per bit)
        out[i] = (weights * (acc > 0).astype(np.uint64)).sum(dtype=np.uint64).astype(np.int64)
    return pa.table({"doc_id": batch[id_col], "simhash": out})


def simhash_dup_pairs(
    ds,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bucket_size: int = 512,
):
    """Near-dup pairs with SimHash Hamming distance ≤ max_hamming, found by
    4-block bucketing (a pair within distance 3 shares at least one of 4
    16-bit blocks — pigeonhole). Buckets larger than ``max_bucket_size`` are
    dropped (skew guard: at web scale a 16-bit block bucket holds ~N/65k docs
    and would otherwise emit k² pairs for boilerplate-heavy keys)."""
    hashed = ds.map_batches(
        lambda b: simhash_batch(b, id_col, text_col), batch_format="pyarrow"
    )
    return hash_dup_pairs(
        hashed, "simhash", max_hamming=max_hamming,
        max_bucket_size=max_bucket_size,
    )


def hash_dup_pairs(
    hashed,
    hash_col: str,
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket_size: int = 512,
):
    """Pigeonhole Hamming-pair mining over ANY 64-bit perceptual-hash
    column (SimHash text hashes, image dHashes, audio fingerprints): a pair
    within distance ``max_hamming ≤ 3`` shares at least one of 4 16-bit
    blocks, so 4 bucket rows per row find every such pair. Extracted from
    the simhash path so multimodal hashes reuse the same engine.
    ``max_hamming > 3`` would silently lose recall (distance 4 can place
    one differing bit in every block) — rejected."""
    if max_hamming > 3:
        raise ValueError(
            "hash_dup_pairs: 4-block pigeonhole guarantees recall only for "
            f"max_hamming <= 3 (got {max_hamming})"
        )

    def emit_blocks(batch: pa.Table) -> pa.Table:
        # 4 rows per doc, fully vectorized: shift the uint64 view of the
        # hash by each block offset and mask the 16-bit key
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = batch[hash_col].to_numpy(zero_copy_only=False)
        uh = h.view(np.uint64)
        n = len(ids)
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        keys = ((uh[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)).astype(
            np.int32
        )
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "block": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                "key": pa.array(keys.reshape(-1)),
                "simhash": pa.array(np.repeat(h, 4), pa.int64()),
            }
        )

    blocks = hashed.map_batches(emit_blocks, batch_format="pyarrow")

    def pairs(group: pa.Table) -> pa.Table:
        rows = sorted(set(zip(group["doc_id"].to_pylist(), group["simhash"].to_pylist())))  # noqa: E501 — "simhash" is the emit_blocks-internal name for any hash_col
        if len(rows) > max_bucket_size:
            rows = []  # oversize bucket dropped (see docstring)
        a, b, d = [], [], []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                x = np.uint64(rows[i][1]) ^ np.uint64(rows[j][1])
                ham = bin(int(x)).count("1")
                if ham <= max_hamming:
                    a.append(rows[i][0])
                    b.append(rows[j][0])
                    d.append(ham)
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "hamming": pa.array(d, pa.int32()),
            }
        )

    cand = blocks.groupby(["block", "key"]).map_groups(pairs, batch_format="pyarrow")
    return _pair_slice_agg(cand, [("hamming", "min")]).map_batches(
        lambda t: pa.table(
            {
                "id_a": t["id_a"],
                "id_b": t["id_b"],
                # keep the op's int32 contract (matches the oracle's ::INT)
                "hamming": t["hamming"].cast(pa.int32()),
            }
        ),
        batch_format="pyarrow",
    )


# --- embedding cosine near-dup ----------------------------------------------


def _unpack_vec_block(tbl: pa.Table, id_col: str, vec_col: str):
    from .similarity import _to_matrix

    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(ids) == 0:
        return ids, np.empty((0, 0))
    m = _to_matrix(tbl, vec_col)  # zero-copy flatten+reshape, no row objects
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return ids, m / norms[:, None]


_EMPTY_PAIRS = pa.table(
    {
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64()),
        "cosine": pa.array([], pa.float64()),
    }
)


def embedding_dup_pairs(
    ds, threshold: float = 0.95, id_col: str = "vec_id", vec_col: str = "embedding"
) -> pa.Table:
    """EXACT pairs with cosine similarity ≥ threshold, via a distributed
    block-pair cross join: the dataset's Arrow blocks stay in the object
    store (``to_arrow_refs``) and one Ray task per block pair (i ≤ j) does a
    single matmul between the two blocks. Driver memory is O(#blocks +
    #result pairs); compute is the unavoidable O(N²) of an exact all-pairs
    threshold join, but distributed and spillable — no full-corpus matrix is
    ever built on the driver (the round-1 design did exactly that).

    For web scale prefer :func:`embedding_dup_pairs_lsh` (candidate buckets
    + in-bucket exact verify, near-linear)."""
    import ray

    refs = ds.select_columns([id_col, vec_col]).materialize().to_arrow_refs()

    def cross(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ids_a, ma = _unpack_vec_block(ta, id_col, vec_col)
        ids_b, mb = _unpack_vec_block(tb, id_col, vec_col)
        if len(ids_a) == 0 or len(ids_b) == 0:
            return _EMPTY_PAIRS
        sims = ma @ mb.T
        if same:
            sims = np.triu(sims, k=1)  # dedupe within-block pairs
        rows, cols = np.nonzero(sims >= threshold)
        a, b = ids_a[rows], ids_b[cols]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keep = lo < hi
        return pa.table(
            {
                "id_a": pa.array(lo[keep], pa.int64()),
                "id_b": pa.array(hi[keep], pa.int64()),
                "cosine": pa.array(
                    [round_half_up4(v) for v in sims[rows, cols][keep]], pa.float64()
                ),
            }
        )

    ij = [(i, j) for i in range(len(refs)) for j in range(i, len(refs))]
    futures = dataflow.on_blocks(
        cross,
        [refs[i] for i, _ in ij],
        [refs[j] for _, j in ij],
        [i == j for i, j in ij],
    )
    parts = [t for t in ray.get(futures) if t.num_rows]
    return pa.concat_tables(parts) if parts else _EMPTY_PAIRS


def embedding_dup_pairs_lsh(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 42,
    max_bucket_size: int = 4096,
) -> pa.Table:
    """Approximate near-dup pairs at scale: random-hyperplane LSH buckets
    (``n_tables`` independent tables — recall for cosine ≥ threshold grows
    with tables) generate candidates; each bucket group exact-verifies its
    members' pairwise cosine IN-GROUP (both vectors are co-grouped, so no
    broadcast and no driver materialization). Oversize buckets are dropped."""
    from .similarity import _hyperplanes

    probe = ds.select_columns([vec_col]).limit(1).take(1)
    if not probe:  # empty embeddings dataset → empty pair table
        import ray

        return ray.data.from_arrow(_EMPTY_PAIRS)
    dim = len(probe[0][vec_col])
    planes = [_hyperplanes(dim, n_bits, seed + t) for t in range(n_tables)]

    def emit_buckets(batch: pa.Table) -> pa.Table:
        ids, m = _unpack_vec_block(batch, id_col, vec_col)
        if len(ids) == 0:
            return pa.table(
                {
                    "table_id": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "vec": pa.array([], pa.list_(pa.float64())),
                }
            )
        weights = (1 << np.arange(n_bits)).astype(np.int64)
        tables = {"table_id": [], "bucket": [], "doc_id": [], "vec": []}
        vec_lists = m.tolist()
        for t, pl in enumerate(planes):
            buckets = ((m @ pl.T) > 0) @ weights
            tables["table_id"].extend([t] * len(ids))
            tables["bucket"].extend(int(x) for x in buckets)
            tables["doc_id"].extend(int(x) for x in ids)
            tables["vec"].extend(vec_lists)
        return pa.table(
            {
                "table_id": pa.array(tables["table_id"], pa.int32()),
                "bucket": pa.array(tables["bucket"], pa.int64()),
                "doc_id": pa.array(tables["doc_id"], pa.int64()),
                "vec": pa.array(tables["vec"], pa.list_(pa.float64())),
            }
        )

    bucketed = ds.select_columns([id_col, vec_col]).map_batches(
        emit_buckets, batch_format="pyarrow"
    )

    def verify_group(group: pa.Table) -> pa.Table:
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        uniq_mask = np.ones(len(ids), dtype=bool)
        uniq_mask[1:] = ids[1:] != ids[:-1]
        if uniq_mask.sum() < 2 or uniq_mask.sum() > max_bucket_size:
            return _EMPTY_PAIRS
        m = np.vstack([group["vec"][int(i)].as_py() for i in order[uniq_mask]])
        ids = ids[uniq_mask]
        sims = np.triu(m @ m.T, k=1)
        rows, cols = np.nonzero(sims >= threshold)
        return pa.table(
            {
                "id_a": pa.array(ids[rows], pa.int64()),
                "id_b": pa.array(ids[cols], pa.int64()),
                "cosine": pa.array(
                    [round_half_up4(v) for v in sims[rows, cols]], pa.float64()
                ),
            }
        )

    cand = bucketed.groupby(["table_id", "bucket"]).map_groups(
        verify_group, batch_format="pyarrow"
    )
    # distinct pairs across tables (same pair can collide in several
    # tables); pair-slice grouped — never a per-pair Ray group
    uniq = _pair_slice_agg(cand, [("cosine", "min")])

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"], "cosine": t["cosine"]})

    return uniq.map_batches(rename, batch_format="pyarrow")


# --- cluster + filter --------------------------------------------------------


def dedup_clusters(pairs: pa.Table) -> dict[int, int]:
    """Union-find over near-dup pairs → {doc_id: cluster_representative}
    (representative = min doc_id in the cluster). Pairs are tiny relative to
    the corpus (only near-dups), so this runs on the driver; at extreme scale
    use iterative label propagation over the pairs Dataset."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller id as representative
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


def dedup_corpus(ds, pairs: pa.Table, id_col: str = "doc_id"):
    """Drop every near-duplicate except the min-id representative of its
    cluster: broadcast the (small) drop set, filter inside map_batches —
    the corpus itself streams, never materializes."""
    import ray

    clusters = dedup_clusters(pairs)
    drop = {doc for doc, rep in clusters.items() if doc != rep}
    drop_ref = ray.put(np.fromiter(drop, dtype=np.int64) if drop else np.empty(0, np.int64))

    def keep_batch(batch: pa.Table) -> pa.Table:
        drop_ids = ray.get(drop_ref)
        if len(drop_ids) == 0:
            return batch
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        return batch.filter(pa.array(~np.isin(ids, drop_ids)))

    return ds.map_batches(keep_batch, batch_format="pyarrow")


def dedup_clusters_ds(pairs_ds, num_partitions: int | None = None, max_iters: int = 50):
    """Distributed connected components over a near-dup PAIRS Dataset via
    iterative min-label propagation — the scale path for :func:`dedup_clusters`
    (which union-finds on the driver and therefore holds the whole pair set
    in one heap). Returns a Dataset of (node, label) with label = the min
    doc_id reachable in the pair graph; driver traffic per iteration is one
    scalar (the changed-label count).

    Each iteration: labels ⋈ edges (hash join, distributed) → per-node min
    over neighbor labels → merge with own label → one POINTER-JUMPING step
    (label(x) ← min(label(x), label(label(x)))), which halves the residual
    chain depth per round, so convergence is O(log diameter) instead of
    O(diameter) — a planted 50-deep chain converges in ~7 rounds.
    ``max_iters`` bounds pathological graphs."""
    num_partitions = dataflow.join_partitions(num_partitions)
    edges_fwd = pairs_ds.select_columns(["id_a", "id_b"])

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    edges = edges_fwd.map_batches(both_dirs, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return dataflow.typed_empty({"node": pa.int64(), "label": pa.int64()})
    # every round's joins reuse edges and labels: uniform once, here
    edges = dataflow.uniform(edges, num_partitions)

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["src"], "label": batch["src"]})

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .min("label")
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "label": t["min(label)" if "min(label)" in t.column_names else "label"],
                }
            ),
            batch_format="pyarrow",
        )
    )
    labels = dataflow.uniform(labels, num_partitions)

    for _ in range(max_iters):
        # neighbor-label candidates: label(dst) proposed to src
        prop = dataflow.join(
            edges, labels, "inner", "dst", num_partitions, right_on="node"
        )

        def as_node_label(batch: pa.Table) -> pa.Table:
            return pa.table({"node": batch["src"], "label": batch["label"]})

        cand = (
            prop.map_batches(as_node_label, batch_format="pyarrow")
            .union(labels)
            .groupby("node")
            .min("label")
            .map_batches(
                lambda t: pa.table(
                    {
                        "node": t["node"],
                        "label": t[
                            "min(label)" if "min(label)" in t.column_names else "label"
                        ],
                    }
                ),
                batch_format="pyarrow",
            )
        )
        cand = dataflow.uniform(cand, num_partitions)  # joined twice below

        # pointer jumping: attach each node's label's OWN label (labels are
        # always existing node ids, so the inner self-join is total)
        jumped = dataflow.join(
            cand,
            cand,
            "inner",
            "label",
            num_partitions,
            right_on="node",
            left_suffix="_x",
            right_suffix="_p",
        )

        def jump_min(batch: pa.Table) -> pa.Table:
            lx = batch["label_x"].to_numpy(zero_copy_only=False)
            lp = batch["label_p"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": batch["node"],
                    "label": pa.array(np.minimum(lx, lp), pa.int64()),
                }
            )

        cand = dataflow.uniform(
            jumped.map_batches(jump_min, batch_format="pyarrow"), num_partitions
        )  # the next round's labels

        # convergence: any node whose label shrank this round?
        changed_ds = dataflow.join(
            cand,
            labels,
            "inner",
            "node",
            num_partitions,
            left_suffix="_new",
            right_suffix="_old",
        )

        def count_changed(batch: pa.Table) -> pa.Table:
            n = int(
                (
                    batch["label_new"].to_numpy(zero_copy_only=False)
                    != batch["label_old"].to_numpy(zero_copy_only=False)
                ).sum()
            )
            return pa.table({"changed": pa.array([n], pa.int64())})

        changed = sum(
            r["changed"]
            for r in changed_ds.map_batches(count_changed, batch_format="pyarrow")
            .take_all()
        )
        labels = cand
        if changed == 0:
            break
    return labels


def dedup_corpus_ds(ds, pairs_ds, id_col: str = "doc_id", num_partitions: int | None = None):
    """Fully-distributed dedup: label-propagation clustering over the pairs
    Dataset, then an ANTI join dropping every doc whose cluster label is not
    itself — no driver-side dict or broadcast set at any point (the filter
    side of :func:`dedup_corpus` broadcasts the drop set, which is fine for
    output-sized pair tables but not for a 100-TB crawl's duplicate mass).

    Size gate (same cutover as ``_verify_pairs``): a pair graph of
    ≤ ``_BROADCAST_VERIFY_MAX_PAIRS`` edges union-finds on the driver and
    broadcasts the drop set instead — O(log d) iterations of three hash
    joins each are pure barrier overhead at that size. An explicit
    ``num_partitions`` forces the distributed path."""
    if num_partitions is None:
        pairs_ds = pairs_ds.materialize()
        if pairs_ds.count() <= _BROADCAST_VERIFY_MAX_PAIRS:
            import ray

            blocks = [
                t.select(["id_a", "id_b"])
                for t in ray.get(pairs_ds.to_arrow_refs())
                if t.num_rows
            ]
            if not blocks:
                return ds
            return dedup_corpus(
                ds, pa.concat_tables(blocks).combine_chunks(), id_col=id_col
            )
    labels = dedup_clusters_ds(pairs_ds, num_partitions=num_partitions)

    def drops_only(batch: pa.Table) -> pa.Table:
        keep = (
            batch["node"].to_numpy(zero_copy_only=False)
            != batch["label"].to_numpy(zero_copy_only=False)
        )
        return pa.table({"node": batch["node"].filter(pa.array(keep))})

    drops = labels.map_batches(drops_only, batch_format="pyarrow")
    return dataflow.join(
        ds, drops, "left_anti", id_col, num_partitions, right_on="node", stream="left"
    )


# --- cross-corpus (incremental) exact dedup ----------------------------------


_DIGEST_DT = np.dtype([("a", np.uint64), ("b", np.uint64)])


def _text_digests(texts: list) -> np.ndarray:
    """16-byte blake2b digests of the raw texts as a structured (a, b)
    uint64-pair numpy array (None ≡ empty string, matching
    :func:`exact_dedup`). The pair form survives Arrow transfer and supports
    sorted ``searchsorted`` membership — a fixed-width ``S16`` array would
    silently truncate trailing NUL bytes at Python-object conversion."""
    buf = b"".join(
        hashlib.blake2b((t or "").encode("utf-8"), digest_size=16).digest()
        for t in texts
    )
    flat = np.frombuffer(buf, dtype=">u8").reshape(-1, 2).astype(np.uint64)
    rec = np.empty(len(texts), dtype=_DIGEST_DT)
    if len(texts):
        rec["a"], rec["b"] = flat[:, 0], flat[:, 1]
    return rec


def dedup_against(
    corpus_ds,
    reference_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    ref_text_col: str | None = None,
    broadcast: bool = True,
    num_partitions: int | None = None,
):
    """Drop corpus documents whose ``text`` appears (byte-identically) in a
    reference corpus — the incremental-crawl pass: dedup the new shard
    against everything already ingested, without re-clustering the old data.

    Two physical plans, picked by ``broadcast``:

    * ``broadcast=True`` (default, reference ≪ corpus): the reference side
      collapses to DISTINCT 16-byte digests with per-batch partials before
      the driver sees a row, is ``ray.put`` once, and the 100-TB corpus
      streams through a vectorized ``searchsorted`` membership filter — no
      shuffle anywhere (same pattern as ``ops.decontam``). Driver/worker
      memory is 16 bytes × |reference distinct texts|.
    * ``broadcast=False`` (both sides huge): hash column + ``left_anti``
      Dataset join — one all-to-all of (digest, row) keys per side, never
      the texts.

    Hash collisions (~2⁻¹²⁸) are the only divergence from the SQL oracle's
    literal ``text NOT IN (...)``.
    """
    ref_text_col = ref_text_col or text_col

    if broadcast:
        import ray

        def ref_partial(batch: pa.Table) -> pa.Table:
            u = np.unique(_text_digests(batch[ref_text_col].to_pylist()))
            return pa.table({"a": pa.array(u["a"]), "b": pa.array(u["b"])})

        parts = []
        for b in (
            reference_ds.select_columns([ref_text_col])
            .map_batches(ref_partial, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ):
            if len(b) == 0:
                continue
            rec = np.empty(len(b), dtype=_DIGEST_DT)
            rec["a"] = b["a"].to_numpy(zero_copy_only=False)
            rec["b"] = b["b"].to_numpy(zero_copy_only=False)
            parts.append(rec)
        ref = (
            np.unique(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=_DIGEST_DT)
        )
        ref_ref = ray.put(ref)

        def keep_new(batch: pa.Table) -> pa.Table:
            r = ray.get(ref_ref)
            if len(r) == 0:
                return batch
            h = _text_digests(batch[text_col].to_pylist())
            idx = np.searchsorted(r, h)
            idx[idx == len(r)] = 0
            seen = r[idx] == h
            return batch.filter(pa.array(~seen))

        return corpus_ds.map_batches(keep_new, batch_format="pyarrow")

    def add_hash(batch: pa.Table) -> pa.Table:
        hexes = [
            hashlib.blake2b((t or "").encode("utf-8"), digest_size=16).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return batch.append_column("__h", pa.array(hexes, pa.string()))

    def ref_hashes(batch: pa.Table) -> pa.Table:
        hexes = sorted(
            {
                hashlib.blake2b((t or "").encode("utf-8"), digest_size=16).hexdigest()
                for t in batch[ref_text_col].to_pylist()
            }
        )
        return pa.table({"__h": pa.array(hexes, pa.string())})

    hashed = corpus_ds.map_batches(add_hash, batch_format="pyarrow")
    ref = reference_ds.select_columns([ref_text_col]).map_batches(
        ref_hashes, batch_format="pyarrow"
    )
    joined = dataflow.join(
        hashed, ref, "left_anti", "__h", num_partitions, stream="left"
    )
    return joined.map_batches(
        lambda t: t.drop_columns(["__h"]), batch_format="pyarrow"
    )


def dedup_lines(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    pos_bits: int = 22,
    num_partitions: int | None = None,
    sep: str = "\n",
):
    """C4-style corpus-level line dedup, first occurrence wins (Raffel et
    al. 2020 used three-sentence spans; the line is the web-text unit here,
    complementing :func:`remove_boilerplate_lines`'s ≥k-docs rule): every
    non-blank line keeps exactly ONE occurrence corpus-wide — the one with
    the smallest ``doc_id · 2^pos_bits + line_no`` — and later copies are
    dropped from their documents; blank lines always survive (document
    structure). Returns (id, text) with lines rebuilt in original order.

    Scale: the corpus streams; only (line_hash, packed_pos) 16-byte rows
    shuffle — by a coarse slice of the hash, never one Ray group per line
    hash (line hashes are ~unique; Ray's aggregate pays per GROUP) — each
    slice takes its per-hash minima with one vectorized Arrow group-by;
    losers shuffle back via one id-slice groupby, and the rebuild pass
    joins docs ⋈ loser-line-lists with one hash join — no driver state
    (the md5 line hash is 64-bit; a collision merges two distinct lines
    with probability ~2⁻⁶⁴ per pair — the SQL oracle groups by the line
    text itself, which is the semantic spec). Requires integer ids and
    line counts < 2^pos_bits per doc."""
    import pyarrow.compute as pc

    B = np.int64(1 << pos_bits)
    _BLANK = " \t\r\x0b\x0c"
    num_slices = dataflow.num_slices(mult=8, floor=64)

    def line_rows(batch: pa.Table) -> pa.Table:
        # one Arrow split for the batch; md5 once per DISTINCT line via
        # dictionary_encode (the per-line Python loop this replaces walked
        # every line of every doc)
        texts = pc.fill_null(pc.cast(batch[text_col], pa.large_string()), "")
        lists = pc.split_pattern(texts, sep)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        n = len(doc_of)
        empty = pa.table(
            {
                "h": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "slice": pa.array([], pa.int32()),
            }
        )
        if n == 0:
            return empty
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = doc_of[1:] != doc_of[:-1]
        seg = np.cumsum(new) - 1
        line_no = np.arange(n, dtype=np.int64) - np.flatnonzero(new)[seg]
        keep = pc.not_equal(
            pc.utf8_trim(flat, _BLANK), ""
        ).to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        doc_of, line_no = doc_of[keep], line_no[keep]
        if len(line_no) == 0:
            return empty
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dh = np.asarray(
            [_md5_u64(s) & 0x7FFFFFFFFFFFFFFF for s in enc.dictionary.to_pylist()],
            dtype=np.int64,
        )
        h = dh[codes]
        ids = (
            batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        pos = (ids[doc_of] << pos_bits) + line_no
        return pa.table(
            {
                "h": pa.array(h),
                "pos": pa.array(pos),
                "slice": pa.array(dataflow.slice_of(num_slices, h)),
            }
        )

    lines = ds.select_columns([id_col, text_col]).map_batches(
        line_rows, batch_format="pyarrow"
    )

    def slice_min(group: pa.Table) -> pa.Table:
        agg = group.drop_columns(["slice"]).group_by(["h"]).aggregate(
            [("pos", "min")]
        )
        ren = {"pos_min": "keep_pos"}
        agg = agg.rename_columns([ren.get(c, c) for c in agg.column_names])
        return pa.table(
            {"h": agg["h"], "keep_pos": agg["keep_pos"].cast(pa.int64())}
        )

    winners = lines.groupby("slice").map_groups(slice_min, batch_format="pyarrow")
    joined = dataflow.join(
        lines.drop_columns(["slice"]), winners, "inner", "h", num_partitions,
        chained=False, stream="left",
    )

    def losers(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        kp = batch["keep_pos"].to_numpy(zero_copy_only=False)
        m = p != kp
        p = p[m]
        return pa.table(
            {
                id_col: pa.array((p >> pos_bits).astype(np.int64)),
                "line_no": pa.array((p & (int(B) - 1)).astype(np.int64)),
            }
        )

    def collect_slice(group: pa.Table) -> pa.Table:
        # all docs of the slice in one pass: sort (id, line_no), then one
        # comma-join per doc run (strings because Ray 2.49 hash joins
        # reject list<> payload columns: "not supported in join non-key
        # field")
        if group.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "drop_lines": pa.array([], pa.large_string()),
                }
            )
        ids = group[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        ln = group["line_no"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, ids))
        ids, ln = ids[order], ln[order]
        new = np.empty(len(ids), dtype=bool)
        new[0] = True
        new[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ids)]
        return pa.table(
            {
                id_col: pa.array(ids[starts].astype(np.int64)),
                "drop_lines": pa.array(
                    [
                        ",".join(map(str, ln[a:b].tolist()))
                        for a, b in zip(starts, ends)
                    ],
                    pa.large_string(),
                ),
            }
        )

    loser_lists = (
        joined.map_batches(losers, batch_format="pyarrow")
        .map_batches(dataflow.add_slice(id_col, num_slices), batch_format="pyarrow")
        .groupby("slice")
        .map_groups(
            lambda g: collect_slice(g.drop_columns(["slice"])),
            batch_format="pyarrow",
        )
        .materialize()
    )

    if loser_lists.count() == 0:
        def passthrough(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: batch[id_col],
                    "text": batch[text_col].cast(pa.large_string()),
                }
            )

        return ds.select_columns([id_col, text_col]).map_batches(
            passthrough, batch_format="pyarrow"
        )

    cleaned = dataflow.join(
        ds.select_columns([id_col, text_col]), loser_lists, "left_outer", id_col,
        num_partitions, chained=False, stream="left",
    )

    def rebuild(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        drops = batch["drop_lines"].to_pylist()
        out = []
        for t, d in zip(texts, drops):
            if not d:
                out.append(t or "")
                continue
            dset = {int(x) for x in d.split(",")}
            lines_ = (t or "").split(sep)
            out.append(
                sep.join(l for j, l in enumerate(lines_) if j not in dset)
            )
        return pa.table(
            {
                id_col: batch[id_col],
                "text": pa.array(out, pa.large_string()),
            }
        )

    return cleaned.map_batches(rebuild, batch_format="pyarrow")


# --- cross-corpus NEAR-dup decontamination ------------------------------------


def dedup_against_minhash(
    corpus,
    reference,
    threshold: float = 0.5,
    n: int = 3,
    num_perm: int = 128,
    bands: int = 32,
    seed: int = 42,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bucket_size: int = 256,
    num_partitions: int | None = None,
):
    """Fuzzy cross-corpus decontamination: flag every corpus doc whose exact
    word-n-gram Jaccard against ANY reference doc reaches ``threshold`` —
    the near-dup analogue of :func:`dedup_against` (which is digest-exact)
    and of ``ops/decontam`` (which counts gram overlap, not similarity).
    The GPT-3/PaLM-style "remove train docs similar to eval docs" step.

    Returns one row per corpus doc: ``(doc_id, n_near, max_jaccard,
    near_contaminated)`` where ``n_near`` counts matched reference docs.

    Scale shape mirrors :func:`minhash_lsh_pairs` (band-bucket LSH,
    oversize-bucket skew guard, sketch hash-joins, zero driver state) but
    mines ONLY cross-corpus candidate pairs — corpus×corpus and ref×ref
    bucket co-occupants are never expanded, so a boilerplate-heavy corpus
    doesn't pay for in-corpus pairs it will discard. Corpus and reference
    ids may overlap and may span the FULL signed int64 range (hash-derived
    ids are routinely negative when viewed as int64): the two sides are
    kept in separate sketch tables and separated by an explicit ``src``
    column rather than a packed key bit, so no id bits are ever lost."""
    from ray.data.aggregate import Count, Max

    from ..analyzer import _word_splitter
    from ..config import DEFAULT_DELIMITERS

    rows_per_band = num_perm // bands
    a, b = _minhash_params(num_perm, seed)

    def sketches_fn(batch: pa.Table) -> pa.Table:
        out_sig, out_sh = _batch_minhash_sketches(
            batch[text_col].to_pylist(), n, a, b
        )
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "sig": pa.array(out_sig, pa.binary()),
                "sh": pa.array(out_sh, pa.binary()),
            }
        )

    corpus_sigs = corpus.map_batches(
        sketches_fn, batch_format="pyarrow"
    ).materialize()
    ref_sigs = reference.map_batches(
        sketches_fn, batch_format="pyarrow"
    ).materialize()

    def emit_bands_src(src: int):
        def emit_bands(batch: pa.Table) -> pa.Table:
            n_docs = len(batch)
            if n_docs == 0:
                return pa.table(
                    {
                        "key": pa.array([], pa.int64()),
                        "src": pa.array([], pa.int8()),
                        "band": pa.array([], pa.int32()),
                        "bucket": pa.array([], pa.int64()),
                    }
                )
            keys = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
            S = np.vstack(
                [
                    np.frombuffer(s, dtype=np.uint64)
                    for s in batch["sig"].to_pylist()
                ]
            ).reshape(n_docs, bands, rows_per_band)
            powers = _MIX2 ** np.arange(rows_per_band, dtype=np.uint64)
            with np.errstate(over="ignore"):
                buckets = ((S * powers[None, None, :]).sum(axis=2) * _MIX1).view(
                    np.int64
                )
            return pa.table(
                {
                    "key": pa.array(np.repeat(keys, bands), pa.int64()),
                    "src": pa.array(
                        np.full(n_docs * bands, src, dtype=np.int8), pa.int8()
                    ),
                    "band": pa.array(
                        np.tile(np.arange(bands, dtype=np.int32), n_docs),
                        pa.int32(),
                    ),
                    "bucket": pa.array(buckets.reshape(-1), pa.int64()),
                }
            )

        return emit_bands

    band_rows = corpus_sigs.map_batches(
        emit_bands_src(0), batch_format="pyarrow"
    ).union(ref_sigs.map_batches(emit_bands_src(1), batch_format="pyarrow"))
    n_sigs = corpus_sigs.count() + ref_sigs.count()
    n_slices = int(min(65536, max(64, (n_sigs * bands) // 2_000_000)))

    add_slice = dataflow.add_slice(("bucket", "band"), n_slices)

    def cross_pairs_in_slice(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        keys = group["key"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return empty
        srcs = group["src"].to_numpy(zero_copy_only=False)
        bd = group["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, srcs, bk, bd))
        keys, srcs, bd, bk = keys[order], srcs[order], bd[order], bk[order]
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        new[1:] = (bd[1:] != bd[:-1]) | (bk[1:] != bk[:-1])
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(keys)]
        ca, rb = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            m = srcs[s:e] == 0
            c = np.unique(keys[s:e][m])
            r = np.unique(keys[s:e][~m])
            # oversize-bucket skew guard applies per SIDE: a hot boilerplate
            # bucket would otherwise emit |c|×|r| pairs
            if len(c) == 0 or len(r) == 0:
                continue
            if len(c) > max_bucket_size or len(r) > max_bucket_size:
                continue
            ca.append(np.repeat(c, len(r)))
            rb.append(np.tile(r, len(c)))
        if not ca:
            return empty
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(ca), pa.int64()),
                "id_b": pa.array(np.concatenate(rb), pa.int64()),
            }
        )

    cand = (
        band_rows.map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(cross_pairs_in_slice, batch_format="pyarrow")
    )

    def corpus_ids(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch[id_col].cast(pa.int64())})

    tot_ds = corpus.map_batches(corpus_ids, batch_format="pyarrow")

    def zeros(batch: pa.Table) -> pa.Table:
        z = np.zeros(len(batch), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_near": pa.array(z),
                "max_jaccard": pa.array(np.zeros(len(batch), dtype=np.float64)),
                "near_contaminated": pa.array(np.zeros(len(batch), dtype=bool)),
            }
        )

    joined = _verify_pairs(cand, corpus_sigs, num_partitions, ref_sigs)
    if joined is None:
        return tot_ds.map_batches(zeros, batch_format="pyarrow")

    def score(batch: pa.Table) -> pa.Table:
        ids, jacs = [], []
        for key_c, sha, shb in zip(
            batch["id_a"].to_pylist(),
            batch["sh_a"].to_pylist(),
            batch["sh_b"].to_pylist(),
        ):
            sa = np.frombuffer(sha, dtype=np.uint64)
            sb = np.frombuffer(shb, dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                ids.append(key_c)
                jacs.append(round_half_up4(jac))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "jaccard": pa.array(jacs, pa.float64()),
            }
        )

    hits = joined.map_batches(score, batch_format="pyarrow")
    agg = hits.groupby("doc_id").aggregate(Count(), Max("jaccard"))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "n_near", "max_jaccard"])

    agg = agg.map_batches(rename, batch_format="pyarrow").materialize()
    if agg.count() == 0:  # candidates existed but none verified
        return tot_ds.map_batches(zeros, batch_format="pyarrow")
    out = dataflow.join(
        tot_ds, agg, "left_outer", "doc_id", num_partitions, stream="left"
    )

    def finish(batch: pa.Table) -> pa.Table:
        nn = batch["n_near"].to_numpy(zero_copy_only=False)
        nn = np.where(np.isnan(nn.astype(np.float64)), 0, nn).astype(np.int64)
        mx = batch["max_jaccard"].to_numpy(zero_copy_only=False).astype(np.float64)
        mx = np.where(np.isnan(mx), 0.0, mx)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_near": pa.array(nn),
                "max_jaccard": pa.array(mx),
                "near_contaminated": pa.array(nn > 0),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _md5_u64_upper(s: str) -> int:
    """Upper md5 half, little-endian — bit-for-bit DuckDB
    ``md5_number_upper()`` (the second independent 64-bit hash the
    Bloom/CMS double hashing needs)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")


def _md5_pair_mod(texts: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower % n, upper % n) uint64 arrays per text (None ≡ ''). One md5
    per text, both halves consumed — the exact values DuckDB's
    md5_number_lower/upper % n reproduce."""
    import hashlib as _h

    h1 = np.empty(len(texts), dtype=np.uint64)
    h2 = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        d = _h.md5(("" if t is None else str(t)).encode("utf-8")).digest()
        h1[i] = int.from_bytes(d[8:16], "little") % n
        h2[i] = int.from_bytes(d[:8], "little") % n
    return h1, h2


def _bloom_positions(texts: list, n_bits: int, k_hashes: int) -> np.ndarray:
    """(len(texts), k_hashes) int64 Bloom bit positions via Kirsch-
    Mitzenmacher double hashing over the two md5 halves (DuckDB
    md5_number_lower/upper parity — false positives must replay exactly):
    pos_i = ((lower % n) + i·(upper % n)) % n — computed in the reduced
    space so the SQL oracle can replay it without uint64 wraparound (DuckDB
    UBIGINT overflow raises instead of wrapping)."""
    h1, h2 = _md5_pair_mod(texts, n_bits)
    i = np.arange(k_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)).astype(
        np.int64
    )


def dedup_against_bloom(
    corpus_ds,
    reference_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    ref_text_col: str | None = None,
    n_bits: int = 1 << 20,
    k_hashes: int = 4,
):
    """Space-bounded :func:`dedup_against`: when the reference's exact
    digest set is too large to broadcast (16 B × |ref|), a Bloom filter of
    the reference texts costs ``n_bits/8`` bytes TOTAL regardless of
    reference size — the classic incremental-crawl membership sketch
    (Bloom 1970; double hashing per Kirsch & Mitzenmacher 2006).

    Build: per-batch distinct bit positions (≤ k·batch int64 rows) →
    ``groupby(pos)`` distinct → the ≤ n_bits sorted positions array is
    ``ray.put`` once. Filter: the corpus streams through a vectorized
    ``searchsorted`` ALL-k-positions-set test. Drops every reference text
    (no false negatives) plus a deterministic ~(set_bits/n_bits)^k false
    positive mass — the oracle replays the exact same filter, false
    positives included, so the output is still hash-checkable."""
    import ray

    ref_text_col = ref_text_col or text_col

    def ref_partial(batch: pa.Table) -> pa.Table:
        pos = _bloom_positions(batch[ref_text_col].to_pylist(), n_bits, k_hashes)
        u = np.unique(pos.reshape(-1))
        return pa.table({"pos": pa.array(u, pa.int64())})

    bits_rows = (
        reference_ds.select_columns([ref_text_col])
        .map_batches(ref_partial, batch_format="pyarrow")
        .groupby("pos")
        .count()
        .take_all()
    )
    set_bits = np.sort(np.asarray([r["pos"] for r in bits_rows], dtype=np.int64))
    ref = ray.put(set_bits)

    def keep_fn(batch: pa.Table) -> pa.Table:
        bits = ray.get(ref)
        pos = _bloom_positions(batch[text_col].to_pylist(), n_bits, k_hashes)
        if len(bits):
            loc = np.searchsorted(bits, pos)
            loc[loc >= len(bits)] = len(bits) - 1 if len(bits) else 0
            hit = bits[loc] == pos
            drop = hit.all(axis=1)
        else:
            drop = np.zeros(len(batch), dtype=bool)
        return batch.filter(pa.array(~drop))

    return corpus_ds.map_batches(keep_fn, batch_format="pyarrow")


def corpus_overlap(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    n: int = 3,
    num_slices: int | None = None,
):
    """Inter-corpus shingle-overlap matrix: for every unordered pair of
    ``group_col`` values (crawl source / snapshot / train-vs-benchmark
    split), the Jaccard and containment of their DISTINCT word-``n``-gram
    shingle sets — the train/test-overlap measurement of the C4/Pile-style
    corpus audits. Returns one row per pair (including zero-overlap pairs):
    ``(source_a, source_b, size_a, size_b, intersection, jaccard,
    containment)``.

    Scale design: each block reduces to its distinct (group, shingle-hash)
    pairs via the same vectorized kernel as the minhash sketch stage
    (:func:`_batch_doc_shingles` — Arrow RE2 split, dictionary blake2b, flat
    rolling hash); the hash space is then partitioned into ``num_slices``
    coarse slices (a pure function of the hash — the duplicate_spans
    slice-groupby, never a per-shingle groupby), and each slice computes its
    per-group distinct counts plus pairwise intersection counts fully
    vectorized (run-boundary detection + bincount over pair codes). Only
    O(groups²) counter rows per slice reach the driver; the text never moves
    past stage one. Short-doc shingle contract as in :func:`word_shingles`.
    """
    import pandas as pd

    if num_slices is None:
        num_slices = dataflow.num_slices(mult=8, floor=64)

    def emit(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        groups = batch[group_col].to_pylist()
        d, h = _batch_doc_shingles(texts, n)
        if len(h) == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "h": pa.array([], pa.uint64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        uniq = sorted({g or "" for g in groups})
        gmap = {g: i for i, g in enumerate(uniq)}
        gi = np.asarray([gmap[g or ""] for g in groups], dtype=np.int64)[d]
        order = np.lexsort((h, gi))
        gi, hh = gi[order], h[order]
        keep = np.empty(len(gi), dtype=bool)
        keep[0] = True
        keep[1:] = (gi[1:] != gi[:-1]) | (hh[1:] != hh[:-1])
        gi, hh = gi[keep], hh[keep]
        gvals = pa.array(uniq, pa.string()).take(pa.array(gi))
        sl = dataflow.slice_of(num_slices, hh)
        return pa.table({"g": gvals, "h": pa.array(hh, pa.uint64()), "slice": pa.array(sl)})

    def slice_counts(tbl: pa.Table) -> pa.Table:
        gd = tbl["g"].combine_chunks().dictionary_encode()
        names = gd.dictionary.to_pylist()
        gi = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        hh = tbl["h"].combine_chunks().to_numpy(zero_copy_only=False)
        ng = len(names)
        # distinct (group, hash) across the slice's input blocks
        order = np.lexsort((gi, hh))
        gi, hh = gi[order], hh[order]
        keep = np.empty(len(gi), dtype=bool)
        if len(gi):
            keep[0] = True
            keep[1:] = (gi[1:] != gi[:-1]) | (hh[1:] != hh[:-1])
            gi, hh = gi[keep], hh[keep]
        sizes = np.bincount(gi, minlength=ng)
        out_a, out_b, out_n, out_k = [], [], [], []
        for i, nm in enumerate(names):
            if sizes[i]:
                out_a.append(nm)
                out_b.append(nm)
                out_n.append(int(sizes[i]))
                out_k.append(0)  # kind 0 = per-group size row
        # runs of equal hash: members are distinct groups, gi ascending in-run
        if len(hh):
            starts = np.flatnonzero(np.r_[True, hh[1:] != hh[:-1]])
            lens = np.diff(np.r_[starts, len(hh)])
            pair_codes = []
            for c in range(2, int(lens.max()) + 1 if len(lens) else 1):
                rows = starts[lens == c]
                if not len(rows):
                    continue
                ia, ib = np.triu_indices(c, k=1)
                ga = gi[rows[:, None] + ia[None, :]]
                gb = gi[rows[:, None] + ib[None, :]]
                pair_codes.append((ga * ng + gb).ravel())
            if pair_codes:
                codes = np.concatenate(pair_codes)
                cnt = np.bincount(codes, minlength=ng * ng)
                nz = np.flatnonzero(cnt)
                for code in nz:
                    out_a.append(names[code // ng])
                    out_b.append(names[code % ng])
                    out_n.append(int(cnt[code]))
                    out_k.append(1)  # kind 1 = pair intersection row
        return pa.table(
            {
                "a": pa.array(out_a, pa.string()),
                "b": pa.array(out_b, pa.string()),
                "cnt": pa.array(out_n, pa.int64()),
                "kind": pa.array(out_k, pa.int8()),
            }
        )

    parts = (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(slice_counts, batch_format="pyarrow")
    )
    # O(groups²) rows per slice — a tiny driver-side aggregate by design.
    # kind column (not a name sentinel) separates size rows from pair rows,
    # so any group value — including "" — is a valid source name.
    agg: dict[tuple[str, str], int] = {}
    sizes: dict[str, int] = {}
    for row in parts.iter_rows():
        if int(row["kind"]) == 0:
            sizes[row["a"]] = sizes.get(row["a"], 0) + int(row["cnt"])
        else:
            k = (row["a"], row["b"])
            agg[k] = agg.get(k, 0) + int(row["cnt"])
    srcs = sorted(sizes)
    rows = []
    for i, sa in enumerate(srcs):
        for sb in srcs[i + 1 :]:
            inter = agg.get((sa, sb), 0) + agg.get((sb, sa), 0)
            za, zb = sizes[sa], sizes[sb]
            rows.append(
                {
                    "source_a": sa,
                    "source_b": sb,
                    "size_a": za,
                    "size_b": zb,
                    "intersection": inter,
                    "jaccard": round_half_up4(inter / (za + zb - inter)) if za + zb - inter else 0.0,
                    "containment": round_half_up4(inter / min(za, zb)) if min(za, zb) else 0.0,
                }
            )
    return pd.DataFrame(
        rows,
        columns=[
            "source_a",
            "source_b",
            "size_a",
            "size_b",
            "intersection",
            "jaccard",
            "containment",
        ],
    )


def snapshot_diff(
    ds_old,
    ds_new,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_slices: int | None = None,
):
    """Recrawl/CDC snapshot diff: compare two corpus snapshots by key and
    content digest, emitting one row per differing key — ``status`` ∈
    ``added`` (key only in new), ``removed`` (key only in old), ``changed``
    (key in both, text bytes differ). Unchanged keys emit nothing, so the
    output is |delta|-sized, not corpus-sized.

    Scale design: each side reduces to (id, 128-bit blake2b digest as two
    uint64 words, side tag) inside ``map_batches`` — the text never moves.
    The tagged digests are then hash-partitioned by a coarse key SLICE
    (never a per-key groupby) and each slice detects adds/removes/changes
    vectorized (lexsort + run boundaries). One all-to-all of ~24-byte rows
    total."""
    if num_slices is None:
        num_slices = dataflow.num_slices()

    def digest_side(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
            dg = _text_digests(batch[text_col].to_pylist())
            lo = dg["a"].copy() if len(dg) else np.empty(0, np.uint64)
            hi = dg["b"].copy() if len(dg) else np.empty(0, np.uint64)
            sl = dataflow.slice_of(num_slices, ids)
            return pa.table(
                {
                    "k": pa.array(ids),
                    "lo": pa.array(lo, pa.uint64()),
                    "hi": pa.array(hi, pa.uint64()),
                    "side": pa.array(np.full(len(ids), side, dtype=np.int8)),
                    "slice": pa.array(sl),
                }
            )

        return fn

    def detect(tbl: pa.Table) -> pa.Table:
        k = tbl["k"].combine_chunks().to_numpy(zero_copy_only=False)
        lo = tbl["lo"].combine_chunks().to_numpy(zero_copy_only=False)
        hi = tbl["hi"].combine_chunks().to_numpy(zero_copy_only=False)
        side = tbl["side"].combine_chunks().to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "status": pa.array([], pa.string())}
            )
        order = np.lexsort((hi, lo, side, k))
        k, lo, hi, side = k[order], lo[order], hi[order], side[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        lens = np.diff(np.r_[starts, len(k)])
        out_id, out_st = [], []
        one = lens == 1
        if one.any():
            s1 = starts[one]
            added = side[s1] == 1
            out_id.append(k[s1])
            out_st.append(np.where(added, "added", "removed"))
        # clean pair runs: exactly one row per side (side-sorted, so
        # position s2 is old and s2+1 is new by construction)
        two = (lens == 2)
        if two.any():
            s2 = starts[two]
            clean = (side[s2] == 0) & (side[s2 + 1] == 1)
            sc = s2[clean]
            if len(sc):
                diff = (lo[sc] != lo[sc + 1]) | (hi[sc] != hi[sc + 1])
                if diff.any():
                    out_id.append(k[sc][diff])
                    out_st.append(np.full(int(diff.sum()), "changed", dtype=object))
            s2 = s2[~clean]  # same-side pairs fall through to the slow path
        else:
            s2 = np.empty(0, dtype=np.int64)
        # irregular runs (a key appearing >1 time within one snapshot —
        # rare, so a Python loop over just these is fine): compare per-side
        # digest MULTISETS; sorted within run already, so slices align
        irregular = np.concatenate([starts[lens > 2], s2]) if (lens > 2).any() or len(s2) else s2
        for st in irregular:
            ln = int(lens[np.searchsorted(starts, st)])
            sl = slice(st, st + ln)
            is_new = side[sl] == 1
            o_lo, o_hi = lo[sl][~is_new], hi[sl][~is_new]
            n_lo, n_hi = lo[sl][is_new], hi[sl][is_new]
            if len(o_lo) == 0:
                status = "added"
            elif len(n_lo) == 0:
                status = "removed"
            elif len(o_lo) != len(n_lo) or (o_lo != n_lo).any() or (o_hi != n_hi).any():
                status = "changed"
            else:
                continue
            out_id.append(np.asarray([k[st]], dtype=np.int64))
            out_st.append(np.asarray([status], dtype=object))
        if not out_id:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "status": pa.array([], pa.string())}
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_id).astype(np.int64)),
                "status": pa.array(
                    np.concatenate([np.asarray(a, dtype=object) for a in out_st]),
                    pa.string(),
                ),
            }
        )

    tagged = ds_old.map_batches(digest_side(0), batch_format="pyarrow").union(
        ds_new.map_batches(digest_side(1), batch_format="pyarrow")
    )
    return tagged.groupby("slice").map_groups(detect, batch_format="pyarrow")


def minhash_plan(
    threshold: float,
    num_perm: int = 128,
    fp_weight: float = 0.5,
    fn_weight: float = 0.5,
):
    """Choose (bands, rows_per_band) for :func:`minhash_lsh_pairs` given a
    target Jaccard ``threshold`` — the MMDS S-curve planner (Leskovec,
    Rajaraman & Ullman ch. 3, the same criterion datasketch uses): the
    candidate probability of a pair with similarity s is
    ``1 − (1 − s^r)^b``; pick the factorization of ``num_perm`` minimizing
    the weighted false-positive + false-negative probability mass
    (integrals of the S-curve below/above the threshold, 1000-point
    midpoint rule).

    Returns ``{"bands": b, "rows_per_band": r, "threshold_50": t50, "fp":
    …, "fn": …}`` where ``threshold_50 = (1/b)^(1/r)`` is the similarity
    at which candidacy crosses 50%. Pure driver-side arithmetic — call it
    once, pass ``bands`` to the op."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    best = None
    xs = (np.arange(1000) + 0.5) / 1000.0
    for b in range(1, num_perm + 1):
        if num_perm % b:
            continue
        r = num_perm // b
        p = 1.0 - (1.0 - xs**r) ** b
        fp = float(p[xs < threshold].sum() / 1000.0)
        fn = float((1.0 - p)[xs >= threshold].sum() / 1000.0)
        err = fp_weight * fp + fn_weight * fn
        if best is None or err < best[0]:
            best = (err, b, r, fp, fn)
    _err, b, r, fp, fn = best
    return {
        "bands": b,
        "rows_per_band": r,
        "threshold_50": float((1.0 / b) ** (1.0 / r)),
        "fp": fp,
        "fn": fn,
    }


# --- prefix-filtered exact similarity join (AllPairs / PPJoin family) --------


def jaccard_prefix_pairs(
    ds,
    threshold: float = 0.4,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
    _cross_parity_only: bool = False,
):
    """EXACT word-``n``-gram Jaccard similarity self-join via prefix
    filtering (the AllPairs/PPJoin candidate scheme) — the deterministic
    complement to :func:`minhash_lsh_pairs`: 100 % recall at ANY threshold
    by construction, no probabilistic band tuning. Returns
    ``(id_a, id_b, jaccard)`` with ``id_a < id_b``, exact
    ``jaccard ≥ threshold`` — same ground truth as the all-pairs SQL
    oracle, reached without ever forming all pairs.

    Why it's lossless: order all shingles by (global df asc, hash asc);
    if ``J(A,B) ≥ t`` the smallest shared shingle must sit within the
    first ``|S| − ⌈t·|S|⌉ + 1`` shingles of BOTH sets (pigeonhole on the
    suffix), so emitting only each doc's prefix shingles still surfaces
    every qualifying pair. Only df ≥ 2 shingles can be shared, and every
    df = 1 shingle sorts ahead of them — so a doc's prefix contributes a
    candidate row only for its first
    ``n_shared − ⌈t·sz⌉ + 2`` shared shingles (one slack token guards
    float-boundary ⌈⌉); docs whose shared count can't reach ``t·sz``
    emit nothing.

    Scale plan (the classic distributed AllPairs): ① one sketch pass
    (:func:`_batch_doc_shingles`, vectorized) materializes
    ``(doc_id, sh, sz)``; ② shingle df via a coarse hash-slice groupby
    (never one Ray group per ~unique shingle), keeping only df ≥ 2 rows;
    ③ one hash join attaches df to the flat shingle stream; ④ a doc-slice
    groupby sorts each doc's shared shingles by (df, hash) and keeps the
    prefix; ⑤ a shingle-slice groupby expands per-bucket candidate pairs
    (with the conservative length filter ``min_sz ≥ t·max_sz − 1``);
    ⑥ :func:`_verify_pairs` attaches both sketches and scores exact
    Jaccard. Rare-first ordering keeps buckets small on natural corpora;
    unlike the LSH path there is no bucket cap — losslessness is the
    contract."""
    num_slices = dataflow.num_slices(mult=8, floor=64)

    def sketch(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        doc_idx, hashes = _batch_doc_shingles(texts, n)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        counts = np.bincount(doc_idx, minlength=len(texts)) if len(texts) else np.zeros(0, np.int64)
        ends = np.cumsum(counts)
        starts = ends - counts
        sh_bin = [
            hashes[s:e].tobytes() for s, e in zip(starts.tolist(), ends.tolist())
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sh": pa.array(sh_bin, pa.binary()),
                "sz": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    sketches = ds.map_batches(sketch, batch_format="pyarrow").materialize()

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        szs = batch["sz"].to_numpy(zero_copy_only=False)
        shl = batch["sh"].to_pylist()
        if not shl:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "shingle": pa.array([], pa.int64()),
                    "sz": pa.array([], pa.int64()),
                }
            )
        hashes = (
            np.frombuffer(b"".join(shl), dtype=np.uint64)
            if shl
            else np.empty(0, np.uint64)
        )
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, szs), pa.int64()),
                "shingle": pa.array(hashes.view(np.int64), pa.int64()),
                "sz": pa.array(np.repeat(szs, szs), pa.int64()),
            }
        )

    flat = sketches.map_batches(explode, batch_format="pyarrow")

    # ② shared-shingle df (df ≥ 2 only) via coarse hash slices
    sh_slice = dataflow.add_slice("shingle", num_slices)

    def df_slice(g: pa.Table) -> pa.Table:
        h = g["shingle"].to_numpy(zero_copy_only=False)
        vals, counts = np.unique(h, return_counts=True)
        keep = counts >= 2
        return pa.table(
            {
                "shingle": pa.array(vals[keep], pa.int64()),
                "df": pa.array(counts[keep].astype(np.int64), pa.int64()),
            }
        )

    shared_df = (
        flat.select_columns(["shingle"])
        .map_batches(sh_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(df_slice, batch_format="pyarrow")
        .materialize()
    )
    if shared_df.count() == 0:
        return dataflow.typed_empty(_JACCARD_PAIRS)

    # ③ attach df to the flat stream (inner join drops unshareable rows)
    shared_flat = dataflow.join(
        flat, shared_df, "inner", "shingle", num_partitions, chained=False,
        stream="left",
    )

    # ④ per-doc prefix selection (doc-slice groupby, one lexsort per slice)
    doc_slice = dataflow.add_slice("doc_id", num_slices)

    def prefix_slice(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        sh = g["shingle"].to_numpy(zero_copy_only=False)
        df = g["df"].to_numpy(zero_copy_only=False)
        sz = g["sz"].to_numpy(zero_copy_only=False)
        o = np.lexsort((sh, df, d))
        d, sh, df, sz = d[o], sh[o], df[o], sz[o]
        new = np.empty(len(d), dtype=bool)
        if len(d) == 0:
            return pa.table(
                {
                    "shingle": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "sz": pa.array([], pa.int64()),
                }
            )
        new[0] = True
        new[1:] = d[1:] != d[:-1]
        seg_start = np.flatnonzero(new)
        seg_id = np.cumsum(new) - 1
        i_within = np.arange(len(d), dtype=np.int64) - seg_start[seg_id]
        n_shared = np.diff(np.r_[seg_start, len(d)])[seg_id]
        k = n_shared - np.ceil(threshold * sz).astype(np.int64) + 2
        keep = i_within < np.minimum(k, n_shared)
        return pa.table(
            {
                "shingle": pa.array(sh[keep], pa.int64()),
                "doc_id": pa.array(d[keep], pa.int64()),
                "sz": pa.array(sz[keep], pa.int64()),
            }
        )

    prefixes = (
        shared_flat.map_batches(doc_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(prefix_slice, batch_format="pyarrow")
    )

    # ⑤ candidate pairs per shingle bucket (shingle-slice groupby)
    def cand_slice(g: pa.Table) -> pa.Table:
        sh = g["shingle"].to_numpy(zero_copy_only=False)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        sz = g["sz"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, sh))
        sh, d, sz = sh[o], d[o], sz[o]
        if len(sh) == 0:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        new = np.empty(len(sh), dtype=bool)
        new[0] = True
        new[1:] = sh[1:] != sh[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(sh)]
        out_a, out_b = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            m = e - s
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            da, db = d[s + iu], d[s + ju]
            za, zb = sz[s + iu], sz[s + ju]
            ok = (da != db) & (
                np.minimum(za, zb) >= threshold * np.maximum(za, zb) - 1.0
            )
            if _cross_parity_only:
                # jaccard_join encodes the side in the id's low bit —
                # intra-side candidates never reach the verify stage
                ok &= ((da ^ db) & 1).astype(bool)
            out_a.append(np.minimum(da, db)[ok])
            out_b.append(np.maximum(da, db)[ok])
        if not out_a:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a), pa.int64()),
                "id_b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    cand = (
        prefixes.map_batches(sh_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(cand_slice, batch_format="pyarrow")
    )

    # ⑥ exact verify
    joined = _verify_pairs(cand, sketches, num_partitions)
    if joined is None:
        return dataflow.typed_empty(_JACCARD_PAIRS)

    def score(batch: pa.Table) -> pa.Table:
        oa, ob, oj = [], [], []
        for x, y, sha, shb in zip(
            batch["id_a"].to_pylist(),
            batch["id_b"].to_pylist(),
            batch["sh_a"].to_pylist(),
            batch["sh_b"].to_pylist(),
        ):
            sa = np.frombuffer(sha, dtype=np.uint64)
            sb = np.frombuffer(shb, dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                oa.append(x)
                ob.append(y)
                oj.append(round_half_up4(jac))
        return pa.table(
            {
                "id_a": pa.array(oa, pa.int64()),
                "id_b": pa.array(ob, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


_JACCARD_PAIRS = {"id_a": pa.int64(), "id_b": pa.int64(), "jaccard": pa.float64()}


def jaccard_join(
    left,
    right,
    threshold: float = 0.4,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """Cross-corpus EXACT word-``n``-gram Jaccard similarity JOIN — "which
    pages of the new crawl near-duplicate something already in the corpus",
    the R×S sibling of the :func:`jaccard_prefix_pairs` self-join (same
    100 %-recall AllPairs prefix filtering, same exact verify; no
    probabilistic band tuning).

    Mechanics: the side is encoded into the id's low bit (``2·id`` left,
    ``2·id + 1`` right — ids must fit 62 bits), both corpora stream through
    ONE prefix-filter pipeline (shingle dfs are naturally counted over the
    union), and the candidate stage drops intra-side pairs before anything
    reaches the sketch-verify join — cross-side losslessness is inherited
    from the self-join proof, since cross pairs are a subset of union
    pairs.

    Returns ``(id_left, id_right, jaccard)`` with exact
    ``jaccard ≥ threshold`` (round-half-up 4), one row per qualifying
    cross pair.
    """

    def enc(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            if len(ids) and int(np.abs(ids).max()) >= 2**62:
                raise ValueError(
                    "jaccard_join ids must satisfy |id| < 2**62 (the "
                    "side bit is packed into the low bit of 2*id)"
                )
            return pa.table(
                {
                    "doc_id": pa.array(ids * 2 + side, pa.int64()),
                    text_col: batch[text_col],
                }
            )

        return fn

    u = left.map_batches(enc(0), batch_format="pyarrow").union(
        right.map_batches(enc(1), batch_format="pyarrow")
    )
    pairs = jaccard_prefix_pairs(
        u,
        threshold,
        n,
        "doc_id",
        text_col,
        num_partitions,
        _cross_parity_only=True,
    )

    def decode(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        left_ids = np.where(a % 2 == 0, a, b) // 2
        right_ids = np.where(a % 2 == 0, b, a) // 2
        return pa.table(
            {
                "id_left": pa.array(left_ids.astype(np.int64)),
                "id_right": pa.array(right_ids.astype(np.int64)),
                "jaccard": batch["jaccard"],
            }
        )

    return pairs.map_batches(decode, batch_format="pyarrow")


def doc_novelty(
    ds,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """Per-document novelty: the fraction of a doc's distinct word-``n``-
    gram shingles that appear in NO other document (corpus df = 1) — the
    content-originality gate complementing :func:`corpus_overlap` (which
    reports source-level sharing): boilerplate and templated pages score
    near 0, genuinely novel writing near 1.

    Scale shape (the :func:`jaccard_prefix_pairs` stages ①–③ reused): one
    vectorized sketch pass flattens distinct (doc, shingle-hash) rows and
    emits per-doc totals as one row per doc; shared shingles (df ≥ 2) are
    found with a coarse hash-slice groupby — that table is SMALL on
    natural corpora (most shingles are unique) — and one hash join +
    doc-slice count turns it into per-doc shared counts. ``novelty`` is
    the exact integer ratio ``(total − shared)/total`` ⇒ bitwise;
    shingle-less docs keep their row with NULL novelty.

    Output: ``(doc_id, n_shingles, n_shared, novelty)``.
    """
    num_slices = dataflow.num_slices(mult=8, floor=64)  # shingle slices
    doc_slices = dataflow.num_slices()

    def sketch(batch: pa.Table) -> pa.Table:
        # ONE shingling pass: compact (doc, packed hashes, count) sketches
        # — the jaccard_prefix_pairs layout — materialized once; the flat
        # stream and the totals are cheap derivations, so the expensive
        # normalize/split/hash work never runs twice over the corpus
        texts = batch[text_col].to_pylist()
        doc_idx, hashes = _batch_doc_shingles(texts, n)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        counts = (
            np.bincount(doc_idx, minlength=len(texts))
            if len(texts)
            else np.zeros(0, np.int64)
        )
        ends = np.cumsum(counts)
        starts = ends - counts
        sh_bin = [
            hashes[s:e].tobytes()
            for s, e in zip(starts.tolist(), ends.tolist())
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sh": pa.array(sh_bin, pa.binary()),
                "ns": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    sketches = ds.map_batches(sketch, batch_format="pyarrow").materialize()

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        szs = batch["ns"].to_numpy(zero_copy_only=False)
        shl = batch["sh"].to_pylist()
        hashes = (
            np.frombuffer(b"".join(shl), dtype=np.uint64)
            if shl
            else np.empty(0, np.uint64)
        )
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, szs), pa.int64()),
                "shingle": pa.array(hashes.view(np.int64), pa.int64()),
            }
        )

    flat = sketches.map_batches(explode, batch_format="pyarrow")
    tot = sketches.map_batches(
        lambda b: b.select(["doc_id", "ns"]), batch_format="pyarrow"
    )

    def df_slice(g: pa.Table) -> pa.Table:
        h = g["shingle"].to_numpy(zero_copy_only=False)
        vals, counts = np.unique(h, return_counts=True)
        keep = counts >= 2
        return pa.table({"shingle": pa.array(vals[keep], pa.int64())})

    shared_df = (
        flat.select_columns(["shingle"])
        .map_batches(dataflow.add_slice("shingle", num_slices), batch_format="pyarrow")
        .groupby("slice")
        .map_groups(df_slice, batch_format="pyarrow")
        .materialize()
    )

    if shared_df.count() == 0:
        shared_counts = None
    else:
        joined = dataflow.join(
            flat, shared_df, "inner", "shingle", num_partitions, chained=False,
            stream="left",
        )

        def doc_count(batch: pa.Table) -> pa.Table:
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            u, c = np.unique(d, return_counts=True)
            return pa.table(
                {
                    "doc_id": pa.array(u.astype(np.int64)),
                    "shared": pa.array(c.astype(np.int64)),
                }
            )

        shared_counts = joined.map_batches(doc_count, batch_format="pyarrow")

    def tag(kind: int, val_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            v = (
                batch[val_col].to_numpy(zero_copy_only=False)
                if val_col in batch.column_names
                else np.zeros(batch.num_rows, dtype=np.int64)
            )
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "v": pa.array(v.astype(np.int64)),
                    "kind": pa.array(
                        np.full(batch.num_rows, kind, dtype=np.int8), pa.int8()
                    ),
                }
            )

        return fn

    unioned = tot.map_batches(tag(0, "ns"), batch_format="pyarrow")
    if shared_counts is not None:
        unioned = unioned.union(
            shared_counts.map_batches(tag(1, "shared"), batch_format="pyarrow")
        )

    def finish(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                    "n_shared": pa.array([], pa.int64()),
                    "novelty": pa.array([], pa.float64()),
                }
            )
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False)
        docs, inv = np.unique(d, return_inverse=True)
        ns = np.bincount(inv, weights=np.where(k == 0, v, 0)).astype(np.int64)
        sh = np.bincount(inv, weights=np.where(k == 1, v, 0)).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            nov = (ns - sh).astype(np.float64) / ns.astype(np.float64)
        return pa.table(
            {
                "doc_id": pa.array(docs.astype(np.int64)),
                "n_shingles": pa.array(ns),
                "n_shared": pa.array(sh),
                "novelty": pa.array(
                    [float(x) if m else None for x, m in zip(nov, ns > 0)],
                    pa.float64(),
                ),
            }
        )

    return (
        unioned.map_batches(
            dataflow.add_slice("doc_id", doc_slices), batch_format="pyarrow"
        )
        .groupby("slice")
        .map_groups(finish, batch_format="pyarrow")
    )


def cluster_size_histogram(
    ds,
    threshold: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """Near-duplicate cluster-size histogram — the dedup AUDIT table: for
    each cluster size (1 = unique docs), how many clusters exist. The
    shape of this histogram is what a curation run reports before
    committing a dedup policy (a fat tail of giant clusters = template
    spam; mass at size 2 = mirrors). Pairs come from
    :func:`minhash_lsh_pairs` at ``threshold`` (exact word-shingle
    Jaccard verification — same truth set as the SQL oracle at the
    fixture thresholds); components via :func:`dedup_clusters_ds`
    (distributed min-label propagation). Output: ``(cluster_size,
    n_clusters)``.

    Scale: component labels stay a Dataset; per-label sizes and the size
    histogram are bounded-key combiner groupbys; only the O(distinct
    sizes) histogram reaches the driver."""
    import ray

    from .agg import grouped_agg

    pairs = minhash_lsh_pairs(
        ds, threshold=threshold, id_col=id_col, text_col=text_col
    )
    labels = dedup_clusters_ds(pairs, num_partitions=num_partitions)
    n_docs = ds.count()
    n_paired = labels.count()
    if n_paired:
        sizes = grouped_agg(
            labels.select_columns(["label"]),
            ["label"],
            {"size": ("count", "label")},
        )
        hist = grouped_agg(
            sizes.select_columns(["size"]),
            ["size"],
            {"n_clusters": ("count", "size")},
        ).to_pandas()
        by_size = dict(
            zip(hist["size"].astype(int), hist["n_clusters"].astype(int))
        )
    else:
        by_size = {}
    singles = n_docs - n_paired
    if singles:
        by_size[1] = by_size.get(1, 0) + singles
    out = sorted(by_size.items())
    return ray.data.from_arrow(
        pa.table(
            {
                "cluster_size": pa.array([s for s, _ in out], pa.int64()),
                "n_clusters": pa.array([n for _, n in out], pa.int64()),
            }
        )
    )

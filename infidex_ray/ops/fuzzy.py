"""Fuzzy key matching (record linkage) over a string column.

``fuzzy_pairs`` finds every unordered pair of DISTINCT keys within
Levenshtein distance ``max_dist`` (1 or 2) — the classic vocabulary /
entity-linkage primitive (typo clusters, near-identical titles, product
codes). The reference engine solves the per-QUERY version of this with its
word matcher / LD1 deletion index (``src/Infidex/WordIndexing/
WordMatcher.cs``, mirrored in ``infidex_ray/query/wordmatch.py``); this op
is the corpus-level all-pairs variant a training-data pipeline needs.

Scale design (Ray-Data-first, no all-pairs):

1. distinct keys via content-hash SLICE groupby (keys are ~unique — never
   one Ray group per key, the duplicate_spans lesson);
2. SymSpell symmetric-deletion blocking: each key emits itself plus every
   1-deletion (and 2-deletions for ``max_dist=2``) of its UTF-8 bytes,
   hashed to u64. Two keys within distance k ALWAYS share a variant
   (identity covers substitution/insertion via the other side's deletion)
   — the blocking is lossless, unlike prefix/length banding;
3. candidate pairs per shared variant, grouped by a coarse hash slice of
   the variant (vectorized run expansion, one lexsort per slice);
4. pair-level dedup + EXACT verify in one slice groupby: a vectorized
   byte-level Levenshtein DP over the whole pair batch (numpy rows ==
   pairs; O(len_a x len_b) small vector ops, no per-pair Python DP).

Distance is over UTF-8 BYTES — exactly what DuckDB ``levenshtein()``
computes (probe: levenshtein('e-acute','e') = 2), so the SQL oracle is
engine-identical. For ASCII keys bytes == characters.

At 100 TB the only shuffles are the two coarse slice groupbys; variant
fan-out is O(total key bytes) rows for k=1. A stop-word-like key shared by
everything is impossible (keys are distinct before blocking); the skew
risk is a variant bucket shared by many keys (e.g. 1-char keys) — cap with
``max_bucket_size`` (lossy: oversize runs are dropped silently, the same
skew-guard contract as minhash LSH's ``max_bucket_size``) if a real corpus
needs it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .dedup import _MIX1, _MIX2, _default_num_slices, _hash64, _md5_u64


def _distinct_keys(ds, col: str):
    """Distinct non-empty values of ``col`` — local per-batch distinct
    first, then one coarse md5-slice groupby (values are ~unique keys)."""
    num_slices = _default_num_slices(mult=8, floor=64)

    def local(batch: pa.Table) -> pa.Table:
        t = batch.select([col]).rename_columns(["w"])
        t = t.filter(t["w"].is_valid())
        t = t.group_by(["w"]).aggregate([])
        ws = t["w"].to_pylist()
        keep = pa.array([i for i, w in enumerate(ws) if w], pa.int64())
        t = t.take(keep)
        sl = np.asarray(
            [_md5_u64(w) % num_slices for w in t["w"].to_pylist()], dtype=np.int32
        )
        return t.append_column("slice", pa.array(sl))

    def per_slice(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:  # Ray 2.49 can emit schema-less empty groups
            return pa.table({"w": pa.array([], pa.string())})
        return group.drop_columns(["slice"]).group_by(["w"]).aggregate([])

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(per_slice, batch_format="pyarrow")
    )


def _deletion_hashes(wb: bytes, max_dist: int) -> list[int]:
    """u64 hashes of the identity + all <=max_dist byte-deletion variants."""
    out = [_hash64_bytes(wb)]
    n = len(wb)
    for i in range(n):
        d1 = wb[:i] + wb[i + 1 :]
        out.append(_hash64_bytes(d1))
        if max_dist >= 2:
            for j in range(len(d1)):
                out.append(_hash64_bytes(d1[:j] + d1[j + 1 :]))
    return out


def _hash64_bytes(b: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "little")


def lev_bytes(
    a_words: list[str], b_words: list[str], band: int | None = None
) -> np.ndarray:
    """Vectorized byte-level Levenshtein over parallel word lists — one DP
    where the pair axis is a numpy vector (rows = pairs), matching DuckDB
    ``levenshtein()`` byte semantics exactly.

    With ``band=k`` only cells with ``|i-j| <= k`` are computed (O(len·(2k+1))
    instead of O(len²)): exact for every distance ≤ k, and any pair whose
    true distance exceeds k reports a value > k (a distance cannot undercut
    the |i-j| skew of the DP path it needs). The verify stage passes
    ``band=max_dist``, so long keys cost linear, not quadratic, time."""
    n = len(a_words)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    ab = [w.encode("utf-8") for w in a_words]
    bb = [w.encode("utf-8") for w in b_words]
    la = np.asarray([len(x) for x in ab], dtype=np.int64)
    lb = np.asarray([len(x) for x in bb], dtype=np.int64)
    ma, mb = int(la.max()), int(lb.max())
    A = np.frombuffer(b"".join(x.ljust(ma, b"\0") for x in ab), dtype=np.uint8)
    A = A.reshape(n, ma) if ma else A.reshape(n, 0)
    B = np.frombuffer(b"".join(x.ljust(mb, b"\0") for x in bb), dtype=np.uint8)
    B = B.reshape(n, mb) if mb else B.reshape(n, 0)
    BIG = np.int64(1 << 40)
    ans = np.empty(n, dtype=np.int64)
    sel0 = la == 0
    ans[sel0] = lb[sel0]
    prev = np.broadcast_to(np.arange(mb + 1, dtype=np.int64), (n, mb + 1)).copy()
    if band is not None and mb > band:
        prev[:, band + 1 :] = BIG
    for i in range(1, ma + 1):
        cur = np.full((n, mb + 1), BIG, dtype=np.int64)
        lo = 1 if band is None else max(1, i - band)
        hi = mb if band is None else min(mb, i + band)
        if band is None or i <= band:
            cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(lo, hi + 1):
            cost = (ai != B[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), prev[:, j - 1] + cost
            )
        sel = la == i
        if sel.any():
            ans[sel] = np.minimum(cur[sel, lb[sel]], BIG)
        prev = cur
    return ans


def fuzzy_pairs(
    ds,
    col: str = "w",
    max_dist: int = 1,
    max_bucket_size: int | None = None,
):
    """All unordered pairs of distinct ``col`` values within byte-level
    Levenshtein distance ``max_dist`` (1 or 2).

    Output: (word_a, word_b, dist) with ``word_a < word_b`` (binary string
    order, = DuckDB's default collation) and ``dist`` in 1..max_dist.
    """
    if max_dist not in (1, 2):
        raise ValueError("fuzzy_pairs supports max_dist 1 or 2")
    num_slices = _default_num_slices(mult=8, floor=64)

    keys = _distinct_keys(ds, col)

    def emit_variants(batch: pa.Table) -> pa.Table:
        hs, ws = [], []
        for w in batch["w"].to_pylist():
            vh = _deletion_hashes(w.encode("utf-8"), max_dist)
            hs.extend(vh)
            ws.extend([w] * len(vh))
        h = np.asarray(hs, dtype=np.uint64)
        return pa.table(
            {
                "h": pa.array(h.view(np.int64)),
                "w": pa.array(ws, pa.string()),
                "slice": pa.array((h % np.uint64(num_slices)).view(np.int64).astype(np.int32)),
            }
        )

    def pairs_in_slice(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"word_a": pa.array([], pa.string()), "word_b": pa.array([], pa.string())}
        )
        if group.num_rows < 2:
            return empty
        h = group["h"].to_numpy(zero_copy_only=False)
        ws = np.asarray(group["w"].to_pylist(), dtype=object)
        # one (variant, word) row per distinct combination: a word emits the
        # same variant hash more than once when two deletions coincide
        order = np.lexsort((ws.astype(str), h))
        h, ws = h[order], ws[order]
        dup = np.zeros(len(h), dtype=bool)
        dup[1:] = (h[1:] == h[:-1]) & (ws[1:] == ws[:-1])
        h, ws = h[~dup], ws[~dup]
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        lens = np.diff(np.r_[starts, len(h)])
        if max_bucket_size is not None:
            keep_run = lens <= max_bucket_size
        else:
            keep_run = np.ones(len(lens), dtype=bool)
        keep_run &= lens >= 2
        if not keep_run.any():
            return empty
        a_idx, b_idx = [], []
        for s, ln in zip(starts[keep_run], lens[keep_run]):
            ii, jj = np.triu_indices(int(ln), k=1)
            a_idx.append(s + ii)
            b_idx.append(s + jj)
        a_idx = np.concatenate(a_idx)
        b_idx = np.concatenate(b_idx)
        wa, wb = ws[a_idx], ws[b_idx]
        swap = wa > wb
        wa[swap], wb[swap] = wb[swap], wa[swap]
        return pa.table(
            {
                "word_a": pa.array(list(wa), pa.string()),
                "word_b": pa.array(list(wb), pa.string()),
            }
        )

    cand = (
        keys.map_batches(emit_variants, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(pairs_in_slice, batch_format="pyarrow")
    )

    def add_pair_slice(batch: pa.Table) -> pa.Table:
        a = np.asarray(
            [_hash64(w) for w in batch["word_a"].to_pylist()], dtype=np.uint64
        )
        b = np.asarray(
            [_hash64(w) for w in batch["word_b"].to_pylist()], dtype=np.uint64
        )
        with np.errstate(over="ignore"):
            h = (a * _MIX1) ^ (b * _MIX2)
        return batch.append_column(
            "slice", pa.array((h % np.uint64(num_slices)).astype(np.int32))
        )

    def verify_slice(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "word_a": pa.array([], pa.string()),
                "word_b": pa.array([], pa.string()),
                "dist": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        t = group.drop_columns(["slice"]).group_by(["word_a", "word_b"]).aggregate([])
        wa, wb = t["word_a"].to_pylist(), t["word_b"].to_pylist()
        d = lev_bytes(wa, wb, band=max_dist)
        keep = np.flatnonzero((d >= 1) & (d <= max_dist))
        if len(keep) == 0:
            return empty
        kept = t.take(keep)
        return pa.table(
            {
                "word_a": kept["word_a"],
                "word_b": kept["word_b"],
                "dist": pa.array(d[keep], pa.int64()),
            }
        )

    return (
        cand.map_batches(add_pair_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(verify_slice, batch_format="pyarrow")
    )


def fuzzy_key_clusters(
    ds,
    col: str = "w",
    max_dist: int = 1,
    max_bucket_size: int | None = None,
    num_partitions: int | None = None,
):
    """Record-linkage composition over :func:`fuzzy_pairs`: every distinct
    key labeled with the canonical spelling of its fuzzy component —
    ``canonical`` = the binary-min key reachable through pairs within
    ``max_dist`` (transitive closure, so 'hash'~'hashs'~'hash5s' cluster
    even when the endpoints are 2 apart at max_dist=1). Output:
    (word, canonical), one row per distinct key; singletons map to
    themselves.

    Scale shape: pairs from the deletion-blocked miner; components via the
    distributed min-label propagation of
    :func:`infidex_ray.ops.dedup.dedup_clusters_ds` over md5 node ids
    (internal only — canonical selection never depends on hash order);
    canonical = per-label min word via one label-slice groupby; two
    key-scale hash joins map words → labels → canonicals.
    """
    import ray

    from .dedup import dedup_clusters_ds

    keys = _distinct_keys(ds, col)

    def add_node(batch: pa.Table) -> pa.Table:
        h = np.asarray(
            [_hash64(w) for w in batch["w"].to_pylist()], dtype=np.uint64
        )
        return pa.table(
            {"w": batch["w"], "node": pa.array(h.view(np.int64))}
        )

    words = keys.map_batches(add_node, batch_format="pyarrow")

    pairs = fuzzy_pairs(ds, col, max_dist=max_dist, max_bucket_size=max_bucket_size)

    def pair_ids(batch: pa.Table) -> pa.Table:
        a = np.asarray(
            [_hash64(w) for w in batch["word_a"].to_pylist()], dtype=np.uint64
        )
        b = np.asarray(
            [_hash64(w) for w in batch["word_b"].to_pylist()], dtype=np.uint64
        )
        return pa.table(
            {
                "id_a": pa.array(a.view(np.int64)),
                "id_b": pa.array(b.view(np.int64)),
            }
        )

    id_pairs = pairs.map_batches(pair_ids, batch_format="pyarrow")
    id_pairs = id_pairs.repartition(4).materialize()  # normalize empty blocks
    words = words.repartition(4).materialize()
    if id_pairs.count() == 0:
        # no fuzzy neighbors anywhere: every key is its own canonical
        def identity(batch: pa.Table) -> pa.Table:
            return pa.table({"word": batch["w"], "canonical": batch["w"]})

        return words.map_batches(identity, batch_format="pyarrow")

    labels = dedup_clusters_ds(id_pairs, num_partitions=num_partitions)
    labels = labels.repartition(4).materialize()

    # words ⟕ labels: keys absent from every pair keep their own node label
    joined = words.join(
        labels, "left_outer", _num_join_partitions(num_partitions), on=("node",)
    )

    def fill_label(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        lab = np.asarray(
            [n if v is None else v for v, n in zip(batch["label"].to_pylist(), node)],
            dtype=np.int64,
        )
        num_slices = _default_num_slices()
        return pa.table(
            {
                "word": batch["w"],
                "label": pa.array(lab.astype(np.int64)),
                "slice": pa.array(
                    (lab.view(np.uint64) % np.uint64(num_slices)).astype(np.int32)
                ),
            }
        )

    wl = joined.map_batches(fill_label, batch_format="pyarrow")

    def canon_in_slice(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"label": pa.array([], pa.int64()), "canonical": pa.array([], pa.string())}
            )
        lab = group["label"].to_numpy(zero_copy_only=False)
        ws = np.asarray(group["word"].to_pylist(), dtype=object)
        order = np.lexsort((ws.astype(str), lab))
        lab_s, ws_s = lab[order], ws[order]
        firsts = np.flatnonzero(np.r_[True, lab_s[1:] != lab_s[:-1]])
        return pa.table(
            {
                "label": pa.array(lab_s[firsts].astype(np.int64)),
                "canonical": pa.array(list(ws_s[firsts]), pa.string()),
            }
        )

    canon = (
        wl.groupby("slice")
        .map_groups(canon_in_slice, batch_format="pyarrow")
        .repartition(4)
        .materialize()
    )
    wl2 = wl.drop_columns(["slice"]).repartition(4).materialize()
    out = wl2.join(canon, "inner", _num_join_partitions(num_partitions), on=("label",))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"word": batch["word"], "canonical": batch["canonical"]})

    return out.map_batches(project, batch_format="pyarrow")


def _num_join_partitions(requested: int | None) -> int:
    from .dedup import _join_partitions

    return _join_partitions(requested)


def jaro_winkler_pairs(
    ds,
    key_col: str,
    id_col: str = "doc_id",
    window: int = 4,
    threshold: float = 0.9,
):
    """Sorted-neighborhood record linkage scored by Jaro-Winkler: sort on
    ``(key, id)``, emit every pair within ``window`` positions, keep pairs
    with ``jaro_winkler(key_a, key_b) >= threshold``. The JW
    implementation (query/metrics.py:156-201, JaccardMetric.cs family) is
    bitwise-identical to DuckDB's native ``jaro_winkler_similarity`` —
    probed over adversarial pairs — so the threshold filter and the
    rounded score are both hash-checkable.

    Scale shape: one global sort (ops.ranking._sorted_block_offsets), then
    each sorted block pairs itself with only the ``window`` straddling
    rows shipped from its predecessors (O(blocks·window) driver rows —
    the sorted_neighborhood_pairs plan with the key strings riding
    along). Output: ``(id_a, id_b, dist, jw)``, id_a the earlier row.
    """
    from ..query.metrics import jaro_winkler_similarity
    from .dedup import round_half_up4
    from .joins import neighborhood_fanout

    proj = ds.select_columns(list(dict.fromkeys([key_col, id_col])))
    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int32()),
            "jw": pa.array([], pa.float64()),
        }
    )

    def pairs(t: pa.Table, prev: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                prev[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                t[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            ]
        )
        keys = prev[key_col].to_pylist() + t[key_col].to_pylist()
        p = len(prev)
        out_a, out_b, out_d, out_j = [], [], [], []
        for d in range(1, window + 1):
            j = np.arange(max(p, d), len(ids), dtype=np.int64)
            i = j - d
            ok = i >= 0
            for ii, jj in zip(i[ok].tolist(), j[ok].tolist()):
                jw = jaro_winkler_similarity(
                    keys[ii] or "", keys[jj] or ""
                )
                if jw >= threshold:
                    out_a.append(int(ids[ii]))
                    out_b.append(int(ids[jj]))
                    out_d.append(d)
                    out_j.append(round_half_up4(jw))
        if not out_a:
            return empty
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "dist": pa.array(out_d, pa.int32()),
                "jw": pa.array(out_j, pa.float64()),
            }
        )

    return neighborhood_fanout(proj, [key_col, id_col], window, pairs, empty)


def spell_suggest(
    ds,
    queries: list[str],
    max_dist: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Did-you-mean: for every query token ABSENT from the corpus
    vocabulary, the best correction — minimum byte-level Levenshtein
    distance (≤ ``max_dist``), ties to the HIGHEST document frequency,
    then lexicographic. Tokens are lowered ASCII-whitespace tokens (RE2
    parity); df = number of documents containing the token. Output:
    ``(token, suggestion, distance, df)`` — one row per correctable OOV
    token.

    Scale: the corpus streams ONCE — per batch, distinct (doc, token)
    counts fold into per-token df partials and a banded ``lev_bytes``
    lane per query token × batch-vocab emits that batch's candidates
    (every candidate, with its df PARTIAL — the rank rule needs global
    df, so an in-batch argmin would be wrong); the driver reduce sums
    O(candidates × blocks) rows — bounded by the LD≤k neighborhoods of
    the query tokens, not the corpus."""
    import pyarrow.compute as pc
    import ray

    from .asciiws import query_terms

    tokens = sorted({t for q in queries for t in query_terms(q)})
    if not tokens:
        raise ValueError("queries must contain at least one token")
    tok_bytes = [t.encode("utf-8") for t in tokens]

    def partial(batch: pa.Table) -> pa.Table:
        from .asciiws import flat_tokens_arrow

        flat, doc_of = flat_tokens_arrow(batch[text_col], lower_text=True)
        enc = flat.dictionary_encode()
        words = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (doc, word) → per-word df partial
        pairs = np.unique(np.stack([doc_of, idx], axis=1), axis=0)
        dfp = np.bincount(pairs[:, 1], minlength=len(words))
        out = {
            "token": [],
            "suggestion": [],
            "distance": [],
            "df": [],
            "kind": [],
        }
        # vocab df partials for the query tokens themselves (OOV check)
        wl = np.asarray([len(w.encode("utf-8")) for w in words], dtype=np.int64)
        for t, tb in zip(tokens, tok_bytes):
            hitw = np.flatnonzero(words == t)
            if len(hitw):
                out["token"].append(t)
                out["suggestion"].append(t)
                out["distance"].append(0)
                out["df"].append(int(dfp[hitw[0]]))
                out["kind"].append("present")
            # banded candidates (|byte length diff| <= k mirrors the
            # oracle's strlen band)
            cand = np.flatnonzero(np.abs(wl - len(tb)) <= max_dist)
            if len(cand) == 0:
                continue
            d = lev_bytes(
                [t] * len(cand), [words[c] for c in cand], band=max_dist
            )
            ok = d <= max_dist
            if not ok.any():
                continue
            # emit EVERY in-batch candidate: the rank rule needs GLOBAL
            # df, and an in-batch argmin could drop the suggestion whose
            # df only wins after summing across batches
            for c, dist in zip(cand[ok], d[ok]):
                out["token"].append(t)
                out["suggestion"].append(str(words[c]))
                out["distance"].append(int(dist))
                out["df"].append(int(dfp[c]))
                out["kind"].append("cand")
        return pa.table(
            {
                "token": pa.array(out["token"], pa.string()),
                "suggestion": pa.array(out["suggestion"], pa.string()),
                "distance": pa.array(out["distance"], pa.int64()),
                "df": pa.array(out["df"], pa.int64()),
                "kind": pa.array(out["kind"], pa.string()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    # final reduce: O(tokens × blocks) partial rows. A candidate's df is
    # its IN-BATCH partial, but docs never span batches and the rank rule
    # needs GLOBAL df — re-aggregate per (token, suggestion) first.
    present: set[str] = set()
    cand_df: dict[tuple[str, str], int] = {}
    cand_d: dict[tuple[str, str], int] = {}
    for r in rows:
        if r["kind"] == "present":
            present.add(r["token"])
        else:
            k = (r["token"], r["suggestion"])
            cand_df[k] = cand_df.get(k, 0) + int(r["df"])
            cand_d[k] = int(r["distance"])
    best: dict[str, tuple] = {}
    for (t, w), df in cand_df.items():
        if t in present:
            continue
        e = (cand_d[(t, w)], -df, w)
        if t not in best or e < best[t]:
            best[t] = e
    out_rows = sorted(
        (t, w, d, -ndf) for t, (d, ndf, w) in best.items()
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "token": pa.array([r[0] for r in out_rows], pa.string()),
                "suggestion": pa.array([r[1] for r in out_rows], pa.string()),
                "distance": pa.array([r[2] for r in out_rows], pa.int64()),
                "df": pa.array([r[3] for r in out_rows], pa.int64()),
            }
        )
    )

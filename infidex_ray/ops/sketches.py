"""Distributed cardinality sketches (HyperLogLog, Flajolet et al. 2007 —
public algorithm; bias constants per the original paper).

At 100 TB, ``count(DISTINCT x)`` per group is a full shuffle of every
distinct value; an HLL register vector is a few KB, merges with an
element-wise MAX, and answers within ~1.04/√m. The sketch here is fully
deterministic — the hash is ``md5_number_lower`` (DuckDB parity, same as
simhash/fingerprints), register index = low ``p`` bits, rank = leading-zero
count of the top ``64−p`` bits — so the DuckDB oracle recomputes the EXACT
same estimate, not just a close one: the estimator is a pure function of
the data.

* :func:`approx_distinct` — global cardinality of one column: per-batch
  register partials (≤ m rows per block) → ``groupby(register).max`` over a
  fixed m-key space → driver estimate from m rows.
* :func:`approx_distinct_by` — per-group cardinality (e.g. distinct users
  per event type, distinct docs per domain): partials keyed by
  ``(group, register)``, per-group estimate vectorized inside
  ``map_groups``. The shuffle moves ≤ m rows per group per block instead of
  every distinct value.

Estimator: ``E = α_m · m² / Σ 2^−M[j]`` with the standard small-range
linear-counting correction (``E ≤ 2.5·m`` and empty registers present →
``m·ln(m/V)``); the 64-bit-hash variant needs no large-range correction.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import dataflow
from .dedup import _md5_u64

__all__ = [
    "approx_distinct",
    "approx_distinct_by",
    "cms_counts",
    "kmv_distinct",
    "kmv_set_ops",
    "bloom_against",
    "priority_sample",
]

_TWO64 = 18446744073709551616.0  # 2^64, exact in float64


def _alpha(m: int) -> float:
    if m >= 128:
        return 0.7213 / (1 + 1.079 / m)
    return {16: 0.673, 32: 0.697, 64: 0.709}[m]


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` over uint64 (exact — no float log2)."""
    out = np.zeros(len(w), dtype=np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        v[big] >>= np.uint64(shift)
    out[w > 0] += 1
    return out


def _ranks(values: list, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) per value: idx = low p hash bits, rank =
    1 + leading zeros of the top 64−p bits (q+1 when they are all zero)."""
    q = 64 - p
    h = np.fromiter(
        (_md5_u64("" if v is None else str(v)) for v in values),
        dtype=np.uint64,
        count=len(values),
    )
    idx = (h & np.uint64((1 << p) - 1)).astype(np.int64)
    w = h >> np.uint64(p)
    rank = q + 1 - _bit_length_u64(w)
    return idx, rank


def _estimate(regs: np.ndarray) -> float:
    """HLL estimate from the full m-length register vector."""
    m = len(regs)
    ssum = float(np.power(2.0, -regs.astype(np.float64)).sum())
    e = _alpha(m) * m * m / ssum
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)
    return e


def approx_distinct(ds, col: str, p: int = 12) -> pa.Table:
    """Approximate ``count(DISTINCT col)`` via a 2^p-register HLL. Returns a
    one-row table ``(approx_distinct,)`` — deterministically identical to
    the oracle's SQL replay of the same registers."""
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        idx, rank = _ranks(batch[col].to_pylist(), p)
        regs = np.zeros(m, dtype=np.int64)
        np.maximum.at(regs, idx, rank)
        nz = np.flatnonzero(regs)
        return pa.table(
            {
                "register": pa.array(nz.astype(np.int64), pa.int64()),
                "r": pa.array(regs[nz], pa.int64()),
            }
        )

    rows = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("register")
        .max("r")
        .take_all()
    )
    regs = np.zeros(m, dtype=np.int64)
    for row in rows:
        regs[row["register"]] = row.get("max(r)", row.get("r"))
    est = _estimate(regs)
    return pa.table(
        {"approx_distinct": pa.array([int(math.floor(est + 0.5))], pa.int64())}
    )


def approx_distinct_by(
    ds, key_col: str, col: str, p: int = 12
):
    """Per-group approximate distinct counts: one HLL per ``key_col`` value.
    Returns a Dataset of ``(key_col, approx_distinct)``. Partials move
    ≤ 2^p rows per (group, block) — never the distinct values themselves."""
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col]
        idx, rank = _ranks(batch[col].to_pylist(), p)
        # per-(key, register) max within the batch via lexsort + run ends
        enc = keys.combine_chunks().dictionary_encode() if isinstance(
            keys, pa.ChunkedArray
        ) else keys.dictionary_encode()
        kid = np.asarray(enc.indices.to_numpy(zero_copy_only=False), np.int64)
        order = np.lexsort((rank, idx, kid))
        k2, i2, r2 = kid[order], idx[order], rank[order]
        last = np.ones(len(k2), dtype=bool)
        last[:-1] = (k2[1:] != k2[:-1]) | (i2[1:] != i2[:-1])
        sel = np.flatnonzero(last)
        return pa.table(
            {
                key_col: enc.dictionary.take(pa.array(k2[sel], pa.int64())),
                "register": pa.array(i2[sel], pa.int64()),
                "r": pa.array(r2[sel], pa.int64()),
            }
        )

    merged = (
        ds.select_columns([key_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "register"])
        .max("r")
    )

    def finish(group: pa.Table) -> pa.Table:
        rcol = "max(r)" if "max(r)" in group.column_names else "r"
        regs = np.zeros(m, dtype=np.int64)
        regs[group["register"].to_numpy(zero_copy_only=False)] = group[
            rcol
        ].to_numpy(zero_copy_only=False)
        est = _estimate(regs)
        return pa.table(
            {
                key_col: group[key_col].slice(0, 1),
                "approx_distinct": pa.array(
                    [int(math.floor(est + 0.5))], pa.int64()
                ),
            }
        )

    return merged.groupby(key_col).map_groups(finish, batch_format="pyarrow")


# --- count-min sketch ---------------------------------------------------------


def cms_counts(
    ds,
    col: str,
    keys: list,
    width: int = 8192,
    depth: int = 4,
):
    """Count-min sketch frequency estimates (Cormode & Muthukrishnan 2005 —
    public algorithm) for a set of query keys: each of ``depth`` rows hashes
    every value into ``width`` buckets (double hashing over the two md5
    halves, same family as the Bloom filter); a key's estimate is the MIN of
    its ``depth`` bucket counts — an upper bound on the true count that
    tightens as width grows.

    The sketch is ``depth × width`` int64 — per-batch dense bincount
    partials into a fixed-key groupby, so the shuffle never moves values.
    Deterministic (pure hash function), so the oracle replays the estimates
    exactly, collisions included. Returns a one-block table
    ``(key, est_count)`` in the order given."""
    from .dedup import _md5_pair_mod

    def positions(values: list) -> np.ndarray:
        h1, h2 = _md5_pair_mod(values, width)
        d = np.arange(depth, dtype=np.uint64)
        return (
            (h1[:, None] + d[None, :] * h2[:, None]) % np.uint64(width)
        ).astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        pos = positions(batch[col].to_pylist())  # (n, depth)
        flat = pos + (np.arange(depth, dtype=np.int64) * width)[None, :]
        c = np.bincount(flat.reshape(-1), minlength=depth * width)
        nz = np.flatnonzero(c)
        return pa.table(
            {
                "cell": pa.array(nz.astype(np.int64), pa.int64()),
                "n": pa.array(c[nz], pa.int64()),
            }
        )

    rows = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .sum("n")
        .take_all()
    )
    sketch = np.zeros(depth * width, dtype=np.int64)
    for r in rows:
        sketch[r["cell"]] = r.get("sum(n)", r.get("n"))
    qpos = positions(keys) + (np.arange(depth, dtype=np.int64) * width)[None, :]
    est = sketch[qpos].min(axis=1)
    return pa.table(
        {
            "key": pa.array([str(k) for k in keys], pa.string()),
            "est_count": pa.array(est, pa.int64()),
        }
    )


# --- K-minimum-values distinct ------------------------------------------------


def kmv_distinct(ds, keys, col: str, k: int = 1024, salt: str = "kmv"):
    """Per-group approximate count-distinct via the k-minimum-values sketch
    (Bar-Yossef et al. 2002) — the order-statistics sibling of
    :func:`approx_distinct_by`: a KMV sketch is larger per group (k hashes
    vs 2^p 6-bit registers) but is EXACT below k distinct values and its
    bottom-k hash sets support set-operation estimates (union/intersection
    cardinality) that HLL registers cannot express. Output: (*keys,
    est_distinct DOUBLE rounded 4dp, n_hashes BIGINT = min(k, distinct)).

    Shuffle: per-block per-group bottom-k distinct hashes → one group-slice
    groupby of ≤ groups × k × blocks partial rows (never the values).
    Estimate ``(k-1) * 2^64 / h_(k)`` — one IEEE-exact multiply+divide over
    the md5 parity hash, so the DuckDB oracle reproduces the approximation
    error bit-for-bit.
    """
    from .dedup import round_half_up4

    keys = list(keys)
    num_slices = dataflow.num_slices()
    # key field types for the empty-group guard (Ray 2.49 emits schema-less
    # empty groups; the guard must still type its columns like real groups)
    try:
        sch = ds.schema()
        base = getattr(sch, "base_schema", sch)
        key_types = {kc: base.field(kc).type for kc in keys}
    except Exception:
        key_types = {kc: pa.string() for kc in keys}

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(keys + [col])
        t = t.filter(t[col].is_valid())
        if t.num_rows == 0:
            return pa.table(
                {
                    **{kc: batch[kc].slice(0, 0) for kc in keys},
                    "h": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        t = t.group_by(keys + [col]).aggregate([])
        h = np.asarray(
            [_md5_u64(f"{salt}:{v}") for v in t[col].to_pylist()], dtype=np.uint64
        )
        # bottom-k per group: lexsort by (group code, hash), cut each run
        codes = _group_codes(t.select(keys))
        order = np.lexsort((h, codes))
        codes_s = codes[order]
        starts = np.flatnonzero(np.r_[True, codes_s[1:] != codes_s[:-1]])
        lens = np.diff(np.r_[starts, len(codes_s)])
        pos = np.arange(len(codes_s)) - np.repeat(starts, lens)
        keep = order[pos < k]
        kept = t.take(pa.array(keep, pa.int64()))
        hk = h[keep]
        # route by GROUP, not hash: all of a group's partials must meet
        gsl = (
            dataflow.slice_of(num_slices, *(kept[kc] for kc in keys))
            if keys
            else np.zeros(len(keep), dtype=np.int32)
        )
        out = {kc: kept[kc] for kc in keys}
        out["h"] = pa.array(hk.view(np.int64))
        out["slice"] = pa.array(gsl)
        return pa.table(out)

    def finish(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:  # Ray 2.49 can emit schema-less empty groups
            out = {kc: pa.array([], key_types[kc]) for kc in keys}
            out["est_distinct"] = pa.array([], pa.float64())
            out["n_hashes"] = pa.array([], pa.int64())
            return pa.table(out)
        t = group.drop_columns(["slice"])
        t = t.group_by(keys + ["h"]).aggregate([])  # re-distinct across blocks
        h = t["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        codes = _group_codes(t.select(keys))
        order = np.lexsort((h, codes))
        codes_s, h_s = codes[order], h[order]
        starts = np.flatnonzero(np.r_[True, codes_s[1:] != codes_s[:-1]])
        lens = np.diff(np.r_[starts, len(codes_s)])
        reps = t.take(pa.array(order[starts], pa.int64()))
        n_hashes = np.minimum(lens, k)
        est = np.empty(len(starts), dtype=np.float64)
        small = lens < k
        est[small] = lens[small].astype(np.float64)
        if (~small).any():
            kth = h_s[starts[~small] + (k - 1)].astype(np.float64)
            est[~small] = (float(k - 1) * _TWO64) / kth
        out = {kc: reps[kc] for kc in keys}
        out["est_distinct"] = pa.array([round_half_up4(x) for x in est])
        out["n_hashes"] = pa.array(n_hashes.astype(np.int64))
        return pa.table(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(finish, batch_format="pyarrow")
    )


def _group_codes(gt: pa.Table) -> np.ndarray:
    """Dense int codes for the row tuples of a (small) key table — exact:
    per-column Arrow dictionary codes (null-aware, no string serialization
    that could collide e.g. None with 'None') combined via a row-wise
    np.unique."""
    n = gt.num_rows
    if gt.num_columns == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    cols = []
    for c in gt.column_names:
        arr = gt[c]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
            if isinstance(arr, pa.ChunkedArray):  # older pyarrow: 1-chunk CA
                arr = arr.chunk(0) if arr.num_chunks else pa.array([], arr.type)
        enc = arr.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.where(np.isnan(idx), -1, idx).astype(np.int64)
        cols.append(idx)
    mat = np.stack(cols, axis=1)
    _, codes = np.unique(mat, axis=0, return_inverse=True)
    return codes.astype(np.int64).reshape(-1)


# --- Bloom membership flags ---------------------------------------------------


def bloom_against(
    corpus,
    bench,
    col: str,
    m_bits: int = 4096,
    n_hashes: int = 3,
    id_col: str | None = None,
):
    """Tag every corpus row with a Bloom membership verdict against the
    bench side's ``col`` values — the flag-surface sibling of
    :func:`infidex_ray.ops.dedup.dedup_against_bloom` (which DROPS probable
    members of a text column); same engine: Kirsch-Mitzenmacher double
    hashing over the two md5 halves (``ops.dedup._bloom_positions``), so
    the deterministic false positives replay in SQL. Output: (id?, col,
    bloom_hit BOOL; hit ⇔ all ``n_hashes`` positions set, null → False).

    Filter build: each block emits its distinct bit positions (≤ m_bits
    rows), the union (≤ m_bits ints, sorted) is broadcast once via
    ``ray.put``; the probe side streams through one vectorized
    searchsorted. For m beyond object-store comfort, shard by position
    range and run one pass per shard.
    """
    import ray

    from .dedup import _bloom_positions

    def bench_positions(batch: pa.Table) -> pa.Table:
        vals = pc.drop_null(batch[col]).unique().to_pylist()
        pos = _bloom_positions(vals, m_bits, n_hashes)
        return pa.table(
            {"p": pa.array(np.unique(pos.reshape(-1)), pa.int64())}
        )

    parts = bench.map_batches(bench_positions, batch_format="pyarrow")
    positions = np.unique(
        np.asarray([r["p"] for r in parts.take_all()], dtype=np.int64)
    )
    bits_ref = ray.put(positions)

    def probe(batch: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        vals = batch[col].to_pylist()
        valid = np.asarray([v is not None for v in vals], dtype=bool)
        hit = np.zeros(len(vals), dtype=bool)
        if len(bits) and valid.any():
            pos = _bloom_positions(vals, m_bits, n_hashes)
            loc = np.searchsorted(bits, pos)
            loc[loc >= len(bits)] = len(bits) - 1
            hit = (bits[loc] == pos).all(axis=1) & valid
        out = {}
        if id_col is not None:
            out[id_col] = batch[id_col]
        out[col] = batch[col]
        out["bloom_hit"] = pa.array(hit)
        return pa.table(out)

    return corpus.map_batches(probe, batch_format="pyarrow")


# --- Priority sampling --------------------------------------------------------


def priority_sample(
    ds, k: int, weight_col: str, key_col: str, salt: str = "ps"
):
    """Duffield-Lund-Thorup priority sample of k rows: priority
    ``q = w / u`` with ``u = (CAST(h AS DOUBLE) + 1) / 2^64`` from the md5
    parity hash of ``salt:key`` — one IEEE-exact divide, so DuckDB's
    ``ORDER BY q DESC LIMIT k`` selects the identical set (reproducible
    across engines, reruns, and cluster sizes, like the sample_hash /
    deterministic_shuffle family). Per-block partial top-k, then a global
    sort over ≤ k × blocks rows. Output: (key, weight, q) — final order is
    the caller's concern (the contract sorts by key).
    """

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        w = (
            pc.cast(batch[weight_col], pa.float64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        h = np.asarray(
            [_md5_u64(f"{salt}:{v}") for v in keys], dtype=np.uint64
        ).astype(np.float64)
        u = (h + 1.0) / _TWO64
        q = w / u
        # tie-break on the key with its NATIVE ordering (ties reach the cut
        # when many rows share a q, e.g. all-zero weights) — same rule as
        # the global sort and the oracle's ORDER BY q DESC, key
        scored = pa.table({key_col: batch[key_col], "q": pa.array(q)})
        order = pc.sort_indices(
            scored,
            sort_keys=[("q", "descending"), (key_col, "ascending")],
        )[:k]
        t = batch.take(order)
        return pa.table(
            {
                key_col: t[key_col],
                weight_col: t[weight_col],
                "q": pa.array(q[order.to_numpy(zero_copy_only=False)]),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .sort(["q", key_col], descending=[True, False])
        .limit(k)
    )


def kmv_set_ops(ds, source_col: str, col: str, k: int = 256, salt: str = "kmv"):
    """Pairwise union / intersection cardinality ESTIMATES between sources
    from mergeable KMV sketches (Beyer et al., SIGMOD 2007) — the sketch
    algebra HLL registers cannot express: "how many users do sources A and
    B share?" without ever co-shuffling their values.

    Per source: bottom-``k`` distinct ``md5(salt:value)`` hashes (exact set
    when the source has < k distinct values). Per pair (A, B): merge the
    two sketches, keep the bottom k; with ``τ = h_(k)`` of the merged set,
    ``union_est = (k−1)·2⁶⁴/τ`` and ``inter_est = (ρ/k)·union_raw`` where
    ``ρ`` counts merged-top-k hashes present in BOTH sketches. When the
    merged set has < k hashes both sketches were exact, so both estimates
    collapse to exact counts. Every quantity is integer-derived with one
    fixed float expression per estimate ⇒ the DuckDB oracle reproduces the
    approximation error bit-for-bit (the :func:`kmv_distinct` contract).

    Scale shape: per-block per-source bottom-k partials → one source-slice
    groupby → ≤ |sources|·k rows to the driver for the O(|sources|²) pair
    algebra (the ``corpus_overlap`` driver-rows convention; sources are a
    handful, values never leave their blocks unaggregated).

    Output: ``(src_a, src_b, union_est, inter_est)`` with src_a < src_b,
    estimates rounded half-away 4dp.
    """
    from .dedup import round_half_up4

    num_slices = dataflow.num_slices()

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([source_col, col])
        t = t.filter(pc.and_(t[source_col].is_valid(), t[col].is_valid()))
        if t.num_rows == 0:
            return pa.table(
                {
                    "src": pa.array([], pa.string()),
                    "h": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        t = t.group_by([source_col, col]).aggregate([])
        srcs = np.asarray(
            t[source_col].cast(pa.string()).to_pylist(), dtype=object
        )
        h = np.asarray(
            [_md5_u64(f"{salt}:{v}") for v in t[col].to_pylist()],
            dtype=np.uint64,
        )
        order = np.lexsort((h, srcs))
        ss, hs = srcs[order], h[order]
        starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        lens = np.diff(np.r_[starts, len(ss)])
        pos = np.arange(len(ss)) - np.repeat(starts, lens)
        keep = pos < k
        ss, hs = ss[keep], hs[keep]
        sl = dataflow.slice_of(num_slices, ss)
        return pa.table(
            {
                "src": pa.array(ss, pa.string()),
                "h": pa.array(hs.view(np.int64)),
                "slice": pa.array(sl),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return pa.table(
                {"src": pa.array([], pa.string()), "h": pa.array([], pa.int64())}
            )
        t = t.group_by(["src", "h"]).aggregate([])
        srcs = np.asarray(t["src"].to_pylist(), dtype=object)
        h = t["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.lexsort((h, srcs))
        ss, hs = srcs[order], h[order]
        starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
        lens = np.diff(np.r_[starts, len(ss)])
        pos = np.arange(len(ss)) - np.repeat(starts, lens)
        keep = pos < k
        return pa.table(
            {
                "src": pa.array(ss[keep], pa.string()),
                "h": pa.array(hs[keep].view(np.int64)),
            }
        )

    sk = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(merge, batch_format="pyarrow")
        .to_pandas()  # ≤ |sources| × k rows by construction
    )
    sketches: dict = {}
    for s, grp in sk.groupby("src"):
        sketches[s] = np.sort(grp["h"].to_numpy().view(np.uint64))
    names = sorted(sketches)
    rows = {"src_a": [], "src_b": [], "union_est": [], "inter_est": []}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ka, kb = sketches[a], sketches[b]
            merged = np.union1d(ka, kb)
            top = merged[:k]
            in_both = np.isin(top, ka) & np.isin(top, kb)
            nboth = int(in_both.sum())
            if len(merged) < k:
                union_est = float(len(merged))
                inter_est = float(nboth)
            else:
                raw = (float(k - 1) * _TWO64) / float(top[k - 1])
                union_est = raw
                inter_est = (float(nboth) / float(k)) * raw
            rows["src_a"].append(a)
            rows["src_b"].append(b)
            rows["union_est"].append(round_half_up4(union_est))
            rows["inter_est"].append(round_half_up4(inter_est))
    return pa.table(
        {
            "src_a": pa.array(rows["src_a"], pa.string()),
            "src_b": pa.array(rows["src_b"], pa.string()),
            "union_est": pa.array(rows["union_est"], pa.float64()),
            "inter_est": pa.array(rows["inter_est"], pa.float64()),
        }
    )
